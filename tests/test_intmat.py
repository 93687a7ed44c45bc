import functools
import math
import random
from itertools import product

import pytest

from ckbundle import (
    IntMatrix,
    IntPolynomial,
    NotUnimodular,
    charpoly,
    det,
    kernel_basis,
    matmul,
    matpow,
    smith_diagonal,
    smith_normal_form,
    trace,
    unimodular_inverse,
)
from ckbundle import intmat

from conftest import A2, A3, FIB, identity_minus_transpose, random_matrix, random_unimodular
from oracles import (
    bareiss_reference,
    brute_kernel_vectors,
    charpoly_faddeev,
    det_cofactor,
    elementary_generators,
    matpow_naive,
    rank_by_minors,
    snf_2x2_oracle,
)


def test_constructor_rejects_bad_shapes():
    with pytest.raises(ValueError):
        IntMatrix([])
    with pytest.raises(ValueError):
        IntMatrix([[]])
    with pytest.raises(ValueError):
        IntMatrix([[1, 2], [3]])
    with pytest.raises(TypeError):
        IntMatrix([[1.5]])


def test_value_semantics():
    a = IntMatrix([[1, 2], [3, 4]])
    b = IntMatrix([[1, 2], [3, 4]])
    assert a == b and hash(a) == hash(b)
    assert a != IntMatrix([[1, 2], [3, 5]])
    assert a[0, 1] == 2 and a[1] == (3, 4)


def test_eq_with_non_matrix_and_repr():
    m = IntMatrix([[1, 2]])
    assert m.__eq__(((1, 2),)) is NotImplemented
    assert (m == ((1, 2),)) is False
    assert repr(m) == "IntMatrix([[1, 2]])"


def test_is_nonnegative_scans_every_entry():
    assert IntMatrix([[0]]).is_nonnegative
    assert IntMatrix([[0, 3], [2**70, 0]]).is_nonnegative
    for i, j in product(range(2), range(3)):
        rows = [[1, 0, 2], [0, 5, 1]]
        rows[i][j] = -(2**70) if (i + j) % 2 else -1
        assert not IntMatrix(rows).is_nonnegative
    # the scan stops at the first row with a negative entry, so a lone one in
    # the last row or column must still be found; a zero matrix is nonnegative
    for n in (1, 4, 32):
        assert IntMatrix.zero(n, n).is_nonnegative
        for i, j in [(n - 1, c) for c in range(n)] + [(r, n - 1) for r in range(n)]:
            rows = [[2**70 if (r + c) % 2 else 1 for c in range(n)] for r in range(n)]
            rows[i][j] = -1
            assert not IntMatrix(rows).is_nonnegative


def test_matmul_identity():
    assert matmul(IntMatrix.identity(2), A2) == A2


def test_matmul_hand_expansion():
    assert matmul(FIB, FIB) == IntMatrix([[2, 1], [1, 1]])


def test_matmul_rectangular():
    a = IntMatrix([[1, 2, 3], [4, 5, 6]])
    b = IntMatrix([[7], [8], [9]])
    # dot products by hand: 7+16+27 and 28+40+54
    assert matmul(a, b) == IntMatrix([[50], [122]])


def test_matmul_dimension_mismatch():
    with pytest.raises(ValueError):
        matmul(IntMatrix([[1, 2]]), IntMatrix([[1, 2]]))


def test_matpow_base_cases():
    assert matpow(A2, 0) == IntMatrix.identity(2)
    assert matpow(A2, 1) == A2


def test_matpow_fibonacci():
    expected = IntMatrix(matpow_naive(FIB.to_lists(), 5))
    assert expected == IntMatrix([[8, 5], [5, 3]])
    assert matpow(FIB, 5) == expected


def test_matpow_rejects():
    with pytest.raises(ValueError):
        matpow(IntMatrix([[1, 2, 3]]), 2)
    with pytest.raises(ValueError):
        matpow(A2, -1)


def test_matpow_additivity():
    rng = random.Random(11)
    for _ in range(25):
        a = random_matrix(rng, 3, 3, -4, 4)
        j, k = rng.randint(0, 4), rng.randint(0, 4)
        assert matpow(a, j + k) == matmul(matpow(a, j), matpow(a, k))


def test_det_examples():
    assert det(IntMatrix.identity(4)) == 1
    assert det(A2) == 5 * 1 - 2 * 2 == 1
    assert det(A3) == 5 * 1 - 1 * 4 == 1


def test_det_matches_cofactor_oracle():
    rng = random.Random(12)
    for _ in range(40):
        n = rng.randint(1, 5)
        a = random_matrix(rng, n, n, -9, 9)
        assert det(a) == det_cofactor(a.to_lists())


def test_det_multiplicative():
    rng = random.Random(13)
    for _ in range(30):
        n = rng.randint(1, 4)
        a = random_matrix(rng, n, n, -6, 6)
        b = random_matrix(rng, n, n, -6, 6)
        assert det(matmul(a, b)) == det(a) * det(b)


def test_det_nonsquare():
    with pytest.raises(ValueError):
        det(IntMatrix([[1, 2, 3], [4, 5, 6]]))


def test_echelon_matches_rank_oracle():
    # seeded rectangular inputs of low rank, with some columns zeroed out
    from ckbundle.intmat import _echelon

    rng = random.Random(48)
    for _ in range(150):
        rows, cols = rng.randint(1, 6), rng.randint(1, 7)
        k = rng.randint(0, min(rows, cols))
        left = random_matrix(rng, rows, k, -3, 3).to_lists() if k else [[] for _ in range(rows)]
        right = random_matrix(rng, k, cols, -3, 3).to_lists() if k else []
        zeroed = set(rng.sample(range(cols), rng.randint(0, cols - 1)))
        original = [[0] * cols for _ in range(rows)]
        for i, j, t in product(range(rows), range(cols), range(k)):
            if j not in zeroed:
                original[i][j] += left[i][t] * right[t][j]
        m = [row[:] for row in original]
        pivots, sign = _echelon(m)
        assert len(pivots) == rank_by_minors(original)
        assert sign in (1, -1) and pivots == sorted(set(pivots))
        assert not zeroed & set(pivots)
        for t, c in enumerate(pivots):
            assert m[t][c] != 0 and not any(m[t][:c])
            assert not any(m[i][c] for i in range(t + 1, rows))
        assert not any(any(row) for row in m[len(pivots) :])


def _echelon_cases(rng):
    """Row lists for the echelon: rectangular ones of mixed density, with
    zero columns, of low rank, permuted block-triangular squares, and
    cyclic-imprimitive patterns, alone, as I - A^t and beside unit columns."""
    for _ in range(300):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        density = rng.choice((0.15, 0.4, 1.0))
        m = [[rng.randint(-4, 4) if rng.random() < density else 0 for _ in range(cols)] for _ in range(rows)]
        for j in rng.sample(range(cols), rng.randint(0, cols - 1)):
            for row in m:
                row[j] = 0
        yield m
    for _ in range(100):
        rows, cols, k = rng.randint(2, 8), rng.randint(2, 8), rng.randint(1, 4)
        left = random_matrix(rng, rows, k, -3, 3).to_lists()
        right = [[rng.randint(-3, 3) if rng.random() < 0.5 else 0 for _ in range(cols)] for _ in range(k)]
        yield [[sum(x * row[j] for x, row in zip(line, right)) for j in range(cols)] for line in left]
    for _ in range(150):
        n = rng.randint(2, 9)
        cuts = sorted(rng.sample(range(1, n), rng.randint(1, min(3, n - 1))))
        block = [sum(i >= cut for cut in cuts) for i in range(n)]
        m = [[rng.randint(-3, 3) if block[i] <= block[j] else 0 for j in range(n)] for i in range(n)]
        rp, cp = rng.sample(range(n), n), rng.sample(range(n), n)
        yield [[m[i][j] for j in cp] for i in rp]
    for _ in range(150):
        period = rng.randint(2, 4)
        n = period * rng.randint(2, 4)
        a = [[rng.randint(0, 2) if j % period == (i + 1) % period else 0 for j in range(n)] for i in range(n)]
        perm = rng.sample(range(n), n)
        a = [[a[i][j] for j in perm] for i in perm]
        yield a
        i_minus = identity_minus_transpose(IntMatrix(a)).to_lists()
        yield i_minus
        yield [row + [int(i == n - 1 - t) for t in range(4)] for i, row in enumerate(i_minus)]


def test_echelon_matches_bareiss_reference():
    # the lazily scaled kernel leaves exactly what the textbook loop leaves,
    # in place, with the same pivots and sign, on every kind of input; the
    # seen counts make sure that rows it skipped become pivot rows, also
    # after a swap, and that a square input's last pivot gives its det
    from ckbundle.intmat import _echelon

    seen = {"stale": 0, "stale swapped": 0, "square": 0, "singular": 0}
    for rows in _echelon_cases(random.Random(27)):
        m, expected = [row[:] for row in rows], [row[:] for row in rows]
        pivots, sign, stale = bareiss_reference(expected)
        assert (_echelon(m), m) == ((pivots, sign), expected), rows
        seen["stale"] += len(stale)
        seen["stale swapped"] += sum(stale)
        if len(rows) == len(rows[0]) <= 8:
            d = det_cofactor(rows)
            assert sign * m[-1][-1] == d
            seen["square"] += 1
            seen["singular"] += d == 0
    assert min(seen.values()) >= 100, seen


class _LoggedRow(list):
    """A row that appends its label to a shared log on every write."""

    def __init__(self, values, label, log):
        super().__init__(values)
        self.label, self.log = label, log

    def __setitem__(self, key, value):
        self.log.append(self.label)
        super().__setitem__(key, value)


def test_echelon_does_not_touch_rows_with_a_zero_pivot_entry():
    # upper block-triangular [[A, B], [0, C]], A 4x3 and C 2x3: steps 0-2
    # pivot in columns 0-2, where rows 4 and 5 are zero, and row 3 must be
    # reduced at each of them, so its last write ends step 2. The textbook
    # loop rescales rows 4 and 5 at every step; the kernel writes them only
    # once the elimination reaches column 3.
    from ckbundle.intmat import _echelon

    rows = [
        [2, 1, 1, 3, 1, 2],
        [1, 3, 2, 1, 2, 1],
        [3, 1, 2, 2, 1, 3],
        [1, 2, 3, 1, 3, 2],
        [0, 0, 0, 2, 1, 1],
        [0, 0, 0, 1, 3, 2],
    ]

    def written(kernel):
        log = []
        m = [_LoggedRow(row, i, log) for i, row in enumerate(rows)]
        assert kernel(m)[:2] == ([0, 1, 2, 3, 4, 5], 1)
        end_of_step_2 = max(t for t, label in enumerate(log) if label == 3)
        return {label for label in log[:end_of_step_2]}

    assert written(bareiss_reference) == {1, 2, 3, 4, 5}
    assert written(_echelon) == {1, 2, 3}


def test_trace_examples():
    assert trace(IntMatrix.identity(3)) == 3
    assert trace(A2) == 6
    assert trace(IntMatrix([[1, 7], [0, 1]])) == 2
    with pytest.raises(ValueError):
        trace(IntMatrix([[1, 2]]))


def test_charpoly_examples():
    assert charpoly(A2) == IntPolynomial((1, -6, 1))
    assert charpoly(IntMatrix.identity(2)) == IntPolynomial((1, -2, 1))
    assert charpoly(IntMatrix([[0, 1], [1, 0]])) == IntPolynomial((-1, 0, 1))


def test_charpoly_agrees_with_cofactor_evaluation():
    # p(x) must equal det(xI - A) at sample points, computed independently
    rng = random.Random(14)
    for _ in range(25):
        n = rng.randint(1, 4)
        a = random_matrix(rng, n, n, -5, 5)
        p = charpoly(a)
        assert p.degree == n and p.coefficients[-1] == 1
        for x in range(-3, 4):
            shifted = [
                [x * int(i == j) - a[i, j] for j in range(n)] for i in range(n)
            ]
            assert p(x) == det_cofactor(shifted)


def test_charpoly_constant_term_is_signed_det():
    rng = random.Random(15)
    for _ in range(25):
        n = rng.randint(1, 4)
        a = random_matrix(rng, n, n, -6, 6)
        assert charpoly(a)(0) == (-1) ** n * det(a)



def _charpoly_cases(seed):
    """Seeded square matrices n = 1..12: dense, sparse 0/+-1, zero diagonal."""
    rng = random.Random(seed)
    for n in range(1, 13):
        yield random_matrix(rng, n, n, -9, 9)
        yield IntMatrix(
            [[rng.choice((0, 0, 0, 1, -1)) for _ in range(n)] for _ in range(n)]
        )
        yield IntMatrix(
            [[0 if i == j else rng.randint(-4, 4) for j in range(n)] for i in range(n)]
        )


def test_charpoly_matches_faddeev_oracle():
    for a in _charpoly_cases(41):
        assert charpoly(a).coefficients == charpoly_faddeev(a.to_lists())


def test_charpoly_matches_sympy():
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    for a in _charpoly_cases(42):
        expected = sympy.Matrix(a.to_lists()).charpoly(t).all_coeffs()
        assert charpoly(a).coefficients == tuple(int(c) for c in reversed(expected))


def test_charpoly_at_scale_matches_determinants():
    # n = 48 guard on results only: p(0) = (-1)^n det(A), p(1) = det(I - A),
    # which is det(I - A^t)
    rng = random.Random(43)
    n = 48
    a = random_matrix(rng, n, n, -3, 3)
    p = charpoly(a)
    assert p.degree == n
    assert p(0) == (-1) ** n * det(a)
    assert p(1) == det(identity_minus_transpose(a))


def _coefficient_bound(rows):
    """B = max_k e_k(r_1, ..., r_n) with r_i = isqrt(|row_i|^2) + 1, the
    bound on every |c_k| that charpoly's modulus m = 2B + 1 rests on."""
    e = [1]
    for row in rows:
        r = math.isqrt(sum(x * x for x in row)) + 1
        e = [x + r * y for x, y in zip(e + [0], [0] + e)]
    return max(e)


def _large_charpoly_cases(rng):
    """Square matrices on both sides of charpoly's cut-off. At n = 13..32:
    dense signed, sparse 0/+-1, zero diagonal, block-triangular under a
    permutation similarity, and upper Hessenberg with a zero subdiagonal
    entry. At 13, 14 and 32: the identity, a scalar matrix, the nilpotent
    shift."""
    for n in (13, 14, 15, 16, 19, 24, 32):
        yield random_matrix(rng, n, n, -9, 9)
        yield IntMatrix([[rng.choice((0, 0, 0, 1, -1)) for _ in range(n)] for _ in range(n)])
        yield IntMatrix([[0 if i == j else rng.randint(-4, 4) for j in range(n)] for i in range(n)])
        cut = rng.randint(1, n - 1)
        perm = rng.sample(range(n), n)
        block = [
            [rng.randint(-3, 3) if i < cut or j >= cut else 0 for j in range(n)] for i in range(n)
        ]
        yield IntMatrix([[block[perm[i]][perm[j]] for j in range(n)] for i in range(n)])
        hessenberg = [[rng.randint(-5, 5) if j >= i - 1 else 0 for j in range(n)] for i in range(n)]
        hessenberg[cut][cut - 1] = 0
        yield IntMatrix(hessenberg)
    for n in (13, 14, 32):
        yield IntMatrix.identity(n)
        yield IntMatrix.diagonal([-3] * n)
        yield IntMatrix([[int(j == i + 1) for j in range(n)] for i in range(n)])


def test_charpoly_and_berkowitz_match_faddeev_across_the_cut_off():
    assert 13 < intmat._HESSENBERG_FROM <= 32
    for a in _large_charpoly_cases(random.Random(44)):
        expected = charpoly_faddeev(a.to_lists())
        assert charpoly(a).coefficients == expected
        assert intmat._berkowitz(a.entries) == expected


def test_coefficients_stay_within_the_bound():
    for a in [*_large_charpoly_cases(random.Random(45)), *_charpoly_cases(46)]:
        bound = _coefficient_bound(a.entries)
        assert all(abs(c) <= bound for c in charpoly(a).coefficients)


def test_hessenberg_declines_without_a_unit_pivot():
    # mod 15, column 0 holds 3 and 5 below the diagonal: nonzero, no unit
    rows = ((1, 2, 0), (3, 0, 1), (5, 1, 1))
    assert intmat._hessenberg_charpoly(rows, 15) is None
    m = 2 * _coefficient_bound(rows) + 3
    assert intmat._hessenberg_charpoly(rows, m) == charpoly_faddeev(rows)
    # an input at the cut-off whose first modulus m is a multiple of 3 and
    # whose first column is 0 mod 3: charpoly declines once, retries with m + 2
    rng = random.Random(47)
    n = intmat._HESSENBERG_FROM
    while True:
        a = random_matrix(rng, n, n, -4, 4)
        a = IntMatrix([[3 * x if j == 0 else x for j, x in enumerate(row)] for row in a.entries])
        m = 2 * _coefficient_bound(a.entries) + 1
        if m % 3 == 0:
            break
    assert intmat._hessenberg_charpoly(a.entries, m) is None
    assert charpoly(a).coefficients == charpoly_faddeev(a.to_lists())


def test_polynomial_normalization_and_eval():
    p = IntPolynomial((1, -6, 1, 0, 0))
    assert p.coefficients == (1, -6, 1)
    assert p.degree == 2
    assert p(0) == 1 and p(6) == 1
    assert IntPolynomial((0, 0)).is_zero
    assert IntPolynomial().degree == -1


def test_polynomial_str():
    assert str(IntPolynomial((1, -6, 1))) == "t^2 - 6t + 1"
    assert str(IntPolynomial((-1, 0, 1))) == "t^2 - 1"
    assert str(IntPolynomial((1, -2, 1))) == "t^2 - 2t + 1"
    assert str(IntPolynomial((0, 1))) == "t"
    assert str(IntPolynomial((1, 0, -2))) == "-2t^2 + 1"
    assert str(IntPolynomial()) == "0"


def _check_decomposition(a):
    dec = smith_normal_form(a)
    assert matmul(matmul(dec.u, a), dec.v) == dec.d
    assert det(dec.u) in (1, -1)
    assert det(dec.v) in (1, -1)
    diag = dec.diagonal()
    assert all(x >= 0 for x in diag)
    # off-diagonal zero
    for i in range(dec.d.rows):
        for j in range(dec.d.cols):
            if i != j:
                assert dec.d[i, j] == 0
    # zeros last, divisor chain on the nonzero prefix
    nonzero = [x for x in diag if x != 0]
    assert tuple(nonzero) + (0,) * (len(diag) - len(nonzero)) == diag
    for x, y in zip(nonzero, nonzero[1:]):
        assert y % x == 0
    return dec


def test_snf_paper_style_examples():
    dec = _check_decomposition(IntMatrix([[-4, -2], [-2, 0]]))
    assert dec.diagonal() == snf_2x2_oracle([[-4, -2], [-2, 0]]) == (2, 2)

    dec = _check_decomposition(IntMatrix.diagonal([6, 4]))
    assert dec.diagonal() == snf_2x2_oracle([[6, 0], [0, 4]]) == (2, 12)

    dec = _check_decomposition(IntMatrix.zero(2, 2))
    assert dec.diagonal() == (0, 0)


def test_snf_randomized_invariants():
    rng = random.Random(16)
    for _ in range(60):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        a = random_matrix(rng, rows, cols, -20, 20)
        dec = _check_decomposition(a)
        # transpose invariance of the diagonal
        assert dec.diagonal() == smith_normal_form(IntMatrix(zip(*a.entries))).diagonal()
        if rows == cols:
            d = det(a)
            if d != 0:
                prod = 1
                for x in dec.diagonal():
                    prod *= x
                assert prod == abs(d)


def test_snf_2x2_gcd_oracle():
    rng = random.Random(17)
    for _ in range(300):
        a = random_matrix(rng, 2, 2, -30, 30)
        assert smith_normal_form(a).diagonal() == snf_2x2_oracle(a.to_lists())



def _mixed_diagonal(rng, d, length=12):
    """W @ diag(d) @ V for W and V random words of the given length in the
    elementary generators: a square matrix whose Smith diagonal is the
    divisor-chain form of d."""
    gens = [IntMatrix(g) for g in elementary_generators(len(d))]
    w, v = (
        functools.reduce(matmul, rng.choices(gens, k=length), IntMatrix.identity(len(d)))
        for _ in range(2)
    )
    return w @ IntMatrix.diagonal(d) @ v


def _smith_cases(seed):
    """Seeded rectangular matrices 1..8 x 1..8, some with a zeroed row and a
    zeroed column, plus zero matrices; then square matrices of known Smith
    diagonal: non-cyclic (also with prime powers, and with a prime too large
    for smith_diagonal's trial division), cyclic with every adjugate probe
    of smith_diagonal's certificate even, det +-1, 1x1 and singular."""
    rng = random.Random(seed)
    for rows in range(1, 9):
        for cols in range(1, 9):
            a = random_matrix(rng, rows, cols, -12, 12).to_lists()
            yield IntMatrix(a)
            a[rng.randrange(rows)] = [0] * cols
            j = rng.randrange(cols)
            for row in a:
                row[j] = 0
            yield IntMatrix(a)
            yield IntMatrix.zero(rows, cols)
    yield IntMatrix.diagonal((2, 1, 1, 1, 1))
    for d in ((2, 2, 6), (2, 4, 72, 1080), (2**31 - 1, 2**31 - 1), (1, 2, 1, 1, 1),
              (1, 1, 1, 1), (-1, 1, 1), (1, 3, 0), (0, 0, 5)):
        yield _mixed_diagonal(rng, d)
    yield IntMatrix([[-7]])
    yield IntMatrix([[0]])


def test_smith_diagonal_matches_full_decomposition():
    for a in _smith_cases(44):
        assert smith_diagonal(a) == smith_normal_form(a).diagonal()


def test_smith_diagonal_matches_sympy():
    pytest.importorskip("sympy")
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    for a in _smith_cases(45):
        d = sympy_snf(Matrix(a.to_lists()), domain=ZZ)
        expected = tuple(abs(int(d[i, i])) for i in range(min(a.rows, a.cols)))
        assert smith_diagonal(a) == expected

def test_snf_deterministic():
    a = IntMatrix([[6, 4, 2], [2, 8, 4], [0, 10, 2]])
    assert smith_normal_form(a) == smith_normal_form(a)


# (a, u, d, v) as smith_normal_form returns them: the pivot rule, the sign
# normalisation and the divisor-chain step fix the transforms, not only d.
PINNED_SMITH = [
    # 2x3
    ([[2, 4, 4], [-6, 6, 12]], [[1, 0], [3, 1]], [[2, 0, 0], [0, 6, 0]],
     [[1, 0, -2], [0, -1, 4], [0, 1, -3]]),
    # 3x2
    ([[1, 2], [3, 4], [5, 6]], [[1, 0, 0], [3, -1, 0], [1, -2, 1]], [[1, 0], [0, 2], [0, 0]],
     [[1, -2], [0, 1]]),
    # zero row
    ([[0, 0, 0], [1, 2, 3], [4, 5, 6]], [[0, 1, 0], [0, 4, -1], [1, 0, 0]],
     [[1, 0, 0], [0, 3, 0], [0, 0, 0]], [[1, -2, 1], [0, 1, -2], [0, 0, 1]]),
    # negative pivot, negated rows
    ([[-3, 5], [7, -2]], [[0, -1], [-1, -17]], [[1, 0], [0, 29]], [[1, -2], [4, -7]]),
    # divisor-chain step: 2 and 3, then 6 and 5, are coprime
    ([[2, 0, 0], [0, 3, 0], [0, 0, 5]], [[-1, 1, 0], [-3, 2, -1], [15, -10, 6]],
     [[1, 0, 0], [0, 1, 0], [0, 0, 30]], [[1, -3, -15], [1, -2, -10], [0, 1, 6]]),
    # the first pivot leaves remainder 1 at (1, 0), which pivots again at t = 0
    ([[3, 5], [7, 4]], [[-2, 1], [7, -3]], [[1, 0], [0, 23]], [[1, 6], [0, 1]]),
    # four pairwise-coprime entries: the divisor-chain loop runs a second round
    ([[2, 0, 0, 0], [0, 3, 0, 0], [0, 0, 5, 0], [0, 0, 0, 7]],
     [[-1, 1, 0, 0], [-3, 2, -1, 0], [-45, 30, -18, 13], [-105, 70, -42, 30]],
     [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 210]],
     [[1, -3, -15, 1365], [1, -2, -10, 910], [0, 1, 6, -546], [0, 0, 1, -90]]),
    # 4x6 with entries up to 50: many column operations land in v
    ([[-21, -3, -2, -34, -26, 40], [-45, -40, -33, -19, 14, -24], [1, 32, -47, 8, 12, 8],
      [-1, 13, 23, -26, 1, -39]],
     [[0, 0, 1, 0], [0, 0, 1, 1], [1, 1, -10176, -10242],
      [421286, 421285, -4286999587, -4314804418]],
     [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0]],
     [[1, -150, -1353, 19735, -200345, -24995], [0, 0, -4204, -9508, 96523, 12043],
      [0, -6, 1609, -8223, 83477, 10427], [0, 0, 50, -11617, 117934, 14700],
      [0, -11, 17592, -228, 2311, 332], [0, 0, 0, -786, 7978, 1013]]),
]


@pytest.mark.parametrize("a, u, d, v", PINNED_SMITH)
def test_smith_transforms_pinned(a, u, d, v):
    dec = smith_normal_form(IntMatrix(a))
    assert (dec.u.to_lists(), dec.d.to_lists(), dec.v.to_lists()) == (u, d, v)
    assert dec.u @ IntMatrix(a) @ dec.v == dec.d


def test_kernel_basis_pinned():
    a = IntMatrix([[2, 4, 6, 8], [1, 1, 1, 1]])
    assert kernel_basis(a) == [(1, -2, 1, 0), (2, -3, 0, 1)]
    # rank 2 below 3 rows: the zero diagonal entry at row 2 marks a kernel column
    a = IntMatrix([[1, 2, 3, 4], [2, 4, 6, 8], [1, 0, 1, 0]])
    assert kernel_basis(a) == [(-1, -1, 1, 0), (0, -2, 0, 1)]


def _dense(seed, n):
    rng = random.Random(seed)
    return random_matrix(rng, n, n, -20, 20)


def test_smith_diagonal_at_report_scale():
    a = _dense(48, 48)
    diag = smith_diagonal(a)
    assert diag == smith_normal_form(a).diagonal()
    assert all(y % x == 0 for x, y in zip(diag, diag[1:]))
    prod = 1
    for x in diag:
        prod *= x
    assert prod == abs(det(a)) != 0


def test_smith_diagonal_certifies_nonsingular_squares_without_elimination(monkeypatch):
    calls = []
    for name in ("_smith", "_echelon"):
        inner = getattr(intmat, name)
        monkeypatch.setattr(
            intmat, name, lambda *args, name=name, inner=inner: calls.append(name) or inner(*args)
        )

    def kernels(a):
        """The eliminations smith_diagonal(a) runs, its result checked."""
        calls.clear()
        diag = smith_diagonal(a)
        made = calls.copy()
        assert diag == smith_normal_form(a).diagonal()
        return made

    # up to 3x3 the determinantal divisors give the diagonal with neither
    # kernel: I - A^t for A = [[3, 1], [1, 0]] (diagonal (1, 3)), a non-cyclic
    # 3x3, a prime beyond the trial division, singular and 1x1 inputs
    assert smith_diagonal(IntMatrix([[-2, -1], [-1, 1]])) == (1, 3)
    rng = random.Random(50)
    for a in (IntMatrix([[-2, -1], [-1, 1]]), _mixed_diagonal(rng, (2, 2, 6)),
              IntMatrix.diagonal((2**31 - 1, 2**31 - 1)), IntMatrix([[1, 2], [2, 4]]),
              IntMatrix([[1, 2, 3], [2, 4, 6], [0, 1, 1]]), IntMatrix([[-7]]), IntMatrix([[0]])):
        assert kernels(a) == [], a
    # from 4x4 up: one adjugate solve certifies the diagonal, no elimination
    assert kernels(_dense(48, 48)) == ["_echelon"]
    # every adjugate probe of diag(2, 1, 1, 1, 1) is even; one elimination
    # mod 2 shows that 2 divides only the last diagonal entry
    assert kernels(IntMatrix.diagonal((2, 1, 1, 1, 1))) == ["_echelon"]
    assert kernels(_mixed_diagonal(rng, (2, 4, 72, 1080))) == ["_echelon"]
    assert kernels(_mixed_diagonal(rng, (2, 2, 6, 6))) == ["_echelon"]
    # the probes leave g = 2^31 - 1, a prime beyond the trial division
    assert kernels(IntMatrix.diagonal((1, 1, 2**31 - 1, 2**31 - 1))) == ["_echelon", "_smith"]
    singular = IntMatrix([[1, 2, 3, 4], [2, 4, 6, 8], [0, 1, 0, 1], [1, 0, 0, 0]])
    assert kernels(singular) == ["_echelon", "_smith"]
    assert kernels(IntMatrix([[1, 2, 3], [4, 5, 6]])) == ["_smith"]


def test_smith_diagonal_rejects_a_wrong_certificate(monkeypatch):
    # with the last transformed probe entry set to 1, back-substitution gives
    # y_(n-1) = 1, whose gcd with det(a) is 1 whatever a is; the check
    # a @ y == det(a) e must reject it, or diag(1, 1, 2, 2) would read
    # (1, 1, 1, 4). Only inputs from 4x4 up run the certificate.
    echelon = intmat._echelon

    def corrupted(m):
        result = echelon(m)
        m[-1][len(m)] = 1
        return result

    monkeypatch.setattr(intmat, "_echelon", corrupted)
    assert smith_diagonal(IntMatrix.diagonal((1, 1, 2, 2))) == (1, 1, 2, 2)
    a = _mixed_diagonal(random.Random(49), (2, 2, 6, 6))
    assert smith_diagonal(a) == (2, 2, 6, 6)


def test_smith_transforms_at_report_scale():
    a = _dense(32, 32)
    dec = smith_normal_form(a)
    assert dec.u @ a @ dec.v == dec.d
    assert abs(det(dec.u)) == abs(det(dec.v)) == 1


def test_kernel_examples():
    a = IntMatrix([[0, 0], [-2, 0]])
    # brute force over the box [-1, 1]^2: only vectors with first entry 0
    assert brute_kernel_vectors(a.to_lists(), 1) == [(0, -1), (0, 0), (0, 1)]
    assert kernel_basis(a) == [(0, 1)]
    assert kernel_basis(IntMatrix.identity(2)) == []
    assert len(kernel_basis(IntMatrix.zero(2, 2))) == 2


def test_kernel_randomized():
    rng = random.Random(18)
    for _ in range(40):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        a = random_matrix(rng, rows, cols, -4, 4)
        basis = kernel_basis(a)
        assert len(basis) == cols - rank_by_minors(a.to_lists())
        for v in basis:
            assert all(sum(a[i, j] * v[j] for j in range(cols)) == 0 for i in range(rows))
        if basis:
            # basis vectors are linearly independent
            assert rank_by_minors([list(v) for v in basis]) == len(basis)


def test_unimodular_inverse():
    rng = random.Random(19)
    for _ in range(20):
        n = rng.randint(1, 4)
        u = random_unimodular(n, rng.randint(0, 6), rng)
        assert matmul(u, unimodular_inverse(u)) == IntMatrix.identity(n)
    rng = random.Random(51)
    signs = set()
    for n in range(1, 7):
        for _ in range(6):
            u = random_unimodular(n, rng.randint(0, 4 * n), rng)
            v = unimodular_inverse(u)
            assert matmul(u, v) == matmul(v, u) == IntMatrix.identity(n)
            signs.add(det(u))
    assert signs == {1, -1}
    with pytest.raises(NotUnimodular):
        unimodular_inverse(IntMatrix([[2, 0], [0, 1]]))
    with pytest.raises(NotUnimodular, match=r"^matrix has determinant 0, expected \+/-1$"):
        unimodular_inverse(IntMatrix([[1, 2], [2, 4]]))
    # the echelon swaps the rows, so the sign must be read with the pivot
    with pytest.raises(NotUnimodular, match=r"^matrix has determinant -2, expected \+/-1$"):
        unimodular_inverse(IntMatrix([[0, 1], [2, 0]]))


def test_unimodular_inverse_refuses_before_building_adj(monkeypatch):
    # from 4x4 up each column of adj(a) is one _back_substitute; a matrix of
    # det 2 is refused on its determinant, before any column is built
    from ckbundle import intmat

    calls, back_substitute = [], intmat._back_substitute

    def counting(*args):
        calls.append(None)
        return back_substitute(*args)

    monkeypatch.setattr(intmat, "_back_substitute", counting)
    a = IntMatrix([[2 if i == j == 0 else int(j in (i, i + 1)) for j in range(5)] for i in range(5)])
    with pytest.raises(NotUnimodular, match=r"^matrix has determinant 2, expected \+/-1$"):
        unimodular_inverse(a)
    assert calls == []
    u = IntMatrix([[int(j in (i, i + 1)) for j in range(5)] for i in range(5)])
    assert matmul(u, unimodular_inverse(u)) == IntMatrix.identity(5) and len(calls) == 5


def _cofactor_column(rows, j):
    """Column j of adj(rows) from cofactor minors: (-1)^(i+j) M_ji."""
    n = len(rows)
    if n == 1:
        return [1]
    minor = [row for r, row in enumerate(rows) if r != j]
    return [
        (-1) ** (i + j) * det_cofactor([row[:i] + row[i + 1 :] for row in minor])
        for i in range(n)
    ]


def test_adjugate_matches_cofactor_oracle():
    from ckbundle.intmat import _adjugate, _echelon

    rng = random.Random(52)
    cases = []
    for n in range(1, 6):
        for _ in range(8):
            cases.append(random_matrix(rng, n, n, -4, 4).to_lists())
            cases.append(random_unimodular(n, rng.randint(0, 3 * n), rng).to_lists())
            swapped = random_matrix(rng, n, n, -4, 4).to_lists()
            swapped[0][0] = 0
            cases.append(swapped)
            singular = random_matrix(rng, n, n, -4, 4).to_lists()
            singular[-1] = [2 * x for x in singular[0]]
            cases.append(singular)
    seen = {"singular": 0, "swap": 0, "unimodular": 0}
    for rows in cases:
        n = len(rows)
        d = det_cofactor(rows)
        for k in range(1, n + 1):
            got, columns = _adjugate(IntMatrix(rows), k)
            assert got == d
            expected = [_cofactor_column(rows, n - 1 - j) for j in range(k)] if d else []
            assert list(columns) == expected
        seen["singular"] += d == 0
        seen["unimodular"] += d in (1, -1)
        seen["swap"] += d != 0 and _echelon([row[:] for row in rows])[1] == -1
    assert min(seen.values()) >= 20, seen


def test_small_squares_match_cofactor_and_smith_oracles(monkeypatch):
    """Every square matrix of size 1, 2 or 3 with entries in {-1, 0, 1}, and
    the same matrices times 2: det, the adjugate, the Smith diagonal and the
    unimodular inverse come from the explicit cofactors, with no Bareiss
    elimination, and agree with the cofactor oracle and with _smith."""
    from ckbundle.intmat import _adjugate

    monkeypatch.setattr(intmat, "_echelon", None)  # calling it fails the test
    seen = {"singular": 0, "unimodular": 0, "non-cyclic": 0}
    for n in (1, 2, 3):
        identity = IntMatrix.identity(n)
        for flat in product((-1, 0, 1), repeat=n * n):
            for scale in (1, 2):
                rows = [[scale * x for x in flat[i : i + n]] for i in range(0, n * n, n)]
                a = IntMatrix(rows)
                d = det_cofactor(rows)
                assert det(a) == d, rows
                got, columns = _adjugate(a, n)
                assert got == d
                expected = [_cofactor_column(rows, n - 1 - j) for j in range(n)] if d else []
                assert list(columns) == expected, rows
                m = [row[:] for row in rows]
                intmat._smith(m, n, n)
                diag = smith_diagonal(a)
                assert diag == tuple(m[i][i] for i in range(n)), rows
                if d in (1, -1):
                    assert unimodular_inverse(a) @ a == identity
                seen["singular"] += d == 0
                seen["unimodular"] += d in (1, -1)
                seen["non-cyclic"] += n > 1 and diag[-2] > 1
    assert min(seen.values()) >= 1000, seen
