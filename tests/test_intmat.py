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
from ckbundle.bundle import random_unimodular

from conftest import A2, A3, FIB, random_matrix
from oracles import (
    brute_kernel_vectors,
    charpoly_faddeev,
    det_cofactor,
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
    assert a.transpose() == IntMatrix([[1, 3], [2, 4]])


def test_eq_with_non_matrix_and_repr():
    m = IntMatrix([[1, 2]])
    assert m.__eq__(((1, 2),)) is NotImplemented
    assert (m == ((1, 2),)) is False
    assert repr(m) == "IntMatrix([[1, 2]])"


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
    # n = 48 guard on results only: p(0) = (-1)^n det(A), p(1) = det(I - A)
    rng = random.Random(43)
    n = 48
    a = random_matrix(rng, n, n, -3, 3)
    p = charpoly(a)
    assert p.degree == n
    assert p(0) == (-1) ** n * det(a)
    assert p(1) == det(IntMatrix.identity(n) - a)

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
        assert dec.diagonal() == smith_normal_form(a.transpose()).diagonal()
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



def _smith_cases(seed):
    """Seeded rectangular matrices 1..8 x 1..8, some with a zeroed row and a
    zeroed column, plus zero matrices."""
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
    with pytest.raises(NotUnimodular):
        unimodular_inverse(IntMatrix([[2, 0], [0, 1]]))
