import random

import pytest

from ckbundle import (
    DegenerateRelations,
    FgAbelianGroup,
    IntMatrix,
    NotNonnegative,
    bowen_franks,
    det,
    edge_dilation,
    is_irreducible,
    is_primitive,
    k0,
    k1,
    make_descriptor,
    trace_sequence,
)
from ckbundle.bundle import random_unimodular
from ckbundle.sft import conjugate

from conftest import A2, A3, FIB, a1, random_matrix
from oracles import brute_kernel_vectors, primitive_by_powers, rank_by_minors


def test_make_descriptor():
    assert make_descriptor(FIB) == FIB
    with pytest.raises(NotNonnegative):
        make_descriptor(IntMatrix([[1, -1], [0, 1]]))
    with pytest.raises(DegenerateRelations):
        make_descriptor(IntMatrix([[1, 1], [0, 0]]))
    with pytest.raises(DegenerateRelations):
        make_descriptor(IntMatrix([[0, 1], [0, 1]]))
    with pytest.raises(ValueError):
        make_descriptor(IntMatrix([[1, 1, 1], [1, 1, 1]]))


def test_k0_examples():
    assert k0(a1(2)) == FgAbelianGroup(1, (2,))
    assert k0(A2) == FgAbelianGroup(0, (2, 2))
    assert k0(A3) == FgAbelianGroup(0, (4,))
    assert k0(IntMatrix.identity(2)) == FgAbelianGroup.free(2)


def test_k0_family():
    for n in range(1, 11):
        expected = FgAbelianGroup.free(1) if n == 1 else FgAbelianGroup(1, (n,))
        assert k0(a1(n)) == expected


def test_k1_examples():
    assert det(IntMatrix.identity(2) - A2.transpose()) == -4
    assert k1(A2) == FgAbelianGroup.trivial()
    # kernel of [[0, 0], [-2, 0]] is spanned by (0, 1): brute force agrees
    m = IntMatrix.identity(2) - a1(2).transpose()
    assert m == IntMatrix([[0, 0], [-2, 0]])
    assert len(brute_kernel_vectors(m.to_lists(), 1)) == 3  # (0,-1), (0,0), (0,1)
    assert k1(a1(2)) == FgAbelianGroup.free(1)
    assert k1(IntMatrix.identity(2)) == FgAbelianGroup.free(2)


def test_bowen_franks_examples():
    assert bowen_franks(A2) == FgAbelianGroup(0, (2, 2))
    assert bowen_franks(IntMatrix.identity(2)) == FgAbelianGroup.free(2)
    assert bowen_franks(IntMatrix([[2]])) == FgAbelianGroup.trivial()


def test_k0_isomorphic_to_bowen_franks():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(1, 4)
        a = random_matrix(rng, n, n, -6, 6)
        assert k0(a) == bowen_franks(a)


def test_k0_conjugation_invariance():
    rng = random.Random(32)
    for _ in range(25):
        n = rng.randint(1, 4)
        a = random_matrix(rng, n, n, -5, 5)
        u = random_unimodular(n, rng.randint(0, 5), rng)
        conj = conjugate(a, u)
        assert k0(conj) == k0(a)
        assert k1(conj) == k1(a)


def test_nonsingular_k_theory():
    rng = random.Random(33)
    checked = 0
    while checked < 30:
        n = rng.randint(1, 4)
        a = random_matrix(rng, n, n, -5, 5)
        d = det(IntMatrix.identity(n) - a.transpose())
        if d == 0:
            continue
        g = k0(a)
        assert g.is_finite and g.order() == abs(d)
        assert k1(a).is_trivial
        checked += 1


def test_irreducible_examples():
    assert is_irreducible(IntMatrix([[0, 1], [1, 0]]))
    assert not is_irreducible(IntMatrix([[1, 1], [0, 1]]))
    assert is_irreducible(IntMatrix([[1]]))
    with pytest.raises(NotNonnegative):
        is_irreducible(IntMatrix([[-1]]))


def test_primitive_examples():
    assert is_primitive(FIB)  # FIB^2 = [[2,1],[1,1]] > 0
    assert not is_primitive(IntMatrix([[0, 1], [1, 0]]))  # powers alternate
    assert not is_primitive(IntMatrix([[1, 1], [0, 1]]))
    with pytest.raises(NotNonnegative):
        is_primitive(IntMatrix([[0, -1], [1, 0]]))


def test_primitive_implies_irreducible():
    rng = random.Random(34)
    for _ in range(60):
        n = rng.randint(1, 4)
        a = IntMatrix([[rng.randint(0, 2) for _ in range(n)] for _ in range(n)])
        if is_primitive(a):
            assert is_irreducible(a)


def _relabel(rows, perm):
    """The matrix of the same digraph with vertex i renamed perm[i]."""
    n = len(rows)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[perm[i]][perm[j]] = rows[i][j]
    return out


def _block_cyclic(rng, sizes):
    """Positive blocks from class c to class c + 1 (mod len(sizes)) only:
    irreducible with period len(sizes)."""
    start = [sum(sizes[:c]) for c in range(len(sizes))]
    n = sum(sizes)
    rows = [[0] * n for _ in range(n)]
    for c, size in enumerate(sizes):
        d = (c + 1) % len(sizes)
        for i in range(start[c], start[c] + size):
            for j in range(start[d], start[d] + sizes[d]):
                rows[i][j] = rng.randint(1, 3)
    return rows


def test_primitive_edge_cases():
    assert is_irreducible(IntMatrix([[0]]))
    # 3-cycle 0 -> 1 -> 2 -> 0 plus the chord 1 -> 0: cycle lengths 3 and 2
    chorded = [[0, 1, 0], [1, 0, 1], [1, 0, 0]]
    rng = random.Random(37)
    perm = list(range(7))
    rng.shuffle(perm)
    relabelled = _relabel(_block_cyclic(rng, [2, 3, 2]), perm)
    assert is_irreducible(IntMatrix(relabelled))
    cases = [([[0]], False), ([[1]], True), ([[0, 1], [1, 0]], False), (chorded, True)]
    cases.append((relabelled, False))
    for rows, expected in cases:
        assert is_primitive(IntMatrix(rows)) == primitive_by_powers(rows) == expected


def test_primitive_matches_power_oracle():
    rng = random.Random(38)
    seen = {True: 0, False: 0}
    for trial in range(2100):
        n = 1 + trial % 7
        density = (0.15, 0.3, 0.5, 0.8)[trial // 7 % 4]
        rows = [
            [rng.randint(1, 3) if rng.random() < density else 0 for _ in range(n)] for _ in range(n)
        ]
        expected = primitive_by_powers(rows)
        assert is_primitive(IntMatrix(rows)) == expected, rows
        seen[expected] += 1
    assert min(seen.values()) > 300


def test_primitive_matches_power_oracle_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    matrices = st.integers(1, 6).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(0, 2), min_size=n, max_size=n), min_size=n, max_size=n
        )
    )

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(matrices)
    def check(rows):
        assert is_primitive(IntMatrix(rows)) == primitive_by_powers(rows)

    check()


def test_primitive_scale_n48():
    # asserts results, not time: a Wielandt power loop needs about 18 s on the cycle
    n = 48
    cycle = IntMatrix([[int(j == (i + 1) % n) for j in range(n)] for i in range(n)])
    assert is_irreducible(cycle) and not is_primitive(cycle)
    bipartite = IntMatrix([[int((i < n // 2) != (j < n // 2)) for j in range(n)] for i in range(n)])
    assert is_irreducible(bipartite) and not is_primitive(bipartite)
    assert is_primitive(IntMatrix([[1 + (i * j) % 3 for j in range(n)] for i in range(n)]))


def test_edge_dilation_examples():
    assert edge_dilation(IntMatrix([[2]])) == IntMatrix([[1, 1], [1, 1]])
    assert edge_dilation(FIB) is FIB  # already 0/1: unchanged
    # arcs of [[0,2],[1,0]] in (tail, head, copy) order: 0->1, 0->1, 1->0
    d = edge_dilation(IntMatrix([[0, 2], [1, 0]]))
    assert d == IntMatrix([[0, 0, 1], [0, 0, 1], [1, 1, 0]])
    assert [sum(row) for row in d] == [1, 1, 2]


def test_edge_dilation_rejects():
    with pytest.raises(ValueError):
        edge_dilation(IntMatrix.zero(2, 2))
    with pytest.raises(NotNonnegative):
        edge_dilation(IntMatrix([[-2]]))
    with pytest.raises(ValueError):
        edge_dilation(IntMatrix([[1, 2, 0], [0, 1, 1]]))


def test_edge_dilation_arc_limit():
    # the limit bounds the arcs x arcs output before any of it is built;
    # a 0/1 matrix is returned as it is, whatever its entry sum
    from ckbundle.ck import MAX_DILATION_ARCS

    assert edge_dilation(IntMatrix([[MAX_DILATION_ARCS]])).rows == MAX_DILATION_ARCS
    for a in (IntMatrix([[MAX_DILATION_ARCS, 1], [0, 0]]), IntMatrix([[10**18]])):
        message = rf"E = {sum(map(sum, a))} arcs .* limit {MAX_DILATION_ARCS}$"
        with pytest.raises(ValueError, match=message):
            edge_dilation(a)
    ones = IntMatrix([[1] * 40] * 40)
    assert edge_dilation(ones) is ones


def test_edge_dilation_preserves_invariants():
    rng = random.Random(35)
    done = 0
    while done < 30:
        n = rng.randint(1, 3)
        a = IntMatrix([[rng.randint(0, 3) for _ in range(n)] for _ in range(n)])
        if a.is_zero:
            continue
        d = edge_dilation(a)
        if not a.is_zero_one:
            assert d.rows == sum(x for row in a for x in row)
        assert bowen_franks(d) == bowen_franks(a)
        assert trace_sequence(d, 5) == trace_sequence(a, 5)
        done += 1


def test_kernel_rank_matches_minor_oracle():
    rng = random.Random(36)
    for _ in range(25):
        n = rng.randint(1, 4)
        a = random_matrix(rng, n, n, -4, 4)
        m = IntMatrix.identity(n) - a.transpose()
        assert k1(a).free_rank == n - rank_by_minors(m.to_lists())
