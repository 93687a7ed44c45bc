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
    period,
    trace_sequence,
)
from ckbundle import ck
from ckbundle.cli import build_report

from conftest import (
    A2,
    A3,
    FIB,
    a1,
    conjugate,
    identity_minus_transpose,
    random_matrix,
    random_unimodular,
)
from oracles import (
    brute_kernel_vectors,
    period_by_closed_walks,
    primitive_by_powers,
    rank_by_minors,
)


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


@pytest.mark.parametrize(
    "rows, error, message",
    [
        # the shape is checked first, even with negative entries and zero lines
        ([[-1, 0, 0], [0, 0, 0]], ValueError, "descriptor matrix must be square, got (2, 3)"),
        # negative entries come before any zero line
        ([[0, 0], [-1, 1]], NotNonnegative, "make_descriptor requires nonnegative entries"),
        ([[1, 0], [0, -1]], NotNonnegative, "make_descriptor requires nonnegative entries"),
        # a zero row is named before a zero column, and the first of each
        ([[0, 0], [1, 0]], DegenerateRelations, "row 0 is zero"),
        ([[1, 0, 1], [0, 0, 0], [0, 0, 0]], DegenerateRelations, "row 1 is zero"),
        ([[0, 1, 0], [0, 1, 0], [0, 1, 0]], DegenerateRelations, "column 0 is zero"),
        ([[1, 0, 0], [1, 0, 0], [1, 0, 1]], DegenerateRelations, "column 1 is zero"),
        ([[0]], DegenerateRelations, "row 0 is zero"),
    ],
)
def test_make_descriptor_diagnostics(rows, error, message):
    with pytest.raises(ValueError) as caught:
        make_descriptor(IntMatrix(rows))
    assert caught.type is error
    assert str(caught.value) == message


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
    assert det(identity_minus_transpose(A2)) == -4
    assert k1(A2) == FgAbelianGroup.trivial()
    # kernel of [[0, 0], [-2, 0]] is spanned by (0, 1): brute force agrees
    m = identity_minus_transpose(a1(2))
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
        d = det(identity_minus_transpose(a))
        if d == 0:
            continue
        g = k0(a)
        assert g.is_finite and g.order() == abs(d)
        assert k1(a) == FgAbelianGroup.trivial()
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


def _flag_corpus():
    """(rows, irreducible, primitive), known by construction: [[0]], [[1]],
    the 2-cycle, a chorded 3-cycle, and positive, block-cyclic (period 2..4)
    and block-triangular (reducible) matrices with their vertices relabelled
    at random."""
    # 3-cycle 0 -> 1 -> 2 -> 0 plus the chord 1 -> 0: cycle lengths 3 and 2
    chorded = [[0, 1, 0], [1, 0, 1], [1, 0, 0]]
    corpus = [([[0]], True, False), ([[1]], True, True), ([[0, 1], [1, 0]], True, False)]
    corpus.append((chorded, True, True))
    rng = random.Random(37)
    perm = list(range(7))
    rng.shuffle(perm)
    corpus.append((_relabel(_block_cyclic(rng, [2, 3, 2]), perm), True, False))
    for trial in range(18):
        sizes = [rng.randint(1, 3) for _ in range(2 + trial // 3 % 3)]
        n = sum(sizes)
        perm = list(range(n))
        rng.shuffle(perm)
        if trial % 3 == 0:
            rows = [[rng.randint(1, 3) for _ in range(n)] for _ in range(n)]
            irreducible = primitive = True
        elif trial % 3 == 1:
            rows, irreducible, primitive = _block_cyclic(rng, sizes), True, False
        else:
            # no arc from a later class back to an earlier one
            cls = [c for c, size in enumerate(sizes) for _ in range(size)]
            rows = [[rng.randint(0, 2) * (cls[i] <= cls[j]) for j in range(n)] for i in range(n)]
            irreducible = primitive = False
        corpus.append((_relabel(rows, perm), irreducible, primitive))
    return corpus


def test_primitive_edge_cases(monkeypatch):
    calls = []
    levels = ck._levels

    def counting(rows):
        calls.append(rows)
        return levels(rows)

    scans = []
    is_nonnegative = IntMatrix.is_nonnegative.fget

    def counting_scan(self):
        scans.append(self)
        return is_nonnegative(self)

    monkeypatch.setattr(ck, "_levels", counting)
    monkeypatch.setattr(IntMatrix, "is_nonnegative", property(counting_scan))
    for rows, irreducible, primitive in _flag_corpus():
        m = IntMatrix(rows)
        calls.clear()
        scans.clear()
        report, _ = build_report(m)
        # one period per report: one sign scan, a forward BFS and, when that
        # reaches every vertex, a backward one
        assert len(scans) == 1, rows
        assert len(calls) == 2 if irreducible else 1 <= len(calls) <= 2, rows
        assert report.irreducible is is_irreducible(m) is irreducible, rows
        assert report.primitive is is_primitive(m) is primitive_by_powers(rows) is primitive, rows
        assert period(m) == period_by_closed_walks(rows), rows
    calls.clear()
    scans.clear()
    report, warnings = build_report(IntMatrix([[2, -1], [1, 0]]))
    assert len(scans) == 1 and not calls
    assert report.irreducible is report.primitive is None
    assert warnings == ["matrix has negative entries: irreducible/primitive are omitted"]


def test_primitive_matches_power_oracle():
    rng = random.Random(38)
    seen = {True: 0, False: 0}
    periods = set()
    for trial in range(2100):
        n = 1 + trial % 7
        density = (0.15, 0.3, 0.5, 0.8)[trial // 7 % 4]
        rows = [
            [rng.randint(1, 3) if rng.random() < density else 0 for _ in range(n)] for _ in range(n)
        ]
        expected = primitive_by_powers(rows)
        assert is_primitive(IntMatrix(rows)) == expected, rows
        seen[expected] += 1
        periods.add(expected_period := period_by_closed_walks(rows))
        assert period(IntMatrix(rows)) == expected_period, rows
    assert min(seen.values()) > 300
    assert {None, 0, 1, 2} <= periods, periods


def test_period_edge_values():
    assert period(IntMatrix([[0]])) == 0
    assert period(IntMatrix([[1]])) == 1
    for k in range(1, 8):
        cycle = IntMatrix([[int(j == (i + 1) % k) for j in range(k)] for i in range(k)])
        assert period(cycle) == k
    assert period(IntMatrix([[1, 1], [0, 1]])) is None
    assert period(IntMatrix([[0, 0], [0, 0]])) is None
    with pytest.raises(NotNonnegative):
        period(IntMatrix([[0, -1], [1, 0]]))
    # squareness is checked before signs
    with pytest.raises(ValueError) as info:
        period(IntMatrix([[1, -1, 0], [0, 1, 0]]))
    assert info.type is ValueError


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
        m = identity_minus_transpose(a)
        assert k1(a).free_rank == n - rank_by_minors(m.to_lists())
