import json
import random

import pytest

from ckbundle import (
    ConjugacyStatus,
    IntMatrix,
    IntPolynomial,
    Outcome,
    SEWitness,
    bowen_franks,
    charpoly,
    compare_bundles,
    conjugacy_search,
    conjugate,
    det,
    k0,
    make_bundle,
    matmul,
    search_se_witness,
    se_obstruction,
    trace_sequence,
    unimodular_inverse,
    verify_se_witness,
)
from ckbundle.bundle import random_unimodular
from ckbundle.sft import elementary_generators, unimodular_words

from conftest import A2, A3, FIB, cli_in_subprocess, random_matrix, random_nonnegative
from oracles import (
    bounded_matrices_by_sum,
    conjugator_by_words,
    matpow_naive,
    se_witness_by_enumeration,
    words_by_bfs,
)


def test_verify_se_witness_trivial():
    w = SEWitness(r=A2, s=IntMatrix.identity(2), lag=1)
    assert verify_se_witness(A2, A2, w)


def test_verify_se_witness_failures():
    assert not verify_se_witness(A2, A2, SEWitness(IntMatrix.identity(2), IntMatrix.identity(2), 2))
    assert not verify_se_witness(A2, A2, SEWitness(A2, IntMatrix.identity(2), 0))
    assert not verify_se_witness(
        A2, A2, SEWitness(IntMatrix([[1, 0], [0, -1]]), IntMatrix.identity(2), 1)
    )
    with pytest.raises(ValueError):
        verify_se_witness(A2, A2, SEWitness(IntMatrix([[1, 0, 0], [0, 1, 0]]), A2, 1))


def test_verify_se_witness_rejects_non_square_side():
    row = IntMatrix([[1, 2]])
    with pytest.raises(ValueError, match="shift equivalence applies to square matrices"):
        verify_se_witness(row, A2, SEWitness(row, row, 1))


def test_verify_se_witness_random_identity_style():
    rng = random.Random(41)
    for _ in range(50):
        n = rng.randint(1, 4)
        a = random_nonnegative(rng, n, 5)
        assert verify_se_witness(a, a, SEWitness(a, IntMatrix.identity(n), 1))


def test_search_se_witness_self():
    w = search_se_witness(A2, A2, max_lag=2, entry_bound=6)
    assert w is not None and verify_se_witness(A2, A2, w)
    # deterministic first hit: identity for r, the matrix itself for s
    assert w == SEWitness(IntMatrix.identity(2), A2, 1)


def test_search_se_witness_obstructed_pair():
    assert search_se_witness(A2, A3, max_lag=3, entry_bound=6) is None
    reason = se_obstruction(A2, A3)
    assert reason is not None and "Bowen-Franks" in reason
    assert se_obstruction(A2, A2) is None


def test_search_se_witness_conjugate_pair():
    # u a u^{-1} is again nonnegative here, and (a @ u^{-1}, u, 1) is a
    # small nonnegative witness, so the bounded search must succeed
    a = FIB
    u = IntMatrix([[1, 0], [1, 1]])
    b = conjugate(a, u)
    assert b == IntMatrix([[0, 1], [1, 1]])
    hand_built = SEWitness(matmul(a, unimodular_inverse(u)), u, 1)
    assert verify_se_witness(a, b, hand_built)
    w = search_se_witness(a, b, max_lag=2, entry_bound=3)
    assert w is not None and verify_se_witness(a, b, w)


def test_search_se_witness_matches_enumeration_oracle():
    # (RS, SR) pairs of every shape up to 3x3, every third one with SR
    # replaced by an unrelated matrix; the oracle generates the box already
    # in the documented order, the library sorts the survivors of a filter
    from ckbundle.sft import _intertwiners

    rng = random.Random(47)
    outcomes = set()
    for i in range(90):
        m, k = rng.randint(1, 3), rng.randint(1, 3)
        bound = 2 if m * k <= 4 else 1
        r = random_matrix(rng, m, k, 0, bound)
        s = random_matrix(rng, k, m, 0, bound)
        a, b = matmul(r, s), matmul(s, r)
        if i % 3 == 0:
            b = random_matrix(rng, k, k, 0, bound)
        expected = se_witness_by_enumeration(a.to_lists(), b.to_lists(), 2, bound)
        w = search_se_witness(a, b, max_lag=2, entry_bound=bound)
        got = None if w is None else (w.r.to_lists(), w.s.to_lists(), w.lag)
        assert got == expected
        outcomes.add(None if w is None else w.lag)
        assert [x.to_lists() for x in _intertwiners(a, b, bound)] == [
            x
            for x in bounded_matrices_by_sum(m, k, bound)
            if matmul(a, IntMatrix(x)) == matmul(IntMatrix(x), b)
        ]
    assert None in outcomes and 1 in outcomes


def test_intertwiners_match_box_oracle_rectangular_and_equal():
    # independent a and b of different sizes, equal pairs, and degenerate
    # inputs (zero, identity) whose intertwiner space is the whole box
    from ckbundle.sft import _intertwiners

    rng = random.Random(49)
    pairs = [
        (IntMatrix.zero(2, 2), IntMatrix.zero(1, 1)),
        (IntMatrix.identity(2), IntMatrix.identity(2)),
    ]
    for i in range(60):
        m, k = rng.randint(1, 3), rng.randint(1, 3)
        a = random_nonnegative(rng, m, 3)
        pairs.append((a, a) if i % 2 else (a, random_nonnegative(rng, k, 3)))
    for a, b in pairs:
        bound = 2 if a.rows * b.rows <= 4 else 1
        assert [x.to_lists() for x in _intertwiners(a, b, bound)] == [
            x
            for x in bounded_matrices_by_sum(a.rows, b.rows, bound)
            if matmul(a, IntMatrix(x)) == matmul(IntMatrix(x), b)
        ]


def _se_search_at_cli_defaults(tmp_path, text):
    """Run `se-search` on a matrix against itself in a subprocess."""
    return cli_in_subprocess(tmp_path, text, "se-search", "m.txt", "m.txt", "--format", "json")


def test_se_search_c3_at_cli_defaults_finishes(tmp_path):
    # the intertwiners of the 3-cycle-plus-identity matrix form a
    # 3-dimensional space: 7^3 candidates at the default bound, not 7^9
    from ckbundle.sft import _intertwiners

    done = _se_search_at_cli_defaults(tmp_path, "1 1 0\n0 1 1\n1 0 1\n")
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["witness"] == {
        "r": [[0, 0, 1], [1, 0, 0], [0, 1, 0]],
        "s": [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
        "lag": 1,
    }
    c3 = IntMatrix([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    assert len(_intertwiners(c3, c3, 6)) == 343


def test_se_search_scalar_at_cli_defaults_is_refused(tmp_path):
    # every 3x3 matrix commutes with I3: d = 9 free entries, 7^9 candidates
    from ckbundle.sft import MAX_SE_CANDIDATES, _intertwiners

    done = _se_search_at_cli_defaults(tmp_path, "1 0 0\n0 1 0\n0 0 1\n")
    assert done.returncode == 3
    assert done.stdout == ""
    assert done.stderr == (
        "error: shift-equivalence search would try (E+1)^d = 7^9 = 40353607 candidates"
        " (d = 9 free entries, E = 6), more than the limit 117649; lower the entry bound\n"
    )
    # the limit sits between 3^9 and 4^9 candidates for I3
    ident = IntMatrix.identity(3)
    assert 3**9 <= MAX_SE_CANDIDATES < 4**9
    assert len(_intertwiners(ident, ident, 2)) == 3**9
    with pytest.raises(ValueError, match=r"4\^9 = 262144"):
        _intertwiners(ident, ident, 3)


def test_verify_elementary_sse_examples():
    a = IntMatrix([[2]])
    r = IntMatrix([[1, 1]])
    s = IntMatrix([[1], [1]])
    b = IntMatrix([[1, 1], [1, 1]])
    assert verify_se_witness(a, b, SEWitness(r, s, 1))
    assert verify_se_witness(A2, A2, SEWitness(IntMatrix.identity(2), A2, 1))
    assert not verify_se_witness(
        IntMatrix([[2]]), IntMatrix([[2]]), SEWitness(IntMatrix([[-2]]), IntMatrix([[-1]]), 1)
    )
    with pytest.raises(ValueError):
        verify_se_witness(a, b, SEWitness(s, r, 1))


def test_elementary_sse_pairs_share_invariants():
    rng = random.Random(42)
    for _ in range(30):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        r = random_matrix(rng, m, n, 0, 4)
        s = random_matrix(rng, n, m, 0, 4)
        a, b = matmul(r, s), matmul(s, r)
        # an elementary SSE step (r, s) is the lag-1 shift-equivalence witness
        assert verify_se_witness(a, b, SEWitness(r, s, 1))
        assert k0(a) == k0(b)
        assert bowen_franks(a) == bowen_franks(b)
        assert trace_sequence(a, 5) == trace_sequence(b, 5)


def test_trace_sequence_examples():
    assert trace_sequence(A2, 2) == [6, 34]
    assert trace_sequence(IntMatrix.identity(2), 3) == [2, 2, 2]
    lucas = [sum(matpow_naive(FIB.to_lists(), k)[i][i] for i in range(2)) for k in range(1, 5)]
    assert lucas == [1, 3, 4, 7]
    assert trace_sequence(FIB, 4) == lucas



def test_trace_sequence_computes_no_unread_power(monkeypatch):
    from ckbundle import sft

    rng = random.Random(46)
    a = random_matrix(rng, 3, 3, -4, 4)
    calls = []

    def counting(x, y):
        calls.append(None)
        return matmul(x, y)

    monkeypatch.setattr(sft, "matmul", counting)
    for m in range(6):
        calls.clear()
        traces = trace_sequence(a, m)
        assert len(calls) == max(m - 1, 0)
        assert traces == [
            sum(matpow_naive(a.to_lists(), k)[i][i] for i in range(3)) for k in range(1, m + 1)
        ]

def test_elementary_generators():
    gens = elementary_generators(3)
    assert len(gens) == 13  # 12 transvections + sign flip
    for g, g_inv in gens:
        assert matmul(g, g_inv) == IntMatrix.identity(3)
        assert det(g) in (1, -1)


def test_unimodular_words_deduplicated():
    words = list(unimodular_words(2, 2))
    mats = [w for w, _ in words]
    assert mats[0] == IntMatrix.identity(2)
    assert len(mats) == len(set(mats))
    for w, w_inv in words:
        assert matmul(w, w_inv) == IntMatrix.identity(2)
    # conjugacy_search resumes a deeper walk after the words of a shallower
    # one, so each walk must begin with every shallower walk, in order
    for n in (1, 2, 3):
        for depth in range(5):
            deeper = list(unimodular_words(n, depth))
            expected = [list(map(list, u)) for u in words_by_bfs(n, depth)]
            assert [w.to_lists() for w, _ in deeper] == expected
            for h in range(depth):
                shallower = list(unimodular_words(n, h))
                assert deeper[: len(shallower)] == shallower


def test_conjugacy_search_self():
    result = conjugacy_search(A2, A2, search_depth=2)
    assert result.status is ConjugacyStatus.CONJUGATE
    assert result.conjugator == IntMatrix.identity(2)


def test_conjugacy_search_round_trip():
    rng = random.Random(43)
    for _ in range(10):
        n = rng.randint(2, 3)
        a = random_unimodular(n, rng.randint(1, 4), rng)
        u = random_unimodular(n, 3, rng)
        b = conjugate(a, u)
        result = conjugacy_search(a, b, search_depth=4)
        assert result.status is ConjugacyStatus.CONJUGATE
        v = result.conjugator
        assert det(v) in (1, -1)
        assert conjugate(a, v) == b


def _oracle_pair(rng, n, depth, kind):
    """An (a, b) pair of n x n unimodular matrices of the given kind."""
    if kind == "scalar":  # +-I, the only unimodular scalars
        a = IntMatrix.diagonal([rng.choice((1, -1))] * n)
        return a, a
    if kind == "derogatory":  # a repeated eigenvalue, sheared or not
        shear = IntMatrix.identity(n).to_lists()
        shear[0][n - 1] += rng.randint(-2, 2) if n > 1 else 0
        a = matmul(IntMatrix.diagonal([rng.choice((1, -1)) for _ in range(n)]), IntMatrix(shear))
    else:
        a = random_unimodular(n, rng.randint(1, 6), rng)
    if kind == "unrelated":
        return a, random_unimodular(n, rng.randint(1, 6), rng)
    if kind == "full":
        length = depth
    elif kind == "beyond":
        length = rng.randint(depth + 1, depth + 3)
    else:
        length = rng.randint(0, depth)
    return a, conjugate(a, random_unimodular(n, length, rng))


def test_conjugacy_search_matches_word_oracle():
    # the split walk must return the unsplit walk's first hit, or UNKNOWN
    # exactly when no word of length <= depth conjugates
    rng = random.Random(47)
    statuses, deep_hits = [], 0
    for n in (1, 2, 3):
        for depth in range(5 if n == 3 else 6):
            for kind in ("scalar", "derogatory", "within", "full", "beyond", "unrelated") * 5:
                a, b = _oracle_pair(rng, n, depth, kind)
                result = conjugacy_search(a, b, search_depth=depth)
                expected = conjugator_by_words(a.to_lists(), b.to_lists(), depth)
                statuses.append(result.status)
                if expected is None:
                    assert result.status is not ConjugacyStatus.CONJUGATE
                    assert result.conjugator is None
                else:
                    assert result.status is ConjugacyStatus.CONJUGATE
                    assert result.conjugator.to_lists() == expected
                    half = words_by_bfs(n, (depth + 1) // 2)
                    deep_hits += tuple(map(tuple, expected)) not in half
    assert len(statuses) >= 500
    assert set(statuses) == set(ConjugacyStatus)
    assert deep_hits >= 20  # hits that only the resumed walk reaches


def test_conjugacy_search_unknown_work_is_bounded(monkeypatch):
    # a benchmark-style pair: a 3x3 word conjugated by a word of length 24;
    # the unsplit walk multiplies 32,069 times over all 6,338 words of
    # length <= 4, the split one walks the 134 words of length <= 2
    from ckbundle import sft

    rng = random.Random(48)
    a = random_unimodular(3, 6, rng)
    b = conjugate(a, random_unimodular(3, 24, rng))
    assert conjugator_by_words(a.to_lists(), b.to_lists(), 4) is None
    calls = []

    def counting(x, y):
        calls.append(None)
        return matmul(x, y)

    monkeypatch.setattr(sft, "matmul", counting)
    assert conjugacy_search(a, b, search_depth=4).status is ConjugacyStatus.UNKNOWN
    assert len(calls) < 2000


def test_conjugacy_search_resumed_walk_is_capped(monkeypatch):
    # the halves of this 6x6 pair meet at depth 4, and the uncapped walk
    # resumed after them tried words for about 30 s before its first hit;
    # capped, the search stops within the 2,462 words of length <= 2 plus
    # MAX_RESUMED_WORDS candidates, the last being the meet's own conjugator
    from ckbundle import sft

    a = IntMatrix(
        [[-1, 2, 0, 1, -1, -2], [3, 0, 0, 2, 0, 0], [-4, 1, 1, -2, 0, 0],
         [-4, 3, 0, 0, -1, -2], [3, -1, 0, 1, 1, 2], [-4, 2, 0, -1, -1, -3]]
    )
    b = IntMatrix(
        [[1, 1, 1, 3, -1, -2], [0, -1, 2, -1, 1, 2], [-1, 1, -3, -2, 0, 0],
         [0, 4, -4, 3, -2, -4], [2, -2, 7, 3, 1, 2], [-1, 2, -5, -1, -1, -3]]
    )
    budget = sum(1 for _ in unimodular_words(6, 2)) + sft.MAX_RESUMED_WORDS
    assert budget == 2462 + 65536
    calls = []
    conjugates = sft._conjugates

    def counting(*args):
        calls.append(None)
        if len(calls) > budget:
            raise AssertionError(f"more than {budget} candidates tried")
        return conjugates(*args)

    monkeypatch.setattr(sft, "_conjugates", counting)
    result = conjugacy_search(a, b, search_depth=4)
    u = result.conjugator
    assert result.status is ConjugacyStatus.CONJUGATE
    assert matmul(u, a) == matmul(b, u) and det(u) in (1, -1)
    # the uncapped walk's first hit, too
    assert u.to_lists() == [
        [1, 0, -1, 0, 0, 0], [-1, 1, 1, 0, 0, 0], [0, 0, 1, 0, 0, 0],
        [1, 0, -1, 1, 0, 0], [0, 0, -1, 0, 1, 0], [0, 0, 0, 0, 0, 1],
    ]
    calls.clear()
    verdict = compare_bundles(make_bundle(a), make_bundle(b))
    assert verdict.outcome is Outcome.HOMEOMORPHIC and verdict.certificate == u


def test_conjugacy_search_definitive_obstruction():
    result = conjugacy_search(A2, A3, search_depth=3)
    assert result.status is ConjugacyStatus.NOT_CONJUGATE
    assert "K0" in result.obstruction
    # trace sequences and charpolys of A2 and A3 agree, so only K0 separates
    assert trace_sequence(A2, 2) == trace_sequence(A3, 2)


def test_conjugacy_search_validation():
    with pytest.raises(ValueError):
        conjugacy_search(A2, IntMatrix.identity(3))
    with pytest.raises(ValueError):
        conjugacy_search(IntMatrix([[2, 0], [0, 1]]), IntMatrix.identity(2))


def test_conjugates_pass_trace_prefilter():
    rng = random.Random(44)
    for _ in range(20):
        n = rng.randint(2, 3)
        a = random_unimodular(n, rng.randint(0, 4), rng)
        u = random_unimodular(n, rng.randint(0, 4), rng)
        b = conjugate(a, u)
        assert trace_sequence(a, n) == trace_sequence(b, n)


def test_unknown_result_is_not_a_proof():
    # charpoly t^2 - 12t + 1: both matrices share all checked invariants,
    # but a depth-0 search cannot find a conjugator for distinct matrices
    a = IntMatrix([[11, 2], [5, 1]])
    b = conjugate(a, IntMatrix([[1, 3], [0, 1]]))
    result = conjugacy_search(a, b, search_depth=0)
    assert result.status is ConjugacyStatus.UNKNOWN
    assert result.conjugator is None and result.obstruction is None


def test_traces_fix_charpoly_by_newton_identities():
    # why conjugacy_obstruction needs no charpoly rung after the trace rung
    rng = random.Random(45)
    for _ in range(60):
        n = rng.randint(1, 5)
        a = random_matrix(rng, n, n, -4, 4)
        p = trace_sequence(a, n)
        c = [1]  # c[k] is the coefficient of t^(n - k)
        for k in range(1, n + 1):
            s = p[k - 1] + sum(c[i] * p[k - 1 - i] for i in range(1, k))
            assert s % k == 0
            c.append(-s // k)
        assert charpoly(a) == IntPolynomial(tuple(reversed(c)))


def test_obstruction_witness_strings():
    from ckbundle.sft import conjugacy_obstruction

    swap, ident = IntMatrix([[0, 1], [1, 0]]), IntMatrix.identity(2)
    assert conjugacy_obstruction(swap, ident) == "determinants differ: -1 vs 1"
    assert conjugacy_obstruction(A2, IntMatrix([[1, 1], [1, 2]])) == (
        "trace sequences differ: [6, 34] vs [3, 7]"
    )
    assert conjugacy_obstruction(A2, A3) == "K0 groups differ: Z_2 + Z_2 vs Z_4"
    assert conjugacy_obstruction(IntMatrix([[1, 1], [0, 1]]), IntMatrix([[1, 0], [1, 1]])) is None
    assert se_obstruction(A2, A3) == "Bowen-Franks groups differ: Z_2 + Z_2 vs Z_4"
    assert se_obstruction(FIB, IntMatrix([[2]])) == "trace sequences differ: [1, 3] vs [2, 4]"


def test_negative_search_bounds_rejected():
    with pytest.raises(ValueError, match="search depth"):
        list(unimodular_words(2, -1))
    with pytest.raises(ValueError, match="search depth"):
        conjugacy_search(A2, A3, search_depth=-1)
    with pytest.raises(ValueError, match="max_lag"):
        search_se_witness(A2, A2, max_lag=0)
    with pytest.raises(ValueError, match="entry_bound"):
        search_se_witness(A2, A2, entry_bound=-1)
    assert [u for u, _ in unimodular_words(2, 0)] == [IntMatrix.identity(2)]
