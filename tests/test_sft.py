import json
import os
import random
import subprocess
import sys
import time
from itertools import chain
from pathlib import Path

import pytest

import ckbundle
from ckbundle import (
    ConjugacyStatus,
    IntMatrix,
    IntPolynomial,
    NotUnimodular,
    Outcome,
    SEWitness,
    bowen_franks,
    charpoly,
    compare_bundles,
    conjugacy_search,
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
from ckbundle.sft import unimodular_words

from conftest import (
    A2,
    A3,
    FIB,
    cli_in_subprocess,
    conjugate,
    random_matrix,
    random_nonnegative,
    random_unimodular,
)
from oracles import (
    bounded_matrices_by_sum,
    conjugator_by_words,
    elementary_generators,
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


def _rs_sr_pairs():
    """(a, b, max_lag, bound): (RS, SR) pairs of every shape up to 3x3,
    every third one with SR replaced by an unrelated matrix."""
    rng = random.Random(47)
    for i in range(90):
        m, k = rng.randint(1, 3), rng.randint(1, 3)
        bound = 2 if m * k <= 4 else 1
        r = random_matrix(rng, m, k, 0, bound)
        s = random_matrix(rng, k, m, 0, bound)
        a, b = matmul(r, s), matmul(s, r)
        if i % 3 == 0:
            b = random_matrix(rng, k, k, 0, bound)
        yield a, b, 2, bound


def _solve_path_pairs():
    """(a, b, max_lag, bound) with a square and nonsingular, n = 1..3,
    E = 0..3 (0..1 at n = 3, where the oracle's box has 4^9 matrices at
    E = 3), max_lag 1..3: an (RS, SR) pair with det RS != 0, a against
    itself, against an unrelated matrix and against a det-0 matrix; then
    pairs whose first witness has lag 2."""
    rng = random.Random(53)
    for n in (1, 2, 3):
        for bound in range(4 if n < 3 else 2):
            for max_lag in (1, 2, 3):
                while True:
                    r, s = (random_matrix(rng, n, n, 0, 2) for _ in range(2))
                    a, b = matmul(r, s), matmul(s, r)
                    if det(a):
                        break
                yield a, b, max_lag, bound
                yield a, a, max_lag, bound
                yield a, random_matrix(rng, n, n, 0, 3), max_lag, bound
                singular = [*a.entries[:-1], a.entries[0]] if n > 1 else [[0]]
                yield a, IntMatrix(singular), max_lag, bound
    a = IntMatrix([[0, 1], [4, 0]])
    for bound in (2, 3):
        for b in (a, IntMatrix([[0, 4], [1, 0]])):
            yield a, b, 3, bound
    yield IntMatrix([[0, 1], [6, 0]]), IntMatrix([[0, 6], [1, 0]]), 2, 3


def test_search_se_witness_matches_enumeration_oracle():
    # the oracle generates the box already in the documented order, the
    # library sorts the survivors of a filter; the second corpus runs the
    # solve for s = r^-1 @ a^lag
    from ckbundle.sft import _intertwiners

    outcomes, solved = set(), set()
    for a, b, max_lag, bound in [*_rs_sr_pairs(), *_solve_path_pairs()]:
        expected = se_witness_by_enumeration(a.to_lists(), b.to_lists(), max_lag, bound)
        w = search_se_witness(a, b, max_lag=max_lag, entry_bound=bound)
        got = None if w is None else (w.r.to_lists(), w.s.to_lists(), w.lag)
        assert got == expected
        outcomes.add(None if w is None else w.lag)
        if a.shape == b.shape and det(a):
            solved.add(None if w is None else w.lag)
        assert [x.to_lists() for x in _intertwiners(a, b, bound)] == [
            x
            for x in bounded_matrices_by_sum(a.rows, b.rows, bound)
            if matmul(a, IntMatrix(x)) == matmul(IntMatrix(x), b)
        ]
    assert outcomes == solved == {None, 1, 2}


@pytest.mark.parametrize(
    "a, b, bound, expected",
    [
        # zero rows everywhere: r @ s = a^1 holds for r = s = 0
        ([[0]], [[0]], 6, ([[0]], [[0]], 1)),
        # nilpotent: r = N passes the row test only against s = I
        ([[0, 1], [0, 0]], [[0, 1], [0, 0]], 1, ([[0, 1], [0, 0]], [[1, 0], [0, 1]], 1)),
        # rectangular r and s: r @ s is 1x1, s @ r is 2x2
        ([[2]], [[1, 1], [1, 1]], 2, ([[1, 1]], [[1], [1]], 1)),
    ],
)
def test_search_se_witness_degenerate_pairs_match_oracle(a, b, bound, expected):
    # the row-by-row test of r @ s must never skip the oracle's first witness
    assert se_witness_by_enumeration(a, b, 3, bound) == expected
    w = search_se_witness(IntMatrix(a), IntMatrix(b), max_lag=3, entry_bound=bound)
    assert (w.r.to_lists(), w.s.to_lists(), w.lag) == expected


def test_search_se_witness_work_is_bounded(monkeypatch):
    # c3 against itself at the defaults: det c3 = 2, so only the r side, 343
    # intertwiners with r = 0 first, is enumerated. The powers need no
    # product at lag 1, and each nonsingular r's s = r^-1 @ c3 is solved,
    # not formed as a product, so no full product is made
    from ckbundle import sft

    c3 = IntMatrix([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    calls = []

    def counting(x, y):
        calls.append(None)
        return matmul(x, y)

    monkeypatch.setattr(sft, "matmul", counting)
    w = search_se_witness(c3, c3)
    assert len(calls) == 0
    assert w is not None and verify_se_witness(c3, c3, w)


def test_search_se_witness_stops_when_no_r_can_pair(monkeypatch):
    # det a = 1 takes the solve route, and at E = 0 the only intertwiner is
    # r = 0, which is singular: no lag can pair it, so the search ends after
    # lag 1 and forms no power of a. Every box holds r = 0, so the r side is
    # never empty
    from ckbundle import sft

    a, b = IntMatrix([[2, 1], [1, 1]]), IntMatrix([[1, 1], [1, 2]])
    assert sft._intertwiners(a, b, 0) == [IntMatrix([[0, 0], [0, 0]])]
    calls = []

    def counting(x, y):
        calls.append(None)
        return matmul(x, y)

    monkeypatch.setattr(sft, "matmul", counting)
    assert search_se_witness(a, b, max_lag=10_000, entry_bound=0) is None
    assert len(calls) == 0
    assert se_witness_by_enumeration(a.to_lists(), b.to_lists(), 3, 0) is None


def test_search_se_witness_self_pairs_enumerate_once(monkeypatch):
    # the 4-cycle against itself at the defaults takes the solve path: one
    # enumeration (7^4 circulants), and r = 0 is dropped by its echelon. Its
    # witness, r = P^3 and s = P^2, lies in [0, 1]. Every r ordered before
    # it at E = 6 is a circulant of entry sum at most 4, whose entries then
    # lie in [0, 1] too, so the oracle's first witness at E = 1 is the one
    # at E = 6. [[1,1],[1,1]] is singular and keeps the pair loop, whose s
    # side is its r side, so it is enumerated once too
    from ckbundle import sft

    log = []
    for name in ("_intertwiners", "matmul"):
        def counting(*args, _name=name, _f=getattr(sft, name)):
            log.append(_name)
            return _f(*args)

        monkeypatch.setattr(sft, name, counting)
    p4 = [[int(j == (i + 1) % 4) for j in range(4)] for i in range(4)]
    w = search_se_witness(IntMatrix(p4), IntMatrix(p4))
    assert log == ["_intertwiners"]
    assert (w.r.to_lists(), w.s.to_lists(), w.lag) == se_witness_by_enumeration(p4, p4, 3, 1)
    log.clear()
    ones = [[1, 1], [1, 1]]
    w = search_se_witness(IntMatrix(ones), IntMatrix(ones), entry_bound=2)
    assert log.count("_intertwiners") == 1
    assert (w.r.to_lists(), w.s.to_lists(), w.lag) == se_witness_by_enumeration(ones, ones, 3, 2)


def test_search_se_witness_solve_path_keeps_the_cap():
    # 2I_3 is nonsingular, so only its r side is enumerated, but every 3x3
    # matrix commutes with it: d = 9 on both sides, and 7^9 is refused
    two = IntMatrix.diagonal([2, 2, 2])
    with pytest.raises(ValueError) as refused:
        search_se_witness(two, two, entry_bound=6)
    assert str(refused.value) == (
        "shift-equivalence search would try (E+1)^d = 7^9 = 40353607 candidates"
        " (d = 9 free entries, E = 6), more than the limit 117649; lower the entry bound"
    )


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

def test_unimodular_words_deduplicated():
    # depth 1 holds every generator with its inverse
    for n in (1, 2, 3):
        words = list(unimodular_words(n, 2))
        mats = [w for w, _ in words]
        assert mats[0] == IntMatrix.identity(n)
        assert len(mats) == len(set(mats))
        for w, w_inv in words:
            assert matmul(w, w_inv) == IntMatrix.identity(n)
    # each walk begins with every shallower walk, in order, so conjugacy_search
    # meets its v words in the same order at odd depth (a walk of its own)
    # and at even depth (the words it has already tried)
    for n in (1, 2, 3):
        for depth in range(5):
            deeper = list(unimodular_words(n, depth))
            expected = [list(map(list, u)) for u in words_by_bfs(n, depth)]
            assert [w.to_lists() for w, _ in deeper] == expected
            for h in range(depth):
                shallower = list(unimodular_words(n, h))
                assert deeper[: len(shallower)] == shallower


def _ball(n, h):
    """The cached ball of shape (n, h), walked whole first."""
    from ckbundle import sft

    for _ in sft._ball_words(n, h):
        pass
    return sft._balls[n, h]


def test_ball_is_the_word_walk():
    # the cached ball is the breadth-first word walk with its bookkeeping:
    # each word's inverse, where its last layer starts, and conjugates by
    # parent moves; unimodular_words reads the same ball
    from ckbundle.sft import _ball_words, _matrix

    rng = random.Random(50)
    for n in (1, 2, 3):
        for h in range(4):
            ball = _ball(n, h)
            words = list(unimodular_words(n, h))
            assert list(ball.words) == list(_ball_words(n, h))
            assert [_matrix(w, n).entries for w, _ in ball.words] == list(words_by_bfs(n, h))
            assert [(_matrix(w, n), _matrix(w_inv, n)) for w, w_inv in ball.words] == words
            for k, (w, w_inv) in enumerate(ball.words):
                assert ball.words[ball.inverse[k]] == (w_inv, w)
            assert ball.inner == (len(words_by_bfs(n, h - 1)) if h else 0)
            m = random_matrix(rng, n, n, -5, 5)
            conjugated = list(ball.conjugated(m, len(words)))
            assert conjugated == [
                tuple(chain.from_iterable(matmul(matmul(x_inv, m), x).entries))
                for x, x_inv in words
            ]
    assert len(_ball(6, 2).words) == 2462


def test_ball_is_built_on_first_search(tmp_path):
    code = "import ckbundle.sft as s; print(len(s._balls))"
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(Path(ckbundle.__file__).parent.parent)),
        timeout=30,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "0\n", "")


def test_conjugacy_search_reuses_the_ball(monkeypatch):
    # the UNKNOWN pair of test_conjugacy_search_unknown_work_is_bounded at
    # D = 4: the ball of 134 words is walked once, with 182 column and 133
    # row operations; each search then conjugates a and b along the ball's
    # 133 moves, two operations each (2 x 266), and its only products are the
    # 4 trace-sequence powers
    from ckbundle import sft

    rng = random.Random(48)
    a = random_unimodular(3, 6, rng)
    b = conjugate(a, random_unimodular(3, 24, rng))
    products, operations, walks = [], [], []
    apply, moves = sft._apply, sft._elementary_moves

    def counting_matmul(x, y):
        products.append(None)
        return matmul(x, y)

    def counting_apply(*args):
        operations.append(None)
        return apply(*args)

    def counting_moves(n):  # one call per walk
        walks.append(None)
        return moves(n)

    monkeypatch.setattr(sft, "matmul", counting_matmul)
    monkeypatch.setattr(sft, "_apply", counting_apply)
    monkeypatch.setattr(sft, "_elementary_moves", counting_moves)
    monkeypatch.setattr(sft, "_balls", {})
    for expected_operations in (182 + 133 + 2 * 266, 2 * 266):
        products.clear(), operations.clear()
        assert conjugacy_search(a, b, search_depth=4).status is ConjugacyStatus.UNKNOWN
        assert (len(products), len(operations)) == (4, expected_operations)
    assert len(walks) == 1 and list(sft._balls) == [(3, 2)]


def test_early_hit_builds_no_ball(monkeypatch):
    # the first search of a shape walks lazily: the 12x12 Jordan block
    # against itself meets at the identity, the first word, so it applies no
    # move and caches no ball (the whole ball took 70,490 column operations)
    from ckbundle import sft

    operations = []
    apply = sft._apply

    def counting_apply(*args):
        operations.append(None)
        return apply(*args)

    monkeypatch.setattr(sft, "_apply", counting_apply)
    monkeypatch.setattr(sft, "_balls", {})
    jordan = IntMatrix([[int(j in (i, i + 1)) for j in range(12)] for i in range(12)])
    verdict = compare_bundles(jordan, jordan)
    assert (verdict.outcome, verdict.certificate) == (Outcome.HOMEOMORPHIC, IntMatrix.identity(12))
    assert (len(operations), sft._balls) == (0, {})


def test_each_move_is_its_generator():
    # move k's column pairs take a flat word w to w @ g and its row pairs take
    # w^-1 to g^-1 @ w^-1, g the k-th generator, for every move of n = 1..4:
    # this pins the move order and the sign flip's self-referencing pairs
    from ckbundle.sft import _apply, _elementary_moves

    def flat(m):
        return tuple(chain.from_iterable(m.entries))

    rng = random.Random(61)
    for n in range(1, 5):
        gens = [IntMatrix(g) for g in elementary_generators(n)]
        moves = _elementary_moves(n)
        assert len(moves) == len(gens) == 2 * n * (n - 1) + 1
        for g, (s, columns, s_inv, rows) in zip(gens, moves):
            g_inv = unimodular_inverse(g)
            for _ in range(3):
                w = random_unimodular(n, 8, rng)
                w_inv = unimodular_inverse(w)
                assert _apply(flat(w), s, columns) == flat(matmul(w, g))
                assert _apply(flat(w_inv), s_inv, rows) == flat(matmul(g_inv, w_inv))


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
    # UNKNOWN exactly when no word of length <= depth conjugates; a hit of
    # length <= ceil(depth / 2) is the unsplit walk's first hit, and a deeper
    # one, the first meet, is not proved to be, but it is on every pair here
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
    assert deep_hits >= 20  # hits that only the meet reaches


def test_fingerprint_keeps_the_first_hit():
    # the first-hit scan fully tests only the words u whose fingerprint of
    # u @ a - b @ u is zero; it must still return the first u of a plain walk
    # with u @ a = b @ u, also for entries far beyond the fingerprint's 32
    # bits per entry
    rng = random.Random(55)
    pairs = []
    for n in (2, 3):
        for _ in range(25):
            a = random_unimodular(n, rng.randint(1, 40), rng)
            h = rng.randint(0, 2)
            pairs.append((a, conjugate(a, random_unimodular(n, rng.randint(0, h), rng)), h))
    big = IntMatrix([[1, 2**40], [3, 3 * 2**40 + 1]])
    pairs += [(big, conjugate(big, u), 2) for u, _ in unimodular_words(2, 2)]
    for a, b, h in pairs:
        expected = conjugator_by_words(a.to_lists(), b.to_lists(), h)
        result = conjugacy_search(a, b, search_depth=2 * h)
        assert result.conjugator.to_lists() == expected


def test_full_test_of_every_word_changes_no_output(monkeypatch):
    # the fingerprint only filters: with all-zero coefficients every word
    # takes the full test, which must then reject each non-conjugator
    # (_conjugates returns False) and leave every output as it was
    from ckbundle import sft

    rng = random.Random(59)
    pairs = []
    for n in (2, 3):
        for depth in range(5):
            for _ in range(6):
                a = random_unimodular(n, rng.randint(1, 6), rng)
                u = random_unimodular(n, rng.randint(0, depth + 2), rng)
                pairs.append((a, conjugate(a, u), depth))
            pairs.append((random_unimodular(n, 4, rng), random_unimodular(n, 4, rng), depth))

    def outputs():
        return [
            (conjugacy_search(a, b, d), compare_bundles(make_bundle(a), make_bundle(b), d))
            for a, b, d in pairs
        ]

    expected = outputs()
    rejected = []
    conjugates = sft._conjugates

    def recording(*args):
        result = conjugates(*args)
        rejected.append(not result)
        return result

    monkeypatch.setattr(sft, "_fingerprint", lambda a, b: [0] * a.rows**2)
    monkeypatch.setattr(sft, "_conjugates", recording)
    assert outputs() == expected
    assert sum(rejected) > 100
    assert {r.status for r, _ in expected} == set(ConjugacyStatus)
    assert {v.outcome for _, v in expected} == set(Outcome)


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


def test_conjugacy_search_odd_depth_work_is_bounded(monkeypatch):
    # at D = 3 the halves are the 134 words of length <= 2 and the 14 of
    # length <= 1; this pair's shortest conjugator has length 4, so nothing
    # meets, where splitting 3 as 2 + 2 would meet at length 4 and then need
    # a walk through all 1,004 words of length <= 3 to answer UNKNOWN
    from ckbundle import sft

    rng = random.Random(49)
    a = random_unimodular(3, 6, rng)
    b = conjugate(a, random_unimodular(3, 4, rng))
    assert conjugator_by_words(a.to_lists(), b.to_lists(), 3) is None
    assert conjugator_by_words(a.to_lists(), b.to_lists(), 4) is not None
    calls = []
    conjugates = sft._conjugates

    def counting(*args):
        calls.append(None)
        return conjugates(*args)

    monkeypatch.setattr(sft, "_conjugates", counting)
    assert conjugacy_search(a, b, search_depth=3).status is ConjugacyStatus.UNKNOWN
    assert len(calls) <= 134


def test_conjugacy_search_deep_meet_is_bounded(monkeypatch):
    # the halves of this 6x6 pair meet at depth 4: the search tries the
    # 2,462 words of length <= 2 and verifies the first meet, where a walk
    # over the words of length <= 4 tried words for about 30 s before its
    # first hit
    from ckbundle import sft

    a = IntMatrix(
        [[-1, 2, 0, 1, -1, -2], [3, 0, 0, 2, 0, 0], [-4, 1, 1, -2, 0, 0],
         [-4, 3, 0, 0, -1, -2], [3, -1, 0, 1, 1, 2], [-4, 2, 0, -1, -1, -3]]
    )
    b = IntMatrix(
        [[1, 1, 1, 3, -1, -2], [0, -1, 2, -1, 1, 2], [-1, 1, -3, -2, 0, 0],
         [0, 4, -4, 3, -2, -4], [2, -2, 7, 3, 1, 2], [-1, 2, -5, -1, -1, -3]]
    )
    budget = sum(1 for _ in unimodular_words(6, 2)) + 1
    assert budget == 2462 + 1
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
    # also the first hit of a walk over the words of length <= 4
    assert u.to_lists() == [
        [1, 0, -1, 0, 0, 0], [-1, 1, 1, 0, 0, 0], [0, 0, 1, 0, 0, 0],
        [1, 0, -1, 1, 0, 0], [0, 0, -1, 0, 1, 0], [0, 0, 0, 0, 0, 1],
    ]
    calls.clear()
    verdict = compare_bundles(make_bundle(a), make_bundle(b))
    assert verdict.outcome is Outcome.HOMEOMORPHIC and verdict.certificate == u


# a 2x2 pair conjugate by a 30-letter word and by no word of length <= 8
WORD_BUDGET_PAIR = (IntMatrix([[11, 2], [5, 1]]), IntMatrix([[-2864, -3913], [2105, 2876]]))


def test_word_walk_stops_at_the_budget(monkeypatch):
    from ckbundle import sft

    a, b = WORD_BUDGET_PAIR
    monkeypatch.setattr(sft, "_balls", {})
    # the 162 words of length <= 4 fit the real budget
    assert conjugacy_search(a, b, search_depth=8).status is ConjugacyStatus.UNKNOWN
    monkeypatch.setattr(sft, "_balls", {})
    monkeypatch.setattr(sft, "MAX_SEARCH_ENTRIES", 4000)  # 100 2x2 words, 3^2 + 31 each
    message = r"more than the limit 100 words \(2x2, length <= 4\); lower the search depth"
    with pytest.raises(ValueError, match=message):
        conjugacy_search(a, b, search_depth=8)
    with pytest.raises(ValueError, match=message):
        compare_bundles(a, b, search_depth=8)
    assert sft._balls == {}  # a walk cut short caches no ball
    words = unimodular_words(2, 10)
    assert sum(1 for _ in zip(range(100), words)) == 100
    with pytest.raises(ValueError, match=r"limit 100 words \(2x2, length <= 10\)"):
        next(words)
    # a conjugator among the first 100 words is still found
    b = conjugate(a, IntMatrix([[1, 1], [0, 1]]))
    result = conjugacy_search(a, b, search_depth=8)
    assert result.status is ConjugacyStatus.CONJUGATE
    assert matmul(result.conjugator, a) == matmul(b, result.conjugator)


def test_cached_balls_fit_the_entry_budget(monkeypatch):
    # at a budget of 8,000 entries (40 per word up to 3x3, 47 at 4x4) the
    # default-depth 2x2 and 3x3 balls, 22 + 134 words, fit together, and later
    # walks push out the oldest balls, no more of them than the newest needs:
    # the cache is the longest run of the latest walks that fits the budget
    from ckbundle import sft

    budget = 8000
    monkeypatch.setattr(sft, "MAX_SEARCH_ENTRIES", budget)
    monkeypatch.setattr(sft, "_balls", {})

    def charge(shapes):
        return sum(sizes[n, h] * (max(n, 3) ** 2 + 31) for n, h in shapes)

    sizes, walked, caches = {}, [], []
    for shape in [(2, 2), (3, 2), (4, 1), (2, 2), (2, 3), (1, 9), (3, 2), (4, 1), (2, 2)]:
        if shape not in sft._balls:
            walked.append(shape)
        sizes[shape] = sum(1 for _ in sft._ball_words(*shape))
        kept = list(sft._balls)
        assert kept[-1] == walked[-1] and charge(kept) <= budget
        assert kept == walked[len(walked) - len(kept) :]
        if len(kept) < len(walked):  # the next older ball would not fit
            assert charge([walked[-len(kept) - 1], *kept]) > budget
        caches.append((kept, charge(kept)))
    assert caches == [
        ([(2, 2)], 880),
        ([(2, 2), (3, 2)], 6240),
        ([(2, 2), (3, 2), (4, 1)], 7462),
        ([(2, 2), (3, 2), (4, 1)], 7462),  # read from the cache, not walked
        ([(4, 1), (2, 3)], 3782),  # the two oldest go
        ([(4, 1), (2, 3), (1, 9)], 3862),
        ([(2, 3), (1, 9), (3, 2)], 8000),
        ([(1, 9), (3, 2), (4, 1)], 6662),
        ([(1, 9), (3, 2), (4, 1), (2, 2)], 7542),
    ]
    # a shape walked twice at once is cached as the newest ball
    monkeypatch.setattr(sft, "_balls", {})
    first, second = sft._ball_words(2, 2), sft._ball_words(2, 2)
    next(second)
    for _ in first:
        pass
    for _ in sft._ball_words(3, 2):
        pass
    for _ in second:
        pass
    assert list(sft._balls) == [(3, 2), (2, 2)]


def test_word_budget_exceeds_every_ball_built(monkeypatch):
    # the default search depth 4 walks the ball of length <= 2, and the
    # budget admits it at every size the CLI takes without a warning, the
    # largest being 12x12 (40,922 words); n <= 3 keeps 200,000 words
    from ckbundle import sft
    from ckbundle.cli import SIZE_WARNING_THRESHOLD

    def ball_size(n):  # the words of length <= 2, counted by their shape
        p = n * (n - 1)
        return 1 + (2 * p + 1) + 2 * p + 2 * p * (p - 2 * n + 2) + 4 * p * (2 * n - 3) + 2 * p

    walks, moves = [], sft._elementary_moves

    def counting_moves(n):  # one call per walk
        walks.append(n)
        return moves(n)

    monkeypatch.setattr(sft, "_elementary_moves", counting_moves)
    monkeypatch.setattr(sft, "_balls", {})  # both balls are walked, then dropped
    assert sum(1 for _ in sft._ball_words(6, 2)) == ball_size(6) == 2462
    assert sum(1 for _ in sft._ball_words(12, 2)) == ball_size(12) == 40922 <= sft._word_limit(12)
    assert walks == [6, 12]
    for n in range(2, SIZE_WARNING_THRESHOLD + 1):
        assert ball_size(n) <= sft._word_limit(n)
    assert [sft._word_limit(n) for n in (1, 2, 3)] == [200_000] * 3


def test_conjugacy_search_definitive_obstruction():
    result = conjugacy_search(A2, A3, search_depth=3)
    assert result.status is ConjugacyStatus.NOT_CONJUGATE
    assert "K0" in result.obstruction
    # trace sequences and charpolys of A2 and A3 agree, so only K0 separates
    assert trace_sequence(A2, 2) == trace_sequence(A3, 2)


def test_conjugacy_search_validation():
    with pytest.raises(ValueError):
        conjugacy_search(A2, IntMatrix.identity(3))
    with pytest.raises(NotUnimodular, match=r"^a has determinant 2, expected \+/-1$"):
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
    # the walk stops at the first layer that adds no word, whatever the bound
    start = time.perf_counter()
    assert [u for u, _ in unimodular_words(1, 10**9)] == [IntMatrix([[1]]), IntMatrix([[-1]])]
    assert time.perf_counter() - start < 1
