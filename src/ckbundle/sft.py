"""Matrix-level machinery for subshifts of finite type: shift-equivalence
witnesses, elementary strong shift equivalences, GL_n(Z) conjugacy search and
trace-sequence prefilters.

Searches are bounded and deterministic: absence of a certificate is never a
proof of non-equivalence, but the invariant obstructions reported here are
definitive.
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property
from itertools import chain, islice, product
from operator import attrgetter, mul
from typing import Callable, Iterable, Iterator, NamedTuple

from . import ck
from .abelian import FgAbelianGroup
from .intmat import IntMatrix, _adjugate_rows, _echelon, _require_square, _require_unimodular
from .intmat import _Record, det, matmul, matpow, trace

__all__ = [
    "SEWitness",
    "verify_se_witness",
    "search_se_witness",
    "se_obstruction",
    "trace_sequence",
    "ConjugacyStatus",
    "ConjugacyResult",
    "conjugacy_search",
    "conjugacy_obstruction",
    "unimodular_words",
]


# Largest (entry_bound + 1)^d that _intertwiners enumerates, d being the
# number of free entries: 7^6 lets a non-derogatory 6x6 pair run at the
# default entry bound 6, while a scalar 3x3 matrix (7^9 there) is refused.
MAX_SE_CANDIDATES = 7**6

# Most entries the cached balls and one word walk hold together.
# Each n x n word is charged max(n, 3)^2 + 31 entries (_word_charge); the clamp
# and the 31 are fitted, not measured, so that the walk keeps exactly 200,000
# words at n <= 3 and admits the whole ball of the default search depth 4
# (h = 2) at every n <= 12, the largest size the CLI takes without a warning:
# 40,922 words at n = 12 against a limit of 45,714. Measured with `compare` on
# a conjugate pair that no short word relates (2 shared vCPUs, peak RSS):
# 200,000 3x3 words (depth 16) in about 1 s and 115 MB; the full 12x12 default
# search in 2.4 s and 226 MB; a 20x20 one exits 3 at its limit of 18,561 words
# after 3.8 s and 139 MB. A depth-12 3x3 search that walks all 184,609 words
# of length <= 6 takes 2-3 s and about 200 MB.
MAX_SEARCH_ENTRIES = 8_000_000


class SEWitness(_Record):
    """Candidate shift-equivalence data (r, s, lag); validity is checked by
    verify_se_witness, not at construction."""

    __slots__ = ("r", "s", "lag")

    def __init__(self, r: IntMatrix, s: IntMatrix, lag: int):
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "lag", lag)


def verify_se_witness(a: IntMatrix, b: IntMatrix, w: SEWitness) -> bool:
    """Check a ~SE b via w: r, s nonnegative, lag >= 1, and exactly
    a@r = r@b, b@s = s@a, a^lag = r@s, s@r = b^lag."""
    if not (a.is_square and b.is_square):
        raise ValueError("shift equivalence applies to square matrices")
    if w.r.shape != (a.rows, b.rows) or w.s.shape != (b.rows, a.rows):
        raise ValueError(
            f"witness shapes {w.r.shape}/{w.s.shape} do not match {a.rows} and {b.rows}"
        )
    if w.lag < 1 or not (w.r.is_nonnegative and w.s.is_nonnegative):
        return False
    return (
        matmul(a, w.r) == matmul(w.r, b)
        and matmul(b, w.s) == matmul(w.s, a)
        and matpow(a, w.lag) == matmul(w.r, w.s)
        and matmul(w.s, w.r) == matpow(b, w.lag)
    )


def _intertwiners(a: IntMatrix, b: IntMatrix, bound: int) -> list[IntMatrix]:
    """Every r with entries in [0, bound] and a@r = r@b, ordered by entry
    sum, then row-major. a@r - r@b = 0 is one linear system, echeloned once:
    only its free entries range over [0, bound], and the pivot entries follow
    bottom-up by back-substitution, each exact and in [0, bound] or r fails."""
    rows, cols = a.rows, b.rows
    a_rows, b_rows = a.entries, b.entries
    system = [
        [
            a_rows[i][p] * (q == j) - (p == i) * b_rows[q][j]
            for p in range(rows)
            for q in range(cols)
        ]
        for i in range(rows)
        for j in range(cols)
    ]
    pivots, _ = _echelon(system)
    free = [c for c in range(rows * cols) if c not in pivots]
    count = (bound + 1) ** len(free)
    if count > MAX_SE_CANDIDATES:
        raise ValueError(
            f"shift-equivalence search would try (E+1)^d = {bound + 1}^{len(free)} = {count}"
            f" candidates (d = {len(free)} free entries, E = {bound}), more than the limit"
            f" {MAX_SE_CANDIDATES}; lower the entry bound"
        )
    # per pivot row, bottom-up: its column, its pivot, and the columns and
    # negated coefficients of its later nonzero entries
    steps = []
    for c, row in reversed(list(zip(pivots, system))):
        later = [j for j in range(c + 1, rows * cols) if row[j]]
        steps.append((c, row[c], later, [-row[j] for j in later]))
    found, flat = [], [0] * (rows * cols)
    entry = flat.__getitem__
    for values in product(range(bound + 1), repeat=len(free)):
        for c, x in zip(free, values):
            flat[c] = x
        for c, pivot, later, coeffs in steps:
            value, rem = divmod(sum(map(mul, coeffs, map(entry, later))), pivot)
            if rem or not 0 <= value <= bound:
                break
            flat[c] = value
        else:
            entries = tuple(tuple(flat[i * cols : (i + 1) * cols]) for i in range(rows))
            found.append(IntMatrix._wrap(entries))
    return sorted(found, key=lambda r: (sum(map(sum, r.entries)), r.entries))


def search_se_witness(
    a: IntMatrix, b: IntMatrix, max_lag: int = 3, entry_bound: int = 6
) -> SEWitness | None:
    """Bounded search for a shift-equivalence witness.

    Enumerates r with a@r = r@b and s with b@s = s@a over the entry box
    [0, entry_bound], lag ascending outermost, candidates by entry sum then
    row-major order; returns the first verified witness or None. An empty
    result is not a proof of non-equivalence (see se_obstruction for that).

    One lag loop tries each r in order, and how r finds its partner s is
    decided once per search. For square a and b of one size with det a != 0,
    r@s = a^lag forces r to be nonsingular, and s = r^-1 @ a^lag is its one
    candidate: it satisfies b@s = s@a and s@r = b^lag since b = r^-1 @ a @ r.
    So s is solved, not enumerated, from adj r = d·r^-1 (d = det r), made when
    lag 1 reaches r and kept; a singular r is skipped, and if every r is, the
    search ends after lag 1. Otherwise b's intertwiners are enumerated once
    (the r side itself when a = b) and scanned: each r@s is compared with a^lag
    one row at a time, and s@r is formed only when every row matched.

    No entry of r@s exceeds m·E² (m = b.rows, E = entry_bound). When a has no
    zero row, or no zero column, the largest entry of a^lag never decreases
    as lag grows, so the search returns None at the first lag where it
    exceeds m·E²: no later lag can pair either.

    Raises ValueError before enumerating when either side would have more
    than MAX_SE_CANDIDATES candidates; for square a and b of one size the
    two sides' systems have equal rank, so the r side decides.
    """
    _check_se_search(a, b, max_lag, entry_bound)
    rs = _intertwiners(a, b, entry_bound)
    solve = a.rows == b.rows and det(a) != 0
    if solve:
        adjugates: list[tuple[int, tuple]] = []  # per r: d and the rows of adj r
    else:
        ss = rs if a == b else _intertwiners(b, a, entry_bound)
        s_cols = [(s, tuple(zip(*s.entries))) for s in ss]
    # with no zero row or no zero column, a^lag's largest entry never decreases
    grows = all(map(any, a.entries)) or all(map(any, zip(*a.entries)))
    for lag in range(1, max_lag + 1):
        a_pow = a if lag == 1 else matmul(a_pow, a)
        if grows and max(map(max, a_pow.entries)) > b.rows * entry_bound**2:
            return None  # no r@s reaches a^lag, nor a later power
        if solve:
            a_cols = tuple(zip(*a_pow.entries))
            for i, r in enumerate(rs):
                if lag == 1:
                    adjugates.append(_adjugate_rows(r))
                d, adj_rows = adjugates[i]
                if d:
                    s = _divide_in_box(adj_rows, a_cols, d, entry_bound)
                    if s is not None:
                        return SEWitness(r, IntMatrix._wrap(s), lag)
            if not any(d for d, _ in adjugates):
                return None  # no r is nonsingular, so no lag pairs one
        else:
            b_pow = b if lag == 1 else matmul(b_pow, b)
            want = [list(row) for row in a_pow.entries]
            for r in rs:
                for s, cols in s_cols:
                    for row, target in zip(r.entries, want):
                        if [sum(map(mul, row, col)) for col in cols] != target:
                            break
                    else:
                        if matmul(s, r) == b_pow:
                            return SEWitness(r, s, lag)
    return None


def _divide_in_box(rows: tuple, cols: tuple, d: int, bound: int) -> tuple | None:
    """The rows of (rows @ cols^T) / d, or None at the first entry that is not
    an integer in [0, bound]."""
    out = []
    for row in rows:
        entries = []
        for col in cols:
            x, rem = divmod(sum(map(mul, row, col)), d)
            if rem or not 0 <= x <= bound:
                return None
            entries.append(x)
        out.append(tuple(entries))
    return tuple(out)


def _check_se_search(a: IntMatrix, b: IntMatrix, max_lag: int, entry_bound: int) -> None:
    """Raise ValueError unless search_se_witness accepts these arguments."""
    for m, name in ((a, "a"), (b, "b")):
        if not m.is_square:
            raise ValueError(f"{name} must be square")
        if not m.is_nonnegative:
            raise ck.NotNonnegative(f"{name} must be nonnegative")
    if max_lag < 1:
        raise ValueError(f"max_lag must be >= 1, got {max_lag}")
    if entry_bound < 0:
        raise ValueError(f"entry_bound must be >= 0, got {entry_bound}")


def _first_difference(a: object, b: object, rungs: Iterable[tuple[str, Callable]]) -> str | None:
    """Walk (name, invariant) rungs, cheapest first, and name the first
    invariant on which a and b differ, or return None."""
    for name, invariant in rungs:
        x, y = invariant(a), invariant(b)
        if x != y:
            return f"{name}: {x} vs {y}"
    return None


def se_obstruction(a: IntMatrix, b: IntMatrix) -> str | None:
    """Definitive proof that a and b are not shift equivalent, or None.

    Shift equivalence forces equal nonzero spectra (hence equal trace
    sequences) and isomorphic Bowen-Franks groups.
    """
    depth = max(a.rows, b.rows)
    return _first_difference(
        a,
        b,
        [
            ("trace sequences differ", lambda m: trace_sequence(m, depth)),
            ("Bowen-Franks groups differ", ck.bowen_franks),
        ],
    )


def trace_sequence(a: IntMatrix, m: int) -> list[int]:
    """[tr(a), tr(a^2), ..., tr(a^m)], exact."""
    _require_square(a, "trace_sequence")
    out = []
    power = a
    for k in range(m):
        if k:
            power = matmul(power, a)
        out.append(trace(power))
    return out


_Move = tuple[int, tuple[tuple[int, int], ...], int, tuple[tuple[int, int], ...]]


def _elementary_moves(n: int) -> list[_Move]:
    """(s, column pairs, s_inv, row pairs) per elementary generator of
    GL_n(Z) in a fixed order: transvections E_ij(+1), E_ij(-1) by row-major
    (i, j), then the sign flip diag(-1, 1, ..., 1). The generator g is
    I + s·e_ij and g^{-1} is I + s_inv·e_ij (the sign flip, I - 2·e_00, is its
    own inverse). On flat row-major words, w @ g adds s times column i to
    column j, and g^{-1} @ w^{-1} adds s_inv times row j to row i (_apply)."""
    generators = [(i, j, s, -s) for i in range(n) for j in range(n) if i != j for s in (1, -1)]
    moves = []
    for i, j, s, s_inv in [*generators, (0, 0, -2, -2)]:
        columns = tuple((r + j, r + i) for r in range(0, n * n, n))
        moves.append((s, columns, s_inv, tuple((i * n + c, j * n + c) for c in range(n))))
    return moves


def _apply(v: tuple[int, ...], s: int, pairs: tuple[tuple[int, int], ...]) -> tuple[int, ...]:
    """v with s·v[u] added to v[t] for each pair (t, u) in order, as a new
    tuple: one half of a move of _elementary_moves on a flat row-major word."""
    v = list(v)
    for t, u in pairs:
        v[t] += s * v[u]
    return tuple(v)


def _matrix(v: tuple[int, ...], n: int) -> IntMatrix:
    """The n x n matrix whose row-major entries are v."""
    return IntMatrix._wrap(tuple(v[r : r + n] for r in range(0, n * n, n)))


def _require_depth(depth: int) -> None:
    if depth < 0:
        raise ValueError(f"search depth must be >= 0, got {depth}")


def _word_charge(n: int) -> int:
    return max(n, 3) ** 2 + 31


def _word_limit(n: int) -> int:
    """The most n x n words a walk may hold beside the cached balls."""
    cached = sum(len(b.words) * _word_charge(m) for (m, _), b in _balls.items())
    return (MAX_SEARCH_ENTRIES - cached) // _word_charge(n)


def unimodular_words(n: int, max_length: int) -> Iterator[tuple[IntMatrix, IntMatrix]]:
    """(matrix, inverse) pairs for all products of at most max_length
    elementary generators, deduplicated, in breadth-first order starting from
    the identity. The order is deterministic, so "first hit" semantics are
    reproducible. Each word is its parent word times one generator, a column
    operation (its inverse a row operation). They are read from _ball_words,
    the walk conjugacy_search shares: a caller that stops early builds no
    further word. The walk drops the oldest cached balls to make room, and
    raises ValueError only where it alone would pass MAX_SEARCH_ENTRIES."""
    for w, w_inv in _ball_words(n, max_length):
        yield _matrix(w, n), _matrix(w_inv, n)


class _Ball(NamedTuple):
    """The walk of _ball_words(n, h) with its bookkeeping: the words of
    length <= h in GL_n(Z)'s elementary generators, in walk order, as flat
    row-major tuples."""

    words: tuple[tuple[tuple, tuple], ...]  # (word, inverse)
    steps: tuple[tuple[int, _Move | None], ...]  # (parent index, move)
    inverse: tuple[int, ...]  # the index of each word's inverse
    inner: int  # the number of words of length < h, where the last layer starts

    def conjugated(self, m: IntMatrix, count: int) -> Iterator[tuple[int, ...]]:
        """x^{-1} @ m @ x for the first count words x, lazily, each as a flat
        row-major tuple. For x = p @ g, g the generator of x's move, it is
        g^{-1} @ (p^{-1} @ m @ p) @ g: the parent's value after the move's
        column and row operations."""
        values = [tuple(chain.from_iterable(m.entries))]
        yield values[0]
        for parent, (s, columns, s_inv, rows) in islice(self.steps, 1, count):
            values.append(_apply(_apply(values[parent], s, columns), s_inv, rows))
            yield values[-1]


_balls: dict[tuple[int, int], _Ball] = {}  # by (n, h), oldest first


def _ball_words(n: int, h: int) -> Iterator[tuple[tuple, tuple]]:
    """The (word, inverse) pairs of unimodular_words(n, h) as flat row-major
    tuples, read from the cached ball of shape (n, h) if there is one.
    Otherwise they are walked lazily: w extended by a move's generator g is
    w @ g, the move's column pairs applied to w, with inverse g^{-1} @ w^{-1},
    its row pairs applied to w^{-1}. One dict indexes the words, to drop
    repeats and then to find each inverse; the frontier is the last layer's
    index range. The walk stops at the first layer that adds no word and is
    cached only when it ends: a caller that stops at an early hit builds no
    further word and caches nothing. Before each word is stored, the oldest
    cached balls are dropped until they and the walk fit MAX_SEARCH_ENTRIES
    together (make_room); with none left to drop, ValueError is raised."""
    ball = _balls.get((n, h))
    if ball is not None:
        yield from ball.words
        return
    _require_depth(h)
    ident = tuple(chain.from_iterable(IntMatrix.identity(n).entries))  # raises for n < 1
    def make_room(held: int) -> int:  # drop the oldest balls until one more word fits
        while (limit := _word_limit(n)) <= held and _balls:
            del _balls[next(iter(_balls))]
        return limit
    limit = make_room(0)
    yield ident, ident
    words, steps, index = [(ident, ident)], [(-1, None)], {ident: 0}
    moves = _elementary_moves(n)
    inner = 0
    for _ in range(h):
        start, inner = inner, len(words)
        for parent in range(start, inner):
            w, w_inv = words[parent]
            for move in moves:
                s, columns, s_inv, rows = move
                m = _apply(w, s, columns)
                if m not in index:
                    if len(words) >= limit and len(words) >= (limit := make_room(len(words))):
                        raise ValueError(
                            f"word search would walk more than the limit {limit}"
                            f" words ({n}x{n}, length <= {h}); lower the search depth"
                        )
                    index[m] = len(words)
                    m_inv = _apply(w_inv, s_inv, rows)
                    words.append((m, m_inv))
                    steps.append((parent, move))
                    yield m, m_inv
        if len(words) == inner:
            break
    inverse = tuple(index[w_inv] for _, w_inv in words)
    _balls.pop((n, h), None)  # a shape walked twice at once
    _balls[n, h] = _Ball(tuple(words), tuple(steps), inverse, inner)


class ConjugacyStatus(Enum):
    CONJUGATE = "conjugate"
    NOT_CONJUGATE = "not_conjugate"
    UNKNOWN = "unknown"


class ConjugacyResult(_Record):
    """Outcome of a bounded GL_n(Z) conjugacy search.

    CONJUGATE carries a certificate; NOT_CONJUGATE carries a definitive
    invariant obstruction; UNKNOWN means the bounded search was exhausted
    without either.
    """

    __slots__ = ("status", "conjugator", "obstruction")

    def __init__(
        self,
        status: ConjugacyStatus,
        conjugator: IntMatrix | None = None,
        obstruction: str | None = None,
    ):
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "conjugator", conjugator)
        object.__setattr__(self, "obstruction", obstruction)


class _Profile:
    """A matrix and its conjugacy invariants, each computed on first use and
    kept for the one call that made the profile."""

    def __init__(self, a: IntMatrix):
        self.matrix = a

    @cached_property
    def det(self) -> int:
        return det(self.matrix)

    @cached_property
    def traces(self) -> list[int]:
        """tr(a^k) for k = 1..n."""
        return trace_sequence(self.matrix, self.matrix.rows)

    @cached_property
    def k0(self) -> FgAbelianGroup:
        return ck.k0(self.matrix)


_CONJUGACY_RUNGS = (
    ("determinants differ", attrgetter("det")),
    ("trace sequences differ", attrgetter("traces")),
    ("K0 groups differ", attrgetter("k0")),
)


def conjugacy_obstruction(a: IntMatrix, b: IntMatrix) -> str | None:
    """Definitive proof that a and b are not similar in GL_n(Z), or None."""
    return _first_difference(_Profile(a), _Profile(b), _CONJUGACY_RUNGS)


def conjugacy_search(a: IntMatrix, b: IntMatrix, search_depth: int = 4) -> ConjugacyResult:
    """Bounded search for unimodular u with u @ a @ u^{-1} = b.

    Candidates are words of length <= search_depth in the elementary
    generators. Invariant obstructions short-circuit with a definitive
    NOT_CONJUGATE, which a mere search miss (UNKNOWN) never implies.

    The search meets in the middle. The words of length <= h =
    ceil(search_depth / 2) are tried first, and the first hit in enumeration
    order is returned. Every longer candidate is v @ w with w among them and v
    a word of length <= floor(search_depth / 2), and it conjugates a to b iff
    w @ a @ w^{-1} = v^{-1} @ b @ v. The certificate is then the first meet,
    v @ w for the first v in enumeration order that meets and the first w
    meeting it, verified before it is returned; it is not proved to be an
    unsplit walk's first hit. When none meets, no word of length <=
    search_depth conjugates and the result is UNKNOWN.

    The words of length <= h are the walk of unimodular_words(n, h), walked
    lazily by _ball_words on the first search of an n x n shape at that h; a
    hit there returns before the rest are built, and only a walk that ends
    without one is cached as the shape's ball, which unimodular_words(n, h)
    reads too. Words, their inverses and the conjugates x^{-1} @ m @ x (m =
    a, b) are flat row-major tuples, each its parent's after one move
    (_apply), and the meet compares these tuples. The first-hit scan tests a
    word u in full only when its fingerprint, a dot product of u with
    coefficients built once per search (_fingerprint), is zero, as it is for
    every conjugator. A word becomes an IntMatrix only for that full test or
    a certificate.

    The walk makes room by dropping the oldest cached balls, then stops at
    MAX_SEARCH_ENTRIES // _word_charge(n) words, which admits the whole ball
    of the default depth for every n <= 12: a search that needs more raises
    ValueError, unless its first-hit scan returns before.
    """
    return _search(_Profile(a), _Profile(b), search_depth)


def _search(p: _Profile, q: _Profile, search_depth: int) -> ConjugacyResult:
    """conjugacy_search on the matrices of p and q, reading their det, trace
    sequences and K0 from the profiles."""
    a, b = p.matrix, q.matrix
    if not (a.is_square and b.is_square) or a.shape != b.shape:
        raise ValueError(f"conjugacy needs equal square shapes, got {a.shape} and {b.shape}")
    _require_depth(search_depth)
    _require_unimodular(p.det, "a"), _require_unimodular(q.det, "b")
    obstruction = _first_difference(p, q, _CONJUGACY_RUNGS)
    if obstruction is not None:
        return ConjugacyResult(ConjugacyStatus.NOT_CONJUGATE, obstruction=obstruction)
    n, h = a.rows, (search_depth + 1) // 2
    coeffs = _fingerprint(a, b)
    for u, u_inv in _ball_words(n, h):
        if sum(map(mul, u, coeffs)):
            continue  # u @ a != b @ u
        u = _matrix(u, n)
        if _conjugates(u, _matrix(u_inv, n), a, b):
            return ConjugacyResult(ConjugacyStatus.CONJUGATE, conjugator=u)
    ball = _balls[n, h]  # cached by the walk that just ran to its end
    x_a = list(ball.conjugated(a, len(ball.words)))
    # w @ a @ w^{-1} is x^{-1} @ a @ x at x = w^{-1}; reversed, so that each
    # key keeps the first w in walk order
    near_a = {x_a[ball.inverse[k]]: ball.words[k] for k in reversed(range(len(ball.words)))}
    # the words v of length <= floor(search_depth / 2), a prefix of the ball:
    # all of it when search_depth = 2h, the words of length < h otherwise
    v_count = ball.inner if search_depth % 2 else len(ball.words)
    for (v, v_inv), x_b in zip(ball.words, ball.conjugated(b, v_count)):
        met = near_a.get(x_b)
        if met is not None:
            w, w_inv = met
            u = matmul(_matrix(v, n), _matrix(w, n))
            u_inv = matmul(_matrix(w_inv, n), _matrix(v_inv, n))
            if _conjugates(u, u_inv, a, b):
                return ConjugacyResult(ConjugacyStatus.CONJUGATE, conjugator=u)
    return ConjugacyResult(ConjugacyStatus.UNKNOWN)


def _fingerprint(a: IntMatrix, b: IntMatrix) -> list[int]:
    """Coefficients c, one per entry of an n x n word u in row-major order,
    with sum(c_pq u_pq) = sum over i, j of (u @ a - b @ u)_ij * 2^(k (i n + j)),
    k = 32: the fingerprint of u @ a - b @ u. It is linear in u, so c_pq is
    a's row q packed at bits k n p, less b's column p packed at bits k q. It
    is zero when u @ a = b @ u, and nonzero otherwise as long as every entry
    of u @ a - b @ u is below 2^k in absolute value."""
    n, k = a.rows, 32
    rows_a = [sum(x << k * j for j, x in enumerate(row)) for row in a.entries]
    cols_b = [sum(x << k * n * i for i, x in enumerate(col)) for col in zip(*b.entries)]
    return [(rows_a[q] << k * n * p) - (cols_b[p] << k * q) for p in range(n) for q in range(n)]


def _conjugates(u: IntMatrix, u_inv: IntMatrix, a: IntMatrix, b: IntMatrix) -> bool:
    """Whether u @ a = b @ u, by full products."""
    ua = matmul(u, a)
    if ua != matmul(b, u):
        return False
    assert matmul(ua, u_inv) == b
    return True
