"""Matrix-level machinery for subshifts of finite type: shift-equivalence
witnesses, elementary strong shift equivalences, GL_n(Z) conjugacy search and
trace-sequence prefilters.

Searches are bounded and deterministic: absence of a certificate is never a
proof of non-equivalence, but the invariant obstructions reported here are
definitive.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import islice, product
from operator import mul
from typing import Callable, Iterator

from . import ck
from .intmat import IntMatrix, _echelon, _require_square, det, matmul, matpow, trace
from .intmat import unimodular_inverse

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
    "elementary_generators",
    "unimodular_words",
    "conjugate",
]


# Largest (entry_bound + 1)^d that _intertwiners enumerates, d being the
# number of free entries: 7^6 lets a non-derogatory 6x6 pair run at the
# default entry bound 6, while a scalar 3x3 matrix (7^9 there) is refused.
MAX_SE_CANDIDATES = 7**6

# Most candidates conjugacy_search tries once its meet in the middle has
# found a conjugator, the meet's own conjugator being the last: the 6x6 pair
# in the tests would otherwise walk for about 30 s and 775 MB.
MAX_RESUMED_WORDS = 2**16


@dataclass(frozen=True)
class SEWitness:
    """Candidate shift-equivalence data (r, s, lag); validity is checked by
    verify_se_witness, not at construction."""

    r: IntMatrix
    s: IntMatrix
    lag: int


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
    system = [
        [a[i, p] * (q == j) - (p == i) * b[q, j] for p in range(rows) for q in range(cols)]
        for i in range(rows) for j in range(cols)
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
    steps = [
        (c, row[c], [(j, x) for j, x in enumerate(row) if x and j > c])
        for c, row in reversed(list(zip(pivots, system)))
    ]
    found, flat = [], [0] * (rows * cols)
    for values in product(range(bound + 1), repeat=len(free)):
        for c, x in zip(free, values):
            flat[c] = x
        for c, pivot, terms in steps:
            value, rem = divmod(-sum(x * flat[j] for j, x in terms), pivot)
            if rem or not 0 <= value <= bound:
                break
            flat[c] = value
        else:
            found.append(IntMatrix([flat[i * cols : (i + 1) * cols] for i in range(rows)]))
    return sorted(found, key=lambda r: (sum(map(sum, r.entries)), r.entries))


def search_se_witness(
    a: IntMatrix, b: IntMatrix, max_lag: int = 3, entry_bound: int = 6
) -> SEWitness | None:
    """Bounded search for a shift-equivalence witness.

    Enumerates r with a@r = r@b and s with b@s = s@a over the entry box
    [0, entry_bound], lag ascending outermost, candidates by entry sum then
    row-major order; returns the first verified witness or None. An empty
    result is not a proof of non-equivalence (see se_obstruction for that).
    Raises ValueError before enumerating when either side would have more
    than MAX_SE_CANDIDATES candidates.
    """
    _check_se_search(a, b, max_lag, entry_bound)
    rs = _intertwiners(a, b, entry_bound)
    ss = _intertwiners(b, a, entry_bound)
    for lag in range(1, max_lag + 1):
        a_pow = matpow(a, lag)
        b_pow = matpow(b, lag)
        for r in rs:
            for s in ss:
                if matmul(r, s) == a_pow and matmul(s, r) == b_pow:
                    return SEWitness(r, s, lag)
    return None


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


def _first_difference(a: object, b: object, rungs: list[tuple[str, Callable]]) -> str | None:
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


def _elementary_moves(n: int) -> list[tuple[int, int, int, int]]:
    """(i, j, s, s_inv) per generator of elementary_generators, in its order:
    the generator is I + s·e_ij and its inverse I + s_inv·e_ij. The sign
    flip diag(-1, 1, ..., 1) is I - 2·e_00, its own inverse."""
    moves = [(i, j, s, -s) for i in range(n) for j in range(n) if i != j for s in (1, -1)]
    moves.append((0, 0, -2, -2))
    return moves


def _add_column(m: IntMatrix, i: int, j: int, s: int) -> IntMatrix:
    """m @ (I + s·e_ij): s times column i added to column j."""
    return IntMatrix._wrap(tuple(r[:j] + (r[j] + s * r[i],) + r[j + 1 :] for r in m.entries))


def _add_row(m: IntMatrix, i: int, j: int, s: int) -> IntMatrix:
    """(I + s·e_ij) @ m: s times row j added to row i."""
    rows = m.entries
    new_row = tuple([x + s * y for x, y in zip(rows[i], rows[j])])
    return IntMatrix._wrap(rows[:i] + (new_row,) + rows[i + 1 :])


def elementary_generators(n: int) -> list[tuple[IntMatrix, IntMatrix]]:
    """Generators of GL_n(Z) as (matrix, inverse) pairs, in a fixed order:
    transvections E_ij(+1), E_ij(-1) by row-major (i, j), then the sign flip
    diag(-1, 1, ..., 1)."""
    ident = IntMatrix.identity(n)
    return [
        (_add_row(ident, i, j, s), _add_row(ident, i, j, s_inv))
        for i, j, s, s_inv in _elementary_moves(n)
    ]


def unimodular_words(n: int, max_length: int) -> Iterator[tuple[IntMatrix, IntMatrix]]:
    """(matrix, inverse) pairs for all products of at most max_length
    elementary generators, deduplicated, in breadth-first order starting from
    the identity. The order is deterministic, so "first hit" semantics are
    reproducible. A word w extended by a generator g is w @ g, a column
    operation on w, with inverse g^{-1} @ w^{-1}, a row operation."""
    if max_length < 0:
        raise ValueError(f"search depth must be >= 0, got {max_length}")
    ident = IntMatrix.identity(n)
    yield ident, ident
    seen = {ident}
    frontier = [(ident, ident)]
    moves = _elementary_moves(n)
    for _ in range(max_length):
        nxt = []
        for w, w_inv in frontier:
            for i, j, s, s_inv in moves:
                m = _add_column(w, i, j, s)
                if m not in seen:
                    seen.add(m)
                    pair = (m, _add_row(w_inv, i, j, s_inv))
                    nxt.append(pair)
                    yield pair
        if not nxt:
            return
        frontier = nxt


def conjugate(a: IntMatrix, u: IntMatrix) -> IntMatrix:
    """u @ a @ u^{-1} for unimodular u."""
    return matmul(matmul(u, a), unimodular_inverse(u))


class ConjugacyStatus(Enum):
    CONJUGATE = "conjugate"
    NOT_CONJUGATE = "not_conjugate"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class ConjugacyResult:
    """Outcome of a bounded GL_n(Z) conjugacy search.

    CONJUGATE carries a certificate; NOT_CONJUGATE carries a definitive
    invariant obstruction; UNKNOWN means the bounded search was exhausted
    without either.
    """

    status: ConjugacyStatus
    conjugator: IntMatrix | None = None
    obstruction: str | None = None


def conjugacy_obstruction(a: IntMatrix, b: IntMatrix) -> str | None:
    """Definitive proof that a and b are not similar in GL_n(Z), or None."""
    return _first_difference(
        a,
        b,
        [
            ("determinants differ", det),
            ("trace sequences differ", lambda m: trace_sequence(m, m.rows)),
            ("K0 groups differ", ck.k0),
        ],
    )


def conjugacy_search(a: IntMatrix, b: IntMatrix, search_depth: int = 4) -> ConjugacyResult:
    """Bounded search for unimodular u with u @ a @ u^{-1} = b.

    Candidates are words of length <= search_depth in the elementary
    generators; the first hit in enumeration order is returned. Invariant
    obstructions short-circuit with a definitive NOT_CONJUGATE, which a mere
    search miss (UNKNOWN) never implies.

    The words of length <= h = ceil(search_depth / 2) are tried first. Every
    longer candidate is v @ w with v, w among them, and it conjugates a to b
    iff w @ a @ w^{-1} = v^{-1} @ b @ v; when no such pair meets, the result
    is UNKNOWN without generating a longer word. Otherwise the walk resumes
    where it stopped, so the first hit is the same as an unsplit walk's, for
    at most MAX_RESUMED_WORDS candidates. When the walk would go on past
    them, the last candidate is v @ w for the first meeting v in walk order
    and the first w meeting it, a conjugator of length <= 2h.
    """
    if not (a.is_square and b.is_square) or a.shape != b.shape:
        raise ValueError(f"conjugacy needs equal square shapes, got {a.shape} and {b.shape}")
    if search_depth < 0:
        raise ValueError(f"search depth must be >= 0, got {search_depth}")
    for m, name in ((a, "a"), (b, "b")):
        if det(m) not in (1, -1):
            raise ValueError(f"{name} has determinant {det(m)}, expected +/-1")
    obstruction = conjugacy_obstruction(a, b)
    if obstruction is not None:
        return ConjugacyResult(ConjugacyStatus.NOT_CONJUGATE, obstruction=obstruction)
    tried = []
    for u, u_inv in unimodular_words(a.rows, (search_depth + 1) // 2):
        if _conjugates(u, u_inv, a, b):
            return ConjugacyResult(ConjugacyStatus.CONJUGATE, conjugator=u)
        tried.append((u, u_inv))
    # reversed, so that each key keeps the first w in walk order
    near_a = {matmul(matmul(w, a), w_inv): (w, w_inv) for w, w_inv in reversed(tried)}
    for v, v_inv in tried:
        met = near_a.get(matmul(matmul(v_inv, b), v))
        if met is not None:
            break
    else:
        return ConjugacyResult(ConjugacyStatus.UNKNOWN)
    # unimodular_words(n, search_depth) starts with the len(tried) words
    # already tried, in the same order
    words = islice(unimodular_words(a.rows, search_depth), len(tried), None)
    for u, u_inv in islice(words, MAX_RESUMED_WORDS - 1):
        if _conjugates(u, u_inv, a, b):
            return ConjugacyResult(ConjugacyStatus.CONJUGATE, conjugator=u)
    w, w_inv = met
    u, u_inv = matmul(v, w), matmul(w_inv, v_inv)
    if next(words, None) is not None and _conjugates(u, u_inv, a, b):
        return ConjugacyResult(ConjugacyStatus.CONJUGATE, conjugator=u)
    return ConjugacyResult(ConjugacyStatus.UNKNOWN)


def _conjugates(u: IntMatrix, u_inv: IntMatrix, a: IntMatrix, b: IntMatrix) -> bool:
    """Whether u @ a = b @ u. The first entries of u @ a @ 1 and b @ u @ 1,
    1 the all-ones vector, are compared first: a few dot products that rule
    out most words without a full product."""
    ua_1 = sum(map(mul, u.row(0), map(sum, a.entries)))
    if ua_1 != sum(map(mul, b.row(0), map(sum, u.entries))):
        return False
    ua = matmul(u, a)
    if ua != matmul(b, u):
        return False
    assert matmul(ua, u_inv) == b
    return True
