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
from itertools import product
from typing import Callable, Iterator

from . import ck
from .intmat import IntMatrix, _require_square, det, matmul, matpow, trace, unimodular_inverse

__all__ = [
    "SEWitness",
    "verify_se_witness",
    "search_se_witness",
    "se_obstruction",
    "verify_elementary_sse",
    "trace_sequence",
    "ConjugacyStatus",
    "ConjugacyResult",
    "conjugacy_search",
    "conjugacy_obstruction",
    "elementary_generators",
    "unimodular_words",
    "conjugate",
]


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
    """Every r with entries in [0, bound] and a@r = r@b, ordered by total
    entry sum, then row-major lexicographic. The box of (bound+1)^(rows*cols)
    candidates is filtered lazily; only the survivors are sorted."""
    rows, cols = a.rows, b.rows
    box = (
        IntMatrix([flat[i * cols : (i + 1) * cols] for i in range(rows)])
        for flat in product(range(bound + 1), repeat=rows * cols)
    )
    return sorted(
        (r for r in box if matmul(a, r) == matmul(r, b)),
        key=lambda r: (sum(map(sum, r.entries)), r.entries),
    )


def search_se_witness(
    a: IntMatrix, b: IntMatrix, max_lag: int = 3, entry_bound: int = 6
) -> SEWitness | None:
    """Bounded brute-force search for a shift-equivalence witness.

    Enumerates r with a@r = r@b and s with b@s = s@a over the entry box
    [0, entry_bound], lag ascending outermost, candidates by entry sum then
    row-major order; returns the first verified witness or None. An empty
    result is not a proof of non-equivalence (see se_obstruction for that).
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


def verify_elementary_sse(a: IntMatrix, b: IntMatrix, r: IntMatrix, s: IntMatrix) -> bool:
    """Check one elementary strong-shift-equivalence step: a = r@s and
    b = s@r with r, s nonnegative."""
    if not (a.is_square and b.is_square):
        raise ValueError("elementary SSE applies to square matrices")
    if r.shape != (a.rows, b.rows) or s.shape != (b.rows, a.rows):
        raise ValueError(
            f"factor shapes {r.shape}/{s.shape} do not match {a.rows} and {b.rows}"
        )
    if not (r.is_nonnegative and s.is_nonnegative):
        return False
    return matmul(r, s) == a and matmul(s, r) == b


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


def elementary_generators(n: int) -> list[tuple[IntMatrix, IntMatrix]]:
    """Generators of GL_n(Z) as (matrix, inverse) pairs, in a fixed order:
    transvections E_ij(+1), E_ij(-1) by row-major (i, j), then the sign flip
    diag(-1, 1, ..., 1)."""
    gens: list[tuple[IntMatrix, IntMatrix]] = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            for sign in (1, -1):
                e = IntMatrix.identity(n).to_lists()
                e[i][j] = sign
                f = IntMatrix.identity(n).to_lists()
                f[i][j] = -sign
                gens.append((IntMatrix(e), IntMatrix(f)))
    flip = IntMatrix.diagonal([-1] + [1] * (n - 1))
    gens.append((flip, flip))
    return gens


def unimodular_words(n: int, max_length: int) -> Iterator[tuple[IntMatrix, IntMatrix]]:
    """(matrix, inverse) pairs for all products of at most max_length
    elementary generators, deduplicated, in breadth-first order starting from
    the identity. The order is deterministic, so "first hit" semantics are
    reproducible."""
    if max_length < 0:
        raise ValueError(f"search depth must be >= 0, got {max_length}")
    ident = IntMatrix.identity(n)
    yield ident, ident
    seen = {ident}
    frontier = [(ident, ident)]
    gens = elementary_generators(n)
    for _ in range(max_length):
        nxt = []
        for w, w_inv in frontier:
            for g, g_inv in gens:
                m = matmul(w, g)
                if m not in seen:
                    seen.add(m)
                    pair = (m, matmul(g_inv, w_inv))
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

    @property
    def found(self) -> bool:
        return self.status is ConjugacyStatus.CONJUGATE


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
    for u, u_inv in unimodular_words(a.rows, search_depth):
        if matmul(u, a) == matmul(b, u):
            assert matmul(matmul(u, a), u_inv) == b
            return ConjugacyResult(ConjugacyStatus.CONJUGATE, conjugator=u)
    return ConjugacyResult(ConjugacyStatus.UNKNOWN)
