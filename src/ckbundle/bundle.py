"""Torus bundles over the circle, modeled by their monodromy matrices.

A bundle is its monodromy in GL_n(Z), as make_bundle validates it; conjugate
monodromies give homeomorphic bundles, so everything computed here is a class
function of the monodromy up to conjugation.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from operator import attrgetter

from . import ck, sft
from .abelian import FgAbelianGroup
from .intmat import (
    IntMatrix,
    IntPolynomial,
    NotUnimodular,
    _Record,
    _require_square,
    _require_unimodular,
    charpoly,
    matmul,
    trace,
)

__all__ = [
    "NotUnimodular",
    "NormalizedMonodromy",
    "Outcome",
    "ComparisonVerdict",
    "CKFunctorImage",
    "make_bundle",
    "normalize_monodromy",
    "nonnegative_representative",
    "h1",
    "alexander_polynomial",
    "ck_functor",
    "theorem1_check",
    "compare_bundles",
]


class NormalizedMonodromy(_Record):
    """Monodromy with trace made nonnegative; flipped records whether a
    global sign change was applied."""

    __slots__ = ("matrix", "flipped")

    def __init__(self, matrix: IntMatrix, flipped: bool):
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "flipped", flipped)


def make_bundle(a: IntMatrix) -> IntMatrix:
    """Validate a as a monodromy matrix (square, determinant +/-1); return it."""
    return _monodromy(a).matrix


def _monodromy(a: IntMatrix) -> sft._Profile:
    """The profile of a, once a passes make_bundle."""
    if not a.is_square:
        raise ValueError(f"monodromy must be square, got {a.shape}")
    profile = sft._Profile(a)
    _require_unimodular(profile.det, "monodromy")
    return profile


def _flips(t: int) -> bool:
    """Whether normalize_monodromy flips a monodromy of trace t."""
    return t < 0


def normalize_monodromy(a: IntMatrix) -> NormalizedMonodromy:
    """Flip the global sign exactly when the trace is negative; trace zero
    keeps the given sign."""
    if _flips(trace(a)):
        return NormalizedMonodromy(-a, flipped=True)
    return NormalizedMonodromy(a, flipped=False)


def nonnegative_representative(
    a: IntMatrix, search_depth: int = 4
) -> tuple[IntMatrix, IntMatrix] | None:
    """Bounded search for (u, a') with a' = u @ A @ u^{-1} entrywise
    nonnegative, where A is the normalized monodromy.

    Returns the first hit in word-enumeration order, or None; a None is not
    a proof that no nonnegative conjugate exists. Raises ValueError where
    the word walk would pass its budget, sft.MAX_SEARCH_ENTRIES.
    """
    normalized = normalize_monodromy(a).matrix
    for u, u_inv in sft.unimodular_words(a.rows, search_depth):
        candidate = matmul(matmul(u, normalized), u_inv)
        if candidate.is_nonnegative:
            return u, candidate
    return None


def _z_plus(g: FgAbelianGroup) -> FgAbelianGroup:
    """Z + g; adding a free summand keeps the divisor chain canonical."""
    return FgAbelianGroup(g.free_rank + 1, g.invariant_factors)


def h1(a: IntMatrix) -> FgAbelianGroup:
    """First homology of the bundle: Z + coker(A - I) = Z + bowen_franks(A)."""
    _require_square(a, "h1")
    return _z_plus(ck.bowen_franks(a))


def alexander_polynomial(a: IntMatrix) -> IntPolynomial:
    """det(tI - A): the characteristic polynomial of the monodromy."""
    return charpoly(a)


class CKFunctorImage(_Record):
    """K-theory of the algebra assigned to the bundle, evaluated on the
    normalized monodromy."""

    __slots__ = ("normalized", "k0", "k1")

    def __init__(self, normalized: NormalizedMonodromy, k0: FgAbelianGroup, k1: FgAbelianGroup):
        object.__setattr__(self, "normalized", normalized)
        object.__setattr__(self, "k0", k0)
        object.__setattr__(self, "k1", k1)


def ck_functor(a: IntMatrix) -> CKFunctorImage:
    """Object map of the bundle-to-algebra functor: normalize the monodromy,
    then read off K0 and K1."""
    normalized = normalize_monodromy(a)
    k0 = ck.k0(normalized.matrix)
    return CKFunctorImage(normalized=normalized, k0=k0, k1=ck._k1_of(k0))


def theorem1_check(a: IntMatrix) -> bool:
    """Verify that H1 of the bundle is isomorphic to Z + K0, with K0 taken on
    the bundle's own monodromy.

    Evaluating K0 on the raw matrix keeps this an identity for every sign of
    the trace (a flipped matrix can change K0, e.g. at -I). A false return
    therefore indicates a genuine bug and is surfaced, never swallowed. H1
    (from I - A) and K0 (from I - A^t) come from two independent Smith forms.
    """
    return h1(a) == _z_plus(ck.k0(a))


class Outcome(Enum):
    DISTINCT = "Distinct"
    HOMEOMORPHIC = "Homeomorphic"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class ComparisonVerdict:
    """Comparison outcome plus its evidence: a named invariant mismatch for
    Distinct, an explicit conjugator certificate for Homeomorphic."""

    outcome: Outcome
    witness: str
    certificate: IntMatrix | None = None


def compare_bundles(a: IntMatrix, b: IntMatrix, search_depth: int = 4) -> ComparisonVerdict:
    """Distinguish or identify two bundles of the same fiber dimension; both
    monodromies pass make_bundle first.

    Distinct requires an invariant mismatch (K0 of the functor images, H1,
    or det: T_A is orientable iff det A = +1, and orientability is a
    homeomorphism invariant); Homeomorphic requires an explicit unimodular
    conjugator between the monodromies, found by bounded search; anything
    else is Inconclusive.

    K0 is used only when both monodromies were normalized the same way: with
    one side sign-flipped the two images are the K-theory of +A and -B, which
    need not agree even for homeomorphic bundles (M against M^-1).

    Each monodromy's det, K0 and trace sequence are computed at most once per
    call, shared by the rungs and the conjugacy search; H1 = Z + K0 is read
    off K0's Smith diagonal. The search raises ValueError where its word walk
    would pass its budget, sft.MAX_SEARCH_ENTRIES.
    """
    p, q = _monodromy(a), _monodromy(b)
    if a.rows != b.rows:
        raise ValueError(f"cannot compare bundles of fiber dimension {a.rows} and {b.rows}")
    sft._require_depth(search_depth)
    rungs = [("H1", lambda side: _z_plus(side.k0)), ("det", attrgetter("det"))]
    flipped = _flips(trace(a))
    if flipped == _flips(trace(b)):
        # the images are both raw monodromies or both sign-flipped
        rungs.insert(0, ("K0", lambda side: ck.k0(-side.matrix) if flipped else side.k0))
    difference = sft._first_difference(p, q, rungs)
    if difference is not None:
        return ComparisonVerdict(Outcome.DISTINCT, witness=difference)
    result = sft._search(p, q, search_depth)
    if result.status is sft.ConjugacyStatus.CONJUGATE:
        return ComparisonVerdict(
            Outcome.HOMEOMORPHIC,
            witness=f"monodromies conjugate via {result.conjugator.to_lists()}",
            certificate=result.conjugator,
        )
    if result.status is sft.ConjugacyStatus.NOT_CONJUGATE:
        # non-conjugate monodromies do not prove the bundles distinct
        return ComparisonVerdict(
            Outcome.INCONCLUSIVE,
            witness=f"no invariant differs; monodromies not conjugate ({result.obstruction})",
        )
    return ComparisonVerdict(
        Outcome.INCONCLUSIVE,
        witness=f"no invariant differs; no conjugator found at depth {search_depth}",
    )
