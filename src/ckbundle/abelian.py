"""Finitely generated abelian groups in invariant-factor canonical form.

A group is stored as a free rank plus a divisor chain of torsion factors,
so two values are isomorphic exactly when they compare equal.
"""

from __future__ import annotations

import operator

from .intmat import IntMatrix, _Record, smith_diagonal

__all__ = [
    "FgAbelianGroup",
    "cokernel",
    "direct_sum",
    "format_group",
]


class FgAbelianGroup(_Record):
    """Z^free_rank + Z_{d_1} + ... + Z_{d_k} with 2 <= d_1 | d_2 | ... | d_k.

    Factors of 1 are never stored and zeros live in the free rank, so the
    field tuple is a complete isomorphism invariant.
    """

    __slots__ = ("free_rank", "invariant_factors")

    def __init__(self, free_rank: int, invariant_factors: tuple[int, ...] = ()):
        rank = operator.index(free_rank)
        factors = tuple(operator.index(f) for f in invariant_factors)
        if rank < 0:
            raise ValueError("free rank must be nonnegative")
        for f in factors:
            if f < 2:
                raise ValueError(f"invariant factor {f} < 2 is not canonical")
        for a, b in zip(factors, factors[1:]):
            if b % a:
                raise ValueError(f"invariant factors {factors} violate the divisor chain")
        object.__setattr__(self, "free_rank", rank)
        object.__setattr__(self, "invariant_factors", factors)

    @classmethod
    def free(cls, rank: int) -> "FgAbelianGroup":
        return cls(rank, ())

    @classmethod
    def trivial(cls) -> "FgAbelianGroup":
        return cls(0, ())

    @classmethod
    def cyclic(cls, n: int) -> "FgAbelianGroup":
        """Z_n, with the conventions Z_0 = Z and Z_1 = 0."""
        n = abs(operator.index(n))
        if n == 0:
            return cls(1, ())
        if n == 1:
            return cls(0, ())
        return cls(0, (n,))

    @property
    def is_finite(self) -> bool:
        return self.free_rank == 0

    def order(self) -> int | None:
        """Group order, or None when infinite."""
        if not self.is_finite:
            return None
        result = 1
        for f in self.invariant_factors:
            result *= f
        return result

    def __str__(self) -> str:
        return format_group(self)


def cokernel(a: IntMatrix) -> FgAbelianGroup:
    """Z^rows / (column span of a), in canonical form.

    The free rank is rows - rank(a); the torsion factors are the Smith
    diagonal entries greater than 1.
    """
    diag = smith_diagonal(a)
    torsion = tuple(x for x in diag if x > 1)
    return FgAbelianGroup(a.rows - sum(1 for x in diag if x != 0), torsion)


def direct_sum(g: FgAbelianGroup, h: FgAbelianGroup) -> FgAbelianGroup:
    """Direct sum, with the combined torsion re-normalized into a divisor
    chain (via the Smith diagonal of the diagonal matrix of all factors)."""
    rank = g.free_rank + h.free_rank
    factors = g.invariant_factors + h.invariant_factors
    if not factors:
        return FgAbelianGroup(rank, ())
    diag = smith_diagonal(IntMatrix.diagonal(factors))
    return FgAbelianGroup(rank, tuple(x for x in diag if x > 1))


def format_group(g: FgAbelianGroup) -> str:
    """Render e.g. Z^2 + Z_2 + Z_4; the trivial group renders as 0."""
    parts = []
    if g.free_rank == 1:
        parts.append("Z")
    elif g.free_rank > 1:
        parts.append(f"Z^{g.free_rank}")
    parts.extend(f"Z_{f}" for f in g.invariant_factors)
    return " + ".join(parts) if parts else "0"
