"""Cuntz-Krieger matrix descriptors and K-theoretic invariants.

The algebra itself is only ever represented by its defining nonnegative
integer matrix; k0/k1/bowen_franks are pure integer linear algebra and are
therefore defined for any square matrix, admissible or not.
"""

from __future__ import annotations

from math import gcd

from .abelian import FgAbelianGroup, cokernel
from .intmat import IntMatrix, _require_square

__all__ = [
    "NotNonnegative",
    "DegenerateRelations",
    "make_descriptor",
    "k0",
    "k1",
    "bowen_franks",
    "is_irreducible",
    "is_primitive",
    "edge_dilation",
]

# Largest number of arcs (the entry sum) edge_dilation builds. Its output is
# arcs x arcs: 1,024 arcs take about 0.1 s and 17 MB, and each doubling
# takes four times the time and memory.
MAX_DILATION_ARCS = 1024


class NotNonnegative(ValueError):
    """Raised when a matrix required to be entrywise nonnegative is not."""


class DegenerateRelations(ValueError):
    """Raised for matrices with a zero row or zero column, whose defining
    relations would force one of the generating isometries to vanish."""


def _require_nonnegative(a: IntMatrix, what: str) -> None:
    if not a.is_nonnegative:
        raise NotNonnegative(f"{what} requires nonnegative entries")


def make_descriptor(a: IntMatrix) -> IntMatrix:
    """Validate a as a Cuntz-Krieger defining matrix and return it.

    Requires a square nonnegative matrix with no zero row and no zero column;
    its size is the number of generating partial isometries.
    """
    if not a.is_square:
        raise ValueError(f"descriptor matrix must be square, got {a.shape}")
    _require_nonnegative(a, "make_descriptor")
    for i in range(a.rows):
        if all(x == 0 for x in a.row(i)):
            raise DegenerateRelations(f"row {i} is zero")
    for j in range(a.cols):
        if all(x == 0 for x in a.column(j)):
            raise DegenerateRelations(f"column {j} is zero")
    return a


def k0(a: IntMatrix) -> FgAbelianGroup:
    """K0 invariant: the cokernel of (I - a^t) in canonical form."""
    _require_square(a, "k0")
    return cokernel(IntMatrix.identity(a.rows) - a.transpose())


def k1(a: IntMatrix) -> FgAbelianGroup:
    """K1 invariant: the kernel of (I - a^t), free of the rank of K0's free
    part (rank-nullity on the one Smith form of I - a^t)."""
    _require_square(a, "k1")
    return FgAbelianGroup.free(k0(a).free_rank)


def bowen_franks(a: IntMatrix) -> FgAbelianGroup:
    """Bowen-Franks group: the cokernel of (I - a); isomorphic to k0(a)."""
    _require_square(a, "bowen_franks")
    return cokernel(IntMatrix.identity(a.rows) - a)


def _adjacency(a: IntMatrix) -> list[list[int]]:
    return [[1 if x > 0 else 0 for x in row] for row in a.entries]


def is_irreducible(a: IntMatrix) -> bool:
    """True iff the digraph with an arc i -> j whenever a[i, j] > 0 is
    strongly connected."""
    _require_square(a, "is_irreducible")
    _require_nonnegative(a, "is_irreducible")
    return _strongly_connected(_adjacency(a))


def _levels(adj: list[list[int]]) -> dict[int, int]:
    """BFS levels from vertex 0, in BFS order: level[v] is the length of a
    shortest path 0 -> v, for every v reachable from 0."""
    level = {0: 0}
    queue = [0]
    for u in queue:
        for v, x in enumerate(adj[u]):
            if x and v not in level:
                level[v] = level[u] + 1
                queue.append(v)
    return level


def _strongly_connected(adj: list[list[int]]) -> bool:
    return len(_levels(adj)) == len(adj) == len(_levels(list(zip(*adj))))


def _period(adj: list[list[int]]) -> int:
    """Period of a strongly connected digraph (0 if it has no arcs): the gcd
    over arcs u -> v of level[u] + 1 - level[v], levels from one BFS from 0
    (Lind-Marcus, Symbolic Dynamics and Coding, 4.5)."""
    level = _levels(adj)
    return gcd(*(level[u] + 1 - level[v] for u in level for v, x in enumerate(adj[u]) if x))


def is_primitive(a: IntMatrix) -> bool:
    """True iff some power of a is entrywise strictly positive.

    Decided on the 0/1 pattern (nonnegativity means no cancellation): a is
    primitive iff its digraph is strongly connected with period 1. O(n^2).
    """
    _require_square(a, "is_primitive")
    _require_nonnegative(a, "is_primitive")
    adj = _adjacency(a)
    return _strongly_connected(adj) and _period(adj) == 1


def edge_dilation(a: IntMatrix) -> IntMatrix:
    """0/1 adjacency matrix of the arc graph of a.

    Each entry a[i, j] = m contributes m parallel arcs i -> j; arcs are
    ordered by (tail, head, copy index) and the output has a 1 at (e, f)
    exactly when head(e) = tail(f). A matrix that is already 0/1 is returned
    unchanged. Preserves the conjugacy class of the associated shift.
    Raises ValueError before building anything when there would be more than
    MAX_DILATION_ARCS arcs.
    """
    _require_square(a, "edge_dilation")
    _require_nonnegative(a, "edge_dilation")
    if a.is_zero:
        raise ValueError("edge_dilation requires at least one nonzero entry")
    if a.is_zero_one:
        return a
    count = sum(map(sum, a.entries))
    if count > MAX_DILATION_ARCS:
        raise ValueError(
            f"edge dilation would build E = {count} arcs (the entry sum), more than the limit"
            f" {MAX_DILATION_ARCS}"
        )
    arcs = [
        (i, j)
        for i in range(a.rows)
        for j in range(a.cols)
        for _ in range(a[i, j])
    ]
    return IntMatrix(
        [[1 if head == tail2 else 0 for (tail2, _head2) in arcs] for (_tail, head) in arcs]
    )
