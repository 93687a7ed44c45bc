"""Exact dense integer matrices: arithmetic, determinants, characteristic
polynomials and Smith normal forms.

Entries are plain Python ints, so every operation is exact at any magnitude;
nothing here touches floating point or rationals.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Iterator

__all__ = [
    "IntMatrix",
    "IntPolynomial",
    "SmithDecomposition",
    "NotUnimodular",
    "matmul",
    "matpow",
    "det",
    "trace",
    "charpoly",
    "smith_normal_form",
    "smith_diagonal",
    "kernel_basis",
    "unimodular_inverse",
]


class NotUnimodular(ValueError):
    """Raised when a matrix required to have determinant +/-1 does not."""


class IntMatrix:
    """Immutable dense matrix over the integers (row-major)."""

    __slots__ = ("_data",)

    def __init__(self, rows: Iterable[Iterable[int]]):
        data = tuple(tuple(operator.index(x) for x in row) for row in rows)
        if not data or not data[0]:
            raise ValueError("matrix must have at least one row and one column")
        width = len(data[0])
        if any(len(row) != width for row in data[1:]):
            raise ValueError("all rows must have the same length")
        self._data = data

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[int(i == j) for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntMatrix":
        return cls([[0] * cols for _ in range(rows)])

    @classmethod
    def diagonal(cls, values: Iterable[int]) -> "IntMatrix":
        vals = list(values)
        n = len(vals)
        return cls([[vals[i] if i == j else 0 for j in range(n)] for i in range(n)])

    @property
    def rows(self) -> int:
        return len(self._data)

    @property
    def cols(self) -> int:
        return len(self._data[0])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        return self._data

    def row(self, i: int) -> tuple[int, ...]:
        return self._data[i]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self._data)

    def __getitem__(self, key):
        if isinstance(key, tuple):
            i, j = key
            return self._data[i][j]
        return self._data[key]

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self._data)

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self._data == other._data

    def __hash__(self) -> int:
        return hash(self._data)

    def __repr__(self) -> str:
        return f"IntMatrix({self.to_lists()!r})"

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self._data]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    @property
    def is_nonnegative(self) -> bool:
        return all(x >= 0 for row in self._data for x in row)

    @property
    def is_zero(self) -> bool:
        return all(x == 0 for row in self._data for x in row)

    @property
    def is_zero_one(self) -> bool:
        return all(x in (0, 1) for row in self._data for x in row)

    def transpose(self) -> "IntMatrix":
        return IntMatrix(zip(*self._data))

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if self.shape != other.shape:
            raise ValueError(f"cannot add {self.shape} and {other.shape} matrices")
        return IntMatrix(
            [x + y for x, y in zip(r, s)] for r, s in zip(self._data, other._data)
        )

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        if self.shape != other.shape:
            raise ValueError(f"cannot subtract {other.shape} from {self.shape}")
        return IntMatrix(
            [x - y for x, y in zip(r, s)] for r, s in zip(self._data, other._data)
        )

    def __neg__(self) -> "IntMatrix":
        return IntMatrix([-x for x in row] for row in self._data)

    def __mul__(self, scalar: int) -> "IntMatrix":
        c = operator.index(scalar)
        return IntMatrix([c * x for x in row] for row in self._data)

    __rmul__ = __mul__

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        return matmul(self, other)

    def __pow__(self, k: int) -> "IntMatrix":
        return matpow(self, k)


def _require_square(a: IntMatrix, what: str) -> None:
    if not a.is_square:
        raise ValueError(f"{what} requires a square matrix, got {a.shape}")


def matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Exact matrix product."""
    if a.cols != b.rows:
        raise ValueError(f"cannot multiply {a.shape} by {b.shape}")
    b_cols = list(zip(*b.entries))
    return IntMatrix(
        [sum(x * y for x, y in zip(row, col)) for col in b_cols] for row in a.entries
    )


def matpow(a: IntMatrix, k: int) -> IntMatrix:
    """Exact k-th power of a square matrix; k = 0 gives the identity."""
    _require_square(a, "matpow")
    k = operator.index(k)
    if k < 0:
        raise ValueError("exponent must be nonnegative")
    result = IntMatrix.identity(a.rows)
    base = a
    while k:
        if k & 1:
            result = matmul(result, base)
        k >>= 1
        if k:
            base = matmul(base, base)
    return result


def trace(a: IntMatrix) -> int:
    """Sum of the diagonal entries of a square matrix."""
    _require_square(a, "trace")
    return sum(a[i, i] for i in range(a.rows))


def _echelon(m: list[list[int]]) -> tuple[list[int], int]:
    """Fraction-free (Bareiss) row echelon form of m (row lists) in place;
    returns the pivot columns and the row permutation's sign. Columns without
    a pivot are skipped, so m may be rectangular and of any rank; rows past
    the last pivot end up zero. Entries stay minors, so divisions are exact."""
    pivots, sign, prev = [], 1, 1
    for c in range(len(m[0])):
        k = len(pivots)
        swap = next((i for i in range(k, len(m)) if m[i][c]), None)
        if swap is None:
            continue
        if swap != k:
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        top, pivot = m[k], m[k][c]
        for row in m[k + 1 :]:
            for j in range(c + 1, len(row)):
                row[j] = (row[j] * pivot - row[c] * top[j]) // prev
            row[c] = 0
        prev = pivot
        pivots.append(c)
    return pivots, sign


def det(a: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    _require_square(a, "det")
    m = a.to_lists()
    pivots, sign = _echelon(m)
    return sign * m[-1][-1] if len(pivots) == a.rows else 0


@dataclass(frozen=True)
class IntPolynomial:
    """Integer polynomial stored as ascending coefficients, trailing zeros
    trimmed; the zero polynomial has an empty coefficient tuple."""

    coefficients: tuple[int, ...] = ()

    def __post_init__(self):
        coeffs = tuple(operator.index(c) for c in self.coefficients)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coefficients) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coefficients

    def __call__(self, x: int) -> int:
        value = 0
        for c in reversed(self.coefficients):
            value = value * x + c
        return value

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        terms = []
        for power in range(self.degree, -1, -1):
            c = self.coefficients[power]
            if c == 0:
                continue
            mag = abs(c)
            if power == 0:
                body = str(mag)
            else:
                head = "" if mag == 1 else str(mag)
                body = f"{head}t" if power == 1 else f"{head}t^{power}"
            if not terms:
                terms.append(body if c > 0 else f"-{body}")
            else:
                terms.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(terms)


def charpoly(a: IntMatrix) -> IntPolynomial:
    """Monic characteristic polynomial det(tI - a), exact over the integers.

    Uses the Samuelson-Berkowitz recurrence, which is division-free: the
    polynomial of each leading block a_r grows to that of a_{r+1} by one
    lower-triangular Toeplitz product whose column is
    1, -a[r][r], -R.C, -R.a_r.C, ..., with R and C the new row and column.
    """
    _require_square(a, "charpoly")
    rows = a.entries
    coeffs = [1]  # descending coefficients of det(tI - a_r), starting at r = 0
    for r in range(a.rows):
        block = [row[:r] for row in rows[:r]]
        left = rows[r][:r]
        vec = [row[r] for row in rows[:r]]
        column = [1, -rows[r][r]]
        for k in range(r):
            if k:
                vec = [sum(map(operator.mul, row, vec)) for row in block]
            column.append(-sum(map(operator.mul, left, vec)))
        coeffs = [
            sum(column[i - j] * coeffs[j] for j in range(max(0, i - r - 1), min(i, r) + 1))
            for i in range(r + 2)
        ]
    return IntPolynomial(tuple(reversed(coeffs)))


@dataclass(frozen=True)
class SmithDecomposition:
    """Triple (u, d, v) with u @ a @ v == d, u and v unimodular, and d
    diagonal with nonnegative entries in a divisor chain (zeros last)."""

    u: IntMatrix
    d: IntMatrix
    v: IntMatrix

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.d[i, i] for i in range(min(self.d.rows, self.d.cols)))


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) = x*a + y*b; g >= 0 for a, b >= 0."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def _smith(
    d: list[list[int]],
    row_mates: tuple[list[list[int]], ...],
    col_mates: tuple[list[list[int]], ...],
) -> None:
    """Eliminate d (a list of row lists) in place to Smith normal form.

    Each row operation is applied to d and to every matrix in row_mates,
    each column operation to d and to every matrix in col_mates. The
    operations depend on d alone, so the mates only record them.

    Pivots are chosen as the first (row-major) entry of minimal absolute
    value in the working submatrix, which keeps coefficient growth tame and
    makes the output deterministic. Diagonal signs are normalized to be
    nonnegative by row negations.
    """
    nrows, ncols = len(d), len(d[0])
    row_mats = (d, *row_mates)
    col_mats = (d, *col_mates)

    def swap_rows(i, j):
        if i != j:
            for mat in row_mats:
                mat[i], mat[j] = mat[j], mat[i]

    def swap_cols(i, j):
        if i != j:
            for mat in col_mats:
                for row in mat:
                    row[i], row[j] = row[j], row[i]

    def add_row(dst, src, mult):
        for mat in row_mats:
            mat[dst] = [x + mult * y for x, y in zip(mat[dst], mat[src])]

    def add_col(dst, src, mult):
        for mat in col_mats:
            for row in mat:
                row[dst] += mult * row[src]

    def transform_rows(i, j, p, q, r, s):
        # [row_i; row_j] <- [[p, q], [r, s]] @ [row_i; row_j]; det must be +/-1
        for mat in row_mats:
            ri, rj = mat[i], mat[j]
            mat[i] = [p * x + q * y for x, y in zip(ri, rj)]
            mat[j] = [r * x + s * y for x, y in zip(ri, rj)]

    def find_pivot(t):
        best = None
        where = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                x = d[i][j]
                if x != 0 and (best is None or abs(x) < best):
                    best = abs(x)
                    where = (i, j)
        return where

    limit = min(nrows, ncols)
    t = 0
    while t < limit:
        where = find_pivot(t)
        if where is None:
            break
        while True:
            swap_rows(t, where[0])
            swap_cols(t, where[1])
            pivot = d[t][t]
            for i in range(t + 1, nrows):
                q = d[i][t] // pivot
                if q:
                    add_row(i, t, -q)
            for j in range(t + 1, ncols):
                q = d[t][j] // pivot
                if q:
                    add_col(j, t, -q)
            if all(d[i][t] == 0 for i in range(t + 1, nrows)) and all(
                d[t][j] == 0 for j in range(t + 1, ncols)
            ):
                break
            # a remainder smaller than the pivot appeared; re-pivot on it
            where = find_pivot(t)
        t += 1

    rank = t
    for i in range(rank):
        if d[i][i] < 0:
            for mat in row_mats:
                mat[i] = [-x for x in mat[i]]

    # enforce the divisor chain d_i | d_{i+1} on the nonzero diagonal
    changed = True
    while changed:
        changed = False
        for i in range(rank - 1):
            a_i, b_i = d[i][i], d[i + 1][i + 1]
            if b_i % a_i:
                g, x, y = _xgcd(a_i, b_i)
                add_col(i, i + 1, 1)
                transform_rows(i, i + 1, x, y, -(b_i // g), a_i // g)
                add_col(i + 1, i, -(y * b_i // g))
                changed = True


def smith_normal_form(a: IntMatrix) -> SmithDecomposition:
    """Smith normal form over the integers, with its unimodular transforms."""
    d = a.to_lists()
    u = IntMatrix.identity(a.rows).to_lists()
    v = IntMatrix.identity(a.cols).to_lists()
    _smith(d, (u,), (v,))
    return SmithDecomposition(IntMatrix(u), IntMatrix(d), IntMatrix(v))


def smith_diagonal(a: IntMatrix) -> tuple[int, ...]:
    """The Smith diagonal of a, equal to smith_normal_form(a).diagonal(),
    computed without building the transforms u and v."""
    d = a.to_lists()
    _smith(d, (), ())
    return tuple(d[i][i] for i in range(min(a.rows, a.cols)))


def kernel_basis(a: IntMatrix) -> list[tuple[int, ...]]:
    """Z-basis of the integer kernel {x : a @ x = 0}, read off the Smith
    decomposition: columns of v whose diagonal entry vanishes."""
    dec = smith_normal_form(a)
    diag = dec.diagonal()
    basis = []
    for j in range(a.cols):
        if j >= len(diag) or diag[j] == 0:
            basis.append(dec.v.column(j))
    return basis


def unimodular_inverse(a: IntMatrix) -> IntMatrix:
    """Exact inverse of a matrix with determinant +/-1."""
    _require_square(a, "unimodular_inverse")
    dec = smith_normal_form(a)
    if any(x != 1 for x in dec.diagonal()):
        raise NotUnimodular(f"matrix has determinant {det(a)}, expected +/-1")
    # u @ a @ v == I, so a^{-1} = v @ u
    return matmul(dec.v, dec.u)
