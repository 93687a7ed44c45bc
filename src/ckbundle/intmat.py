"""Exact dense integer matrices: arithmetic, determinants, characteristic
polynomials and Smith normal forms.

Entries are plain Python ints, so every operation is exact at any magnitude;
nothing here touches floating point or rationals.
"""

from __future__ import annotations

import math
import operator
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


class _Record:
    """Base of the immutable value records: a subclass names its fields in
    __slots__, in constructor order, and its __init__ stores each with
    object.__setattr__. Equality (same class only), hashing and repr go by
    the field tuple, as for a frozen dataclass; creating a subclass needs
    no generated code, so importing the library stays cheap."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls.__match_args__ = names = cls.__slots__
        # the field tuple; attrgetter of one name returns the bare value
        get = operator.attrgetter(*names)
        cls._fields = property(get if len(names) > 1 else lambda self: (get(self),))

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields == other._fields

    def __hash__(self) -> int:
        return hash(self._fields)

    def __repr__(self) -> str:
        pairs = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({pairs})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # pickle and copy rebuild through __init__: the default protocol
        # would restore the slots with the __setattr__ that refuses them
        return type(self), self._fields


class IntMatrix:
    """Immutable dense matrix over the integers (row-major)."""

    __slots__ = ("_data",)

    def __init__(self, rows: Iterable[Iterable[int]]):
        data = tuple(tuple(map(operator.index, row)) for row in rows)
        if not data or not data[0]:
            raise ValueError("matrix must have at least one row and one column")
        width = len(data[0])
        if any(len(row) != width for row in data[1:]):
            raise ValueError("all rows must have the same length")
        self._data = data

    @classmethod
    def _wrap(cls, data: tuple[tuple[int, ...], ...]) -> "IntMatrix":
        """The matrix whose rows are `data`, taken as is: the caller
        guarantees a nonempty tuple of equal-length, nonempty tuples of
        ints, so nothing is checked or copied."""
        m = object.__new__(cls)
        m._data = data
        return m

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
        return all(min(row) >= 0 for row in self._data)

    @property
    def is_zero(self) -> bool:
        return all(x == 0 for row in self._data for x in row)

    @property
    def is_zero_one(self) -> bool:
        return all(x in (0, 1) for row in self._data for x in row)

    def __neg__(self) -> "IntMatrix":
        return IntMatrix._wrap(tuple([tuple([-x for x in row]) for row in self._data]))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        return matmul(self, other)


def _require_square(a: IntMatrix, what: str) -> None:
    if not a.is_square:
        raise ValueError(f"{what} requires a square matrix, got {a.shape}")


def _require_unimodular(d: int, what: str) -> None:
    """Raise NotUnimodular unless d, the determinant of what, is +/-1."""
    if d not in (1, -1):
        raise NotUnimodular(f"{what} has determinant {d}, expected +/-1")


def matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Exact matrix product."""
    if a.cols != b.rows:
        raise ValueError(f"cannot multiply {a.shape} by {b.shape}")
    b_cols = tuple(zip(*b.entries))
    return IntMatrix._wrap(
        tuple([tuple([sum(map(operator.mul, row, col)) for col in b_cols]) for row in a.entries])
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
    return sum(map(operator.getitem, a.entries, range(a.rows)))


def _echelon(m: list[list[int]]) -> tuple[list[int], int]:
    """Fraction-free (Bareiss) row echelon form of m (row lists) in place;
    returns the pivot columns and the row permutation's sign. Columns without
    a pivot are skipped, so m may be rectangular and of any rank; rows past
    the last pivot end up zero. Entries stay minors, so divisions are exact.

    Rows are scaled lazily. With p_s the pivot of step s (p_0 = 1), step s
    takes row i to M(s)_ij = (M(s-1)_ij p_s - M(s-1)_is M(s-1)_sj) / p_(s-1);
    where M(s-1)_is = 0 that only scales the row by p_s / p_(s-1), so such a
    row is not touched. divisors[i] is the pivot p_a of the step a that last
    reduced row i (1 before any), and the row holds M(a)_i: the true row is
    M(s-1)_i = M(a)_i p_(s-1) / p_a, zero exactly where the stored one is, so
    the pivot search reads the same columns. A row with x = M(a)_is != 0 is
    reduced from what it holds, M(s)_ij = (M(a)_ij p_s - x M(s-1)_sj) / p_a,
    again a minor, and the pivot row is first brought up to date (times
    p_(s-1) / p_a). Every pivot row so ends as the textbook loop leaves it,
    and so do the pivots and the sign; rows past the rank are zero."""
    pivots, sign, prev = [], 1, 1
    n, width = len(m), len(m[0])
    divisors = [1] * n
    k = 0  # the number of pivots so far, and the next pivot row
    for c in range(width):
        for i in range(k, n):
            if m[i][c]:
                break
        else:
            continue
        if i != k:
            m[k], m[i] = m[i], m[k]
            divisors[k], divisors[i] = divisors[i], divisors[k]
            sign = -sign
        top = m[k]
        if (d := divisors[k]) != prev:
            top[c:] = [y * prev // d for y in top[c:]]  # zero left of c
        pivot = top[c]
        k += 1
        columns = range(c + 1, width)
        for i in range(k, n):
            row = m[i]
            if x := row[c]:
                d = divisors[i]
                for j in columns:
                    row[j] = (row[j] * pivot - x * top[j]) // d
                row[c] = 0
                divisors[i] = pivot
        prev = pivot
        pivots.append(c)
    return pivots, sign


def _back_substitute(m: list[list[int]], d: int, c: int) -> list[int]:
    """y = d·x for the x with U x = (column c of m), bottom-up:
    y_i = (d c_i - sum over j > i of U_ij y_j) // U_ii. For _adjugate's m, U
    and d = det a, x = a^-1 e, so y = adj(a) e and every division is exact."""
    n = len(m)
    y = [0] * n
    for i in range(n - 1, -1, -1):
        u = m[i]
        y[i] = (d * u[c] - sum(map(operator.mul, u[i + 1 : n], y[i + 1 :]))) // u[i]
    return y


def _cofactors(rows: tuple[tuple[int, ...], ...]) -> tuple[int, list[list[int]]]:
    """(det, cofactors) of a square matrix of size n <= 3 by explicit
    expansion; row j of the cofactor matrix is column j of the adjugate,
    adj(a) e_j."""
    if len(rows) == 1:
        return rows[0][0], [[1]]
    if len(rows) == 2:
        (a, b), (c, d) = rows
        return a * d - b * c, [[d, -c], [-b, a]]
    (a, b, c), (d, e, f), (g, h, i) = rows
    top = [e * i - f * h, f * g - d * i, d * h - e * g]
    return a * top[0] + b * top[1] + c * top[2], [
        top,
        [c * h - b * i, a * i - c * g, b * g - a * h],
        [b * f - c * e, c * d - a * f, a * e - b * d],
    ]


def _adjugate(a: IntMatrix, k: int) -> tuple[int, Iterator[list[int]]]:
    """(d, columns): d = det a, 0 exactly when a is singular, and columns
    lazily yields adj(a) e for e = e_(n-1), ..., e_(n-k), none when d = 0.
    Up to 3x3 both come from the explicit cofactors (_cofactors), with no
    elimination; 3 is the largest size whose determinantal divisors are all
    among D_1, D_(n-1) and D_n (see smith_diagonal). Larger inputs run one
    Bareiss echelon of [a | e_(n-1) ... e_(n-k)], which gives d as its last
    pivot times its row sign, then one _back_substitute per column."""
    n = a.rows
    if n <= 3:
        d, c = _cofactors(a.entries)
        return d, (c[n - 1 - j] for j in range(k) if d)
    zeros = [0] * k
    m = [[*row, *zeros] for row in a.entries]
    for j in range(k):
        m[n - 1 - j][n + j] = 1
    _, sign = _echelon(m)
    d = sign * m[-1][n - 1]
    return d, (_back_substitute(m, d, c) for c in range(n, n + k) if d)


def _adjugate_rows(a: IntMatrix) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(det a, the rows of adj(a))."""
    d, columns = _adjugate(a, a.rows)
    return d, _as_rows(columns)


def _as_rows(columns: Iterator[list[int]]) -> tuple[tuple[int, ...], ...]:
    """The rows of adj(a) from _adjugate(a, a.rows)'s columns, which come last
    first; each column is built only when read here."""
    return tuple(zip(*[*columns][::-1]))


def det(a: IntMatrix) -> int:
    """Exact determinant, from _adjugate with no columns: explicit cofactor
    expansion up to 3x3, fraction-free (Bareiss) elimination above."""
    _require_square(a, "det")
    return _adjugate(a, 0)[0]


class IntPolynomial(_Record):
    """Integer polynomial stored as ascending coefficients, trailing zeros
    trimmed; the zero polynomial has an empty coefficient tuple."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: tuple[int, ...] = ()):
        coeffs = tuple(operator.index(c) for c in coefficients)
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


# charpoly's cut-off: Berkowitz below this size, the modular Hessenberg route
# from it up. On the benchmark's dense unimodular L·U inputs (CPython 3.11,
# shared 2-vCPU host), Berkowitz time / modular time per call read 0.7x at
# n = 8, 0.87-0.91x at 12, 0.91-1.02x at 13, 1.06-1.18x at 14, 1.5x at 20
# and 2.4-2.7x at 32.
_HESSENBERG_FROM = 14


def charpoly(a: IntMatrix) -> IntPolynomial:
    """Monic characteristic polynomial det(tI - a), exact over the integers.

    Below _HESSENBERG_FROM rows it runs _berkowitz, which is division-free.
    From there up it bounds the coefficients and computes them modulo an odd
    m > 2B, which fixes them. The coefficient of t^(n-k) is, up to sign, the
    sum of the k x k principal minors, and by Hadamard each minor is at most
    the product of its rows' norms, so |c_k| <= B = max_k e_k(r_1, ..., r_n),
    with r_i = isqrt(|row_i|^2) + 1 and e_k the elementary symmetric sums.
    _hessenberg_charpoly runs with m = 2B + 1, and again with m + 2 each time
    it finds no unit to pivot on; a prime m always has one, so this ends.
    """
    _require_square(a, "charpoly")
    rows = a.entries
    if len(rows) < _HESSENBERG_FROM:
        return IntPolynomial(_berkowitz(rows))
    e = [1]  # e_0, e_1, ... of the r_i so far
    for row in rows:
        r = math.isqrt(sum(x * x for x in row)) + 1
        e = [*map(operator.add, e + [0], [0] + [r * x for x in e])]
    m = 2 * max(e) + 1
    while (coeffs := _hessenberg_charpoly(rows, m)) is None:
        m += 2
    return IntPolynomial(coeffs)


def _berkowitz(rows: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """Ascending coefficients of det(tI - a) by the Samuelson-Berkowitz
    recurrence, which is division-free: the polynomial of each leading block
    a_r grows to that of a_{r+1} by one lower-triangular Toeplitz product
    whose column is 1, -a[r][r], -R.C, -R.a_r.C, ..., with R and C the new
    row and column."""
    coeffs = [1]  # descending coefficients of det(tI - a_r), starting at r = 0
    for r in range(len(rows)):
        block = [row[:r] for row in rows[:r]]
        left = rows[r][:r]
        vec = [row[r] for row in rows[:r]]
        column = [1, -rows[r][r]]
        for k in range(r):
            if k:
                vec = [sum(map(operator.mul, row, vec)) for row in block]
            column.append(-sum(map(operator.mul, left, vec)))
        coeffs = [sum(map(operator.mul, column[i::-1], coeffs)) for i in range(r + 2)]
    return tuple(reversed(coeffs))


def _hessenberg_charpoly(rows: tuple[tuple[int, ...], ...], m: int) -> tuple[int, ...] | None:
    """Ascending coefficients of det(tI - a) modulo an odd m, lifted to
    (-m/2, m/2); None when some column has nonzero entries below its
    subdiagonal but no unit mod m to pivot on.

    Cohen, GTM 138, 2.2.4: a similarity mod m makes h upper Hessenberg. Step
    k swaps a unit of column k up to row k+1 (rows and columns alike),
    subtracts f_i times row k+1 from each row i > k+1, which clears column k
    there, and undoes that on the right by adding sum_i f_i column i to
    column k+1, one dot product per row. Entries left below the subdiagonal
    are never read again. A row is reduced mod m when it becomes the pivot
    row, and all of h at the end. Then, with p_k the polynomial of the
    leading k x k block, p_(k+1) = t p_k - sum over i <= k of
    h_ik (h_(i+1,i) ... h_(k,k-1)) p_i.
    """
    n = len(rows)
    h = [[x % m for x in row] for row in rows]
    for k in range(n - 2):
        below = [h[i][k] % m for i in range(k + 1, n)]  # column k from row k+1 down
        if not any(below[1:]):
            continue
        p = next((i for i, x in enumerate(below) if math.gcd(x, m) == 1), None)
        if p is None:
            return None
        if p:
            below[0], below[p] = below[p], below[0]
            p += k + 1
            h[k + 1], h[p] = h[p], h[k + 1]
            for row in h:
                row[k + 1], row[p] = row[p], row[k + 1]
        top = h[k + 1][k + 1 :] = [y % m for y in h[k + 1][k + 1 :]]
        inv = pow(below[0], -1, m)
        f = [x * inv % m for x in below[1:]]
        for i, u in enumerate(f, k + 2):
            if u:
                row = h[i]
                row[k + 1 :] = [x - u * y for x, y in zip(row[k + 1 :], top)]
        for row in h:
            row[k + 1] = (row[k + 1] + sum(map(operator.mul, row[k + 2 :], f))) % m
    h = [[x % m for x in row] for row in h]
    q = [[1]]  # q[j] lists coefficient j of p_j, p_(j+1), ..., p_k
    for k in range(n):
        c = [h[k][k]]  # c_k, c_(k-1), ..., c_0 with c_i = h_ik h_(i+1,i) ... h_(k,k-1)
        s = 1
        for i in range(k - 1, -1, -1):
            s = s * h[i + 1][i] % m
            c.append(h[i][k] * s)
        c.reverse()
        shifted = [0, *(column[-1] for column in q)]  # t p_k
        for j, column in enumerate(q):
            column.append((shifted[j] - sum(map(operator.mul, c[j:], column))) % m)
        q.append([1])
    return tuple(x - m if 2 * x > m else x for x in (column[-1] for column in q))


class SmithDecomposition(_Record):
    """Triple (u, d, v) with u @ a @ v == d, u and v unimodular, and d
    diagonal with nonnegative entries in a divisor chain (zeros last)."""

    __slots__ = ("u", "d", "v")

    def __init__(self, u: IntMatrix, d: IntMatrix, v: IntMatrix):
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "v", v)

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


# smith_diagonal's certificate: how many unit vectors e_(n-1), e_(n-2), ... it
# solves a y = det(a) e for, and the largest trial divisor it factors the gcd
# of those adjugate columns with
_CYCLIC_PROBES = 4
_TRIAL_DIVISION_BOUND = 1024


def _smith(m: list[list[int]], nrows: int, ncols: int) -> None:
    """Eliminate the leading nrows x ncols block of m (a list of row lists)
    in place to Smith normal form.

    Row operations act on whole rows 0..nrows-1 and column operations on
    whole columns 0..ncols-1, while pivots are read from the block alone, so
    whatever a caller stacks beside the block records the operations: an
    identity to its right collects u, an identity below it collects v.

    Pivots are chosen as the first (row-major) entry of minimal absolute
    value in the working submatrix, which keeps coefficient growth tame and
    makes the output deterministic; the scan stops at the first entry of
    absolute value 1, which is that entry. Diagonal signs are normalized to
    be nonnegative by row negations.
    """

    t = 0
    while t < min(nrows, ncols):
        # each iteration is one pivot step
        best = 0
        for i in range(t, nrows):
            row = m[i]
            for j in range(t, ncols):
                x = abs(row[j])
                if x and (not best or x < best):
                    best, pi, pj = x, i, j
                    if x == 1:
                        break
            if best == 1:
                break
        if not best:
            break
        m[t], m[pi] = m[pi], m[t]
        if pj != t:
            for row in m:
                row[t], row[pj] = row[pj], row[t]
        top = m[t]
        pivot = top[t]
        # block rows >= t are zero left of column t, so only row[t:] moves
        tail = top[t:]
        for i in range(t + 1, nrows):
            row = m[i]
            q = row[t] // pivot
            if q:
                row[t:] = [x - q * y for x, y in zip(row[t:], tail)]
        quotients = [(j, q) for j in range(t + 1, ncols) if (q := top[j] // pivot)]
        for row in m:
            c = row[t]
            if c:
                for j, q in quotients:
                    row[j] -= q * c
        # advance once column t and row t are clear; otherwise a remainder
        # smaller than the pivot is left and pivots again at the same t
        if not any(top[t + 1 : ncols]) and not any(m[i][t] for i in range(t + 1, nrows)):
            t += 1

    rank = t
    for i in range(rank):
        if m[i][i] < 0:
            m[i] = [-x for x in m[i]]

    # enforce the divisor chain d_i | d_{i+1} on the nonzero diagonal
    changed = True
    while changed:
        changed = False
        for i in range(rank - 1):
            a_i, b_i = m[i][i], m[i + 1][i + 1]
            if b_i % a_i:
                g, x, y = _xgcd(a_i, b_i)
                for row in m:
                    row[i] += row[i + 1]
                # [row_i; row_i+1] <- [[x, y], [-b_i/g, a_i/g]] @ [row_i; row_i+1]
                r, s, top, low = -(b_i // g), a_i // g, m[i], m[i + 1]
                m[i] = [x * p + y * q for p, q in zip(top, low)]
                m[i + 1] = [r * p + s * q for p, q in zip(top, low)]
                c = -(y * b_i // g)
                for row in m:
                    row[i + 1] += c * row[i]
                changed = True


def smith_normal_form(a: IntMatrix) -> SmithDecomposition:
    """Smith normal form over the integers, with its unimodular transforms:
    u collects in I_n stacked to the right of a, v in I_k stacked below it."""
    n, k = a.shape
    m = [row + e for row, e in zip(a.to_lists(), IntMatrix.identity(n).to_lists())]
    m += IntMatrix.identity(k).to_lists()
    _smith(m, n, k)
    return SmithDecomposition(
        IntMatrix(row[k:] for row in m[:n]),
        IntMatrix(row[:k] for row in m[:n]),
        IntMatrix(m[n:]),
    )


def _prime_powers(g: int) -> list[tuple[int, int]] | None:
    """[(p, e), ...] with g = prod p^e over primes p, by trial division; None
    when g keeps a cofactor that trial division up to the bound cannot split."""
    factors, p = [], 2
    while p * p <= g:
        if p > _TRIAL_DIVISION_BOUND:
            return None
        e = 0
        while g % p == 0:
            g //= p
            e += 1
        if e:
            factors.append((p, e))
        p += 1
    return factors + [(g, 1)] if g > 1 else factors


def _local_valuations(rows: tuple[tuple[int, ...], ...], p: int, s: int) -> list[int]:
    """The p-adic valuations of the Smith diagonal of a square matrix, in
    ascending order, each capped at s: elimination over Z/p^s, level v by
    level, always pivoting on an entry of valuation exactly v. Every other
    entry is divisible by p^v, so the pivot clears its column by row
    operations alone, and its row and column leave the working matrix."""
    q = p**s
    m = [[x % q for x in row] for row in rows]
    vals = []
    for v in range(s):
        pv, r = p**v, p ** (s - v)
        while hit := next(
            ((i, j) for i, row in enumerate(m) for j, x in enumerate(row) if x // pv % p), None
        ):
            i, c = hit
            top = m.pop(i)
            inv = pow(top.pop(c) // pv, -1, r)
            for k, row in enumerate(m):
                if f := row.pop(c) // pv * inv % r:
                    m[k] = [(x - f * y) % q for x, y in zip(row, top)]
            vals.append(v)
    return vals + [s] * len(m)


def _certified_diagonal(a: IntMatrix) -> tuple[int, ...] | None:
    """The Smith diagonal of a square nonsingular a, n >= 4, from its
    determinant, _CYCLIC_PROBES adjugate columns and local eliminations (see
    smith_diagonal); None when a is singular or the certificate does not go
    through. Smaller inputs never get here: smith_diagonal reads their
    determinantal divisors directly."""
    n = a.rows
    d, probes = _adjugate(a, _CYCLIC_PROBES)
    if not d:
        return None
    g = d
    for j, y in enumerate(probes):
        target = [0] * n
        target[n - 1 - j] = d
        if [sum(map(operator.mul, row, y)) for row in a.entries] != target:
            return None
        g = math.gcd(g, *y)
        if g == 1:
            break
    factors = _prime_powers(g)
    if factors is None:
        return None
    diag = [1] * (n - 1)
    for p, e in factors:
        for i, v in enumerate(_local_valuations(a.entries, p, e)[: n - 1]):
            diag[i] *= p**v
    return (*diag, abs(d) // math.prod(diag))


def smith_diagonal(a: IntMatrix) -> tuple[int, ...]:
    """The Smith diagonal of a, equal to smith_normal_form(a).diagonal(),
    computed without building the transforms u and v.

    A square a of size n <= 3 reads it off its determinantal divisors, D_k
    the gcd of the k-minors (D_0 = 1): d_k = D_k / D_(k-1), and once some
    D_k = 0, d_k and every later entry are 0. Up to 3x3, D_1 (the entries),
    D_(n-1) (the cofactors, _cofactors) and D_n = |det a| are all of them,
    which is why the cut sits at 3; no certificate and no elimination run.

    A larger square a is first tried by a certificate. The adjugate solve
    _adjugate(a, _CYCLIC_PROBES) gives D = det a and, if D != 0, the probes
    y = adj(a) e for e = e_(n-1), ..., e_(n-4); the check
    a @ y == D e is made before y is used. Each entry of y is an
    (n-1)-minor of a, so d_1 ... d_(n-1), the gcd of all (n-1)-minors,
    divides every entry of y and divides D = +-d_1 ... d_n. The probes stop
    once g = gcd(D, entries of the probes so far) is 1: then
    d_1 = ... = d_(n-1) = 1 and the diagonal is (1, ..., 1, |det a|), a
    cyclic cokernel.

    Otherwise only the primes p of g divide d_1 ... d_(n-1), each to at most
    e = v_p(g). An elimination over Z/p^e gives the valuations of the
    diagonal capped at e, so v_p(d_1) <= ... <= v_p(d_(n-1)), which are at
    most e, exactly; these fix d_1, ..., d_(n-1), and
    d_n = |det a| / (d_1 ... d_(n-1)). Singular and
    non-square inputs, and those whose g has a prime factor that trial
    division up to _TRIAL_DIVISION_BOUND cannot reach, run the Smith
    elimination `_smith`.
    """
    if a.is_square:
        if (n := a.rows) <= 3:
            d, c = _cofactors(a.entries)
            gcds = (1, math.gcd(*map(math.gcd, *a.entries)), math.gcd(*map(math.gcd, *c)))
            divisors = gcds[:n] + (abs(d),)  # D_0, ..., D_n
            return tuple(y // x if x else 0 for x, y in zip(divisors, divisors[1:]))
        if diag := _certified_diagonal(a):
            return diag
    d = a.to_lists()
    _smith(d, *a.shape)
    return tuple(d[i][i] for i in range(min(a.shape)))


def kernel_basis(a: IntMatrix) -> list[tuple[int, ...]]:
    """Z-basis of the integer kernel {x : a @ x = 0}: the columns of v
    (stacked below a during elimination) whose diagonal entry vanishes."""
    n, k = a.shape
    m = a.to_lists() + IntMatrix.identity(k).to_lists()
    _smith(m, n, k)
    return [tuple(row[j] for row in m[n:]) for j in range(k) if j >= n or m[j][j] == 0]


def unimodular_inverse(a: IntMatrix) -> IntMatrix:
    """Exact inverse of a matrix with determinant d = +/-1: d·adj(a)."""
    _require_square(a, "unimodular_inverse")
    d, columns = _adjugate(a, a.rows)
    _require_unimodular(d, "matrix")  # before any column is built
    return IntMatrix._wrap(tuple(tuple(d * x for x in row) for row in _as_rows(columns)))
