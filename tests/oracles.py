"""Independent reference computations the tests check the library against.

Everything here is deliberately naive (cofactor expansions, brute-force
enumeration, textbook recurrences the library has replaced) and shares no
code with the library paths it verifies.
"""

from functools import lru_cache
from itertools import combinations, product
from math import gcd, lcm


def det_cofactor(rows):
    """Determinant by first-row cofactor expansion; exponential but exact."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j, x in enumerate(rows[0]):
        if x == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * x * det_cofactor(minor)
    return total


def rank_by_minors(rows):
    """Rank = size of the largest square submatrix with nonzero determinant."""
    m, n = len(rows), len(rows[0])
    for size in range(min(m, n), 0, -1):
        for rsel in combinations(range(m), size):
            for csel in combinations(range(n), size):
                sub = [[rows[i][j] for j in csel] for i in rsel]
                if det_cofactor(sub) != 0:
                    return size
    return 0


def matmul_lists(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def matpow_naive(rows, k):
    """k-th power by repeated multiplication."""
    n = len(rows)
    result = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(k):
        result = matmul_lists(result, rows)
    return result


def snf_2x2_oracle(rows):
    """Smith diagonal of a 2x2 matrix: d1 = gcd of the entries and
    d1 * d2 = |det|, with rank read off the determinant/zeroness."""
    entries = [abs(x) for r in rows for x in r]
    g = 0
    for x in entries:
        g = gcd(g, x)
    if g == 0:
        return (0, 0)
    d = abs(det_cofactor(rows))
    return (g, d // g) if d else (g, 0)


def brute_kernel_vectors(rows, box=2):
    """All integer vectors v in [-box, box]^n with rows @ v = 0."""
    n = len(rows[0])
    return [
        v
        for v in product(range(-box, box + 1), repeat=n)
        if all(sum(r[j] * v[j] for j in range(n)) == 0 for r in rows)
    ]


def abelian_order_multiset(factors):
    """Sorted element orders of Z_f1 x ... x Z_fk; a complete isomorphism
    invariant for finite abelian groups."""
    orders = []
    for tup in product(*(range(f) for f in factors)):
        o = 1
        for x, f in zip(tup, factors):
            o = lcm(o, f // gcd(x, f))
        orders.append(o)
    return sorted(orders)


def primitive_by_powers(rows):
    """Whether some power of a nonnegative square matrix is entrywise
    positive, by boolean powers up to Wielandt's exponent (n - 1)^2 + 1, past
    which a primitive matrix is always positive."""
    n = len(rows)
    pattern = [[x > 0 for x in row] for row in rows]
    power = pattern
    for _ in range((n - 1) ** 2 + 1):
        if all(all(row) for row in power):
            return True
        power = [
            [any(power[i][k] and pattern[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
    return False


def charpoly_faddeev(rows):
    """Ascending coefficients of det(tI - A) by the Faddeev-LeVerrier
    recurrence M_k = A M_{k-1} + c_{n-k+1} I, c_{n-k} = -tr(A M_k) / k; the
    division by k is exact over the integers."""
    n = len(rows)
    coeffs = [0] * n + [1]
    m = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        for i in range(n):
            m[i][i] += coeffs[n - k + 1]
        m = matmul_lists(rows, m)
        coeffs[n - k] = -sum(m[i][i] for i in range(n)) // k
    return tuple(coeffs)


def bounded_matrices_by_sum(rows, cols, bound):
    """All rows x cols matrices with entries in [0, bound], generated (not
    sorted) by total entry sum, then row-major lexicographic order."""
    cells = rows * cols

    def with_sum(prefix, remaining, total):
        if remaining == 0:
            if total == 0:
                yield prefix
            return
        for x in range(max(0, total - bound * (remaining - 1)), min(bound, total) + 1):
            yield from with_sum(prefix + (x,), remaining - 1, total - x)

    for total in range(bound * cells + 1):
        for flat in with_sum((), cells, total):
            yield [list(flat[i * cols : (i + 1) * cols]) for i in range(rows)]


def se_witness_by_enumeration(a, b, max_lag, bound):
    """First (r, s, lag) with a r = r b, b s = s a, r s = a^lag, s r = b^lag,
    r and s in the box [0, bound]: lag ascending, then r, then s, each in
    bounded_matrices_by_sum order; None if there is none."""

    def intertwiners(x, y):
        return [
            r
            for r in bounded_matrices_by_sum(len(x), len(y), bound)
            if matmul_lists(x, r) == matmul_lists(r, y)
        ]

    rs, ss = intertwiners(a, b), intertwiners(b, a)
    for lag in range(1, max_lag + 1):
        a_pow, b_pow = matpow_naive(a, lag), matpow_naive(b, lag)
        for r in rs:
            for s in ss:
                if matmul_lists(r, s) == a_pow and matmul_lists(s, r) == b_pow:
                    return r, s, lag
    return None


@lru_cache(maxsize=None)
def words_by_bfs(n, depth):
    """Every product of at most depth elementary generators of GL_n(Z), as
    tuples of rows, breadth-first from the identity: each word of the last
    level times each generator on the right, a product kept only where it
    first appears. The generators are E_ij(+1), E_ij(-1) by row-major
    (i, j), then diag(-1, 1, ..., 1)."""
    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    gens = [
        tuple(tuple(sign if (r, c) == (i, j) else int(r == c) for c in range(n)) for r in range(n))
        for i in range(n)
        for j in range(n)
        if i != j
        for sign in (1, -1)
    ]
    gens.append(tuple(tuple(-1 if r == c == 0 else int(r == c) for c in range(n)) for r in range(n)))
    words, seen, level = [ident], {ident}, [ident]
    for _ in range(depth):
        next_level = []
        for w in level:
            for g in gens:
                m = tuple(map(tuple, matmul_lists(w, g)))
                if m not in seen:
                    seen.add(m)
                    next_level.append(m)
        words += next_level
        level = next_level
    return tuple(words)


def conjugator_by_words(a, b, depth):
    """First word u of words_by_bfs(len(a), depth) with u a = b u, as a list
    of rows, or None if there is none."""
    for u in words_by_bfs(len(a), depth):
        if matmul_lists(u, a) == matmul_lists(b, u):
            return [list(row) for row in u]
    return None
