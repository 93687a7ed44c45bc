"""The elimination kernel's outputs are byte-identical on a fixed corpus.

Every output of det, smith_diagonal, unimodular_inverse and the adjugate
solve intmat._adjugate on a seeded corpus of square matrices, n = 1..12,
is written out canonically: dense signed matrices, sparse 0/1 and
nonnegative ones, cyclic-imprimitive patterns, block-triangular ones under
a row and column permutation, I - A^t of the sparse ones, and unimodular
words. A raised exception is written as its type and message. The sha256 of
that text is pinned. A change that makes intmat._echelon or the solves on
it faster must leave it as it is.
"""

import hashlib
import random

from ckbundle import IntMatrix, det, smith_diagonal, unimodular_inverse
from ckbundle.intmat import _adjugate

from conftest import identity_minus_transpose, random_unimodular

DIGEST = "66d85c7bc65350d169b180b6fa802b7942d4f28e265d75000256ef0996857702"


def _outcome(call):
    """The canonical text of call()'s result or of the exception it raises."""
    try:
        result = call()
    except Exception as exc:  # the exception is part of the contract
        return f"raise {type(exc).__name__}: {exc}"
    return repr(result)


def _sparse(rng, n, density, hi):
    return [[rng.randint(1, hi) if rng.random() < density else 0 for _ in range(n)] for _ in range(n)]


def _imprimitive(rng, n, period):
    """Arcs only from class k to class k + 1 (mod period), classes by i % period."""
    return [
        [rng.randint(0, 2) if j % period == (i + 1) % period else 0 for j in range(n)]
        for i in range(n)
    ]


def _permuted_block_triangular(rng, n):
    """An upper block-triangular matrix with rows and columns permuted apart."""
    cut = rng.randint(1, n - 1) if n > 1 else 1
    rows = [
        [rng.randint(-3, 3) if i < cut or j >= cut else 0 for j in range(n)] for i in range(n)
    ]
    rp, cp = list(range(n)), list(range(n))
    rng.shuffle(rp)
    rng.shuffle(cp)
    return [[rows[i][j] for j in cp] for i in rp]


def corpus(rng):
    """Square matrices in a fixed order."""
    for n in range(1, 13):
        for _ in range(3):
            yield [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            yield _sparse(rng, n, 0.2, 1)
            yield _sparse(rng, n, 0.35, 5)
            yield _imprimitive(rng, n, rng.randint(2, 4))
            yield _permuted_block_triangular(rng, n)
            yield random_unimodular(n, 3 * n, rng).to_lists()
        for rows in (_sparse(rng, n, 0.25, 1), _imprimitive(rng, n, 3)):
            yield identity_minus_transpose(IntMatrix(rows)).to_lists()


def _adjugate_columns(a):
    d, columns = _adjugate(a, a.rows)
    return d, list(columns)


def corpus_text():
    """One line per call, in a fixed order."""
    rng = random.Random(2710)
    lines = []
    for rows in corpus(rng):
        a = IntMatrix(rows)
        lines.append(_outcome(lambda: det(a)))
        lines.append(_outcome(lambda: smith_diagonal(a)))
        lines.append(_outcome(lambda: unimodular_inverse(a).entries))
        lines.append(_outcome(lambda: _adjugate_columns(a)))
    return "\n".join(lines) + "\n"


def test_kernel_outputs_are_pinned():
    assert hashlib.sha256(corpus_text().encode()).hexdigest() == DIGEST
