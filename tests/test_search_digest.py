"""The two bounded searches give byte-identical answers on a fixed corpus.

Every output of compare_bundles (both orders), conjugacy_search and
search_se_witness on a seeded corpus of 2x2 and 3x3 inputs (search depths
0..4, entry bounds 0..3, lags 1..3) is written out canonically: status,
witness text, certificate and witness matrices as lists, and for a raised
exception its type and message. The sha256 of that text is pinned. A change
that makes either search faster must leave it as it is; a change that alters
a verdict on purpose records the new digest and says why.
"""

import hashlib
import random

from ckbundle import IntMatrix, compare_bundles, conjugacy_search, matmul, search_se_witness

from conftest import conjugate, random_matrix, random_unimodular

DIGEST = "dccd2d8383c35d81f325852dc09103808151095bea297aee4885ca583b2cee42"


def _outcome(call):
    """The canonical text of call()'s result or of the exception it raises."""
    try:
        result = call()
    except Exception as exc:  # the exception is part of the contract
        return f"raise {type(exc).__name__}: {exc}"
    if result is None:
        return "None"
    if hasattr(result, "outcome"):  # ComparisonVerdict
        cert = None if result.certificate is None else result.certificate.to_lists()
        return f"{result.outcome.value} | {result.witness} | {cert}"
    if hasattr(result, "status"):  # ConjugacyResult
        cert = None if result.conjugator is None else result.conjugator.to_lists()
        return f"{result.status.value} | {cert} | {result.obstruction}"
    return f"{result.r.to_lists()} | {result.s.to_lists()} | {result.lag}"  # SEWitness


def _conjugacy_corpus(rng):
    """(a, b, depth) triples: conjugate pairs within and beyond the depth,
    unrelated words, +-I, and inputs that are rejected."""
    for n in (2, 3):
        for depth in range(5):
            for _ in range(12):
                a = random_unimodular(n, rng.randint(1, 6), rng)
                u = random_unimodular(n, rng.randint(0, depth + 2), rng)
                yield a, conjugate(a, u), depth
            yield random_unimodular(n, 4, rng), random_unimodular(n, 4, rng), depth
            sign = IntMatrix.diagonal([rng.choice((1, -1))] * n)
            yield sign, sign, depth
            yield random_matrix(rng, n, n, -3, 3), random_unimodular(n, 3, rng), depth
    yield IntMatrix.identity(2), IntMatrix.identity(3), 2
    yield IntMatrix.identity(2), IntMatrix.identity(2), -1


def _se_corpus(rng):
    """(a, b, max_lag, entry_bound) quadruples: (RS, SR) pairs, a matrix
    against itself, unrelated and singular partners, a scalar matrix, and
    inputs that are rejected."""
    for n in (2, 3):
        for bound in range(4):
            for max_lag in (1, 2, 3):
                for _ in range(4):
                    r, s = (random_matrix(rng, n, n, 0, 2 if n == 2 else 1) for _ in range(2))
                    a, b = matmul(r, s), matmul(s, r)
                    yield a, b, max_lag, bound
                    yield a, a, max_lag, bound
                    yield a, random_matrix(rng, n, n, 0, 2), max_lag, bound
                    singular = [list(row) for row in a.entries]
                    singular[-1] = list(singular[0])
                    yield a, IntMatrix(singular), max_lag, bound
                if n == 2 or bound in (0, 3):  # 2I_3: 4^9 candidates at E = 3, over the cap
                    yield IntMatrix.diagonal([2] * n), IntMatrix.diagonal([2] * n), max_lag, bound
    yield IntMatrix([[1, -1], [0, 1]]), IntMatrix.identity(2), 2, 2
    yield IntMatrix([[1, 1]]), IntMatrix.identity(2), 2, 2
    yield IntMatrix.identity(2), IntMatrix.identity(2), 0, 2
    yield IntMatrix.identity(2), IntMatrix.identity(2), 2, -1


def corpus_text():
    """One line per call, in a fixed order."""
    rng = random.Random(2308)
    lines = []
    for a, b, depth in _conjugacy_corpus(rng):
        lines.append(_outcome(lambda: compare_bundles(a, b, search_depth=depth)))
        lines.append(_outcome(lambda: compare_bundles(b, a, search_depth=depth)))
        lines.append(_outcome(lambda: conjugacy_search(a, b, search_depth=depth)))
    for a, b, max_lag, bound in _se_corpus(rng):
        lines.append(
            _outcome(lambda: search_se_witness(a, b, max_lag=max_lag, entry_bound=bound))
        )
    return "\n".join(lines) + "\n"


def test_search_outputs_are_pinned():
    assert hashlib.sha256(corpus_text().encode()).hexdigest() == DIGEST
