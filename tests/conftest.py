import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import ckbundle
from ckbundle import IntMatrix, unimodular_inverse

from oracles import elementary_generators

A2 = IntMatrix([[5, 2], [2, 1]])
A3 = IntMatrix([[5, 1], [4, 1]])

FIB = IntMatrix([[1, 1], [1, 0]])


def a1(n: int) -> IntMatrix:
    return IntMatrix([[1, n], [0, 1]])


def random_matrix(rng: random.Random, rows: int, cols: int, lo: int = -20, hi: int = 20) -> IntMatrix:
    return IntMatrix([[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)])


def random_nonnegative(rng: random.Random, n: int, hi: int = 5) -> IntMatrix:
    return IntMatrix([[rng.randint(0, hi) for _ in range(n)] for _ in range(n)])


def random_unimodular(n: int, word_length: int, rng: random.Random) -> IntMatrix:
    """Random element of GL_n(Z) as a product of word_length elementary
    generators; determinant is exactly +/-1 by construction."""
    gens = [IntMatrix(g) for g in elementary_generators(n)]
    m = IntMatrix.identity(n)
    for _ in range(word_length):
        m = m @ rng.choice(gens)
    return m


def conjugate(a: IntMatrix, u: IntMatrix) -> IntMatrix:
    """u @ a @ u^{-1} for unimodular u."""
    return u @ a @ unimodular_inverse(u)


def identity_minus_transpose(a: IntMatrix) -> IntMatrix:
    """I - a^t, the matrix whose cokernel is K0(a)."""
    return IntMatrix(
        [int(i == j) - x for j, x in enumerate(col)] for i, col in enumerate(zip(*a.entries))
    )


def cli_in_subprocess(tmp_path, text, *argv):
    """Run the CLI in a subprocess from tmp_path, where argv names a file
    m.txt holding text, so that a hang fails the test after 30 s instead of
    stalling the suite."""
    (tmp_path / "m.txt").write_text(text)
    env = dict(os.environ, PYTHONPATH=str(Path(ckbundle.__file__).parent.parent))
    return subprocess.run(
        [sys.executable, "-m", "ckbundle.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
        timeout=30,
    )


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)
