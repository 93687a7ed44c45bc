import random

import pytest

from ckbundle import (
    FgAbelianGroup,
    IntMatrix,
    cokernel,
    det,
    direct_sum,
    format_group,
    matmul,
)

from conftest import random_matrix, random_unimodular
from oracles import abelian_order_multiset


def test_canonical_form_validation():
    with pytest.raises(ValueError):
        FgAbelianGroup(-1)
    with pytest.raises(ValueError):
        FgAbelianGroup(0, (1,))
    with pytest.raises(ValueError):
        FgAbelianGroup(0, (0,))
    with pytest.raises(ValueError):
        FgAbelianGroup(0, (4, 2))
    g = FgAbelianGroup(2, (2, 6))
    assert g.free_rank == 2 and g.invariant_factors == (2, 6)


def test_cyclic_conventions():
    assert FgAbelianGroup.cyclic(0) == FgAbelianGroup.free(1)
    assert FgAbelianGroup.cyclic(1) == FgAbelianGroup.trivial()
    assert FgAbelianGroup.cyclic(6) == FgAbelianGroup(0, (6,))


def test_cokernel_examples():
    assert cokernel(IntMatrix.zero(2, 2)) == FgAbelianGroup.free(2)
    # torsion values match the known K0 computations
    assert cokernel(IntMatrix([[-4, -2], [-2, 0]])) == FgAbelianGroup(0, (2, 2))
    assert cokernel(IntMatrix([[-4, -4], [-1, 0]])) == FgAbelianGroup(0, (4,))


def test_is_isomorphic():
    assert FgAbelianGroup(0, (2, 2)) != FgAbelianGroup(0, (4,))
    assert FgAbelianGroup.free(1) == FgAbelianGroup.free(1)
    assert FgAbelianGroup(0, (2, 6)) == FgAbelianGroup(0, (2, 6))


def test_direct_sum_examples():
    z = FgAbelianGroup.free(1)
    assert direct_sum(z, FgAbelianGroup(1, (3,))) == FgAbelianGroup(2, (3,))
    assert direct_sum(FgAbelianGroup(0, (2,)), FgAbelianGroup(0, (3,))) == FgAbelianGroup(0, (6,))
    g = FgAbelianGroup(1, (2, 4))
    assert direct_sum(FgAbelianGroup.trivial(), g) == g


def test_direct_sum_matches_order_multiset_oracle():
    # the element-order multiset determines a finite abelian group
    rng = random.Random(21)
    for _ in range(30):
        f1 = tuple(rng.choice([2, 3, 4, 5, 6]) for _ in range(rng.randint(0, 2)))
        f2 = tuple(rng.choice([2, 3, 4, 5, 6]) for _ in range(rng.randint(0, 2)))
        g = FgAbelianGroup(0, _chain(f1))
        h = FgAbelianGroup(0, _chain(f2))
        total = direct_sum(g, h)
        assert total.is_finite
        assert abelian_order_multiset(total.invariant_factors) == abelian_order_multiset(
            g.invariant_factors + h.invariant_factors
        )


def _chain(raw):
    """Turn an arbitrary factor tuple into a valid divisor chain via the
    diagonal-matrix cokernel (inputs to the oracle test must construct)."""
    if not raw:
        return ()
    return cokernel(IntMatrix.diagonal(raw)).invariant_factors


def test_direct_sum_commutative_associative():
    rng = random.Random(22)
    for _ in range(25):
        groups = [
            cokernel(random_matrix(rng, rng.randint(1, 3), rng.randint(1, 3), -6, 6))
            for _ in range(3)
        ]
        g, h, k = groups
        assert direct_sum(g, h) == direct_sum(h, g)
        assert direct_sum(direct_sum(g, h), k) == direct_sum(g, direct_sum(h, k))


def test_cokernel_transpose_invariance():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(1, 5)
        a = random_matrix(rng, n, n, -10, 10)
        assert cokernel(a) == cokernel(IntMatrix(zip(*a.entries)))


def test_cokernel_unimodular_invariance():
    rng = random.Random(24)
    for _ in range(25):
        n = rng.randint(1, 4)
        a = random_matrix(rng, n, n, -8, 8)
        b = random_unimodular(n, rng.randint(0, 5), rng)
        c = random_unimodular(n, rng.randint(0, 5), rng)
        assert cokernel(matmul(matmul(b, a), c)) == cokernel(a)


def test_cokernel_order_of_nonsingular():
    rng = random.Random(25)
    checked = 0
    while checked < 30:
        n = rng.randint(1, 4)
        a = random_matrix(rng, n, n, -6, 6)
        d = det(a)
        if d == 0:
            continue
        g = cokernel(a)
        assert g.is_finite and g.order() == abs(d)
        checked += 1


def test_format_group():
    assert format_group(FgAbelianGroup(2, (3,))) == "Z^2 + Z_3"
    assert format_group(FgAbelianGroup.trivial()) == "0"
    assert format_group(FgAbelianGroup(0, (4,))) == "Z_4"
    assert format_group(FgAbelianGroup.free(1)) == "Z"
    assert format_group(FgAbelianGroup(2, (2, 4))) == "Z^2 + Z_2 + Z_4"
    assert str(FgAbelianGroup(1, (2,))) == "Z + Z_2"


def test_order():
    assert FgAbelianGroup(0, (2, 4)).order() == 8
    assert FgAbelianGroup.trivial().order() == 1
    assert FgAbelianGroup.free(1).order() is None
