import random
from collections import Counter

import pytest

from ckbundle import (
    ConjugacyStatus,
    FgAbelianGroup,
    IntMatrix,
    IntPolynomial,
    NotUnimodular,
    Outcome,
    alexander_polynomial,
    ck_functor,
    compare_bundles,
    conjugacy_search,
    conjugate,
    det,
    h1,
    k0,
    make_bundle,
    nonnegative_representative,
    normalize_monodromy,
    random_unimodular,
    theorem1_check,
    unimodular_inverse,
)

from conftest import A2, A3, a1


def bundle_of(rows):
    return make_bundle(IntMatrix(rows))


def test_make_bundle():
    b = make_bundle(A2)
    assert b.monodromy == A2 and b.dimension == 2
    assert make_bundle(IntMatrix([[0, 1], [-1, 0]])).dimension == 2
    with pytest.raises(NotUnimodular):
        make_bundle(IntMatrix([[2, 0], [0, 1]]))
    with pytest.raises(ValueError):
        make_bundle(IntMatrix([[1, 0]]))


def test_normalize_monodromy():
    flipped = normalize_monodromy(bundle_of([[-1, 0], [0, -1]]))
    assert flipped.matrix == IntMatrix.identity(2) and flipped.flipped

    kept = normalize_monodromy(make_bundle(A2))
    assert kept.matrix == A2 and not kept.flipped

    rotation = normalize_monodromy(bundle_of([[0, 1], [-1, 0]]))
    assert rotation.matrix == IntMatrix([[0, 1], [-1, 0]]) and not rotation.flipped


def test_nonnegative_representative_identity_cases():
    u, rep = nonnegative_representative(make_bundle(A2))
    assert u == IntMatrix.identity(2) and rep == A2
    u, rep = nonnegative_representative(bundle_of([[1, 0], [0, 1]]))
    assert u == IntMatrix.identity(2) and rep == IntMatrix.identity(2)


@pytest.mark.parametrize(
    "conjugator",
    [IntMatrix([[1, -1], [0, 1]]), IntMatrix([[0, 1], [-1, 0]])],
)
def test_nonnegative_representative_round_trip(conjugator):
    scrambled = conjugate(A2, conjugator)
    found = nonnegative_representative(make_bundle(scrambled), search_depth=3)
    assert found is not None
    u, rep = found
    assert rep.is_nonnegative
    assert conjugate(scrambled, u) == rep
    assert det(u) in (1, -1)


def test_nonnegative_representative_none_for_rotation():
    # a nonnegative conjugate of trace 0 has a zero diagonal, and then
    # det = -bc = 1 has no solution with b, c >= 0
    assert nonnegative_representative(bundle_of([[0, -1], [1, 0]]), search_depth=4) is None


def test_nonnegative_representative_on_negative_matrix():
    scrambled = conjugate(A2, IntMatrix([[0, 1], [-1, 0]]))
    assert scrambled == IntMatrix([[1, -2], [-2, 5]])
    assert not scrambled.is_nonnegative


def test_h1_examples():
    assert h1(make_bundle(a1(3))) == FgAbelianGroup(2, (3,))
    assert h1(make_bundle(A2)) == FgAbelianGroup(1, (2, 2))
    assert h1(bundle_of([[1, 0], [0, 1]])) == FgAbelianGroup.free(3)


def test_alexander_polynomial():
    poly = IntPolynomial((1, -6, 1))
    assert alexander_polynomial(make_bundle(A2)) == poly
    assert alexander_polynomial(make_bundle(A3)) == poly
    assert str(poly) == "t^2 - 6t + 1"
    assert alexander_polynomial(bundle_of([[1, 0], [0, 1]])) == IntPolynomial((1, -2, 1))


def test_ck_functor_examples():
    image = ck_functor(make_bundle(a1(2)))
    assert image.k0 == FgAbelianGroup(1, (2,))
    assert image.k1 == FgAbelianGroup.free(1)
    assert not image.normalized.flipped

    image = ck_functor(make_bundle(A3))
    assert image.k0 == FgAbelianGroup(0, (4,))
    assert image.k1 == FgAbelianGroup.trivial()


def test_ck_functor_flips_sign():
    pos = ck_functor(make_bundle(A2))
    neg = ck_functor(make_bundle(-A2))
    assert neg.normalized.flipped and not pos.normalized.flipped
    assert neg.normalized.matrix == A2
    assert neg.k0 == pos.k0 and neg.k1 == pos.k1


def test_theorem1_examples():
    assert theorem1_check(make_bundle(A2))
    for n in range(1, 11):
        assert theorem1_check(make_bundle(a1(n)))
    assert theorem1_check(bundle_of([[1, 0], [0, 1]]))
    # trace-negative case: h1 uses the raw monodromy, so the identity holds
    assert theorem1_check(bundle_of([[-1, 0], [0, -1]]))


def test_theorem1_random_suite():
    rng = random.Random(51)
    for _ in range(60):
        n = rng.choice([2, 3, 4])
        a = random_unimodular(n, rng.randint(0, 6), rng)
        b = make_bundle(a)
        assert theorem1_check(b)
        assert h1(b) == FgAbelianGroup(1 + k0(a).free_rank, k0(a).invariant_factors)


def test_invariants_conjugation_stable():
    rng = random.Random(52)
    for _ in range(30):
        n = rng.choice([2, 3])
        a = random_unimodular(n, rng.randint(0, 5), rng)
        u = random_unimodular(n, rng.randint(0, 5), rng)
        b1 = make_bundle(a)
        b2 = make_bundle(conjugate(a, u))
        assert h1(b1) == h1(b2)
        assert alexander_polynomial(b1) == alexander_polynomial(b2)
        f1, f2 = ck_functor(b1), ck_functor(b2)
        assert f1.k0 == f2.k0 and f1.k1 == f2.k1


def test_functoriality_of_composition():
    rng = random.Random(53)
    for _ in range(25):
        n = rng.choice([2, 3])
        a = random_unimodular(n, rng.randint(0, 5), rng)
        u1 = random_unimodular(n, rng.randint(0, 4), rng)
        u2 = random_unimodular(n, rng.randint(0, 4), rng)
        one_step = conjugate(a, u2 @ u1)
        two_steps = conjugate(conjugate(a, u1), u2)
        assert one_step == two_steps
        fa = ck_functor(make_bundle(a))
        fc = ck_functor(make_bundle(one_step))
        assert fa.k0 == fc.k0 and fa.k1 == fc.k1


def test_compare_distinct_pair():
    verdict = compare_bundles(make_bundle(A2), make_bundle(A3))
    assert verdict.outcome is Outcome.DISTINCT
    assert verdict.witness == "K0: Z_2 + Z_2 vs Z_4"
    assert verdict.certificate is None


def test_compare_self_is_homeomorphic():
    verdict = compare_bundles(make_bundle(A2), make_bundle(A2))
    assert verdict.outcome is Outcome.HOMEOMORPHIC
    assert verdict.certificate == IntMatrix.identity(2)


def test_compare_conjugates_homeomorphic():
    rng = random.Random(54)
    for _ in range(8):
        a = random_unimodular(2, rng.randint(1, 4), rng)
        u = random_unimodular(2, 3, rng)
        verdict = compare_bundles(
            make_bundle(a), make_bundle(conjugate(a, u)), search_depth=4
        )
        assert verdict.outcome is not Outcome.DISTINCT
        if verdict.outcome is Outcome.HOMEOMORPHIC:
            assert conjugate(a, verdict.certificate) == conjugate(a, u)


def test_compare_h1_separates_sign_classes():
    # K0 of the normalized monodromies agree (-I normalizes to I), but H1
    # tells the bundles apart
    verdict = compare_bundles(bundle_of([[-1, 0], [0, -1]]), bundle_of([[1, 0], [0, 1]]))
    assert verdict.outcome is Outcome.DISTINCT
    assert verdict.witness.startswith("H1:")


def test_compare_inverse_with_opposite_trace_sign_is_never_distinct():
    # companion of t^3 - 3t^2 - 2t - 1 (trace 3) against its inverse (trace -2):
    # T_M and T_{M^-1} are homeomorphic, but only the inverse is sign-flipped
    m = IntMatrix([[0, 0, 1], [1, 0, 2], [0, 1, 3]])
    m_inv = IntMatrix([[-2, 1, 0], [-3, 0, 1], [1, 0, 0]])
    assert m @ m_inv == IntMatrix.identity(3)
    for pair in ((m, m_inv), (m_inv, m)):
        verdict = compare_bundles(*map(make_bundle, pair))
        assert verdict.outcome is not Outcome.DISTINCT, verdict.witness


def test_compare_uses_k0_when_both_sides_flipped():
    verdict = compare_bundles(make_bundle(-A2), make_bundle(-A3))
    assert verdict.outcome is Outcome.DISTINCT
    assert verdict.witness == "K0: Z_2 + Z_2 vs Z_4"


def test_compare_rejects_negative_depth():
    with pytest.raises(ValueError, match="search depth"):
        compare_bundles(make_bundle(A2), make_bundle(A3), search_depth=-1)


def test_compare_dimension_mismatch():
    with pytest.raises(ValueError):
        compare_bundles(make_bundle(A2), bundle_of([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))


def test_compare_inconclusive_without_certificate():
    a = IntMatrix([[11, 2], [5, 1]])
    b = conjugate(a, IntMatrix([[1, 3], [0, 1]]))
    verdict = compare_bundles(make_bundle(a), make_bundle(b), search_depth=0)
    assert verdict.outcome is Outcome.INCONCLUSIVE


def _reference_verdict(b1, b2, search_depth):
    """compare_bundles from the full ladder: K0 of the functor images when
    the flips match, then H1 always, then the conjugacy search."""
    rungs = [("H1", h1)]
    if normalize_monodromy(b1).flipped == normalize_monodromy(b2).flipped:
        rungs.insert(0, ("K0", lambda b: ck_functor(b).k0))
    for name, invariant in rungs:
        x, y = invariant(b1), invariant(b2)
        if x != y:
            return Outcome.DISTINCT, f"{name}: {x} vs {y}"
    result = conjugacy_search(b1.monodromy, b2.monodromy, search_depth)
    if result.status is ConjugacyStatus.CONJUGATE:
        return Outcome.HOMEOMORPHIC, f"monodromies conjugate via {result.conjugator.to_lists()}"
    if result.status is ConjugacyStatus.NOT_CONJUGATE:
        return (
            Outcome.INCONCLUSIVE,
            f"no invariant differs; monodromies not conjugate ({result.obstruction})",
        )
    return (
        Outcome.INCONCLUSIVE,
        f"no invariant differs; no conjugator found at depth {search_depth}",
    )


def test_compare_matches_the_full_ladder():
    # the pruned ladder skips H1 when neither side is flipped; every verdict
    # and witness must still be the full ladder's
    rng = random.Random(58)
    flips, witnesses = Counter(), Counter()
    for _ in range(500):
        n = rng.randint(2, 4)
        a = random_unimodular(n, rng.randint(0, 8), rng)
        u = random_unimodular(n, rng.randint(0, 4), rng)
        b = rng.choice(
            [
                conjugate(a, u),
                conjugate(-a, u),
                conjugate(unimodular_inverse(a), u),
                random_unimodular(n, rng.randint(0, 8), rng),
            ]
        )
        b1, b2 = make_bundle(rng.choice([a, -a])), make_bundle(rng.choice([b, -b]))
        verdict = compare_bundles(b1, b2, search_depth=1)
        assert (verdict.outcome, verdict.witness) == _reference_verdict(b1, b2, 1)
        flips[normalize_monodromy(b1).flipped, normalize_monodromy(b2).flipped] += 1
        witnesses[verdict.witness[:3]] += 1
    assert min(flips.values()) > 50 and len(flips) == 4
    assert min(witnesses[w] for w in ("K0:", "H1:", "no ")) > 20


def test_random_unimodular_is_unimodular():
    rng = random.Random(55)
    for _ in range(40):
        n = rng.randint(1, 4)
        assert det(random_unimodular(n, rng.randint(0, 8), rng)) in (1, -1)
