"""The seven value records behave as the frozen dataclasses they replace, and
only InvariantReport and ComparisonVerdict are still dataclasses."""

import copy
import dataclasses
import pickle

import pytest

from ckbundle import (
    CKFunctorImage,
    ComparisonVerdict,
    ConjugacyResult,
    ConjugacyStatus,
    FgAbelianGroup,
    IntMatrix,
    IntPolynomial,
    NormalizedMonodromy,
    Outcome,
    SEWitness,
    SmithDecomposition,
    smith_normal_form,
)
from ckbundle import abelian, bundle, ck, cli, intmat, sft
from ckbundle.cli import InvariantReport, build_report

ONE = IntMatrix([[1]])

# (record, its repr as the frozen dataclass printed it)
RECORDS = [
    (IntPolynomial((1, -2, 0, 0)), "IntPolynomial(coefficients=(1, -2))"),
    (IntPolynomial(), "IntPolynomial(coefficients=())"),
    (
        smith_normal_form(IntMatrix([[2, 0], [0, 3]])),
        "SmithDecomposition(u=IntMatrix([[-1, 1], [-3, 2]]), d=IntMatrix([[1, 0], [0, 6]]), "
        "v=IntMatrix([[1, -3], [1, -2]]))",
    ),
    (FgAbelianGroup(1, (2, 4)), "FgAbelianGroup(free_rank=1, invariant_factors=(2, 4))"),
    (FgAbelianGroup(0), "FgAbelianGroup(free_rank=0, invariant_factors=())"),
    (
        NormalizedMonodromy(IntMatrix([[2, 1], [1, 1]]), False),
        "NormalizedMonodromy(matrix=IntMatrix([[2, 1], [1, 1]]), flipped=False)",
    ),
    (
        CKFunctorImage(NormalizedMonodromy(ONE, True), FgAbelianGroup(0, (2,)), FgAbelianGroup(1)),
        "CKFunctorImage(normalized=NormalizedMonodromy(matrix=IntMatrix([[1]]), flipped=True), "
        "k0=FgAbelianGroup(free_rank=0, invariant_factors=(2,)), "
        "k1=FgAbelianGroup(free_rank=1, invariant_factors=()))",
    ),
    (SEWitness(ONE, ONE, 1), "SEWitness(r=IntMatrix([[1]]), s=IntMatrix([[1]]), lag=1)"),
    (
        ConjugacyResult(ConjugacyStatus.UNKNOWN),
        "ConjugacyResult(status=<ConjugacyStatus.UNKNOWN: 'unknown'>, conjugator=None, "
        "obstruction=None)",
    ),
    (
        ConjugacyResult(ConjugacyStatus.CONJUGATE, conjugator=ONE),
        "ConjugacyResult(status=<ConjugacyStatus.CONJUGATE: 'conjugate'>, "
        "conjugator=IntMatrix([[1]]), obstruction=None)",
    ),
    (
        ConjugacyResult(ConjugacyStatus.NOT_CONJUGATE, obstruction="det"),
        "ConjugacyResult(status=<ConjugacyStatus.NOT_CONJUGATE: 'not_conjugate'>, "
        "conjugator=None, obstruction='det')",
    ),
]
IDS = [type(record).__name__ for record, _ in RECORDS]


def _field_tuple(record):
    return tuple(getattr(record, name) for name in type(record).__match_args__)


@pytest.mark.parametrize("record, text", RECORDS, ids=IDS)
def test_record_repr_hash_and_equality(record, text):
    assert repr(record) == text
    assert hash(record) == hash(_field_tuple(record))
    twin = type(record)(*_field_tuple(record))
    assert twin == record and hash(twin) == hash(record)
    assert record != _field_tuple(record)


@pytest.mark.parametrize("record, text", RECORDS, ids=IDS)
def test_record_is_immutable(record, text):
    name = type(record).__match_args__[0]
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert repr(record) == text


@pytest.mark.parametrize("record, text", RECORDS, ids=IDS)
def test_record_pickle_and_copy_round_trip(record, text):
    for clone in (
        pickle.loads(pickle.dumps(record)),
        copy.deepcopy(record),
        copy.copy(record),
    ):
        assert type(clone) is type(record) and clone == record
        assert repr(clone) == text


def test_record_match_args_keywords_and_defaults():
    assert IntPolynomial.__match_args__ == ("coefficients",)
    assert SmithDecomposition.__match_args__ == ("u", "d", "v")
    assert FgAbelianGroup.__match_args__ == ("free_rank", "invariant_factors")
    assert NormalizedMonodromy.__match_args__ == ("matrix", "flipped")
    assert CKFunctorImage.__match_args__ == ("normalized", "k0", "k1")
    assert SEWitness.__match_args__ == ("r", "s", "lag")
    assert ConjugacyResult.__match_args__ == ("status", "conjugator", "obstruction")
    match SEWitness(ONE, IntMatrix([[2]]), 3):
        case SEWitness(r, s, lag=3):
            assert (r, s) == (ONE, IntMatrix([[2]]))
        case _:
            pytest.fail("positional and keyword patterns did not match")

    assert IntPolynomial() == IntPolynomial(coefficients=[0, 0]) == IntPolynomial(())
    assert FgAbelianGroup(free_rank=2) == FgAbelianGroup(2, ())
    assert FgAbelianGroup(free_rank=0, invariant_factors=[2, 4]).invariant_factors == (2, 4)
    assert ConjugacyResult(ConjugacyStatus.UNKNOWN) == ConjugacyResult(
        status=ConjugacyStatus.UNKNOWN, conjugator=None, obstruction=None
    )
    assert SEWitness(lag=1, s=ONE, r=ONE) == SEWitness(ONE, ONE, 1)
    assert NormalizedMonodromy(matrix=ONE, flipped=True).flipped is True
    assert SmithDecomposition(u=ONE, d=ONE, v=ONE).diagonal() == (1,)
    with pytest.raises(TypeError):
        SEWitness(ONE, ONE)
    with pytest.raises(TypeError):
        FgAbelianGroup(1, (), 3)


def test_record_validation_is_kept():
    with pytest.raises(ValueError, match="free rank must be nonnegative"):
        FgAbelianGroup(-1)
    with pytest.raises(ValueError, match="invariant factor 1 < 2 is not canonical"):
        FgAbelianGroup(0, (1,))
    with pytest.raises(ValueError, match=r"invariant factors \(2, 3\) violate the divisor chain"):
        FgAbelianGroup(0, (2, 3))
    with pytest.raises(TypeError):
        FgAbelianGroup(1.0)
    with pytest.raises(TypeError):
        IntPolynomial((1, 0.5))
    assert IntPolynomial((True, 0)).coefficients == (1,)


def test_record_classes_with_equal_fields_differ():
    assert SmithDecomposition(ONE, ONE, ONE) != SEWitness(ONE, ONE, ONE)
    assert ConjugacyResult(ONE, ONE, ONE) != SmithDecomposition(ONE, ONE, ONE)
    assert NormalizedMonodromy(1, 2) != FgAbelianGroup(1, (2,))
    assert len({SmithDecomposition(ONE, ONE, ONE), SEWitness(ONE, ONE, ONE)}) == 2


def test_only_report_and_verdict_are_dataclasses():
    modules = (intmat, abelian, ck, sft, bundle, cli)
    found = {
        name
        for module in modules
        for name in module.__all__
        if dataclasses.is_dataclass(getattr(module, name))
    }
    assert found == {"InvariantReport", "ComparisonVerdict"}

    report, _ = build_report(IntMatrix([[2, 1], [1, 1]]))
    assert [f.name for f in dataclasses.fields(InvariantReport)][:3] == ["matrix", "det", "trace"]
    changed = dataclasses.replace(report, trace=report.trace + 1)
    assert changed.trace == report.trace + 1 and changed.k0 == report.k0
    assert InvariantReport.from_dict(changed.to_dict()) == changed

    verdict = ComparisonVerdict(Outcome.INCONCLUSIVE, witness="w")
    assert [f.name for f in dataclasses.fields(verdict)] == ["outcome", "witness", "certificate"]
    certified = dataclasses.replace(verdict, certificate=ONE)
    assert certified.certificate == ONE and certified.witness == "w"
