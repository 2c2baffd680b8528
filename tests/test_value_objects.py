"""The value objects are named tuples: immutable, compared and hashed by
their fields, printed as keyword calls, and checked when constructed."""

import pytest

from bundlegauge.abelian import TRIVIAL, AbGroup, Prime
from bundlegauge.bundles import BundleClass
from bundlegauge.cli import QueryResult
from bundlegauge.gauge import (
    DecompositionResult,
    GaugeQuery,
    PiValue,
    S7Decision,
    Su5Decision,
)
from bundlegauge.manifolds import EquivalenceDecision, ManifoldSpec
from bundlegauge.oracle import ChainComplex, IntMatrix, SNFResult
from bundlegauge.selftest import CriterionResult
from bundlegauge.spaces import SpaceExpr, gauge_s4, sphere
from bundlegauge.tables import LieGroupId, TableRecord

SU4 = LieGroupId("SU", 4)
SPEC = ManifoldSpec(1, 0)
BUNDLE = BundleClass(SPEC, SU4, 3, 0)
Z12 = AbGroup(0, (12,))
ZERO_1x1 = IntMatrix(1, 1, ((0,),))

# (a builder, called twice to get equal objects, and the expected repr)
CASES = [
    (lambda: Prime(7), "Prime(value=7)"),
    (lambda: AbGroup(1, (2,)),
     "AbGroup(free_rank=1, invariant_factors=(2,), local_prime=None)"),
    (lambda: SU4, "LieGroupId(family='SU', n=4)"),
    (lambda: LieGroupId("E8"), "LieGroupId(family='E8', n=None)"),
    (lambda: TableRecord(None, None, "S3", 6, Z12, "Toda"),
     f"TableRecord(family=None, min_n=None, key='S3', degree=6, group={Z12!r}, "
     "source='Toda')"),
    (lambda: SPEC, "ManifoldSpec(l=1, m=0)"),
    (lambda: EquivalenceDecision(True, "r", "k"),
     "EquivalenceDecision(equivalent=True, reason='r', rule='k')"),
    (lambda: BUNDLE,
     "BundleClass(base=ManifoldSpec(l=1, m=0), "
     "group=LieGroupId(family='SU', n=4), k=3, modulus=0)"),
    (lambda: GaugeQuery(BUNDLE),
     f"GaugeQuery(bundle={BUNDLE!r}, pointed=False, looped=0, locality='integral')"),
    (lambda: DecompositionResult(sphere(3), (), "t", "d"),
     "DecompositionResult(expr=SpaceExpr(kind='sphere', args=(3,)), caveats=(), "
     "rule='t', describes='d', loops=0)"),
    (lambda: PiValue(TRIVIAL, sources=("s",)),
     f"PiValue(group={TRIVIAL!r}, symbolic=(), notes=(), sources=('s',))"),
    (lambda: S7Decision("equivalent", "r"),
     "S7Decision(verdict='equivalent', reason='r', expr=None, rule=None)"),
    (lambda: Su5Decision("undecided", "r"), "Su5Decision(verdict='undecided', reason='r')"),
    (lambda: IntMatrix(1, 2, ((1, 2),)), "IntMatrix(rows=1, cols=2, entries=((1, 2),))"),
    (lambda: ChainComplex((1, 1), (ZERO_1x1,)),
     f"ChainComplex(cells=(1, 1), boundaries=({ZERO_1x1!r},))"),
    (lambda: SNFResult((1, 6), 2), "SNFResult(diagonal=(1, 6), rank=2)"),
    (lambda: SpaceExpr("point"), "SpaceExpr(kind='point', args=())"),
    (lambda: CriterionResult(1, "n", True, "", 0.5),
     "CriterionResult(number=1, name='n', passed=True, detail='', seconds=0.5)"),
    (lambda: QueryResult("t", {"a": 1}),
     "QueryResult(text='t', payload={'a': 1}, exit_code=0)"),
]
IDS = [expected.partition("(")[0] for _, expected in CASES]


@pytest.mark.parametrize("build, expected", CASES, ids=IDS)
class TestContract:
    def test_attributes_cannot_be_assigned(self, build, expected):
        obj = build()
        field = obj._fields[0]
        with pytest.raises(AttributeError):
            setattr(obj, field, None)
        with pytest.raises(AttributeError):
            obj.extra = None

    def test_equal_fields_give_equal_objects(self, build, expected):
        a, b = build(), build()
        assert a == b and not a != b
        # The one change from the former dataclasses: equal to a plain tuple.
        assert a == tuple(a)
        if not isinstance(a, QueryResult):  # its payload is a dict
            assert hash(a) == hash(b) == hash(tuple(a))

    def test_repr(self, build, expected):
        assert repr(build()) == expected


def test_lie_groups_sort_by_family_then_rank():
    groups = [SU4, LieGroupId("Sp", 2), LieGroupId("SU", 3), LieGroupId("E8")]
    assert sorted(groups) == [
        LieGroupId("E8"), LieGroupId("SU", 3), SU4, LieGroupId("Sp", 2)]


@pytest.mark.parametrize(
    "decision, truth",
    [
        (EquivalenceDecision(True, "r", "k"), True),
        (EquivalenceDecision(False, "r", "k"), False),
        (S7Decision("equivalent", "r"), True),
        (S7Decision("not-equivalent", "r"), False),
        (S7Decision("out-of-scope", "r"), False),
        (Su5Decision("equivalent-locally", "r"), True),
        (Su5Decision("undecided", "r"), False),
    ],
)
def test_decisions_are_true_only_when_equivalent(decision, truth):
    assert bool(decision) is truth


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Prime(4), "4 is not prime"),
        (lambda: AbGroup(0, (4, 6)), "not a divisibility chain"),
        (lambda: AbGroup(-1, ()), "free rank must be nonnegative"),
        (lambda: AbGroup(0, (), 5), "trivial group is stored integral"),
        (lambda: LieGroupId("SU", 1), r"SU\(1\) out of range"),
        (lambda: LieGroupId("G2", 2), "G2 takes no rank parameter"),
        (lambda: LieGroupId("Q"), "unknown family"),
        (lambda: DecompositionResult(gauge_s4(SU4, 1), (), "t", "d"),
         "opaque atoms require an explanatory caveat"),
        (lambda: IntMatrix(2, 2, ((1, 2), (3,))), "ragged matrix rows"),
        (lambda: IntMatrix(2, 1, ((1,),)), "row count does not match"),
        (lambda: ChainComplex((1, 1, 1), (IntMatrix(1, 1, ((1,),)),) * 2),
         "d_1 o d_2 is nonzero"),
    ],
)
def test_constructors_still_check(build, message):
    with pytest.raises(ValueError, match=message):
        build()
