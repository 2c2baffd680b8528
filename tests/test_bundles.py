import pytest

from bundlegauge.abelian import make_group
from bundlegauge.bundles import (
    classify_bundles,
    projection_induced_map_kind,
    reduce_class,
)
from bundlegauge.errors import OutOfScopeError
from bundlegauge.manifolds import normalize
from bundlegauge.tables import LieGroupId

SU4 = LieGroupId("SU", 4)
SU2 = LieGroupId("SU", 2)
SP2 = LieGroupId("Sp", 2)


class TestClassification:
    def test_torsion_free_base_gives_integers(self):
        assert classify_bundles(SU4, normalize(3, 0)) == make_group(1, [])

    def test_torsion_base_gives_cyclic(self):
        assert classify_bundles(SP2, normalize(1, 5)) == make_group(0, [5])

    def test_seven_sphere_counts_pi6(self):
        assert classify_bundles(SU2, normalize(0, 1)) == make_group(0, [12])
        assert classify_bundles(LieGroupId("SU", 3), normalize(0, 1)) == make_group(
            0, [6]
        )
        assert classify_bundles(LieGroupId("G2"), normalize(0, 1)) == make_group(
            0, [3]
        )
        assert classify_bundles(SU4, normalize(0, 1)).is_trivial

    def test_nonzero_pi6_refused_off_the_sphere(self):
        with pytest.raises(OutOfScopeError, match="pi_6"):
            classify_bundles(SU2, normalize(0, 0))
        with pytest.raises(OutOfScopeError):
            classify_bundles(LieGroupId("G2"), normalize(0, 9))

    def test_invariant_under_normalization(self):
        # Homeomorphic inputs land on the same classification set.
        for raw in [(3, -5), (-3, 5), (-2, 5)]:
            assert classify_bundles(SP2, normalize(*raw)) == make_group(0, [5])

    def test_sizes_match_the_pi6_orders(self):
        for g, size in [
            (SU2, 12),
            (LieGroupId("Sp", 1), 12),
            (LieGroupId("SU", 3), 6),
            (LieGroupId("G2"), 3),
            (LieGroupId("E7"), 1),
        ]:
            assert classify_bundles(g, normalize(0, 1)).order() == size


class TestProjectionKind:
    def test_cases(self):
        assert projection_induced_map_kind(0) == "bijection"
        assert projection_induced_map_kind(12) == "surjection"
        assert projection_induced_map_kind(2) == "surjection"
        assert projection_induced_map_kind(1) == "not-covered"


class TestReduceClass:
    def test_mod_m(self):
        bundle = reduce_class(SU4, normalize(0, 5), 12)
        assert bundle.k == 2 and bundle.modulus == 5

    def test_m0_keeps_integers(self):
        bundle = reduce_class(SU4, normalize(0, 0), -3)
        assert bundle.k == -3 and bundle.modulus == 0

    def test_m1_uses_pi6_order(self):
        bundle = reduce_class(SU2, normalize(0, 1), 25)
        assert bundle.k == 1 and bundle.modulus == 12

    def test_m1_trivial_pi6_forces_zero(self):
        bundle = reduce_class(SU4, normalize(0, 1), 25)
        assert bundle.k == 0 and bundle.modulus == 1

    def test_text_names_the_classification_set(self):
        assert str(reduce_class(SU4, normalize(0, 0), 7)) == "bundle k=7 in Z over M(0,0)"
        assert str(reduce_class(SU4, normalize(0, 5), 7)) == "bundle k=2 in Z_5 over M(0,5)"

    def test_propagates_scope_errors(self):
        with pytest.raises(OutOfScopeError):
            reduce_class(SU2, normalize(0, 5), 3)
