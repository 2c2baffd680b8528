from math import gcd

import pytest
from hypothesis import given, strategies as st

from bundlegauge.abelian import make_group
from bundlegauge.bundles import reduce_class
from bundlegauge.errors import OutOfScopeError
from bundlegauge.manifolds import (
    ManifoldSpec,
    homology,
    is_homotopy_equivalent,
    normalize,
    suspension,
    suspension_plocal,
    twist_class,
)
from bundlegauge.oracle import complex_for_manifold, homology_of
from bundlegauge.spaces import localized, moore, sphere, wedge, y_cofiber
from bundlegauge.tables import RULES, LieGroupId

Z = make_group(1, [])
ZERO = make_group(0, [])


class TestNormalize:
    def test_negative_m_flips_both_signs(self):
        # (3,-5) -> (-3,5); partners {-3, -2}; -2 has smaller absolute value.
        assert normalize(3, -5) == ManifoldSpec(-2, 5)
        assert ManifoldSpec._fields == ("l", "m")

    def test_zero_is_fixed(self):
        assert (normalize(0, 0).l, normalize(0, 0).m) == (0, 0)

    def test_m_zero_prefers_nonnegative(self):
        assert normalize(7, 0) == ManifoldSpec(7, 0)
        assert normalize(-7, 0) == ManifoldSpec(7, 0)

    @pytest.mark.parametrize("pairs", [
        [(3, 0), (-3, 0)],
        [(3, -5), (-3, 5), (-2, 5), (2, -5)],
        [(0, 1), (-1, 1), (1, -1)],
    ])
    def test_one_value_per_canonical_pair(self, pairs):
        specs = [normalize(l, m) for l, m in pairs]
        assert len(set(specs)) == 1
        assert len({hash(spec) for spec in specs}) == 1
        g = LieGroupId("SU", 4)
        assert len({reduce_class(g, spec, 7) for spec in specs}) == 1

    def test_homeomorphisms_fix_the_spec(self):
        for l in range(-30, 31):
            for m in range(-10, 11):
                spec = normalize(l, m)
                assert normalize(-l, -m) == spec
                assert normalize(l + m, -m) == spec
                assert hash(normalize(-l, -m)) == hash(spec)

    @given(
        st.integers(-(2**70), 2**70),
        st.one_of(st.just(0), st.integers(-(2**70), 2**70)),
    )
    def test_against_a_brute_force_choice(self, l, m):
        expected_m = abs(m)
        pair = {-l, l + m} if m < 0 else {l, -l - m}
        expected_l = min(pair, key=lambda x: (abs(x), x < 0))
        assert normalize(l, m) == ManifoldSpec(expected_l, expected_m)

    def test_idempotent(self):
        for l in range(-30, 31):
            for m in range(-10, 11):
                once = normalize(l, m)
                again = normalize(once.l, once.m)
                assert (again.l, again.m) == (once.l, once.m)


class TestHomology:
    def test_m0_matches_product_of_spheres(self):
        assert homology(normalize(3, 0)) == (Z, ZERO, ZERO, Z, Z, ZERO, ZERO, Z)

    def test_m1_is_a_seven_sphere(self):
        assert homology(normalize(4, 1)) == (Z, ZERO, ZERO, ZERO, ZERO, ZERO, ZERO, Z)

    def test_torsion_case_against_the_oracle(self):
        spec = normalize(2, 6)
        closed = homology(spec)
        assert closed[3] == make_group(0, [6])
        assert homology_of(complex_for_manifold(spec)) == closed


class TestHomotopyEquivalence:
    def test_m0_congruence(self):
        assert is_homotopy_equivalent(normalize(3, 0), normalize(15, 0))
        assert is_homotopy_equivalent(normalize(5, 0), normalize(7, 0))
        assert not is_homotopy_equivalent(normalize(1, 0), normalize(2, 0))

    def test_m1_always_equivalent(self):
        assert is_homotopy_equivalent(normalize(-9, 1), normalize(100, 1))

    def test_differing_m_never_equivalent(self):
        assert not is_homotopy_equivalent(normalize(0, 3), normalize(0, 4))

    def test_gcd_two_case_decided_by_parity(self):
        # gcd(10,12) = 2 leaves only a = 1, so the parity of l decides.
        assert not is_homotopy_equivalent(normalize(0, 10), normalize(1, 10))
        assert is_homotopy_equivalent(normalize(0, 10), normalize(2, 10))

    def test_nontrivial_square_root_of_unity(self):
        # 5^2 = 25 = 1 (mod 12), so a = 5 relates l = 1 and l' = 5.
        assert is_homotopy_equivalent(normalize(1, 12), normalize(5, 12))

    def test_the_rule_names_the_criterion(self):
        # The criterion's name and citation live in its RULES row, not in reason.
        for a, b, rule, name in (
            ((3, 0), (15, 0), "james-whitehead", "James-Whitehead"),
            ((1, 12), (5, 12), "crowley-escher", "Crowley-Escher"),
        ):
            decision = is_homotopy_equivalent(normalize(*a), normalize(*b))
            assert decision.rule == rule
            theorem, citations = RULES[rule]
            assert theorem == f"{name} criterion"
            assert citations and all(c.startswith(name) for c in citations)
            assert name not in decision.reason

    def test_agrees_with_both_criteria_by_brute_force(self):
        # Each criterion read off its statement, on the raw input pairs:
        # James-Whitehead asks for l' = a*l (mod 12) with a = +-1, and
        # Crowley-Escher for some a in [0, g) with a^2 = 1 (mod g) and
        # l' = a*l (mod g), where g = gcd(m, 12).
        universe = range(-30, 31)
        for m in range(0, 61):
            if m == 0:
                g, roots = 12, (1, -1)
            else:
                g = gcd(m, 12)
                roots = [a for a in range(g) if (a * a - 1) % g == 0]
            specs = {l: normalize(l, m) for l in universe}
            for l in universe:
                for lp in universe:
                    want = m == 1 or any((lp - a * l) % g == 0 for a in roots)
                    got = is_homotopy_equivalent(specs[l], specs[lp]).equivalent
                    assert got == want, (l, lp, m)

    def test_equivalence_implies_equal_homology(self):
        for m in range(0, 13):
            for l in range(-6, 7):
                for lp in range(-6, 7):
                    a, b = normalize(l, m), normalize(lp, m)
                    if is_homotopy_equivalent(a, b):
                        assert homology(a) == homology(b)


class TestSuspension:
    def test_twist_class_is_canonical(self):
        assert twist_class(0) == 0
        assert twist_class(24) == 0
        assert twist_class(5) == 5
        assert twist_class(7) == 5
        assert twist_class(-3) == 3

    def test_trivial_twist_expands(self):
        expected = wedge(sphere(8), sphere(4), sphere(5))
        assert suspension(normalize(24, 0)) == expected
        assert suspension(normalize(0, 0)) == expected

    def test_congruent_twists_agree(self):
        assert suspension(normalize(5, 0)) == suspension(normalize(7, 0))
        assert suspension(normalize(5, 0)) == wedge(
            y_cofiber(5, suspended=True), sphere(5)
        )

    def test_m1_reported_through_the_sphere(self):
        assert suspension(normalize(3, 1)) == sphere(8)

    def test_torsion_needs_the_plocal_route(self):
        with pytest.raises(OutOfScopeError):
            suspension(normalize(3, 6))

    def test_plocal_splitting(self):
        got = suspension_plocal(normalize(0, 50), 5)
        assert got == localized(5, wedge(moore(5, 25), sphere(8)))

    def test_plocal_unit_valuation_leaves_only_the_top_sphere(self):
        assert suspension_plocal(normalize(0, 6), 5) == localized(5, sphere(8))

    def test_plocal_prime_exactly_divides(self):
        assert suspension_plocal(normalize(0, 7), 7) == localized(
            7, wedge(moore(5, 7), sphere(8))
        )

    def test_plocal_rejects_small_primes_and_small_m(self):
        with pytest.raises(OutOfScopeError):
            suspension_plocal(normalize(0, 50), 3)
        with pytest.raises(OutOfScopeError):
            suspension_plocal(normalize(0, 1), 5)

