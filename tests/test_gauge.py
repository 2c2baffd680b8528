import pytest

from bundlegauge.abelian import localize, make_group
from bundlegauge.bundles import reduce_class
from bundlegauge.errors import OutOfScopeError, UnknownValueError
from bundlegauge.gauge import (
    DecompositionResult,
    GaugeQuery,
    decompose_plocal,
    decompose_pointed_m0,
    decompose_unpointed_m0,
    pi0_unpointed_gauge_m0,
    pi0_unpointed_gauge_plocal,
    pi_of_expr,
    pi_pointed_gauge_m0,
    pi_pointed_gauge_plocal,
    pi_with_coefficients,
    run_query,
    s7_decompose_trivial,
    s7_gauge_equivalent,
    su5_gauge_equivalent_m0,
)
from bundlegauge.manifolds import normalize
from bundlegauge.spaces import (
    gauge_s4,
    lie,
    localized,
    loop,
    map_star_y,
    mod_loop,
    moore,
    product,
    x_fiber,
)
from bundlegauge.tables import LieGroupId

SU2 = LieGroupId("SU", 2)
SU3 = LieGroupId("SU", 3)
SU4 = LieGroupId("SU", 4)
SP2 = LieGroupId("Sp", 2)
G2 = LieGroupId("G2")
E6 = LieGroupId("E6")
E7 = LieGroupId("E7")
E8 = LieGroupId("E8")
SPIN8 = LieGroupId("Spin", 8)

Z = make_group(1, [])


class TestUnpointedTorsionFree:
    def test_trivial_twist_expands(self):
        result = decompose_unpointed_m0(SU4, 12, 1)
        assert result.expr == product(
            gauge_s4(SU4, 1), loop(3, lie(SU4)), loop(7, lie(SU4))
        )
        assert result.expr.render() == "G^1(S^4) x O^3[SU(4)] x O^7[SU(4)]"
        assert result.caveats

    def test_nonzero_twist_stays_symbolic(self):
        result = decompose_unpointed_m0(SP2, 5, 0)
        assert result.expr == product(gauge_s4(SP2, 0), map_star_y(5, SP2))
        assert any("Map*" in c for c in result.caveats)

    def test_exceptional_group(self):
        result = decompose_unpointed_m0(E8, 0, 3)
        assert result.expr == product(
            gauge_s4(E8, 3), loop(3, lie(E8)), loop(7, lie(E8))
        )

    def test_pi6_gate(self):
        with pytest.raises(OutOfScopeError):
            decompose_unpointed_m0(SU2, 0, 0)


class TestPointedTorsionFree:
    def test_trivial_twist(self):
        result = decompose_pointed_m0(SU4, 0, 7)
        assert result.expr == product(
            loop(4, lie(SU4)), loop(3, lie(SU4)), loop(7, lie(SU4))
        )

    def test_nonzero_twist(self):
        result = decompose_pointed_m0(LieGroupId("F4"), 3, 0)
        assert result.expr == product(loop(4, lie(LieGroupId("F4"))), map_star_y(3, LieGroupId("F4")))

    def test_k_independence(self):
        assert decompose_pointed_m0(SU4, 5, 0).expr == decompose_pointed_m0(SU4, 5, 5).expr
        assert decompose_pointed_m0(SU4, 0, 0).expr == decompose_pointed_m0(SU4, 0, -9).expr


class TestPlocal:
    def test_prime_to_m_gives_trivial_class_splitting(self):
        result = decompose_plocal(SU4, 1, 6, 0, 5)
        assert result.expr == localized(5, product(loop(7, lie(SU4)), lie(SU4)))
        assert result.loops == 0

    def test_prime_to_m_rejects_other_classes(self):
        with pytest.raises(OutOfScopeError):
            decompose_plocal(SU4, 1, 6, 1, 5)

    def test_looped_with_opaque_fiber(self):
        result = decompose_plocal(SP2, 1, 25, 5, 5)
        assert result.expr == localized(
            5, product(loop(8, lie(SP2), component0=True), x_fiber(SP2, 25, 5))
        )
        assert result.loops == 1
        assert any("fibration" in c for c in result.caveats)

    def test_divisible_class_expands_the_fiber(self):
        result = decompose_plocal(SP2, 1, 25, 0, 5)
        assert result.expr == localized(
            5,
            product(
                loop(8, lie(SP2), component0=True),
                loop(1, lie(SP2)),
                mod_loop(4, SP2, 25, component0=True),
            ),
        )

    def test_divisibility_uses_p_part_only(self):
        # m = 50, r = v_5(50) = 2: k = 25 is divisible by 5^2, k = 5 is not.
        expanded = decompose_plocal(SP2, 1, 50, 25, 5)
        assert not any(a.kind == "x-fiber" for a in expanded.expr.atoms())
        opaque = decompose_plocal(SP2, 1, 50, 5, 5)
        assert "X_5" in opaque.expr.render()

    def test_pointed_trivial_class(self):
        result = decompose_plocal(SU4, 1, 25, 0, 5, pointed=True)
        assert result.expr == localized(
            5, product(mod_loop(3, SU4, 25), loop(7, lie(SU4)))
        )

    def test_pointed_looped_any_class(self):
        result = decompose_plocal(SU4, 1, 25, 3, 5, pointed=True)
        assert result.loops == 1
        assert result.expr == localized(
            5, product(mod_loop(4, SU4, 25), loop(8, lie(SU4)))
        )

    def test_pointed_unlooped_nonzero_class_unknown(self):
        with pytest.raises(UnknownValueError):
            decompose_plocal(SU4, 1, 25, 3, 5, pointed=True, looped=False)

    def test_pointed_collapses_when_r_is_zero(self):
        result = decompose_plocal(SU4, 1, 6, 0, 5, pointed=True)
        assert result.expr == localized(5, loop(7, lie(SU4)))

    def test_preconditions(self):
        with pytest.raises(OutOfScopeError):
            decompose_plocal(SU4, 1, 25, 0, 3)
        with pytest.raises(OutOfScopeError):
            decompose_plocal(SU4, 1, 1, 0, 5)
        with pytest.raises(OutOfScopeError):
            decompose_plocal(SU2, 1, 25, 0, 5)
        with pytest.raises(ValueError):
            decompose_plocal(SU4, 1, 25, 0, 6)


class TestS7Decomposition:
    def test_splits_for_pi6_zero(self):
        assert s7_decompose_trivial(SP2) == product(loop(7, lie(SP2)), lie(SP2))
        assert s7_decompose_trivial(E6) == product(loop(7, lie(E6)), lie(E6))

    def test_refuses_multiple_bundle_classes(self):
        with pytest.raises(OutOfScopeError):
            s7_decompose_trivial(SU2)


class TestPiPointedTorsionFree:
    def test_sp2_components(self):
        value = pi_pointed_gauge_m0(SP2, 0, 1, 0)
        assert value.complete
        assert value.group == make_group(2, [2])

    def test_e7_component_row(self):
        value = pi_pointed_gauge_m0(E7, 12, 0, 0)
        assert value.group == Z

    def test_symbolic_remainder_for_nonzero_twist(self):
        value = pi_pointed_gauge_m0(SU4, 7, 0, 1)
        assert value.group == Z  # pi_5(SU(4))
        assert value.symbolic == ("pi_1(Map*(Y_5, SU(4)))",)

    def test_table_gap_is_reported(self):
        with pytest.raises(UnknownValueError, match="pi_10"):
            pi_pointed_gauge_m0(SU4, 0, 0, 3)


class TestPi0UnpointedTorsionFree:
    def test_rows(self):
        assert pi0_unpointed_gauge_m0(SPIN8, 0) == make_group(3, [])
        assert pi0_unpointed_gauge_m0(LieGroupId("Sp", 3), 0) == make_group(2, [2])
        assert pi0_unpointed_gauge_m0(LieGroupId("SU", 6), 12) == make_group(2, [])
        assert pi0_unpointed_gauge_m0(LieGroupId("Spin", 5), 0) == make_group(2, [2])
        assert pi0_unpointed_gauge_m0(E8, -24) == Z

    def test_requires_zero_twist(self):
        with pytest.raises(OutOfScopeError):
            pi0_unpointed_gauge_m0(SPIN8, 5)

    def test_requires_pi6_zero(self):
        with pytest.raises(OutOfScopeError):
            pi0_unpointed_gauge_m0(G2, 0)


class TestPiWithCoefficients:
    def test_free_pi3_gives_full_cyclic(self):
        result = pi_with_coefficients(SU4, 3, 5, 2)
        assert result.group == make_group(0, [25])
        assert not result.extension_split_assumed

    def test_two_torsion_dies_at_five(self):
        result = pi_with_coefficients(SP2, 4, 5, 1)
        assert result.group.is_trivial

    def test_zero_groups(self):
        assert pi_with_coefficients(E7, 5, 5, 1).group.is_trivial

    def test_r_zero_collapses(self):
        assert pi_with_coefficients(SU4, 3, 5, 0).group.is_trivial

    def test_small_primes_rejected(self):
        with pytest.raises(OutOfScopeError):
            pi_with_coefficients(SU4, 3, 3, 1)

    def test_flag_never_fires_in_table_range_at_p_ge_5(self):
        for g in (SU4, SP2, SPIN8, E8):
            for i in range(1, 9):
                for p in (5, 7, 11):
                    assert not pi_with_coefficients(g, i, p, 2).extension_split_assumed


class TestPiOfExpr:
    def test_product_sums(self):
        expr = product(loop(3, lie(SU4)), loop(7, lie(SU4)))
        assert pi_of_expr(expr, 0).group == make_group(2, [])

    def test_component0_kills_pi0_only(self):
        expr = loop(8, lie(SP2), component0=True)
        assert pi_of_expr(expr, 0).group.is_trivial
        assert pi_of_expr(expr, 1).group == pi_of_expr(loop(8, lie(SP2)), 1).group

    def test_localization_applied(self):
        expr = localized(5, loop(3, lie(SU4)))
        assert pi_of_expr(expr, 0).group == localize(Z, 5)

    def test_opaque_atoms_stay_symbolic(self):
        expr = product(gauge_s4(SU4, 2), loop(3, lie(SU4)))
        value = pi_of_expr(expr, 1)
        assert value.symbolic == ("pi_1(G^2(S^4))",)
        assert value.group.is_trivial  # pi_4(SU(4)) = 0

    def test_map_star_with_zero_twist_expands(self):
        # pi_0 resolves to pi_3(Sp(2)) + pi_7(Sp(2)) = Z + Z.
        value = pi_of_expr(map_star_y(0, SP2), 0)
        assert value.group == make_group(2, [])

    def test_mod_loop_extension_flag_surfaces_as_note(self):
        # Integrally, pi_5(SU(2)) x Z_12 and Tor(pi_4(SU(2)), Z_12) are both Z_2.
        value = pi_of_expr(mod_loop(4, SU2, 12), 1)
        assert value.group == make_group(0, [2, 2])
        assert value.notes

    def test_moore_pi6(self):
        assert pi_of_expr(moore(4, 5), 6).group == make_group(0, [5])


class TestPiPointedPlocal:
    def test_su4_row(self):
        result = pi_pointed_gauge_plocal(SU4, 5, 0, 0, 5)
        assert result.group == localize(make_group(1, [5]), 5)
        assert result.group.render() == "Z_(5) + Z_5"

    def test_e8_row(self):
        result = pi_pointed_gauge_plocal(E8, 5, 0, 0, 5)
        assert result.group == localize(make_group(0, [5]), 5)

    def test_spin8_row(self):
        result = pi_pointed_gauge_plocal(SPIN8, 5, 0, 0, 5)
        assert result.group == localize(make_group(2, [5]), 5)

    def test_valuation_extracted_from_composite_m(self):
        result = pi_pointed_gauge_plocal(SU4, 2 * 3 * 49, 0, 0, 7)
        assert result.group == localize(make_group(1, [49]), 7)

    def test_r_zero_matches_decomposition_expansion(self):
        direct = pi_pointed_gauge_plocal(SU4, 6, 0, 0, 5)
        expanded = pi_of_expr(
            decompose_plocal(SU4, 0, 6, 0, 5, pointed=True).expr, 0
        )
        assert expanded.complete and expanded.group == direct.group
        assert direct.group == localize(Z, 5)

    def test_nonzero_class_is_looped_automatically(self):
        result = pi_pointed_gauge_plocal(SP2, 25, 5, 0, 5)
        assert result == pi_pointed_gauge_plocal(SP2, 25, 5, 0, 5, looped=True)
        # pi_4(Sp(2); Z_25) = 0 and pi_8(Sp(2)) = 0.
        assert result.group.is_trivial

    def test_unlooped_nonzero_class_unknown(self):
        with pytest.raises(UnknownValueError):
            pi_pointed_gauge_plocal(SP2, 25, 5, 0, 5, looped=False)

    def test_pi0_unpointed_wrapper(self):
        assert pi0_unpointed_gauge_plocal(SU4, 5, 0, 5) == localize(
            make_group(1, [5]), 5
        )
        with pytest.raises(UnknownValueError):
            pi0_unpointed_gauge_plocal(SU4, 5, 2, 5)

    def test_pi0_unpointed_reads_the_class_mod_m(self):
        trivial = pi0_unpointed_gauge_plocal(SU4, 25, 0, 5)
        assert trivial == localize(make_group(1, [25]), 5)
        assert pi0_unpointed_gauge_plocal(SU4, 25, 25, 5) == trivial
        assert pi0_unpointed_gauge_plocal(SU4, 25, -50, 5) == trivial


class TestS7Equivalence:
    def test_su2_integral_decisions(self):
        assert s7_gauge_equivalent(SU2, 1, 2, "integral").verdict == "equivalent"
        assert s7_gauge_equivalent(SU2, 0, 1, "integral").verdict == "not-equivalent"
        assert s7_gauge_equivalent(SU2, 0, 9, "integral").verdict == "equivalent"

    def test_classes_reduced_mod_pi6_order(self):
        assert s7_gauge_equivalent(SU2, 1, 13, "integral").verdict == "equivalent"
        assert s7_gauge_equivalent(SU2, 12, 0, "integral").verdict == "equivalent"

    def test_su2_localized_only_one_direction(self):
        assert s7_gauge_equivalent(SU2, 1, 2, 5).verdict == "equivalent"
        assert s7_gauge_equivalent(SU2, 0, 1, 5).verdict == "out-of-scope"

    def test_g2_needs_localization(self):
        assert s7_gauge_equivalent(G2, 0, 1, "integral").verdict == "out-of-scope"
        assert s7_gauge_equivalent(G2, 1, 2, "rational").verdict == "equivalent"
        assert s7_gauge_equivalent(G2, 0, 1, 2).verdict == "not-equivalent"

    def test_su3_prime_two_open(self):
        assert s7_gauge_equivalent(SU3, 0, 3, 2).verdict == "out-of-scope"
        assert s7_gauge_equivalent(SU3, 0, 3, 3).verdict == "equivalent"
        assert s7_gauge_equivalent(SU3, 0, 1, "rational").verdict == "not-equivalent"

    def test_single_class_groups_carry_their_splitting(self):
        decision = s7_gauge_equivalent(SP2, 4, 9, "integral")
        assert decision.verdict == "equivalent"
        assert decision.expr == product(loop(7, lie(SP2)), lie(SP2))

    def test_sp1_follows_su2(self):
        assert (
            s7_gauge_equivalent(LieGroupId("Sp", 1), 0, 1, "integral").verdict
            == "not-equivalent"
        )

    def test_bad_locality_rejected(self):
        with pytest.raises(ValueError):
            s7_gauge_equivalent(SU2, 0, 1, 6)

    def test_no_rule_for_other_groups_with_pi6_nonzero(self, tmp_path, monkeypatch):
        # Only an override table gives a group other than SU(2), SU(3)
        # and G2 a nonzero pi_6; no gcd rule covers it.
        alt = tmp_path / "su4.txt"
        alt.write_text("SU4 | 6 | Z_2 | test\n", encoding="utf-8")
        monkeypatch.setenv("BUNDLEGAUGE_TABLES", str(alt))
        for locality in ("integral", "rational", 2, 5):
            decision = s7_gauge_equivalent(SU4, 0, 1, locality)
            assert (decision.verdict, decision.rule) == ("out-of-scope", None), locality


class TestSu5Rule:
    def test_equal_gcds(self):
        assert su5_gauge_equivalent_m0(1, 121).verdict == "equivalent-locally"
        assert su5_gauge_equivalent_m0(0, 120).verdict == "equivalent-locally"

    def test_unequal_gcds_undecided(self):
        assert su5_gauge_equivalent_m0(2, 3).verdict == "undecided"


class TestResultInvariants:
    def test_opaque_atoms_require_caveats(self):
        with pytest.raises(ValueError):
            DecompositionResult(gauge_s4(SU4, 1), (), "tag", "x")
        with pytest.raises(ValueError):
            DecompositionResult(map_star_y(3, SU4), (), "tag", "x")


class TestRunQuery:
    def test_dispatch_m0(self):
        bundle = reduce_class(SU4, normalize(12, 0), 1)
        result = run_query(GaugeQuery(bundle))
        assert result.expr.render() == "G^1(S^4) x O^3[SU(4)] x O^7[SU(4)]"
        pointed = run_query(GaugeQuery(bundle, pointed=True))
        assert "O^4[SU(4)]" in pointed.expr.render()

    def test_dispatch_m1(self):
        bundle = reduce_class(SP2, normalize(0, 1), 0)
        result = run_query(GaugeQuery(bundle))
        assert result.expr == product(loop(7, lie(SP2)), lie(SP2))

    def test_dispatch_plocal(self):
        bundle = reduce_class(SP2, normalize(0, 25), 5)
        result = run_query(GaugeQuery(bundle, locality=5))
        assert result.loops == 1

    def test_m0_with_localization_rejected(self):
        bundle = reduce_class(SU4, normalize(0, 0), 0)
        with pytest.raises(OutOfScopeError):
            run_query(GaugeQuery(bundle, locality=5))

    @pytest.mark.parametrize("m,locality", [(0, "integral"), (10, 7)])
    def test_looped_needs_pointed(self, m, locality):
        bundle = reduce_class(SU4, normalize(0, m), 0)
        with pytest.raises(ValueError, match="looped.*pointed"):
            run_query(GaugeQuery(bundle, looped=1, locality=locality))

    def test_pointed_and_looped_at_m0_is_the_pointed_splitting(self):
        bundle = reduce_class(SU4, normalize(12, 0), 1)
        looped = run_query(GaugeQuery(bundle, pointed=True, looped=1))
        assert looped == run_query(GaugeQuery(bundle, pointed=True))

    def test_m1_refuses_what_it_does_not_answer(self):
        bundle = reduce_class(SU4, normalize(0, 1), 0)
        with pytest.raises(ValueError, match="pointed"):
            run_query(GaugeQuery(bundle, pointed=True, looped=1, locality=5))
        with pytest.raises(ValueError, match="pointed"):
            run_query(GaugeQuery(bundle, pointed=True))
        with pytest.raises(OutOfScopeError, match="integral"):
            run_query(GaugeQuery(bundle, locality=5))

    def test_unset_looped_loops_a_nontrivial_class(self):
        bundle = reduce_class(SU4, normalize(2, 25), 3)
        chosen = run_query(GaugeQuery(bundle, pointed=True, looped=None, locality=5))
        assert chosen.loops == 1
        assert chosen == decompose_plocal(SU4, 2, 25, 3, 5, pointed=True, looped=True)
        with pytest.raises(UnknownValueError):
            run_query(GaugeQuery(bundle, pointed=True, locality=5))

    def test_torsion_without_prime_rejected(self):
        bundle = reduce_class(SU4, normalize(0, 9), 0)
        with pytest.raises(OutOfScopeError):
            run_query(GaugeQuery(bundle))
