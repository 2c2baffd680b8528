import pytest

from bundlegauge.spaces import (
    POINT,
    gauge_s4,
    lie,
    localized,
    loop,
    map_star_y,
    mod_loop,
    moore,
    product,
    sphere,
    wedge,
    x_fiber,
    y_cofiber,
)
from bundlegauge.tables import LieGroupId

SU4 = LieGroupId("SU", 4)
SP2 = LieGroupId("Sp", 2)


class TestCanonicalization:
    def test_products_flatten_and_sort(self):
        a = product(loop(7, lie(SU4)), product(loop(3, lie(SU4)), gauge_s4(SU4, 1)))
        b = product(gauge_s4(SU4, 1), loop(3, lie(SU4)), loop(7, lie(SU4)))
        assert a == b
        assert a.kind == "product"

    def test_wedges_flatten_and_sort(self):
        assert wedge(sphere(8), wedge(sphere(4), sphere(5))) == wedge(
            sphere(4), sphere(5), sphere(8)
        )

    def test_point_is_the_unit(self):
        assert product(POINT, lie(SU4)) == lie(SU4)
        assert wedge(POINT, sphere(4), POINT) == sphere(4)
        assert product() == POINT
        assert wedge(POINT) == POINT

    def test_singleton_collapses(self):
        assert product(sphere(4)) == sphere(4)

    def test_moore_degree_one_is_contractible(self):
        assert moore(5, 1) == POINT
        assert wedge(moore(5, 1), sphere(8)) == sphere(8)

    def test_mod_loop_modulus_one_is_contractible(self):
        assert mod_loop(3, SU4, 1) == POINT

    def test_component_atoms_stay_distinct(self):
        assert loop(8, lie(SU4)) != loop(8, lie(SU4), component0=True)
        assert mod_loop(4, SU4, 25) != mod_loop(4, SU4, 25, component0=True)

    def test_localized_idempotent_same_prime(self):
        e = localized(5, sphere(8))
        assert localized(5, e) == e

    def test_localized_conflicting_primes_rejected(self):
        with pytest.raises(ValueError):
            localized(7, localized(5, sphere(8)))

    def test_localized_needs_prime(self):
        with pytest.raises(ValueError):
            localized(6, sphere(8))


class TestRendering:
    @pytest.mark.parametrize(
        "expr,text",
        [
            (wedge(sphere(4), sphere(7)), "S^4 v S^7"),
            (
                localized(5, wedge(moore(5, 25), sphere(8))),
                "P^5(25) v S^8 @ (5)",
            ),
            (
                product(loop(3, lie(SU4)), loop(7, lie(SU4))),
                "O^3[SU(4)] x O^7[SU(4)]",
            ),
            (
                product(gauge_s4(SU4, 1), loop(3, lie(SU4)), loop(7, lie(SU4))),
                "G^1(S^4) x O^3[SU(4)] x O^7[SU(4)]",
            ),
            (loop(8, lie(SP2), component0=True), "O^8_0[Sp(2)]"),
            (mod_loop(4, SP2, 25, component0=True), "O^4_0[Sp(2)]{25}"),
            (map_star_y(5, SP2), "Map*(Y_5, Sp(2))"),
            (x_fiber(SP2, 25, 5), "X_5"),
            (y_cofiber(2, suspended=True), "SY_2"),
            (POINT, "*"),
        ],
    )
    def test_text(self, expr, text):
        assert expr.render() == text

    def test_nested_operands_parenthesized(self):
        e = product(wedge(sphere(3), sphere(4)), lie(SU4))
        assert e.render() == "SU(4) x (S^3 v S^4)"

    def test_json_tree_shape(self):
        tree = localized(5, product(loop(7, lie(SU4)), lie(SU4))).to_json()
        assert tree["type"] == "localized" and tree["p"] == 5
        assert tree["inner"]["type"] == "product"
        kinds = [f["type"] for f in tree["inner"]["factors"]]
        assert kinds == ["lie-group", "loop"]


class TestValidation:
    def test_sphere_dimension(self):
        with pytest.raises(ValueError):
            sphere(0)

    def test_moore_degree(self):
        with pytest.raises(ValueError):
            moore(1, 3)
        with pytest.raises(ValueError):
            moore(4, 0)

    def test_twist_range(self):
        with pytest.raises(ValueError):
            map_star_y(7, SU4)
        with pytest.raises(ValueError):
            y_cofiber(-1)


@pytest.mark.parametrize(
    "build,fragment",
    [
        (lambda: loop(0, sphere(3)), "loop degree must be >= 1"),
        (lambda: mod_loop(0, SU4, 5), "mod loop space needs n >= 1"),
        (lambda: localized(4, sphere(3)), "4 is not prime"),
    ],
)
def test_constructor_refusals(build, fragment):
    with pytest.raises(ValueError, match=fragment):
        build()
