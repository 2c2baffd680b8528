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


class TestOrder:
    EXPRS = [
        sphere(3),
        sphere(4),
        lie(SU4),
        loop(3, lie(SU4)),
        localized(5, sphere(3)),
        moore(5, 25),
        wedge(sphere(4), sphere(8)),
    ]

    @pytest.mark.parametrize("a", EXPRS, ids=lambda e: e.render())
    @pytest.mark.parametrize("b", EXPRS, ids=lambda e: e.render())
    def test_all_four_comparisons_follow_the_sort_key(self, a, b):
        ka, kb = a.sort_key(), b.sort_key()
        assert (a < b, a <= b, a > b, a >= b) == (ka < kb, ka <= kb, ka > kb, ka >= kb)

    def test_tuple_order_would_disagree(self):
        # A node is a namedtuple, so without its own comparisons "<=" would
        # compare kind names: "localized" sorts before "loop" as text.
        a, b = loop(3, lie(SU4)), localized(5, sphere(3))
        assert a <= b and not tuple.__le__(a, b)
        assert b >= a and not tuple.__ge__(b, a)


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


class TestTwistZeroSplits:
    """Y_0 = S^3 v S^7, so the constructors build no atom with t = 0."""

    @pytest.mark.parametrize("g", [SU4, SP2, LieGroupId("E8")])
    def test_map_star_y0_is_a_product_of_loop_spaces(self, g):
        assert map_star_y(0, g) == product(loop(3, lie(g)), loop(7, lie(g)))

    @pytest.mark.parametrize("suspended,dims", [(False, (3, 7)), (True, (4, 8))])
    def test_y0_is_a_wedge_of_spheres(self, suspended, dims):
        assert y_cofiber(0, suspended) == wedge(sphere(dims[0]), sphere(dims[1]))


@pytest.mark.parametrize(
    "build",
    [
        lambda: sphere(3.0),
        lambda: sphere(True),
        lambda: moore(4, 5.0),
        lambda: moore(4.0, 5),
        lambda: moore(4, True),
        lambda: loop(2.0, lie(SU4)),
        lambda: loop(True, lie(SU4)),
        lambda: mod_loop(True, SU4, 5),
        lambda: mod_loop(3, SU4, 5.0),
        lambda: map_star_y(True, SU4),
        lambda: map_star_y(False, SU4),
        lambda: map_star_y(5.0, SU4),
        lambda: y_cofiber(1.0),
        lambda: y_cofiber(True, suspended=True),
        lambda: gauge_s4(SU4, 1.0),
        lambda: gauge_s4(SU4, True),
        lambda: x_fiber(SU4, 25.0, 7),
        lambda: x_fiber(SU4, 25, 7.0),
        lambda: x_fiber(SU4, True, 7),
    ],
    ids=[
        "sphere-float", "sphere-bool", "moore-float-m", "moore-float-n",
        "moore-bool-m", "loop-float", "loop-bool", "mod-loop-bool-n",
        "mod-loop-float-modulus", "map-star-y-true", "map-star-y-false",
        "map-star-y-float", "y-cofiber-float", "y-cofiber-bool",
        "gauge-s4-float-k", "gauge-s4-bool-k", "x-fiber-float-m",
        "x-fiber-float-k", "x-fiber-bool-m",
    ],
)
def test_a_non_int_argument_is_refused(build):
    with pytest.raises(ValueError, match="int"):
        build()


@pytest.mark.parametrize(
    "build",
    [
        lambda: loop(3, lie(SU4), component0=2),
        lambda: loop(3, lie(SU4), component0=1),
        lambda: mod_loop(4, SU4, 25, component0=2),
        lambda: mod_loop(4, SU4, 1, component0=0),
        lambda: y_cofiber(5, suspended=2),
        lambda: y_cofiber(0, suspended=1),
    ],
    ids=["loop-2", "loop-1", "mod-loop-2", "mod-loop-collapsed-0", "y-cofiber-2",
         "y-cofiber-split-1"],
)
def test_a_non_bool_flag_is_refused(build):
    # A flag that is not a bool would render like one but compare unequal to it.
    with pytest.raises(ValueError, match="bool"):
        build()


@pytest.mark.parametrize(
    "build",
    [
        lambda: lie("SU4"),
        lambda: lie(("SU", 4)),
        lambda: mod_loop(3, "SU4", 5),
        lambda: mod_loop(3, ("SU", 4), 1),
        lambda: map_star_y(3, "SU4"),
        lambda: gauge_s4(("SU", 4), 1),
        lambda: x_fiber("SU4", 25, 7),
    ],
    ids=["lie-str", "lie-tuple", "mod-loop-str", "mod-loop-collapsed-tuple",
         "map-star-y-str", "gauge-s4-tuple", "x-fiber-str"],
)
def test_a_group_that_is_no_lie_group_id_is_refused(build):
    # A string would render unlike the grammar and fail in to_json.
    with pytest.raises(ValueError, match="LieGroupId"):
        build()


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
