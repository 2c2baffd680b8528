"""Properties of the canonical order, over random trees built only from
the public constructors.

Products and wedges must not depend on how their operands were listed
or grouped, operands must render in the rank order that
docs/expression-grammar.md documents, and two canonical trees must be
equal exactly when their text and JSON forms are.  The kinds table of
that document must match the ranks, fields and trees of the code.
"""

from __future__ import annotations

import re
from pathlib import Path

from hypothesis import given, strategies as st

from bundlegauge.spaces import (
    POINT,
    SpaceExpr,
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

# Small parameter ranges, so that random trees often coincide.
GROUPS = st.sampled_from(
    [LieGroupId("SU", 2), LieGroupId("SU", 4), LieGroupId("Sp", 2), LieGroupId("G2")]
)
DEGREES = st.integers(1, 3)

SIMPLE = st.one_of(
    st.builds(sphere, DEGREES),
    st.builds(moore, st.integers(2, 4), st.integers(2, 3)),
    st.builds(lie, GROUPS),
)

ATOMS = st.one_of(
    SIMPLE,
    st.builds(loop, DEGREES, SIMPLE, st.booleans()),
    st.builds(mod_loop, DEGREES, GROUPS, st.integers(2, 3), st.booleans()),
    st.builds(map_star_y, st.integers(1, 6), GROUPS),
    st.builds(gauge_s4, GROUPS, st.integers(-1, 1)),
    st.builds(x_fiber, GROUPS, st.integers(2, 3), st.integers(0, 2)),
    st.builds(y_cofiber, st.integers(1, 6), st.booleans()),
)


def _localized(p, inner):
    try:
        return localized(p, inner)
    except ValueError:  # already local at the other prime
        return inner


def _extend(children):
    operands = st.lists(children, max_size=4)
    return st.one_of(
        st.builds(loop, DEGREES, children, st.booleans()),
        operands.map(lambda xs: product(*xs)),
        operands.map(lambda xs: wedge(*xs)),
        st.builds(_localized, st.sampled_from([5, 7]), children),
    )


TREES = st.recursive(
    st.one_of(ATOMS, st.just(POINT), st.builds(moore, st.integers(2, 4), st.just(1))),
    _extend,
    max_leaves=8,
)


class TestConnectivesAreCanonical:
    @given(st.lists(TREES, max_size=5), st.randoms(use_true_random=False), st.integers(0, 5))
    def test_product_ignores_order_and_nesting(self, xs, rnd, cut):
        shuffled = list(xs)
        rnd.shuffle(shuffled)
        expected = product(*xs)
        assert product(*shuffled) == expected
        assert product(product(*shuffled[:cut]), *shuffled[cut:]) == expected
        assert product(*shuffled[:cut], product(*shuffled[cut:])) == expected

    @given(st.lists(TREES, max_size=5), st.randoms(use_true_random=False), st.integers(0, 5))
    def test_wedge_ignores_order_and_nesting(self, xs, rnd, cut):
        shuffled = list(xs)
        rnd.shuffle(shuffled)
        expected = wedge(*xs)
        assert wedge(*shuffled) == expected
        assert wedge(wedge(*shuffled[:cut]), *shuffled[cut:]) == expected
        assert wedge(*shuffled[:cut], wedge(*shuffled[cut:])) == expected


GRAMMAR = Path(__file__).resolve().parents[1] / "docs" / "expression-grammar.md"


def _documented_kinds() -> dict[str, list[str]]:
    """The kinds table of the grammar: type -> fields, in rank order."""
    rows = re.findall(r"^\| (\d+) \| `([a-z0-9-]+)` \|([^|]*)\|", GRAMMAR.read_text(), re.M)
    assert [int(rank) for rank, _, _ in rows] == list(range(len(rows)))
    return {kind: re.findall(r"`(\w+)`", fields) for _, kind, fields in rows}


DOCUMENTED = _documented_kinds()

# Each atom kind recognised by its rendered text.
ATOM_TEXT = {
    "gauge-s4": re.compile(r"G\^-?\d+\(S\^4\)"),
    "lie-group": re.compile(r"(SU|Sp|Spin)\(\d+\)|G2|F4|E6|E7|E8"),
    "loop": re.compile(r"O\^(\d+)(_0)?\[[^\]]*\]"),
    "mod-loop": re.compile(r"O\^\d+(_0)?\[[^\]]*\]\{\d+\}"),
    "map-star-y": re.compile(r"Map\*\(Y_\d, [^)]*\)\)?"),
    "x-fiber": re.compile(r"X_-?\d+"),
    "moore": re.compile(r"P\^\d+\(\d+\)"),
    "sphere": re.compile(r"S\^\d+"),
    "y-cofiber": re.compile(r"S?Y_\d"),
}


def _rank(operand: str) -> int:
    kinds = [kind for kind, pattern in ATOM_TEXT.items() if pattern.fullmatch(operand)]
    assert len(kinds) == 1, operand
    return list(DOCUMENTED).index(kinds[0])


SU4 = LieGroupId("SU", 4)
ONE_OF_EACH = [
    gauge_s4(SU4, 1), lie(SU4), loop(3, lie(SU4)), mod_loop(4, SU4, 25),
    map_star_y(5, SU4), x_fiber(SU4, 25, 5), moore(5, 25), sphere(4), y_cofiber(5),
    POINT, product(sphere(3), sphere(4)), wedge(sphere(3), sphere(4)),
    localized(5, sphere(8)),
]


def _json_value(arg):
    if isinstance(arg, LieGroupId):
        return arg.token()
    if isinstance(arg, SpaceExpr):
        return arg.to_json()
    if isinstance(arg, tuple):
        return [part.to_json() for part in arg]
    return arg


def test_documented_kinds_match_the_code():
    assert sorted(reversed(ONE_OF_EACH)) == ONE_OF_EACH
    for rank, (expr, kind) in enumerate(zip(ONE_OF_EACH, DOCUMENTED, strict=True)):
        tree = expr.to_json()
        fields = DOCUMENTED[kind]
        assert tree["type"] == kind
        assert sorted(tree) == sorted(["type", *fields])
        # The sort key is the rank, then the fields in the documented order.
        assert expr.sort_key()[0] == rank
        assert [_json_value(a) for a in expr.sort_key()[1:]] == [tree[f] for f in fields]


class TestRenderedOrder:
    @given(st.lists(ATOMS, min_size=1, max_size=6))
    def test_operands_render_in_rank_order(self, xs):
        for expr, separator in ((product(*xs), " x "), (wedge(*xs), " v ")):
            operands = expr.render().split(separator)
            ranks = [_rank(op) for op in operands]
            assert ranks == sorted(ranks), operands
            # Loop spaces by degree, the full space before its _0 component.
            loops = [
                (int(m.group(1)), m.group(2) is not None)
                for m in map(ATOM_TEXT["loop"].fullmatch, operands)
                if m
            ]
            assert loops == sorted(loops), operands


# Atoms whose text hides a parameter: X_k shows neither its group nor
# its m, and G^k(S^4) not its group.
HIDDEN_GROUPS = st.sampled_from([LieGroupId("SU", 2), LieGroupId("G2")])
HIDDEN = st.one_of(
    st.builds(x_fiber, HIDDEN_GROUPS, st.integers(2, 3), st.just(1)),
    st.builds(gauge_s4, HIDDEN_GROUPS, st.just(1)),
)


class TestEqualityMatchesForms:
    @staticmethod
    def check(a, b):
        same_forms = a.render() == b.render() and a.to_json() == b.to_json()
        assert (a == b) == same_forms
        if a == b:
            assert hash(a) == hash(b)

    @given(TREES, TREES)
    def test_equal_exactly_when_text_and_json_agree(self, a, b):
        self.check(a, b)

    @given(HIDDEN, HIDDEN)
    def test_equal_text_is_not_enough(self, a, b):
        self.check(a, b)

    @given(st.lists(TREES, min_size=1, max_size=4), st.randoms(use_true_random=False))
    def test_rebuilt_trees_are_equal(self, xs, rnd):
        shuffled = list(xs)
        rnd.shuffle(shuffled)
        for build in (product, wedge):
            a, b = build(*xs), build(*shuffled)
            assert a == b and hash(a) == hash(b)
            assert a.render() == b.render() and a.to_json() == b.to_json()
