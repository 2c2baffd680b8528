"""Canonical symbolic expressions for homotopy types.

An expression is a tree over a fixed set of atoms (spheres, Moore
spaces, Lie groups, loop spaces, mod-m loop spaces, mapping spaces and a
few opaque fibers) joined by products, wedges and a localization tag.
Products and wedges are flattened and sorted by a fixed total order on
atoms, so two decompositions are "the same" exactly when their canonical
trees are equal.

Every node is a SpaceExpr(kind, args).  The table KINDS gives each kind
its rank in the sort order, its text form and its JSON tree; the
canonical constructors below check the arguments and are the only way
to build a node.

Collapsing rules are deliberately minimal: the point is a unit for both
connectives, P^n(1) and the mod-1 loop space collapse to the point, and
nothing else is rewritten.  In particular a based loop space and its
basepoint component stay distinct atoms.

Text grammar (documented in docs/expression-grammar.md):

    S^4 v S^7                product: " x ", wedge: " v "
    P^5(25) v S^8 @ (5)      localization binds loosest
    G^1(S^4) x O^3[SU(4)] x O^7[SU(4)]
"""

from __future__ import annotations

from collections import namedtuple

from .abelian import Prime
from .tables import LieGroupId

__all__ = [
    "SpaceExpr",
    "KINDS",
    "POINT",
    "sphere",
    "moore",
    "lie",
    "loop",
    "mod_loop",
    "map_star_y",
    "gauge_s4",
    "x_fiber",
    "y_cofiber",
    "product",
    "wedge",
    "localized",
]


class SpaceExpr(namedtuple("SpaceExpr", "kind args", defaults=((),))):
    """One node: a kind of KINDS and its arguments, stored in sort order.
    Arguments are integers, flags, Lie groups, nodes, or (for products
    and wedges) a sorted tuple of nodes.

    Nodes compare in the canonical order, by sort key, not as tuples.
    """

    __slots__ = ()

    def render(self) -> str:
        kind, args = self
        return KINDS[kind].render(*args)

    def to_json(self) -> dict:
        kind, args = self
        return KINDS[kind].json(*args)

    def sort_key(self) -> tuple:
        """The kind's rank, then the arguments: a child node compares by
        its own sort key, a Lie group by (family, n)."""
        kind, args = self
        return (KINDS[kind].rank, *args)

    def __lt__(self, other):
        return self.sort_key() < other.sort_key()

    def __le__(self, other):
        return self.sort_key() <= other.sort_key()

    def __gt__(self, other):
        return self.sort_key() > other.sort_key()

    def __ge__(self, other):
        return self.sort_key() >= other.sort_key()

    def atoms(self):
        """Iterate over the leaf atoms: every node below the connectives."""
        if self.kind == "localized":
            yield from self.args[1].atoms()
        elif self.kind in ("product", "wedge"):
            for part in self.args[0]:
                yield from part.atoms()
        else:
            yield self

    __str__ = render


def _operand(expr: SpaceExpr) -> str:
    text = KINDS[expr.kind].render(*expr.args)
    return f"({text})" if expr.kind in ("product", "wedge", "localized") else text


# Each kind's rank in the canonical order, then its text and its JSON
# tree as functions of the node's arguments.  The functions reach a
# child node's row directly, not through its methods, which keeps one
# call per node.  A loop space or a mod-m loop space marks its basepoint
# component with the subscript _0.
Kind = namedtuple("Kind", "rank render json")
KINDS: dict[str, Kind] = {
    "gauge-s4": Kind(
        0,
        "G^{1}(S^4)".format,
        lambda g, k: {"type": "gauge-s4", "group": g.token(), "k": k},
    ),
    "lie-group": Kind(1, str, lambda g: {"type": "lie-group", "group": g.token()}),
    "loop": Kind(
        2,
        lambda n, c0, x: f"O^{n}{'_0' if c0 else ''}[{KINDS[x.kind].render(*x.args)}]",
        lambda n, c0, x: {
            "type": "loop", "n": n, "component0": c0,
            "inner": KINDS[x.kind].json(*x.args),
        },
    ),
    "mod-loop": Kind(
        3,
        lambda n, c0, g, m: f"O^{n}{'_0' if c0 else ''}[{g}]{{{m}}}",
        lambda n, c0, g, m: {
            "type": "mod-loop", "n": n, "component0": c0, "group": g.token(),
            "modulus": m,
        },
    ),
    "map-star-y": Kind(
        4,
        "Map*(Y_{}, {})".format,
        lambda t, g: {"type": "map-star-y", "t": t, "group": g.token()},
    ),
    "x-fiber": Kind(
        5,
        "X_{}".format,
        lambda k, m, g: {"type": "x-fiber", "group": g.token(), "m": m, "k": k},
    ),
    "moore": Kind(
        6, "P^{}({})".format, lambda n, m: {"type": "moore", "n": n, "m": m}
    ),
    "sphere": Kind(7, "S^{}".format, lambda n: {"type": "sphere", "n": n}),
    "y-cofiber": Kind(
        8,
        lambda s, t: f"{'SY' if s else 'Y'}_{t}",
        lambda s, t: {"type": "y-cofiber", "t": t, "suspended": s},
    ),
    "point": Kind(9, "*".format, lambda: {"type": "point"}),
    "product": Kind(
        10,
        lambda fs: " x ".join(map(_operand, fs)),
        lambda fs: {
            "type": "product", "factors": [KINDS[f.kind].json(*f.args) for f in fs]
        },
    ),
    "wedge": Kind(
        11,
        lambda ss: " v ".join(map(_operand, ss)),
        lambda ss: {
            "type": "wedge", "summands": [KINDS[s.kind].json(*s.args) for s in ss]
        },
    ),
    "localized": Kind(
        12,
        lambda p, x: f"{KINDS[x.kind].render(*x.args)} @ ({p})",
        lambda p, x: {
            "type": "localized", "p": p, "inner": KINDS[x.kind].json(*x.args)
        },
    ),
}

POINT = SpaceExpr("point")


# Canonical constructors: they check the arguments, apply the collapsing
# rules and the sort order.


def sphere(n: int) -> SpaceExpr:
    if n < 1:
        raise ValueError("sphere dimension must be >= 1")
    return SpaceExpr("sphere", (n,))


def moore(n: int, m: int) -> SpaceExpr:
    """P^n(m): single reduced homology group Z_m in degree n-1; the
    degree-1 attaching map gives a contractible space."""
    if m == 1:
        return POINT
    if n < 2 or m < 2:
        raise ValueError("Moore space needs n >= 2 and m >= 2")
    return SpaceExpr("moore", (n, m))


def lie(group: LieGroupId) -> SpaceExpr:
    return SpaceExpr("lie-group", (group,))


def loop(n: int, inner: SpaceExpr, component0: bool = False) -> SpaceExpr:
    """O^n[X], or its basepoint component O^n_0[X] when component0 is set."""
    if inner.kind == "point":
        return POINT
    if n < 1:
        raise ValueError("loop degree must be >= 1")
    return SpaceExpr("loop", (n, component0, inner))


def mod_loop(
    n: int, group: LieGroupId, modulus: int, component0: bool = False
) -> SpaceExpr:
    """The mod-m loop space O^n[G]{m}: maps from P^{n+1}(m) to BG, the
    fiber of the m-th power map on the n-fold loop space of G.  Modulus 1
    collapses to the point."""
    if modulus == 1:
        return POINT
    if n < 1 or modulus < 2:
        raise ValueError("mod loop space needs n >= 1 and modulus >= 2")
    return SpaceExpr("mod-loop", (n, component0, group, modulus))


def map_star_y(t: int, group: LieGroupId) -> SpaceExpr:
    """Map_*(Y_t, G) where Y_t is the three-cell complex S^3 u e^7
    attached by t times a generator of pi_6(S^3) = Z_12.

    The twist t is always the canonical representative in 0..6.  For
    t = 0 the space splits and the decomposition routines expand it, so
    an atom with t = 0 should not normally appear in results.
    """
    if not 0 <= t <= 6:
        raise ValueError("twist class must be the canonical value in 0..6")
    return SpaceExpr("map-star-y", (t, group))


def gauge_s4(group: LieGroupId, k: int) -> SpaceExpr:
    """G^k(S^4): the gauge group over S^4 of the class-k bundle, kept opaque."""
    return SpaceExpr("gauge-s4", (group, k))


def x_fiber(group: LieGroupId, m: int, k: int) -> SpaceExpr:
    """The opaque total space X_k of the fibration
    O^4_0[G]{m} -> X_k -> O^1[G]; known only through that fibration
    unless p^r divides k."""
    return SpaceExpr("x-fiber", (k, m, group))


def y_cofiber(t: int, suspended: bool = False) -> SpaceExpr:
    """Y_t (or its suspension SY_t): cofiber of t times a generator of
    pi_6(S^3), with t the canonical twist in 0..6."""
    if not 0 <= t <= 6:
        raise ValueError("twist class must be the canonical value in 0..6")
    return SpaceExpr("y-cofiber", (suspended, t))


def _connect(kind: str, parts: tuple[SpaceExpr, ...]) -> SpaceExpr:
    """Flatten nested nodes of the same connective, drop points, sort."""
    flat: list[SpaceExpr] = []
    for part in parts:
        if part.kind == kind:
            flat.extend(part.args[0])
        elif part.kind != "point":
            flat.append(part)
    if not flat:
        return POINT
    if len(flat) == 1:
        return flat[0]
    flat.sort(key=SpaceExpr.sort_key)
    return SpaceExpr(kind, (tuple(flat),))


def product(*factors: SpaceExpr) -> SpaceExpr:
    """Flattened, sorted product; the point is the unit."""
    return _connect("product", factors)


def wedge(*summands: SpaceExpr) -> SpaceExpr:
    """Flattened, sorted wedge; the point is the unit."""
    return _connect("wedge", summands)


def localized(p: int, inner: SpaceExpr) -> SpaceExpr:
    """Tag an expression as p-local.  Idempotent at the same prime."""
    Prime(p)  # refuses a p that is not prime
    if inner.kind == "point":
        return POINT
    if inner.kind == "localized":
        if inner.args[0] == p:
            return inner
        raise ValueError(
            f"expression is already local at {inner.args[0]}, cannot localize at {p}"
        )
    return SpaceExpr("localized", (p, inner))
