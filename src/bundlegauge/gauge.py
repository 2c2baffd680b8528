"""Homotopy decompositions and homotopy groups of gauge groups.

The decision rules implemented here:

* m = 0 (torsion-free base).  The unpointed gauge group of the class-k
  bundle splits as G^k(S^4) x Map_*(Y_t, G) and the pointed one as
  O^4[G] x Map_*(Y_t, G), where t is the canonical twist class of l
  mod 12.  For t = 0 spaces.map_star_y builds it as O^3[G] x O^7[G].
  Pointed splittings do not depend on k.

* m >= 2, localized at a prime p >= 5.  If p does not divide m the
  total space is p-locally S^7 and the trivial-class gauge group splits
  as O^7[G] x G.  If v_p(m) = r >= 1 the looped gauge group splits as
  O^8_0[G] x X_k where X_k is the fiber of a fibration
  O^4_0[G]{m} -> X_k -> O^1[G]; X_k itself splits off O^1[G] exactly
  when p^r divides k.  The pointed gauge group of the trivial class
  splits as O^3[G]{p^r} x O^7[G], and after looping any class gives
  O^4[G]{p^r} x O^8[G].

* m = 1 (the base is S^7).  Gauge groups are compared through gcd
  rules coming from Samelson products: for SU(2) integrally, and for
  G2 / SU(3) at the localizations where the connecting map's order is
  known, classes k and k' give equivalent gauge groups exactly when
  (3, k) = (3, k').  Every other simple group admits a single bundle,
  whose gauge group splits as O^7[G] x G.

Everything opaque (G^k(S^4), Map_*(Y_t, G) with t != 0, X_k without
the divisibility) stays a first-class symbolic atom with a caveat; no
silent expansion is performed.

Homotopy groups have one derivation path: decompose, then read pi_n off
the expression with pi_of_expr.  The pi_* functions below only choose
the decomposition: pi_i(G; Z_{p^r}) is pi_0 of O^i[G]{p^r}, and a
PiValue note marks where the coefficient sequence is assumed to split.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import gcd

from .abelian import (
    AbGroup,
    Prime,
    TRIVIAL,
    direct_sum,
    localize,
    tensor_with_cyclic,
    tor_with_cyclic,
)
from .bundles import require_pi6_zero
from .errors import OutOfScopeError, UnknownValueError
from .manifolds import plocal_valuation, twist_class
from .spaces import (
    SpaceExpr,
    gauge_s4,
    lie,
    localized,
    loop,
    map_star_y,
    mod_loop,
    product,
    x_fiber,
)
from .tables import PI6_MOORE_SOURCE, LieGroupId, PiTable, default_table, pi6, pi6_moore

__all__ = [
    "DecompositionResult",
    "GaugeQuery",
    "PiValue",
    "S7Decision",
    "Su5Decision",
    "decompose_unpointed_m0",
    "decompose_pointed_m0",
    "decompose_plocal",
    "s7_decompose_trivial",
    "pi_of_expr",
    "pi_with_coefficients",
    "pi_pointed_gauge_m0",
    "pi0_unpointed_gauge_m0",
    "pi_pointed_gauge_plocal",
    "pi0_unpointed_gauge_plocal",
    "s7_gauge_equivalent",
    "su5_gauge_equivalent_m0",
    "run_query",
]

_CAVEAT_GAUGE_S4 = (
    "G^k(S^4) is an opaque factor: the splitting reduces the problem to "
    "gauge groups over S^4, it does not resolve them"
)


class DecompositionResult(
    namedtuple("DecompositionResult", "expr caveats rule describes loops")
):
    """A canonical decomposition plus its bookkeeping.

    loops counts the loopings (0 or 1) of the described gauge group,
    describes names it for display, and rule keys its row in tables.RULES.
    """

    __slots__ = ()

    def __new__(
        cls,
        expr: SpaceExpr,
        caveats: tuple[str, ...],
        rule: str,
        describes: str,
        loops: int = 0,
    ) -> DecompositionResult:
        # A caveat satisfies the check, so only a result without one walks the atoms.
        if not caveats and any(
            a.kind in ("gauge-s4", "x-fiber", "map-star-y") for a in expr.atoms()
        ):
            raise ValueError("opaque atoms require an explanatory caveat")
        return super().__new__(cls, expr, caveats, rule, describes, loops)


def _map_star(g: LieGroupId, t: int) -> tuple[SpaceExpr, tuple[str, ...]]:
    """Map_*(Y_t, G), and a caveat when it stays a symbolic atom."""
    expr = map_star_y(t, g)
    if expr.kind != "map-star-y":
        return expr, ()
    caveat = (
        f"Map*(Y_{t}, {g}) has no known closed form for twist {t} != 0 "
        "and is kept symbolic"
    )
    return expr, (caveat,)


def decompose_unpointed_m0(g: LieGroupId, l: int, k: int) -> DecompositionResult:
    """G^k(M(l,0)) = G^k(S^4) x Map_*(Y_t, G)."""
    require_pi6_zero(g)
    map_star, caveats = _map_star(g, twist_class(l))
    return DecompositionResult(
        product(gauge_s4(g, k), map_star), (_CAVEAT_GAUGE_S4, *caveats),
        "unpointed-m0", f"G^{k}(M({l},0))",
    )


def decompose_pointed_m0(g: LieGroupId, l: int, k: int) -> DecompositionResult:
    """G*^k(M(l,0)) = O^4[G] x Map_*(Y_t, G); the answer is k-independent."""
    require_pi6_zero(g)
    map_star, caveats = _map_star(g, twist_class(l))
    return DecompositionResult(
        product(loop(4, lie(g)), map_star), caveats, "pointed-m0",
        f"G*^{k}(M({l},0))",
    )


def decompose_plocal(
    g: LieGroupId,
    l: int,
    m: int,
    k: int,
    p: int,
    pointed: bool = False,
    looped: bool | None = None,
) -> DecompositionResult:
    """p-local decompositions for bases with torsion, p >= 5."""
    require_pi6_zero(g)
    prime = Prime(p)
    r = plocal_valuation(m, prime)
    k = k % m

    if pointed:
        if looped is None:
            looped = k != 0
        if not looped:
            if k != 0:
                raise UnknownValueError(
                    "whether pointed gauge groups of different classes agree "
                    "for m >= 2 is open; only the looped statement covers k != 0"
                )
            expr = localized(prime, product(mod_loop(3, g, p**r), loop(7, lie(g))))
            return DecompositionResult(
                expr, (), "plocal-pointed", f"G*^0(M({l},{m}))"
            )
        expr = localized(prime, product(mod_loop(4, g, p**r), loop(8, lie(g))))
        return DecompositionResult(
            expr,
            (),
            "plocal-pointed-looped",
            f"O^1 G*^{k}(M({l},{m}))",
            loops=1,
        )

    if looped:
        raise ValueError("the unpointed p-local result chooses looping itself")
    if r == 0:
        if k != 0:
            raise OutOfScopeError(
                "for v_p(m) = 0 only the trivial class k = 0 is covered"
            )
        expr = localized(prime, product(loop(7, lie(g)), lie(g)))
        return DecompositionResult(
            expr, (), "plocal-trivial", f"G^0(M({l},{m}))"
        )
    if k % p**r == 0:
        expr = localized(
            prime,
            product(
                loop(8, lie(g), component0=True),
                loop(1, lie(g)),
                mod_loop(4, g, m, component0=True),
            ),
        )
        caveats = (
            f"X_{k} splits as O^1[{g}] x O^4_0[{g}]{{{m}}} because "
            f"{p}^{r} divides k",
        )
    else:
        expr = localized(
            prime, product(loop(8, lie(g), component0=True), x_fiber(g, m, k))
        )
        caveats = (
            f"X_{k} is known only as the total space of a fibration "
            f"O^4_0[{g}]{{{m}}} -> X_{k} -> O^1[{g}]; it splits when "
            f"{p}^{r} divides k, which fails here",
        )
    return DecompositionResult(
        expr, caveats, "plocal-looped", f"O^1 G^{k}(M({l},{m}))", loops=1
    )


def s7_decompose_trivial(g: LieGroupId) -> SpaceExpr:
    """O^7[G] x G for the unique bundle over S^7 when pi_6(G) = 0."""
    require_pi6_zero(g)
    return product(loop(7, lie(g)), lie(g))


# Homotopy groups of decomposition expressions.


class PiValue(
    namedtuple("PiValue", "group symbolic notes sources", defaults=((), (), ()))
):
    """A homotopy group split into a computed part and symbolic leftovers."""

    __slots__ = ()

    @property
    def complete(self) -> bool:
        return not self.symbolic

    def __str__(self) -> str:
        if self.complete:
            return self.group.render()
        parts = [] if self.group.is_trivial else [self.group.render()]
        parts.extend(self.symbolic)
        return " + ".join(parts)


def _merge(values: list[PiValue]) -> PiValue:
    group = TRIVIAL
    symbolic: list[str] = []
    notes: list[str] = []
    sources: list[str] = []
    for v in values:
        group = direct_sum(group, v.group)
        symbolic.extend(v.symbolic)
        notes.extend(v.notes)
        sources.extend(s for s in v.sources if s not in sources)
    return PiValue(group, tuple(symbolic), tuple(notes), tuple(sources))


def pi_of_expr(expr: SpaceExpr, n: int) -> PiValue:
    """pi_n of a product-shaped decomposition expression.

    Loop atoms over spheres and Lie groups resolve through the tables;
    mod-m loop spaces go through the universal-coefficient sequence;
    every other node (the opaque atoms G^k(S^4), Map*(Y_t, G) and X_k, wedges)
    contributes the symbolic summand pi_n(<its text>), since pi_n is not
    additive over wedges.

    A repeated (expression, degree) pair under the same table is answered
    from a memo of 4,096 entries, as the same PiValue object; refusals are
    raised again each time, never stored.
    """
    if type(n) is not int or n < 0:
        raise ValueError("homotopy degree must be nonnegative and an int")
    # A tuple equal to a memoized node would hit the memo, so refuse it first.
    if type(expr) is not SpaceExpr:
        raise ValueError(f"pi_of_expr needs a SpaceExpr, got {expr!r}")
    return _pi_of(expr, n, default_table())


def pi_with_coefficients(g: LieGroupId, i: int, p: int, r: int) -> PiValue:
    """pi_i(G; Z_{p^r}) for p >= 5: pi_0 of the mod-p^r loop space
    O^i[G]{p^r}, read off by pi_of_expr.

    Where both universal-coefficient ends are nonzero the group is their
    direct sum, and a PiValue note says the split is assumed.  r = 0
    gives the point, and i = 0 reads pi_0(G) = 0, G being connected.
    """
    plocal_valuation(None, p)
    if type(i) is not int or type(r) is not int or r < 0:
        raise ValueError("i and r must be ints, r nonnegative")
    expr = lie(g) if i == 0 and r else mod_loop(i, g, p**r)
    return pi_of_expr(expr, 0)


def _pi(expr: SpaceExpr, n: int, table: PiTable) -> PiValue:
    match expr.kind:
        case "point":
            return PiValue(TRIVIAL)
        case "localized":
            p, inner_expr = expr.args
            inner = _pi(inner_expr, n, table)
            return PiValue(
                localize(inner.group, p),
                tuple(f"({s})_({p})" for s in inner.symbolic),
                inner.notes,
                inner.sources,
            )
        case "product":
            return _merge([_pi(f, n, table) for f in expr.args[0]])
        case "lie-group":
            rec = table.lie_record(expr.args[0], n)
            return PiValue(rec.group, sources=(rec.source,))
        case "sphere":
            rec = table.sphere_record(expr.args[0], n)
            return PiValue(rec.group, sources=(rec.source,))
        case "loop":
            degree, component0, inner_expr = expr.args
            if component0 and n == 0:
                return PiValue(TRIVIAL)
            return _pi(inner_expr, n + degree, table)
        case "mod-loop":
            degree, component0, g, modulus = expr.args
            if component0 and n == 0:
                return PiValue(TRIVIAL)
            # pi_n(O^d[G]{q}) = pi_i(G; Z_q), i = n + d >= 1, by universal coefficients.
            i = n + degree
            top, bottom = table.lie_record(g, i), table.lie_record(g, i - 1)
            tensor_part = tensor_with_cyclic(top.group, modulus)
            tor_part = tor_with_cyclic(bottom.group, modulus)
            notes = ()
            if not tensor_part.is_trivial and not tor_part.is_trivial:
                notes = (f"pi_{i}({g}; Z_{modulus}) assumed to split as tensor + Tor",)
            sources = tuple(dict.fromkeys((top.source, bottom.source)))
            return PiValue(direct_sum(tensor_part, tor_part), (), notes, sources)
        case "moore" if expr.args[0] == 4 and n == 6:
            return PiValue(pi6_moore(expr.args[1]), sources=(PI6_MOORE_SOURCE,))
    return PiValue(TRIVIAL, (f"pi_{n}({expr.render()})",))


# The table is part of the key, so a new BUNDLEGAUGE_TABLES is seen at
# once; the cap bounds memory under the unbounded m and k of X_k.
_pi_of = lru_cache(maxsize=4096)(_pi)


def pi_pointed_gauge_m0(g: LieGroupId, l: int, k: int, n: int) -> PiValue:
    """pi_n of the pointed gauge group over M(l,0), any k.

    Always contributes pi_{n+4}(G); the mapping-space summand is
    pi_{n+3}(G) + pi_{n+7}(G) when the twist class vanishes, where
    Map*(Y_0, G) splits, and stays symbolic otherwise.
    """
    return pi_of_expr(decompose_pointed_m0(g, l, k).expr, n)


def pi0_unpointed_gauge_m0(g: LieGroupId, l: int) -> AbGroup:
    """pi_0 of the unpointed gauge group over M(l,0) for l = 0 mod 12.

    G is connected and simply connected, so evaluation at the basepoint
    identifies the components with those of the pointed gauge group:
    pi_4(G) + pi_3(G) + pi_7(G), read off the pointed splitting.  The
    published component counts per family are the acceptance data of
    the selftest grid, not an input here.
    """
    require_pi6_zero(g)
    if twist_class(l) != 0:
        raise OutOfScopeError(
            "the component table applies to l = 0 (mod 12) only"
        )
    return pi_pointed_gauge_m0(g, l, 0, 0).group


def pi0_unpointed_gauge_plocal(g: LieGroupId, m: int, k: int, p: int) -> AbGroup:
    """pi_0 of the p-localized unpointed gauge group, m >= 2, k = 0 (mod m).

    For a nontrivial class the component count is an open problem and
    the lookup reports unknown.
    """
    decomposition = decompose_plocal(g, 0, m, 0, p, pointed=True)
    if k % m != 0:
        raise UnknownValueError(
            "pi_0 of the gauge group is not computed for k != 0 when m >= 2"
        )
    return pi_of_expr(decomposition.expr, 0).group


def pi_pointed_gauge_plocal(
    g: LieGroupId,
    m: int,
    k: int,
    n: int,
    p: int,
    looped: bool | None = None,
) -> PiValue:
    """pi_n of the p-local pointed gauge group (k = 0), or of its loop
    space (any k), for m >= 2 and p >= 5, read off decompose_plocal.

    k = 0 unlooped:  pi_{n+3}(G; Z_{p^r}) + localized pi_{n+7}(G).
    looped, any k:   pi_{n+4}(G; Z_{p^r}) + localized pi_{n+8}(G).

    The decomposition does not depend on l, so any l will do.
    """
    decomposition = decompose_plocal(g, 0, m, k, p, pointed=True, looped=looped)
    return pi_of_expr(decomposition.expr, n)


# Homotopy equivalence decisions for gauge groups over S^7.


class S7Decision(
    namedtuple("S7Decision", "verdict reason expr rule", defaults=(None, None))
):
    """verdict is "equivalent", "not-equivalent" or "out-of-scope"; rule
    keys the tables.RULES row that decided, and is None out of scope."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return self.verdict == "equivalent"


def _parse_locality(locality: str | int) -> str | int:
    """"integral", "rational", or a prime given as an int or decimal text."""
    if locality in ("integral", "rational"):
        return locality
    if isinstance(locality, str):
        try:
            locality = int(locality)
        except ValueError:
            pass
    if not isinstance(locality, int):
        raise ValueError(f"locality must be integral, rational or a prime: {locality!r}")
    return Prime(locality).value


def s7_gauge_equivalent(
    g: LieGroupId,
    k: int,
    k_prime: int,
    locality: str | int = "integral",
) -> S7Decision:
    """Compare gauge groups over S^7 of the classes k and k'.

    The decisions follow the gcd criteria: SU(2) = Sp(1) integrally,
    G2 rationally or at any prime, SU(3) rationally or at primes >= 3.
    Localizations the criteria do not reach return out-of-scope, and so
    does any other group with pi_6 != 0, which only an override table can
    give.  Groups with pi_6 = 0 carry a single bundle and are trivially
    equivalent.
    """
    locality = _parse_locality(locality)
    order = pi6(g).order()
    k %= max(order, 1)
    k_prime %= max(order, 1)
    if order == 1:
        return S7Decision(
            "equivalent",
            "pi_6(G) = 0, so there is a single bundle class over S^7",
            s7_decompose_trivial(g),
            "s7-trivial",
        )
    a, b = gcd(3, k), gcd(3, k_prime)
    same = a == b
    gcd_text = (
        f"(3,{k}) = {a} and (3,{k_prime}) = {b}"
    )
    c = g.canonical()
    if c == LieGroupId("SU", 2):
        if locality == "integral":
            verdict = "equivalent" if same else "not-equivalent"
            return S7Decision(
                verdict, f"{gcd_text} (integral criterion)", rule="s7-gcd"
            )
        if same:
            return S7Decision(
                "equivalent",
                f"{gcd_text}; integral equivalence localizes",
                rule="s7-gcd",
            )
        return S7Decision(
            "out-of-scope",
            f"{gcd_text}: the converse is only proved integrally for SU(2)",
        )
    if c == LieGroupId("G2"):
        if locality == "integral":
            return S7Decision(
                "out-of-scope",
                "only localized comparisons are decided for G2",
            )
        verdict = "equivalent" if same else "not-equivalent"
        return S7Decision(
            verdict, f"{gcd_text} (rational or any-prime criterion)", rule="s7-gcd"
        )
    if c != LieGroupId("SU", 3):
        return S7Decision("out-of-scope", f"no gcd rule over S^7 is known for {g}")
    if locality == "integral":
        return S7Decision(
            "out-of-scope",
            "only localized comparisons are decided for SU(3)",
        )
    if locality == 2:
        return S7Decision(
            "out-of-scope",
            "the order of the connecting map at p = 2 is not known for SU(3)",
        )
    verdict = "equivalent" if same else "not-equivalent"
    return S7Decision(
        verdict, f"{gcd_text} (rational or p >= 3 criterion)", rule="s7-gcd"
    )


class Su5Decision(namedtuple("Su5Decision", "verdict reason")):
    """verdict is "equivalent-locally" or "undecided"."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return self.verdict == "equivalent-locally"


def su5_gauge_equivalent_m0(k: int, k_prime: int) -> Su5Decision:
    """One-directional gcd rule for SU(5)-gauge groups over any M(l,0).

    Equal gcds with 120 give equivalence rationally and at every prime;
    unequal gcds leave the question undecided, there is no converse.
    """
    a, b = gcd(120, k), gcd(120, k_prime)
    if a == b:
        return Su5Decision(
            "equivalent-locally",
            f"(120,{k}) = (120,{k_prime}) = {a}: equivalent rationally "
            "and at every prime",
        )
    return Su5Decision(
        "undecided",
        f"(120,{k}) = {a} != {b} = (120,{k_prime}): the criterion is "
        "one-directional, no conclusion",
    )


class GaugeQuery(
    namedtuple(
        "GaugeQuery", "bundle pointed looped locality",
        defaults=(False, 0, "integral"),
    )
):
    """A bundled decomposition request for a BundleClass, used by the
    CLI front end.  looped=None lets a pointed p-local query loop
    exactly when the class is nontrivial, as decompose_plocal does."""

    __slots__ = ()


def run_query(query: GaugeQuery) -> DecompositionResult:
    """Dispatch a GaugeQuery to the decomposition that covers it."""
    if query.looped and not query.pointed:
        raise ValueError(
            "looped applies to pointed queries only; "
            "the unpointed splitting chooses its own looping"
        )
    base = query.bundle.base
    g = query.bundle.group
    k = query.bundle.k
    if base.m == 0:
        if query.locality != "integral":
            raise OutOfScopeError(
                "torsion-free splittings are integral statements; "
                "drop the localization"
            )
        if query.pointed:
            return decompose_pointed_m0(g, base.l, k)
        return decompose_unpointed_m0(g, base.l, k)
    if base.m == 1:
        if query.pointed:
            raise ValueError("pointed does not apply at m = 1, where the base is S^7")
        if query.locality != "integral":
            raise OutOfScopeError(
                "the splitting over S^7 is an integral statement; "
                "drop the localization"
            )
        return DecompositionResult(s7_decompose_trivial(g), (), "s7-trivial", "G^0(S^7)")
    if not isinstance(query.locality, int):
        raise OutOfScopeError(
            "bases with torsion are only decomposed p-locally; pass a prime p >= 5"
        )
    return decompose_plocal(
        g,
        base.l,
        base.m,
        k,
        query.locality,
        pointed=query.pointed,
        looped=query.looped,
    )
