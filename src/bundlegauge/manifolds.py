"""The 2-connected 7-manifolds arising as S^3-bundles over S^4.

A bundle is classified by a pair of integers (l, m).  Two classical
homeomorphisms, (l, m) ~ (-l, -m) and (l, m) ~ (l+m, -m), let us fix
m >= 0; composing them shows that with m fixed, l and -l-m give
homeomorphic total spaces.  ManifoldSpec stores the canonical
representative and remembers the input pair for display.

Homotopy classification:

* m = 0: total spaces are homotopy equivalent exactly when
  l' = +-l (mod 12)  (James-Whitehead criterion).
* m = 1: every total space is homotopy equivalent to S^7.
* m >= 2: equivalence holds exactly when l' = a*l (mod gcd(m, 12)) for
  some a with a^2 = 1 (mod gcd(m, 12))  (Crowley-Escher criterion).

Closed-form homology lives here; the oracle module recomputes
it independently from the cell structure by Smith normal form.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd

from .abelian import AbGroup, Prime, TRIVIAL, Z, make_group, vp
from .errors import OutOfScopeError
from .spaces import SpaceExpr, localized, moore, sphere, wedge, y_cofiber

__all__ = [
    "ManifoldSpec",
    "EquivalenceDecision",
    "normalize",
    "homology",
    "is_homotopy_equivalent",
    "skeleton4",
    "suspension",
    "suspension_plocal",
    "cofibre_of_bottom_cell",
    "twist_class",
    "plocal_valuation",
]


class ManifoldSpec(namedtuple("ManifoldSpec", "l m original")):
    """Canonical (l, m) with m >= 0 and l the preferred representative;
    original is the input pair."""

    __slots__ = ()

    def partners(self) -> tuple[int, int]:
        """The homeomorphism class {l, -l-m} at fixed m >= 0."""
        return tuple(sorted({self.l, -self.l - self.m}))

    def __str__(self) -> str:
        return f"M({self.l},{self.m})"


def normalize(l: int, m: int) -> ManifoldSpec:
    """Canonical representative under the two homeomorphism relations.

    If m < 0 apply (l, m) -> (-l, -m).  Then of the homeomorphic pair
    {l, -l-m} keep the value of smaller absolute value, preferring the
    nonnegative one on ties (ties only occur at m = 0).
    """
    orig = (l, m)
    if m < 0:
        l, m = -l, -m
    candidates = sorted({l, -l - m}, key=lambda x: (abs(x), x < 0))
    return ManifoldSpec(candidates[0], m, orig)


def homology(spec: ManifoldSpec) -> tuple[AbGroup, ...]:
    """Integral homology in degrees 0..7, in closed form.

    m = 0 gives the homology of S^3 x S^4; m = 1 gives S^7; m >= 2 has
    the single torsion group Z_m in degree 3.
    """
    h = [TRIVIAL] * 8
    h[0] = Z
    h[7] = Z
    if spec.m == 0:
        h[3] = Z
        h[4] = Z
    elif spec.m >= 2:
        h[3] = make_group(0, [spec.m])
    return tuple(h)


class EquivalenceDecision(namedtuple("EquivalenceDecision", "equivalent reason rule")):
    __slots__ = ()

    def __bool__(self) -> bool:
        return self.equivalent


# The a with a^2 = 1 (mod g) for each g = gcd(m, 12), that is, each divisor of 12.
_ROOTS_OF_UNITY = {g: tuple(a for a in range(g) if (a * a - 1) % g == 0)
                   for g in (1, 2, 3, 4, 6, 12)}


def is_homotopy_equivalent(a: ManifoldSpec, b: ManifoldSpec) -> EquivalenceDecision:
    """Decide homotopy equivalence of two total spaces."""
    if a.m != b.m:
        return EquivalenceDecision(
            False, f"m differs ({a.m} vs {b.m}): degree-3 homotopy distinguishes them",
            "degree-3",
        )
    if a.m == 1:
        return EquivalenceDecision(True, "both are homotopy equivalent to S^7",
                                   "s7-identification")
    if a.m == 0:
        ok = twist_class(a.l) == twist_class(b.l)
        verdict = "" if ok else "no "
        return EquivalenceDecision(
            ok,
            f"{verdict}congruence l' = +-l (mod 12) "
            f"for l={a.l}, l'={b.l} (James-Whitehead)",
            "james-whitehead",
        )
    g = gcd(a.m, 12)
    for alpha in _ROOTS_OF_UNITY[g]:
        if (b.l - alpha * a.l) % g == 0:
            return EquivalenceDecision(
                True,
                f"a={alpha} solves a^2 = 1 (mod {g}) and l' = a*l (mod {g}) "
                f"(Crowley-Escher)",
                "crowley-escher",
            )
    return EquivalenceDecision(
        False,
        f"no a with a^2 = 1 (mod {g}) sends l={a.l} to l'={b.l} (Crowley-Escher)",
        "crowley-escher",
    )


def twist_class(l: int) -> int:
    """Canonical representative of {+-l mod 12}, in 0..6."""
    r = l % 12
    return min(r, 12 - r)


def skeleton4(spec: ManifoldSpec) -> SpaceExpr:
    """Homotopy type of the 4-skeleton: S^3 v S^4, a point, or P^4(m)."""
    if spec.m == 0:
        return wedge(sphere(3), sphere(4))
    return moore(4, spec.m)


def suspension(spec: ManifoldSpec) -> SpaceExpr:
    """Integral homotopy type of the suspension.

    Only stated for m = 0, where it splits as SY_t v S^5 with t the
    canonical twist class; t = 0 gives S^8 v S^4 v S^5.  The m = 1 case
    is reported as S^8 through the S^7 equivalence.  For m >= 2 only the
    p-local statement exists; use suspension_plocal.
    """
    if spec.m == 1:
        return sphere(8)
    if spec.m != 0:
        raise OutOfScopeError(
            "no integral suspension splitting for m >= 2; "
            "use suspension_plocal with a prime p >= 5"
        )
    t = twist_class(spec.l)
    if t == 0:
        return wedge(sphere(8), sphere(4), sphere(5))
    return wedge(y_cofiber(t, suspended=True), sphere(5))


def plocal_valuation(m: int | None, p: int) -> int:
    """v_p(m), once the hypotheses of the p-local statements hold: p is a
    prime >= 5 and the base has torsion, m >= 2.  With m None only p is
    checked, and the valuation reads 0.
    """
    p = Prime(p).value
    if p < 5:
        raise OutOfScopeError(f"p-local statements here require p >= 5, got {p}")
    if m is None:
        return 0
    if m < 2:
        raise OutOfScopeError("p-local statements here apply to m >= 2 only")
    return vp(m, p)


def suspension_plocal(spec: ManifoldSpec, p: int) -> SpaceExpr:
    """p-local suspension splitting P^5(p^r) v S^8 for m >= 2, p >= 5.

    Here r is the p-adic valuation of m; for r = 0 the Moore summand is
    contractible and only S^8 remains.
    """
    r = plocal_valuation(spec.m, p)
    return localized(p, wedge(moore(5, p**r), sphere(8)))


def cofibre_of_bottom_cell(spec: ManifoldSpec) -> SpaceExpr:
    """Cofiber of the fiber inclusion S^3 -> M: splits as S^4 v S^7.

    The splitting is proved for every m except m = 1, which is rejected.
    """
    if spec.m == 1:
        raise OutOfScopeError(
            "unsupported: the cofiber splitting excludes m = 1"
        )
    return wedge(sphere(4), sphere(7))
