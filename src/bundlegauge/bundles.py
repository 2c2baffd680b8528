"""Classification of principal G-bundles over the total spaces.

For a simply connected simple compact Lie group G with pi_6(G) = 0 the
isomorphism classes over M(l, m) form Z when m = 0 and Z_m when m >= 2,
and the projection to S^4 induces a bijection (m = 0) respectively a
surjection (m >= 2) on classes.  For m = 1 the total space is S^7 and
classes correspond to pi_6(G), with no hypothesis on G.

When m != 1 and pi_6(G) != 0 (SU(2), SU(3), G2) the classification is
not covered by the implemented results and the operations refuse rather
than extrapolate.
"""

from __future__ import annotations

from collections import namedtuple

from .abelian import AbGroup, Z, make_group
from .errors import OutOfScopeError
from .manifolds import ManifoldSpec
from .tables import LieGroupId, pi6

__all__ = [
    "BundleClass",
    "classify_bundles",
    "projection_induced_map_kind",
    "reduce_class",
    "require_pi6_zero",
]


class BundleClass(namedtuple("BundleClass", "base group k modulus")):
    """A reduced classifying parameter for a principal G-bundle over the
    ManifoldSpec base, for the LieGroupId group.

    modulus 0 means the class lives in Z (m = 0); otherwise k is the
    canonical residue mod the modulus (m for m >= 2, the order of
    pi_6(G) for m = 1).
    """

    __slots__ = ()

    def __str__(self) -> str:
        if self.modulus == 0:
            return f"bundle k={self.k} in Z over {self.base}"
        return f"bundle k={self.k} in Z_{self.modulus} over {self.base}"


def require_pi6_zero(g: LieGroupId) -> None:
    """Refuse G with pi_6(G) != 0: the results for m != 1 assume it."""
    group = pi6(g)
    if not group.is_trivial:
        raise OutOfScopeError(f"out of theorem scope: pi_6({g}) = {group} != 0")


def classify_bundles(g: LieGroupId, spec: ManifoldSpec) -> AbGroup:
    """The classification set as an abelian group of indices.

    Z for m = 0, Z_m for m >= 2 (both require pi_6(G) = 0), and
    pi_6(G) itself for m = 1.
    """
    if spec.m == 1:
        return pi6(g)
    require_pi6_zero(g)
    if spec.m == 0:
        return Z
    return make_group(0, [spec.m])


def projection_induced_map_kind(m: int) -> str:
    """How the bundle projection acts on classes: bijection, surjection,
    or not-covered (the m = 1 case factors through S^7 instead)."""
    if m == 0:
        return "bijection"
    if m >= 2:
        return "surjection"
    return "not-covered"


def reduce_class(g: LieGroupId, spec: ManifoldSpec, k_raw: int) -> BundleClass:
    """Store the canonical residue of a raw classifying integer."""
    index_set = classify_bundles(g, spec)
    if spec.m == 0:
        return BundleClass(spec, g, k_raw, 0)
    if spec.m >= 2:
        return BundleClass(spec, g, k_raw % spec.m, spec.m)
    modulus = index_set.order()
    if modulus == 0:
        raise OutOfScopeError("classification set over S^7 must be finite")
    return BundleClass(spec, g, k_raw % modulus, modulus)
