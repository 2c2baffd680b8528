"""Exact calculator for the homotopy theory of gauge groups over
S^3-bundles over S^4.

The library classifies principal G-bundles over these 7-manifolds,
decides homotopy equivalence of the total spaces, produces canonical
symbolic decompositions of their gauge groups, computes homotopy groups
of gauge groups from curated tables, and cross-checks its closed-form
homology against an independent Smith-normal-form oracle.

Each submodule is compiled and executed when one of its attributes is
first read, so a caller pays only for the modules it uses.  The first
read takes no lock on Python 3.10 and 3.11: a threaded caller should
read one attribute of each submodule it needs before it starts threads.
"""

import importlib.util
import sys

# The public names, by the submodule that defines them.
_EXPORTS = {
    "abelian": "AbGroup Prime direct_sum localize make_group parse_group "
               "tensor_with_cyclic tor_with_cyclic vp",
    "bundles": "BundleClass classify_bundles projection_induced_map_kind reduce_class",
    "errors": "BundleGaugeError LocalityError OutOfScopeError UnknownValueError",
    "gauge": "DecompositionResult GaugeQuery decompose_plocal decompose_pointed_m0 "
             "decompose_unpointed_m0 pi0_unpointed_gauge_m0 "
             "pi0_unpointed_gauge_plocal pi_of_expr pi_pointed_gauge_m0 "
             "pi_pointed_gauge_plocal pi_with_coefficients run_query "
             "s7_decompose_trivial s7_gauge_equivalent su5_gauge_equivalent_m0",
    "manifolds": "ManifoldSpec homology is_homotopy_equivalent normalize suspension "
                 "suspension_plocal twist_class",
    "oracle": "ChainComplex IntMatrix complex_for_manifold homology_of parse_complex "
              "smith_normal_form",
    "tables": "LieGroupId PiTable default_table pi6 pi6_moore",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_HOME)

for _module in (*_EXPORTS, "spaces"):
    _spec = importlib.util.find_spec(f"{__name__}.{_module}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    _lazy = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(_lazy)
    globals()[_module] = _lazy
del _module, _spec, _lazy


def __getattr__(name):
    """Read a public name from its submodule and keep it here, so that
    later reads are plain dictionary hits."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(globals()[_HOME[name]], name)
    return value


def __dir__():
    return sorted({*globals(), *_HOME})


__version__ = "0.1.0"
