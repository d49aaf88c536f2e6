"""Exact computations with Maurer-Cartan elements and twisted modules.

Each export is imported from its module on first use (PEP 562), so that
``import mctwist.cli`` loads only what the subcommand it runs needs.
"""

import importlib

# name -> module: the one table of the package's exports
_EXPORTS = {
    **dict.fromkeys(["ChainComplexSpec", "CohomologyReport", "ExactMatrix", "Ring", "cohomology",
                     "smith_normal_form", "solve_linear"], "exactlinalg"),
    **dict.fromkeys(["DgAlgebra", "DgModule", "Element", "GradedModule", "HomComplex",
                     "check_dga", "cone", "endomorphism_dga", "free_hull", "ground_dga",
                     "tensor_dga"], "dgcore"),
    **dict.fromkeys(["ConvOp", "HomotopyGaugeCertificate", "MCElement", "TwistedModule",
                     "gauge_act", "hom_twist", "is_gauge_pair", "is_mc", "mc_category_h0",
                     "search_homotopy_gauge", "twist_algebra", "twist_module",
                     "verify_homotopy_gauge"], "mc"),
    **dict.fromkeys(["FiniteSimplicialSet", "LocalSystem", "cochain_algebra", "ez_algebra_map",
                     "from_ordered_complex", "local_system_cohomology", "mc_to_rep", "nerve",
                     "product", "rep_to_mc", "two_sided_twisted"], "simplicial"),
    **dict.fromkeys(["build_interval_algebra", "certificate_from_k2_homotopy",
                     "functor_to_homotopy", "homotopy_to_functor",
                     "k2_homotopy_from_certificate", "k_infty_category"], "interval"),
    **dict.fromkeys(["ReducedTwistedModule", "hodge_data", "is_minimal", "is_reduced",
                     "lift_to_free_resolution", "minimal_iso_check", "minimal_model",
                     "truncate_twisted"], "perturbation"),
}

__all__ = sorted(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):
    # not cached in the package's globals: each use reads the module's
    # current binding, so a binding rebound there is seen here too
    if name in _EXPORTS:
        return getattr(importlib.import_module("." + _EXPORTS[name], __name__), name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted([*globals(), *__all__])
