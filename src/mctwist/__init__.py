"""Exact computations with Maurer-Cartan elements and twisted modules."""

from .exactlinalg import (
    ChainComplexSpec,
    CohomologyReport,
    ExactMatrix,
    Ring,
    cohomology,
    smith_normal_form,
    solve_linear,
)
from .dgcore import (
    DgAlgebra,
    DgModule,
    Element,
    GradedModule,
    HomComplex,
    check_dga,
    cone,
    endomorphism_dga,
    free_hull,
    ground_dga,
    tensor_dga,
)
from .mc import (
    ConvOp,
    HomotopyGaugeCertificate,
    MCElement,
    TwistedModule,
    gauge_act,
    hom_twist,
    is_gauge_pair,
    is_mc,
    mc_category_h0,
    search_homotopy_gauge,
    twist_algebra,
    twist_module,
    verify_homotopy_gauge,
)
from .simplicial import (
    FiniteSimplicialSet,
    LocalSystem,
    cochain_algebra,
    ez_algebra_map,
    from_ordered_complex,
    local_system_cohomology,
    mc_to_rep,
    nerve,
    product,
    rep_to_mc,
    two_sided_twisted,
)
from .interval import (
    build_interval_algebra,
    certificate_from_k2_homotopy,
    functor_to_homotopy,
    homotopy_to_functor,
    k2_homotopy_from_certificate,
    k_infty_category,
)
from .perturbation import (
    ReducedTwistedModule,
    hodge_data,
    is_minimal,
    is_reduced,
    lift_to_free_resolution,
    minimal_iso_check,
    minimal_model,
    truncate_twisted,
)

__version__ = "0.1.0"
