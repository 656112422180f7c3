"""Finite-scale workbench for Stone-like natural dualities.

Given a finite dualizing algebra (as operation tables), compute spectra and
dual spaces, decide the structural hypotheses behind the CD and NU duality
theorems, and verify the duality round-trips by exhaustive oracle.
"""

from .algebras import (
    BudgetExceeded,
    Congruence,
    ElementMap,
    FiniteAlgebra,
    InvalidInput,
    Signature,
    direct_power,
    direct_product,
    enumerate_homs,
    generate_congruence,
    generate_subalgebra,
    in_prevariety,
    kernel,
    quotient,
    relative_congruences,
)
from .catalog import CatalogEntry, bool2, build, check_hyperarchimedean, dl2, luk, posluk, reduct
from .constrained import (
    ConstrainedSpace,
    UnaryConstrainedSpace,
    binary_to_unary,
    ccomp,
    cons,
    func,
    has_global_extension,
    has_local_extension,
    is_constrained_map,
    local_to_global_verify,
    mv_priestley_validate,
    priestley_from_order,
    priestley_to_order,
    unary_to_binary,
    validate_constrained,
    validate_unary,
)
from .properties import (
    check_finite_bp,
    check_unary_bp_via_classification,
    chinese_remainder_check,
    chinese_remainder_sweep,
    classify_square_subalgebras,
    congruence_spectrum_antiisomorphism,
    helly_check,
    is_k_interpolated,
    jonsson_finite_cover_check,
    partial_endomorphisms,
    separates_at_most,
)
from .spaces import (
    LMap,
    LSpace,
    canonical_embedding,
    check_duality_roundtrip,
    check_naturality,
    continuous_functions,
    discretize,
    evaluation_map,
    lspace,
    regularize,
    separated_quotient,
    space_properties,
    spectrum,
)
from .terms import (
    App,
    Term,
    TermFunction,
    Var,
    check_near_unanimity,
    eval_term,
    free_one_generated,
    is_convex,
    search_nu_function,
    separating_term_posmv,
    term_function,
)
from .topology import (
    FiniteTopology,
    discrete_topology,
    indiscrete_topology,
    topology_from_opens,
    topology_from_subbasis,
)

__all__ = [name for name in dir() if not name.startswith("_")]
