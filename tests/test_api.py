"""The public API: ``dualkit.__all__`` names exactly these objects."""

import dualkit

PUBLIC = [
    "App", "BudgetExceeded", "CatalogEntry", "Congruence", "ConstrainedSpace",
    "ElementMap", "FiniteAlgebra", "FiniteTopology", "InvalidInput", "LMap", "LSpace",
    "Signature", "Term", "TermFunction", "UnaryConstrainedSpace", "Var", "algebras",
    "binary_to_unary", "bool2", "build", "canonical_embedding", "catalog", "ccomp",
    "check_duality_roundtrip", "check_finite_bp", "check_hyperarchimedean",
    "check_naturality", "check_near_unanimity", "check_unary_bp_via_classification",
    "chinese_remainder_check", "chinese_remainder_sweep", "classify_square_subalgebras",
    "congruence_spectrum_antiisomorphism", "cons", "constrained", "continuous_functions",
    "direct_power", "direct_product", "discrete_topology", "discretize", "dl2",
    "enumerate_homs", "eval_term", "evaluation_map", "free_one_generated", "func",
    "generate_congruence", "generate_subalgebra", "has_global_extension",
    "has_local_extension", "helly_check", "in_prevariety", "indiscrete_topology",
    "is_constrained_map", "is_convex", "is_k_interpolated", "jonsson_finite_cover_check",
    "kernel", "local_to_global_verify", "lspace", "luk", "mv_priestley_validate",
    "partial_endomorphisms", "posluk", "priestley_from_order", "priestley_to_order",
    "properties", "quotient", "reduct", "regularize", "relative_congruences",
    "search_nu_function", "separated_quotient", "separates_at_most",
    "separating_term_posmv", "space_properties", "spaces", "spectrum", "term_function",
    "terms", "topology", "topology_from_opens", "topology_from_subbasis",
    "unary_to_binary", "validate_constrained", "validate_unary",
]


def test_public_names_are_unchanged():
    assert sorted(dualkit.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in dualkit.__all__:
        assert getattr(dualkit, name) is not None
