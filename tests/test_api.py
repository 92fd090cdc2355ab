"""The public names of the package, pinned so that an added or removed name
shows in review; edit the list in the change that adds or removes one."""

import dyadlab

PUBLIC = [
    "BkOperator", "DepthError", "DyadicCube", "DyadicFunction", "GridMismatchError",
    "GridSizeError", "GridSpec", "HaarCoefficients", "HaarIndex", "InvalidIndexError",
    "LinearOperatorHandle", "NormReport", "ProductFunction", "ProductGrid",
    "ShiftOperator", "Term", "TermList", "WrongKindError", "apply_Bk", "apply_P",
    "apply_P_adjoint", "apply_biparam", "apply_in_variable", "average_operator",
    "biparam", "commutator_bound_study", "decompose", "decomposition", "dense_matrix",
    "dyadic_bmo_norm", "evaluate_terms", "expected_coefficient_count", "fs_check",
    "geometric_constant", "geometric_constant_closed_form", "grids", "haar",
    "haar_forward", "haar_function", "haar_inverse", "hilbert_pattern_builder",
    "hilbert_pattern_shift", "inner_product", "iterated_commutator", "jn_check",
    "maximal_function", "mc_representation_demo", "montecarlo",
    "multiplication_commutator", "noncancellative_shift", "norms", "open_set_bmo_norm",
    "operator_norm", "paraproducts", "pointwise_multiply", "random_function",
    "random_product_function", "random_shift", "rect_bmo_norm", "reports_to_csv",
    "reports_to_jsonl", "sample_omega", "shifts", "square_function", "tensor_function",
    "toeplitz_deviation", "uniformity_study", "verify_identity", "zscore_verdict",
]


def test_public_names_are_pinned():
    assert sorted(dyadlab.__all__) == PUBLIC
