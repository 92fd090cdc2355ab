"""The public names of the package, pinned so that an added or removed name
shows in review; edit the list in the change that adds or removes one."""

import ast
import types
from pathlib import Path

import dyadlab

PUBLIC = [
    "BkOperator", "DepthError", "DyadicCube", "DyadicFunction", "GridMismatchError",
    "GridSizeError", "GridSpec", "HaarCoefficients", "HaarIndex", "InvalidIndexError",
    "LinearOperatorHandle", "NormReport", "ProductFunction", "ProductGrid",
    "ShiftOperator", "Term", "TermList", "WrongKindError", "apply_Bk", "apply_P",
    "apply_P_adjoint", "apply_biparam", "apply_in_variable", "average_operator",
    "biparam", "commutator_bound_study", "decompose", "decomposition", "dense_matrix",
    "dyadic_bmo_norm", "evaluate_terms", "fs_check", "geometric_constant",
    "geometric_constant_closed_form", "grids", "haar", "haar_forward", "haar_function",
    "haar_inverse", "hilbert_pattern_builder", "hilbert_pattern_shift", "inner_product",
    "iterated_commutator", "jn_check", "maximal_function", "mc_representation_demo",
    "montecarlo", "multiplication_commutator", "norms", "open_set_bmo_norm",
    "operator_norm", "paraproducts", "random_function", "random_product_function",
    "random_shift", "rect_bmo_norm", "reports_to_csv", "reports_to_jsonl",
    "sample_omega", "shifts", "square_function", "tensor_function",
    "toeplitz_deviation", "uniformity_study", "verify_identity", "zscore_verdict",
]


def test_public_names_are_pinned():
    assert sorted(dyadlab.__all__) == PUBLIC


# The public names without a caller in the library, the demos or the
# benchmark: each is one call of apply_biparam that hides its atom-tuple format
# and names the paper's B_k, P or P*, and the acceptance criteria call them.
UNCALLED = {"apply_Bk", "apply_P", "apply_P_adjoint"}


def test_every_public_name_has_a_caller():
    # a public name must be read, as a Name or an Attribute (not in a
    # docstring), by the library outside __init__.py, a demo or the benchmark
    root = Path(__file__).resolve().parents[1]
    files = [p for p in (root / "src" / "dyadlab").glob("*.py") if p.name != "__init__.py"]
    files += sorted((root / "demos").glob("*.py"))
    files += [p for p in (root / "perfbench").glob("*.py") if not p.name.startswith("test_")]
    used = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    public = {name for name in dyadlab.__all__
              if not isinstance(getattr(dyadlab, name), types.ModuleType)}
    assert public - used == UNCALLED
