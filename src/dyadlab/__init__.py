"""dyadlab: finite-resolution dyadic Haar analysis on the unit torus.

Haar systems and transforms, dyadic shift operators, paraproducts, exact
commutator decompositions (one- and bi-parameter), BMO norms and square
functions, and Monte Carlo averaging over random shifted grids.
"""

__version__ = "0.1.0"

from .grids import (DepthError, DyadicCube, GridMismatchError, GridSizeError,
                    GridSpec, HaarIndex, InvalidIndexError, WrongKindError,
                    ancestor)
from .haar import (DyadicFunction, HaarCoefficients, haar_forward,
                   haar_function, haar_inverse, inner_product,
                   pointwise_multiply, random_function)
from .shifts import (LinearOperatorHandle, ShiftOperator, dense_matrix,
                     expected_coefficient_count, multiplication_commutator,
                     noncancellative_shift, operator_norm, random_shift)
from .paraproducts import (BkOperator, apply_Bk, apply_P, apply_P_adjoint)
from .biparam import (BiparamOperatorSpec, ProductFunction, ProductGrid,
                      apply_biparam, apply_in_variable, inner_product2,
                      iterated_commutator, pointwise_multiply2,
                      random_product_function, tensor_function)
from .decomposition import (Term, TermList, decompose, decompose_biparam,
                            decompose_cancellative, decompose_noncancellative,
                            evaluate_terms, verify_identity)
from .norms import (NormReport, dyadic_bmo_norm, fs_check, geometric_constant,
                    geometric_constant_closed_form, jn_check,
                    maximal_function, open_set_bmo_norm, rect_bmo_norm,
                    reports_to_csv, reports_to_jsonl, square_function,
                    uniformity_study)
from .montecarlo import (OmegaSample, average_operator, commutator_bound_study,
                         hilbert_pattern_builder, hilbert_pattern_shift,
                         mc_representation_demo, sample_omega, shifted_grid,
                         toeplitz_deviation, zscore_verdict)

__all__ = [name for name in dir() if not name.startswith("_")]
