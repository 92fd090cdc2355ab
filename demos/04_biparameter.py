"""Bi-parameter structures: tensor grids, iterated commutators, and the
decomposition built as the product of the per-variable constructions.

Each variable carries its own grid and shift; the iterated commutator
[[M_b, S1], S2] decomposes into tensor combinations of per-variable atoms:
B_{k,l} paraproducts, the mixed BP_k / PB_l operators, and the PP family with
its partial adjoints.
"""

import numpy as np

from dyadlab import (GridSpec, ProductGrid, apply_biparam, apply_in_variable,
                     decompose, inner_product,
                     iterated_commutator, random_function,
                     random_product_function, random_shift, rect_bmo_norm,
                     tensor_function, verify_identity)
from dyadlab.biparam import PAtom

rng = np.random.default_rng(4)
pg = ProductGrid(GridSpec(1, 4), GridSpec(1, 4))
grid1, grid2 = pg.grids

# --- variable-wise application -----------------------------------------------
S1 = random_shift(grid1, 1, 1, rng)
S2 = random_shift(grid2, 0, 2, rng)
f1 = random_function(grid1, rng)
f2 = random_function(grid2, rng)
f = tensor_function(f1, f2)
slicewise = apply_in_variable(S1, 1, f)
factored = tensor_function(S1.apply(f1), f2)
print("slice application on a tensor product factors:",
      (slicewise - factored).norm())

# --- iterated commutator factorizes on tensor inputs --------------------------
from dyadlab import multiplication_commutator

b1 = random_function(grid1, rng)
b2 = random_function(grid2, rng)
lhs = iterated_commutator(tensor_function(b1, b2), S1, S2, f)
rhs = tensor_function(multiplication_commutator(b1, S1, f1),
                      multiplication_commutator(b2, S2, f2))
print("tensor factorization residual:", (lhs - rhs).norm())

# --- the bi-parameter decomposition, all shift mixes ---------------------------
print("\ndecomposition identity across the four mixes:")
for k1 in ("cancellative", "noncancellative"):
    for k2 in ("cancellative", "noncancellative"):
        bb = random_product_function(pg, rng)
        T1 = random_shift(grid1, *((1, 1) if k1 == "cancellative" else (0, 0)),
                          rng, kind=k1)
        T2 = random_shift(grid2, *((2, 0) if k2 == "cancellative" else (0, 0)),
                          rng, kind=k2)
        tl = decompose(bb, T1, T2)
        rep = verify_identity(bb, (T1, T2), trials=10, rng_seed=21)
        kinds = sorted({t.kind for t in tl.terms})
        print(f"  {k1[:4]}/{k2[:4]}: {tl.term_count:3d} terms "
          f"(residual {rep['max_residual']:.1e}), kinds: {', '.join(kinds)}")

# --- named operators and the partial-adjoint relation -------------------------
# an operator is one atom per variable: PP is (P, P), PP_1 is (P*, P)
P, PSTAR = PAtom(), PAtom(adjoint=True)
bb = random_product_function(pg, rng)
aa = random_product_function(pg, rng)
ff = random_product_function(pg, rng)
pp = apply_biparam((P, P), bb, ff, aa)
print("\n||PP(b,a,f)|| / (rect_bmo(b) ||f||) =",
      round(pp.norm() / (rect_bmo_norm(bb) * ff.norm()), 4))
g1, g2 = random_function(grid1, rng), random_function(grid2, rng)
lhs = inner_product(apply_biparam((P, P), bb, tensor_function(f1, f2), aa),
                    tensor_function(g1, g2))
rhs = inner_product(apply_biparam((PSTAR, P), bb, tensor_function(g1, f2), aa),
                    tensor_function(f1, g2))
print("partial-adjoint pairing gap:", abs(lhs - rhs))
