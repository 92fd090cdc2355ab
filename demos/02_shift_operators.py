"""Dyadic shifts: construction, contraction, adjoints, exact operator norms.

A shift of parameters (i, j) routes Haar coefficients from depth i below each
block cube K to depth j below it. The coefficient normalization makes every
cancellative shift an exact L2 contraction; the noncancellative variant is a
paraproduct driven by a BMO-normalized symbol.
"""

import numpy as np

from dyadlab import (DyadicFunction, GridSpec, inner_product, operator_norm,
                     random_function, random_shift)

rng = np.random.default_rng(2)
grid = GridSpec(d=1, N=6)

# --- contraction, by construction -------------------------------------------
for (i, j) in [(0, 0), (1, 2), (3, 3)]:
    S = random_shift(grid, i, j, rng)
    ratios = []
    for _ in range(50):
        f = random_function(grid, rng)
        ratios.append(S.apply(f).norm() / f.norm())
    print(f"shift (i,j)=({i},{j}): {S.coefficient_count()} coefficients, "
          f"max ||Sf||/||f|| over 50 draws = {max(ratios):.6f}")

# --- adjoints pair exactly ---------------------------------------------------
S = random_shift(grid, 2, 1, rng)
f, g = random_function(grid, rng), random_function(grid, rng)
print("\n<Sf,g> - <f,S^T g> =",
      inner_product(S.apply(f), g) - inner_product(f, S.adjoint().apply(g)))

# --- exact norm: one pass over the identity stack ----------------------------
from dyadlab import dense_matrix

column_loop = np.column_stack([S.apply(DyadicFunction(grid, e)).samples
                               for e in np.eye(grid.n_samples)])
svd = np.linalg.svd(column_loop, compute_uv=False)[0]
print(f"operator_norm {operator_norm(S):.10f} vs column-by-column SVD {svd:.10f}")
print("identity-stack matrix vs column loop, max |difference|:",
      np.max(np.abs(dense_matrix(S) - column_loop)))

# --- noncancellative shifts carry a unit-BMO symbol --------------------------
from dyadlab import dyadic_bmo_norm
Sn = random_shift(grid, 0, 0, rng, kind="noncancellative")
print("\nsymbol BMO norm:", dyadic_bmo_norm(Sn.symbol))
print("noncancellative shift norm:", round(operator_norm(Sn), 4))
