"""BMO norms, square and maximal functions, and the uniformity measurements.

The martingale-transform bound ||B_k(b,f)|| <= bmo(b) ||f|| is exact and
uniform in k; the localized square-function ratio at p = 2 never exceeds 1;
the geometric weight schedule sums to a closed-form constant. Everything
else is measured and logged rather than assumed.
"""

import numpy as np

from dyadlab import (DyadicCube, GridSpec, ProductGrid, dyadic_bmo_norm,
                     fs_check, geometric_constant,
                     geometric_constant_closed_form, jn_check,
                     open_set_bmo_norm, random_function,
                     random_product_function, rect_bmo_norm, reports_to_csv,
                     square_function, uniformity_study)

rng = np.random.default_rng(5)
grid = GridSpec(1, 7)

# --- BMO basics ---------------------------------------------------------------
b = random_function(grid, rng)
print("bmo(b)        =", round(dyadic_bmo_norm(b), 4))
print("bmo(b + 10)   =", round(dyadic_bmo_norm(
    b + type(b)(grid, np.full(grid.n_samples, 10.0))), 4))
print("bmo(3b)/bmo(b) =", round(dyadic_bmo_norm(3.0 * b) / dyadic_bmo_norm(b), 6))

# --- square function Parseval --------------------------------------------------
f = random_function(grid, rng)
S = square_function(f, "S")
print("\n||Sf||^2 + mean^2 - ||f||^2 =",
      S.norm() ** 2 + f.mean() ** 2 - f.norm() ** 2)

# --- uniformity of B_k across k -------------------------------------------------
reports = uniformity_study("Bk", GridSpec(1, 8), trials=20, rng_seed=9, kmax=6)
print("\nmartingale bound, measured sup ratios per k (exact bound is 1):")
for r in reports:
    print(f"  k={r.k}: {r.max_ratio:.6f}")
print(reports_to_csv(reports).splitlines()[0])

# --- localized square-function ratios -------------------------------------------
a = random_function(grid, rng)
cube = DyadicCube(1, (0,))
for p in (1.25, 1.5, 2.0, 3.0):
    print(f"jn ratio p={p}: {jn_check(a, cube, p):.4f}")

# --- vector-valued maximal inequality -------------------------------------------
family = [random_function(grid, rng) for _ in range(6)]
print("maximal ratio (p=1.5):", round(fs_check(family, 1.5), 4))

# --- rectangle vs open-set product BMO (toy size) -------------------------------
pg = ProductGrid(GridSpec(1, 2), GridSpec(1, 2))
bb = random_product_function(pg, rng)
print("\nrectangle norm:", round(rect_bmo_norm(bb), 4),
      " open-set norm:", round(open_set_bmo_norm(bb), 4))

# --- the geometric schedule ------------------------------------------------------
print("\ngeometric constant, delta = 2:",
      geometric_constant(2.0, 60), "=", geometric_constant_closed_form(2.0))
