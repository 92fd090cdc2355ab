"""Random shifted grids: averaging a fixed shift restores translation invariance.

On a single grid the fixed (0,1)-pattern shift is tied to that grid's cube
boundaries: its matrix is far from Toeplitz. Averaged over random grid
offsets, the matrix becomes translation-invariant and antisymmetric up to
Monte Carlo noise — the mechanism by which grid-averaged shifts model
convolution-type singular operators.
"""

import numpy as np

from dyadlab import (GridSpec, average_operator, commutator_bound_study,
                     hilbert_pattern_builder, mc_representation_demo,
                     sample_omega, toeplitz_deviation)

base = GridSpec(1, 6)

# --- a shifted grid is the standard grid translated by shift cells -------------
grid = sample_omega(base, 12345)
print("offsets per level:", [o[0] for o in grid.omega or ((0,),) * base.N])
print("translation in finest cells:", grid.shift[0])

# --- one grid vs the average ---------------------------------------------------
builder = hilbert_pattern_builder(base)
single = builder(grid).matrix()
print("\nsingle grid, max Toeplitz deviation:",
      round(float(np.max(np.abs(toeplitz_deviation(single)))), 4))

mean, stderr, stats = average_operator(builder, samples=3000, rng_seed=99)
rep = mc_representation_demo(base, samples=3000, rng_seed=99)
print(f"averaged over {stats['used']} samples of "
      f"{rep['counters']['distinct_grids']} distinct grids, max Toeplitz deviation:",
      round(float(np.max(np.abs(toeplitz_deviation(mean)))), 4))

print("Toeplitz verdict:", rep["toeplitz"]["pass"],
      f"(max z {rep['toeplitz']['max_z']:.2f}, familywise threshold "
      f"{rep['toeplitz']['bonferroni_z']:.2f})")
print("antisymmetry verdict:", rep["antisymmetry"]["pass"],
      f"(max z {rep['antisymmetry']['max_z']:.2f})")

# --- commutator norms against the geometric schedule ----------------------------
study = commutator_bound_study(delta=1.0, i_max=3, j_max=3, trials=5,
                               rng_seed=7, grid=base)
print("\nper-(i,j) commutator ratios to (1 + max(i,j)):")
for r in study["reports"]:
    print(f"  (i,j)=({r.i},{r.j}): {r.max_ratio:.4f}")
print("weighted total:", round(study["weighted_total"], 4),
      " <= geometric constant x max ratio:",
      round(study["geometric_constant"] * study["max_ratio"], 4))
