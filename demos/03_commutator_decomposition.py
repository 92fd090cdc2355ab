"""The centerpiece: exact decomposition of [M_b, S] into paraproduct terms.

For a cancellative shift with parameters (i, j), the commutator equals a
signed sum of B_k(b, Sf) for k <= j and S(B_k(b, f)) for k <= i — at most
C (1 + max(i, j)) terms. On the finite torus this is an exact linear-algebra
identity, verified here against the directly evaluated commutator. For the
noncancellative (paraproduct) shift the list swaps in the cube/subcube
operator P or its adjoint, depending on orientation.
"""

import numpy as np

from dyadlab import (GridSpec, decompose, dyadic_bmo_norm, evaluate_terms,
                     multiplication_commutator, random_function, random_shift,
                     verify_identity)

rng = np.random.default_rng(3)
grid = GridSpec(d=1, N=6)

# --- one decomposition, inspected term by term -------------------------------
b = random_function(grid, rng)
S = random_shift(grid, 2, 3, rng)
terms = decompose(b, S)
print(f"shift (i,j) = (2,3): {terms.term_count} terms "
      f"(bound {terms.meta['count_bound']} = C (1+max), C = "
      f"{terms.meta['count_constant']})")
for t in terms.terms:
    k = t.atoms[0].k
    sign = "+" if t.weight > 0 else "-"
    print(f"  {sign} {t.kind:10s} k={k}  [{t.provenance}]")

f = random_function(grid, rng)
direct = multiplication_commutator(b, S, f)
approx = evaluate_terms(terms, f)
print("identity residual:", (direct - approx).norm() / f.norm())

# --- sweep over shift parameters ---------------------------------------------
print("\nverification sweep (20 random inputs per case):")
for (i, j) in [(0, 0), (1, 0), (2, 2), (4, 4)]:
    b = random_function(grid, rng)
    S = random_shift(grid, i, j, rng)
    rep = verify_identity(b, S, trials=20, rng_seed=11)
    print(f"  (i,j)=({i},{j}): {rep['term_count']:2d} terms, "
          f"max residual {rep['max_residual']:.2e}, pass={rep['pass']}")

# --- noncancellative shifts: P enters ----------------------------------------
print("\nnoncancellative orientations:")
for ori in ("analysis", "synthesis"):
    b = random_function(grid, rng)
    Sn = random_shift(grid, 0, 0, rng, kind="noncancellative", orientation=ori)
    tl = decompose(b, Sn)
    kinds = sorted({t.kind for t in tl.terms})
    rep = verify_identity(b, Sn, trials=20, rng_seed=13)
    print(f"  {ori}: kinds {kinds}, residual {rep['max_residual']:.2e}")

# --- the commutator norm grows at most linearly in max(i, j) ------------------
print("\ncommutator norms against (1 + max(i,j)) * bmo(b) * ||f||:")
for (i, j) in [(0, 0), (2, 1), (4, 4)]:
    worst = 0.0
    for _ in range(20):
        b = random_function(grid, rng)
        S = random_shift(grid, i, j, rng)
        f = random_function(grid, rng)
        r = multiplication_commutator(b, S, f).norm() \
            / ((1 + max(i, j)) * dyadic_bmo_norm(b) * f.norm())
        worst = max(worst, r)
    print(f"  (i,j)=({i},{j}): sup ratio {worst:.4f}")
