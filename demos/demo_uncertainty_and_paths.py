#!/usr/bin/env python3
"""Volatility uncertainty 101: bands, the sublinear function G, and
scenario paths whose quadratic variation is sandwiched by the band.

Run:  python3 demos/demo_uncertainty_and_paths.py
"""

import numpy as np

import gcalc as g

band = g.SigmaBand(1.0, 2.0)
print("band [lo, hi] =", (band.sigma2_lo, band.sigma2_hi))
print("G(1)  =", g.g_scalar(band, 1.0), " (upper variance prices positive curvature)")
print("G(-1) =", g.g_scalar(band, -1.0), "(lower variance prices negative curvature)")

cs = g.CovarianceSet(2, [np.diag([1.0, 0.5]), np.diag([0.5, 1.0])])
print("matrix G on diag(4,-4):", g.g_matrix(cs, np.diag([4.0, -4.0])))

# A bang-bang policy switches between the extremes on the sign of B.
# A single path is a batch of one: here path 0 of seed 7.
grid = g.TimeGrid(1.0, 1000)
policy = g.threshold_bangbang(band, 0.0)
path = g.simulate_batch(policy, band, grid, seed=7, n_paths=1)
print("\nsimulated", grid.n_steps, "steps; policy used extremes:",
      sorted(set(path.choices[0])))
print("terminal B =", round(path.b[0, -1, 0], 4),
      " terminal <B> =", round(path.qv_scalar()[0, -1], 4))
print("worst two-sided qvar bound violation over all grid pairs:",
      float(g.qvar_bounds_check_batch(path, band)[0]), "(<= 0 by construction)")

# The pathwise inequality: integral of eta d<B> never beats 2 G(eta) dt.
for eta in (1.0, -1.0):
    m = g.qv_compensation_check_batch(path, eta)[0]
    print(f"max_t M_t with eta={eta:+.0f}: {m:.3e} (nonpositive)")

# Same seed, same path, bit for bit.
again = g.simulate_batch(policy, band, grid, seed=7, n_paths=1)
print("\nreproducible:", np.array_equal(path.b, again.b))
