#!/usr/bin/env python3
"""Solving a locally Lipschitz system by truncation and localization:
the cubic-damped oscillator driven through the quadratic-variation clock.

Run:  python3 demos/demo_localized_gsde.py
"""

import numpy as np

import gcalc as g

band = g.SigmaBand(1.0, 2.0)

# dX = Y d<B>,  dY = (-X - X^3 - Y) d<B> + dB: cubic term is only locally Lipschitz
coeffs = g.coefficients(2, 1, ["0", "0"], ["x2", "-x1 - x1^3 - x2"], ["0", "1"],
                        lipschitz_tag="local")
grid = g.TimeGrid(5.0, 1000)
batch = g.simulate_batch(g.threshold_bangbang(band, 0.0), band, grid, seed=3, n_paths=500)

report = g.solve_localized_batch(coeffs, [1.0, 0.0], batch)
print("exit fractions by truncation radius:")
for radius, frac in report.exit_fractions.items():
    print(f"  N = {radius:4.0f}: {frac:.3f} of paths reach |X| >= N")
print("every path settled; largest radius needed:", report.solution.n0_used)

# Truncation is invisible while the clamp is inactive: radii 2 and 4 produce
# bit-identical states before the exit time.  This is why localization needs
# only one pass, at the schedule's largest radius.
sol2 = g.integrate_batch(g.truncate(coeffs, 2.0), [1.0, 0.0], batch)
sol4 = g.integrate_batch(g.truncate(coeffs, 4.0), [1.0, 0.0], batch)
exits = sol2.exit_steps(2.0)
i = int(np.argmax(exits >= 0))
e = int(exits[i])
print(f"\npath {i} exits radius 2 at step {e};",
      "prefix bitwise-equal:" , np.array_equal(sol2.x[i, : e + 1], sol4.x[i, : e + 1]))

# Linear systems have a closed form; viewing the same fine paths on coarser
# grids shows the Euler error contracting at strong order 1/2.
geo = g.coefficients(1, 1, ["a*x1"], ["b*x1"], ["c*x1"],
                     constants={"a": -1.0, "b": 0.5, "c": 1.0})
print("\nEuler vs closed form for the scalar linear model (shared paths):")
fine = g.simulate_batch(g.threshold_bangbang(band, 0.0), band, g.TimeGrid(1.0, 10_000),
                        seed=4, n_paths=200)
for factor in (100, 10, 1):
    view = g.restrict(fine, factor)
    sol = g.integrate_batch(geo, [1.0], view)
    ref = g.closed_form_geometric(-1.0, 0.5, 1.0, 1.0, view)
    rms = np.sqrt(np.mean((sol.x[:, -1, 0] - ref.x[:, -1, 0]) ** 2))
    print(f"  dt = {view.grid.dt:7.0e}: rms terminal error = {rms:.2e}")
