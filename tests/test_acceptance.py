"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Tolerances are pinned here, not tuned: PDE oracle 1e-3, Monte Carlo
agreement 2% or 3 standard errors, pathwise inequalities 1e-12 or
1e-10 * n_steps, certificate margins 1e-9, and the stated runtime caps.
"""

import time

import numpy as np
import pytest

import gcalc as g

BAND = g.SigmaBand(1.0, 2.0)


def report(num, name, ok, detail=""):
    line = f"[acceptance {num:02d}] {'PASS' if ok else 'FAIL'}  {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def mixed_family(thetas=(0.0,)):
    pols = g.PolicyFamily.extreme_constants().policies(BAND)
    for theta in thetas:
        pols.append(g.threshold_bangbang(BAND, theta, hi_above=True))
        pols.append(g.threshold_bangbang(BAND, theta, hi_above=False))
    return g.PolicyFamily.custom(pols)


def test_criterion_01_gexpectation_oracle_agreement():
    t0 = time.monotonic()
    grid = g.SpaceTimeGrid.with_cfl(-12.0, 12.0, 401, 1.0, BAND)
    pde = g.solve_terminal(BAND, lambda x: x**2, grid).value_at(0.0)
    rep = g.estimate_upper(lambda b: b.b[:, -1, 0] ** 2, g.PolicyFamily.extreme_constants(),
                           BAND, g.TimeGrid(1.0, 50), 100_000, seed=0)
    elapsed = time.monotonic() - t0
    ok = (abs(pde - 2.0) <= 1e-3) and (abs(rep.value - pde) <= 0.02 * abs(pde)) and elapsed <= 30.0
    report(1, "G-expectation oracle agreement (PDE vs Monte Carlo)", ok,
           f"pde={pde:.5f} mc={rep.value:.5f} elapsed={elapsed:.1f}s")


def test_criterion_02_pathwise_inequality_suite():
    t0 = time.monotonic()
    rng = np.random.default_rng(2)
    n_steps = 200
    worst_m = -np.inf
    # d = 1: band scenarios under a threshold rule
    grid = g.TimeGrid(2.0, n_steps)
    batch1 = g.simulate_batch(g.threshold_bangbang(BAND, 0.0), BAND, grid, seed=21, n_paths=5000)
    etas1 = np.repeat(rng.uniform(-3.0, 3.0, size=(5000, 20)), 10, axis=1)[..., None, None]
    worst_m = max(worst_m, float(np.max(g.qv_compensation_check_batch(batch1, etas1))))
    qvar_worst = float(np.max(g.qvar_bounds_check_batch(batch1, BAND)))
    # d = 2: three-member covariance set under a state-sign rule
    members = [np.diag([1.0, 0.5]), np.diag([0.5, 1.0]), np.array([[1.0, 0.3], [0.3, 1.0]])]
    cs = g.CovarianceSet(2, members)
    rule = g.BangBangPolicy(lambda k, b, aux: (b[:, 0] >= 0).astype(int) + (b[:, 1] >= 0).astype(int),
                            name="quadrant")
    batch2 = g.simulate_batch(rule, cs, grid, seed=22, n_paths=5000)
    raw = rng.uniform(-3.0, 3.0, size=(5000, 20, 2, 2))
    etas2 = np.repeat(0.5 * (raw + raw.transpose(0, 1, 3, 2)), 10, axis=1)
    worst_m = max(worst_m, float(np.max(g.qv_compensation_check_batch(batch2, etas2))))
    elapsed = time.monotonic() - t0
    ok = worst_m <= 1e-10 * n_steps and qvar_worst <= 1e-12 and elapsed <= 60.0
    report(2, "pathwise compensation inequalities on 10^4 (eta, path) pairs", ok,
           f"max M={worst_m:.2e} max qvar violation={qvar_worst:.2e} elapsed={elapsed:.1f}s")


def test_criterion_03_gmartingale_normalisation():
    rng = np.random.default_rng(3)
    fam = mixed_family()
    worst = 0.0
    for _ in range(10):
        rate = rng.uniform(0.1, 0.5)  # gamma * p
        at = rng.uniform(0.25, 1.0)
        grid = g.TimeGrid(1.0, 64)
        payoff = g.stochastic_exponential_payoff(rate, at)
        rep = g.estimate_upper(payoff, fam, BAND, grid, 20_000, seed=33)
        for e in rep.table:
            worst = max(worst, abs(e.mean - 1.0))
    report(3, "stochastic exponential normalises to 1 under every policy", worst <= 0.02,
           f"worst |mean-1|={worst:.4f}")


def test_criterion_04_euler_vs_closed_form_rate():
    # the same driving paths are viewed at dt = 1e-2, 1e-3, 1e-4 by
    # coarsening one fine simulation, and the per-quartering contraction of
    # the RMS terminal error is fitted across that range; strong order 1/2
    # means the error halves per quartering, within +-30%
    coeffs = g.coefficients(1, 1, ["a*x1"], ["b*x1"], ["c*x1"],
                            constants={"a": -1.0, "b": 0.5, "c": 1.0})
    fine = g.simulate_batch(g.threshold_bangbang(BAND, 0.0), BAND, g.TimeGrid(1.0, 10_000),
                            seed=44, n_paths=400)
    errs = []
    for factor in (100, 10, 1):
        coarse = g.restrict(fine, factor)
        sol = g.integrate_batch(coeffs, [1.0], coarse)
        ref = g.closed_form_geometric(-1.0, 0.5, 1.0, 1.0, coarse)
        errs.append(float(np.sqrt(np.mean((sol.x[:, -1, 0] - ref.x[:, -1, 0]) ** 2))))
    quarterings = np.log(100.0) / np.log(4.0)  # dt shrinks 100-fold overall
    per_quartering = (errs[-1] / errs[0]) ** (1.0 / quarterings)
    ok = errs[0] > errs[1] > errs[2] and 0.35 <= per_quartering <= 0.65
    report(4, "Euler error halves when dt is quartered (order 1/2)", ok,
           f"rms={['%.2e' % e for e in errs]} per-quartering={per_quartering:.3f}")


def test_criterion_05_localization_consistency():
    coeffs = g.coefficients(2, 1, ["0", "0"], ["x2", "-x1 - x1^3 - x2"], ["0", "1"],
                            lipschitz_tag="local")
    grid = g.TimeGrid(5.0, 1000)
    batch = g.simulate_batch(g.threshold_bangbang(BAND, 0.0), BAND, grid, seed=55, n_paths=1000)
    # bitwise agreement before the exit time, radius 2 vs 4
    sol2 = g.integrate_batch(g.truncate(coeffs, 2.0), [1.0, 0.0], batch)
    sol4 = g.integrate_batch(g.truncate(coeffs, 4.0), [1.0, 0.0], batch)
    exits = sol2.exit_steps(2.0)
    bitwise = all(
        np.array_equal(sol2.x[i, : (e if e >= 0 else grid.n_steps) + 1],
                       sol4.x[i, : (e if e >= 0 else grid.n_steps) + 1])
        for i, e in enumerate(exits)
    )
    rep = g.solve_localized_batch(coeffs, [1.0, 0.0], batch)
    fracs = list(rep.exit_fractions.values())
    ok = bitwise and all(b <= a for a, b in zip(fracs, fracs[1:])) and fracs[-1] == 0.0
    report(5, "localized solutions agree bitwise and settle within the schedule", ok,
           f"exit fractions={[round(f, 3) for f in fracs]}")


def test_criterion_06_moment_bound():
    coeffs = g.coefficients(2, 1, ["0", "0"], ["x2", "-x1 - x1^3 - x2"], ["0", "1"])
    spec = g.LyapunovSpec(2, "1 + 0.5*x2^2 + 0.5*x1^2 + 0.25*x1^4", mode="analytic",
                          dt="0", grad=["x1 + x1^3", "x2"],
                          hess=[["1 + 3*x1^2", "0"], ["0", "1"]])
    region = g.CheckRegion(5.0, [(-8.0, 8.0, 17), (-8.0, 8.0, 17)])
    c_ly = g.g_scalar(BAND, 1.0)  # G(sigma^2) with sigma = 1
    assert g.check_growth_condition(spec, coeffs, BAND, region, c_ly).passed
    rep = g.verify_moment_bound(spec, coeffs, BAND, [1.0, 0.0], [1, 2, 3, 4, 5],
                                mixed_family(), n_paths=500, seed=66, c_ly=c_ly,
                                n_steps=1000, region=region)
    report(6, "expected Lyapunov value stays under exp(c t) V(0, x0)", rep.passed,
           f"rows={[(t, round(est, 3), round(bound, 1)) for t, est, _, bound, _ in rep.rows]}")


def test_criterion_07_exponential_moment_decay():
    model = g.GeometricModel(alpha=-1.0, beta=0.5, gamma=1.0, x0=1.0)
    cfg = g.ExperimentConfig(system=model, unc=BAND, p=0.5, T=10.0, dt=0.01,
                             family=mixed_family(), n_paths=2000, seed=77,
                             times=(1.0, 2.0, 5.0, 10.0))
    res = g.moment_decay_curve(cfg)
    assert res.details["lambda"] == pytest.approx(0.25)
    report(7, "p-th moment decays under exp(-0.25 t) with 5% + 3 s.e. room", res.passed,
           f"rows={[(t, round(est, 4), round(b, 4)) for t, est, _, b, _ in res.rows]}")


def test_criterion_08_quasi_sure_exponent():
    model = g.GeometricModel(alpha=-1.0, beta=0.5, gamma=1.0, x0=1.0)
    cfg = g.ExperimentConfig(system=model, unc=BAND, p=0.5, T=50.0, dt=0.05,
                             family=mixed_family(), n_paths=1000, seed=88)
    res = g.lyapunov_exponent(cfg)
    all_max = [r[1] for r in res.rows if r[0] == "ALL"][0]
    bound = -0.5 + 3.0 / np.sqrt(50.0)
    report(8, "per-path exponents stay under -lambda/p plus finite-T slack",
           res.passed and all_max <= bound, f"max={all_max:.3f} bound={bound:.3f}")


def test_criterion_09_linear_certificates():
    sys_s = g.LinearGSystem([[-3.0]], [[-1.0]], [[1.0]], BAND)
    cert = g.lmi_stable(sys_s, [[1.0]])
    margin_ok = cert.kind == "ms_stable" and abs(cert.margin - 6.0) <= 1e-9
    rng = np.random.default_rng(9)
    sound = all(
        g.riccati_value(sys_s, cert.P, v / np.linalg.norm(v)) <= 1e-9
        for v in rng.normal(size=(10_000, 1))
    )
    cert_u = g.lmi_unstable(g.LinearGSystem([[3.0]], [[0.0]], [[0.0]], BAND), [[1.0]])
    ok = margin_ok and sound and cert_u.kind == "ms_unstable"
    report(9, "derived stable/unstable certificates with sound margins", ok,
           f"margin={cert.margin:.10f} unstable={cert_u.kind}")


def test_criterion_10_admissible_p_ranges():
    ra = g.admissible_p_range(-1.0, 0.0, 1.0)
    rb = g.admissible_p_range(0.0, 1.0, 2.0)
    ok = (ra.case, ra.p_max) == ("a", 3.0) and (rb.case, rb.p_max) == ("b", 2.0)
    report(10, "admissible p-intervals reproduce (0,3) and (0,2) exactly", ok,
           f"a->(0,{ra.p_max:g}) b->(0,{rb.p_max:g})")


def test_criterion_11_bt_over_t_decay():
    res = g.bt_over_t(BAND, mixed_family(), [10.0, 100.0, 1000.0], n_paths=1000, seed=111)
    q99 = [row[2] for row in res.rows]
    ok = res.passed and q99[0] > q99[1] > q99[2] and q99[-1] <= 0.2 * BAND.sigma_hi
    report(11, "|B_t|/t 99th percentile decays and lands under 0.2 sigma_hi", ok,
           f"q99={[round(v, 4) for v in q99]} threshold={0.2 * BAND.sigma_hi:.3f}")


def test_criterion_12_initial_condition_lipschitz():
    coeffs = g.coefficients(1, 1, ["a*x1"], ["b*x1"], ["c*x1"],
                            constants={"a": -1.0, "b": 0.5, "c": 1.0})
    fam = mixed_family()
    ratios = []
    for eps in (1e-1, 1e-2, 1e-3):
        rep = g.initial_sensitivity(coeffs, [1.0], [1.0 - eps], BAND, g.TimeGrid(1.0, 200),
                                    fam, n_paths=400, seed=122, p=2.0)
        ratios.append(rep.ratio)
    ok = max(ratios) / min(ratios) <= 2.0
    report(12, "initial-condition sensitivity ratio is scale-free within factor 2", ok,
           f"ratios={['%.4f' % r for r in ratios]}")
