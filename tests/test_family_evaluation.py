"""The five per-policy estimates run on one family-evaluation core.

estimate_upper, initial_sensitivity, verify_moment_bound, the experiments'
terminal-state loop and bt_over_t all draw one noise block, assemble each
policy on it and reduce; the first four take per-policy means, standard
errors and argmaxes from family_sup, which reduces each column on its own.
The loops they ran before sharing evaluate_family are kept here as
references and compared bit for bit.  Each reference reduces a column as
np.mean and np.std(ddof=1) / sqrt(P) do on that column alone, whatever
the layout of the values it was sampled into.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gcalc import (
    BangBangPolicy,
    CheckRegion,
    ConstantPolicy,
    CovarianceSet,
    ExperimentConfig,
    GeometricModel,
    LyapunovSpec,
    PayoffError,
    PiecewiseConstantPolicy,
    PolicyFamily,
    SigmaBand,
    TimeGrid,
    bt_over_t,
    closed_form_geometric,
    coefficients,
    estimate_upper,
    initial_sensitivity,
    integrate_batch,
    lyapunov_exponent,
    moment_decay_curve,
    threshold_bangbang,
    verify_moment_bound,
)
from gcalc.experiments import LOG_FLOOR
from gcalc.scenario import assemble, batch_noise
from gcalc.upper_expectation import bound_rows, evaluate_family, family_sup

BAND = SigmaBand(1.0, 2.0)
CSET = CovarianceSet(2, [np.diag([1.0, 0.5]), np.array([[1.0, 0.3], [0.3, 1.0]])])


def _sign_rule():
    return BangBangPolicy(lambda k, b, aux: (b[:, 0] >= 0.0).astype(int), name="sign(b1)")


# name -> (family factory, uncertainty set); open-loop, feedback and
# covariance-set families
FAMILIES = {
    "constants": (lambda: PolicyFamily.constants_only(3), BAND),
    "extremes": (PolicyFamily.extreme_constants, BAND),
    "bangbang": (lambda: PolicyFamily.bangbang_threshold([-0.25, 0.0, 0.4]), BAND),
    "mixed": (lambda: PolicyFamily.custom([
        ConstantPolicy(value=1.5), threshold_bangbang(BAND, 0.1, hi_above=False),
        PiecewiseConstantPolicy([(0, 2.0), (3, 1.0)])]), BAND),
    "covariance": (PolicyFamily.extreme_constants, CSET),
    "covariance_feedback": (lambda: PolicyFamily.custom([ConstantPolicy(index=1), _sign_rule()]),
                            CSET),
}
BAND_FAMILIES = sorted(k for k, (_, unc) in FAMILIES.items() if unc is BAND)
SEEDS = st.integers(0, 2**63 - 1)


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


def _same_rows(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert len(g) == len(w)
        for a, b in zip(g, w):
            if isinstance(b, (str, bool, np.bool_)):
                assert a == b and type(a) is type(b)
            else:
                assert _bits(a) == _bits(b)


def _policies(family, unc):
    return family.policies(unc) if isinstance(family, PolicyFamily) else list(family)


def _noise(family_unc, grid, n_paths, seed):
    d = 1 if isinstance(family_unc, SigmaBand) else family_unc.dim
    return batch_noise(seed, 0, n_paths, grid.n_steps, d)


# ---------------------------------------------------------------------------
# references: the per-policy loops as they were written out by hand
# ---------------------------------------------------------------------------


def _ref_estimate_upper(payoff, family, unc, grid, n_paths, seed):
    """Per policy (descriptor, mean, se) for each payoff column, in order."""
    policies = _policies(family, unc)
    noise = _noise(unc, grid, n_paths, seed)
    all_vals = []
    for policy in policies:
        batch = assemble(policy, unc, grid, noise, seed=seed)
        vals = np.asarray(payoff(batch), dtype=float)
        if not np.all(np.isfinite(vals)):
            bad = int(np.argmax(~np.all(np.isfinite(vals.reshape(len(batch), -1)), axis=1)))
            raise PayoffError(
                f"payoff non-finite on path seed={seed} index={bad} under {policy.describe()}")
        all_vals.append(vals)
    columns = [all_vals] if all_vals[0].ndim == 1 else [
        [v[:, j] for v in all_vals] for j in range(all_vals[0].shape[1])]
    out = []
    for vals in columns:
        out.append([(p.describe(), float(np.mean(v)),
                     float(np.std(v, ddof=1) / np.sqrt(len(v)))) for p, v in zip(policies, vals)])
    return out


def _ref_initial_sensitivity(coeffs, x, y, unc, grid, family, n_paths, seed, p=2.0):
    x = np.asarray(x, dtype=float).reshape(coeffs.n)
    y = np.asarray(y, dtype=float).reshape(coeffs.n)
    denom = float(np.linalg.norm(x - y) ** p)
    noise = _noise(unc, grid, n_paths, seed)
    table = []
    best = -np.inf
    for policy in _policies(family, unc):
        batch = assemble(policy, unc, grid, noise, seed=seed)
        solx = integrate_batch(coeffs, x, batch)
        soly = integrate_batch(coeffs, y, batch)
        sup = np.max(np.linalg.norm(solx.x - soly.x, axis=-1), axis=1)
        del batch, solx, soly
        vals = sup**p
        mean = float(np.mean(vals))
        se = float(np.std(vals, ddof=1) / np.sqrt(n_paths))
        table.append((policy.describe(), mean, se))
        best = max(best, mean)
    if denom == 0.0:
        return 0.0, 0.0, 0.0, table
    return best / denom, best, denom, table


def _ref_verify_moment_bound(spec, coeffs, unc, x0, times, family, n_paths, seed, c_ly,
                             n_steps=None, region=None, slack=0.05):
    times = sorted(float(t) for t in times)
    T = times[-1]
    grid = TimeGrid(T, n_steps if n_steps else max(200, int(round(200 * T))))
    indices = [grid.index_of(t) for t in times]
    x0 = np.asarray(x0, dtype=float).reshape(coeffs.n)
    v0 = float(spec.value(0.0, x0[None])[0])
    noise = _noise(unc, grid, n_paths, seed)
    means = []
    ses = []
    excursion = None
    for policy in _policies(family, unc):
        batch = assemble(policy, unc, grid, noise, seed=seed)
        sol = integrate_batch(coeffs, x0, batch)
        if region is not None:
            inside = region.contains(sol.x)
            if not inside.all():
                worst = float(np.max(np.linalg.norm(sol.x, axis=-1)))
                excursion = {"policy": policy.describe(), "max_norm": worst}
        states = sol.x[:, indices, :]
        tarr = np.asarray(times)[None, :]
        vals = spec.value(np.broadcast_to(tarr, states.shape[:2]), states)
        means.append([np.mean(col) for col in vals.T])
        ses.append([np.std(col, ddof=1) / np.sqrt(n_paths) for col in vals.T])
        del batch, sol
    means = np.asarray(means)
    ses = np.asarray(ses)
    best = np.argmax(means, axis=0)
    rows = []
    all_ok = True
    for j, t in enumerate(times):
        est = float(means[best[j], j])
        se = float(ses[best[j], j])
        bound = float(np.exp(c_ly * t) * v0)
        ok = est <= bound * (1.0 + slack) + 3.0 * se
        all_ok &= ok
        rows.append((t, est, se, bound, ok))
    return rows, all_ok and excursion is None, excursion, {"v0": v0, "c_ly": c_ly,
                                                          "n_paths": n_paths, "seed": seed}


def _ref_terminal_states(cfg, grid):
    noise = _noise(cfg.unc, grid, cfg.n_paths, cfg.seed)
    for policy in cfg.family.policies(cfg.unc):
        batch = assemble(policy, cfg.unc, grid, noise, seed=cfg.seed)
        if isinstance(cfg.system, GeometricModel):
            m = cfg.system
            sol = closed_form_geometric(m.alpha, m.beta, m.gamma, m.x0, batch)
        else:
            coeffs, x0 = cfg.system
            sol = integrate_batch(coeffs, x0, batch)
        norms = np.linalg.norm(sol.x, axis=-1)
        del batch, sol
        yield policy, norms


def _ref_moment_decay_rows(cfg):
    lam = cfg.rate()
    grid = cfg.grid()
    times = list(cfg.times) if cfg.times else [cfg.T * k / 4 for k in range(1, 5)]
    indices = [grid.index_of(t) for t in times]
    c0 = cfg.x0_norm() ** cfg.p
    means, ses = [], []
    for _, norms in _ref_terminal_states(cfg, grid):
        vals = norms[:, indices] ** cfg.p
        means.append(vals.mean(axis=0))
        ses.append(vals.std(axis=0, ddof=1) / np.sqrt(cfg.n_paths))
    means = np.asarray(means)
    ses = np.asarray(ses)
    best = np.argmax(means, axis=0)
    rows = []
    passed = True
    for j, t in enumerate(times):
        est = float(means[best[j], j])
        se = float(ses[best[j], j])
        bound = c0 * float(np.exp(-lam * t))
        ok = est <= bound * (1.0 + cfg.slack) + 3.0 * se
        passed &= ok
        rows.append((t, est, se, bound, ok))
    return rows, passed


def _ref_lyapunov_exponent_rows(cfg):
    lam = cfg.rate()
    grid = cfg.grid()
    slack = 3.0 / np.sqrt(cfg.T)
    bound = -lam / cfg.p
    rows = []
    exponents = []
    floored = 0
    for policy, norms in _ref_terminal_states(cfg, grid):
        xt = norms[:, -1]
        floored += int(np.sum(xt < LOG_FLOOR))
        expo = np.log(np.maximum(xt, LOG_FLOOR)) / cfg.T
        exponents.append(expo)
        rows.append((policy.describe(), float(np.max(expo)), float(np.median(expo))))
    allexp = np.concatenate(exponents)
    max_all = float(np.max(allexp))
    rows.append(("ALL", max_all, float(np.median(allexp))))
    return rows, max_all <= bound + slack, floored


def _ref_bt_over_t_rows(unc, family, t_values, n_paths, seed, steps_per_unit, quantile=0.99):
    rows = []
    for T in [float(t) for t in t_values]:
        grid = TimeGrid(T, max(1, int(round(T * steps_per_unit))))
        noise = batch_noise(seed, 0, n_paths, grid.n_steps, 1)
        ratios = []
        for policy in family.policies(unc):
            batch = assemble(policy, unc, grid, noise, seed=seed)
            ratios.append(np.abs(batch.b[:, -1, 0]) / T)
            del batch
        ratios = np.concatenate(ratios)
        rows.append((T, float(np.median(ratios)), float(np.quantile(ratios, quantile))))
    return rows


# ---------------------------------------------------------------------------
# comparisons
# ---------------------------------------------------------------------------

GRID = TimeGrid(0.8, 12)


def _payoffs(unc):
    d = 1 if isinstance(unc, SigmaBand) else unc.dim
    return {
        "square": lambda b: np.sum(b.b[:, -1, :] ** 2, axis=1),
        "butterfly": lambda b: np.maximum(1.0 - np.abs(b.b[:, -1, 0]), 0.0),
        "two_columns": lambda b: np.stack([b.b[:, -1, d - 1], np.einsum("pii->p", b.qvar[:, -1])],
                                          axis=1),
    }


class TestEstimateUpper:
    @pytest.mark.parametrize("payoff", ["square", "butterfly", "two_columns"])
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @given(seed=SEEDS, n_paths=st.integers(2, 40))
    @settings(max_examples=8, deadline=None)
    def test_matches_per_policy_loop(self, family, payoff, seed, n_paths):
        make, unc = FAMILIES[family]
        fn = _payoffs(unc)[payoff]
        want = _ref_estimate_upper(fn, make(), unc, GRID, n_paths, seed)
        got = estimate_upper(fn, make(), unc, GRID, n_paths, seed)
        reports = got if isinstance(got, list) else [got]
        assert len(reports) == len(want)
        for rep, table in zip(reports, want):
            _same_rows([(e.descriptor, e.mean, e.se) for e in rep.table], table)
            best = int(np.argmax([m for _, m, _ in table]))
            assert _bits(rep.value) == _bits(table[best][1])
            assert _bits(rep.std_error) == _bits(table[best][2])
            assert rep.argmax_policy.describe() == table[best][0]
            assert rep.n_paths == n_paths

    def test_payoff_error_names_policy_and_path(self):
        def bad(batch):
            out = np.zeros(len(batch))
            if batch.policy_descriptor == "bangbang(theta=0,lo_above)":
                out[5] = np.nan
            return out

        fam = PolicyFamily.bangbang_threshold([0.0])
        with pytest.raises(PayoffError) as want:
            _ref_estimate_upper(bad, fam, BAND, GRID, 10, 3)
        with pytest.raises(PayoffError) as got:
            estimate_upper(bad, fam, BAND, GRID, 10, 3)
        assert str(got.value) == str(want.value)


class TestEvaluateFamily:
    def test_policies_in_family_order_on_common_noise(self):
        fam = PolicyFamily.constants_only(4)
        policies, noises = evaluate_family(lambda batch: batch.noise, fam, BAND, GRID, 6, 5)
        assert [p.describe() for p in policies] == [p.describe() for p in fam.policies(BAND)]
        want = batch_noise(5, 0, 6, GRID.n_steps, 1)
        assert all(np.array_equal(n, want) for n in noises)

    def test_no_batch_outlives_its_call(self):
        import weakref

        alive = []

        def fn(batch):
            refs.append(weakref.ref(batch))
            alive.append(sum(r() is not None for r in refs))
            return 0.0

        refs = []
        evaluate_family(fn, PolicyFamily.constants_only(5), BAND, GRID, 20, 1)
        assert alive == [1] * 5
        assert all(r() is None for r in refs)

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError, match="empty policy family"):
            evaluate_family(len, [], BAND, GRID, 4, 0)


class TestFamilySup:
    @pytest.mark.parametrize("n_paths", [8, 9, 64, 1000])
    def test_c_and_f_order_give_the_same_bits(self, n_paths):
        rng = np.random.default_rng(n_paths)
        scales = 10.0 ** rng.integers(-3, 4, size=15)
        c_vals = [np.exp(rng.standard_normal((n_paths, 15))) * scales for _ in range(3)]
        f_vals = [np.asfortranarray(v) for v in c_vals]
        assert all(v.flags.c_contiguous and not v.flags.f_contiguous for v in c_vals)
        assert all(v.flags.f_contiguous and not v.flags.c_contiguous for v in f_vals)
        times, bounds = list(range(15)), [1.0] * 15
        _same_rows(bound_rows(times, c_vals, bounds, 0.05)[0],
                   bound_rows(times, f_vals, bounds, 0.05)[0])
        for means, ses, _ in (family_sup(c_vals), family_sup(f_vals)):
            assert _bits(means) == _bits([[np.mean(col) for col in v.T] for v in c_vals])
            assert _bits(ses) == _bits([[np.std(col, ddof=1) / np.sqrt(n_paths) for col in v.T]
                                        for v in c_vals])

    @pytest.mark.parametrize("n_paths", [2, 7, 300, 4097, 20000])
    def test_vector_is_the_one_column_case(self, n_paths):
        rng = np.random.default_rng(n_paths)
        vals = [rng.standard_normal(n_paths) + k for k in range(3)]
        flat = family_sup(vals)
        column = family_sup([v[:, None] for v in vals])
        assert all(_bits(a) == _bits(b) for a, b in zip(flat, column))
        assert flat[0].shape == (3, 1)

    def test_one_path_has_nan_se_without_warning(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            means, ses, best = family_sup([np.array([1.0]), np.array([3.0]), np.array([2.0])])
        assert means[:, 0].tolist() == [1.0, 3.0, 2.0]
        assert np.isnan(ses).all()
        assert best.tolist() == [1]

    def test_nan_mean_is_the_argmax(self):
        _, _, best = family_sup([np.array([[1.0, 5.0]] * 3), np.array([[np.nan, 2.0]] * 3)])
        assert best.tolist() == [1, 0]


def _lipschitz_system(unc):
    if isinstance(unc, SigmaBand):
        return coefficients(1, 1, ["-x1 + 0.3*sin(x1)"], ["0.2*x1"], ["0.5*x1 + 0.1"])
    return coefficients(1, 2, ["-x1"], [[["0.1*x1", "0"], ["0", "0.2*x1"]]],
                        [["x1", "0.5*x1 + 0.2"]])


class TestInitialSensitivity:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @given(seed=SEEDS, n_paths=st.integers(2, 30), eps=st.sampled_from([0.0, 1e-3, 0.5]))
    @settings(max_examples=8, deadline=None)
    def test_matches_per_policy_loop(self, family, seed, n_paths, eps):
        make, unc = FAMILIES[family]
        coeffs = _lipschitz_system(unc)
        args = (coeffs, [1.0], [1.0 - eps], unc, GRID, make(), n_paths, seed)
        ratio, num, den, table = _ref_initial_sensitivity(*args, p=1.5)
        rep = initial_sensitivity(*args, p=1.5)
        assert _bits([rep.ratio, rep.numerator, rep.denominator]) == _bits([ratio, num, den])
        assert rep.p == 1.5
        _same_rows(rep.table, table)

    def test_nan_policy_mean_makes_the_ratio_nan(self):
        # under sigma2 = 100 the first Euler step jumps past x = 2, where
        # sqrt(2 - x1) is nan; under sigma2 = 0.01 the gap stays 0.5
        coeffs = coefficients(1, 1, ["0"], ["sqrt(2 - x1)"], ["0"])
        band = SigmaBand(0.01, 100.0)
        rep = initial_sensitivity(coeffs, [1.0], [0.5], band, TimeGrid(1.0, 10),
                                  PolicyFamily.extreme_constants(), 8, 3)
        assert [e[0] for e in rep.table] == ["const(sigma2=0.01)", "const(sigma2=100)"]
        assert rep.table[0][1] == 0.25 and np.isnan(rep.table[1][1])
        assert np.isnan(rep.numerator) and np.isnan(rep.ratio)
        assert rep.denominator == 0.25


def _lyapunov_case(unc):
    coeffs = _lipschitz_system(unc)
    spec = LyapunovSpec(1, "1 + x1^2 + 0.1*t", mode="analytic", dt="0.1", grad=["2*x1"],
                        hess=[["2"]])
    return coeffs, spec


class TestVerifyMomentBound:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @given(seed=SEEDS, n_paths=st.integers(2, 30), box=st.sampled_from([None, 1.3, 50.0]),
           times=st.sampled_from([[0.5, 1.0], [0.0, 0.3, 0.9], [0.7]]))
    @settings(max_examples=8, deadline=None)
    def test_matches_per_policy_loop(self, family, seed, n_paths, box, times):
        # a box of half-width 1.3 is left by some paths under some policies
        make, unc = FAMILIES[family]
        coeffs, spec = _lyapunov_case(unc)
        region = None if box is None else CheckRegion(1.0, [(-box, box, 3)])
        args = (spec, coeffs, unc, [1.0], times, make(), n_paths, seed, 0.4)
        kw = {"n_steps": 20, "region": region}
        rows, passed, excursion, details = _ref_verify_moment_bound(*args, **kw)
        rep = verify_moment_bound(*args, **kw)
        _same_rows(rep.rows, rows)
        assert rep.passed == passed
        assert rep.region_exceeded == excursion
        assert rep.details == details

    def test_region_left_by_one_policy_only(self):
        coeffs, spec = _lyapunov_case(BAND)
        fam = PolicyFamily.custom([ConstantPolicy(value=1.0), ConstantPolicy(value=2.0)])
        region = CheckRegion(1.0, [(-1.6, 1.6, 3)])
        args = (spec, coeffs, BAND, [1.0], [0.5, 1.0], fam, 400, 11, 0.4)
        _, _, excursion, _ = _ref_verify_moment_bound(*args, n_steps=20, region=region)
        rep = verify_moment_bound(*args, n_steps=20, region=region)
        assert excursion is not None
        assert rep.region_exceeded == excursion
        assert rep.verdict == "region_exceeded"


def _experiment_cfg(family, seed, n_paths, times):
    make, unc = FAMILIES[family]
    if isinstance(unc, SigmaBand):
        system, lam = GeometricModel(alpha=-1.0, beta=0.5, gamma=1.0, x0=1.0), None
    else:
        system, lam = (_lipschitz_system(unc), [1.0]), 0.3
    return ExperimentConfig(system=system, unc=unc, p=0.5, T=1.0, dt=0.05, family=make(),
                            n_paths=n_paths, seed=seed, lam=lam, times=times)


class TestExperiments:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @given(seed=SEEDS, n_paths=st.integers(100, 160),
           times=st.sampled_from([(), (0.25, 1), (0.5, 0.75, 1.0)]))
    @settings(max_examples=6, deadline=None)
    def test_moment_decay_matches_per_policy_loop(self, family, seed, n_paths, times):
        cfg = _experiment_cfg(family, seed, n_paths, times)
        rows, passed = _ref_moment_decay_rows(cfg)
        res = moment_decay_curve(cfg)
        _same_rows(res.rows, rows)
        assert res.passed == passed

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @given(seed=SEEDS, n_paths=st.integers(100, 160))
    @settings(max_examples=6, deadline=None)
    def test_lyapunov_exponent_matches_per_policy_loop(self, family, seed, n_paths):
        cfg = _experiment_cfg(family, seed, n_paths, ())
        rows, passed, floored = _ref_lyapunov_exponent_rows(cfg)
        res = lyapunov_exponent(cfg)
        _same_rows(res.rows, rows)
        assert res.passed == passed
        assert res.details["floored_paths"] == floored

    @pytest.mark.parametrize("family", BAND_FAMILIES)
    @given(seed=SEEDS, n_paths=st.integers(1, 60),
           t_values=st.sampled_from([[2.0], [1.0, 3.0], [2.0, 4.0, 8.0]]),
           steps_per_unit=st.sampled_from([0.5, 1.0, 3.0]))
    @settings(max_examples=6, deadline=None)
    def test_bt_over_t_matches_per_policy_loop(self, family, seed, n_paths, t_values,
                                               steps_per_unit):
        make, _ = FAMILIES[family]
        rows = _ref_bt_over_t_rows(BAND, make(), t_values, n_paths, seed, steps_per_unit)
        res = bt_over_t(BAND, make(), t_values, n_paths, seed, steps_per_unit=steps_per_unit)
        _same_rows(res.rows, rows)
