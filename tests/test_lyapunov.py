import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gcalc import (
    CheckRegion,
    CovarianceSet,
    LyapunovSpec,
    PolicyFamily,
    SigmaBand,
    check_growth_condition,
    check_stability_conditions,
    coefficients,
    eval_L,
    find_cly,
    find_cly_detailed,
    g_matrix,
    g_scalar,
    threshold_bangbang,
    verify_moment_bound,
)
from gcalc import expr as expr_mod
from gcalc import lyapunov as lyapunov_mod
from gcalc.expr import Expression, ExprError
from gcalc.lyapunov import RegionError, SuppliedDerivativeError

BAND = SigmaBand(1.0, 2.0)


def brute_force_L_1d(vt, grad, hess, f, h, g, lo, hi, n_sig=201):
    """Oracle for d=1: sup over a dense sigma^2 grid instead of closed-form G."""
    eta = grad * 2.0 * h + hess * g * g
    sig2 = np.linspace(lo, hi, n_sig)
    return vt + grad * f + 0.5 * np.max(sig2[:, None] * eta[None, :], axis=0)


def duffing():
    coeffs = coefficients(2, 1, ["0", "0"], ["x2", "-x1 - x1^3 - x2"], ["0", "1"])
    spec = LyapunovSpec(2, "1 + 0.5*x2^2 + 0.5*x1^2 + 0.25*x1^4", mode="analytic",
                        dt="0", grad=["x1 + x1^3", "x2"],
                        hess=[["1 + 3*x1^2", "0"], ["0", "1"]])
    return coeffs, spec


class TestEvalL:
    def test_zero_coefficients_reduce_to_time_derivative(self):
        coeffs = coefficients(1, 1, ["0"], ["0"], ["0"])
        spec = LyapunovSpec(1, "t*x1^2", mode="analytic", dt="x1^2", grad=["2*t*x1"],
                            hess=[["2*t"]])
        assert eval_L(spec, coeffs, BAND, 3.0, np.array([2.0])) == pytest.approx(4.0)

    def test_quadratic_with_linear_diffusion(self):
        # V = 1 + x^2, g = x: eta = 2x^2, LV = G(2x^2) = sigma2_hi x^2
        coeffs = coefficients(1, 1, ["0"], ["0"], ["x1"])
        spec = LyapunovSpec(1, "1 + x1^2", mode="analytic", dt="0", grad=["2*x1"], hess=[["2"]])
        assert eval_L(spec, coeffs, BAND, 0.0, np.array([1.0])) == pytest.approx(2.0)

    def test_against_sigma_grid_oracle(self):
        rng = np.random.default_rng(0)
        coeffs = coefficients(1, 1, ["-3*x1"], ["-x1"], ["x1"])
        spec = LyapunovSpec(1, "x1^2", mode="analytic", dt="0", grad=["2*x1"], hess=[["2"]])
        x = rng.uniform(-3, 3, size=100)
        got = eval_L(spec, coeffs, BAND, 0.0, x[:, None])
        want = brute_force_L_1d(0.0, 2 * x, 2.0 * np.ones_like(x), -3 * x, -x, x,
                                BAND.sigma2_lo, BAND.sigma2_hi)
        assert np.allclose(got, want, atol=1e-6)

    def test_duffing_reduction_identity(self):
        # LV collapses to G(sigma^2 - 2 gamma y^2); checked on a 1000-point grid
        coeffs, spec = duffing()
        rng = np.random.default_rng(1)
        pts = rng.uniform(-4, 4, size=(1000, 2))
        lv = eval_L(spec, coeffs, BAND, 0.0, pts)
        want = g_scalar(BAND, 1.0 - 2.0 * pts[:, 1] ** 2)
        assert np.max(np.abs(lv - want)) <= 1e-6

    def test_fd_mode_agrees_on_duffing(self):
        coeffs, spec = duffing()
        fd = LyapunovSpec(2, "1 + 0.5*x2^2 + 0.5*x1^2 + 0.25*x1^4", mode="finite_difference")
        rng = np.random.default_rng(2)
        pts = rng.uniform(-4, 4, size=(1000, 2))
        a = eval_L(spec, coeffs, BAND, 0.0, pts)
        b = eval_L(fd, coeffs, BAND, 0.0, pts)
        assert np.max(np.abs(a - b) / (1.0 + np.abs(a))) <= 1e-6

    @pytest.mark.parametrize("unc", [BAND, CovarianceSet(1, [np.eye(1), 2.0 * np.eye(1)])])
    def test_singular_point_raises_without_numpy_warning(self, unc):
        # f = inf and h = -inf at x1 = 0, so grad.f + G(eta) is inf - inf
        import warnings

        coeffs = coefficients(1, 1, ["1/x1"], ["-1/x1"], ["0"])
        spec = LyapunovSpec(1, "x1", mode="analytic", dt="0", grad=["1"], hess=[["0"]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ExprError, match=r"not finite at t=0.0, x=\[0.0\]"):
                eval_L(spec, coeffs, unc, 0.0, np.array([[1.0], [0.0]]))


class TestOperatorStructure:
    def test_sublinear_through_G(self):
        coeffs = coefficients(1, 1, ["-x1"], ["x1"], ["x1"])
        v = LyapunovSpec(1, "1 + x1^2", mode="analytic", dt="0", grad=["2*x1"], hess=[["2"]])
        w = LyapunovSpec(1, "2 + x1^4", mode="analytic", dt="0", grad=["4*x1^3"], hess=[["12*x1^2"]])
        vw = LyapunovSpec(1, "3 + x1^2 + x1^4", mode="analytic", dt="0",
                          grad=["2*x1 + 4*x1^3"], hess=[["2 + 12*x1^2"]])
        x = np.linspace(-3, 3, 101)[:, None]
        lv = eval_L(v, coeffs, BAND, 0.0, x)
        lw = eval_L(w, coeffs, BAND, 0.0, x)
        lvw = eval_L(vw, coeffs, BAND, 0.0, x)
        assert np.all(lvw <= lv + lw + 1e-10)

    def test_positive_scaling_exact(self):
        coeffs = coefficients(1, 1, ["-x1"], ["x1"], ["x1"])
        v = LyapunovSpec(1, "1 + x1^2", mode="analytic", dt="0", grad=["2*x1"], hess=[["2"]])
        cv = LyapunovSpec(1, "2.5*(1 + x1^2)", mode="analytic", dt="0",
                          grad=["2.5*(2*x1)"], hess=[["5"]])
        x = np.linspace(-3, 3, 41)[:, None]
        assert np.allclose(eval_L(cv, coeffs, BAND, 0.0, x), 2.5 * eval_L(v, coeffs, BAND, 0.0, x),
                           rtol=1e-12, atol=1e-12)


class TestCheckH3:
    def test_duffing_passes_at_derived_constant(self):
        coeffs, spec = duffing()
        region = CheckRegion(5.0, [(-5, 5, 21), (-5, 5, 21)])
        report = check_growth_condition(spec, coeffs, BAND, region, c_ly=1.0)  # G(sigma^2) = 1
        assert report.passed

    def test_duffing_fails_at_zero_with_argmax_near_y0(self):
        coeffs, spec = duffing()
        region = CheckRegion(5.0, [(-5, 5, 21), (-5, 5, 21)])
        report = check_growth_condition(spec, coeffs, BAND, region, c_ly=0.0)
        assert not report.passed
        assert abs(report.argmax_x[1]) <= 0.5  # violation peaks where y = 0
        assert report.max_violation == pytest.approx(1.0, abs=1e-9)

    def test_constant_candidate_trivially_passes(self):
        coeffs = coefficients(1, 1, ["0"], ["0"], ["0"])
        spec = LyapunovSpec(1, "4", mode="analytic", dt="0", grad=["0"], hess=[["0"]])
        region = CheckRegion(1.0, [(-2, 2, 9)])
        assert check_growth_condition(spec, coeffs, BAND, region, c_ly=0.0).passed

    def test_nonneg_flag_enforced(self):
        coeffs = coefficients(1, 1, ["0"], ["0"], ["0"])
        spec = LyapunovSpec(1, "x1^2 - 10", mode="analytic", dt="0", grad=["2*x1"], hess=[["2"]])
        region = CheckRegion(1.0, [(-2, 2, 9)])
        with pytest.raises(RegionError):
            check_growth_condition(spec, coeffs, BAND, region, c_ly=0.0)

    def test_grid_refinement_with_slack(self):
        coeffs, spec = duffing()
        coarse = check_growth_condition(spec, coeffs, BAND, CheckRegion(5.0, [(-5, 5, 11), (-5, 5, 11)]), 0.5)
        fine = check_growth_condition(spec, coeffs, BAND, CheckRegion(5.0, [(-5, 5, 21), (-5, 5, 21)]), 0.5)
        slack = coarse.diagnostics["lipschitz_slack"]
        assert fine.max_violation >= coarse.max_violation - slack


class TestFindCly:
    def test_time_independent_zero(self):
        coeffs = coefficients(1, 1, ["0"], ["0"], ["0"])
        spec = LyapunovSpec(1, "1 + x1^2", mode="analytic", dt="0", grad=["2*x1"], hess=[["2"]])
        region = CheckRegion(1.0, [(-2, 2, 9)])
        assert find_cly(spec, coeffs, BAND, region) == 0.0

    def test_duffing_constant(self):
        coeffs, spec = duffing()
        region = CheckRegion(5.0, [(-5, 5, 41), (-5, 5, 41)])
        c = find_cly(spec, coeffs, BAND, region)
        assert c == pytest.approx(1.0, abs=0.05)  # max of G(1-2y^2)/V sits at the origin

    def test_geometric_pnorm_clips_to_zero(self):
        coeffs = coefficients(1, 1, ["-x1"], ["0.5*x1"], ["x1"])
        spec = LyapunovSpec(1, "abs(x1)^0.5", mode="finite_difference", nonneg=True)
        region = CheckRegion(1.0, [(-3, 3, 41)], exclude_r0=0.25)
        detail = find_cly_detailed(spec, coeffs, BAND, region)
        assert detail.diagnostics["clipped"] == 0.0
        assert detail.diagnostics["raw"] == pytest.approx(-0.25, abs=1e-3)

    def test_vanishing_candidate_names_point(self):
        coeffs = coefficients(1, 1, ["0"], ["0"], ["0"])
        spec = LyapunovSpec(1, "x1^2", mode="analytic", dt="0", grad=["2*x1"], hess=[["2"]])
        region = CheckRegion(1.0, [(-2, 2, 9)])  # grid contains 0
        with pytest.raises(RegionError, match="x=\\[0.0\\]"):
            find_cly(spec, coeffs, BAND, region)


class TestStabilityConditions:
    def linear_system(self, drift):
        coeffs = coefficients(1, 1, [f"{drift}*x1"], ["-x1"], ["x1"])
        spec = LyapunovSpec(1, "x1^2", mode="analytic", dt="0", grad=["2*x1"], hess=[["2"]])
        region = CheckRegion(1.0, [(-3, 3, 25)], exclude_r0=1e-6)
        return coeffs, spec, region

    def test_sandwich_for_square(self):
        _, spec, region = self.linear_system(-3.0)
        report = check_stability_conditions(spec, None, BAND, region,
                                            {"p": 2.0, "c1": 1.0, "c2": 1.0}, "sandwich")
        assert report.passed

    def test_exp_stable_at_derived_rate(self):
        # f = -3x, h = -x, g = x: LV = -6x^2 + G(-2x^2) = -7x^2 <= -7 V
        coeffs, spec, region = self.linear_system(-3.0)
        report = check_stability_conditions(spec, coeffs, BAND, region, {"lambda": 7.0}, "exp_stable")
        assert report.passed
        worse = check_stability_conditions(spec, coeffs, BAND, region, {"lambda": 7.5}, "exp_stable")
        assert not worse.passed

    def test_exact_rate_in_default_mode(self):
        # dX = -3X dt + 0.5X d<B> + X dB with V = x^2: LV = -6x^2 + G(2x^2) = -2V
        # exactly, so lambda = 2 holds on the grid to rounding and 2.5 fails
        coeffs = coefficients(1, 1, ["-3*x1"], ["0.5*x1"], ["x1"])
        spec = LyapunovSpec(1, "x1^2")
        region = CheckRegion(1.0, [(-50, 50, 101)])
        exact = check_stability_conditions(spec, coeffs, BAND, region, {"lambda": 2.0}, "exp_stable")
        assert exact.passed and abs(exact.max_violation) <= 1e-12 * 2500
        worse = check_stability_conditions(spec, coeffs, BAND, region, {"lambda": 2.5}, "exp_stable")
        assert not worse.passed and worse.max_violation == pytest.approx(0.5 * 2500)

    def test_exp_unstable_at_derived_rate(self):
        # f = +3x: LV = 6x^2 + G(-2x^2) = 5x^2 >= 5 V
        coeffs, spec, region = self.linear_system(3.0)
        report = check_stability_conditions(spec, coeffs, BAND, region, {"lambda": 5.0}, "exp_unstable")
        assert report.passed

    def test_nonpositive(self):
        coeffs, spec, region = self.linear_system(-3.0)
        report = check_stability_conditions(spec, coeffs, BAND, region, {}, "nonpositive")
        assert report.passed

    def test_infinite_v_sets_no_tolerance(self):
        # V = inf at x1 = 0: the tolerance scale is max |V| over the finite
        # values, 1 + 1 = 2 at x1 = +-1, and the infinite violation fails
        spec = LyapunovSpec(1, "1 + 1/x1^2")
        region = CheckRegion(1.0, [(-1, 1, 3)])
        report = check_stability_conditions(spec, None, BAND, region,
                                            {"p": 2.0, "c1": 0.5, "c2": 3.0}, "sandwich")
        assert report.max_violation == np.inf and report.tolerance == 1e-9 * 3.0
        assert not report.passed and report.verdict == "fail"

    @pytest.mark.parametrize("violation", [np.inf, -np.inf, np.nan])
    def test_non_finite_violation_never_passes(self, violation):
        for tol in (1e-9, np.inf):
            assert not lyapunov_mod.CheckReport("c", violation, 0.0, [0.0], tol, 1).passed

    def test_parameter_validation(self):
        coeffs, spec, region = self.linear_system(-3.0)
        with pytest.raises(ValueError):
            check_stability_conditions(spec, coeffs, BAND, region, {"lambda": -1.0}, "exp_stable")
        with pytest.raises(ValueError):
            check_stability_conditions(spec, coeffs, BAND, region, {}, "weird")


class TestRegion:
    def test_validation(self):
        with pytest.raises(RegionError):
            CheckRegion(1.0, [(-1, 1, 1)])
        with pytest.raises(RegionError):
            CheckRegion(1.0, [(2, -2, 5)])

    def test_exclusion_ball(self):
        region = CheckRegion(1.0, [(-1, 1, 3), (-1, 1, 3)], exclude_r0=0.5)
        _, pts = region.grid()
        assert np.all(np.linalg.norm(pts, axis=1) >= 0.5)

    @pytest.mark.parametrize("nt", [0, -3])
    def test_time_count_at_least_one(self, nt):
        with pytest.raises(RegionError, match="nt must be >= 1"):
            CheckRegion(1.0, [(-1, 1, 3)], nt=nt)

    def test_end_time_nonnegative(self):
        with pytest.raises(RegionError, match="t_end must be >= 0"):
            CheckRegion(-2.0, [(-1, 1, 3)])

    @pytest.mark.parametrize("t_end, nt, times", [(2.0, 3, [0.0, 1.0, 2.0]), (2.0, 1, [0.0]),
                                                  (0.0, 4, [0.0])])
    def test_grid_pairs_every_time_with_every_state(self, t_end, nt, times):
        region = CheckRegion(t_end, [(-1, 1, 3), (-1, 1, 3)], exclude_r0=0.5, nt=nt)
        states = region.states()
        assert region.times().tolist() == times and len(states) == 8
        T, X = region.grid()
        assert T.tolist() == [t for t in times for _ in states]
        assert np.array_equal(X, np.tile(states, (len(times), 1)))

    @pytest.mark.parametrize("v", ["x1^2", "(1 + t)*x1^2"])
    def test_no_slack_once_the_ball_breaks_the_lattice(self, v):
        # 3 states left of 4 at 4 times: 12 values would fill the 4-point
        # lattice three times over, out of register with it
        coeffs = coefficients(1, 1, ["-x1"], ["0"], ["0"])
        spec = LyapunovSpec(1, v, mode="finite_difference")
        region = CheckRegion(1.0, [(-1, 2, 4)], exclude_r0=0.5, nt=4)
        rep = check_growth_condition(spec, coeffs, BAND, region, 1.0)
        assert rep.grid_size == 12 and "lipschitz_slack" not in rep.diagnostics
        whole = CheckRegion(1.0, [(-1, 2, 4)], nt=4)
        assert "lipschitz_slack" in check_growth_condition(spec, coeffs, BAND, whole, 1.0).diagnostics


def _mixed_family():
    pols = PolicyFamily.extreme_constants().policies(BAND)
    pols += [threshold_bangbang(BAND, 0.0, hi_above=True)]
    return PolicyFamily.custom(pols)


class TestMomentBound:
    def test_zero_coefficients_constant_candidate(self):
        coeffs = coefficients(1, 1, ["0"], ["0"], ["0"])
        spec = LyapunovSpec(1, "1 + x1^2", mode="analytic", dt="0", grad=["2*x1"], hess=[["2"]])
        rep = verify_moment_bound(spec, coeffs, BAND, [1.0], [0.5, 1.0], _mixed_family(),
                                  n_paths=200, seed=0, c_ly=0.0, n_steps=100)
        assert rep.passed
        for _, est, _, bound, _ in rep.rows:
            assert est == pytest.approx(2.0) and bound == 2.0

    def test_duffing_bound_holds(self):
        coeffs, spec = duffing()
        region = CheckRegion(5.0, [(-8, 8, 9), (-8, 8, 9)])
        rep = verify_moment_bound(spec, coeffs, BAND, [1.0, 0.0], [1, 3, 5], _mixed_family(),
                                  n_paths=300, seed=1, c_ly=1.0, n_steps=1000, region=region)
        assert rep.passed and rep.verdict == "pass"

    def test_geometric_exponential_decay(self):
        # |X_t|^0.5 with the derived decay exponent 0.25 for sigma2_hi = 2
        coeffs = coefficients(1, 1, ["-x1"], ["0.5*x1"], ["x1"])
        spec = LyapunovSpec(1, "abs(x1)^0.5", mode="finite_difference", nonneg=True)
        rep = verify_moment_bound(spec, coeffs, BAND, [1.0], [1.0, 2.0], _mixed_family(),
                                  n_paths=2000, seed=2, c_ly=-0.25, n_steps=2000)
        assert rep.passed
        for t, est, se, bound, _ in rep.rows:
            assert bound == pytest.approx(np.exp(-0.25 * t))

    def test_region_exceeded_reported(self):
        coeffs, spec = duffing()
        tiny = CheckRegion(5.0, [(-0.5, 0.5, 5), (-0.5, 0.5, 5)])
        rep = verify_moment_bound(spec, coeffs, BAND, [1.0, 0.0], [1.0], _mixed_family(),
                                  n_paths=100, seed=3, c_ly=1.0, n_steps=200, region=tiny)
        assert rep.verdict == "region_exceeded"
        assert rep.region_exceeded["max_norm"] > 0.5


# --- references: the finite-difference stencil that LyapunovSpec replaced, and
# eval_L assembled from separate eval_* calls


def _ref_env(n, t, x):
    env = {"t": t}
    for i in range(n):
        env[f"x{i + 1}"] = x[..., i]
    return env


def ref_derivatives(spec, t, x, h_fd=1e-5, h_fd2=1e-4):
    """The copy-and-shift stencil, one entry at a time."""
    x = np.asarray(x, dtype=float)
    shape = np.broadcast_shapes(np.shape(t), x.shape[:-1])
    n = spec.n
    xnorm = np.linalg.norm(x, axis=-1)
    h1 = h_fd * (1.0 + xnorm)
    h2 = h_fd2 * (1.0 + xnorm)
    ht = h_fd * (1.0 + np.abs(np.asarray(t, dtype=float)))

    def v_at(tt, xx):
        return np.broadcast_to(np.asarray(spec.v.eval(_ref_env(n, tt, xx)), dtype=float), shape)

    vt = (v_at(np.asarray(t) + ht, x) - v_at(np.asarray(t) - ht, x)) / (2.0 * ht)
    grad = np.empty(shape + (n,))
    hess = np.empty(shape + (n, n))
    v0 = v_at(t, x)
    for i in range(n):
        xp = x.copy()
        xm = x.copy()
        xp[..., i] = xp[..., i] + h1
        xm[..., i] = xm[..., i] - h1
        grad[..., i] = (v_at(t, xp) - v_at(t, xm)) / (2.0 * h1)
    for i in range(n):
        xp = x.copy()
        xm = x.copy()
        xp[..., i] = xp[..., i] + h2
        xm[..., i] = xm[..., i] - h2
        hess[..., i, i] = (v_at(t, xp) - 2.0 * v0 + v_at(t, xm)) / (h2 * h2)
        for j in range(i + 1, n):
            acc = 0.0
            for si, sj in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                xx = x.copy()
                xx[..., i] = xx[..., i] + si * h2
                xx[..., j] = xx[..., j] + sj * h2
                acc = acc + si * sj * v_at(t, xx)
            hess[..., i, j] = hess[..., j, i] = acc / (4.0 * h2 * h2)
    return vt, grad, hess


def ref_eval_L(spec, coeffs, unc, t, x):
    """L V from spec's derivative arrays and three separate eval_* calls."""
    x = np.asarray(x, dtype=float)
    vt, grad, hess = spec.derivatives(t, x)
    fv = coeffs.eval_f(t, x)
    hv = coeffs.eval_h(t, x)
    gv = coeffs.eval_g(t, x)
    h_sym = hv + np.swapaxes(hv, -1, -2)
    eta = np.einsum("...n,...nij->...ij", grad, h_sym) + np.einsum(
        "...mn,...mi,...nj->...ij", hess, gv, gv)
    gval = g_scalar(unc, eta[..., 0, 0]) if isinstance(unc, SigmaBand) else g_matrix(unc, eta)
    out = vt + np.einsum("...n,...n->...", grad, fv) + gval
    return float(out) if np.ndim(out) == 0 else out


COV = CovarianceSet(2, [np.eye(2), np.array([[2.0, 0.5], [0.5, 1.0]])])
# t-dependent and non-polynomial terms; x{k} stands for a state variable
TERMS = ("exp(-t)*x{a}^2", "sin(x{a})*x{b}", "log(1 + x{a}^2)", "sqrt(1 + t + x{b}^2)",
         "tanh(x{a})*t", "abs(x{a})^1.5", "cos(t*x{b}) + 2", "x{a}*x{b}^3")


@st.composite
def candidates(draw):
    """(n, V source, coefficients, uncertainty)."""
    n = draw(st.integers(1, 3))

    def term():
        src = draw(st.sampled_from(TERMS))
        return src.format(a=draw(st.integers(1, n)), b=draw(st.integers(1, n)))

    def terms(k):
        return " + ".join(term() for _ in range(k))

    v = terms(draw(st.integers(1, 3)))
    unc = draw(st.sampled_from([BAND, COV]))
    d = unc.dim
    coeffs = coefficients(n, d, [term() for _ in range(n)],
                          [[[term() for _ in range(d)] for _ in range(d)] for _ in range(n)],
                          [[term() for _ in range(d)] for _ in range(n)])
    return n, v, coeffs, unc


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).tobytes()


class TestReferenceEquivalence:
    @given(candidates(), st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_derivatives_and_L_bitwise(self, cand, seed, scalar_t):
        n, v, coeffs, unc = cand
        rng = np.random.default_rng(seed)
        x = rng.uniform(-2.0, 2.0, size=(17, n))
        t = 0.7 if scalar_t else rng.uniform(0.0, 3.0, size=17)
        spec = LyapunovSpec(n, v)
        assert _bits(eval_L(spec, coeffs, unc, t, x)) == _bits(ref_eval_L(spec, coeffs, unc, t, x))
        # the symbolic tables agree with the stencil to its accuracy,
        # estimated from a stencil at half steps
        for got, full, half in zip(spec.derivatives(t, x), ref_derivatives(spec, t, x),
                                   ref_derivatives(spec, t, x, 0.5e-5, 0.5e-4)):
            tol = 1e-6 * (1.0 + np.abs(full)) + 4.0 * np.abs(full - half)
            assert got.shape == full.shape and np.all(np.abs(got - full) <= tol)


class TestOneVPass:
    def test_growth_check_evaluates_v_once(self, monkeypatch):
        coeffs, spec = duffing()
        region = CheckRegion(1.0, [(-2, 2, 5), (-2, 2, 5)])
        calls = []
        original = Expression.eval

        def counting(self, env):
            calls.append(self is spec.v)
            return original(self, env)

        monkeypatch.setattr(Expression, "eval", counting)
        check_growth_condition(spec, coeffs, BAND, region, c_ly=1.0)
        assert sum(calls) == 1

    @pytest.mark.parametrize("condition", ["growth", "find_cly", "exp_stable", "sandwich"])
    def test_default_mode_checks_evaluate_v_once(self, monkeypatch, condition):
        # a spec without supplied tables evaluates V once on the grid and its
        # derivative tables once each, and reports what a spec with agreeing
        # hand-written tables reports; V and dV/dt are single expressions,
        # the gradient and Hessian are compiled tables that expr.fill runs
        # without Expression.eval
        coeffs, analytic = duffing()
        spec = LyapunovSpec(2, "1 + 0.5*x2^2 + 0.5*x1^2 + 0.25*x1^4", mode="finite_difference")
        region = CheckRegion(1.0, [(-2, 2, 5), (-2, 2, 5)])
        params = {"lambda": 0.5, "p": 2.0, "c1": 0.1, "c2": 10.0}

        def run(s):
            if condition == "growth":
                rep = check_growth_condition(s, coeffs, BAND, region, 1.0)
            elif condition == "find_cly":
                rep = find_cly_detailed(s, coeffs, BAND, region)
            else:
                rep = check_stability_conditions(s, coeffs, BAND, region, params, condition)
            return json.dumps(rep.to_json_dict())

        want = run(analytic)
        calls = []
        original_eval, original_fill = Expression.eval, expr_mod.fill

        def counting_eval(self, env):
            calls.append(self)
            return original_eval(self, env)

        def counting_fill(tab, env, shape):
            calls.append(tab)
            return original_fill(tab, env, shape)

        monkeypatch.setattr(Expression, "eval", counting_eval)
        monkeypatch.setattr(expr_mod, "fill", counting_fill)
        got = run(spec)
        tables = [spec.v, spec.dt_expr, spec.grad_exprs, spec.hess_exprs]
        counts = [sum(c is e for c in calls) for e in tables]
        assert counts == [1] + [0 if condition == "sandwich" else 1] * 3
        entries = [*spec.grad_exprs, *(e for row in spec.hess_exprs for e in row)]
        assert not any(c is e for c in calls for e in entries)
        assert got == want

    def test_time_free_candidate_non_finite_still_rejected(self):
        coeffs = coefficients(1, 1, ["0"], ["0"], ["0"])
        spec = LyapunovSpec(1, "1 / x1", mode="finite_difference")
        with pytest.raises(ExprError, match=r"not finite at t=0.0, x=\[0.0\]"):
            eval_L(spec, coeffs, BAND, 0.0, np.array([[1.0], [0.0]]))


class TestSuppliedDerivatives:
    # dX = 0.5X dt grows; V = x^2 has LV = x^2, and the wrong-sign gradient
    # -2x would make it -x^2 <= -0.5 V
    GROWING = coefficients(1, 1, ["0.5*x1"], ["0"], ["0"])
    REGION = CheckRegion(1.0, [(-1, 1, 5)])

    @pytest.mark.parametrize("which", ["sandwich", "nonpositive", "exp_stable", "exp_unstable"])
    def test_wrong_sign_gradient_raises(self, which):
        spec = LyapunovSpec(1, "x1^2", mode="analytic", grad=["-2*x1"], hess=[["2"]])
        params = {"lambda": 0.5, "p": 2.0, "c1": 0.5, "c2": 2.0}
        with pytest.raises(SuppliedDerivativeError) as err:
            check_stability_conditions(spec, self.GROWING, BAND, self.REGION, params, which)
        assert err.value.entry == "grad/0"
        assert str(err.value) == ("supplied grad/0 is 2.0 where V's symbolic derivative is "
                                  "-2.0, at t=0.0, x=[-1.0]")
        # the verdict comes from V's own derivatives
        plain = LyapunovSpec(1, "x1^2")
        if which == "exp_stable":
            rep = check_stability_conditions(plain, self.GROWING, BAND, self.REGION, params, which)
            assert not rep.passed and rep.max_violation == 1.5

    @pytest.mark.parametrize("run", [
        lambda s, c, r: check_growth_condition(s, c, BAND, r, 0.0),
        lambda s, c, r: find_cly_detailed(s, c, BAND, r),
    ], ids=["growth", "find_cly"])
    def test_every_check_compares(self, run):
        spec = LyapunovSpec(1, "1 + x1^2", mode="analytic", dt="0", grad=["2*x1"],
                            hess=[["2 + x1"]])
        with pytest.raises(SuppliedDerivativeError, match=r"hess/0/0 is 1.0 .* x=\[-1.0\]"):
            run(spec, self.GROWING, self.REGION)

    def test_time_in_a_supplied_table_is_checked_at_every_time(self):
        # V and the system are time-free, so without /dV the check would
        # evaluate t = 0 alone, where 2*x1 + t agrees with dV/dx1
        spec = LyapunovSpec(1, "x1^2", grad=["2*x1 + t"])
        region = CheckRegion(2.0, [(-1, 1, 5)], nt=3)
        with pytest.raises(SuppliedDerivativeError, match=r"grad/0 is 2.0 .* is 0.0, at t=2.0"):
            check_growth_condition(spec, self.GROWING, BAND, region, 1.0)
        assert spec.supplied["grad"].free_variables == {"t", "x1"}

    @pytest.mark.parametrize("offset, ok", [(0.5e-9, True), (2e-9, False)])
    def test_tolerance(self, offset, ok):
        # |supplied - s| <= 1e-9 (1 + |s|), with s = 0 at x = 0
        spec = LyapunovSpec(1, "x1^2", grad=[f"2*x1 + {offset!r}"])
        try:
            check_growth_condition(spec, self.GROWING, BAND, self.REGION, 1.0)
            passed = True
        except SuppliedDerivativeError as e:
            passed = False
            assert "at t=0.0, x=[0.0]" in str(e)
        assert passed == ok

    def test_non_finite_symbolic_point_left_to_eval_L(self):
        # V's derivatives of |x1| are NaN at the kink, whatever the supplied
        # value there, and agree with these tables elsewhere
        coeffs = coefficients(1, 1, ["-x1"], ["0"], ["1"])
        spec = LyapunovSpec(1, "abs(x1)", grad=["x1/abs(x1)"], hess=[["0"]])
        with pytest.raises(ExprError, match=r"not finite at t=0.0, x=\[0.0\]"):
            check_stability_conditions(spec, coeffs, BAND, self.REGION, {}, "nonpositive")

    @pytest.mark.parametrize("v, dv", [
        ("1 + 0.5*x2^2 + 0.5*x1^2 + 0.25*x1^4",
         {"dt": "0", "grad": ["x1 + x1^3", "x2"], "hess": [["1 + 3*x1^2", "0"], ["0", "1"]]}),
        ("exp(-t)*(1 + x1^2 + x2^2)",
         {"dt": "-exp(-t)*(1 + x1^2 + x2^2)", "grad": ["2*exp(-t)*x1", "2*exp(-t)*x2"],
          "hess": [["2*exp(-t)", "0"], ["0", "2*exp(-t)"]]}),
    ], ids=["time_free", "timed"])
    def test_agreeing_tables_leave_reports_unchanged(self, v, dv):
        coeffs = coefficients(2, 1, ["0", "0"], ["x2", "-x1 - x1^3 - x2"], ["0", "1"])
        region = CheckRegion(2.0, [(-2, 2, 9), (-2, 2, 9)], exclude_r0=0.3, nt=3)
        plain = condition_outcomes(LyapunovSpec(2, v), coeffs, BAND, region)
        assert condition_outcomes(LyapunovSpec(2, v, mode="analytic", **dv),
                                  coeffs, BAND, region) == plain
        assert not any(o.startswith("SuppliedDerivativeError") for o in plain)

    def test_mode_is_checked_but_changes_nothing(self):
        with pytest.raises(ValueError, match="mode must be"):
            LyapunovSpec(1, "x1^2", mode="symbolic")
        a, b = LyapunovSpec(1, "x1^2", mode="analytic"), LyapunovSpec(1, "x1^2")
        assert (a.dt_expr, a.grad_exprs, a.hess_exprs, a.supplied) == \
            (b.dt_expr, b.grad_exprs, b.hess_exprs, {})


# --- reference: the full (t, x) grid that time-free checks no longer evaluate


def full_grid_v_lv(spec, coeffs, unc, region, vet=None, with_lv=True):
    """T, X, V, L V on every (t, x) point, whether or not t appears."""
    T, X = region.grid()
    v = spec.value(T, X)
    if vet is not None:
        vet(T, X, v)
    spec.check_supplied(T, X)
    return T, X, v, (eval_L(spec, coeffs, unc, T, X) if with_lv else None), len(region.states())


def condition_outcomes(spec, coeffs, unc, region):
    """The JSON report of every condition, or the error it raises, as text."""
    params = {"lambda": 0.5, "p": 2.0, "c1": 0.5, "c2": 3.0}
    runs = [lambda: check_growth_condition(spec, coeffs, unc, region, 1.0),
            lambda: find_cly_detailed(spec, coeffs, unc, region)]
    runs += [lambda w=w: check_stability_conditions(spec, coeffs, unc, region, params, w)
             for w in ("sandwich", "nonpositive", "exp_stable", "exp_unstable")]
    out = []
    for run in runs:
        try:
            out.append(json.dumps(run().to_json_dict()))
        except (RegionError, ExprError, SuppliedDerivativeError) as e:
            out.append(f"{type(e).__name__}: {e}")
    return out


# x{k} stands for a state variable; 1/x{a} is infinite at x{a} = 0, a grid
# point of every symmetric axis with an odd count
TIME_FREE_TERMS = ("x{a}^2", "sin(x{a})*x{b}", "x{a}*x{b}^3", "abs(x{a})^1.5", "1/x{a}",
                   "log(1 + x{b}^2)")
TIMED_TERMS = ("exp(-t)*x{a}^2", "(1 + t)*x{b}", "cos(t*x{a})")


@st.composite
def time_checks(draw):
    """(spec, coefficients, uncertainty, region), with t free in V and in
    the coefficients each by a coin."""
    n = draw(st.integers(1, 2))
    unc = draw(st.sampled_from([BAND, COV]))
    d = unc.dim

    def term(timed):
        src = draw(st.sampled_from(TIME_FREE_TERMS + (TIMED_TERMS if timed else ())))
        return src.format(a=draw(st.integers(1, n)), b=draw(st.integers(1, n)))

    v_timed, coeff_timed = draw(st.booleans()), draw(st.booleans())
    v = f"{draw(st.sampled_from(['0', '2']))} + {term(v_timed)} + {term(v_timed)}"
    spec = LyapunovSpec(n, v, nonneg=draw(st.booleans()))
    if draw(st.booleans()):
        # hand-written tables: V's derivatives as a user would write them
        spec = LyapunovSpec(n, v, mode="analytic", nonneg=spec.nonneg,
                            dt=spec.dt_expr.to_source(),
                            grad=[e.to_source() for e in spec.grad_exprs],
                            hess=[[e.to_source() for e in row] for row in spec.hess_exprs])
    coeffs = coefficients(n, d, [term(coeff_timed) for _ in range(n)],
                          [[[term(coeff_timed) for _ in range(d)] for _ in range(d)]
                           for _ in range(n)],
                          [[term(coeff_timed) for _ in range(d)] for _ in range(n)])
    box = []
    for _ in range(n):
        lo = draw(st.sampled_from([-2.0, -1.0]))
        box.append((lo, draw(st.sampled_from([-lo, 1.5])), draw(st.integers(2, 5))))
    region = CheckRegion(draw(st.sampled_from([0.0, 0.5, 2.0])), box,
                         exclude_r0=draw(st.sampled_from([0.0, 0.3, 0.8])),
                         nt=draw(st.integers(1, 4)))
    return spec, coeffs, unc, region


class TestTimeFreeGrid:
    @given(time_checks())
    @settings(max_examples=80, deadline=None)
    def test_reports_match_full_grid_bytewise(self, check):
        got = condition_outcomes(*check)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lyapunov_mod, "_grid_v_lv", full_grid_v_lv)
            want = condition_outcomes(*check)
        assert got == want

    @pytest.mark.parametrize("v, damping, slices", [
        ("x1^2 + x2^2", "x2", 1),
        ("exp(-t)*(x1^2 + x2^2)", "x2", 3),
        ("x1^2 + x2^2", "(1 + t)*x2", 3),
    ], ids=["time_free", "t_in_v", "t_in_h"])
    def test_eval_L_sees_each_state_once_when_time_free(self, monkeypatch, v, damping, slices):
        coeffs = coefficients(2, 1, ["0", "0"], ["x2", f"-x1 - {damping}"], ["0", "1"])
        spec = LyapunovSpec(2, v, mode="finite_difference")
        region = CheckRegion(2.0, [(-2, 2, 5), (-2, 2, 5)], exclude_r0=0.5, nt=3)
        seen = []
        original = lyapunov_mod.eval_L

        def spy(spec, coeffs, unc, t, x):
            seen.append((np.shape(t), x.shape))
            return original(spec, coeffs, unc, t, x)

        monkeypatch.setattr(lyapunov_mod, "eval_L", spy)
        rep = check_growth_condition(spec, coeffs, BAND, region, 1.0)
        states = len(region.states())
        assert seen == [((slices * states,), (slices * states, 2))]
        assert rep.grid_size == 3 * states

    @pytest.mark.parametrize("v", ["2 + x1^2 + 1/x2", "2 + exp(-t)*x1^2 + 1/x2"])
    def test_non_finite_point_named_at_t_zero(self, v):
        coeffs = coefficients(2, 1, ["-x1", "-x2"], ["0", "0"], ["0", "0"])
        spec = LyapunovSpec(2, v, mode="finite_difference", nonneg=False)
        region = CheckRegion(2.0, [(-2, 2, 5), (-2, 2, 5)], nt=3)
        with pytest.raises(ExprError, match=r"not finite at t=0.0, x=\[-2.0, 0.0\]"):
            check_growth_condition(spec, coeffs, BAND, region, 1.0)
