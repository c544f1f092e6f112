import numpy as np
import pytest

from gcalc import (
    ConstantPolicy,
    LinearGSystem,
    LyapunovSpec,
    NotSPDError,
    SigmaBand,
    TimeGrid,
    admissible_p_range,
    default_p_candidates,
    eval_L,
    g_scalar,
    integrate_batch,
    lmi_stable,
    lmi_unstable,
    riccati_value,
    search_p,
    simulate_batch,
    threshold_bangbang,
)

BAND = SigmaBand(1.0, 2.0)
DERIVED = LinearGSystem([[-3.0]], [[-1.0]], [[1.0]], BAND)


def random_unit(rng, n):
    v = rng.normal(size=n)
    return v / np.linalg.norm(v)


class TestRiccatiValue:
    def test_pure_damping_is_zero(self):
        sys_ = LinearGSystem(-np.eye(2), np.zeros((2, 2)), np.zeros((2, 2)), BAND)
        for x in (np.array([1.0, 0.0]), np.array([0.6, 0.8])):
            assert riccati_value(sys_, np.eye(2), x) == pytest.approx(0.0, abs=1e-14)

    def test_derived_value(self):
        assert riccati_value(DERIVED, [[1.0]], [1.0]) == pytest.approx(-2.5)

    def test_violation_when_drift_removed(self):
        sys_ = LinearGSystem([[0.0]], [[-1.0]], [[1.0]], BAND)
        assert riccati_value(sys_, [[1.0]], [1.0]) == pytest.approx(0.5)

    def test_requires_spd_and_unit(self):
        with pytest.raises(NotSPDError):
            riccati_value(DERIVED, [[-1.0]], [1.0])
        with pytest.raises(ValueError):
            riccati_value(DERIVED, [[1.0]], [2.0])


class TestLMIStable:
    def test_derived_certificate(self):
        cert = lmi_stable(DERIVED, [[1.0]])
        assert cert.kind == "ms_stable"
        assert cert.alpha == pytest.approx(-1.0)
        assert cert.margin == pytest.approx(6.0, abs=1e-9)

    def test_scalar_damping_threshold(self):
        # F = -k: stable iff -2k + 1 <= 0
        for k, expected in ((0.5, "ms_stable"), (0.49, "inconclusive"), (2.0, "ms_stable")):
            sys_ = LinearGSystem([[-k]], [[0.0]], [[0.0]], BAND)
            assert lmi_stable(sys_, [[1.0]]).kind == expected

    def test_zero_coupling_reduces_to_drift_test(self):
        sys_ = LinearGSystem(-np.eye(2), np.zeros((2, 2)), np.zeros((2, 2)), BAND)
        cert = lmi_stable(sys_, np.eye(2))
        assert cert.alpha == 0.0
        assert g_scalar(BAND, cert.alpha) == 0.0
        assert cert.margin == pytest.approx(1.0)  # -max(2F + I) = 1

    def test_soundness_on_derived_system(self):
        cert = lmi_stable(DERIVED, [[1.0]])
        rng = np.random.default_rng(0)
        for _ in range(10_000):
            x = random_unit(rng, 1)
            assert riccati_value(DERIVED, cert.P, x) <= 1e-9

    def test_margin_is_exact_for_generator(self):
        # for V = x'Px, LV <= -(1 + margin)|x|^2 at every x, with equality
        # along the top eigenvector of the binding sigma's matrix; random
        # systems and P, whatever the verdict
        rng = np.random.default_rng(1)
        for _ in range(40):
            n = int(rng.integers(1, 4))
            F = -np.diag(rng.uniform(0.0, 6.0, size=n)) + 0.5 * rng.normal(size=(n, n))
            H = 0.3 * rng.normal(size=(n, n))
            C = 0.8 * rng.normal(size=(n, n))
            sys_ = LinearGSystem(F, H, C, BAND)
            A = rng.normal(size=(n, n))
            P = A @ A.T + 0.5 * np.eye(n)
            cert = lmi_stable(sys_, P)
            v = " + ".join(f"({float(P[i, j])!r})*x{i + 1}*x{j + 1}"
                           for i in range(n) for j in range(n))
            spec, coeffs = LyapunovSpec(n, v, nonneg=False), sys_.to_coefficients()
            xs = np.stack([random_unit(rng, n) for _ in range(250)])
            assert np.all(eval_L(spec, coeffs, BAND, 0.0, xs) <= -(1.0 + cert.margin) + 1e-9)
            lo, hi = cert.details["lambda_max_lo"], cert.details["lambda_max_hi"]
            sigma2 = BAND.sigma2_lo if lo >= hi else BAND.sigma2_hi
            binding = P @ F + F.T @ P + np.eye(n) + sigma2 * sys_.coupling_matrix(cert.P)
            top = np.linalg.eigh(binding)[1][:, -1]
            lv_top = eval_L(spec, coeffs, BAND, 0.0, top[None, :])[0]
            assert lv_top == pytest.approx(-(1.0 + cert.margin), abs=1e-9)

    def test_second_moment_growth_not_certified(self):
        # dX = -X dt + sqrt(1.5) X dB on [1, 2]: under sigma^2 = 2 the second
        # moment grows at rate 2f + sigma^2 c^2 = +1, so no P may certify it;
        # with P = 3 the binding sigma^2 = 2 gives LV = 3x^2 = -(1 + margin)x^2
        sys_ = LinearGSystem([[-1.0]], [[0.0]], [[np.sqrt(1.5)]], BAND)
        cert = lmi_stable(sys_, [[3.0]])
        assert cert.kind == "inconclusive"
        assert cert.margin == pytest.approx(-4.0, abs=1e-12)
        assert cert.details["lambda_max_lo"] == pytest.approx(-0.5, abs=1e-12)
        assert cert.details["lambda_max_hi"] == pytest.approx(4.0, abs=1e-12)
        assert search_p(sys_, seed=0).kind == "inconclusive"

    def test_alpha_star_linear_in_p(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            sys_ = LinearGSystem(rng.normal(size=(2, 2)), rng.normal(size=(2, 2)),
                                 rng.normal(size=(2, 2)), BAND)
            P = np.diag(rng.uniform(0.5, 2.0, size=2))
            a1 = lmi_stable(sys_, P).alpha
            c = rng.uniform(0.1, 5.0)
            ac = lmi_stable(sys_, c * P).alpha
            assert ac == pytest.approx(c * a1, rel=1e-12)


class TestLMIUnstable:
    def test_expanding_scalar(self):
        cert = lmi_unstable(LinearGSystem([[3.0]], [[0.0]], [[0.0]], BAND), [[1.0]])
        assert cert.kind == "ms_unstable"
        assert cert.margin == pytest.approx(5.0)

    def test_origin_inconclusive(self):
        cert = lmi_unstable(LinearGSystem([[0.0]], [[0.0]], [[0.0]], BAND), [[1.0]])
        assert cert.kind == "inconclusive"

    def test_h_driven_instability(self):
        cert = lmi_unstable(LinearGSystem([[1.0]], [[1.0]], [[0.0]], BAND), [[1.0]])
        assert cert.kind == "ms_unstable"
        assert cert.alpha == pytest.approx(2.0)
        assert cert.margin == pytest.approx(3.0)

    def test_noise_free_decay_not_certified(self):
        # dX = 1.3X dt - 1.5X d<B>: X_t = x0 exp(1.3t - 1.5<B>_t) decays at a
        # rate of at least 0.2 under every scenario; with V = x^2 the binding
        # sigma^2 = 2 gives 2.6 - 1 - 6 = -4.4
        cert = lmi_unstable(LinearGSystem([[1.3]], [[-1.5]], [[0.0]], BAND), [[1.0]])
        assert cert.kind == "inconclusive"
        assert cert.alpha == pytest.approx(-3.0)
        assert cert.margin == pytest.approx(-4.4, abs=1e-12)
        assert cert.details == {"lambda_min_lo": pytest.approx(-1.4, abs=1e-12),
                                "lambda_min_hi": pytest.approx(-4.4, abs=1e-12)}

    @pytest.mark.parametrize("F, H, C, margin", [(0.6, 0.0, 1.0, 1.2), (3.0, -1.0, 1.0, 3.0)])
    def test_second_moment_growth_certified(self, F, H, C, margin):
        # E[X_t^2] grows at rate 2F + sigma^2 (2H + C^2) >= 1 + margin
        cert = lmi_unstable(LinearGSystem([[F]], [[H]], [[C]], BAND), [[1.0]])
        assert cert.kind == "ms_unstable"
        assert cert.margin == pytest.approx(margin, abs=1e-12)

    def test_margin_is_exact_for_every_band_end(self):
        # for V = x'Px under each constant scenario sigma in {lo, hi},
        # LV >= (1 + lambda_min)|x|^2 at every x, with equality along the
        # bottom eigenvector; the margin is the smaller end
        rng = np.random.default_rng(4)
        for _ in range(40):
            n = int(rng.integers(1, 4))
            sys_ = LinearGSystem(rng.normal(size=(n, n)), 0.3 * rng.normal(size=(n, n)),
                                 0.8 * rng.normal(size=(n, n)), BAND)
            A = rng.normal(size=(n, n))
            P = A @ A.T + 0.5 * np.eye(n)
            cert = lmi_unstable(sys_, P)
            lams = cert.details["lambda_min_lo"], cert.details["lambda_min_hi"]
            assert cert.margin == min(lams)
            assert cert.alpha == pytest.approx(np.min(np.linalg.eigvalsh(sys_.coupling_matrix(P))))
            v = " + ".join(f"({float(P[i, j])!r})*x{i + 1}*x{j + 1}"
                           for i in range(n) for j in range(n))
            spec, coeffs = LyapunovSpec(n, v, nonneg=False), sys_.to_coefficients()
            xs = np.stack([random_unit(rng, n) for _ in range(250)])
            for sigma2, lam in zip((BAND.sigma2_lo, BAND.sigma2_hi), lams):
                scenario = SigmaBand(sigma2, sigma2)
                assert np.all(eval_L(spec, coeffs, scenario, 0.0, xs) >= 1.0 + lam - 1e-9)
                matrix = P @ sys_.F + sys_.F.T @ P + sigma2 * sys_.coupling_matrix(cert.P)
                bottom = np.linalg.eigh(matrix)[1][:, 0]
                lv = eval_L(spec, coeffs, scenario, 0.0, bottom[None, :])[0]
                assert lv == pytest.approx(1.0 + lam, abs=1e-9)


class TestAdmissiblePRange:
    def test_case_a(self):
        r = admissible_p_range(-1.0, 0.0, 1.0)
        assert (r.case, r.p_max) == ("a", 3.0)
        assert r.contains(2.9) and not r.contains(3.0)

    def test_case_b_boundary(self):
        r = admissible_p_range(0.0, 1.0, 2.0)
        assert (r.case, r.p_max) == ("b", 2.0)

    def test_empty_with_reason(self):
        r = admissible_p_range(1.0, 1.0, 2.0)
        assert r.empty and r.reason

    def test_precondition(self):
        with pytest.raises(ValueError):
            admissible_p_range(-1.0, 2.0, 1.0)
        with pytest.raises(ValueError):
            admissible_p_range(-1.0, -0.5, 1.0)


class TestSearchP:
    # weighted system from the brute-force sweep: identity fails, diagonal
    # weights p1 ~ 0.1, p2 ~ 2.0 satisfy the eigenvalue inequality
    def weighted_system(self):
        return LinearGSystem(np.diag([-10.0, -0.6]), np.zeros((2, 2)),
                             np.array([[0.0, 3.0], [0.0, 0.0]]), SigmaBand(1.0, 1.0))

    def test_identity_fails_but_diagonal_passes(self):
        sys_ = self.weighted_system()
        assert lmi_stable(sys_, np.eye(2)).kind == "inconclusive"
        assert lmi_stable(sys_, np.diag([0.1, 1.5])).margin == pytest.approx(-0.1, abs=1e-12)
        cert = lmi_stable(sys_, np.diag([0.1, 2.0]))
        assert cert.kind == "ms_stable"
        assert cert.margin == pytest.approx(0.5, abs=1e-12)

    def test_search_finds_certificate(self):
        cert = search_p(self.weighted_system(), seed=0)
        assert cert.kind == "ms_stable"
        assert cert.details["candidates_tried"] == 51

    def test_already_certified_not_degraded(self):
        base = lmi_stable(DERIVED, np.eye(1))
        best = search_p(DERIVED, seed=0)
        assert best.kind == "ms_stable"
        assert best.margin >= base.margin - 1e-12

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError):
            search_p(DERIVED, candidates=[])

    def test_all_fail_reports_best_margin(self):
        sys_ = LinearGSystem([[5.0]], [[0.0]], [[0.0]], BAND)
        cert = search_p(sys_, candidates=default_p_candidates(1, count=10, seed=1))
        assert cert.kind == "inconclusive"
        assert np.isfinite(cert.margin)


class TestLyapunovAgreement:
    def test_quadratic_candidate_matches_riccati(self):
        # for V = x'Px: LV(x) + 2|x|^2 = 2 * riccati_value(x) on the sphere
        P = np.array([[1.3, 0.2], [0.2, 0.8]])
        F = np.array([[-3.0, 0.4], [0.0, -2.5]])
        H = np.array([[-0.5, 0.0], [0.2, -0.4]])
        C = np.array([[0.7, 0.1], [0.0, 0.6]])
        sys_ = LinearGSystem(F, H, C, BAND)
        coeffs = sys_.to_coefficients()
        spec = LyapunovSpec(
            2,
            "1.3*x1^2 + 0.4*x1*x2 + 0.8*x2^2",
            mode="analytic",
            dt="0",
            grad=["2.6*x1 + 0.4*x2", "0.4*x1 + 1.6*x2"],
            hess=[["2.6", "0.4"], ["0.4", "1.6"]],
        )
        thetas = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
        xs = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
        lv = eval_L(spec, coeffs, BAND, 0.0, xs)
        ric = np.array([riccati_value(sys_, P, x) for x in xs])
        assert np.max(np.abs(lv + 2.0 - 2.0 * ric)) <= 1e-8


class TestSimulationConsistency:
    def test_certified_systems_decay_in_mean_square(self):
        # every ms_stable system, run from random starts under random adapted
        # policies, should show decreasing mean |X_t|^2 past the burn-in
        rng = np.random.default_rng(3)
        systems = [
            DERIVED,
            LinearGSystem(np.diag([-3.0, -2.0]), 0.1 * np.eye(2), 0.4 * np.eye(2), BAND),
        ]
        grid = TimeGrid(20.0, 1000)
        k5 = grid.index_of(5.0)
        for sys_ in systems:
            cert = lmi_stable(sys_, np.eye(sys_.n))
            assert cert.kind == "ms_stable"
            coeffs = sys_.to_coefficients()
            x0s = rng.uniform(-2, 2, size=(10, sys_.n))
            policies = []
            for _ in range(10):
                policies.append(ConstantPolicy(value=float(rng.uniform(1.0, 2.0))))
                policies.append(threshold_bangbang(BAND, float(rng.normal()), bool(rng.integers(2))))
            ok = 0
            total = 0
            paths_per_run = 16
            x0_batch = np.repeat(x0s, paths_per_run, axis=0)
            for policy in policies:
                batch = simulate_batch(policy, BAND, grid, seed=int(rng.integers(1 << 30)),
                                       n_paths=len(x0_batch))
                sol = integrate_batch(coeffs, x0_batch, batch)
                sq = sol.norms**2
                for i in range(10):
                    sel = slice(i * paths_per_run, (i + 1) * paths_per_run)
                    total += 1
                    if sq[sel, -1].mean() < sq[sel, k5].mean():
                        ok += 1
            assert ok / total >= 0.95, f"only {ok}/{total} runs decayed"
