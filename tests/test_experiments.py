import numpy as np
import pytest
from scipy import stats

from gcalc import (
    ConfigError,
    ExperimentConfig,
    coefficients,
    truncate,
    GeometricModel,
    PolicyFamily,
    SigmaBand,
    bt_over_t,
    lyapunov_exponent,
    moment_decay_curve,
    threshold_bangbang,
)
from gcalc.runio import config_hash

BAND = SigmaBand(1.0, 2.0)
MODEL = GeometricModel(alpha=-1.0, beta=0.5, gamma=1.0, x0=1.0)


def family():
    pols = PolicyFamily.extreme_constants().policies(BAND)
    pols += [threshold_bangbang(BAND, 0.0, hi_above=True),
             threshold_bangbang(BAND, 0.0, hi_above=False)]
    return PolicyFamily.custom(pols)


def make_cfg(**kw):
    base = dict(system=MODEL, unc=BAND, p=0.5, T=10.0, dt=0.01, family=family(),
                n_paths=500, seed=5, times=(1.0, 2.0, 5.0, 10.0))
    base.update(kw)
    return ExperimentConfig(**base)


class TestRates:
    def test_derived_rate_for_reference_model(self):
        # the quadratic-variation bracket is +0.5, priced at sigma2_hi = 2:
        # lambda = -(p a + p/2 * 0.5 * 2) = 0.25 at p = 1/2
        assert MODEL.moment_rate(0.5, BAND) == pytest.approx(0.25)

    def test_negative_bracket_uses_lower_variance(self):
        model = GeometricModel(alpha=-1.0, beta=-1.0, gamma=0.5, x0=1.0)
        p = 1.0
        bracket = 2 * (-1.0) + 0.25 * 0.0
        assert bracket < 0
        want = -(p * (-1.0) + 0.5 * p * (2 * (-1.0) + 0.25 * (p - 1.0)) * BAND.sigma2_lo)
        assert model.moment_rate(p, BAND) == pytest.approx(want)

    def test_unstable_parameters_rejected(self):
        cfg = make_cfg(system=GeometricModel(alpha=1.0, beta=0.5, gamma=1.0, x0=1.0))
        with pytest.raises(ConfigError, match="not exponentially"):
            moment_decay_curve(cfg)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            make_cfg(p=-0.5)
        with pytest.raises(ConfigError):
            make_cfg(n_paths=10)

    @pytest.mark.parametrize("times", [(1.0, 10.5), (-2.0,), (1.0, 5.0, -2.0)])
    def test_times_outside_horizon_rejected(self, times):
        # the grid has no row past T or before 0: such a time used to be
        # clamped to the nearest end and reported against its own bound
        with pytest.raises(ConfigError, match=r"outside \[0, T\]") as exc:
            make_cfg(times=times)
        assert exc.value.field == "times"
        make_cfg(times=(0.0, 10.0))


class TestMomentDecay:
    def test_reference_bound_holds(self):
        res = moment_decay_curve(make_cfg(n_paths=2000))
        assert res.passed
        for t, est, se, bound, ok in res.rows:
            assert bound == pytest.approx(np.exp(-0.25 * t))
            assert ok

    def test_zero_start_gives_exact_zeros(self):
        res = moment_decay_curve(make_cfg(system=GeometricModel(-1.0, 0.5, 1.0, 0.0)))
        for _, est, se, _, ok in res.rows:
            assert est == 0.0 and ok

    def test_deterministic_case_matches_ode(self):
        model = GeometricModel(alpha=-1.0, beta=0.0, gamma=0.0, x0=1.0)
        band = SigmaBand(1.5, 1.5)
        cfg = ExperimentConfig(system=model, unc=band, p=1.0, T=4.0, dt=0.01,
                               family=PolicyFamily.extreme_constants(), n_paths=200,
                               seed=1, times=(1.0, 2.0, 4.0))
        res = moment_decay_curve(cfg)
        for t, est, _, bound, _ in res.rows:
            assert est == pytest.approx(np.exp(-t), abs=1e-3)
            assert bound == pytest.approx(np.exp(-t), abs=1e-12)

    def test_bound_column_is_closed_form_not_fitted(self):
        r1 = moment_decay_curve(make_cfg(seed=5))
        r2 = moment_decay_curve(make_cfg(seed=99))
        assert [row[3] for row in r1.rows] == [row[3] for row in r2.rows]
        assert [row[1] for row in r1.rows] != [row[1] for row in r2.rows]


class TestLyapunovExponent:
    def test_reference_model_within_slack(self):
        cfg = make_cfg(T=50.0, dt=0.05, n_paths=1000, times=())
        res = lyapunov_exponent(cfg)
        assert res.passed
        assert res.details["bound"] == pytest.approx(-0.5)
        all_row = [r for r in res.rows if r[0] == "ALL"][0]
        assert all_row[1] <= -0.5 + 3.0 / np.sqrt(50.0)

    def test_deterministic_exponent_exact(self):
        model = GeometricModel(alpha=-1.0, beta=0.0, gamma=0.0, x0=2.0)
        band = SigmaBand(1.0, 1.0)
        cfg = ExperimentConfig(system=model, unc=band, p=1.0, T=20.0, dt=0.01,
                               family=PolicyFamily.extreme_constants(), n_paths=100, seed=2)
        res = lyapunov_exponent(cfg)
        all_row = [r for r in res.rows if r[0] == "ALL"][0]
        # (1/T) log(2 e^{-T}) = -1 + log(2)/T
        assert all_row[1] == pytest.approx(-1.0 + np.log(2.0) / 20.0, abs=1e-9)

    def test_zero_start_rejected(self):
        with pytest.raises(ConfigError, match="trivial"):
            lyapunov_exponent(make_cfg(system=GeometricModel(-1.0, 0.5, 1.0, 0.0)))


class TestBtOverT:
    def test_quantiles_decay_and_threshold(self):
        res = bt_over_t(BAND, family(), [10.0, 100.0, 1000.0], n_paths=1000, seed=3)
        assert res.passed
        q99 = [row[2] for row in res.rows]
        assert q99[0] > q99[1] > q99[2]
        assert q99[-1] <= 0.2 * BAND.sigma_hi

    def test_constant_policy_matches_gaussian_scaling(self):
        fam = PolicyFamily.custom([PolicyFamily.extreme_constants().policies(BAND)[1]])
        res = bt_over_t(BAND, fam, [1000.0], n_paths=2000, seed=4)
        # |B_T|/T with B_T ~ N(0, 2T): median and q99 from the half-normal law
        scale = np.sqrt(2.0 * 1000.0) / 1000.0
        want_median = scale * stats.norm.ppf(0.75)
        want_q99 = scale * stats.norm.ppf(0.995)
        _, med, q99 = res.rows[0]
        assert med == pytest.approx(want_median, rel=0.1)
        assert q99 == pytest.approx(want_q99, rel=0.1)
        # root-mean-square level quoted for this setup
        assert scale == pytest.approx(0.0447, abs=2e-4)

    def test_doubling_t_shrinks_median_like_sqrt2(self):
        res = bt_over_t(BAND, family(), [500.0, 1000.0], n_paths=2000, seed=6)
        m = [row[1] for row in res.rows]
        assert m[1] / m[0] == pytest.approx(1.0 / np.sqrt(2.0), rel=0.2)

    def test_degenerate_band_reduces_to_one_measure(self):
        band = SigmaBand(1.0, 1.0)
        res = bt_over_t(band, PolicyFamily.extreme_constants(), [10.0, 100.0], n_paths=500, seed=7)
        assert len(res.rows) == 2

    def test_needs_increasing_horizons(self):
        with pytest.raises(ConfigError):
            bt_over_t(BAND, family(), [100.0, 10.0], n_paths=200, seed=0)


class TestEmission:
    def test_csv_carries_hash_seed_and_is_reproducible(self, tmp_path):
        res = moment_decay_curve(make_cfg())
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        res.to_csv(out1)
        moment_decay_curve(make_cfg()).to_csv(out2)
        text = out1.read_text()
        assert f"# config_hash={res.cfg_hash}" in text
        assert "# seed=5" in text
        assert text == out2.read_text()

    def test_different_seed_different_hash_column(self, tmp_path):
        r1 = moment_decay_curve(make_cfg(seed=5))
        r2 = moment_decay_curve(make_cfg(seed=6))
        assert r1.cfg_hash != r2.cfg_hash

    @pytest.mark.parametrize("fam_a,fam_b", [
        (PolicyFamily.bangbang_threshold([0.0]), PolicyFamily.bangbang_threshold([0.5, 1.0])),
        (PolicyFamily.constants_only(2), PolicyFamily.constants_only(7)),
        (PolicyFamily.custom([threshold_bangbang(BAND, 0.0)]),
         PolicyFamily.custom([threshold_bangbang(BAND, 0.5)])),
    ], ids=["thresholds", "n_constants", "custom"])
    def test_hash_covers_family_parameters(self, fam_a, fam_b):
        cfg_a, cfg_b = make_cfg(family=fam_a), make_cfg(family=fam_b)
        assert config_hash(cfg_a.config_dict()) != config_hash(cfg_b.config_dict())
        bt_a = bt_over_t(BAND, fam_a, [10.0, 20.0], n_paths=50, seed=1)
        bt_b = bt_over_t(BAND, fam_b, [10.0, 20.0], n_paths=50, seed=1)
        assert bt_a.rows != bt_b.rows
        assert bt_a.cfg_hash != bt_b.cfg_hash

    @pytest.mark.parametrize("other", [
        lambda: (coefficients(1, 1, ["-3*x1"], ["0.5*x1"], ["x1"]), [1.0]),
        lambda: (coefficients(1, 1, ["-x1"], ["0.5*x1"], ["2*x1"]), [1.0]),
        lambda: (coefficients(1, 1, ["-x1"], ["0.5*x1"], ["x1"], lipschitz_tag="local"), [1.0]),
        lambda: (truncate(coefficients(1, 1, ["-x1"], ["0.5*x1"], ["x1"]), 4.0), [1.0]),
        lambda: (coefficients(1, 1, ["-x1"], ["0.5*x1"], ["x1"]), [2.0]),
    ], ids=["drift", "diffusion", "lipschitz_tag", "radius", "x0"])
    def test_hash_covers_coefficient_systems(self, other):
        base = (coefficients(1, 1, ["-x1"], ["0.5*x1"], ["x1"]), [1.0])
        same = (coefficients(1, 1, ["-x1"], ["0.5*x1"], ["x1"]), [1.0])

        def cfg(system):
            return make_cfg(system=system, lam=0.1, n_paths=100, T=1.0, dt=0.05, times=(1.0,))

        assert config_hash(cfg(base).config_dict()) == config_hash(cfg(same).config_dict())
        assert config_hash(cfg(base).config_dict()) != config_hash(cfg(other()).config_dict())

    def test_coefficient_hash_follows_rows(self):
        # two drifts once shared a hash while writing different rows
        def run(drift):
            system = (coefficients(1, 1, [drift], ["0"], ["x1"]), [1.0])
            return moment_decay_curve(make_cfg(system=system, lam=0.1, n_paths=100, T=1.0,
                                               dt=0.05, times=(1.0,)))

        a, b = run("-x1"), run("-3*x1")
        assert a.rows != b.rows and a.cfg_hash != b.cfg_hash

    def test_bt_hash_covers_steps_per_unit(self):
        a = bt_over_t(BAND, family(), [10.0, 20.0], n_paths=50, seed=1, steps_per_unit=1.0)
        b = bt_over_t(BAND, family(), [10.0, 20.0], n_paths=50, seed=1, steps_per_unit=4.0)
        assert a.rows != b.rows
        assert a.cfg_hash != b.cfg_hash
