import json

import numpy as np
import pytest

from gcalc import (
    ConstantPolicy,
    PayoffError,
    PolicyFamily,
    SigmaBand,
    SpaceTimeGrid,
    TimeGrid,
    estimate_upper,
    optimize_bangbang,
    solve_terminal,
    stochastic_exponential_payoff,
    threshold_bangbang,
)

BAND = SigmaBand(1.0, 2.0)
GRID = TimeGrid(1.0, 50)


def terminal_square(batch):
    return batch.b[:, -1, 0] ** 2


def mixed_family(thetas=(0.0,)):
    policies = PolicyFamily.extreme_constants().policies(BAND)
    for theta in thetas:
        policies.append(threshold_bangbang(BAND, theta, hi_above=True))
        policies.append(threshold_bangbang(BAND, theta, hi_above=False))
    return PolicyFamily.custom(policies)


class TestEstimateUpper:
    def test_terminal_b_is_centred(self):
        rep = estimate_upper(lambda b: b.b[:, -1, 0], mixed_family(), BAND, GRID, 20_000, seed=0)
        for e in rep.table:
            assert abs(e.mean) <= 3.0 * e.se

    def test_square_payoff_hits_pde_value(self):
        rep = estimate_upper(terminal_square, PolicyFamily.extreme_constants(), BAND, GRID, 40_000, seed=1)
        assert rep.value == pytest.approx(2.0, rel=0.02)
        assert rep.argmax_policy.describe() == "const(sigma2=2)"

    def test_martingale_normalisation(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            rate = rng.uniform(0.1, 0.5)
            at = rng.uniform(0.25, 1.0)
            payoff = stochastic_exponential_payoff(rate, at)
            rep = estimate_upper(payoff, mixed_family(), BAND, GRID, 20_000, seed=3)
            for e in rep.table:
                assert e.mean == pytest.approx(1.0, rel=0.02), e.descriptor

    def test_family_monotonicity(self):
        small = PolicyFamily.custom([ConstantPolicy(value=1.0)])
        big = PolicyFamily.custom([ConstantPolicy(value=1.0), ConstantPolicy(value=2.0)])
        r_small = estimate_upper(terminal_square, small, BAND, GRID, 5_000, seed=4)
        r_big = estimate_upper(terminal_square, big, BAND, GRID, 5_000, seed=4)
        assert r_big.value >= r_small.value

    def test_subadditivity(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            c = rng.uniform(-1, 1)
            phi = lambda b: np.abs(b.b[:, -1, 0] - c)
            psi = lambda b: np.tanh(b.b[:, -1, 0]) * c
            both = lambda b: phi(b) + psi(b)
            fam = mixed_family()
            r1 = estimate_upper(phi, fam, BAND, GRID, 4_000, seed=6)
            r2 = estimate_upper(psi, fam, BAND, GRID, 4_000, seed=6)
            r12 = estimate_upper(both, fam, BAND, GRID, 4_000, seed=6)
            assert r12.value <= r1.value + r2.value + 3.0 * (r1.std_error + r2.std_error + r12.std_error)

    def test_constants_vs_pde_on_convex_payoffs(self):
        # smooth convex mixtures; convexity puts the optimum at constant sigma_hi,
        # where the PDE solver is an exact oracle
        rng = np.random.default_rng(7)
        pde_grid = SpaceTimeGrid.with_cfl(-14.0, 14.0, 281, 1.0, BAND)
        fam = PolicyFamily.extreme_constants()
        for _ in range(20):
            w1, w2 = rng.uniform(0.2, 1.5, size=2)
            c = rng.uniform(-1.0, 1.0)
            a = rng.uniform(0.3, 1.2)
            phi = lambda x: w1 * (x - c) ** 2 + w2 * np.log(np.cosh(a * x)) / a
            value = solve_terminal(BAND, phi, pde_grid).value_at(0.0)
            rep = estimate_upper(lambda b: phi(b.b[:, -1, 0]), fam, BAND, GRID, 4_000, seed=8)
            assert abs(rep.value - value) <= max(0.02 * abs(value), 3.0 * rep.std_error)

    def test_non_finite_payoff_names_path(self):
        def bad(batch):
            out = np.zeros(len(batch))
            out[7] = np.inf
            return out

        with pytest.raises(PayoffError, match="seed=9 index=7"):
            estimate_upper(bad, mixed_family(), BAND, GRID, 100, seed=9)

    def test_vector_payoff_gives_report_list(self):
        def two(batch):
            return np.stack([batch.b[:, -1, 0] ** 2, np.abs(batch.b[:, -1, 0])], axis=1)

        reports = estimate_upper(two, PolicyFamily.extreme_constants(), BAND, GRID, 2_000, seed=10)
        assert len(reports) == 2
        assert reports[0].value > reports[1].value

    def test_n_paths_validated(self):
        with pytest.raises(ValueError):
            estimate_upper(terminal_square, mixed_family(), BAND, GRID, 1, seed=0)

    def test_covariance_set_members_as_constants(self):
        # E|B_1|^2 under a fixed member is its trace; the sup picks the larger
        from gcalc import CovarianceSet

        cs = CovarianceSet(2, [np.diag([1.0, 0.5]), np.diag([0.5, 2.0])])
        payoff = lambda b: np.sum(b.b[:, -1, :] ** 2, axis=1)
        rep = estimate_upper(payoff, PolicyFamily.extreme_constants(), cs, GRID, 20_000, seed=14)
        assert rep.value == pytest.approx(2.5, rel=0.03)
        assert rep.argmax_policy.describe() == "const(member=1)"

    def test_report_json(self):
        rep = estimate_upper(terminal_square, PolicyFamily.extreme_constants(), BAND, GRID, 500, seed=12)
        doc = json.loads(rep.to_json())
        assert set(doc) >= {"value", "std_error", "n_paths", "policies"}
        assert len(doc["policies"]) == 2


class TestFamilies:
    def test_constants_only_grid(self):
        fam = PolicyFamily.constants_only(5)
        values = [p.value for p in fam.policies(BAND)]
        assert values == pytest.approx(list(np.linspace(1.0, 2.0, 5)))

    def test_extremes_degenerate_band(self):
        fam = PolicyFamily.extreme_constants()
        assert len(fam.policies(SigmaBand(1.0, 1.0))) == 1

    def test_bangbang_family_orientation_pairs(self):
        fam = PolicyFamily.bangbang_threshold([0.0, 0.5])
        assert len(fam.policies(BAND)) == 4

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError):
            PolicyFamily.custom([])
        with pytest.raises(ValueError):
            PolicyFamily.bangbang_threshold([])


class TestOptimizeBangBang:
    def test_convex_payoff_prefers_high_constant(self):
        rep = optimize_bangbang(terminal_square, BAND, GRID, [-1.0, 0.0, 1.0], 20_000, seed=2)
        assert rep.argmax_policy.describe() == "const(sigma2=2)"
        assert rep.value == pytest.approx(2.0, rel=0.02)

    def test_concave_payoff_prefers_low_constant(self):
        rep = optimize_bangbang(lambda b: -terminal_square(b), BAND, GRID, [-1.0, 0.0, 1.0], 20_000, seed=2)
        assert rep.argmax_policy.describe() == "const(sigma2=1)"
        assert rep.value == pytest.approx(-1.0, rel=0.02)

    def test_mixed_convexity_one_sided_against_pde(self):
        phi = lambda x: np.maximum(x, 0.0) ** 3 - np.maximum(-x, 0.0)
        pde_grid = SpaceTimeGrid.with_cfl(-14.0, 14.0, 281, 1.0, BAND)
        truth = solve_terminal(BAND, phi, pde_grid).value_at(0.0)
        rep = optimize_bangbang(lambda b: phi(b.b[:, -1, 0]), BAND, GRID,
                                np.linspace(-1.5, 1.5, 7), 20_000, seed=13)
        assert rep.value <= truth + 3.0 * rep.std_error
        assert rep.details["search_trajectory"]

    def test_empty_threshold_grid(self):
        with pytest.raises(ValueError):
            optimize_bangbang(terminal_square, BAND, GRID, [], 100, seed=0)
