import numpy as np
import pytest

from gcalc import CFLError, SigmaBand, SpaceTimeGrid, solve_terminal, solve_two_step

BAND = SigmaBand(1.0, 2.0)


def gauss_hermite_heat(phi, sigma2, T, n=80):
    """Independent oracle: E[phi(N(0, sigma2 T))] by Gauss-Hermite quadrature."""
    nodes, weights = np.polynomial.hermite.hermgauss(n)
    x = nodes * np.sqrt(2.0 * sigma2 * T)
    return float(np.sum(weights * phi(x)) / np.sqrt(np.pi))


def default_grid(nx=401, T=1.0):
    return SpaceTimeGrid.with_cfl(-12.0, 12.0, nx, T, BAND)


class TestSolveTerminal:
    def test_linear_payoff_is_harmonic(self):
        sol = solve_terminal(BAND, lambda x: x, default_grid())
        assert sol.value_at(0.0) == pytest.approx(0.0, abs=1e-12)

    def test_convex_square(self):
        # convex data degenerates the equation to classical heat at sigma2_hi:
        # oracle E[N(0, 2*1)^2] = 2
        sol = solve_terminal(BAND, lambda x: x**2, default_grid())
        assert sol.value_at(0.0) == pytest.approx(2.0, abs=1e-3)

    def test_concave_square(self):
        sol = solve_terminal(BAND, lambda x: -(x**2), default_grid())
        assert sol.value_at(0.0) == pytest.approx(-1.0, abs=1e-3)

    def test_constant_preserved_exactly(self):
        sol = solve_terminal(BAND, lambda x: np.full_like(x, 3.25), default_grid(nx=101))
        assert np.array_equal(sol.u, np.full(101, 3.25))

    def test_cfl_violation_reports_minimal_nt(self):
        grid = SpaceTimeGrid(-12.0, 12.0, 401, 1.0, 10)
        with pytest.raises(CFLError) as exc:
            solve_terminal(BAND, lambda x: x**2, grid)
        assert exc.value.nt_min > 10
        ok = SpaceTimeGrid(-12.0, 12.0, 401, 1.0, exc.value.nt_min)
        solve_terminal(BAND, lambda x: x**2, ok)  # minimal nt is admissible

    def test_non_finite_payoff_rejected(self):
        with pytest.raises(ValueError):
            solve_terminal(BAND, lambda x: np.log(x), default_grid())


class TestProperties:
    def test_comparison_monotone(self):
        grid = default_grid(nx=201)
        lo = solve_terminal(BAND, lambda x: np.sin(x), grid)
        hi = solve_terminal(BAND, lambda x: np.sin(x) + 0.3, grid)
        assert np.all(lo.u <= hi.u + 1e-12)

    def test_sublinearity_at_origin(self):
        grid = default_grid(nx=201)
        rng = np.random.default_rng(4)
        for _ in range(10):
            a1, a2, c1, c2 = rng.uniform(-2, 2, size=4)
            phi = lambda x: np.abs(a1 * x - c1)
            psi = lambda x: np.minimum(a2 * x, c2)
            u_sum = solve_terminal(BAND, lambda x: phi(x) + psi(x), grid).value_at(0.0)
            u_phi = solve_terminal(BAND, phi, grid).value_at(0.0)
            u_psi = solve_terminal(BAND, psi, grid).value_at(0.0)
            assert u_sum <= u_phi + u_psi + 1e-8

    def test_degenerate_band_matches_quadrature(self):
        band = SigmaBand(1.5, 1.5)
        grid = SpaceTimeGrid.with_cfl(-12.0, 12.0, 401, 1.0, band)
        for phi in (lambda x: np.cos(x), lambda x: np.tanh(x), lambda x: x**2):
            sol = solve_terminal(band, phi, grid)
            oracle = gauss_hermite_heat(phi, 1.5, 1.0)
            assert sol.value_at(0.0) == pytest.approx(oracle, abs=1e-3)

    def test_grid_convergence(self):
        # the scheme is exact on quadratics (their second difference is exact),
        # so the square case only shows roundoff; the refinement factor is
        # asserted on a smooth convex payoff with genuine truncation error
        exact = np.exp(BAND.sigma2_hi * 1.0 / 8.0)  # E[e^{X/2}], X ~ N(0, 2)
        errs = {}
        for nx in (101, 201, 401):
            sol = solve_terminal(BAND, lambda x: np.exp(0.5 * x), default_grid(nx=nx))
            errs[nx] = abs(sol.value_at(0.0) - exact)
        assert errs[101] / errs[201] >= 3.0
        assert errs[201] / errs[401] >= 3.0
        # square case: exact up to rounding at every resolution
        for nx in (101, 401):
            sol = solve_terminal(BAND, lambda x: x**2, default_grid(nx=nx))
            assert abs(sol.value_at(0.0) - 2.0) <= 1e-9


class TestTwoStep:
    def pair_grids(self):
        outer = SpaceTimeGrid.with_cfl(-10.0, 10.0, 201, 0.5, BAND)
        inner = SpaceTimeGrid.with_cfl(-10.0, 10.0, 201, 0.5, BAND)
        return outer, inner

    def test_linear_two_time(self):
        outer, inner = self.pair_grids()
        v = solve_two_step(BAND, lambda a, b: a + b, 0.5, 1.0, outer, inner)
        assert v == pytest.approx(0.0, abs=1e-10)

    def test_increment_square(self):
        outer, inner = self.pair_grids()
        v = solve_two_step(BAND, lambda a, b: b**2, 0.5, 1.0, outer, inner)
        assert v == pytest.approx(BAND.sigma2_hi * 0.5, abs=2e-3)

    def test_sum_of_squares(self):
        outer, inner = self.pair_grids()
        v = solve_two_step(BAND, lambda a, b: a**2 + b**2, 0.5, 1.0, outer, inner)
        assert v == pytest.approx(BAND.sigma2_hi * 1.0, abs=2e-3)

    def test_degenerate_t1_zero(self):
        _, inner = self.pair_grids()
        inner_full = SpaceTimeGrid.with_cfl(-10.0, 10.0, 201, 1.0, BAND)
        v = solve_two_step(BAND, lambda a, b: b**2, 0.0, 1.0, inner, inner_full)
        assert v == pytest.approx(2.0, abs=2e-3)

    def test_time_order_validated(self):
        outer, inner = self.pair_grids()
        with pytest.raises(ValueError):
            solve_two_step(BAND, lambda a, b: a + b, 1.0, 0.5, outer, inner)


class TestExport:
    def test_csv(self, tmp_path):
        sol = solve_terminal(BAND, lambda x: x**2, default_grid(nx=101))
        out = tmp_path / "u.csv"
        sol.to_csv(out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x,u"
        assert len(lines) == 102
