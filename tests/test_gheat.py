from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gcalc import CFLError, SigmaBand, SpaceTimeGrid, g_scalar, gheat, solve_terminal, solve_two_step

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


class TestOffGrid:
    def test_value_at_rejects_points_off_the_grid(self):
        sol = solve_terminal(BAND, lambda x: x**2, SpaceTimeGrid.with_cfl(1.0, 5.0, 41, 1.0, BAND))
        assert sol.value_at(1.0) == sol.u[0] and sol.value_at(5.0) == sol.u[-1]
        for xq in (0.0, 0.999, 5.001, float("nan")):
            with pytest.raises(ValueError, match="off the grid"):
                sol.value_at(xq)

    @pytest.mark.parametrize("which", ["outer", "inner"])
    def test_two_step_needs_zero_on_both_grids(self, which):
        grids = {"outer": SpaceTimeGrid.with_cfl(-2.0, 2.0, 41, 0.5, BAND),
                 "inner": SpaceTimeGrid.with_cfl(-2.0, 2.0, 41, 0.5, BAND)}
        grids[which] = SpaceTimeGrid.with_cfl(0.5, 4.0, 41, 0.5, BAND)
        with pytest.raises(ValueError, match=f"{which} grid x range must contain 0"):
            solve_two_step(BAND, lambda a, b: a + b, 0.5, 1.0, grids["outer"], grids["inner"])


# Reference: the per-step solver the march replaced, with G written out as
# uncertainty.g_scalar computed it.  The march must reproduce its bits.

def _ref_step(v, band, dt, dx):
    d2 = (v[..., 2:] - 2.0 * v[..., 1:-1] + v[..., :-2]) / (dx * dx)
    g = 0.5 * (band.sigma2_hi * np.maximum(d2, 0.0) - band.sigma2_lo * np.maximum(-d2, 0.0))
    v[..., 1:-1] += dt * g


def _ref_terminal(band, payload, grid):
    v = np.array(payload, dtype=float)
    for _ in range(grid.nt):
        _ref_step(v, band, grid.dt, grid.dx)
    return v


def _ref_two_step(band, payload, t1, outer_grid, inner_grid):
    v = np.array(payload, dtype=float)
    for _ in range(inner_grid.nt):
        _ref_step(v, band, inner_grid.dt, inner_grid.dx)
    psi = np.array([np.interp(0.0, inner_grid.x, row) for row in v])
    if t1 == 0.0:
        return float(np.interp(0.0, outer_grid.x, psi))
    w = psi.copy()
    for _ in range(outer_grid.nt):
        _ref_step(w, band, outer_grid.dt, outer_grid.dx)
    return float(np.interp(0.0, outer_grid.x, w))


def _bits(a):
    return np.asarray(a, dtype=float).view(np.uint64).tolist()


# signed zeros, subnormals and magnitudes that overflow in the second difference
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308,
           1e300, -1e300, 1.7976931348623157e308, -1.7976931348623157e308]
values = st.sampled_from(SPECIAL) | st.floats(-1e6, 1e6) | st.integers(-3, 3).map(float)


@st.composite
def bands(draw):
    lo = draw(st.sampled_from([0.25, 1.0, 1.5]))
    return SigmaBand(lo, draw(st.sampled_from([lo, lo * 2.0, lo * 3.7])))


def cfl_grid(band, nx, nt):
    """Grid on [-1, 1] whose T puts nt at about twice the CFL minimum."""
    dx = 2.0 / (nx - 1)
    return SpaceTimeGrid(-1.0, 1.0, nx, 0.5 * nt * dx * dx / band.sigma2_hi, nt)


def _payloads(draw, shape):
    return np.array(draw(st.lists(values, min_size=int(np.prod(shape)),
                                  max_size=int(np.prod(shape))))).reshape(shape)


class TestMarchBits:
    """The march is the reference step loop bit for bit, NaN and inf included."""

    @given(st.data(), bands(), st.integers(3, 12), st.integers(1, 6))
    @settings(max_examples=150, deadline=None)
    def test_terminal(self, data, band, nx, nt):
        grid = cfl_grid(band, nx, nt)
        payload = _payloads(data.draw, (nx,))
        with np.errstate(all="ignore"):
            sol = solve_terminal(band, lambda x: payload, grid)
            want = _ref_terminal(band, payload, grid)
        assert _bits(sol.u) == _bits(want)

    @given(st.data(), bands(), st.integers(3, 9), st.integers(3, 9), st.integers(1, 4),
           st.integers(1, 3), st.integers(1, 4), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_two_step(self, data, band, n1, n2, nt_in, nt_out, block_rows, t1_zero):
        outer, inner = cfl_grid(band, n1, nt_out), cfl_grid(band, n2, nt_in)
        t1 = 0.0 if t1_zero else outer.T
        payload = _payloads(data.draw, (n1, n2))
        # small blocks, so stacks are taller than a block and often not a multiple of it
        with mock.patch.object(gheat, "_BLOCK_BYTES", block_rows * 8 * n2), np.errstate(all="ignore"):
            got = solve_two_step(band, lambda a, b: payload, t1, t1 + inner.T, outer, inner)
            want = _ref_two_step(band, payload, t1, outer, inner)
        assert _bits(got) == _bits(want)

    @given(st.data(), bands(), st.integers(1, 11), st.integers(3, 8), st.integers(1, 4),
           st.integers(1, 4))
    @settings(max_examples=100, deadline=None)
    def test_stack(self, data, band, rows, nx, nt, block_rows):
        # one-row stacks, stacks of several blocks and a last block cut short
        grid = cfl_grid(band, nx, nt)
        payload = _payloads(data.draw, (rows, nx))
        v = payload.copy()
        with mock.patch.object(gheat, "_BLOCK_BYTES", block_rows * 8 * nx), np.errstate(all="ignore"):
            gheat._march(v, band, grid.dt, grid.dx, nt)
            want = _ref_terminal(band, payload, grid)
        assert _bits(v) == _bits(want)

    @pytest.mark.parametrize("band", [SigmaBand(1.0, 1.0), BAND])
    def test_every_special_triple_on_the_smallest_grid(self, band):
        # nx = 3 and nt = 1: one interior cell, every ordered triple of SPECIAL
        grid = cfl_grid(band, 3, 1)
        triples = np.array(np.meshgrid(SPECIAL, SPECIAL, SPECIAL, indexing="ij")).reshape(3, -1).T
        with np.errstate(all="ignore"):
            for payload in triples:
                u = solve_terminal(band, lambda x: payload, grid).u
                assert _bits(u) == _bits(_ref_terminal(band, payload, grid)), payload

    def test_dt_and_half_are_not_folded(self):
        # d2 = 3 subnormal ulps: G rounds 1.5 ulps up to 2, and dt * 2 ulps
        # rounds to 2, where (0.5 * dt) * 3 ulps would round 1.35 down to 1
        band, tiny = SigmaBand(1.0, 1.0), 5e-324
        grid = SpaceTimeGrid(-1.0, 1.0, 3, 0.9, 1)
        u = solve_terminal(band, lambda x: np.array([0.0, 0.0, 3 * tiny]), grid).u
        assert u[1] == 2 * tiny

    def test_default_blocks_on_a_tall_stack(self):
        # three full blocks of the default budget and a partial one
        nx = 401
        height = gheat._BLOCK_BYTES // (8 * nx)
        rows = 3 * height + height // 2
        grid = SpaceTimeGrid.with_cfl(-10.0, 10.0, nx, 0.01, BAND)
        x = grid.x
        payload = np.abs(x[None, :] - np.linspace(-5.0, 5.0, rows)[:, None]) - 1.0
        v = payload.copy()
        gheat._march(v, BAND, grid.dt, grid.dx, grid.nt)
        assert _bits(v) == _bits(_ref_terminal(BAND, payload, grid))


# payload entries that reach G's signed zeros and subnormal products
TINY = [0.0, -0.0, 5e-324, -5e-324, 3e-323, -1.5e-323, 1e-310, -1e-310,
        2.2250738585072014e-308, -2.2250738585072014e-308]


def _tiny_stack(rows, nx, seed):
    """Rows of TINY entries, except every eighth row from row 4 on: a smooth profile."""
    rng = np.random.default_rng(seed)
    v = rng.choice(TINY, size=(rows, nx))
    x = np.linspace(-1.0, 1.0, nx)
    v[4::8] = np.maximum(1.0 - 4.0 * np.abs(x), 0.0) * rng.uniform(-1.0, 1.0, (len(v[4::8]), 1))
    return v


def _unit_grid(band, nx, nt):
    """Grid of spacing 1, so that d2 keeps its neighbours' subnormal size
    and lo * d2 can underflow to -0.0 next to a -0.0 cell."""
    half = 0.5 * (nx - 1)
    return SpaceTimeGrid(-half, half, nx, 0.5 * nt / band.sigma2_hi, nt)


class TestMarchTinyValues:
    """The march with signed zeros and subnormals is the reference step
    loop bit for bit, on one row and on stacks of several default blocks."""

    # a -0.0 cell that G's sign decides stays -0.0 or turns +0.0 at once, and
    # diffusion from the larger entries covers it within a few steps
    @pytest.mark.parametrize("nt", [1, 2, 30])
    @pytest.mark.parametrize("band", [BAND, SigmaBand(1.5, 1.5), SigmaBand(0.01, 4.0)])
    def test_single_row(self, band, nt):
        grid = _unit_grid(band, 401, nt)
        payload = _tiny_stack(1, 401, 3)[0]
        v = payload.copy()
        gheat._march(v, band, grid.dt, grid.dx, grid.nt)
        assert _bits(v) == _bits(_ref_terminal(band, payload, grid))

    @pytest.mark.parametrize("band", [BAND, SigmaBand(0.01, 4.0)])
    @pytest.mark.parametrize("rows", ["square", "three_blocks_and_one"])
    def test_stacks_past_one_block(self, rows, band):
        nx = 401
        width = gheat._BLOCK_BYTES // (8 * nx)
        rows = nx if rows == "square" else 3 * width + 1
        grid = _unit_grid(band, nx, 8)
        payload = _tiny_stack(rows, nx, 4)
        v = payload.copy()
        gheat._march(v, band, grid.dt, grid.dx, grid.nt)
        assert len(payload) > width
        assert _bits(v) == _bits(_ref_terminal(band, payload, grid))


class TestGScalarOut:
    A = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324, 1e-310,
                  -1e-310, 1.5, -2.5, 1e308, -1e308])

    @pytest.mark.parametrize("band", [BAND, SigmaBand(1.5, 1.5), SigmaBand(0.3, 7.0)])
    def test_out_matches_plain_call_bitwise(self, band):
        with np.errstate(all="ignore"):
            plain = g_scalar(band, self.A)
            buf = np.full_like(self.A, 99.0)
            got = g_scalar(band, self.A, out=buf)
            inplace = self.A.copy()
            g_scalar(band, inplace, out=inplace)
            old = 0.5 * (band.sigma2_hi * np.maximum(self.A, 0.0)
                         - band.sigma2_lo * np.maximum(-self.A, 0.0))
        assert got is buf
        assert _bits(plain) == _bits(buf) == _bits(inplace) == _bits(old)

    def test_scalars_stay_floats(self):
        with np.errstate(all="ignore"):
            for a in self.A:
                got = g_scalar(BAND, a)
                assert type(got) is float and _bits(got) == _bits(g_scalar(BAND, np.array([a]))[0])
