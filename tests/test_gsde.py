import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gcalc import (
    BlowUpError,
    restrict,
    ExplosionSuspectedError,
    PolicyFamily,
    SigmaBand,
    TimeGrid,
    TruncationSchedule,
    closed_form_geometric,
    coefficients,
    initial_sensitivity,
    integrate,
    integrate_batch,
    load_system,
    simulate_batch,
    solve_localized,
    solve_localized_batch,
    threshold_bangbang,
    truncate,
)
from gcalc import CovarianceSet, expr
from gcalc.expr import state_variables
from gcalc.gsde import SolutionBatch, _euler
from gcalc.runio import write_table
from gcalc.scenario import ConstantPolicy
from test_expr import _ref_fill

BAND = SigmaBand(1.0, 2.0)


def one_path(policy, grid, seed, index=0):
    """Path ``index`` of the (seed, index) stream as a one-path batch."""
    return simulate_batch(policy, BAND, grid, seed, 1, first_index=index)


def exit_step(sol, radius, row=0):
    """A row's first grid step with |X| >= radius, or None."""
    step = int(sol.exit_steps(radius)[row])
    return None if step < 0 else step


def geometric_coeffs(alpha=-1.0, beta=0.5, gamma=1.0):
    return coefficients(1, 1, ["a*x1"], ["b*x1"], ["c*x1"],
                        constants={"a": alpha, "b": beta, "c": gamma})


def duffing_coeffs():
    # h-driven oscillator with additive noise; cubic term is only locally Lipschitz
    return coefficients(2, 1, ["0", "0"], ["x2", "-x1 - x1^3 - x2"], ["0", "1"],
                        lipschitz_tag="local")


class TestTruncate:
    def test_inactive_inside_radius(self):
        c = geometric_coeffs()
        tc = truncate(c, 10.0)
        x = np.array([[3.0]])
        assert np.array_equal(tc.eval_f(0.0, x), c.eval_f(0.0, x))

    def test_cubic_clamp(self):
        c = coefficients(1, 1, ["x1^3"], ["0"], ["0"])
        tc = truncate(c, 2.0)
        assert tc.eval_f(0.0, np.array([[5.0]]))[0, 0] == pytest.approx(8.0)

    def test_linear_radial_projection(self):
        c = coefficients(1, 1, ["x1"], ["0"], ["0"])
        for n in (1.0, 2.5, 7.0):
            tc = truncate(c, n)
            assert tc.eval_f(0.0, np.array([[3.0 * n]]))[0, 0] == pytest.approx(n)

    def test_marks_global(self):
        tc = truncate(duffing_coeffs(), 4.0)
        assert tc.lipschitz_tag == "global"
        with pytest.raises(ValueError):
            truncate(duffing_coeffs(), 0.0)


class TestIntegrate:
    def test_zero_coefficients_identity(self):
        c = coefficients(2, 1, ["0", "0"], ["0", "0"], ["0", "0"])
        path = one_path(threshold_bangbang(BAND, 0.0), TimeGrid(1.0, 100), seed=0)
        sol = integrate(c, [1.5, -0.5], path)
        assert np.array_equal(sol.x, np.tile([1.5, -0.5], (1, 101, 1)))

    def test_h_only_telescopes_exactly(self):
        c = coefficients(1, 1, ["0"], ["1"], ["0"])
        path = one_path(threshold_bangbang(BAND, 0.0), TimeGrid(1.0, 1024), seed=1)
        sol = integrate(c, [0.5], path)
        assert np.array_equal(sol.x[:, :, 0], 0.5 + path.qv_scalar())

    def test_trivial_solution_preserved(self):
        # coefficients vanish at 0, so the zero start stays exactly zero
        path = one_path(threshold_bangbang(BAND, 0.0), TimeGrid(1.0, 200), seed=2)
        sol = integrate(geometric_coeffs(), [0.0], path)
        assert np.array_equal(sol.x, np.zeros((1, 201, 1)))

    def test_strong_order_half_quartered_dt(self):
        # RMS error vs closed form halves (+-30%) per quartering of dt,
        # fitted over two quarterings of the same driving paths
        fine = simulate_batch(threshold_bangbang(BAND, 0.0), BAND, TimeGrid(1.0, 4000),
                              seed=3, n_paths=300)
        errs = []
        for factor in (16, 4, 1):
            coarse = restrict(fine, factor)
            sol = integrate_batch(geometric_coeffs(), [1.0], coarse)
            ref = closed_form_geometric(-1.0, 0.5, 1.0, 1.0, coarse)
            errs.append(float(np.sqrt(np.mean((sol.x[:, -1, 0] - ref.x[:, -1, 0]) ** 2))))
        assert errs[0] > errs[1] > errs[2]
        per_quartering = (errs[-1] / errs[0]) ** (1.0 / 2.0)
        assert 0.35 <= per_quartering <= 0.65

    def test_blowup_carries_step(self):
        c = coefficients(1, 1, ["x1^3"], ["0"], ["0"])
        path = one_path(threshold_bangbang(BAND, 0.0), TimeGrid(5.0, 500), seed=4, index=9)
        with pytest.raises(BlowUpError) as exc:
            integrate(c, [2.0], path)
        assert exc.value.step > 0 and exc.value.path_index == 9
        assert f"at step {exc.value.step} (path index 9)" in str(exc.value)


class TestClosedForm:
    def test_deterministic_reduction(self):
        path = one_path(threshold_bangbang(BAND, 0.0), TimeGrid(1.0, 100), seed=5)
        sol = closed_form_geometric(-1.0, 0.0, 0.0, 2.0, path)
        assert np.allclose(sol.x[0, :, 0], 2.0 * np.exp(-path.t))

    def test_zero_start(self):
        path = one_path(threshold_bangbang(BAND, 0.0), TimeGrid(1.0, 100), seed=5)
        sol = closed_form_geometric(-1.0, 0.5, 1.0, 0.0, path)
        assert np.array_equal(sol.x, np.zeros((1, 101, 1)))

    def test_matches_manual_formula(self):
        path = one_path(threshold_bangbang(BAND, 0.0), TimeGrid(2.0, 64), seed=6)
        sol = closed_form_geometric(-1.0, 0.5, 1.0, 1.0, path)
        manual = np.exp(-path.t + (0.5 - 0.5) * path.qv_scalar()[0] + path.b[0, :, 0])
        assert np.allclose(sol.x[0, :, 0], manual, rtol=1e-15)

    def test_pth_power_factorisation(self):
        # |X_t|^p splits into a deterministic rate, a qvar exponent with
        # bracket 2 beta + gamma^2 (p - 1), and a mean-one exponential factor;
        # this identity is what the moment-decay bounds price pathwise
        alpha, beta, gamma, p = -1.0, 0.5, 1.0, 0.5
        path = one_path(threshold_bangbang(BAND, 0.0), TimeGrid(2.0, 128), seed=13)
        x = closed_form_geometric(alpha, beta, gamma, 1.0, path).x[0, :, 0]
        qv = path.qv_scalar()[0]
        b = path.b[0, :, 0]
        bracket = 2.0 * beta + gamma**2 * (p - 1.0)
        expo_mart = np.exp(gamma * p * b - 0.5 * (gamma * p) ** 2 * qv)
        rhs = np.exp(alpha * p * path.t + 0.5 * p * bracket * qv) * expo_mart
        assert np.allclose(np.abs(x) ** p, rhs, rtol=1e-12)


class TestLocalization:
    def test_global_coeffs_big_radius_identical(self):
        c = geometric_coeffs()
        path = one_path(threshold_bangbang(BAND, 0.0), TimeGrid(1.0, 200), seed=7)
        direct = integrate(c, [1.0], path)
        local = solve_localized(c, [1.0], path, TruncationSchedule((1000.0,)))
        assert np.array_equal(direct.x, local.x)
        assert local.n0_used == 1000.0

    def test_exit_steps_monotone_in_radius(self):
        path = one_path(threshold_bangbang(BAND, 0.0), TimeGrid(5.0, 1000), seed=8)
        sol = integrate(truncate(duffing_coeffs(), 64.0), [1.0, 0.0], path)
        prev = -1
        for radius in (0.5, 1.0, 2.0, 4.0):
            step = exit_step(sol, radius)
            if step is None:
                break
            assert step >= prev
            prev = step

    def test_prefix_bitwise_consistency(self):
        grid = TimeGrid(5.0, 1000)
        batch = simulate_batch(threshold_bangbang(BAND, 0.0), BAND, grid, seed=9, n_paths=50)
        c = duffing_coeffs()
        sol_n = integrate_batch(truncate(c, 2.0), [1.0, 0.0], batch)
        sol_2n = integrate_batch(truncate(c, 4.0), [1.0, 0.0], batch)
        exits = sol_n.exit_steps(2.0)
        assert (exits >= 0).any()
        for i in range(50):
            upto = exits[i] if exits[i] >= 0 else grid.n_steps
            assert np.array_equal(sol_n.x[i, : upto + 1], sol_2n.x[i, : upto + 1])

    def test_batch_exit_fractions_nonincreasing_to_zero(self):
        grid = TimeGrid(5.0, 500)
        batch = simulate_batch(threshold_bangbang(BAND, 0.0), BAND, grid, seed=10, n_paths=200)
        report = solve_localized_batch(duffing_coeffs(), [1.0, 0.0], batch)
        fracs = list(report.exit_fractions.values())
        assert all(b <= a for a, b in zip(fracs, fracs[1:]))
        assert fracs[-1] == 0.0
        assert np.all(np.isfinite(report.solution.x))

    def test_schedule_exhaustion_raises(self):
        c = coefficients(1, 1, ["x1^3"], ["0"], ["0"], lipschitz_tag="local")
        path = one_path(threshold_bangbang(BAND, 0.0), TimeGrid(5.0, 500), seed=11)
        with pytest.raises(ExplosionSuspectedError) as exc:
            solve_localized(c, [2.0], path, TruncationSchedule((2.0, 4.0)))
        assert set(exc.value.exit_fractions) == {2.0, 4.0}

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            TruncationSchedule(())
        with pytest.raises(ValueError):
            TruncationSchedule((4.0, 2.0))
        default = TruncationSchedule.doubling()
        assert default.radii[0] == 2.0 and default.radii[-1] == 2.0**15


class TestInitialSensitivity:
    def test_same_start_is_zero(self):
        rep = initial_sensitivity(geometric_coeffs(), [1.0], [1.0], BAND, TimeGrid(1.0, 50),
                                  PolicyFamily.extreme_constants(), 200, seed=0)
        assert rep.ratio == 0.0

    def test_zero_coefficients_ratio_one(self):
        c = coefficients(1, 1, ["0"], ["0"], ["0"])
        rep = initial_sensitivity(c, [1.0], [0.5], BAND, TimeGrid(1.0, 50),
                                  PolicyFamily.extreme_constants(), 200, seed=0, p=2.0)
        assert rep.ratio == pytest.approx(1.0, rel=1e-12)

    def test_linear_system_ratio_scale_free(self):
        fam = PolicyFamily.extreme_constants()
        ratios = []
        for eps in (1e-1, 1e-2, 1e-3):
            rep = initial_sensitivity(geometric_coeffs(), [1.0], [1.0 - eps], BAND,
                                      TimeGrid(1.0, 100), fam, 300, seed=1, p=2.0)
            ratios.append(rep.ratio)
        assert max(ratios) / min(ratios) <= 2.0

    def test_requires_global_tag(self):
        with pytest.raises(ValueError):
            initial_sensitivity(duffing_coeffs(), [1.0, 0.0], [0.9, 0.0], BAND,
                                TimeGrid(1.0, 50), PolicyFamily.extreme_constants(), 200, seed=0)


class TestConfig:
    def test_load_system_round_trip(self):
        cfg = {
            "n": 2, "d": 1, "band": [1.0, 2.0],
            "f": ["x2", "-a*x1 - b*x1^3 - c*x2"],
            "h": ["0", "0"],
            "g": ["0", "sigma"],
            "constants": {"a": 1.0, "b": 1.0, "c": 1.0, "sigma": 0.5},
        }
        coeffs, unc = load_system(cfg)
        assert coeffs.n == 2 and coeffs.d == 1
        assert unc.sigma2_hi == 2.0
        out = coeffs.eval_f(0.0, np.array([[1.0, 2.0]]))
        assert out[0, 0] == 2.0 and out[0, 1] == -(1.0 + 1.0 + 2.0)

    def test_csv_export(self, tmp_path):
        # the per-path table gcalc gsde writes: t and the path's states
        path = one_path(threshold_bangbang(BAND, 0.0), TimeGrid(1.0, 16), seed=12)
        sol = integrate(geometric_coeffs(), [1.0], path)
        out = tmp_path / "sol.csv"
        write_table(out, ["t"] + state_variables(1), np.column_stack([sol.t, sol.x[0]]))
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,x1"
        assert len(lines) == 18


# ---------------------------------------------------------------------------
# Localization: one pass at the largest radius against the per-radius loop
# ---------------------------------------------------------------------------


def _ref_first_bad_step(x):
    ok = np.all(np.isfinite(x), axis=-1)
    if ok.all():
        return None
    return int(np.argmax(~ok))


def _ref_solve_localized(coeffs, x0, path, schedule=None):
    """Reference: the per-radius loop that localization used to run on one
    path (a one-path batch), one full Euler pass per radius until the path
    stops exiting, with the integrate and exit-step code of that time
    inlined.  Returns the solution and the exit step of each radius tried,
    each from its own pass."""
    schedule = schedule or TruncationSchedule.doubling()
    records = {}
    for radius in schedule.radii:
        x = _euler(truncate(coeffs, radius), x0, path.b, path.trace, path.grid)[0][0]
        bad = _ref_first_bad_step(x)
        if bad is not None:
            raise BlowUpError(bad, path.first_index)
        hit = np.maximum.accumulate(np.linalg.norm(x, axis=-1)) >= radius
        step = int(np.argmax(hit)) if hit.any() else None
        records[radius] = step
        if step is None:
            sol = SolutionBatch(path.grid, x[None], n0_used=radius,
                                diagnostics={"radii_tried": list(records)})
            return sol, records
    fractions = {r: (0.0 if s is None else 1.0) for r, s in records.items()}
    raise ExplosionSuspectedError(fractions)


def _ref_solve_localized_batch(coeffs, x0, batch, schedule=None):
    """Reference: the per-radius batch loop, keeping each path's states from
    the first radius it does not exit."""
    schedule = schedule or TruncationSchedule.doubling()
    P = len(batch)
    n0 = np.full(P, np.nan)
    final = np.full((P, batch.grid.n_steps + 1, coeffs.n), np.nan)
    fractions = {}
    radii_used = []
    for radius in schedule.radii:
        x, _ = _euler(truncate(coeffs, radius), x0, batch.b, batch.trace, batch.grid)
        hit = np.maximum.accumulate(np.linalg.norm(x, axis=-1), axis=1) >= radius
        exits = np.argmax(hit, axis=1)
        exits[~hit.any(axis=1)] = -1
        fractions[radius] = float(np.mean(exits >= 0))
        radii_used.append(radius)
        settled = (exits < 0) & np.isnan(n0)
        n0[settled] = radius
        final[settled] = x[settled]
        if not np.isnan(n0).any():
            return SolutionBatch(batch.grid, final, n0_used=float(np.max(n0))), fractions, n0, radii_used
    raise ExplosionSuspectedError(fractions)


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except ExplosionSuspectedError as e:
        return "explosion", e.exit_fractions
    except BlowUpError as e:
        return "blowup", e.step


def sqrt_coeffs():
    # x1 diffuses and its sqrt drift turns NaN once it goes negative
    return coefficients(2, 1, ["sqrt(x1)", "0"], ["0", "-x2"], ["1", "0"], lipschitz_tag="local")


SYSTEMS = {"duffing": duffing_coeffs, "sqrt": sqrt_coeffs}
SCHEDULES = {
    "doubling": None,
    "custom": TruncationSchedule((1.5, 3.0, 6.0, 12.0, 24.0, 1000.0)),
    "first_settles": TruncationSchedule((100.0,)),
    "first_of_two_settles": TruncationSchedule((50.0, 100.0)),
    "exhausts": TruncationSchedule((0.5, 1.0)),
    "short": TruncationSchedule((1.0, 2.0, 3.0)),
}
X0 = st.tuples(st.floats(-11.0, 11.0), st.floats(-11.0, 11.0))
LOC_GRID = TimeGrid(1.0, 200)


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestLocalizationEquivalence:
    @pytest.mark.parametrize("system", sorted(SYSTEMS))
    @pytest.mark.parametrize("schedule", sorted(SCHEDULES))
    @given(seed=st.integers(0, 2**63 - 1), n_paths=st.integers(1, 30), x0=X0)
    @settings(max_examples=10, deadline=None)
    def test_batch_matches_per_radius_loop(self, system, schedule, seed, n_paths, x0):
        coeffs = SYSTEMS[system]()
        sched = SCHEDULES[schedule]
        batch = simulate_batch(threshold_bangbang(BAND, 0.0), BAND, LOC_GRID, seed=seed,
                               n_paths=n_paths)
        want = _outcome(_ref_solve_localized_batch, coeffs, list(x0), batch, sched)
        got = _outcome(solve_localized_batch, coeffs, list(x0), batch, sched)
        assert got[0] == want[0]
        if want[0] == "explosion":
            assert got[1] == want[1]
            return
        ref_sol, fractions, n0, radii_used = want[1]
        rep = got[1]
        assert _same_bits(rep.solution.x, ref_sol.x)
        assert _same_bits(rep.n0_per_path, n0)
        assert rep.exit_fractions == fractions
        assert list(rep.exit_fractions) == list(fractions)
        assert rep.radii_used == radii_used
        assert rep.solution.n0_used == ref_sol.n0_used
        assert _same_bits(rep.solution.running_max, ref_sol.running_max)
        bad = {i: s for i, s in enumerate(map(_ref_first_bad_step, ref_sol.x)) if s is not None}
        assert rep.solution.diagnostics.get("blowup_steps", {}) == bad

    @pytest.mark.parametrize("system", sorted(SYSTEMS))
    @pytest.mark.parametrize("schedule", sorted(SCHEDULES))
    @given(seed=st.integers(0, 2**63 - 1), index=st.integers(0, 1000), x0=X0)
    @settings(max_examples=10, deadline=None)
    def test_single_path_matches_per_radius_loop(self, system, schedule, seed, index, x0):
        coeffs = SYSTEMS[system]()
        sched = SCHEDULES[schedule]
        path = one_path(threshold_bangbang(BAND, 0.0), LOC_GRID, seed, index)
        want = _outcome(_ref_solve_localized, coeffs, list(x0), path, sched)
        got = _outcome(solve_localized, coeffs, list(x0), path, sched)
        if want[0] == "blowup" and got != want:
            # the loop also checked the clamped continuation of a radius the
            # path had already left; the single pass checks only the kept
            # trajectory, so the loop's blow-up must lie after the first exit
            radii = (sched or TruncationSchedule.doubling()).radii
            first_exit = integrate_batch(truncate(coeffs, radii[-1]), list(x0),
                                         path).exit_steps(radii[0])[0]
            assert 0 <= first_exit < want[1]
            return
        assert got[0] == want[0]
        if want[0] != "ok":
            assert got[1] == want[1]
            return
        (ref, records), sol = want[1], got[1]
        assert _same_bits(sol.x, ref.x)
        assert sol.n0_used == ref.n0_used
        assert sol.diagnostics == ref.diagnostics
        tried = ref.diagnostics["radii_tried"]
        assert {r: exit_step(sol, r) for r in tried} == records

    def test_cli_start_outside_first_radii(self):
        # the oscillator from norm 10 leaves radii 2, 4 and 8 at step 0
        path = one_path(threshold_bangbang(BAND, 0.0), TimeGrid(5.0, 1000), seed=1)
        ref, _ = _ref_solve_localized(duffing_coeffs(), [0.0, 10.0], path)
        sol = solve_localized(duffing_coeffs(), [0.0, 10.0], path)
        assert {r: exit_step(sol, r) for r in (2.0, 4.0, 8.0)} == {2.0: 0, 4.0: 0, 8.0: 0}
        assert sol.n0_used == ref.n0_used == 16.0
        assert sol.diagnostics == ref.diagnostics == {"radii_tried": [2.0, 4.0, 8.0, 16.0]}
        assert _same_bits(sol.x, ref.x)

    @pytest.mark.parametrize("system", sorted(SYSTEMS))
    @given(seed=st.integers(0, 2**63 - 1), x0=st.tuples(st.floats(-6.0, 6.0), st.floats(-6.0, 6.0)))
    @settings(max_examples=10, deadline=None)
    def test_prefix_agreement_at_every_radius_tried(self, system, seed, x0):
        # one truncated pass per radius agrees bitwise with the localized
        # solution up to and including its exit step, and over the whole
        # grid for the paths that settle at that radius
        coeffs = SYSTEMS[system]()
        batch = simulate_batch(threshold_bangbang(BAND, 0.0), BAND, LOC_GRID, seed=seed,
                               n_paths=20)
        rep = solve_localized_batch(coeffs, list(x0), batch)
        for radius in rep.radii_used:
            sol = integrate_batch(truncate(coeffs, radius), list(x0), batch)
            exits = sol.exit_steps(radius)
            assert np.array_equal(exits, rep.solution.exit_steps(radius))
            for i in range(len(batch)):
                upto = exits[i] if exits[i] >= 0 else LOC_GRID.n_steps
                assert _same_bits(sol.x[i, : upto + 1], rep.solution.x[i, : upto + 1])
                if rep.n0_per_path[i] == radius:
                    assert exits[i] < 0

    def test_continuation_blowup_after_exit_no_longer_raises(self):
        # x2's drift is 0 * sqrt(y2 - 0.9): zero along the unclamped path
        # (x2 stays 1), NaN once the radius-2 clamp pulls y2 below 0.9 after
        # x1 has carried |X| past 2; radius 8 is never reached
        c = coefficients(2, 1, ["1", "0*sqrt(x2 - 0.9)"], ["0", "0"], ["0", "0"],
                         lipschitz_tag="local")
        path = one_path(threshold_bangbang(BAND, 0.0), TimeGrid(5.0, 500), seed=0)
        sched = TruncationSchedule((2.0, 4.0, 8.0))
        with pytest.raises(BlowUpError) as ref:
            _ref_solve_localized(c, [0.0, 1.0], path, sched)
        sol = solve_localized(c, [0.0, 1.0], path, sched)
        assert 0 < exit_step(sol, 2.0) < ref.value.step
        assert sol.n0_used == 8.0
        assert np.all(np.isfinite(sol.x))
        assert np.array_equal(sol.x[0, :, 1], np.ones(501))

    def test_blowup_before_exit_raises_at_same_step(self):
        # x2 turns NaN once x1 > 1.5, before |X| reaches the first radius
        c = coefficients(2, 1, ["1", "0*sqrt(1.5 - x1)"], ["0", "0"], ["0", "0"],
                         lipschitz_tag="local")
        path = one_path(threshold_bangbang(BAND, 0.0), TimeGrid(5.0, 500), seed=0, index=4)
        sched = TruncationSchedule((2.0, 4.0, 8.0))
        with pytest.raises(BlowUpError) as ref:
            _ref_solve_localized(c, [0.0, 0.0], path, sched)
        with pytest.raises(BlowUpError) as got:
            solve_localized(c, [0.0, 0.0], path, sched)
        assert got.value.step == ref.value.step > 0
        assert got.value.path_index == ref.value.path_index == 4


class TestBlowupDetection:
    def test_one_nonfinite_row_reports_reference_step(self):
        # x1's drift is 0 * sqrt(x2 - t): NaN once t passes the row's x2
        c = coefficients(2, 1, ["0*sqrt(x2 - t)", "0"], ["0", "0"], ["0", "0"])
        batch = simulate_batch(threshold_bangbang(BAND, 0.0), BAND, TimeGrid(1.0, 100),
                               seed=0, n_paths=4)
        x0 = np.array([[0.0, 10.0], [0.0, 10.0], [0.0, 0.375], [0.0, 10.0]])
        sol = integrate_batch(c, x0, batch)
        bad = {i: s for i, s in enumerate(map(_ref_first_bad_step, sol.x)) if s is not None}
        assert list(bad) == [2]
        assert sol.diagnostics["blowup_steps"] == bad
        assert all(type(k) is int and type(v) is int
                   for k, v in sol.diagnostics["blowup_steps"].items())

    def test_finite_batch_has_no_blowup_entry(self):
        batch = simulate_batch(threshold_bangbang(BAND, 0.0), BAND, TimeGrid(1.0, 50),
                               seed=1, n_paths=5)
        assert integrate_batch(geometric_coeffs(), [1.0], batch).diagnostics == {}

    def test_single_path_raises_at_reference_step(self):
        c = coefficients(1, 1, ["x1^3"], ["0"], ["0"])
        batch = simulate_batch(threshold_bangbang(BAND, 0.0), BAND, TimeGrid(5.0, 500),
                               seed=4, n_paths=1)
        with np.errstate(all="ignore"):
            x = integrate_batch(c, [2.0], batch).x[0]
        with pytest.raises(BlowUpError) as exc:
            integrate(c, [2.0], batch)
        assert exc.value.step == _ref_first_bad_step(x) > 0


# ---------------------------------------------------------------------------
# a single path is a one-path batch; integrate and solve_localized raise
# where their batch twins report
# ---------------------------------------------------------------------------


class TestSinglePathIsBatchRow:
    @pytest.mark.parametrize("system", sorted(SYSTEMS))
    @given(seed=st.integers(0, 2**63 - 1), first=st.integers(0, 2**40),
           n_paths=st.integers(1, 8), x0=X0, data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_integrate(self, system, seed, first, n_paths, x0, data):
        coeffs = truncate(SYSTEMS[system](), 8.0)
        i = data.draw(st.integers(0, n_paths - 1))
        batch = simulate_batch(threshold_bangbang(BAND, 0.0), BAND, LOC_GRID, seed=seed,
                               n_paths=n_paths, first_index=first)
        path = one_path(threshold_bangbang(BAND, 0.0), LOC_GRID, seed, first + i)
        with np.errstate(all="ignore"):
            sol = integrate_batch(coeffs, list(x0), batch)
        bad = sol.diagnostics.get("blowup_steps", {})
        if bad:
            # the whole batch raises for its lowest non-finite row
            row = min(bad)
            with pytest.raises(BlowUpError) as exc:
                integrate(coeffs, list(x0), batch)
            assert (exc.value.step, exc.value.path_index) == (bad[row], first + row)
        else:
            assert _same_bits(integrate(coeffs, list(x0), batch).x, sol.x)
        if i in bad:
            with pytest.raises(BlowUpError) as exc:
                integrate(coeffs, list(x0), path)
            assert (exc.value.step, exc.value.path_index) == (bad[i], first + i)
            return
        one = integrate(coeffs, list(x0), path)
        assert _same_bits(one.x, sol.x[i:i + 1])
        assert _same_bits(one.norms, sol.norms[i:i + 1])
        assert _same_bits(one.running_max, sol.running_max[i:i + 1])
        assert one.diagnostics == {} and one.n0_used is None
        for radius in (0.5, 2.0, 50.0):
            assert _same_bits(one.exit_steps(radius), sol.exit_steps(radius)[i:i + 1])

    @pytest.mark.parametrize("system", sorted(SYSTEMS))
    @pytest.mark.parametrize("schedule", sorted(SCHEDULES))
    @given(seed=st.integers(0, 2**63 - 1), index=st.integers(0, 1000), x0=X0)
    @settings(max_examples=8, deadline=None)
    def test_solve_localized(self, system, schedule, seed, index, x0):
        coeffs = SYSTEMS[system]()
        sched = SCHEDULES[schedule]
        radii = (sched or TruncationSchedule.doubling()).radii
        path = one_path(threshold_bangbang(BAND, 0.0), LOC_GRID, seed, index)
        got = _outcome(solve_localized, coeffs, list(x0), path, sched)
        twin = _outcome(solve_localized_batch, coeffs, list(x0), path, sched)
        if twin[0] == "explosion":
            assert got == twin
            return
        rep = twin[1]
        bad = rep.solution.diagnostics.get("blowup_steps", {})
        if bad:
            assert got[0] == "blowup" and got[1] == bad[0]
            with pytest.raises(BlowUpError) as exc:
                solve_localized(coeffs, list(x0), path, sched)
            assert exc.value.path_index == index
            return
        sol = got[1]
        assert _same_bits(sol.x, rep.solution.x)
        assert sol.n0_used == rep.n0_per_path[0] == rep.solution.n0_used
        assert sol.diagnostics == {"radii_tried": rep.radii_used}
        assert rep.radii_used == [r for r in radii if r <= sol.n0_used]

    def test_explosion_fractions_match_batch_twin(self):
        c = coefficients(1, 1, ["x1^3"], ["0"], ["0"], lipschitz_tag="local")
        path = one_path(threshold_bangbang(BAND, 0.0), TimeGrid(5.0, 500), seed=11, index=3)
        sched = TruncationSchedule((2.0, 4.0))
        with pytest.raises(ExplosionSuspectedError) as one:
            solve_localized(c, [2.0], path, sched)
        with pytest.raises(ExplosionSuspectedError) as twin:
            solve_localized_batch(c, [2.0], path, sched)
        assert one.value.exit_fractions == twin.value.exit_fractions == {2.0: 1.0, 4.0: 1.0}

    @given(seed=st.integers(0, 2**63 - 1), n_paths=st.integers(1, 8), data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_closed_form(self, seed, n_paths, data):
        i = data.draw(st.integers(0, n_paths - 1))
        batch = simulate_batch(threshold_bangbang(BAND, 0.3), BAND, LOC_GRID, seed=seed,
                               n_paths=n_paths)
        whole = closed_form_geometric(-1.0, 0.5, 1.0, 1.5, batch)
        one = closed_form_geometric(-1.0, 0.5, 1.0, 1.5,
                                    one_path(threshold_bangbang(BAND, 0.3), LOC_GRID, seed, i))
        assert _same_bits(one.x, whole.x[i:i + 1])


def _ref_clamp(x, radius):
    """Reference: the radial clamp as it was, through np.linalg.norm and
    scaling every row (by exactly 1.0 inside the radius)."""
    norms = np.linalg.norm(x, axis=-1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        scale = np.where(norms > radius, radius / norms, 1.0)
    return x * scale


def _ref_euler(coeffs, x0, b, trace, grid):
    """Reference: the Euler loop as it was, stepping strided views of the
    solution array and evaluating every table entry by entry, all-zero
    tables included."""
    P, K, dt = b.shape[0], grid.n_steps, grid.dt
    n, d = coeffs.n, coeffs.d
    x0 = np.asarray(x0, dtype=float)
    if x0.shape not in ((n,), (P, n)):
        x0 = x0.reshape(n)
    x = np.empty((P, K + 1, n))
    x[:, 0, :] = x0
    db = np.diff(b, axis=1)
    dqv = trace * dt
    for k in range(K):
        xk = x[:, k, :]
        env = expr.bind(grid.t[k], xk if coeffs.radius is None else _ref_clamp(xk, coeffs.radius))
        fv = _ref_fill(coeffs.f, (n,), env, (P,))
        hv = _ref_fill(coeffs.h, (n, d, d), env, (P,))
        gv = _ref_fill(coeffs.g, (n, d), env, (P,))
        x[:, k + 1, :] = (
            xk
            + fv * dt
            + np.einsum("pnij,pij->pn", hv, dqv[:, k])
            + np.einsum("pnj,pj->pn", gv, db[:, k])
        )
    return x


def _ref_blowup_steps(x):
    """Reference: the per-row scan of non-finite states, run on every solve."""
    bad = ~np.isfinite(x).all(axis=-1)
    rows = np.flatnonzero(bad.any(axis=1))
    return {int(i): int(k) for i, k in zip(rows, np.argmax(bad[rows], axis=1))}


def _ref_running_max(x):
    """Reference: the running maximum as SolutionBatch computes it from states."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.maximum.accumulate(np.linalg.norm(x, axis=-1), axis=1)


COV2 = CovarianceSet(2, [[[1.0, -0.5], [-0.5, 1.0]], [[2.0, 0.3], [0.3, 0.5]]])
COV3 = CovarianceSet(3, [[[1.0, -0.3, 0.2], [-0.3, 1.0, -0.4], [0.2, -0.4, 1.0]], np.eye(3)])
# name -> (coefficients, uncertainty, policies); every zero kind appears:
# all-zero tables (an all-+0.0 drift is skipped), negative zeros and zero
# products
EULER_SYSTEMS = {
    "duffing": (duffing_coeffs(), BAND, [threshold_bangbang(BAND, 0.0)]),
    "sqrt": (sqrt_coeffs(), BAND, [ConstantPolicy(value=1.5)]),
    "geometric": (geometric_coeffs(), BAND, [threshold_bangbang(BAND, 0.2)]),
    "signed_zeros": (coefficients(2, 1, ["-0", "0"], ["0*x1", "0"], ["-0", "x1 - x1"]),
                     BAND, [ConstantPolicy(value=1.0)]),
    "constant_drift": (coefficients(2, 1, ["1.5", "2 - 2"], ["-x1", "0"], ["1", "x2"]),
                       BAND, [ConstantPolicy(value=1.5)]),
    "cov2_zero_h": (coefficients(2, 2, ["-x1", "x1*x2"], [[["0", "0"], ["0", "0"]]] * 2,
                                 [["x1", "0"], ["0.5*x2", "x2"]]),
                    COV2, [ConstantPolicy(index=0), ConstantPolicy(index=1)]),
    "cov3_zero_g": (coefficients(1, 3, ["0"], [[["0.1*x1", "0", "0"], ["0", "0", "-x1"],
                                                 ["0", "0", "0"]]], [["0", "0", "0"]]),
                    COV3, [ConstantPolicy(index=0)]),
    # constant h and g tables, filled once per solve, with -0 entries
    "constant_signed_hg": (coefficients(2, 1, ["x2", "-x1"], ["-0", "0.5"], ["-0", "1.5"]),
                           BAND, [ConstantPolicy(value=1.5)]),
    # at x1 = -0.0 both d = 1 products are -0.0; einsum's sums make them +0.0
    "negative_zero_products": (coefficients(1, 1, ["x1"], ["x1"], ["-0"]),
                               BAND, [ConstantPolicy(value=1.0)]),
}
SIGNED = st.floats(-3.0, 3.0) | st.sampled_from([0.0, -0.0])
# non-finite states and a finite one whose norm overflows
SPECIAL = st.sampled_from([np.nan, np.inf, -np.inf, 1e200, -1e200])


class TestEulerAgainstReference:
    """The compiled tables, contiguous working state, inactive-clamp
    shortcut and skipped all-zero drift leave every state bit unchanged."""

    @pytest.mark.parametrize("system", sorted(EULER_SYSTEMS))
    @given(seed=st.integers(0, 2**63 - 1), n_paths=st.integers(1, 12), data=st.data(),
           radius=st.sampled_from([None, 0.5, 1.0, 2.0, 1e6]))
    @settings(max_examples=12, deadline=None)
    def test_bitwise(self, system, seed, n_paths, data, radius):
        coeffs, unc, policies = EULER_SYSTEMS[system]
        if radius is not None:
            coeffs = truncate(coeffs, radius)
        policy = data.draw(st.sampled_from(policies))
        batch = simulate_batch(policy, unc, TimeGrid(2.0, 40), seed, n_paths)
        x0 = data.draw(st.lists(SIGNED, min_size=coeffs.n, max_size=coeffs.n))
        if data.draw(st.booleans()):  # one initial state per path
            x0 = data.draw(st.lists(st.lists(SIGNED, min_size=coeffs.n, max_size=coeffs.n),
                                    min_size=n_paths, max_size=n_paths))
        got, _ = _euler(coeffs, x0, batch.b, batch.trace, batch.grid)
        want = _ref_euler(coeffs, x0, batch.b, batch.trace, batch.grid)
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()

    @pytest.mark.parametrize("system", sorted(EULER_SYSTEMS))
    @given(seed=st.integers(0, 2**63 - 1), n_paths=st.integers(1, 8), data=st.data(),
           radius=st.sampled_from([None, 0.5, 2.0, 1e6]))
    @settings(max_examples=12, deadline=None)
    def test_running_max_and_blowups(self, system, seed, n_paths, data, radius):
        """The running maximum from the clamp's norms and the flat blow-up
        screen match the states' own, with NaN, +-inf and overflowing rows."""
        coeffs, unc, policies = EULER_SYSTEMS[system]
        if radius is not None:
            coeffs = truncate(coeffs, radius)
        batch = simulate_batch(policies[0], unc, TimeGrid(2.0, 40), seed, n_paths)
        x0 = data.draw(st.lists(st.lists(SIGNED | SPECIAL, min_size=coeffs.n, max_size=coeffs.n),
                                min_size=n_paths, max_size=n_paths))
        with np.errstate(all="ignore"):
            want = _ref_euler(coeffs, x0, batch.b, batch.trace, batch.grid)
            _, running_max = _euler(coeffs, x0, batch.b, batch.trace, batch.grid)
            sol = integrate_batch(coeffs, x0, batch)
            assert _same_bits(sol.running_max, _ref_running_max(want))
        assert (running_max is None) == (radius is None)  # only a clamped pass keeps it
        assert _same_bits(sol.x, want)
        assert sol.diagnostics.get("blowup_steps", {}) == _ref_blowup_steps(want)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("radius", [None, 1e6, 1e300])
    def test_overflowing_norm_is_no_blowup(self, n, radius):
        """A finite state of 1e200 has an infinite norm but is no blow-up."""
        coeffs = coefficients(n, 1, ["0"] * n, ["0"] * n, ["0"] * n)
        if radius is not None:
            coeffs = truncate(coeffs, radius)
        batch = simulate_batch(ConstantPolicy(value=1.5), BAND, TimeGrid(1.0, 10), 0, 3)
        with np.errstate(over="ignore"):
            sol = integrate_batch(coeffs, [1e200] * n, batch)
            assert np.all(sol.running_max == np.inf)
        assert np.all(sol.x == 1e200)
        assert sol.diagnostics == {}

    def test_d1_products_have_einsum_zero_sign(self):
        """x1 = -0.0 makes both d = 1 products -0.0; einsum's sums, hence the
        step, give +0.0, where bare products would keep -0.0."""
        coeffs, unc, policies = EULER_SYSTEMS["negative_zero_products"]
        batch = simulate_batch(policies[0], unc, TimeGrid(1.0, 5), 0, 2)
        got, _ = _euler(coeffs, [-0.0], batch.b, batch.trace, batch.grid)
        want = _ref_euler(coeffs, [-0.0], batch.b, batch.trace, batch.grid)
        assert _same_bits(got, want)
        assert got[:, 0, 0].view(np.uint64).tolist() == [0x8000000000000000] * 2
        assert got[:, 1:].view(np.uint64).tolist() == np.zeros((2, 5, 1), np.uint64).tolist()

    @pytest.mark.parametrize("n", range(1, 9))
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_clamp_bitwise(self, n, data):
        rows = data.draw(st.lists(st.lists(st.floats(-1e3, 1e3) | st.sampled_from(
            [0.0, -0.0, np.inf, -np.inf, 1e300]), min_size=n, max_size=n), min_size=1, max_size=6))
        x = np.array(rows, dtype=float)
        kind = data.draw(st.sampled_from(["at_radius", "nan_row", "plain"]))
        radius = data.draw(st.floats(1e-3, 2e3))
        if kind == "at_radius":  # a row whose norm is exactly the radius
            with np.errstate(over="ignore"):
                radius = float(np.linalg.norm(x[0]))
            if not 0.0 < radius < np.inf:
                radius = 1.0
        elif kind == "nan_row":
            x[data.draw(st.integers(0, len(x) - 1))] = np.nan
        # the state was a strided view of the solution array before; now it is contiguous
        strided = np.zeros((len(x), 3, n))
        strided[:, 1, :] = x
        with np.errstate(over="ignore", invalid="ignore"):  # 1e300 squared, inf scaled by 0
            clamped, norms = truncate(coefficients(n, 1, ["0"] * n, ["0"] * n, ["0"] * n),
                                      radius)._clamp(x)
            want = _ref_clamp(strided[:, 1, :], radius)
            want_norms = np.linalg.norm(strided[:, 1, :], axis=-1)
            beyond = want_norms > radius
        assert clamped.view(np.uint64).tolist() == want.view(np.uint64).tolist()
        assert norms.view(np.uint64).tolist() == want_norms.view(np.uint64).tolist()
        if not beyond.any():
            assert clamped is x  # an inactive clamp returns the state itself
