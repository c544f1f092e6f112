import hashlib
import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gcalc import (
    BangBangPolicy,
    ConstantPolicy,
    CovarianceSet,
    ExperimentConfig,
    GeometricModel,
    PathBatch,
    PiecewiseConstantPolicy,
    PolicyError,
    PolicyFamily,
    SigmaBand,
    TimeGrid,
    closed_form_geometric,
    estimate_upper,
    moment_decay_curve,
    qv_compensation_check_batch,
    path_noise,
    qvar_bounds_check_batch,
    simulate_batch,
    threshold_bangbang,
)
from gcalc import upper_expectation
from gcalc.runio import write_table
from gcalc.scenario import (UnsupportedDimensionError, _gap_scan, _sqrt_factor, assemble,
                            batch_noise)

BAND = SigmaBand(1.0, 2.0)


def one_path(policy, unc, grid, seed, index=0):
    """Path ``index`` of the (seed, index) stream as a one-path batch."""
    return simulate_batch(policy, unc, grid, seed, 1, first_index=index)


def brute_force_qvar_violation(qv, t, lo, hi):
    """O(n^2) oracle over all grid pairs."""
    worst = -np.inf
    n = len(t)
    for i in range(n):
        for j in range(i, n):
            dq = qv[j] - qv[i]
            dtau = t[j] - t[i]
            worst = max(worst, dq - hi * dtau, lo * dtau - dq)
    return worst


class TestNoise:
    def test_prefix_stability(self):
        a = path_noise(5, 3, 10, 2)
        b = path_noise(5, 3, 25, 2)
        assert np.array_equal(a, b[:10])

    def test_distinct_paths_and_seeds(self):
        assert not np.array_equal(path_noise(5, 0, 10, 1), path_noise(5, 1, 10, 1))
        assert not np.array_equal(path_noise(5, 0, 10, 1), path_noise(6, 0, 10, 1))

    def test_batch_matches_per_path(self):
        block = batch_noise(9, 4, 3, 8, 2)
        for p in range(3):
            assert np.array_equal(block[p], path_noise(9, 4 + p, 8, 2))

    # path counts on both sides of batch_noise's 64-path block edges
    @pytest.mark.parametrize("n_paths", [63, 64, 65, 129])
    def test_batch_matches_per_path_across_blocks(self, n_paths):
        block = batch_noise(9, 4, n_paths, 8, 2)
        assert block.shape == (n_paths, 8, 2)
        for p in range(n_paths):
            assert np.array_equal(block[p], path_noise(9, 4 + p, 8, 2))

    def test_batch_is_step_major(self):
        block = batch_noise(9, 4, 65, 8, 2)
        assert not block.flags.c_contiguous
        assert all(block[:, k].flags.c_contiguous for k in range(8))

    # sha256 of batch_noise(seed, first_index, n_paths, n_steps, d) as
    # little-endian float64.  A mismatch means the noise stream changed:
    # every stored result moves, so bump artifact_version with it.
    GOLDEN = [
        ((0, 0, 4, 16, 1), "02badf2b81d9610808567b4cafb4b97fa1bbcac82acdad874304f01b395f56ed"),
        ((20240917, 123, 3, 10, 3), "c47c09044bcdb940f7bed6536a8059b5b3bd899bbce0a0d4038be6812f0d1782"),
        ((2**63, 7, 2, 12, 1), "80419fe1306c72ab18e818c13e1053916fda5c4fba2d2825143dd8f6c01132d2"),
        # seed above 2**63 and path indices wrapping past 2**64
        ((2**64 - 5, 2**64 - 2, 5, 8, 2), "b1f5e9d56d12ddfbea1f554c519cdbadce2af27b382c1f5ffd032a5adec0ccbc"),
    ]

    @pytest.mark.parametrize("args,digest", GOLDEN)
    def test_golden_stream(self, args, digest):
        seed, first, n_paths, n_steps, d = args
        block = batch_noise(*args)
        assert block.shape == (n_paths, n_steps, d)
        raw = np.ascontiguousarray(block, dtype="<f8").tobytes()
        assert hashlib.sha256(raw).hexdigest() == digest
        for p in range(n_paths):
            assert np.array_equal(block[p], path_noise(seed, first + p, n_steps, d))

    def test_index_wraps_modulo_2_64(self):
        block = batch_noise(3, 2**64 - 1, 2, 6, 1)
        assert np.array_equal(block[1], path_noise(3, 0, 6, 1))

    # n_steps * d not a multiple of Philox's 4-word output: paths end with
    # leftover buffer words, and over 1000 paths many take the ziggurat's
    # slow path (extra words), so every path must start from a reset buffer
    @pytest.mark.parametrize("n_steps,d", [(7, 1), (5, 3)])
    def test_batch_matches_per_path_with_leftover_words(self, n_steps, d):
        block = batch_noise(17, 5, 1000, n_steps, d)
        for p in range(1000):
            assert _same_bits(block[p], path_noise(17, 5 + p, n_steps, d)), p

    def test_largest_seed(self):
        seed = 2**64 - 1
        block = batch_noise(seed, 2**64 - 3, 70, 9, 3)
        for p in range(70):
            assert _same_bits(block[p], path_noise(seed, 2**64 - 3 + p, 9, 3)), p

    def test_no_paths(self):
        block = batch_noise(3, 0, 0, 7, 2)
        assert block.shape == (0, 7, 2)


class TestSimulate:
    def test_zero_variance_rejected_at_band(self):
        with pytest.raises(ValueError):
            SigmaBand(0.0, 0.0)

    def test_constant_hi_qvar_exact(self):
        # binary-friendly grid: every increment and partial sum is exact
        grid = TimeGrid(1.0, 64)
        p = one_path(ConstantPolicy(value=BAND.sigma2_hi), BAND, grid, seed=0)
        assert np.array_equal(p.qv_scalar()[0], BAND.sigma2_hi * p.t)

    def test_qvar_increments_are_trace_times_dt(self):
        grid = TimeGrid(1.0, 128)
        p = one_path(threshold_bangbang(BAND, 0.0), BAND, grid, seed=2)
        rebuilt = np.concatenate([[0.0], np.cumsum(p.trace[0, :, 0, 0] * grid.dt)])
        assert np.array_equal(p.qv_scalar()[0], rebuilt)

    def test_bangbang_trace_follows_rule(self):
        grid = TimeGrid(1.0, 200)
        p = one_path(threshold_bangbang(BAND, 0.0), BAND, grid, seed=3)
        for k in range(grid.n_steps):
            want = BAND.sigma2_hi if p.b[0, k, 0] >= 0.0 else BAND.sigma2_lo
            assert p.choices[0, k] == want
        assert set(np.unique(p.choices)) <= {BAND.sigma2_lo, BAND.sigma2_hi}

    def test_reproducible(self):
        grid = TimeGrid(1.0, 50)
        a = simulate_batch(threshold_bangbang(BAND, 0.3), BAND, grid, seed=11, n_paths=4)
        b = simulate_batch(threshold_bangbang(BAND, 0.3), BAND, grid, seed=11, n_paths=4)
        assert np.array_equal(a.b, b.b)
        assert np.array_equal(a.qvar, b.qvar)
        assert np.array_equal(a.noise, b.noise)

    def test_adaptedness(self):
        # changing the noise at step k leaves B values at steps <= k alone
        grid = TimeGrid(1.0, 40)
        noise = batch_noise(1, 0, 2, grid.n_steps, 1)
        base = assemble(threshold_bangbang(BAND, 0.0), BAND, grid, noise)
        k = 17
        tweaked = noise.copy()
        tweaked[:, k, :] += 3.0
        other = assemble(threshold_bangbang(BAND, 0.0), BAND, grid, tweaked)
        assert np.array_equal(base.b[:, : k + 1], other.b[:, : k + 1])
        assert not np.array_equal(base.b[:, k + 1], other.b[:, k + 1])

    def test_constant_out_of_band_rejected(self):
        grid = TimeGrid(1.0, 10)
        with pytest.raises(PolicyError, match="variance choice outside the band at step 0"):
            one_path(ConstantPolicy(value=3.0), BAND, grid, seed=0)

    def test_bangbang_interior_choice_rejected(self):
        grid = TimeGrid(1.0, 10)
        bad = BangBangPolicy(lambda k, b, aux: 1.5, name="offband")
        with pytest.raises(PolicyError, match="bang-bang choice off the extremes at step 0"):
            one_path(bad, BAND, grid, seed=0)

    def test_piecewise_schedule(self):
        grid = TimeGrid(1.0, 10)
        pol = PiecewiseConstantPolicy([(0, 1.0), (4, 2.0)])
        p = one_path(pol, BAND, grid, seed=0)
        assert np.array_equal(p.choices[0], [1, 1, 1, 1, 2, 2, 2, 2, 2, 2])
        with pytest.raises(ValueError):
            PiecewiseConstantPolicy([(2, 1.0)])

    def test_interior_constant_allowed(self):
        grid = TimeGrid(1.0, 16)
        p = one_path(ConstantPolicy(value=1.5), BAND, grid, seed=0)
        assert np.all(p.choices == 1.5)

    def test_covariance_set_simulation(self):
        members = [np.diag([1.0, 0.5]), np.array([[1.0, 0.3], [0.3, 1.0]])]
        cs = CovarianceSet(2, members)
        grid = TimeGrid(1.0, 32)
        rule = BangBangPolicy(lambda k, b, aux: (b[:, 0] >= 0.0).astype(int), name="sign(b1)")
        p = one_path(rule, cs, grid, seed=4)
        assert p.d == 2
        for k in range(grid.n_steps):
            assert np.array_equal(p.trace[0, k], members[int(p.choices[0, k])])
        with pytest.raises(PolicyError, match="member index out of range at step 0"):
            one_path(ConstantPolicy(index=5), cs, grid, seed=0)

    @pytest.mark.parametrize("policy,k", [
        (ConstantPolicy(value=1.7), 0),
        (ConstantPolicy(value=np.nan), 0),
        (ConstantPolicy(value=-np.inf), 0),
        (PiecewiseConstantPolicy([(0, 1.9), (2, 0.2)]), 0),
        (PiecewiseConstantPolicy([(0, 1), (3, np.array([0.0, 0.5]))]), 3),
        (BangBangPolicy(lambda k, b, aux: np.full(len(b), 1.0 if k < 2 else 0.5), name="frac"), 2),
    ], ids=["constant", "nan", "inf", "piecewise", "per_path", "feedback"])
    def test_fractional_member_index_rejected(self, policy, k):
        cs = CovarianceSet(1, [np.array([[1.0]]), np.array([[2.0]])])
        with pytest.raises(PolicyError, match=f"^member index not an integer at step {k}$"):
            simulate_batch(policy, cs, TimeGrid(1.0, 6), seed=0, n_paths=2)

    def test_integral_float_member_index_allowed(self):
        cs = CovarianceSet(1, [np.array([[1.0]]), np.array([[2.0]])])
        grid = TimeGrid(1.0, 6)
        got = simulate_batch(ConstantPolicy(value=1.0), cs, grid, seed=0, n_paths=3)
        want = simulate_batch(ConstantPolicy(index=1), cs, grid, seed=0, n_paths=3)
        assert _same_bits(got.b, want.b) and _same_bits(got.choices, want.choices)

    def test_aux_state_feedback(self):
        # rule sees an auxiliary running maximum of |B| maintained by the policy
        def aux0(n_paths):
            return np.zeros(n_paths)

        def rule(k, b, aux):
            return np.where(aux >= 0.5, BAND.sigma2_lo, BAND.sigma2_hi)

        def aux_update(k, b_next, aux):
            return np.maximum(aux, np.abs(b_next[:, 0]))

        grid = TimeGrid(1.0, 100)
        pol = BangBangPolicy(rule, name="capped", aux0=aux0, aux_update=aux_update)
        p = one_path(pol, BAND, grid, seed=5)
        run_abs = np.maximum.accumulate(np.abs(p.b[0, :, 0]))
        for k in range(1, grid.n_steps):
            want = BAND.sigma2_lo if run_abs[k] >= 0.5 else BAND.sigma2_hi
            assert p.choices[0, k] == want


def reference_assemble(policy, unc, grid, noise):
    """The plain stepwise recursion: (b, qvar, trace, choices)."""
    n_paths, n_steps, d = noise.shape
    dt = grid.dt
    b = np.zeros((n_paths, n_steps + 1, d))
    choices = np.empty((n_paths, n_steps))
    trace = np.empty((n_paths, n_steps, d, d))
    aux = policy.init_aux(n_paths)
    if isinstance(unc, SigmaBand):
        lo, hi = unc.sigma2_lo, unc.sigma2_hi
        for k in range(n_steps):
            c = np.broadcast_to(np.asarray(policy.choose(k, b[:, k, :], aux), dtype=float), (n_paths,))
            if isinstance(policy, BangBangPolicy):
                if not np.all((c == lo) | (c == hi)):
                    raise PolicyError(f"bang-bang choice off the extremes at step {k}")
            elif not np.all(unc.contains(c)):
                raise PolicyError(f"variance choice outside the band at step {k}")
            choices[:, k] = c
            b[:, k + 1, 0] = b[:, k, 0] + np.sqrt(c * dt) * noise[:, k, 0]
            aux = policy.update_aux(k, b[:, k + 1, :], aux)
        trace[:, :, 0, 0] = choices
    else:
        members = unc.member_stack()
        factors = np.stack([_sqrt_factor(m) for m in unc.members])
        for k in range(n_steps):
            raw = np.broadcast_to(np.asarray(policy.choose(k, b[:, k, :], aux)), (n_paths,))
            if not (np.all(np.isfinite(raw)) and np.all(raw.astype(int) == raw)):
                raise PolicyError(f"member index not an integer at step {k}")
            idx = raw.astype(int)
            if np.any((idx < 0) | (idx >= len(unc))):
                raise PolicyError(f"member index out of range at step {k}")
            choices[:, k] = idx
            b[:, k + 1, :] = b[:, k, :] + np.sqrt(dt) * np.einsum("pij,pj->pi", factors[idx], noise[:, k, :])
            aux = policy.update_aux(k, b[:, k + 1, :], aux)
        trace[:] = members[choices.astype(int)]
    qvar = np.zeros((n_paths, n_steps + 1, d, d))
    np.cumsum(trace * dt, axis=1, out=qvar[:, 1:])
    return b, qvar, trace, choices


class SignSwitchConstant(ConstantPolicy):
    """A ConstantPolicy whose choose reads B: assemble must run it stepwise."""

    def choose(self, k, b, aux):
        return np.where(b[:, 0] >= 0.0, self.value, BAND.sigma2_lo)


class FreshFloatConstant(ConstantPolicy):
    """Returns a new float object, equal to the value, at every step."""

    def choose(self, k, b, aux):
        return float(repr(self.value))


def _in_place_feedback(n_paths):
    # one array object, rewritten in place with a feedback choice every step
    buf = np.empty(n_paths)

    def rule(k, b, aux):
        buf[:] = np.where(b[:, 0] >= 0.0, BAND.sigma2_hi, BAND.sigma2_lo)
        return buf

    return BangBangPolicy(rule, name="in-place")


def _running_max_policy():
    def rule(k, b, aux):
        return np.where(aux >= 0.5, BAND.sigma2_lo, BAND.sigma2_hi)

    def aux_update(k, b_next, aux):
        return np.maximum(aux, np.abs(b_next[:, 0]))

    return BangBangPolicy(rule, name="capped", aux0=np.zeros, aux_update=aux_update)


def _per_path_schedule(n_paths):
    # from step 2 on, each path holds its own variance
    return PiecewiseConstantPolicy([(0, 1.5), (2, np.linspace(1.0, 2.0, n_paths))])


CSET = CovarianceSet(2, [np.diag([1.0, 0.5]), np.array([[1.0, 0.3], [0.3, 1.0]])])
# the last member is singular, so its factor comes from the eigen fallback
CSET3 = CovarianceSet(3, [np.eye(3), np.array([[2.0, 0.4, 0.1], [0.4, 1.0, 0.2], [0.1, 0.2, 0.5]]),
                          np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 0.3]])])


def _per_path_members(n_paths):
    # from step 3 on, each path holds its own member
    return PiecewiseConstantPolicy([(0, 1), (3, np.arange(n_paths) % 2)])


def _sign_b1_members(k, b, aux):
    return np.where(b[:, 0] >= 0.0, 2, 1)


# name -> (policy factory taking n_paths, uncertainty set)
EQUIVALENCE_CASES = {
    "constant": (lambda n: ConstantPolicy(value=1.5), BAND),
    "piecewise": (lambda n: PiecewiseConstantPolicy([(0, 1.0), (3, 2.0), (5, 1.25)]), BAND),
    "piecewise_per_path": (_per_path_schedule, BAND),
    "fresh_equal_float": (lambda n: FreshFloatConstant(value=1.25), BAND),
    "feedback_in_place": (_in_place_feedback, BAND),
    "threshold": (lambda n: threshold_bangbang(BAND, 0.1), BAND),
    "aux": (lambda n: _running_max_policy(), BAND),
    "subclass": (lambda n: SignSwitchConstant(value=2.0), BAND),
    "covariance_set": (
        lambda n: BangBangPolicy(lambda k, b, aux: (b[:, 0] >= 0.0).astype(int), name="sign(b1)"),
        CSET),
    "set_constant": (lambda n: ConstantPolicy(index=1), CSET),
    "set_piecewise": (lambda n: PiecewiseConstantPolicy([(0, 1), (3, 0), (5, 1)]), CSET),
    "set_piecewise_per_path": (_per_path_members, CSET),
    "set_3d": (lambda n: PiecewiseConstantPolicy([(0, 2), (4, 0), (7, 1)]), CSET3),
    "set_3d_feedback": (lambda n: BangBangPolicy(_sign_b1_members, name="sign(b1)"), CSET3),
    # a 1-d set: trace holds the members, not the indices
    "set_1d": (lambda n: PiecewiseConstantPolicy([(0, 1), (2, 0)]),
               CovarianceSet(1, [np.array([[0.5]]), np.array([[3.0]])])),
}

# zeros of both signs and subnormals, written over part of the noise block
SPECIAL_NOISE = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-320])


def _same_bits(x, y):
    return (x.shape == y.shape and np.array_equal(x, y)
            and np.ascontiguousarray(x).tobytes() == np.ascontiguousarray(y).tobytes())


class TestAssembleEquivalence:
    """assemble gives the stepwise recursion's bits, fast paths included."""

    @pytest.mark.parametrize("case", sorted(EQUIVALENCE_CASES))
    @given(seed=st.integers(0, 2**64 - 1), n_paths=st.integers(0, 40), n_steps=st.integers(1, 30),
           special=st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_matches_stepwise_loop(self, case, seed, n_paths, n_steps, special):
        make, unc = EQUIVALENCE_CASES[case]
        grid = TimeGrid(0.7, n_steps)
        noise = batch_noise(seed, 0, n_paths, n_steps, unc.dim)
        if special:
            picks = np.random.default_rng(seed % 2**32).integers(-len(SPECIAL_NOISE),
                                                                 len(SPECIAL_NOISE), noise.shape)
            noise = np.where(picks >= 0, SPECIAL_NOISE[np.maximum(picks, 0)], noise)
        got = assemble(make(n_paths), unc, grid, noise)
        want = reference_assemble(make(n_paths), unc, grid, noise)
        for name, ref in zip(("b", "qvar", "trace", "choices"), want):
            assert _same_bits(getattr(got, name), ref), name

    @pytest.mark.parametrize("policy,unc", [
        (PiecewiseConstantPolicy([(0, 1.5), (4, 2.5)]), BAND),
        (ConstantPolicy(value=0.5), BAND),
        (BangBangPolicy(lambda k, b, aux: np.where(b[:, 0] > 0.2, 1.5, 2.0), name="offband"), BAND),
        (SignSwitchConstant(value=3.0), BAND),
        (PiecewiseConstantPolicy([(0, 1.5), (5, np.array([1.5, 2.5] * 8))]), BAND),
        (PiecewiseConstantPolicy([(0, 1), (5, 0), (7, 2)]), CSET),
        (BangBangPolicy(lambda k, b, aux: 0 if k < 6 else np.where(b[:, 0] > 0.0, 1, -1),
                        name="sign(b1) from step 6"), CSET),
        (PiecewiseConstantPolicy([(0, 1), (4, 0.5)]), CSET),
        (BangBangPolicy(lambda k, b, aux: 1 if k < 7 else np.where(b[:, 0] > 0.0, 1, 9.5),
                        name="sign(b1) from step 7"), CSET),
    ], ids=["piecewise", "constant", "bangbang", "subclass", "per_path", "set_piecewise",
            "set_feedback", "set_fraction", "set_fraction_out_of_range"])
    def test_same_policy_error(self, policy, unc):
        grid = TimeGrid(1.0, 12)
        noise = batch_noise(4, 0, 16, grid.n_steps, unc.dim)
        with pytest.raises(PolicyError) as want:
            reference_assemble(policy, unc, grid, noise)
        with pytest.raises(PolicyError) as got:
            assemble(policy, unc, grid, noise)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("k", [1, 5, 11])
    def test_piecewise_leaving_band_names_its_step(self, k):
        # a value that holds is checked on its first step only
        policy = PiecewiseConstantPolicy([(0, 1.5), (k, 2.5), (k + 1, 1.5)])
        with pytest.raises(PolicyError, match=f"^variance choice outside the band at step {k}$"):
            simulate_batch(policy, BAND, TimeGrid(1.0, 12), seed=0, n_paths=3)

    def test_reused_feedback_array_is_checked_every_step(self):
        # a feedback rule may return the same array object, changed in place
        choices = np.full(4, BAND.sigma2_lo)

        def rule(k, b, aux):
            if k == 6:
                choices[:] = 1.5
            return choices

        with pytest.raises(PolicyError, match="^bang-bang choice off the extremes at step 6$"):
            simulate_batch(BangBangPolicy(rule, name="buffer"), BAND, TimeGrid(1.0, 12), seed=0,
                           n_paths=4)

    @pytest.mark.parametrize("policy,unc", [(ConstantPolicy(value=3.0), BAND),
                                            (threshold_bangbang(BAND, 0.0), BAND),
                                            (ConstantPolicy(index=5), CSET),
                                            (ConstantPolicy(value=1.7), CSET)],
                             ids=["off_band_constant", "feedback", "set_out_of_range",
                                  "set_fraction"])
    def test_empty_batch(self, policy, unc):
        # no path takes a choice, so none is checked
        grid = TimeGrid(1.0, 6)
        batch = assemble(policy, unc, grid, batch_noise(0, 0, 0, grid.n_steps, unc.dim))
        d = unc.dim
        assert len(batch) == 0
        assert batch.b.shape == (0, 7, d) and batch.qvar.shape == (0, 7, d, d)
        assert batch.trace.shape == (0, 6, d, d) and batch.choices.shape == (0, 6)

    def test_arrays_are_step_major_views(self):
        grid = TimeGrid(1.0, 8)
        for policy, unc in ((ConstantPolicy(value=1.5), BAND), (ConstantPolicy(index=1), CSET)):
            batch = simulate_batch(policy, unc, grid, seed=0, n_paths=5)
            for name in ("b", "qvar", "trace", "choices", "noise"):
                arr = getattr(batch, name)
                assert not arr.flags.c_contiguous, name
                assert arr[:, 3].flags.c_contiguous, name

    def test_d1_trace_is_read_only_view(self):
        batch = simulate_batch(ConstantPolicy(value=1.5), BAND, TimeGrid(1.0, 8), seed=0, n_paths=3)
        assert np.shares_memory(batch.trace, batch.choices)
        assert not batch.trace.flags.writeable


def reference_batch(policy, unc, grid, noise, seed=0, first_index=0):
    """assemble's signature and result type, built from reference_assemble's
    C-ordered arrays."""
    b, qvar, trace, choices = reference_assemble(policy, unc, grid, noise)
    return PathBatch(grid, unc, b, qvar, trace, choices, np.ascontiguousarray(noise), seed,
                     first_index, policy.describe())


class TestStepMajorEstimates:
    """Above numpy's 8192-element reduction buffer, where a strided and a
    contiguous reduction can round differently, estimates from step-major
    batches keep the bits of estimates from C-ordered ones."""

    @staticmethod
    def both(monkeypatch, run):
        got = run()
        with monkeypatch.context() as m:
            m.setattr(upper_expectation, "assemble", reference_batch)
            want = run()
        return got, want

    @staticmethod
    def payoff(batch):
        # terminal values as raw views, a running max and a qvar functional
        return np.column_stack([batch.b[:, -1, 0], batch.b[:, -1, 0] ** 2,
                                np.max(np.abs(batch.b[:, :, 0]), axis=1),
                                np.exp(batch.b[:, 4, 0] - 0.5 * batch.qvar[:, 4, 0, 0])])

    @pytest.mark.parametrize("n_paths", [10_000, 25_000])
    @pytest.mark.parametrize("family", [PolicyFamily.constants_only(3),
                                        PolicyFamily.bangbang_threshold([-0.5, 0.0, 0.5])],
                             ids=["open_loop", "feedback"])
    def test_estimate_upper(self, monkeypatch, family, n_paths):
        grid = TimeGrid(1.0, 10)

        def run():
            reports = estimate_upper(self.payoff, family, BAND, grid, n_paths, seed=3)
            single = estimate_upper(lambda batch: batch.b[:, -1, 0], family, BAND, grid,
                                    n_paths, seed=3)
            return [r.to_json() for r in reports + [single]]

        got, want = self.both(monkeypatch, run)
        assert got == want

    @pytest.mark.parametrize("n_paths", [10_000, 25_000])
    def test_closed_form_geometric(self, monkeypatch, n_paths):
        model = GeometricModel(alpha=-1.0, beta=0.2, gamma=0.5, x0=1.0)
        grid = TimeGrid(1.0, 10)
        noise = batch_noise(5, 0, n_paths, grid.n_steps, 1)
        for policy in (ConstantPolicy(value=1.5), threshold_bangbang(BAND, 0.0)):
            got, want = (closed_form_geometric(model.alpha, model.beta, model.gamma, model.x0,
                                               build(policy, BAND, grid, noise))
                         for build in (assemble, reference_batch))
            assert _same_bits(got.x, want.x)
        cfg = ExperimentConfig(system=model, unc=BAND, p=2.0, T=1.0, dt=0.1,
                               family=PolicyFamily.extreme_constants(), n_paths=n_paths, seed=5)
        got, want = self.both(monkeypatch, lambda: moment_decay_curve(cfg).rows)
        assert repr(got) == repr(want)


class TestQvarBounds:
    def test_constant_policies_tight(self):
        grid = TimeGrid(1.0, 64)
        for value in (BAND.sigma2_lo, BAND.sigma2_hi):
            p = one_path(ConstantPolicy(value=value), BAND, grid, seed=0)
            v = qvar_bounds_check_batch(p, BAND)[0]
            assert v <= 1e-12
            assert v == pytest.approx(0.0, abs=1e-12)  # one side is an equality

    def test_bangbang_long_path(self):
        grid = TimeGrid(10.0, 10_000)
        p = one_path(threshold_bangbang(BAND, 0.0), BAND, grid, seed=1)
        assert qvar_bounds_check_batch(p, BAND)[0] <= 1e-12

    def test_against_bruteforce_oracle(self):
        grid = TimeGrid(1.0, 300)
        p = one_path(threshold_bangbang(BAND, -0.2), BAND, grid, seed=6)
        slow = brute_force_qvar_violation(p.qv_scalar()[0], p.t, BAND.sigma2_lo, BAND.sigma2_hi)
        assert _violation(p.qv_scalar()[0], p.t) == pytest.approx(slow, abs=1e-14)
        assert qvar_bounds_check_batch(p, BAND)[0] == pytest.approx(slow, abs=1e-12)
        # also on a synthetic violating series: positive violations agree too
        qv = p.qv_scalar()[0].copy()
        qv[150:] += 0.5
        fast2 = _violation(qv, p.t)
        slow2 = brute_force_qvar_violation(qv, p.t, BAND.sigma2_lo, BAND.sigma2_hi)
        assert fast2 > 0.1
        assert fast2 == pytest.approx(slow2, abs=1e-14)

    def test_dimension_guard(self):
        cs = CovarianceSet(2, [np.eye(2)])
        p = one_path(ConstantPolicy(index=0), cs, TimeGrid(1.0, 8), seed=0)
        with pytest.raises(UnsupportedDimensionError):
            qvar_bounds_check_batch(p, BAND)


def _violation(qv, t):
    """Worst two-sided bound violation over all grid pairs of a raw series.

    Subject to the rounding drift of comparing two running sums; the library
    checks the increments of simulated paths instead."""
    lo, hi = BAND.sigma2_lo, BAND.sigma2_hi
    return float(np.maximum(_gap_scan(np.diff(qv) - hi * np.diff(t)),
                            _gap_scan(lo * np.diff(t) - np.diff(qv))))


class TestCompensationCheck:
    def test_zero_eta(self):
        p = one_path(threshold_bangbang(BAND, 0.0), BAND, TimeGrid(1.0, 64), seed=0)
        assert qv_compensation_check_batch(p, 0.0, BAND)[0] == 0.0
        assert qv_compensation_check_batch(p, 0.0)[0] == 0.0  # set defaults from the batch

    def test_eta_one_matches_qvar_upper_bound(self):
        # M_t = <B>_t - sigma2_hi * t since 2 G(1) = sigma2_hi
        grid = TimeGrid(1.0, 128)
        p = one_path(threshold_bangbang(BAND, 0.0), BAND, grid, seed=1)
        m = qv_compensation_check_batch(p, 1.0, BAND)[0]
        expected = np.max(p.qv_scalar()[0] - BAND.sigma2_hi * p.t)
        assert m == pytest.approx(expected, abs=1e-12)
        assert m <= 1e-12

    def test_eta_minus_one_matches_lower_bound(self):
        grid = TimeGrid(1.0, 128)
        p = one_path(threshold_bangbang(BAND, 0.0), BAND, grid, seed=2)
        m = qv_compensation_check_batch(p, -1.0, BAND)[0]
        expected = np.max(-p.qv_scalar()[0] + BAND.sigma2_lo * p.t)
        assert m == pytest.approx(expected, abs=1e-12)
        assert m <= 1e-12

    def test_random_piecewise_eta_batch(self):
        grid = TimeGrid(1.0, 200)
        n_pairs = 500
        batch = simulate_batch(threshold_bangbang(BAND, 0.0), BAND, grid, seed=3, n_paths=n_pairs)
        rng = np.random.default_rng(0)
        etas = np.repeat(rng.uniform(-2, 2, size=(n_pairs, 20)), 10, axis=1)[..., None, None]
        stats = qv_compensation_check_batch(batch, etas)
        assert stats.shape == (n_pairs,)
        assert np.max(stats) <= 1e-10 * grid.n_steps

    def test_callable_eta(self):
        p = one_path(ConstantPolicy(value=2.0), BAND, TimeGrid(1.0, 16), seed=0)
        m = qv_compensation_check_batch(p, lambda k: np.array([[1.0]]), BAND)
        assert m.shape == (1,) and m[0] <= 1e-12


class TestRestrict:
    def test_coarse_view_is_consistent(self):
        from gcalc import restrict

        fine = simulate_batch(threshold_bangbang(BAND, 0.0), BAND, TimeGrid(1.0, 256),
                              seed=9, n_paths=16)
        coarse = restrict(fine, 8)
        assert coarse.grid.n_steps == 32
        assert np.array_equal(coarse.b, fine.b[:, ::8])
        assert np.array_equal(coarse.qvar, fine.qvar[:, ::8])
        # aggregated variances stay inside the band and the noise record
        # reproduces the coarse increments
        assert np.max(qvar_bounds_check_batch(coarse, BAND)) <= 1e-12
        rebuilt = coarse.noise[:, :, 0] * np.sqrt(np.diff(coarse.qvar[:, :, 0, 0], axis=1))
        assert np.allclose(np.diff(coarse.b, axis=1)[:, :, 0], rebuilt, atol=1e-14)

    def test_factor_must_divide(self):
        from gcalc import restrict

        fine = simulate_batch(ConstantPolicy(value=1.5), BAND, TimeGrid(1.0, 10), seed=0, n_paths=2)
        with pytest.raises(ValueError):
            restrict(fine, 3)
        assert restrict(fine, 1) is fine


def _path_csv(batch):
    """The CSV of a one-path batch, as gcalc simulate writes a path, less
    the path column: its table row under the table header."""
    header, table = batch.table()
    assert header[0] == "path" and np.all(table[..., 0] == batch.first_index)
    buf = io.StringIO()
    write_table(buf, header[1:], table[0, :, 1:])
    return buf.getvalue()


class TestExport:
    def test_csv_round_trip(self):
        p = one_path(threshold_bangbang(BAND, 0.0), BAND, TimeGrid(1.0, 8), seed=0)
        lines = _path_csv(p).strip().splitlines()
        assert lines[0] == "t,b_1,qvar_11,policy_choice"
        assert len(lines) == 10
        first = [float(v) for v in lines[1].split(",")]
        assert first[:3] == [0.0, 0.0, 0.0]


# ---------------------------------------------------------------------------
# a single path is a one-path batch
# ---------------------------------------------------------------------------


def _ref_path_csv(b, qvar, choices, t):
    """Reference: the per-path CSV writer of one path's (K+1, d) B,
    (K+1, d, d) qvar and (K,) choices, written column by column."""
    d = b.shape[-1]
    header = (["t"] + [f"b_{i + 1}" for i in range(d)]
              + [f"qvar_{i + 1}{j + 1}" for i in range(d) for j in range(d)] + ["policy_choice"])
    rows = np.column_stack([t, b.reshape(len(t), d), qvar.reshape(len(t), d * d),
                            np.append(choices, np.nan)])
    return ",".join(header) + "\n" + "".join(
        ",".join(f"{v:.17g}" for v in row) + "\n" for row in rows)


SINGLE_CASES = {
    "threshold": (lambda: threshold_bangbang(BAND, 0.1), BAND),
    "constant": (lambda: ConstantPolicy(value=1.5), BAND),
    "covariance_set": (
        lambda: BangBangPolicy(lambda k, b, aux: (b[:, 0] >= 0.0).astype(int), name="sign(b1)"),
        CSET),
}


class TestSinglePathIsBatchRow:
    @pytest.mark.parametrize("case", sorted(SINGLE_CASES))
    @given(seed=st.integers(0, 2**63 - 1), first=st.integers(0, 2**40), n_paths=st.integers(1, 12),
           data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_path_views_batch_row(self, case, seed, first, n_paths, data):
        # path first + i on its own is row i of the batch that starts at first
        make, unc = SINGLE_CASES[case]
        grid = TimeGrid(0.9, 14)
        i = data.draw(st.integers(0, n_paths - 1))
        batch = simulate_batch(make(), unc, grid, seed, n_paths, first_index=first)
        path = one_path(make(), unc, grid, seed, first + i)
        assert len(path) == 1 and path.first_index == first + i
        assert path.seed == seed and path.unc is unc
        for name in ("b", "qvar", "trace", "choices", "noise"):
            assert _same_bits(getattr(path, name)[0], getattr(batch, name)[i]), name
        if unc is BAND:
            assert _same_bits(path.qv_scalar()[0], batch.qv_scalar()[i])
            assert _same_bits(qvar_bounds_check_batch(path, BAND),
                              qvar_bounds_check_batch(batch, BAND)[i:i + 1])
        assert _path_csv(path) == _ref_path_csv(batch.b[i], batch.qvar[i], batch.choices[i],
                                                batch.t)

    @pytest.mark.parametrize("case", sorted(SINGLE_CASES))
    @given(seed=st.integers(0, 2**63 - 1), n_paths=st.integers(1, 12), data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_compensation_check_is_batch_row(self, case, seed, n_paths, data):
        # every eta form gives the bits of the explicit (P, K, d, d) stack,
        # and a one-path batch gives the bits of its row in a larger batch
        make, unc = SINGLE_CASES[case]
        grid = TimeGrid(0.9, 14)
        d = unc.dim
        i = data.draw(st.integers(0, n_paths - 1))
        batch = simulate_batch(make(), unc, grid, seed, n_paths)
        path = one_path(make(), unc, grid, seed, i)
        etas = np.random.default_rng(seed % 1000).uniform(-2, 2, size=(grid.n_steps, d, d))
        stack = np.broadcast_to(etas, (n_paths,) + etas.shape)
        want = qv_compensation_check_batch(batch, stack)
        for unc_arg in (None, unc):
            assert _same_bits(qv_compensation_check_batch(batch, etas, unc_arg), want)
            assert _same_bits(qv_compensation_check_batch(path, etas, unc_arg), want[i:i + 1])
        per_step = etas[:, 0, 0]
        want = qv_compensation_check_batch(
            batch, np.broadcast_to(per_step[:, None, None], (grid.n_steps, d, d)))
        for form in (per_step, lambda k: np.full((d, d), per_step[k])):
            assert _same_bits(qv_compensation_check_batch(batch, form), want)
            assert _same_bits(qv_compensation_check_batch(path, form), want[i:i + 1])
        assert _same_bits(qv_compensation_check_batch(batch, 0.75),
                          qv_compensation_check_batch(batch, np.full((grid.n_steps, d, d), 0.75)))

    def test_compensation_check_against_other_set(self):
        # against a narrower band than the path's own, M_t = <B>_t - 1.2 t
        # goes positive once the path has run at variance 2
        path = one_path(ConstantPolicy(value=2.0), BAND, TimeGrid(1.0, 32), seed=3)
        assert qv_compensation_check_batch(path, 1.0, SigmaBand(1.0, 1.2))[0] == pytest.approx(0.8)
        assert qv_compensation_check_batch(path, 1.0)[0] <= 1e-12
        assert path.unc is BAND

    def test_compensation_check_rejects_bad_eta(self):
        path = one_path(ConstantPolicy(index=0), CSET, TimeGrid(1.0, 8), seed=0)
        with pytest.raises(ValueError, match="non-finite"):
            qv_compensation_check_batch(path, lambda k: np.full((2, 2), np.inf if k == 3 else 1.0))
        with pytest.raises(ValueError, match="non-finite"):
            qv_compensation_check_batch(path, np.nan)
        with pytest.raises(ValueError, match="one 2x2 matrix per step and path"):
            qv_compensation_check_batch(path, np.ones((8, 3, 3)))

    def test_qvar_check_dimension_guard(self):
        path = one_path(ConstantPolicy(index=0), CSET, TimeGrid(1.0, 8), seed=0)
        with pytest.raises(UnsupportedDimensionError):
            path.qv_scalar()
