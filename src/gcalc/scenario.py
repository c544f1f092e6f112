"""Scenario-wise simulation of G-Brownian motion.

A path is classical Brownian motion whose per-step covariance gamma_k is
picked by an adapted volatility policy from the uncertainty set; the
quadratic variation accumulates gamma_k * dt exactly.  Noise is drawn from
a counter-based generator keyed by (seed, path index), so the normals for
path p never depend on batch size or the policy, which also gives common
random numbers across policies for free.  Paths come in a PathBatch; a
single path is a one-path batch, and simulate_batch(..., n_paths=1,
first_index=i) gives path i of any larger batch bit for bit.

Noise blocks and PathBatch arrays are step-major views: path-first
shapes over (K, P, ...) storage.  assemble builds every batch with one
step loop: a choice check and an increment rule per kind of set, and B and
qvar accumulated row by row.

Discrete integrals here and downstream are left-endpoint sums.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, integer
from .uncertainty import CovarianceSet, SigmaBand, g_value, require_band

_MASK64 = (1 << 64) - 1
_EIG_CLAMP = 1e-12
_NOISE_BLOCK = 64  # paths drawn per block in batch_noise


class PolicyError(ConfigError):
    """A policy produced a choice outside the uncertainty set; its field is
    "policy"."""


class UnsupportedDimensionError(ValueError):
    """Operation defined only for scalar (d = 1) paths."""


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, t_end] with n_steps steps."""

    t_end: float
    n_steps: int

    def __post_init__(self):
        if not (float(self.t_end) > 0.0):
            raise ConfigError(f"t_end must be > 0, got {self.t_end!r}", "t_end")
        object.__setattr__(self, "t_end", float(self.t_end))
        object.__setattr__(self, "n_steps", integer(self.n_steps, "n_steps", 1))

    @property
    def dt(self) -> float:
        return self.t_end / self.n_steps

    @property
    def t(self) -> np.ndarray:
        return np.linspace(0.0, self.t_end, self.n_steps + 1)

    def index_of(self, time: float) -> int:
        """Nearest grid index to the given time."""
        k = int(round(time / self.dt))
        return min(max(k, 0), self.n_steps)


class VolatilityPolicy:
    """Adapted covariance chooser.

    ``choose(k, b, aux)`` receives the step index, the current values
    B_k with shape (P, d), and an auxiliary state; it returns, per path,
    either a variance value (band scenarios, d = 1) or a member index
    (finite covariance sets).  Choices may depend only on (k, B_k, aux).
    """

    def init_aux(self, n_paths: int):
        return None

    def choose(self, k: int, b: np.ndarray, aux):
        raise NotImplementedError

    def update_aux(self, k: int, b_next: np.ndarray, aux):
        return aux

    def describe(self) -> str:
        return type(self).__name__

    def __repr__(self):
        return self.describe()


class ConstantPolicy(VolatilityPolicy):
    """Fixed variance value (band) or fixed member index (finite set); the
    index must be an integer >= 0."""

    def __init__(self, value=None, index=None):
        if (value is None) == (index is None):
            raise ValueError("give exactly one of value= or index=")
        self.value = None if value is None else float(value)
        self.index = None if index is None else integer(index, "index", 0)

    def choose(self, k, b, aux):
        return self.value if self.index is None else self.index

    def describe(self):
        if self.index is None:
            return f"const(sigma2={self.value:g})"
        return f"const(member={self.index})"


class PiecewiseConstantPolicy(VolatilityPolicy):
    """Deterministic schedule [(step, choice), ...]; each choice holds from
    its step until the next entry.  The first entry must cover step 0, and
    every step must be an integer >= 0."""

    def __init__(self, schedule):
        schedule = list(schedule)
        for i, entry in enumerate(schedule):
            if not isinstance(entry, (list, tuple)) or len(entry) != 2:
                raise ConfigError(f"schedule/{i} must be a (step, choice) pair", f"schedule/{i}")
        sched = sorted(((integer(k, f"schedule/{i}/0", 0), c) for i, (k, c) in enumerate(schedule)),
                       key=lambda entry: entry[0])
        if not sched or sched[0][0] != 0:
            raise ConfigError("schedule must start at step 0", "schedule")
        steps = [k for k, _ in sched]
        if len(set(steps)) != len(steps):
            raise ConfigError("duplicate step in schedule", "schedule")
        self.schedule = sched
        self._steps = np.array(steps)

    def choose(self, k, b, aux):
        i = int(np.searchsorted(self._steps, k, side="right")) - 1
        return self.schedule[i][1]

    def describe(self):
        parts = ",".join(f"{k}:{c}" for k, c in self.schedule)
        return f"piecewise({parts})"


class BangBangPolicy(VolatilityPolicy):
    """Feedback rule over the extreme members.

    ``rule(k, b, aux)`` must be deterministic and numpy-aware: b has shape
    (P, d) and the rule returns per-path choices (an array broadcasts, a
    scalar applies to every path).  Optional aux state evolves through
    ``aux_update(k, b_next, aux)`` starting from ``aux0``.
    """

    def __init__(self, rule, name="bangbang", aux0=None, aux_update=None):
        self.rule = rule
        self.name = name
        self.aux0 = aux0
        self.aux_update = aux_update

    def init_aux(self, n_paths):
        return None if self.aux0 is None else self.aux0(n_paths)

    def choose(self, k, b, aux):
        return self.rule(k, b, aux)

    def update_aux(self, k, b_next, aux):
        if self.aux_update is None:
            return aux
        return self.aux_update(k, b_next, aux)

    def describe(self):
        return self.name


def threshold_bangbang(band: SigmaBand, theta: float, hi_above: bool = True) -> BangBangPolicy:
    """d = 1 rule: take the upper extreme where B >= theta (or below it)."""
    band = require_band(band, "a threshold bang-bang policy")
    hi, lo = band.sigma2_hi, band.sigma2_lo
    up, down = (hi, lo) if hi_above else (lo, hi)

    def rule(k, b, aux):
        return np.where(b[:, 0] >= theta, up, down)

    side = "hi_above" if hi_above else "lo_above"
    return BangBangPolicy(rule, name=f"bangbang(theta={theta:g},{side})")


def path_noise(seed: int, path_index: int, n_steps: int, d: int) -> np.ndarray:
    """Standard normal draws for one path, shape (n_steps, d).

    Philox keyed by (seed, path_index): the draws for a path are a fixed
    function of that pair, and extending n_steps keeps the prefix intact.
    """
    key = ((int(seed) & _MASK64) << 64) | (int(path_index) & _MASK64)
    gen = np.random.Generator(np.random.Philox(key=key))
    return gen.standard_normal((n_steps, d))


def batch_noise(seed: int, first_index: int, n_paths: int, n_steps: int, d: int) -> np.ndarray:
    """Rows first_index .. first_index + n_paths - 1 of the noise stream,
    shape (n_paths, n_steps, d); row p equals path_noise(seed, first_index + p).
    It is a view of (n_steps, n_paths, d) storage: noise[:, k] is contiguous.

    One Philox and one Generator serve the whole block.  A freshly keyed
    Philox has counter 0, the given key and an empty output buffer, and a
    Generator keeps no state of its own, so writing exactly that state
    into the bit generator before each row reproduces a new
    Generator(Philox(key=...)) bit for bit, without the per-path
    construction cost (which dominates at the usual path lengths).  Paths
    are drawn into a small block, copied step-major while still in cache.

    Per path the loop costs little more than its two calls into the
    generator, so what surrounds them is kept small.  The state template
    holds Python ints in lists: the setter reads those word by word faster
    than numpy uint64 arrays, and a list item is cheaper to write than an
    array element.  Each path is drawn into a flat (n_steps * d,) row, the
    same values in the same order as an (n_steps, d) draw at a lower call
    cost; the block is viewed as (rows, n_steps, d) only for the step-major
    copy.
    """
    out = np.empty((n_steps, n_paths, d))
    block = np.empty((min(_NOISE_BLOCK, n_paths), n_steps * d))
    bitgen = np.random.Philox(key=0)
    gen = np.random.Generator(bitgen)
    # key words are little-endian: (path index, seed), as in path_noise
    key = [0, int(seed) & _MASK64]
    fresh = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": key},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    first_index = int(first_index)
    for start in range(0, n_paths, _NOISE_BLOCK):
        rows = block[:min(_NOISE_BLOCK, n_paths - start)]
        for p, row in enumerate(rows, start):
            key[0] = (first_index + p) & _MASK64
            bitgen.state = fresh
            gen.standard_normal(out=row)
        out[:, start:start + len(rows)] = rows.reshape(-1, n_steps, d).transpose(1, 0, 2)
    return out.transpose(1, 0, 2)


def _sqrt_factor(m: np.ndarray) -> np.ndarray:
    """Matrix square root L with L @ L.T = m; Cholesky, eigen fallback."""
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        w, v = np.linalg.eigh(m)
        w = np.where(w < _EIG_CLAMP, 0.0, w)
        return v * np.sqrt(w)


class PathBatch:
    """n_paths simulated under one policy with shared (seed, index) noise.

    From assemble the arrays are step-major views, not C-contiguous: b[:, k]
    is contiguous.  Elementwise results have the same bits as on a C-ordered
    copy; an axis sum of a 2-d slice (np.sum(b[:, :, 0], axis=1)) may not."""

    def __init__(self, grid, unc, b, qvar, trace, choices, noise, seed, first_index, policy_descriptor):
        self.grid = grid
        self.unc = unc
        self.b = b            # (P, K+1, d)
        self.qvar = qvar      # (P, K+1, d, d)
        self.trace = trace    # (P, K, d, d)
        self.choices = choices  # (P, K)
        self.noise = noise    # (P, K, d)
        self.seed = seed
        self.first_index = first_index
        self.policy_descriptor = policy_descriptor

    def __len__(self) -> int:
        return self.b.shape[0]

    @property
    def d(self) -> int:
        return self.b.shape[-1]

    @property
    def t(self) -> np.ndarray:
        return self.grid.t

    def qv_scalar(self) -> np.ndarray:
        if self.d != 1:
            raise UnsupportedDimensionError("scalar quadratic variation needs d = 1")
        return self.qvar[:, :, 0, 0]

    def table(self):
        """Column names and a (P, K+1, columns) array of path (the path
        index), t, b_1..b_d, qvar_11..qvar_dd and policy_choice (nan at the
        final time)."""
        n_paths, n_times, d = self.b.shape
        header = (["path", "t"] + [f"b_{i + 1}" for i in range(d)]
                  + [f"qvar_{i + 1}{j + 1}" for i in range(d) for j in range(d)]
                  + ["policy_choice"])
        table = np.empty((n_paths, n_times, len(header)))
        table[:, :, 0] = self.first_index + np.arange(n_paths)[:, None]
        table[:, :, 1] = self.t
        table[:, :, 2:2 + d] = self.b
        table[:, :, 2 + d:-1] = self.qvar.reshape(n_paths, n_times, d * d)
        table[:, :-1, -1] = self.choices
        table[:, -1, -1] = np.nan
        return header, table


_UNCHECKED = object()


def _choice(choice, k, unc, n_paths, bang):
    """Step-k choices (n_paths,), checked against the set: variances under
    a band, member indices under a covariance set.  The policy's value is
    checked before it is broadcast; an empty batch takes no choice, so it
    checks none.  A member index must be integral: a fractional or
    non-finite one is an error, not truncated."""
    if isinstance(unc, CovarianceSet):
        c = np.asarray(choice)
        if c.dtype.kind not in "biu":
            c = np.asarray(c, dtype=float)
            if n_paths and not np.all(np.isfinite(c) & (c == np.trunc(c))):
                raise PolicyError(f"member index not an integer at step {k}", "policy")
        c = c.astype(int)
        ok, what = np.all((c >= 0) & (c < len(unc))), "member index out of range"
    else:
        c = np.asarray(choice, dtype=float)
        if bang:
            ok = np.all((c == unc.sigma2_lo) | (c == unc.sigma2_hi))
            what = "bang-bang choice off the extremes"
        else:
            ok, what = np.all(unc.contains(c)), "variance choice outside the band"
    if c.shape != (n_paths,):
        c = np.broadcast_to(c, (n_paths,))
    if n_paths and not ok:
        raise PolicyError(f"{what} at step {k}", "policy")
    return c


def assemble(policy: VolatilityPolicy, unc, grid: TimeGrid, noise: np.ndarray,
             seed: int = 0, first_index: int = 0) -> PathBatch:
    """Build paths from an explicit noise block of shape (P, K, d).

    The step recursion is B_{k+1} = B_k + incr_k with incr_k = sqrt(c_k dt) Z_k
    under a SigmaBand (c_k the chosen variance) and sqrt(dt) L_k Z_k under a
    CovarianceSet (L_k L_k^T the chosen member); qvar accumulates
    gamma_k * dt (its first step is gamma_0 * dt itself, not 0 + gamma_0 * dt).
    B values up to step k depend only on noise before step k (adaptedness
    by construction).

    Every policy runs one step loop over step-major arrays, so each step
    reads and writes contiguous (P, ...) rows; the batch holds transposed
    views of them, and under a band ``trace`` is a read-only view of
    ``choices``.

    A checked choice keeps its increment scale with its row: sqrt(c dt)
    under a band, the gathered factors L_c under a covariance set.  While an
    open-loop policy returns the same scalar object, both are reused and a
    step only multiplies by the kept scale; a feedback choice is checked and
    scaled afresh every step.
    """
    band = isinstance(unc, SigmaBand)
    if not (band or isinstance(unc, CovarianceSet)):
        raise TypeError("unc must be a SigmaBand or CovarianceSet")
    d = unc.dim
    noise = np.asarray(noise, dtype=float)
    if noise.ndim != 3 or noise.shape[1] != grid.n_steps or noise.shape[2] != d:
        raise ValueError(f"noise must have shape (P, {grid.n_steps}, {d})")
    n_paths, n_steps, _ = noise.shape
    dt = grid.dt

    ck = np.empty((n_steps, n_paths))
    if band:
        tk = ck[:, :, None, None]

        def scale_of(c):
            return np.sqrt(c * dt)

        def increment(scale, z, out):
            np.multiply(scale, z[:, 0], out=out[:, 0])
    else:
        tk = np.empty((n_steps, n_paths, d, d))
        members = unc.member_stack()
        factors = np.stack([_sqrt_factor(m) for m in unc.members])
        sqdt = np.sqrt(dt)

        def scale_of(c):
            return factors[c]

        def increment(scale, z, out):
            np.einsum("pij,pj->pi", scale, z, out=out)
            np.multiply(sqdt, out, out=out)

    bang = isinstance(policy, BangBangPolicy)
    bk = np.zeros((n_steps + 1, n_paths, d))
    qk = np.zeros((n_steps + 1, n_paths, d, d))
    aux = policy.init_aux(n_paths)
    # the last scalar choice, whose checked row c and scale are reused while
    # the policy returns that same (immutable) object, as open-loop policies
    # do while a value holds; arrays may change in place, so they are
    # checked and scaled every step
    last = _UNCHECKED
    for k in range(n_steps):
        choice = policy.choose(k, bk[k], aux)
        if choice is not last:
            c = _choice(choice, k, unc, n_paths, bang)
            scale = scale_of(c)
            last = choice if isinstance(choice, (int, float, np.generic)) else _UNCHECKED
        ck[k] = c
        if not band:
            tk[k] = members[c]
        increment(scale, noise[:, k], bk[k + 1])
        np.add(bk[k], bk[k + 1], out=bk[k + 1])
        np.multiply(tk[k], dt, out=qk[k + 1])
        if k:
            np.add(qk[k], qk[k + 1], out=qk[k + 1])
        aux = policy.update_aux(k, bk[k + 1], aux)

    trace = tk.transpose(1, 0, 2, 3)
    if band:
        trace.flags.writeable = False
    return PathBatch(grid, unc, bk.transpose(1, 0, 2), qk.transpose(1, 0, 2, 3), trace, ck.T,
                     noise, seed, first_index, policy.describe())


def simulate_batch(policy, unc, grid, seed, n_paths, first_index=0) -> PathBatch:
    n_paths = integer(n_paths, "n_paths", 0)
    noise = batch_noise(seed, first_index, n_paths, grid.n_steps, unc.dim)
    return assemble(policy, unc, grid, noise, seed=seed, first_index=first_index)


def restrict(batch: PathBatch, factor: int) -> PathBatch:
    """The same paths viewed on a grid coarsened by an integer factor.

    B and qvar are subsampled; each coarse step's covariance is the average
    of the fine-step choices (still inside the band/convex hull), so the
    result is a valid path batch of the same model at lower resolution.
    Useful for strong-convergence measurements with shared randomness.
    """
    factor = integer(factor, "factor", 1)
    if batch.grid.n_steps % factor != 0:
        raise ConfigError("factor must divide n_steps", "factor")
    if factor == 1:
        return batch
    grid = TimeGrid(batch.grid.t_end, batch.grid.n_steps // factor)
    b = batch.b[:, ::factor]
    qvar = batch.qvar[:, ::factor]
    trace = np.diff(qvar, axis=1) / grid.dt
    choices = trace[:, :, 0, 0] if batch.d == 1 else np.full(trace.shape[:2], np.nan)
    # back out the standard normals the coarse increments imply: conditionally
    # on the volatility record, dB over a coarse step is centred Gaussian with
    # covariance equal to the aggregated quadratic variation
    db = np.diff(b, axis=1)
    if batch.d == 1:
        dqv = np.diff(qvar[:, :, 0, 0], axis=1)
        with np.errstate(invalid="ignore", divide="ignore"):
            noise = np.where(dqv > 0, db[:, :, 0] / np.sqrt(dqv), 0.0)[:, :, None]
    else:
        factors = np.linalg.cholesky(trace * grid.dt)
        noise = np.linalg.solve(factors, db[..., None])[..., 0]
    return PathBatch(grid, batch.unc, b, qvar, trace, choices, noise, batch.seed,
                     batch.first_index, f"{batch.policy_descriptor}/restricted x{factor}")


def _gap_scan(increments):
    """max over pairs i <= j of sum(increments[i:j]): prefix-min scan, O(n)."""
    s = np.zeros(increments.shape[:-1] + (increments.shape[-1] + 1,))
    np.cumsum(increments, axis=-1, out=s[..., 1:])
    return np.max(s - np.minimum.accumulate(s, axis=-1), axis=-1)


def _trace_violation(trace_scalar, dt, lo, hi):
    # per-step violations (sigma_k^2 - hi) dt and (lo - sigma_k^2) dt are
    # exactly nonpositive in floats, so the pair scan cannot drift upward
    up = trace_scalar * dt - hi * dt
    down = lo * dt - trace_scalar * dt
    return np.maximum(_gap_scan(up), _gap_scan(down))


def qvar_bounds_check_batch(batch: PathBatch, band: SigmaBand) -> np.ndarray:
    """Per-path max signed violation of lo*(t2-t1) <= <B>(t2)-<B>(t1) <= hi*(t2-t1)
    over all grid pairs t1 <= t2.

    Evaluated on the quadratic-variation increments gamma_k dt whose partial
    sums are the stored qvar; nonpositive on any simulated path."""
    if batch.d != 1:
        raise UnsupportedDimensionError("qvar bounds are defined for d = 1")
    return _trace_violation(batch.trace[:, :, 0, 0], batch.grid.dt,
                            band.sigma2_lo, band.sigma2_hi)


def _m_running(eta, dqv, dt, unc):
    # increments tr(eta_k dqv_k) - 2 G(eta_k) dt, left-endpoint sums
    traces = np.einsum("...ij,...ij->...", eta, dqv)
    incr = traces - 2.0 * np.asarray(g_value(unc, eta)) * dt
    m = np.zeros(incr.shape[:-1] + (incr.shape[-1] + 1,))
    np.cumsum(incr, axis=-1, out=m[..., 1:])
    return m


def qv_compensation_check_batch(batch: PathBatch, eta, unc=None) -> np.ndarray:
    """Per-path max over grid times of M_t = sum tr(eta dqv) - sum 2 G(eta) dt,
    the quadratic-variation integral minus its sublinear compensator.

    Nonpositive up to rounding for every scenario path, because each
    increment satisfies tr(eta gamma) <= 2 G(eta) with gamma in the set.
    ``eta`` is a scalar, a per-step series, a (K, d, d) stack shared by all
    paths, a (P, K, d, d) stack or a callable of the step index; it is
    symmetrised.  ``unc`` defaults to the set the batch was simulated under.
    """
    n_steps, d = batch.grid.n_steps, batch.d
    if callable(eta):
        eta = np.stack([np.asarray(eta(k), dtype=float).reshape(d, d) for k in range(n_steps)])
    eta = np.asarray(eta, dtype=float)
    if eta.ndim < 2:
        eta = np.broadcast_to(eta.reshape(-1, 1, 1), (n_steps, d, d))
    if eta.ndim == 3:
        eta = np.broadcast_to(eta, (len(batch),) + eta.shape)
    if eta.shape != (len(batch), n_steps, d, d):
        raise ValueError(f"eta must give one {d}x{d} matrix per step and path")
    if not np.all(np.isfinite(eta)):
        raise ValueError("eta evaluated to a non-finite matrix")
    eta = 0.5 * (eta + np.swapaxes(eta, -1, -2))
    dqv = np.diff(batch.qvar, axis=1)
    unc = batch.unc if unc is None else unc
    return np.max(_m_running(eta, dqv, batch.grid.dt, unc), axis=-1)
