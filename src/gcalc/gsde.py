"""Pathwise Euler integration of dX = f dt + h d<B> + g dB with radial
truncation of locally Lipschitz coefficients and exit-time localization.

Localization integrates the truncated system once, at the schedule's
largest radius R, and reads each path's settling radius off the running
maximum of |X|: a path settles at the first radius N0 it never reaches.
The clamp at R >= N0 is then never active on it, and an inactive clamp
leaves a row's bits alone (it returns the state itself when no row is
beyond the radius and multiplies the rows inside by exactly 1.0
otherwise), so the R-trajectory is bitwise the N0-trajectory.  For any
r < R the r- and R-trajectories agree up to and including the first step
with |X| >= r, so whether and when a path exits r is the same on both.
A path that reaches R exhausts the schedule.
Exit detection uses grid values only, a discretization bias that shrinks
with dt.

The one Euler pass gives everything localization reads.  The clamp
computes each step's norms by np.linalg.norm's own arithmetic, and under a
radius the pass keeps their running maximum step by step (np.maximum, as
np.maximum.accumulate applies it), ending with the final state's norm; the
solution is seeded with it.  Unclamped solutions compute it from the
states when first read.

The Euler step advances a contiguous (P, n) working state, which is
copied into the solution array after each step, and evaluates f, h and g
through their compiled expression tables.  A drift table whose entries
are all the number +0.0 (as in oscillators driven through d<B>) is not
evaluated: the step adds the scalar 0.0, which gives the same bits as
adding 0.0 * dt.  A table free of variables is filled once per solve.
For d = 1 the h d<B> and g dB terms are products, h q + 0.0 and g z + 0.0:
einsum sums its one term into a zeroed output, so adding +0.0 gives its
bits (+0.0 where the bare product is -0.0).  d >= 2 contracts with einsum.

Solvers take a PathBatch and return a SolutionBatch; a single path is a
one-path batch.  integrate_batch and solve_localized_batch record
non-finite states per row in diagnostics["blowup_steps"], while integrate
and solve_localized raise BlowUpError for the lowest such row.  One flat
isfinite screen of the whole solution runs first, and the per-row scan
only when it fails.  A finite state whose norm overflows is no blow-up.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from . import expr as expr_mod
from .errors import ConfigError, integer
from .scenario import PathBatch, TimeGrid
from .uncertainty import load_uncertainty
from .upper_expectation import evaluate_family, family_sup


class BlowUpError(RuntimeError):
    def __init__(self, step: int, path_index=None):
        where = f" (path index {path_index})" if path_index is not None else ""
        super().__init__(f"state became non-finite at step {step}{where}; "
                         "consider a truncation schedule if coefficients are only locally Lipschitz")
        self.step = step
        self.path_index = path_index


class ExplosionSuspectedError(RuntimeError):
    def __init__(self, exit_fractions: dict):
        desc = ", ".join(f"N={n}: {f:.3f}" for n, f in exit_fractions.items())
        super().__init__(f"truncation schedule exhausted with exits remaining ({desc})")
        self.exit_fractions = exit_fractions


@dataclass(frozen=True)
class CoefficientSet:
    """Evaluable deterministic coefficients of (t, x).

    f has n components, h has n x d x d, g has n x d; all are expressions
    over {t, x1..xn}.  ``radius`` carries an active radial clamp (see
    ``truncate``); h is stored without symmetry assumptions and consumers
    that need the symmetrised form build h + h^T over the noise indices.
    """

    n: int
    d: int
    f: tuple
    h: tuple  # n entries, each a (d, d) tuple-of-tuples of Expression
    g: tuple  # n entries, each a length-d tuple of Expression
    lipschitz_tag: str = "global"
    radius: float = None

    def __post_init__(self):
        if self.lipschitz_tag not in ("global", "local"):
            raise ConfigError("lipschitz_tag must be 'global' or 'local'", "lipschitz_tag")

    @property
    def variables(self):
        return ("t",) + tuple(expr_mod.state_variables(self.n))

    def _env(self, t, x):
        """Bindings of t and the clamped state, and the state's leading shape."""
        x, _ = self._clamp(np.asarray(x, dtype=float))
        return expr_mod.bind(t, x), x.shape[:-1]

    def _clamp(self, x):
        """(x with the rows beyond the radius scaled onto it, the rows'
        norms); x itself when no row is beyond, and no norms when there is
        no radius."""
        if self.radius is None:
            return x, None
        norms = _norms(x)
        beyond = norms > self.radius
        if not beyond.any():
            return x, norms
        with np.errstate(invalid="ignore", divide="ignore"):
            scale = np.where(beyond, self.radius / norms, 1.0)
        return x * scale[..., None], norms

    def eval_f(self, t, x):
        return expr_mod.fill(self.f, *self._env(t, x))

    def eval_h(self, t, x):
        return expr_mod.fill(self.h, *self._env(t, x))

    def eval_g(self, t, x):
        return expr_mod.fill(self.g, *self._env(t, x))

    def _eval_fhg(self, t, x):
        """f, h and g from one clamp of the state."""
        env, shape = self._env(t, x)
        return tuple(expr_mod.fill(tab, env, shape) for tab in (self.f, self.h, self.g))


def coefficients(n: int, d: int, f, h, g, constants=None, lipschitz_tag="global") -> CoefficientSet:
    """Build a CoefficientSet from expression sources.

    For d = 1 the h and g entries may be plain strings per state component;
    generally h is a list of n items shaped (d, d) and g of n items of
    length d.
    """
    variables = ("t",) + tuple(expr_mod.state_variables(n))

    def norm_h(entry):
        if isinstance(entry, (str, expr_mod.Expression)):
            return [[entry]]
        if entry and isinstance(entry[0], (str, expr_mod.Expression)):
            return [entry] if d == 1 and len(entry) == 1 else [[e] for e in entry]
        return entry

    def norm_g(entry):
        return [entry] if isinstance(entry, (str, expr_mod.Expression)) else entry

    h = [norm_h(e) for e in h] if isinstance(h, (list, tuple)) else h
    g = [norm_g(e) for e in g] if isinstance(g, (list, tuple)) else g
    return CoefficientSet(
        n=n,
        d=d,
        f=expr_mod.table(f, (n,), variables, constants, "f"),
        h=expr_mod.table(h, (n, d, d), variables, constants, "h"),
        g=expr_mod.table(g, (n, d), variables, constants, "g"),
        lipschitz_tag=lipschitz_tag,
    )


def load_system(source):
    """System config {n, d, band|dim+members, f, h, g, constants} ->
    (CoefficientSet, uncertainty); a ConfigError names the key at fault."""
    if isinstance(source, (str, Path)):
        obj = json.loads(Path(source).read_text())
    else:
        obj = source
    n = integer(obj.get("n"), "n", 1)
    d = integer(obj.get("d"), "d", 1)
    constants = obj.get("constants", {})
    tag = obj.get("lipschitz_tag", "global")
    coeffs = coefficients(n, d, *map(obj.get, "fhg"), constants=constants, lipschitz_tag=tag)
    unc = load_uncertainty({k: obj[k] for k in ("band", "dim", "members") if k in obj})
    if unc.dim != d:
        raise ConfigError(f"uncertainty dimension {unc.dim} does not match d = {d}", "d")
    return coeffs, unc


@dataclass(frozen=True)
class TruncationSchedule:
    """Strictly increasing positive radii tried in order."""

    radii: tuple

    def __post_init__(self):
        radii = tuple(float(r) for r in self.radii)
        if not radii:
            raise ConfigError("schedule must be nonempty", "radii")
        if any(r <= 0 for r in radii) or any(b <= a for a, b in zip(radii, radii[1:])):
            raise ConfigError("radii must be strictly increasing and positive", "radii")
        object.__setattr__(self, "radii", radii)

    @classmethod
    def doubling(cls, first: float = 2.0, count: int = 15):
        return cls(tuple(first * 2.0**i for i in range(count)))


def truncate(coeffs: CoefficientSet, radius: float) -> CoefficientSet:
    """Radially clamp the state argument at |x| = radius.

    The clamped coefficients are bounded and globally Lipschitz when the
    originals are locally Lipschitz and continuous in t; inside the radius
    they evaluate identically (same arithmetic, hence bitwise equal)."""
    if not (radius > 0):
        raise ValueError("radius must be > 0")
    return CoefficientSet(
        n=coeffs.n, d=coeffs.d, f=coeffs.f, h=coeffs.h, g=coeffs.g,
        lipschitz_tag="global", radius=float(radius),
    )


def _norms(x: np.ndarray) -> np.ndarray:
    """|x| along the last axis, by np.linalg.norm's own arithmetic."""
    return np.sqrt(np.add.reduce(x * x, axis=-1))


def _exit_steps(running_max: np.ndarray, radius: float) -> np.ndarray:
    """First step with |X| >= radius along the last axis, -1 where none.

    Read off the running maximum, so a path that turns non-finite after
    reaching the radius still counts as exiting it."""
    hit = running_max >= radius
    return np.where(hit.any(axis=-1), np.argmax(hit, axis=-1), -1)


class SolutionBatch:
    def __init__(self, grid: TimeGrid, x: np.ndarray, n0_used=None, diagnostics=None,
                 running_max=None):
        self.grid = grid
        self.x = x  # (P, K+1, n)
        self.n0_used = n0_used
        self.diagnostics = dict(diagnostics or {})
        if running_max is not None:  # the Euler pass's own, same bits as computed here
            self.running_max = running_max

    def __len__(self):
        return self.x.shape[0]

    @property
    def t(self) -> np.ndarray:
        return self.grid.t

    @cached_property
    def norms(self) -> np.ndarray:
        return np.linalg.norm(self.x, axis=-1)

    @cached_property
    def running_max(self) -> np.ndarray:
        return np.maximum.accumulate(self.norms, axis=1)

    def exit_steps(self, radius: float) -> np.ndarray:
        """Per-path first step with |X| >= radius; -1 where no exit."""
        return _exit_steps(self.running_max, radius)


def _euler(coeffs: CoefficientSet, x0, b, trace, grid: TimeGrid):
    """The (P, K+1, n) states and, for clamped coefficients, the (P, K+1)
    running maximum of their norms (None otherwise)."""
    P = b.shape[0]
    K = grid.n_steps
    dt = grid.dt
    x0 = np.asarray(x0, dtype=float)
    if x0.shape not in ((coeffs.n,), (P, coeffs.n)):
        if x0.size != coeffs.n:
            raise ConfigError(f"x0 must hold n = {coeffs.n} numbers, got {x0.size}", "x0")
        x0 = x0.reshape(coeffs.n)
    x = np.empty((P, K + 1, coeffs.n))
    xk = np.empty((P, coeffs.n))  # the contiguous working state
    xk[...] = x0
    x[:, 0, :] = xk
    # step-major, so each step writes a contiguous row
    rmax = None if coeffs.radius is None else np.empty((K + 1, P))
    db = np.diff(b, axis=1)
    # the model's quadratic-variation increments are gamma_k dt exactly
    dqv = trace * dt
    if coeffs.d == 1:  # products with einsum's bits (see the module docstring)
        dqv = dqv[..., 0]

        def h_term(h, q):
            return np.multiply(h[..., 0, 0], q) + 0.0

        def g_term(g, z):
            return np.multiply(g[..., 0], z) + 0.0
    else:
        def h_term(h, q):
            return np.einsum("pnij,pij->pn", h, q)

        def g_term(g, z):
            return np.einsum("pnj,pj->pn", g, z)

    def values_at(tab):
        """env -> tab's values; a table free of variables is filled once."""
        if tab.free_variables:
            return lambda env: expr_mod.fill(tab, env, (P,))
        values = expr_mod.fill(tab, {}, (P,))
        return lambda env: values

    f_at, h_at, g_at = values_at(coeffs.f), values_at(coeffs.h), values_at(coeffs.g)
    t = grid.t
    # an all-+0.0 drift times a finite dt is +0.0 in every entry, and adding
    # the scalar +0.0 gives the same bits, so the drift is not evaluated
    fold_drift = coeffs.f.is_zero and np.isfinite(dt)
    for k in range(K):
        xc, norms = coeffs._clamp(xk)
        if rmax is not None:
            np.maximum(rmax[k - 1] if k else norms, norms, out=rmax[k])
        env = expr_mod.bind(t[k], xc)
        fdt = 0.0 if fold_drift else f_at(env) * dt
        xk = xk + fdt + h_term(h_at(env), dqv[:, k]) + g_term(g_at(env), db[:, k])
        x[:, k + 1, :] = xk
    if rmax is not None:
        np.maximum(rmax[K - 1], _norms(xk), out=rmax[K])
        rmax = rmax.T
    return x, rmax


def _blowup_steps(x: np.ndarray) -> dict:
    """Row -> first step with a non-finite state, for rows that have one.
    One flat screen first: the per-row scan runs only when it fails."""
    if np.isfinite(x).all():
        return {}
    bad = ~np.isfinite(x).all(axis=-1)
    rows = np.flatnonzero(bad.any(axis=1))
    return {int(i): int(k) for i, k in zip(rows, np.argmax(bad[rows], axis=1))}


def _raise_blowup(sol: SolutionBatch, batch: PathBatch) -> SolutionBatch:
    """sol, unless a state turned non-finite: then BlowUpError for the
    lowest such row, naming its step and path index."""
    bad = sol.diagnostics.get("blowup_steps")
    if bad:
        row = min(bad)
        raise BlowUpError(bad[row], batch.first_index + row)
    return sol


def integrate(coeffs: CoefficientSet, x0, batch: PathBatch) -> SolutionBatch:
    """integrate_batch, raising BlowUpError where a state turns non-finite.

    For locally Lipschitz coefficients a blow-up usually means the
    truncation radius (or the schedule) is too small for this scenario."""
    return _raise_blowup(integrate_batch(coeffs, x0, batch), batch)


def integrate_batch(coeffs: CoefficientSet, x0, batch: PathBatch) -> SolutionBatch:
    if batch.d != coeffs.d:
        raise ConfigError(f"the batch has d = {batch.d} noises, the coefficients d = {coeffs.d}",
                          "d")
    x, running_max = _euler(coeffs, x0, batch.b, batch.trace, batch.grid)
    bad = _blowup_steps(x)
    diag = {"blowup_steps": bad} if bad else {}
    return SolutionBatch(batch.grid, x, diagnostics=diag, running_max=running_max)


def _settle(running_max: np.ndarray, radii: tuple):
    """Exit steps per radius tried and each path's settling radius, read off
    the running maxima of one pass at radii[-1] (see the module docstring).

    Radii are tried in order up to the first one that no path reaches; a
    path settles at the first radius it does not reach.  Raises
    ExplosionSuspectedError when some path reaches every radius."""
    exits = {}
    for radius in radii:
        exits[radius] = _exit_steps(running_max, radius)
        if (exits[radius] < 0).all():
            # exits are nested in r, so the count of radii left indexes N0
            left = sum((e >= 0).astype(int) for e in exits.values())
            return exits, np.asarray(list(exits))[left]
    raise ExplosionSuspectedError({r: float(np.mean(e >= 0)) for r, e in exits.items()})


def solve_localized(coeffs: CoefficientSet, x0, batch: PathBatch,
                    schedule: TruncationSchedule = None) -> SolutionBatch:
    """solve_localized_batch's solution, with the radii tried in
    diagnostics["radii_tried"].

    Raises ExplosionSuspectedError with exit diagnostics if some path
    reaches every radius in the schedule, and otherwise BlowUpError if a
    kept trajectory turns non-finite."""
    rep = solve_localized_batch(coeffs, x0, batch, schedule)
    rep.solution.diagnostics["radii_tried"] = rep.radii_used
    return _raise_blowup(rep.solution, batch)


@dataclass
class LocalizationReport:
    solution: SolutionBatch
    exit_fractions: dict          # radius -> fraction of paths leaving it
    n0_per_path: np.ndarray       # smallest non-exit radius per path
    radii_used: list


def solve_localized_batch(coeffs: CoefficientSet, x0, batch: PathBatch,
                          schedule: TruncationSchedule = None) -> LocalizationReport:
    """Batch localization: one Euler pass of the batch at the schedule's
    largest radius, each path settled at the first radius it never reaches."""
    schedule = schedule or TruncationSchedule.doubling()
    sol = integrate_batch(truncate(coeffs, schedule.radii[-1]), x0, batch)
    exits, n0 = _settle(sol.running_max, schedule.radii)
    sol.n0_used = float(np.max(n0))
    return LocalizationReport(
        solution=sol,
        exit_fractions={r: float(np.mean(e >= 0)) for r, e in exits.items()},
        n0_per_path=n0,
        radii_used=list(exits),
    )


def closed_form_geometric(alpha: float, beta: float, gamma: float, x0: float,
                          batch: PathBatch) -> SolutionBatch:
    """x0 * exp(alpha t + (beta - gamma^2/2) <B>_t + gamma B_t) on the grid
    (n = d = 1) of every path in the batch."""
    if batch.d != 1:
        raise ConfigError(f"the closed form needs d = 1, got d = {batch.d}", "dim")
    t = batch.t
    expo = alpha * t + (beta - 0.5 * gamma * gamma) * batch.qv_scalar() + gamma * batch.b[:, :, 0]
    return SolutionBatch(batch.grid, (x0 * np.exp(expo))[..., None])


@dataclass
class SensitivityReport:
    ratio: float
    numerator: float
    denominator: float
    p: float
    table: list  # (descriptor, mean, se)


def initial_sensitivity(coeffs: CoefficientSet, x, y, unc, grid: TimeGrid,
                        family, n_paths: int, seed: int, p: float = 2.0) -> SensitivityReport:
    """Estimate sup-policy E[sup_t |X^x_t - X^y_t|^p] / |x - y|^p.

    Needs globally Lipschitz coefficients; returns ratio 0 by convention
    when x == y.  The numerator is the argmax policy's mean, so a policy
    whose mean is nan makes the ratio nan."""
    if coeffs.lipschitz_tag != "global":
        raise ValueError("initial sensitivity is defined for globally Lipschitz coefficients")
    x = np.asarray(x, dtype=float).reshape(coeffs.n)
    y = np.asarray(y, dtype=float).reshape(coeffs.n)
    denom = float(np.linalg.norm(x - y) ** p)

    def sup_gap(batch):
        solx = integrate_batch(coeffs, x, batch)
        soly = integrate_batch(coeffs, y, batch)
        return np.max(np.linalg.norm(solx.x - soly.x, axis=-1), axis=1) ** p

    policies, gaps = evaluate_family(sup_gap, family, unc, grid, n_paths, seed)
    means, ses, (best,) = family_sup(gaps)
    table = [(policy.describe(), float(m), float(s))
             for policy, m, s in zip(policies, means[:, 0], ses[:, 0])]
    if denom == 0.0:
        return SensitivityReport(0.0, 0.0, 0.0, p, table)
    top = float(means[best, 0])
    return SensitivityReport(top / denom, top, denom, p, table)
