"""Pathwise Euler integration of dX = f dt + h d<B> + g dB with radial
truncation of locally Lipschitz coefficients and exit-time localization.

Localization integrates the truncated system once, at the schedule's
largest radius R, and reads each path's settling radius off the running
maximum of |X|: a path settles at the first radius N0 it never reaches.
The clamp at R >= N0 is then never active on it, and an inactive clamp
multiplies by exactly 1.0, so the R-trajectory is bitwise the
N0-trajectory.  For any r < R the r- and R-trajectories agree up to and
including the first step with |X| >= r, so whether and when a path exits
r is the same on both.  A path that reaches R exhausts the schedule.
Exit detection uses grid values only, a discretization bias that shrinks
with dt.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import expr as expr_mod
from .scenario import GPath, PathBatch, TimeGrid, batch_noise, _write_csv
from .uncertainty import SigmaBand


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


def _as_expressions(entries, variables, constants, count, what):
    entries = list(entries)
    if len(entries) != count:
        raise ValueError(f"{what} needs {count} entries, got {len(entries)}")
    out = []
    for e in entries:
        if isinstance(e, expr_mod.Expression):
            out.append(e)
        else:
            out.append(expr_mod.parse(str(e), variables, constants))
    return tuple(out)


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
            raise ValueError("lipschitz_tag must be 'global' or 'local'")

    @property
    def variables(self):
        return ("t",) + tuple(expr_mod.state_variables(self.n))

    def _env(self, t, x):
        env = {"t": t}
        for i in range(self.n):
            env[f"x{i + 1}"] = x[..., i]
        return env

    def _clamp(self, x):
        if self.radius is None:
            return x
        norms = np.linalg.norm(x, axis=-1, keepdims=True)
        with np.errstate(invalid="ignore", divide="ignore"):
            scale = np.where(norms > self.radius, self.radius / norms, 1.0)
        return x * scale

    def eval_f(self, t, x):
        x = self._clamp(np.asarray(x, dtype=float))
        env = self._env(t, x)
        shape = x.shape[:-1]
        out = np.empty(shape + (self.n,))
        for i, e in enumerate(self.f):
            out[..., i] = np.broadcast_to(np.asarray(e.eval(env), dtype=float), shape)
        return out

    def eval_h(self, t, x):
        x = self._clamp(np.asarray(x, dtype=float))
        env = self._env(t, x)
        shape = x.shape[:-1]
        out = np.empty(shape + (self.n, self.d, self.d))
        for nu in range(self.n):
            for i in range(self.d):
                for j in range(self.d):
                    val = np.asarray(self.h[nu][i][j].eval(env), dtype=float)
                    out[..., nu, i, j] = np.broadcast_to(val, shape)
        return out

    def eval_g(self, t, x):
        x = self._clamp(np.asarray(x, dtype=float))
        env = self._env(t, x)
        shape = x.shape[:-1]
        out = np.empty(shape + (self.n, self.d))
        for nu in range(self.n):
            for j in range(self.d):
                val = np.asarray(self.g[nu][j].eval(env), dtype=float)
                out[..., nu, j] = np.broadcast_to(val, shape)
        return out


def coefficients(n: int, d: int, f, h, g, constants=None, lipschitz_tag="global") -> CoefficientSet:
    """Build a CoefficientSet from expression sources.

    For d = 1 the h and g entries may be plain strings per state component;
    generally h is a list of n items shaped (d, d) and g of n items of
    length d.
    """
    variables = ("t",) + tuple(expr_mod.state_variables(n))

    def norm_h(entry):
        if isinstance(entry, (str, expr_mod.Expression)):
            entry = [[entry]]
        elif entry and isinstance(entry[0], (str, expr_mod.Expression)):
            entry = [entry] if d == 1 and len(entry) == 1 else [[e] for e in entry]
        rows = []
        for row in entry:
            rows.append(_as_expressions(row, variables, constants, d, "h row"))
        if len(rows) != d:
            raise ValueError(f"h entry needs {d} rows")
        return tuple(rows)

    def norm_g(entry):
        if isinstance(entry, (str, expr_mod.Expression)):
            entry = [entry]
        return _as_expressions(entry, variables, constants, d, "g entry")

    f_exprs = _as_expressions(f, variables, constants, n, "f")
    h_list = list(h)
    g_list = list(g)
    if len(h_list) != n or len(g_list) != n:
        raise ValueError(f"h and g need {n} entries")
    return CoefficientSet(
        n=n,
        d=d,
        f=f_exprs,
        h=tuple(norm_h(e) for e in h_list),
        g=tuple(norm_g(e) for e in g_list),
        lipschitz_tag=lipschitz_tag,
    )


def load_system(source):
    """System config {n, d, band|dim+members, f, h, g, constants} ->
    (CoefficientSet, uncertainty)."""
    if isinstance(source, (str, Path)):
        obj = json.loads(Path(source).read_text())
    else:
        obj = source
    n = int(obj["n"])
    d = int(obj["d"])
    constants = obj.get("constants", {})
    tag = obj.get("lipschitz_tag", "global")
    coeffs = coefficients(n, d, obj["f"], obj["h"], obj["g"], constants=constants, lipschitz_tag=tag)
    from .uncertainty import load_uncertainty

    unc = load_uncertainty({k: obj[k] for k in ("band", "dim", "members") if k in obj})
    if not isinstance(unc, SigmaBand) and unc.dim != d:
        raise ValueError("uncertainty dimension does not match d")
    return coeffs, unc


@dataclass(frozen=True)
class TruncationSchedule:
    """Strictly increasing positive radii tried in order."""

    radii: tuple

    def __post_init__(self):
        radii = tuple(float(r) for r in self.radii)
        if not radii:
            raise ValueError("schedule must be nonempty")
        if any(r <= 0 for r in radii) or any(b <= a for a, b in zip(radii, radii[1:])):
            raise ValueError("radii must be strictly increasing and positive")
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


def _exit_steps(running_max: np.ndarray, radius: float) -> np.ndarray:
    """First step with |X| >= radius along the last axis, -1 where none.

    Read off the running maximum, so a path that turns non-finite after
    reaching the radius still counts as exiting it."""
    hit = running_max >= radius
    return np.where(hit.any(axis=-1), np.argmax(hit, axis=-1), -1)


class SolutionPath:
    """States on the driving path's grid, with exit-time bookkeeping."""

    def __init__(self, grid: TimeGrid, x: np.ndarray, n0_used=None, exit_steps=None, diagnostics=None):
        self.grid = grid
        self.x = x  # (K+1, n)
        self.norms = np.linalg.norm(x, axis=-1)
        self.running_max = np.maximum.accumulate(self.norms)
        self.n0_used = n0_used
        self._exit_steps = dict(exit_steps or {})
        self.diagnostics = dict(diagnostics or {})

    @property
    def n(self) -> int:
        return self.x.shape[-1]

    @property
    def t(self) -> np.ndarray:
        return self.grid.t

    def exit_step(self, radius: float):
        """First grid step with |X_k| >= radius, or None."""
        if radius in self._exit_steps:
            return self._exit_steps[radius]
        step = int(_exit_steps(self.running_max, radius))
        step = None if step < 0 else step
        self._exit_steps[radius] = step
        return step

    def exit_step_per_radius(self, radii) -> dict:
        return {float(r): self.exit_step(float(r)) for r in radii}

    def to_csv(self, target) -> None:
        header = ["t"] + expr_mod.state_variables(self.n)
        _write_csv(target, header, np.column_stack([self.t, self.x]))


class SolutionBatch:
    def __init__(self, grid: TimeGrid, x: np.ndarray, n0_used=None, diagnostics=None):
        self.grid = grid
        self.x = x  # (P, K+1, n)
        self.norms = np.linalg.norm(x, axis=-1)
        self.running_max = np.maximum.accumulate(self.norms, axis=1)
        self.n0_used = n0_used
        self.diagnostics = dict(diagnostics or {})

    def __len__(self):
        return self.x.shape[0]

    @property
    def t(self) -> np.ndarray:
        return self.grid.t

    def exit_steps(self, radius: float) -> np.ndarray:
        """Per-path first step with |X| >= radius; -1 where no exit."""
        return _exit_steps(self.running_max, radius)

    def path(self, i: int) -> SolutionPath:
        return SolutionPath(self.grid, self.x[i], n0_used=self.n0_used)


def _euler(coeffs: CoefficientSet, x0, b, trace, grid: TimeGrid) -> np.ndarray:
    P = b.shape[0]
    K = grid.n_steps
    dt = grid.dt
    x0 = np.asarray(x0, dtype=float)
    if x0.shape not in ((coeffs.n,), (P, coeffs.n)):
        x0 = x0.reshape(coeffs.n)
    x = np.empty((P, K + 1, coeffs.n))
    x[:, 0, :] = x0
    db = np.diff(b, axis=1)
    # the model's quadratic-variation increments are gamma_k dt exactly
    dqv = trace * dt
    t = grid.t
    for k in range(K):
        xk = x[:, k, :]
        fv = coeffs.eval_f(t[k], xk)
        hv = coeffs.eval_h(t[k], xk)
        gv = coeffs.eval_g(t[k], xk)
        x[:, k + 1, :] = (
            xk
            + fv * dt
            + np.einsum("pnij,pij->pn", hv, dqv[:, k])
            + np.einsum("pnj,pj->pn", gv, db[:, k])
        )
    return x


def _blowup_steps(x: np.ndarray) -> dict:
    """Row -> first step with a non-finite state, for rows that have one."""
    bad = ~np.isfinite(x).all(axis=-1)
    rows = np.flatnonzero(bad.any(axis=1))
    return {int(i): int(k) for i, k in zip(rows, np.argmax(bad[rows], axis=1))}


def integrate(coeffs: CoefficientSet, x0, path: GPath) -> SolutionPath:
    """Euler step along one simulated path (left-endpoint sums).

    Raises BlowUpError with the first non-finite step; for locally
    Lipschitz coefficients that usually means the truncation radius (or
    the schedule) is too small for this scenario."""
    x = _euler(coeffs, x0, path.b[None], path.policy_trace[None], path.grid)
    bad = _blowup_steps(x)
    if bad:
        raise BlowUpError(bad[0], path.path_index)
    return SolutionPath(path.grid, x[0])


def integrate_batch(coeffs: CoefficientSet, x0, batch: PathBatch) -> SolutionBatch:
    x = _euler(coeffs, x0, batch.b, batch.trace, batch.grid)
    bad = _blowup_steps(x)
    diag = {"blowup_steps": bad} if bad else {}
    return SolutionBatch(batch.grid, x, diagnostics=diag)


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


def solve_localized(coeffs: CoefficientSet, x0, path: GPath,
                    schedule: TruncationSchedule = None) -> SolutionPath:
    """Localized solution on one path: one Euler pass at the schedule's
    largest radius, settled at the first radius the path never reaches.

    Raises BlowUpError if the kept trajectory turns non-finite, and
    ExplosionSuspectedError with exit diagnostics if the path reaches
    every radius in the schedule."""
    schedule = schedule or TruncationSchedule.doubling()
    sol = integrate(truncate(coeffs, schedule.radii[-1]), x0, path)
    exits, n0 = _settle(sol.running_max, schedule.radii)
    records = {r: (None if e < 0 else int(e)) for r, e in exits.items()}
    return SolutionPath(path.grid, sol.x, n0_used=float(n0), exit_steps=records,
                        diagnostics={"radii_tried": list(records)})


@dataclass
class LocalizationReport:
    solution: SolutionBatch
    exit_fractions: dict          # radius -> fraction of paths leaving it
    n0_per_path: np.ndarray       # smallest non-exit radius per path
    radii_used: list


def solve_localized_batch(coeffs: CoefficientSet, x0, batch: PathBatch,
                          schedule: TruncationSchedule = None) -> LocalizationReport:
    """Batch localization with the same per-path semantics as
    solve_localized: one Euler pass of the batch at the schedule's largest
    radius, each path settled at the first radius it never reaches."""
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


def closed_form_geometric(alpha: float, beta: float, gamma: float, x0: float, path):
    """x0 * exp(alpha t + (beta - gamma^2/2) <B>_t + gamma B_t) on the grid
    (n = d = 1)."""
    if isinstance(path, PathBatch):
        if path.d != 1:
            raise ValueError("closed form needs d = 1")
        t = path.t
        expo = alpha * t + (beta - 0.5 * gamma * gamma) * path.qv_scalar() + gamma * path.b[:, :, 0]
        return SolutionBatch(path.grid, (x0 * np.exp(expo))[..., None])
    if path.d != 1:
        raise ValueError("closed form needs d = 1")
    t = path.t
    expo = alpha * t + (beta - 0.5 * gamma * gamma) * path.qv_scalar() + gamma * path.b[:, 0]
    return SolutionPath(path.grid, (x0 * np.exp(expo))[:, None])


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
    when x == y."""
    if coeffs.lipschitz_tag != "global":
        raise ValueError("initial sensitivity is defined for globally Lipschitz coefficients")
    from .upper_expectation import PolicyFamily

    x = np.asarray(x, dtype=float).reshape(coeffs.n)
    y = np.asarray(y, dtype=float).reshape(coeffs.n)
    denom = float(np.linalg.norm(x - y) ** p)
    policies = family.policies(unc) if isinstance(family, PolicyFamily) else list(family)
    d = 1 if isinstance(unc, SigmaBand) else unc.dim
    noise = batch_noise(seed, 0, n_paths, grid.n_steps, d)
    table = []
    best = -np.inf
    from .scenario import assemble

    for policy in policies:
        batch = assemble(policy, unc, grid, noise, seed=seed)
        solx = integrate_batch(coeffs, x, batch)
        soly = integrate_batch(coeffs, y, batch)
        sup = np.max(np.linalg.norm(solx.x - soly.x, axis=-1), axis=1)
        del batch, solx, soly  # release this policy's paths before the next assemble
        vals = sup**p
        mean = float(np.mean(vals))
        se = float(np.std(vals, ddof=1) / np.sqrt(n_paths))
        table.append((policy.describe(), mean, se))
        best = max(best, mean)
    if denom == 0.0:
        return SensitivityReport(0.0, 0.0, 0.0, p, table)
    return SensitivityReport(best / denom, best, denom, p, table)
