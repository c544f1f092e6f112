"""Desk-scale stability experiments: moment-decay curves against closed-form
bounds, finite-horizon Lyapunov exponents, and the |B_t|/t decay table.

Bound columns are always computed from closed forms, never fitted to the
sampled data.  Time-shifted starts reduce to s = 0 because the configured
examples are time-homogeneous.  The limsup statements are asymptotic; the
finite-horizon surrogate adds a fluctuation slack of 3/sqrt(T).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, integer
from .gsde import CoefficientSet, closed_form_geometric, integrate_batch
from .runio import config_hash, standard_comments, write_table
# assemble and batch_noise are not called here: perfbench/layers.py
# patches them in this namespace
from .scenario import TimeGrid, assemble, batch_noise  # noqa: F401
from .uncertainty import SigmaBand, require_band
from .upper_expectation import PolicyFamily, bound_rows, evaluate_family

LOG_FLOOR = 1e-300


@dataclass(frozen=True)
class GeometricModel:
    """dX = alpha X dt + beta X d<B> + gamma X dB, solved in closed form."""

    alpha: float
    beta: float
    gamma: float
    x0: float

    def moment_rate(self, p: float, band: SigmaBand) -> float:
        """Decay rate lambda with E[|X_t|^p] <= |x0|^p exp(-lambda t).

        The quadratic-variation exponent (p/2)(2 beta + gamma^2 (p-1)) is
        bounded pathwise using the upper variance when the bracket is
        nonnegative and the lower variance otherwise; the remaining factor
        is a mean-one exponential martingale."""
        band = require_band(band, "the geometric model's moment rate")
        bracket = 2.0 * self.beta + self.gamma**2 * (p - 1.0)
        sig2 = band.sigma2_hi if bracket >= 0.0 else band.sigma2_lo
        return -(p * self.alpha + 0.5 * p * bracket * sig2)


@dataclass(frozen=True)
class ExperimentConfig:
    system: object               # GeometricModel or (CoefficientSet, x0)
    unc: object                  # SigmaBand or CovarianceSet
    p: float
    T: float
    dt: float
    family: PolicyFamily
    n_paths: int
    seed: int
    lam: float = None            # decay rate; derived for the geometric model
    times: tuple = ()
    slack: float = 0.05

    def __post_init__(self):
        if not self.p > 0:
            raise ConfigError(f"p must be > 0, got {self.p!r}", "p")
        # statistical assertions need at least 100 paths
        object.__setattr__(self, "n_paths", integer(self.n_paths, "n_paths", 100))
        for name in ("T", "dt"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be > 0, got {getattr(self, name)!r}", name)
        d = 1 if isinstance(self.system, GeometricModel) else self.system[0].d
        if self.unc.dim != d:
            raise ConfigError(f"the system has d = {d} noises, the set dim = {self.unc.dim}", "dim")
        outside = [t for t in self.times if not 0.0 <= t <= self.T]
        if outside:
            raise ConfigError(f"times {outside} lie outside [0, T] = [0, {self.T:g}]",
                              field="times")

    def grid(self) -> TimeGrid:
        return TimeGrid(self.T, max(1, int(round(self.T / self.dt))))

    def rate(self) -> float:
        if self.lam is not None:
            return float(self.lam)
        if isinstance(self.system, GeometricModel):
            lam = self.system.moment_rate(self.p, self.unc)
            if lam <= 0:
                raise ConfigError("not exponentially p-stable under given parameters "
                                  f"(derived rate {lam:g} <= 0)")
            return lam
        raise ConfigError("supply lam for non-geometric systems")

    def x0_norm(self) -> float:
        if isinstance(self.system, GeometricModel):
            return abs(self.system.x0)
        _, x0 = self.system
        return float(np.linalg.norm(np.asarray(x0, dtype=float)))


def _terminal_states(cfg: ExperimentConfig, grid: TimeGrid, take):
    """Policies and, per policy, take(|X|) for the (P, K+1) array of state
    norms along the grid."""

    def taken(batch):
        if isinstance(cfg.system, GeometricModel):
            m = cfg.system
            sol = closed_form_geometric(m.alpha, m.beta, m.gamma, m.x0, batch)
        else:
            coeffs, x0 = cfg.system
            sol = integrate_batch(coeffs, x0, batch)
        return take(np.linalg.norm(sol.x, axis=-1))

    return evaluate_family(taken, cfg.family, cfg.unc, grid, cfg.n_paths, cfg.seed)


@dataclass
class ExperimentResult:
    name: str
    header: list
    rows: list
    passed: bool
    cfg_hash: str
    seed: int
    details: dict = field(default_factory=dict)

    def to_csv(self, target) -> None:
        write_table(target, self.header, self.rows,
                    comments=standard_comments(self.cfg_hash, self.seed) + [f"experiment={self.name}"])


def moment_decay_curve(cfg: ExperimentConfig) -> ExperimentResult:
    """Estimated upper expectation of |X_t|^p against |x0|^p exp(-lam t).

    Passes when every reported time satisfies
    estimate <= bound (1 + slack) + 3 se."""
    lam = cfg.rate()
    grid = cfg.grid()
    times = list(cfg.times) if cfg.times else [cfg.T * k / 4 for k in range(1, 5)]
    indices = [grid.index_of(t) for t in times]
    c0 = cfg.x0_norm() ** cfg.p

    _, vals = _terminal_states(cfg, grid, lambda norms: norms[:, indices] ** cfg.p)
    bounds = [c0 * float(np.exp(-lam * t)) for t in times]
    rows, passed = bound_rows(times, vals, bounds, cfg.slack)
    return ExperimentResult(
        "moment_decay", ["t", "estimate", "std_error", "bound", "ok"], rows, passed,
        config_hash(cfg), cfg.seed, details={"lambda": lam, "p": cfg.p},
    )


def lyapunov_exponent(cfg: ExperimentConfig) -> ExperimentResult:
    """Finite-horizon exponents (1/T) log |X_T| across paths and policies.

    Passes when the all-path maximum is <= -lam/p + 3/sqrt(T); |X| is
    floored at 1e-300 before the log and the flooring count reported."""
    if cfg.x0_norm() == 0.0:
        raise ConfigError("x0 = 0 starts on the trivial solution; the exponent is undefined")
    lam = cfg.rate()
    grid = cfg.grid()
    slack = 3.0 / np.sqrt(cfg.T)
    bound = -lam / cfg.p

    rows = []
    exponents = []
    floored = 0
    for policy, xt in zip(*_terminal_states(cfg, grid, lambda norms: norms[:, -1].copy())):
        floored += int(np.sum(xt < LOG_FLOOR))
        expo = np.log(np.maximum(xt, LOG_FLOOR)) / cfg.T
        exponents.append(expo)
        rows.append((policy.describe(), float(np.max(expo)), float(np.median(expo))))
    allexp = np.concatenate(exponents)
    max_all = float(np.max(allexp))
    passed = max_all <= bound + slack
    rows.append(("ALL", max_all, float(np.median(allexp))))
    return ExperimentResult(
        "lyapunov_exponent", ["policy", "max_exponent", "median_exponent"], rows, passed,
        config_hash(cfg), cfg.seed,
        details={"bound": bound, "slack": slack, "floored_paths": floored},
    )


def bt_over_t(unc, family: PolicyFamily, t_values, n_paths: int, seed: int,
              steps_per_unit: float = 1.0, quantile: float = 0.99) -> ExperimentResult:
    """Quantiles of |B_T|/T across paths and policies for each horizon.

    Passes when the high quantile decreases along t_values and the last
    one is <= 0.2 * sigma_hi (d = 1)."""
    unc = require_band(unc, "the |B_t|/t table")
    t_values = [float(t) for t in t_values]
    if sorted(t_values) != t_values:
        raise ConfigError("t_values must increase", "t_values")
    if not t_values or not t_values[0] > 0:
        raise ConfigError("t_values must be a nonempty list of times > 0", "t_values")
    n_paths = integer(n_paths, "n_paths", 1)
    rows = []
    highs = []
    for T in t_values:
        grid = TimeGrid(T, max(1, int(round(T * steps_per_unit))))
        _, ratios = evaluate_family(lambda batch: np.abs(batch.b[:, -1, 0]) / T,
                                    family, unc, grid, n_paths, seed)
        ratios = np.concatenate(ratios)
        med = float(np.median(ratios))
        hi = float(np.quantile(ratios, quantile))
        highs.append(hi)
        rows.append((T, med, hi))
    threshold = 0.2 * unc.sigma_hi
    passed = all(b < a for a, b in zip(highs, highs[1:])) and highs[-1] <= threshold
    cfg = {"unc": unc, "family": family, "t_values": t_values, "n_paths": n_paths,
           "seed": seed, "steps_per_unit": steps_per_unit, "quantile": quantile}
    return ExperimentResult(
        "bt_over_t", ["T", "median", f"q{quantile * 100:g}"], rows, passed,
        config_hash(cfg), seed, details={"threshold": threshold},
    )
