"""Monte Carlo estimation of upper expectations over a policy family.

The estimator simulates every candidate policy on common random numbers
and reports the largest per-policy mean.  Because the family indexes only
a subset of the scenario measures, the value is a downward-biased estimate
of the true supremum; acceptance checks against exact oracles are
therefore one-sided unless convexity pins the optimum at an extreme
constant policy.  The quoted standard error is the argmax policy's; the
selection bias of taking a max is absorbed by test tolerances.
Every family sup takes per-policy means, standard errors and argmaxes
from family_sup, which reduces each column on its own, so the bits do not
depend on the values' memory layout.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, integer
from .scenario import (
    ConstantPolicy,
    PathBatch,
    TimeGrid,
    assemble,
    batch_noise,
    threshold_bangbang,
)
from .uncertainty import CovarianceSet, require_band


class PayoffError(ConfigError):
    """Payoff evaluated to a non-finite value on a sampled path."""


@dataclass(frozen=True)
class PolicyFamily:
    """A finite, ordered menu of candidate policies.

    kinds: constants_only (a grid of constant variances, or every member of
    a finite set), extreme_constants (band endpoints / all members),
    bangbang_threshold (both orientations per threshold, d = 1 bands), and
    custom (explicit policy list).
    """

    kind: str
    n_constants: int = 5
    thresholds: tuple = ()
    custom_policies: tuple = ()

    @classmethod
    def constants_only(cls, n: int = 5):
        return cls(kind="constants_only", n_constants=integer(n, "n", 1))

    @classmethod
    def extreme_constants(cls):
        return cls(kind="extreme_constants")

    @classmethod
    def bangbang_threshold(cls, thresholds):
        thetas = tuple(float(t) for t in thresholds)
        if not thetas:
            raise ConfigError("threshold grid must be nonempty", "thresholds")
        return cls(kind="bangbang_threshold", thresholds=thetas)

    @classmethod
    def custom(cls, policies):
        policies = tuple(policies)
        if not policies:
            raise ValueError("custom policy list must be nonempty")
        return cls(kind="custom", custom_policies=policies)

    def policies(self, unc) -> list:
        if self.kind == "custom":
            return list(self.custom_policies)
        if isinstance(unc, CovarianceSet) and self.kind in ("constants_only", "extreme_constants"):
            return [ConstantPolicy(index=i) for i in range(len(unc))]
        band = require_band(unc, f"the {self.kind} family")
        if self.kind == "extreme_constants":
            values = [band.sigma2_lo, band.sigma2_hi] if band.width > 0 else [band.sigma2_lo]
            return [ConstantPolicy(value=v) for v in values]
        if self.kind == "constants_only":
            values = np.linspace(band.sigma2_lo, band.sigma2_hi, self.n_constants)
            return [ConstantPolicy(value=v) for v in values]
        if self.kind == "bangbang_threshold":
            out = []
            for theta in self.thresholds:
                out.append(threshold_bangbang(band, theta, hi_above=True))
                out.append(threshold_bangbang(band, theta, hi_above=False))
            return out
        raise ValueError(f"unknown family kind {self.kind!r}")


@dataclass
class PolicyEstimate:
    descriptor: str
    mean: float
    se: float


@dataclass
class EstimateReport:
    value: float
    std_error: float
    argmax_policy: object
    n_paths: int
    table: list
    details: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "value": self.value,
            "std_error": self.std_error,
            "n_paths": self.n_paths,
            "argmax_policy": self.argmax_policy.describe(),
            "policies": [{"descriptor": e.descriptor, "mean": e.mean, "se": e.se} for e in self.table],
            **({"details": self.details} if self.details else {}),
        }

    def to_json(self, indent=None) -> str:
        return json.dumps(self.to_json_dict(), indent=indent)


def evaluate_family(fn, family, unc, grid: TimeGrid, n_paths: int, seed: int):
    """(policies, [fn(batch) for each policy]) in family order.

    Draws one noise block for paths 0 .. n_paths - 1 and assembles every
    policy of the family on it (common random numbers).  Policies run one
    after another and each batch is dropped once its fn returns, so only
    one batch is alive at a time."""
    policies = family.policies(unc) if isinstance(family, PolicyFamily) else list(family)
    if not policies:
        raise ValueError("empty policy family")
    noise = batch_noise(seed, 0, n_paths, grid.n_steps, unc.dim)
    return policies, [fn(assemble(p, unc, grid, noise, seed=seed)) for p in policies]


def family_sup(values):
    """(means, ses, best) of per-policy values, one (P,) or (P, m) array each.

    means and ses are (N, m): column j of policy i on its own, as np.mean
    and np.std(ddof=1) / sqrt(P) give them on that column, with se nan when
    P = 1.  best[j] is the policy of the largest mean in column j (the
    first nan, if any)."""
    columns = [np.asarray(v, dtype=float).reshape(len(v), -1).T for v in values]
    n_paths = columns[0].shape[1]
    means = np.array([[np.mean(col) for col in c] for c in columns])
    ses = (np.array([[np.std(col, ddof=1) for col in c] for c in columns]) / np.sqrt(n_paths)
           if n_paths > 1 else np.full_like(means, np.nan))
    return means, ses, np.argmax(means, axis=0)


def bound_rows(times, values, bounds, slack):
    """Rows (t, estimate, se, bound, ok) and whether every ok holds.

    values holds one (P, m) array per policy, column j sampled at times[j];
    the estimate is the largest policy mean in each column and se that
    policy's standard error, and ok is estimate <= bound (1 + slack) + 3 se.
    """
    means, ses, best = family_sup(values)
    rows = []
    passed = True
    for j, (t, bound, b) in enumerate(zip(times, bounds, best)):
        est, se = float(means[b, j]), float(ses[b, j])
        ok = est <= bound * (1.0 + slack) + 3.0 * se
        passed &= ok
        rows.append((t, est, se, bound, ok))
    return rows, passed


def estimate_upper(payoff, family, unc, grid: TimeGrid, n_paths: int, seed: int):
    """sup over the family of Monte Carlo means of payoff(paths).

    payoff maps a PathBatch to a (P,) array; it may instead return (P, m)
    to evaluate m functionals on the same paths, in which case a list of m
    EstimateReports comes back.  All policies see the same noise block
    (common random numbers keyed by (seed, path index)).
    """
    n_paths = integer(n_paths, "n_paths", 2)

    def checked(batch):
        vals = np.asarray(payoff(batch), dtype=float)
        if vals.shape[0] != len(batch):
            raise ValueError("payoff must return one value (or row) per path")
        if not np.all(np.isfinite(vals)):
            bad = int(np.argmax(~np.all(np.isfinite(vals.reshape(len(batch), -1)), axis=1)))
            raise PayoffError(
                f"payoff non-finite on path seed={seed} index={bad} under {batch.policy_descriptor}",
                "payoff")
        return vals

    policies, all_vals = evaluate_family(checked, family, unc, grid, n_paths, seed)
    means, ses, best = family_sup(all_vals)
    reports = [EstimateReport(
        value=float(means[b, j]),
        std_error=float(ses[b, j]),
        argmax_policy=policies[b],
        n_paths=n_paths,
        table=[PolicyEstimate(p.describe(), float(m), float(s))
               for p, m, s in zip(policies, means[:, j], ses[:, j])],
    ) for j, b in enumerate(best)]
    return reports if all_vals[0].ndim == 2 else reports[0]


def optimize_bangbang(payoff, unc, grid: TimeGrid, thresholds, n_paths: int,
                      seed: int) -> EstimateReport:
    """Grid search over threshold bang-bang rules (both orientations),
    with the two extreme constants included so constant optima are exact.
    The report's details carry the evaluation trajectory in search order."""
    unc = require_band(unc, "bang-bang threshold search")
    candidates = [ConstantPolicy(value=unc.sigma2_lo), ConstantPolicy(value=unc.sigma2_hi)]
    candidates += PolicyFamily.bangbang_threshold(thresholds).policies(unc)
    report = estimate_upper(payoff, PolicyFamily.custom(candidates), unc, grid, n_paths, seed)
    report.details["search_trajectory"] = [
        {"policy": e.descriptor, "mean": e.mean, "se": e.se} for e in report.table
    ]
    return report


def stochastic_exponential_payoff(rate: float, at_time: float):
    """exp(rate*B_t - rate^2/2 * qv_t) read off at the grid point nearest t;
    mean 1 under every adapted scenario (d = 1)."""

    def payoff(batch: PathBatch):
        k = batch.grid.index_of(at_time)
        b = batch.b[:, k, 0]
        qv = batch.qvar[:, k, 0, 0]
        return np.exp(rate * b - 0.5 * rate * rate * qv)

    return payoff
