"""Volatility uncertainty sets and the sublinear function G.

Two representations are supported: a scalar variance band [lo, hi] (d = 1),
and an explicit finite list of covariance matrices (any d).  In both cases
G(A) = (1/2) * sup over the set of tr(gamma @ A), which the band evaluates
in closed form and the finite set by direct maximisation over its members.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, integer

SYMMETRY_TOL = 1e-12
PSD_EIG_FLOOR = -1e-12


@dataclass(frozen=True)
class SigmaBand:
    """Variance band [sigma2_lo, sigma2_hi] for scalar volatility uncertainty.

    sigma2_lo must be strictly positive: the stability criteria divide cases
    on the lower variance, so degenerate bands are rejected at construction
    (a ConfigError naming "band").  A zero-width band (lo == hi) is allowed
    and reduces to one measure.
    """

    sigma2_lo: float
    sigma2_hi: float

    def __post_init__(self):
        lo = float(self.sigma2_lo)
        hi = float(self.sigma2_hi)
        if not np.isfinite(lo) or not np.isfinite(hi):
            raise ConfigError("band endpoints must be finite", "band")
        if lo <= 0.0:
            raise ConfigError(f"sigma2_lo must be > 0, got {lo}", "band")
        if lo > hi:
            raise ConfigError(f"need sigma2_lo <= sigma2_hi, got ({lo}, {hi})", "band")
        object.__setattr__(self, "sigma2_lo", lo)
        object.__setattr__(self, "sigma2_hi", hi)

    @property
    def dim(self) -> int:
        return 1

    @property
    def width(self) -> float:
        return self.sigma2_hi - self.sigma2_lo

    @property
    def sigma_hi(self) -> float:
        return float(np.sqrt(self.sigma2_hi))

    def contains(self, sigma2, tol: float = 1e-12):
        s = np.asarray(sigma2, dtype=float)
        return (s >= self.sigma2_lo - tol) & (s <= self.sigma2_hi + tol)

    def as_covariance_set(self) -> "CovarianceSet":
        # tr(gamma*A) is linear in gamma, so the two endpoints realise the sup.
        return CovarianceSet(
            1, [np.array([[self.sigma2_lo]]), np.array([[self.sigma2_hi]])]
        )


def _symmetrize(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def square_matrix(m, n: int, field: str) -> np.ndarray:
    """m as an n x n array: n*n finite numbers, row-major, flat or nested;
    anything else is a ConfigError naming field."""
    what = f"{field} must hold {n}x{n} finite numbers, row-major"
    try:
        m = np.asarray(m, dtype=float)
    except (TypeError, ValueError):  # ragged rows
        raise ConfigError(what, field) from None
    if m.size != n * n or not np.all(np.isfinite(m)):
        raise ConfigError(what, field)
    return m.reshape(n, n)


@dataclass(frozen=True)
class CovarianceSet:
    """Finite set of symmetric PSD covariance scenarios in dimension d."""

    dim: int
    members: tuple

    def __init__(self, dim: int, members):
        dim = integer(dim, "dim", 1)
        mats = []
        for idx, m in enumerate(members):
            field = f"members/{idx}"
            m = square_matrix(m, dim, field)
            if np.max(np.abs(m - m.T)) > SYMMETRY_TOL * max(1.0, np.max(np.abs(m))):
                raise ConfigError(f"member {idx} is not symmetric within tolerance", field)
            m = _symmetrize(m)
            if np.min(np.linalg.eigvalsh(m)) < PSD_EIG_FLOOR:
                raise ConfigError(f"member {idx} is not positive semidefinite", field)
            m.flags.writeable = False
            mats.append(m)
        if not mats:
            raise ConfigError("member list must be nonempty", "members")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "members", tuple(mats))

    def __len__(self) -> int:
        return len(self.members)

    def member_stack(self) -> np.ndarray:
        """All members as one (m, d, d) array."""
        return np.stack(self.members)


def require_band(unc, what: str) -> SigmaBand:
    """unc when it is a SigmaBand, for what, which is defined on d = 1
    bands only; anything else raises a ConfigError naming "band"."""
    if not isinstance(unc, SigmaBand):
        raise ConfigError(f"{what} needs a d = 1 band, got a {type(unc).__name__}", "band")
    return unc


def g_scalar(band: SigmaBand, a, out=None):
    """G(a) = 0.5 * (max(hi*a, lo*a) + 0.0), elementwise on arrays.

    This is the closed form of (1/2)*sup over sigma^2 in [lo, hi] of
    sigma^2*a, bit for bit the same as (hi*a_plus - lo*a_minus)/2 in five
    ufuncs and one temporary.  Since lo > 0 and rounding is monotone, hi*a
    >= lo*a exactly when a >= 0, so max picks the rounded product the
    a_plus/a_minus form keeps.  That form's difference is never -0.0, while
    the max is -0.0 at a = -0.0 and where lo*a underflows to -0.0; adding
    +0.0 turns exactly those into +0.0 and leaves every other value alone.
    A halving that underflows to -0.0 (a = -5e-324) happens in both forms.
    As for a numpy ufunc, out (which may be a itself) receives the result;
    the same operations run with or without it, so the bits are the same.
    """
    a = np.asarray(a, dtype=float)
    low = np.multiply(band.sigma2_lo, a)
    val = np.multiply(band.sigma2_hi, a, out=np.empty(a.shape) if out is None else out)
    np.maximum(val, low, out=val)
    np.add(val, 0.0, out=val)
    np.multiply(0.5, val, out=val)
    return float(val) if val.ndim == 0 else val


def g_matrix(cov_set: CovarianceSet, a):
    """G(A) = (1/2) * max over members gamma of tr(gamma @ A).

    A is symmetrised first; only the symmetric part contributes to the trace
    against symmetric gamma.  Accepts a stack of matrices (..., d, d) and
    returns the elementwise result of shape (...).
    """
    a = np.asarray(a, dtype=float)
    d = cov_set.dim
    if a.shape[-2:] != (d, d):
        raise ConfigError(f"matrix shape {a.shape} does not end in ({d}, {d})", "dim")
    a = _symmetrize(a)
    # tr(gamma A) = sum_ij gamma_ij A_ij for symmetric gamma, A
    traces = np.einsum("mij,...ij->m...", cov_set.member_stack(), a)
    val = 0.5 * traces.max(axis=0)
    return float(val) if np.ndim(val) == 0 else val


def g_value(unc, a):
    """Evaluate G on a SigmaBand (scalar or 1x1 argument) or a CovarianceSet."""
    if isinstance(unc, SigmaBand):
        a = np.asarray(a, dtype=float)
        if a.ndim >= 2 and a.shape[-2:] == (1, 1):
            a = a[..., 0, 0]
        return g_scalar(unc, a)
    return g_matrix(unc, a)


def load_uncertainty(source):
    """Build a SigmaBand or CovarianceSet from JSON.

    Accepts a dict, a JSON string, or a path to a JSON file with either
    {"band": [lo, hi]} or {"dim": d, "members": [[row-major d*d reals], ...]};
    a ConfigError names the field at fault.
    """
    if isinstance(source, (str, Path)):
        p = Path(source)
        text = p.read_text() if p.exists() else str(source)
        obj = json.loads(text)
    else:
        obj = source
    if not isinstance(obj, dict):
        raise ConfigError("uncertainty config must be a JSON object")
    if "band" in obj:
        band = obj["band"]
        if not isinstance(band, (list, tuple)) or len(band) != 2:
            raise ConfigError('"band" must be [lo, hi]', "band")
        return SigmaBand(float(band[0]), float(band[1]))
    if "dim" in obj and "members" in obj:
        return CovarianceSet(obj["dim"], obj["members"])
    raise ConfigError('uncertainty config needs either "band" or "dim"+"members"')
