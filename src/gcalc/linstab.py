"""Algebraic stability certificates for linear systems driven by a scalar
G-Brownian motion: dX = F X dt + H X d<B> + C X dB.

With V(x) = x'Px the generator is a quadratic form under G:
LV(x) = x' sym(2PF) x + 2G(x'Mx) with M = sym(2PH + C'PC), linear in P.
On a band, 2G(a) = max(lo*a, hi*a), so the stability test is exact: LV <=
-(1 + margin)|x|^2 for every x if and only if sym(2PF) + I + sigma*M has
largest eigenvalue at most -margin for both sigma in {lo, hi}.  The
instability test is its mirror.  Under the constant scenario sigma the
generator of V is x'(sym(2PF) + sigma*M)x, linear in sigma, so it is at
least (1 + margin)|x|^2 for every x and every sigma in [lo, hi] if and only
if sym(2PF) - I + sigma*M has smallest eigenvalue at least margin for both
ends; margin >= 0 proves that the second moment grows exponentially in
every scenario (ms_unstable).  The certificates are not invariant under
rescaling P: the identity terms in the inequalities fix the normalization.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, integer
from .uncertainty import SigmaBand, g_scalar, require_band, square_matrix

_SPD_TOL = 1e-10


class NotSPDError(ConfigError):
    pass


def _sym(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


def _check_spd(p, n: int) -> np.ndarray:
    p = square_matrix(p, n, "P")
    if np.max(np.abs(p - p.T)) > _SPD_TOL * max(1.0, np.max(np.abs(p))):
        raise NotSPDError("P is not symmetric", "P")
    p = _sym(p)
    if np.min(np.linalg.eigvalsh(p)) <= 0.0:
        raise NotSPDError("P is not positive definite", "P")
    return p


@dataclass(frozen=True)
class LinearGSystem:
    n: int
    F: np.ndarray
    H: np.ndarray
    C: np.ndarray
    band: SigmaBand

    def __init__(self, F, H, C, band: SigmaBand):
        band = require_band(band, "a linear G-system")
        F = np.asarray(F, dtype=float)
        H = np.asarray(H, dtype=float)
        C = np.asarray(C, dtype=float)
        n = F.shape[0]
        for name, m in (("F", F), ("H", H), ("C", C)):
            if m.shape != (n, n):
                raise ConfigError(f"{name} must be {n}x{n}", name)
            if not np.all(np.isfinite(m)):
                raise ConfigError(f"{name} has non-finite entries", name)
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "band", band)

    @classmethod
    def from_rows(cls, n, F, H, C, band: SigmaBand):
        """The system of n x n matrices F, H, C given row-major."""
        n = integer(n, "n", 1)
        F, H, C = (square_matrix(m, n, name) for name, m in (("F", F), ("H", H), ("C", C)))
        return cls(F, H, C, band)

    def coupling_matrix(self, P: np.ndarray) -> np.ndarray:
        """sym(2PH + C'PC); linear in P."""
        return _sym(2.0 * P @ self.H + self.C.T @ P @ self.C)

    def to_coefficients(self):
        """Expression-based coefficient set for cross-checks and simulation."""
        from .gsde import coefficients

        def lin_exprs(M):
            rows = []
            for i in range(self.n):
                terms = [f"({float(M[i, j])!r})*x{j + 1}" for j in range(self.n)]
                rows.append(" + ".join(terms))
            return rows

        f = lin_exprs(self.F)
        h = [[[e]] for e in lin_exprs(self.H)]
        g = [[e] for e in lin_exprs(self.C)]
        return coefficients(self.n, 1, f, h, g)


@dataclass
class Certificate:
    kind: str  # ms_stable | ms_unstable | inconclusive
    P: np.ndarray
    alpha: float
    margin: float
    details: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "P": np.asarray(self.P).tolist(),
            "alpha": self.alpha,
            "margin": self.margin,
            "details": self.details,
        }

    def to_json(self, indent=None) -> str:
        return json.dumps(self.to_json_dict(), indent=indent)


def riccati_value(sys: LinearGSystem, P, x) -> float:
    """x' sym(PF + I) x + G(x' sym(2PH + C'PC) x) for a unit vector x."""
    P = _check_spd(P, sys.n)
    x = np.asarray(x, dtype=float).reshape(sys.n)
    if abs(np.linalg.norm(x) - 1.0) > 1e-9:
        raise ValueError("x must be a unit vector")
    quad_f = float(x @ _sym(P @ sys.F + np.eye(sys.n)) @ x)
    quad_c = float(x @ sys.coupling_matrix(P) @ x)
    return quad_f + g_scalar(sys.band, quad_c)


def _band_ends(sys: LinearGSystem, P, sign: float):
    """(alpha, lambda_lo, lambda_hi) for sign = +1 (largest eigenvalues) or
    -1 (smallest): lambda at sigma in {lo, hi} is the extreme eigenvalue of
    sym(2PF) + sign*I + sigma*M, and alpha that of M = sym(2PH + C'PC)."""
    extreme = np.max if sign > 0 else np.min
    coupling = sys.coupling_matrix(P)
    drift = _sym(2.0 * P @ sys.F) + sign * np.eye(sys.n)
    lam_lo, lam_hi = (float(extreme(np.linalg.eigvalsh(drift + sigma2 * coupling)))
                      for sigma2 in (sys.band.sigma2_lo, sys.band.sigma2_hi))
    return float(extreme(np.linalg.eigvalsh(coupling))), lam_lo, lam_hi


def lmi_stable(sys: LinearGSystem, P) -> Certificate:
    """Mean-square stability test: margin = -max over sigma in {lo, hi} of
    lambda_max(sym(2PF) + I + sigma*M), M = sym(2PH + C'PC), so that
    LV <= -(1 + margin)|x|^2 for V = x'Px, with equality along the top
    eigenvector; ``alpha`` reports alpha* = lambda_max(M)."""
    P = _check_spd(P, sys.n)
    alpha, lam_lo, lam_hi = _band_ends(sys, P, +1.0)
    margin = -max(lam_lo, lam_hi)
    kind = "ms_stable" if margin >= 0.0 else "inconclusive"
    return Certificate(kind, P, alpha, margin,
                       details={"lambda_max_lo": lam_lo, "lambda_max_hi": lam_hi})


def lmi_unstable(sys: LinearGSystem, P) -> Certificate:
    """Mean-square instability test, the mirror of lmi_stable: margin = min
    over sigma in {lo, hi} of lambda_min(sym(2PF) - I + sigma*M), so that
    under every scenario sigma in [lo, hi] the generator of V = x'Px is at
    least (1 + margin)|x|^2, and E|X_t|^2 grows exponentially when margin
    >= 0; ``alpha`` reports lambda_min(M)."""
    P = _check_spd(P, sys.n)
    alpha, lam_lo, lam_hi = _band_ends(sys, P, -1.0)
    margin = min(lam_lo, lam_hi)
    kind = "ms_unstable" if margin >= 0.0 else "inconclusive"
    return Certificate(kind, P, alpha, margin,
                       details={"lambda_min_lo": lam_lo, "lambda_min_hi": lam_hi})


@dataclass(frozen=True)
class PRange:
    """Open admissible interval (0, p_max) of moment exponents, or
    empty with a reason."""

    p_max: float
    case: str
    reason: str = ""

    @property
    def empty(self) -> bool:
        return not np.isfinite(self.p_max) or self.p_max <= 0.0

    def contains(self, p: float) -> bool:
        return (not self.empty) and 0.0 < p < self.p_max


def admissible_p_range(alpha1: float, alpha2: float, alpha3: float) -> PRange:
    """Admissible exponents p for exponential p-stability given the
    quadratic-form constants: case (a) alpha1 < 0 gives p < 2 + |alpha1|/alpha3^2;
    case (b) 0 <= alpha1 < alpha2^2 gives p < 2 - 2 alpha1/alpha2^2."""
    alpha1, alpha2, alpha3 = float(alpha1), float(alpha2), float(alpha3)
    if not (0.0 <= alpha2 < alpha3):
        raise ValueError(f"need 0 <= alpha2 < alpha3, got ({alpha2}, {alpha3})")
    if alpha1 < 0.0:
        return PRange(2.0 + abs(alpha1) / alpha3**2, case="a")
    if alpha2 > 0.0 and alpha1 < alpha2**2:
        return PRange(2.0 - 2.0 * alpha1 / alpha2**2, case="b")
    return PRange(float("nan"), case="none",
                  reason="neither alpha1 < 0 nor 0 <= alpha1 < alpha2^2 holds")


def default_p_candidates(n: int, count: int = 50, seed: int = 0, low: float = 0.05,
                         high: float = 20.0) -> list:
    """Identity plus seeded log-uniform diagonal SPD matrices."""
    gen = np.random.Generator(np.random.Philox(key=int(seed)))
    out = [np.eye(n)]
    for _ in range(count):
        diag = np.exp(gen.uniform(np.log(low), np.log(high), size=n))
        out.append(np.diag(diag))
    return out


def search_p(sys: LinearGSystem, candidates=None, seed: int = 0) -> Certificate:
    """Best-margin stability certificate over a candidate list of SPD
    matrices (the randomized default is a heuristic, not a synthesis)."""
    if candidates is None:
        candidates = default_p_candidates(sys.n, seed=seed)
    candidates = list(candidates)
    if not candidates:
        raise ValueError("candidate list must be nonempty")
    best = None
    for P in candidates:
        cert = lmi_stable(sys, P)
        if best is None or cert.margin > best.margin:
            best = cert
    best.details["candidates_tried"] = len(candidates)
    return best
