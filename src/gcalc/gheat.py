"""Explicit monotone finite-difference solver for the one-dimensional
fully nonlinear heat equation du/dt - G(u_xx) = 0 with terminal data.

The nonlinearity is piecewise linear in u_xx, so explicit time stepping
under the CFL restriction dt <= dx^2 / sigma2_hi is monotone and converges
to the viscosity solution.  Boundary rows evolve with their second
difference forced to zero (linear extrapolation), which is adequate when
the domain is padded well beyond the diffusion range of the data.

Payoffs of one terminal value are handled by solve_terminal; two
observation times by the backward recursion in solve_two_step.  Deeper
recursions would need tensor-product grids and are out of scope, as is any
multi-dimensional state (use the Monte Carlo estimator there).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .runio import write_table
from .uncertainty import SigmaBand, g_scalar


class CFLError(ValueError):
    def __init__(self, nt: int, nt_min: int):
        super().__init__(
            f"time resolution violates dt <= dx^2/sigma2_hi: nt={nt}, minimal admissible nt={nt_min}"
        )
        self.nt_min = nt_min


@dataclass(frozen=True)
class SpaceTimeGrid:
    x_lo: float
    x_hi: float
    nx: int
    T: float
    nt: int

    def __post_init__(self):
        if not (self.x_lo < self.x_hi):
            raise ValueError("need x_lo < x_hi")
        if int(self.nx) < 3:
            raise ValueError("nx must be >= 3")
        if not (float(self.T) > 0.0):
            raise ValueError("T must be > 0")
        if int(self.nt) < 1:
            raise ValueError("nt must be >= 1")
        object.__setattr__(self, "x_lo", float(self.x_lo))
        object.__setattr__(self, "x_hi", float(self.x_hi))
        object.__setattr__(self, "nx", int(self.nx))
        object.__setattr__(self, "T", float(self.T))
        object.__setattr__(self, "nt", int(self.nt))

    @property
    def dx(self) -> float:
        return (self.x_hi - self.x_lo) / (self.nx - 1)

    @property
    def dt(self) -> float:
        return self.T / self.nt

    @property
    def x(self) -> np.ndarray:
        return np.linspace(self.x_lo, self.x_hi, self.nx)

    def min_nt(self, band: SigmaBand) -> int:
        return max(1, math.ceil(self.T * band.sigma2_hi / self.dx**2 * (1.0 + 1e-12)))

    def check_cfl(self, band: SigmaBand) -> None:
        nt_min = self.min_nt(band)
        if self.nt < nt_min:
            raise CFLError(self.nt, nt_min)

    @classmethod
    def with_cfl(cls, x_lo, x_hi, nx, T, band: SigmaBand, safety: float = 0.9):
        """Grid with the smallest nt meeting the CFL bound scaled by safety."""
        tmp = cls(x_lo, x_hi, nx, T, 1)
        nt = max(1, math.ceil(T * band.sigma2_hi / (safety * tmp.dx**2)))
        return cls(x_lo, x_hi, nx, T, nt)


class GHeatSolution:
    """Value function u(0, .) sampled on the spatial grid."""

    def __init__(self, grid: SpaceTimeGrid, u: np.ndarray):
        self.grid = grid
        self.x = grid.x
        self.u = u

    def value_at(self, xq) -> float:
        """Linear interpolation of u(0, .)."""
        return float(np.interp(xq, self.x, self.u))

    def to_csv(self, target) -> None:
        write_table(target, ["x", "u"], np.column_stack([self.x, self.u]))


def _step(v: np.ndarray, band: SigmaBand, dt: float, dx: float) -> None:
    """One explicit step in the reversed time s = T - t, in place.

    Works on the last axis, so a stack of value rows steps together.
    Boundary entries keep second difference zero and hence stay fixed.
    """
    d2 = (v[..., 2:] - 2.0 * v[..., 1:-1] + v[..., :-2]) / (dx * dx)
    v[..., 1:-1] += dt * g_scalar(band, d2)


def solve_terminal(band: SigmaBand, payoff, grid: SpaceTimeGrid) -> GHeatSolution:
    """March the terminal data payoff, a vectorised callable, back to time 0.

    Polynomially growing payoffs carry a domain-truncation caveat: pad the
    grid to several diffusion standard deviations past the evaluation region.
    """
    grid.check_cfl(band)
    with np.errstate(all="ignore"):
        v = np.asarray(payoff(grid.x), dtype=float).copy()
    if v.shape != grid.x.shape:
        raise ValueError("payoff must evaluate elementwise on the grid")
    if not np.all(np.isfinite(v)):
        raise ValueError("payoff is not finite on the grid")
    for _ in range(grid.nt):
        _step(v, band, grid.dt, grid.dx)
    return GHeatSolution(grid, v)


def solve_two_step(band: SigmaBand, phi2, t1: float, t2: float,
                   outer_grid: SpaceTimeGrid, inner_grid: SpaceTimeGrid) -> float:
    """Value at (0, 0) of the two-time functional phi2(B_t1, B_t2 - B_t1).

    Backward recursion with two stages: for every first-argument value x1 on
    the outer grid, the inner stage evolves phi2(x1, .) from t2 back to t1
    and is read off at increment 0; the outer stage evolves that function of
    x1 from t1 back to 0 and is read off at 0.  Grid T fields must equal the
    stage durations (t2 - t1 and t1).
    """
    if not (0.0 <= t1 < t2):
        raise ValueError("need 0 <= t1 < t2")
    if abs(inner_grid.T - (t2 - t1)) > 1e-12:
        raise ValueError("inner grid T must equal t2 - t1")
    inner_grid.check_cfl(band)
    x1 = outer_grid.x
    x2 = inner_grid.x
    v = np.asarray(phi2(x1[:, None], x2[None, :]), dtype=float)
    v = np.broadcast_to(v, (len(x1), len(x2))).copy()
    if not np.all(np.isfinite(v)):
        raise ValueError("phi2 is not finite on the grid")
    for _ in range(inner_grid.nt):
        _step(v, band, inner_grid.dt, inner_grid.dx)
    # inner value at increment 0, for each x1
    psi = np.array([np.interp(0.0, x2, row) for row in v])
    if t1 == 0.0:
        return float(np.interp(0.0, x1, psi))
    if abs(outer_grid.T - t1) > 1e-12:
        raise ValueError("outer grid T must equal t1")
    outer_grid.check_cfl(band)
    w = psi.copy()
    for _ in range(outer_grid.nt):
        _step(w, band, outer_grid.dt, outer_grid.dx)
    return float(np.interp(0.0, x1, w))
