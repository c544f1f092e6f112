"""Explicit monotone finite-difference solver for the one-dimensional
fully nonlinear heat equation du/dt - G(u_xx) = 0 with terminal data.

The nonlinearity is piecewise linear in u_xx, so explicit time stepping
under the CFL restriction dt <= dx^2 / sigma2_hi is monotone and converges
to the viscosity solution.  Boundary rows evolve with their second
difference forced to zero (linear extrapolation), which is adequate when
the domain is padded well beyond the diffusion range of the data.

Every solve runs one march: all nt steps in place, with numpy's out= into
scratch allocated once per march.  A step is eleven ufunc calls in this
order: d2 = ((r - 2c) + l) / dx^2 (multiply, subtract, add, true_divide),
G(d2) = 0.5 * (max(hi*d2, lo*d2) + 0.0) (two multiplies, maximum, add,
multiply; uncertainty.g_scalar, the one temporary being lo*d2), then
c += dt * G(d2) (multiply, add), so the bits are those of the plain array
expression.  On a row of a few thousand cells each call costs one to two
microseconds of numpy overhead, far more than its arithmetic, so the
count of calls sets the cost of a step.
A stack of value rows (the inner stage of solve_two_step) is marched in
blocks of rows that fit a per-core L2 cache, each copied to column-major
order so that every ufunc runs on contiguous memory; rows do not interact,
so blocking and layout reorder work and not arithmetic.

Payoffs of one terminal value are handled by solve_terminal; two
observation times by the backward recursion in solve_two_step.  Deeper
recursions would need tensor-product grids and are out of scope, as is any
multi-dimensional state (use the Monte Carlo estimator there).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, integer
from .runio import write_table
from .uncertainty import SigmaBand, g_scalar, require_band


class CFLError(ConfigError):
    def __init__(self, nt: int, nt_min: int):
        super().__init__(
            f"time resolution violates dt <= dx^2/sigma2_hi: nt={nt}, minimal admissible nt={nt_min}",
            "nt",
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
            raise ConfigError(f"need x_lo < x_hi, got [{self.x_lo!r}, {self.x_hi!r}]", "x_hi")
        if not (float(self.T) > 0.0):
            raise ConfigError(f"T must be > 0, got {self.T!r}", "T")
        object.__setattr__(self, "x_lo", float(self.x_lo))
        object.__setattr__(self, "x_hi", float(self.x_hi))
        object.__setattr__(self, "nx", integer(self.nx, "nx", 3))
        object.__setattr__(self, "T", float(self.T))
        object.__setattr__(self, "nt", integer(self.nt, "nt", 1))

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
        hi = require_band(band, "the G-heat solver").sigma2_hi
        return max(1, math.ceil(self.T * hi / self.dx**2 * (1.0 + 1e-12)))

    def check_cfl(self, band: SigmaBand) -> None:
        nt_min = self.min_nt(band)
        if self.nt < nt_min:
            raise CFLError(self.nt, nt_min)

    @classmethod
    def with_cfl(cls, x_lo, x_hi, nx, T, band: SigmaBand, safety: float = 0.9):
        """Grid with the smallest nt meeting the CFL bound scaled by safety."""
        hi = require_band(band, "the G-heat solver").sigma2_hi
        tmp = cls(x_lo, x_hi, nx, T, 1)
        nt = max(1, math.ceil(T * hi / (safety * tmp.dx**2)))
        return cls(x_lo, x_hi, nx, T, nt)


class GHeatSolution:
    """Value function u(0, .) sampled on the spatial grid."""

    def __init__(self, grid: SpaceTimeGrid, u: np.ndarray):
        self.grid = grid
        self.x = grid.x
        self.u = u

    def value_at(self, xq) -> float:
        """Linear interpolation of u(0, .); ValueError off [x_lo, x_hi]."""
        if not self.grid.x_lo <= xq <= self.grid.x_hi:
            raise ValueError(f"x = {xq:g} is off the grid [{self.grid.x_lo:g}, {self.grid.x_hi:g}]")
        return float(np.interp(xq, self.x, self.u))

    def to_csv(self, target) -> None:
        write_table(target, ["x", "u"], np.column_stack([self.x, self.u]))


# bytes of value rows marched as one block; with the block's d2 scratch and
# G's temporary, three arrays of about this size stay in a per-core L2 cache
_BLOCK_BYTES = 256 * 1024


def _march(v: np.ndarray, band: SigmaBand, dt: float, dx: float, nt: int) -> None:
    """nt explicit steps in the reversed time s = T - t, in place on v.

    v is one row of values or a 2-D stack of rows; the march works on the
    last axis.  The rows do not interact, so they step independently, one
    block of at most _BLOCK_BYTES after the other.  Each block is copied
    into a column-major scratch, so that the stencil runs down its first
    axis and every ufunc reads and writes contiguous memory, and copied
    back after its nt steps.  A step computes d2 = ((r - 2c) + l) / dx^2 on
    the interior c and adds dt * G(d2) to it, through numpy's out= into a
    second scratch; both are allocated once per march (G allocates one
    temporary per call).  Boundary entries keep second difference zero and
    hence stay fixed.
    """
    rows = v.reshape(-1, v.shape[-1])
    nx = rows.shape[1]
    width = min(len(rows), max(1, _BLOCK_BYTES // rows[0].nbytes))
    cells, scratch = np.empty(nx * width), np.empty((nx - 2) * width)
    dx2 = dx * dx
    for i in range(0, len(rows), width):
        block = rows[i:i + width]
        cols = cells[:nx * len(block)].reshape(nx, len(block))
        cols[...] = block.T
        left, centre, right = cols[:-2], cols[1:-1], cols[2:]
        d2 = scratch[:(nx - 2) * len(block)].reshape(nx - 2, len(block))
        for _ in range(nt):
            np.multiply(2.0, centre, out=d2)
            np.subtract(right, d2, out=d2)
            np.add(d2, left, out=d2)
            np.true_divide(d2, dx2, out=d2)
            g_scalar(band, d2, out=d2)
            np.multiply(dt, d2, out=d2)
            np.add(centre, d2, out=centre)
        block[...] = cols.T


def solve_terminal(band: SigmaBand, payoff, grid: SpaceTimeGrid) -> GHeatSolution:
    """March the terminal data payoff, a vectorised callable, back to time 0.

    One march of grid.nt steps on the row of grid values.

    Polynomially growing payoffs carry a domain-truncation caveat: pad the
    grid to several diffusion standard deviations past the evaluation region.
    """
    grid.check_cfl(band)
    with np.errstate(all="ignore"):
        v = np.asarray(payoff(grid.x), dtype=float).copy()
    if v.shape != grid.x.shape:
        raise ConfigError("payoff must evaluate elementwise on the grid", "payoff")
    if not np.all(np.isfinite(v)):
        raise ConfigError("payoff is not finite on the grid", "payoff")
    _march(v, band, grid.dt, grid.dx, grid.nt)
    return GHeatSolution(grid, v)


def solve_two_step(band: SigmaBand, phi2, t1: float, t2: float,
                   outer_grid: SpaceTimeGrid, inner_grid: SpaceTimeGrid) -> float:
    """Value at (0, 0) of the two-time functional phi2(B_t1, B_t2 - B_t1).

    Backward recursion with two stages: for every first-argument value x1 on
    the outer grid, the inner stage evolves phi2(x1, .) from t2 back to t1
    and is read off at increment 0; the outer stage evolves that function of
    x1 from t1 back to 0 and is read off at 0.  Grid T fields must equal the
    stage durations (t2 - t1 and t1), and both x ranges must contain 0.

    The inner stage is one march of the (outer nx, inner nx) stack, whose
    rows step independently, block by block; the outer stage marches one
    row.
    """
    if not (0.0 <= t1 < t2):
        raise ValueError("need 0 <= t1 < t2")
    for name, grid in (("outer", outer_grid), ("inner", inner_grid)):
        if not grid.x_lo <= 0.0 <= grid.x_hi:
            raise ValueError(f"{name} grid x range must contain 0")
    if abs(inner_grid.T - (t2 - t1)) > 1e-12:
        raise ValueError("inner grid T must equal t2 - t1")
    inner_grid.check_cfl(band)
    x1 = outer_grid.x
    x2 = inner_grid.x
    v = np.asarray(phi2(x1[:, None], x2[None, :]), dtype=float)
    v = np.broadcast_to(v, (len(x1), len(x2))).copy()
    if not np.all(np.isfinite(v)):
        raise ValueError("phi2 is not finite on the grid")
    _march(v, band, inner_grid.dt, inner_grid.dx, inner_grid.nt)
    # inner value at increment 0, for each x1
    psi = np.array([np.interp(0.0, x2, row) for row in v])
    if t1 == 0.0:
        return float(np.interp(0.0, x1, psi))
    if abs(outer_grid.T - t1) > 1e-12:
        raise ValueError("outer grid T must equal t1")
    outer_grid.check_cfl(band)
    _march(psi, band, outer_grid.dt, outer_grid.dx, outer_grid.nt)
    return float(np.interp(0.0, x1, psi))
