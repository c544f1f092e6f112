"""Grid certification of Lyapunov-type conditions for GSDEs.

The differential operator evaluated here is

    L V = dV/dt + sum_nu dV/dx_nu * f_nu + G(eta),
    eta_ij = sum_nu dV/dx_nu * (h_nu_ij + h_nu_ji)
           + sum_{mu,nu} d2V/dx_mu dx_nu * g_mu_i * g_nu_j,

with G the sublinear function of the uncertainty set and V's derivatives
symbolic; hand-written derivative tables are only compared with them.
Conditions of the form "for all (t, x)" are certified on finite grids:
every time value of the region paired with every state of its box.  A check
in which t appears in no table it evaluates (V and the supplied derivative
tables, and for L V also dV/dt, the gradient, the Hessian, f, h and g)
repeats the t = 0 slice bit for bit at every other time, so it evaluates
each state once, at t = 0; its report still counts every (t, x) point in
``grid_size``.  Reports carry a crude Lipschitz slack estimated from
adjacent grid differences so refinement behaviour can be judged.
Candidates like |x|^p with p < 2 are not twice differentiable at the
origin, so L V is not finite there: exclude a ball around 0 via the region.
"""

from __future__ import annotations

import numpy as np

from . import expr as expr_mod
from .gsde import CoefficientSet, integrate_batch
from .scenario import TimeGrid
from .uncertainty import SigmaBand, g_matrix, g_scalar
from .upper_expectation import bound_rows, evaluate_family


class RegionError(ValueError):
    pass


class SuppliedDerivativeError(ValueError):
    """A supplied derivative entry disagrees with V's symbolic derivative;
    ``entry`` names it as a path such as "dt", "grad/0" or "hess/0/1"."""

    def __init__(self, entry, message):
        super().__init__(message)
        self.entry = entry


class LyapunovSpec:
    """Candidate V(t, x) with expression tables for dV/dt, the gradient and
    the Hessian, which derivatives() evaluates.

    The tables are V's symbolic derivatives: dt_expr = dV/dt, grad_exprs[i]
    = dV/dx_i and hess_exprs[i][j] = d grad_i / dx_j.  Where V is not C^2
    (abs, pos, neg, min, max at their kinks) the derivatives are NaN, so
    eval_L rejects the point: keep kinks off the grid.

    Hand-written ``dt``, ``grad`` and ``hess`` tables, any of them, are kept
    in ``supplied`` and never evaluated in place of the symbolic ones: every
    grid check compares them with their symbolic twins (check_supplied).
    ``mode`` must be "analytic" or "finite_difference", the names older
    configs use; it changes nothing.
    """

    def __init__(self, n, v, mode="finite_difference", dt=None, grad=None, hess=None,
                 constants=None, nonneg=True):
        self.n = int(n)
        state = tuple(expr_mod.state_variables(self.n))
        variables = ("t",) + state
        self.v = expr_mod.table(v, (), variables, constants)
        if mode not in ("analytic", "finite_difference"):
            raise ValueError("mode must be 'analytic' or 'finite_difference'")
        self.nonneg = bool(nonneg)
        d = expr_mod.differentiate_symbolic
        self.dt_expr = d(self.v, "t")
        self.grad_exprs = expr_mod.table([d(self.v, x) for x in state], (self.n,), variables)
        self.hess_exprs = expr_mod.table([[d(g, x) for x in state] for g in self.grad_exprs],
                                         (self.n, self.n), variables)
        dims = {"dt": (), "grad": (self.n,), "hess": (self.n, self.n)}
        given = {"dt": dt, "grad": grad, "hess": hess}
        self.supplied = {name: expr_mod.table(src, dims[name], variables, constants, name)
                         for name, src in given.items() if src is not None}

    def value(self, t, x):
        x = np.asarray(x, dtype=float)
        shape = np.broadcast_shapes(np.shape(t), x.shape[:-1])
        return expr_mod.evaluate(self.v, expr_mod.bind(t, x), shape)

    def derivatives(self, t, x):
        """(dV/dt, gradient (..., n), Hessian (..., n, n)) at (t, x)."""
        x = np.asarray(x, dtype=float)
        shape = np.broadcast_shapes(np.shape(t), x.shape[:-1])
        env = expr_mod.bind(t, x)
        return (expr_mod.evaluate(self.dt_expr, env, shape),
                expr_mod.fill(self.grad_exprs, env, shape),
                expr_mod.fill(self.hess_exprs, env, shape))

    def check_supplied(self, t, x):
        """Raise SuppliedDerivativeError, naming the worst point, unless each
        supplied entry is within 1e-9 (1 + |s|) of its symbolic twin s at
        every point (t, x) where s is finite; where s is not, eval_L
        rejects the point."""
        x = np.asarray(x, dtype=float)
        shape = np.broadcast_shapes(np.shape(t), x.shape[:-1])
        env = expr_mod.bind(t, x)
        twins = {"dt": self.dt_expr, "grad": self.grad_exprs, "hess": self.hess_exprs}
        for name, tab in self.supplied.items():
            for (idx, given), (_, twin) in zip(_entries(tab), _entries(twins[name])):
                want = expr_mod.evaluate(twin, env, shape)
                got = expr_mod.evaluate(given, env, shape)
                with np.errstate(all="ignore"):
                    excess = np.abs(got - want) - 1e-9 * (1.0 + np.abs(want))
                bad = np.isfinite(want) & ~(excess <= 0.0)
                if np.any(bad):
                    # the largest excess, or the first NaN, which argmax ranks above all
                    i = np.unravel_index(np.argmax(np.where(bad, excess, -np.inf)), shape)
                    entry = "/".join([name, *map(str, idx[1:])])
                    tt = float(np.broadcast_to(t, shape)[i])
                    xx = np.broadcast_to(x, shape + x.shape[-1:])[i].tolist()
                    raise SuppliedDerivativeError(
                        entry, f"supplied {entry} is {float(got[i])!r} where V's symbolic "
                               f"derivative is {float(want[i])!r}, at t={tt}, x={xx}")


def _entries(tab):
    """(index, Expression) of every entry of a Table, or of one Expression."""
    return tab.leaves if isinstance(tab, expr_mod.Table) else [((...,), tab)]


class CheckRegion:
    """Rectangular (t, x) grid with an optional exclusion ball around 0.

    Its points pair every time value (``times``: ``nt`` >= 1 values from 0
    to ``t_end`` >= 0, or t = 0 alone when t_end is 0) with every state
    (``states``: the box lattice outside the ball)."""

    def __init__(self, t_end, box, exclude_r0=0.0, nt=2):
        self.t_end = float(t_end)
        if not self.t_end >= 0.0:
            raise RegionError("t_end must be >= 0")
        self.box = tuple((float(lo), float(hi), int(count)) for lo, hi, count in box)
        for lo, hi, count in self.box:
            if count < 2:
                raise RegionError("axis counts must be >= 2")
            if not lo < hi:
                raise RegionError("axis bounds need lo < hi")
        self.exclude_r0 = float(exclude_r0)
        self.nt = int(nt)
        if self.nt < 1:
            raise RegionError("nt must be >= 1")

    @property
    def n(self) -> int:
        return len(self.box)

    def times(self) -> np.ndarray:
        """The t values, ascending from 0."""
        return np.linspace(0.0, self.t_end, self.nt) if self.t_end > 0 else np.zeros(1)

    def states(self) -> np.ndarray:
        """The distinct states (S, n) in lattice order, after ball exclusion."""
        axes = [np.linspace(lo, hi, count) for lo, hi, count in self.box]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=-1)
        if self.exclude_r0 > 0.0:
            pts = pts[np.linalg.norm(pts, axis=-1) >= self.exclude_r0]
        if len(pts) == 0:
            raise RegionError("exclusion ball removed every grid point")
        return pts

    def grid(self):
        """Flattened (t values (M,), states (M, n)): every state at every
        time value, time-major."""
        pts, tvals = self.states(), self.times()
        return np.repeat(tvals, len(pts)), np.tile(pts, (len(tvals), 1))

    def contains(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        ok = np.ones(x.shape[:-1], dtype=bool)
        for i, (lo, hi, _) in enumerate(self.box):
            ok &= (x[..., i] >= lo) & (x[..., i] <= hi)
        return ok


class CheckReport:
    def __init__(self, condition, max_violation, argmax_t, argmax_x, tolerance, grid_size, diagnostics=None):
        self.condition = condition
        self.max_violation = float(max_violation)
        self.argmax_t = float(argmax_t)
        self.argmax_x = np.asarray(argmax_x, dtype=float)
        self.tolerance = float(tolerance)
        self.grid_size = int(grid_size)
        self.diagnostics = dict(diagnostics or {})

    @property
    def passed(self) -> bool:
        return self.max_violation <= self.tolerance

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    def to_json_dict(self) -> dict:
        return {
            "condition": self.condition,
            "max_violation": self.max_violation,
            "argmax": {"t": self.argmax_t, "x": self.argmax_x.tolist()},
            "tolerance": self.tolerance,
            "grid_size": self.grid_size,
            "verdict": self.verdict,
            "diagnostics": {k: (v.tolist() if isinstance(v, np.ndarray) else v) for k, v in self.diagnostics.items()},
        }

    def __repr__(self):
        return f"CheckReport({self.condition}: {self.verdict}, max_violation={self.max_violation:.3e})"


def eval_L(spec: LyapunovSpec, coeffs: CoefficientSet, unc, t, x):
    """L V at (t, x); broadcasts over stacked points x of shape (..., n).
    A non-finite value (V not C^2 there, or a singular coefficient) raises
    ExprError naming the first such point."""
    x = np.asarray(x, dtype=float)
    vt, grad, hess = spec.derivatives(t, x)
    fv, hv, gv = coeffs._eval_fhg(t, x)
    with np.errstate(all="ignore"):  # a non-finite point raises below
        h_sym = hv + np.swapaxes(hv, -1, -2)
        eta = np.einsum("...n,...nij->...ij", grad, h_sym) + np.einsum(
            "...mn,...mi,...nj->...ij", hess, gv, gv
        )
        if isinstance(unc, SigmaBand):
            gval = g_scalar(unc, eta[..., 0, 0])
        else:
            gval = g_matrix(unc, eta)
        out = vt + np.einsum("...n,...n->...", grad, fv) + gval
    finite = np.isfinite(out)
    if not np.all(finite):
        i = np.unravel_index(np.argmin(finite), out.shape)
        tt = float(np.broadcast_to(t, out.shape)[i])
        xx = np.broadcast_to(x, out.shape + x.shape[-1:])[i].tolist()
        raise expr_mod.ExprError(f"L V is not finite at t={tt}, x={xx}")
    return float(out) if np.ndim(out) == 0 else out


def _lipschitz_slack(values, region: CheckRegion, n_states: int):
    """Half-cell bound on how much a grid max can move under refinement;
    ``values`` holds one or more time slices of ``n_states`` states each."""
    shape = tuple(count for _, _, count in region.box)
    if n_states != int(np.prod(shape)):
        return None  # exclusion ball broke the lattice; skip the estimate
    grid_vals = values.reshape((-1,) + shape)
    slack = 0.0
    for axis in range(1, grid_vals.ndim):
        if grid_vals.shape[axis] > 1:
            # two adjacent infinite values of one sign differ by nan
            with np.errstate(invalid="ignore"):
                step = np.diff(grid_vals, axis=axis)
            slack = max(slack, 0.5 * float(np.max(np.abs(step))))
    return slack


def _report(condition, violations, T, X, n_states, vscale, region, extra=None):
    """The report of the largest violation; the grid size counts every
    (t, x) point of the region, including time slices left unevaluated."""
    idx = int(np.argmax(violations))
    tol = 1e-9 * (1.0 + vscale)
    diag = dict(extra or {})
    slack = _lipschitz_slack(violations, region, n_states)
    if slack is not None:
        diag["lipschitz_slack"] = slack
    grid_size = len(region.times()) * n_states
    return CheckReport(condition, violations[idx], T[idx], X[idx], tol, grid_size, diag)


def _grid_v_lv(spec, coeffs, unc, region, vet=None, with_lv=True):
    """Points T, X of the region's grid, V there, (if with_lv) L V there, and
    the number of distinct states.

    When t is free in no table the check evaluates (V; with L V also dV/dt,
    the gradient, the Hessian, f, h and g), every time slice repeats the
    t = 0 slice bit for bit, since elementwise ufuncs and einsum treat each
    point on its own.  T and X then hold that slice alone, each state once;
    otherwise they hold every (t, x) point, time-major.  Either way argmax
    finds the same first point and an error names the same point.

    ``vet(T, X, v)`` rejects a V unfit for the check; then the supplied
    derivative tables, which count among the tables evaluated, are checked
    against the symbolic ones; then L V is formed."""
    tables = [spec.v, *spec.supplied.values()]
    if with_lv:
        tables += [spec.dt_expr, spec.grad_exprs, spec.hess_exprs, coeffs.f, coeffs.h, coeffs.g]
    states, tvals = region.states(), region.times()
    if not any("t" in tab.free_variables for tab in tables):
        tvals = tvals[:1]
    T, X = np.repeat(tvals, len(states)), np.tile(states, (len(tvals), 1))
    v = spec.value(T, X)
    if vet is not None:
        vet(T, X, v)
    spec.check_supplied(T, X)
    return T, X, v, (eval_L(spec, coeffs, unc, T, X) if with_lv else None), len(states)


def check_growth_condition(spec: LyapunovSpec, coeffs: CoefficientSet, unc,
                           region: CheckRegion, c_ly: float) -> CheckReport:
    """Grid max of L V - c_ly V; passes when <= 1e-9*(1 + max|V|)."""
    if c_ly < 0:
        raise ValueError("c_ly must be >= 0")

    def vet(T, X, v):
        if spec.nonneg and np.min(v) < -1e-12:
            i = int(np.argmin(v))
            raise RegionError(f"V is negative at t={T[i]}, x={X[i].tolist()} but the nonneg flag is set")

    T, X, v, lv, n_states = _grid_v_lv(spec, coeffs, unc, region, vet)
    violations = lv - c_ly * v
    return _report(f"LV <= {c_ly:g} V", violations, T, X, n_states, float(np.max(np.abs(v))),
                   region)


def find_cly(spec: LyapunovSpec, coeffs: CoefficientSet, unc, region: CheckRegion,
             v_min: float = 1e-8) -> float:
    """Smallest grid-certified constant c with L V <= c V, clipped at 0."""
    return find_cly_detailed(spec, coeffs, unc, region, v_min).diagnostics["clipped"]


def find_cly_detailed(spec: LyapunovSpec, coeffs: CoefficientSet, unc, region: CheckRegion,
                      v_min: float = 1e-8) -> CheckReport:
    def vet(T, X, v):
        if np.min(v) < v_min:
            i = int(np.argmin(v))
            raise RegionError(
                f"V(t={T[i]}, x={X[i].tolist()}) = {v[i]:.3e} < v_min={v_min:g}; "
                "exclude a ball around the origin or raise v_min"
            )

    T, X, v, lv, n_states = _grid_v_lv(spec, coeffs, unc, region, vet)
    ratios = lv / v
    raw = float(np.max(ratios))
    return _report("min c with LV <= c V", ratios, T, X, n_states, float(np.max(np.abs(v))),
                   region, extra={"raw": raw, "clipped": max(raw, 0.0)})


_CONDITIONS = ("sandwich", "nonpositive", "exp_stable", "exp_unstable")


def check_stability_conditions(spec: LyapunovSpec, coeffs: CoefficientSet, unc,
                               region: CheckRegion, params: dict, which: str) -> CheckReport:
    """Signed grid violation of one stability hypothesis.

    sandwich:      c1 |x|^p <= V <= c2 |x|^p
    nonpositive:   L V <= 0
    exp_stable:    L V <= -lambda V
    exp_unstable:  L V >= +lambda V
    """
    if which not in _CONDITIONS:
        raise ValueError(f"which must be one of {_CONDITIONS}")
    T, X, v, lv, n_states = _grid_v_lv(spec, coeffs, unc, region, with_lv=which != "sandwich")
    vscale = float(np.max(np.abs(v)))
    if which == "sandwich":
        p = float(params["p"])
        c1, c2 = float(params["c1"]), float(params["c2"])
        if p <= 0 or c1 <= 0 or c2 <= 0:
            raise ValueError("need p, c1, c2 > 0")
        xp = np.linalg.norm(X, axis=-1) ** p
        violations = np.maximum(c1 * xp - v, v - c2 * xp)
        return _report(f"{c1:g}|x|^{p:g} <= V <= {c2:g}|x|^{p:g}", violations, T, X,
                       n_states, max(vscale, float(np.max(xp))), region)
    if which == "nonpositive":
        return _report("LV <= 0", lv, T, X, n_states, vscale, region)
    lam = float(params["lam"] if "lam" in params and "lambda" not in params else params["lambda"])
    if lam <= 0:
        raise ValueError("need lambda > 0")
    if which == "exp_stable":
        violations = lv + lam * v
        return _report(f"LV <= -{lam:g} V", violations, T, X, n_states, vscale, region)
    violations = lam * v - lv
    return _report(f"LV >= {lam:g} V", violations, T, X, n_states, vscale, region)


class MomentBoundReport:
    """Per-time comparison of the estimated upper expectation of V(t, X_t)
    against exp(c_ly t) V(0, x0), with the 5% + 3 s.e. one-sided margin
    (the estimator lower-bounds the target, so violations are meaningful)."""

    def __init__(self, rows, passed, region_exceeded=None, details=None):
        self.rows = rows  # (t, estimate, se, bound, ok)
        self.passed = bool(passed)
        self.region_exceeded = region_exceeded
        self.details = dict(details or {})

    @property
    def verdict(self) -> str:
        if self.region_exceeded:
            return "region_exceeded"
        return "pass" if self.passed else "fail"

    def to_json_dict(self) -> dict:
        return {
            "rows": [
                {"t": t, "estimate": est, "se": se, "bound": bnd, "ok": bool(ok)}
                for (t, est, se, bnd, ok) in self.rows
            ],
            "verdict": self.verdict,
            **({"region_exceeded": self.region_exceeded} if self.region_exceeded else {}),
            **({"details": self.details} if self.details else {}),
        }


def verify_moment_bound(spec: LyapunovSpec, coeffs: CoefficientSet, unc, x0, times,
                        family, n_paths: int, seed: int, c_ly: float,
                        n_steps: int = None, region: CheckRegion = None,
                        slack: float = 0.05) -> MomentBoundReport:
    """Simulate the system under every policy in the family and check
    max-policy mean of V(t, X_t) <= exp(c_ly t) V(0, x0) (1 + slack) + 3 se."""
    times = sorted(float(t) for t in times)
    if not times or times[0] < 0:
        raise ValueError("times must be nonnegative")
    T = times[-1]
    grid = TimeGrid(T, n_steps if n_steps else max(200, int(round(200 * T))))
    indices = [grid.index_of(t) for t in times]
    x0 = np.asarray(x0, dtype=float).reshape(coeffs.n)
    v0 = float(spec.value(0.0, x0[None])[0])
    tarr = np.asarray(times)[None, :]

    def sample(batch):
        """V at the reported times, and the largest |X| if X leaves the region."""
        sol = integrate_batch(coeffs, x0, batch)
        left = region is not None and not region.contains(sol.x).all()
        states = sol.x[:, indices, :]  # (P, m, n)
        vals = spec.value(np.broadcast_to(tarr, states.shape[:2]), states)
        return vals, (float(np.max(sol.norms)) if left else None)

    policies, samples = evaluate_family(sample, family, unc, grid, n_paths, seed)
    excursion = None
    for policy, (_, worst) in zip(policies, samples):
        if worst is not None:
            excursion = {"policy": policy.describe(), "max_norm": worst}
    bounds = [float(np.exp(c_ly * t) * v0) for t in times]
    rows, all_ok = bound_rows(times, [vals for vals, _ in samples], bounds, slack)
    return MomentBoundReport(rows, all_ok and excursion is None, region_exceeded=excursion,
                             details={"v0": v0, "c_ly": c_ly, "n_paths": n_paths, "seed": seed})
