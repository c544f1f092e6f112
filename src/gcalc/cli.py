"""Command-line entry point: one subcommand per capability, JSON configs in,
CSV/JSON results out.

Exit codes separate "the math says no" from misuse: 0 on success or a
passing check, 2 when a certified check fails (a Lyapunov condition is
violated, a certificate is inconclusive, an experiment bound is broken),
and 1 on usage or config errors.  Diagnostics go to stderr; results go to
--out or stdout.  Outputs embed the config hash and seed, and identical
argv + config bytes produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import (
    CheckRegion,
    ConstantPolicy,
    LinearGSystem,
    LyapunovSpec,
    NotSPDError,
    PayoffError,
    PiecewiseConstantPolicy,
    PolicyError,
    PolicyFamily,
    SigmaBand,
    SpaceTimeGrid,
    TimeGrid,
    TruncationSchedule,
    __version__,
    check_growth_condition,
    check_stability_conditions,
    estimate_upper,
    find_cly_detailed,
    lmi_stable,
    lmi_unstable,
    load_system,
    load_uncertainty,
    search_p,
    simulate_batch,
    solve_localized,
    threshold_bangbang,
)
from . import experiments as exp_mod
from . import expr as expr_mod
from . import gheat as gheat_mod
from . import gsde as gsde_mod
from .lyapunov import RegionError, SuppliedDerivativeError
from .runio import config_hash, standard_comments, write_json, write_table

SUBCOMMANDS = ("simulate", "upper", "gheat", "gsde", "lyapunov", "linstab", "experiment")
# the numeric /params of gcalc lyapunov, read as float fields; others are ignored
_CHECK_PARAMS = ("c_ly", "p", "c1", "c2", "lambda", "lam")


class UsageError(Exception):
    """Bad flags, unreadable config, or a schema violation (exit 1)."""


class CheckFailed(Exception):
    """The requested certification did not hold (exit 2)."""


def _fetch(cfg, pointer: str, kind, required=True, default=None):
    """Walk a '/a/b' JSON pointer; type errors name the full pointer."""
    node = cfg
    for part in [p for p in pointer.split("/") if p]:
        if not isinstance(node, dict) or part not in node:
            if required:
                raise UsageError(f"missing config field at {pointer}")
            return default
        node = node[part]
    if kind is float and _is_number(node, (int, float)):
        return float(node)
    if kind is int and _is_number(node, int):
        return int(node)
    if kind is not None and not isinstance(node, kind):
        raise UsageError(f"config field {pointer} must be {getattr(kind, '__name__', kind)}")
    return node


def _is_number(node, kinds) -> bool:
    """A JSON number of the given Python types; true and false are not numbers."""
    return isinstance(node, kinds) and not isinstance(node, bool)


def _coerce(convert, value, pointer: str, what: str):
    """convert(value); a value it rejects is a config error naming the pointer."""
    try:
        return convert(value)
    except (IndexError, TypeError, ValueError):
        raise UsageError(f"config field {pointer} must be {what}")


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise UsageError(f"cannot read config {path}: {e}")
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as e:
        raise UsageError(f"config {path} is not valid JSON: {e}")
    if not isinstance(cfg, dict):
        raise UsageError("config root must be a JSON object")
    return cfg


def _uncertainty(cfg):
    try:
        keys = {k: cfg[k] for k in ("band", "dim", "members") if k in cfg}
        if not keys:
            raise UsageError("config needs /band or /dim + /members")
        return load_uncertainty(keys)
    except (ValueError, KeyError) as e:
        raise UsageError(f"bad uncertainty config at /band|/members: {e}")


def _time_grid(cfg) -> TimeGrid:
    t_end = _fetch(cfg, "/grid/t_end", float)
    n_steps = _fetch(cfg, "/grid/n_steps", int)
    if not t_end > 0.0:
        raise UsageError("config field /grid/t_end must be > 0")
    if n_steps < 1:
        raise UsageError("config field /grid/n_steps must be >= 1")
    return TimeGrid(t_end, n_steps)


def _policy(cfg, unc, pointer="/policy"):
    spec = _fetch(cfg, pointer, dict)
    kind = _fetch(cfg, f"{pointer}/kind", str)
    if kind == "constant":
        if "value" in spec:
            return ConstantPolicy(value=_fetch(cfg, f"{pointer}/value", float))
        return ConstantPolicy(index=_fetch(cfg, f"{pointer}/index", int))
    if kind == "piecewise":
        sched = _fetch(cfg, f"{pointer}/schedule", list)
        for i, entry in enumerate(sched):
            if not (isinstance(entry, list) and len(entry) == 2
                    and _is_number(entry[0], int) and _is_number(entry[1], (int, float))):
                raise UsageError(f"config field {pointer}/schedule/{i} must be [int step, number]")
        try:
            return PiecewiseConstantPolicy(sched)
        except (TypeError, ValueError) as e:
            raise UsageError(f"bad schedule at {pointer}/schedule: {e}")
    if kind == "bangbang_threshold":
        if not isinstance(unc, SigmaBand):
            raise UsageError(f"{pointer}/kind=bangbang_threshold needs a band")
        return threshold_bangbang(unc, _fetch(cfg, f"{pointer}/theta", float),
                                  hi_above=_fetch(cfg, f"{pointer}/hi_above", bool,
                                                  required=False, default=True))
    raise UsageError(f"unknown policy kind at {pointer}/kind: {kind!r}")


def _simulate(policy, unc, grid, seed, n_paths):
    """simulate_batch; a choice outside the uncertainty set names /policy."""
    try:
        return simulate_batch(policy, unc, grid, seed, n_paths)
    except PolicyError as e:
        raise UsageError(f"bad choice at /policy: {e}")


def _expression(cfg, pointer, variables):
    """The expression at pointer; syntax and name errors name the pointer."""
    try:
        return expr_mod.parse(_fetch(cfg, pointer, str), variables, cfg.get("constants"))
    except expr_mod.ExprError as e:
        raise UsageError(f"bad expression at {pointer}: {e}")


def _family(cfg, unc, pointer="/family") -> PolicyFamily:
    _fetch(cfg, pointer, dict)  # a family that is no object is a type error
    kind = _fetch(cfg, f"{pointer}/kind", str)
    if kind == "extreme_constants":
        return PolicyFamily.extreme_constants()
    if kind == "constants_only":
        return _coerce(PolicyFamily.constants_only,
                       _fetch(cfg, f"{pointer}/n", int, required=False, default=5),
                       f"{pointer}/n", "an int >= 1")
    if kind == "bangbang_threshold":
        if not isinstance(unc, SigmaBand):
            raise UsageError(f"{pointer}/kind=bangbang_threshold needs a band")
        return _coerce(PolicyFamily.bangbang_threshold, _fetch(cfg, f"{pointer}/thresholds", list),
                       f"{pointer}/thresholds", "a nonempty list of numbers")
    raise UsageError(f"unknown family kind at {pointer}/kind: {kind!r}")


def _open_out(args):
    if args.out is None:
        return sys.stdout, False
    out = Path(args.out)
    if out.exists() and not args.force:
        raise UsageError(f"output path {out} exists; pass --force to overwrite")
    return open(out, "w", newline=""), True


def _emit(args, comments, writer):
    fh, close = _open_out(args)
    try:
        writer(fh, comments)
    finally:
        if close:
            fh.close()


def _long_rows(header, rows):
    return ((i, name, value) for i, row in enumerate(rows) for name, value in zip(header, row))


def _maybe_long(args, fh, comments, header, rows):
    if args.format == "json":
        write_json(fh, {"header": list(header), "rows": [list(r) for r in rows]},
                   comments=comments)
    elif args.emit_plot_data:
        write_table(fh, ["row", "variable", "value"], _long_rows(header, rows), comments)
    else:
        write_table(fh, header, rows, comments)


def _report_out(args, fh, comments, doc):
    """JSON report, or a key,value CSV when --format csv is forced."""
    if args.format == "csv":
        rows = [(k, json.dumps(v) if isinstance(v, (dict, list)) else v)
                for k, v in doc.items()]
        write_table(fh, ["key", "value"], rows, comments)
    else:
        write_json(fh, doc, comments=comments)


def cmd_simulate(args, cfg, comments):
    unc = _uncertainty(cfg)
    grid = _time_grid(cfg)
    policy = _policy(cfg, unc)
    n_paths = _fetch(cfg, "/n_paths", int, required=False, default=1)
    if n_paths < 0:
        raise UsageError("config field /n_paths must be >= 0")
    batch = _simulate(policy, unc, grid, args.seed, n_paths)
    header, table = batch.table()
    header = ["path"] + header
    rows = [(p, *row) for p, block in enumerate(table.tolist()) for row in block]
    _emit(args, comments, lambda fh, c: _maybe_long(args, fh, c, header, rows))
    return 0


def cmd_upper(args, cfg, comments):
    unc = _uncertainty(cfg)
    grid = _time_grid(cfg)
    family = _family(cfg, unc)
    n_paths = _fetch(cfg, "/n_paths", int)
    if n_paths < 2:
        raise UsageError("config field /n_paths must be >= 2")
    d = unc.dim
    payoff_expr = _expression(cfg, "/payoff", ["t"] + [f"b{i + 1}" for i in range(d)] + ["qv"])

    def payoff(batch):
        # qv is the terminal quadratic-variation trace (the scalar qvar at d=1)
        env = {"t": batch.grid.t_end,
               "qv": np.einsum("pii->p", batch.qvar[:, -1])}
        for i in range(d):
            env[f"b{i + 1}"] = batch.b[:, -1, i]
        return np.broadcast_to(np.asarray(payoff_expr.eval(env), dtype=float), (len(batch),))

    try:
        report = estimate_upper(payoff, family, unc, grid, n_paths, args.seed)
    except PayoffError as e:
        raise UsageError(f"/payoff: {e}")

    _emit(args, comments, lambda fh, c: _report_out(args, fh, c, report.to_json_dict()))
    return 0


def cmd_gheat(args, cfg, comments):
    unc = _uncertainty(cfg)
    if not isinstance(unc, SigmaBand):
        raise UsageError("/band: the PDE solver is one-dimensional")
    payoff_expr = _expression(cfg, "/payoff", ["x"])
    x_lo = _fetch(cfg, "/grid/x_lo", float)
    x_hi = _fetch(cfg, "/grid/x_hi", float)
    nx = _fetch(cfg, "/grid/nx", int)
    T = _fetch(cfg, "/grid/T", float)
    nt = _fetch(cfg, "/grid/nt", int, required=False)
    if not x_lo < x_hi:
        raise UsageError("config field /grid/x_hi must be > /grid/x_lo")
    if nx < 3:
        raise UsageError("config field /grid/nx must be >= 3")
    if not T > 0.0:
        raise UsageError("config field /grid/T must be > 0")
    if nt is not None and nt < 0:
        raise UsageError("config field /grid/nt must be >= 1, or 0 or absent for the CFL count")
    grid = (SpaceTimeGrid(x_lo, x_hi, nx, T, nt) if nt
            else SpaceTimeGrid.with_cfl(x_lo, x_hi, nx, T, unc))
    try:
        sol = gheat_mod.solve_terminal(unc, lambda x: payoff_expr.eval({"x": x}), grid)
    except gheat_mod.CFLError as e:
        raise UsageError(f"/grid/nt: {e}")
    try:
        print(f"u(0, 0) = {sol.value_at(0.0):.6g}", file=sys.stderr)
    except ValueError as e:
        print(f"u(0, 0) not reported: {e}", file=sys.stderr)
    rows = np.column_stack([sol.x, sol.u]).tolist()
    _emit(args, comments, lambda fh, c: _maybe_long(args, fh, c, ["x", "u"], rows))
    return 0


def cmd_gsde(args, cfg, comments):
    try:
        coeffs, unc = load_system(cfg)
    except (KeyError, ValueError, expr_mod.ExprError) as e:
        raise UsageError(f"bad system config: {e}")
    grid = _time_grid(cfg)
    policy = _policy(cfg, unc)
    try:
        x0 = np.asarray(_fetch(cfg, "/x0", list), dtype=float).reshape(coeffs.n)
    except (TypeError, ValueError):
        raise UsageError(f"/x0 must hold n={coeffs.n} numbers")
    localized = "schedule" in cfg or coeffs.lipschitz_tag == "local"
    if localized:
        radii = cfg.get("schedule")
        try:
            schedule = TruncationSchedule(tuple(radii)) if radii else TruncationSchedule.doubling()
        except (TypeError, ValueError) as e:
            raise UsageError(f"bad radii at /schedule: {e}")
    batch = _simulate(policy, unc, grid, args.seed, 1)
    try:
        if localized:
            sol = solve_localized(coeffs, x0, batch, schedule)
            print(f"localization settled at radius {sol.n0_used:g}", file=sys.stderr)
        else:
            sol = gsde_mod.integrate(coeffs, x0, batch)
    except (gsde_mod.ExplosionSuspectedError, gsde_mod.BlowUpError) as e:
        raise CheckFailed(str(e))
    header = ["t"] + expr_mod.state_variables(coeffs.n)
    rows = np.column_stack([sol.t, sol.x[0]]).tolist()
    _emit(args, comments, lambda fh, c: _maybe_long(args, fh, c, header, rows))
    return 0


def cmd_lyapunov(args, cfg, comments):
    try:
        coeffs, unc = load_system(_fetch(cfg, "/system", dict))
    except (KeyError, ValueError, expr_mod.ExprError) as e:
        raise UsageError(f"bad config at /system: {e}")
    mode = cfg.get("mode", "finite_difference")
    if mode not in ("analytic", "finite_difference"):
        raise UsageError(f"unknown value at /mode: {mode!r}")
    n = coeffs.n
    variables = ["t"] + expr_mod.state_variables(n)

    def parsed(pointer, kind, dims=(), required=True):
        """The expression table at pointer (None if absent and not required);
        errors name the pointer."""
        src = _fetch(cfg, pointer, kind, required=required)
        if src is None:
            return None
        try:
            return expr_mod.table(src, dims, variables, cfg.get("constants"), pointer)
        except expr_mod.ExprError as e:
            raise UsageError(f"bad expression at {pointer}: {e}")
        except ValueError as e:  # a table of the wrong shape
            raise UsageError(str(e))

    _fetch(cfg, "/dV", dict, required=False)  # a /dV that is no object is a type error
    spec = LyapunovSpec(n, parsed("/V", str), mode=mode,
                        nonneg=_fetch(cfg, "/nonneg", bool, required=False, default=True),
                        dt=parsed("/dV/dt", str, required=False),
                        grad=parsed("/dV/grad", list, (n,), required=False),
                        hess=parsed("/dV/hess", list, (n, n), required=False))
    _fetch(cfg, "/region", dict)  # a /region that is no object is a type error
    t_start, t_end = _coerce(lambda t: (float(t[0]), float(t[1])), _fetch(cfg, "/region/t", list),
                             "/region/t", "[t_start, t_end]")
    if t_start != 0.0 or not t_end >= 0.0:
        raise UsageError("config field /region/t must be [0, t_end] with t_end >= 0")
    exclude_r0 = _fetch(cfg, "/region/exclude_r0", float, required=False, default=0.0)
    nt = _fetch(cfg, "/region/nt", int, required=False, default=2)
    if nt < 1:
        raise UsageError("config field /region/nt must be an int >= 1")
    try:
        region = CheckRegion(t_end, [tuple(axis) for axis in _fetch(cfg, "/region/box", list)],
                             exclude_r0, nt)
    except (TypeError, ValueError) as e:
        raise UsageError(f"bad region at /region/box: {e}")
    if region.n != n:
        raise UsageError(f"/region/box has {region.n} axes but the system has n={n}")
    condition = _fetch(cfg, "/condition", str)
    params = {name: _fetch(cfg, f"/params/{name}", float)
              for name in _fetch(cfg, "/params", dict, required=False, default={})
              if name in _CHECK_PARAMS}
    try:
        if condition == "growth":
            report = check_growth_condition(spec, coeffs, unc, region, params.get("c_ly", 0.0))
        elif condition == "find_cly":
            report = find_cly_detailed(spec, coeffs, unc, region)
        elif condition in ("sandwich", "nonpositive", "exp_stable", "exp_unstable"):
            report = check_stability_conditions(spec, coeffs, unc, region, params, condition)
        else:
            raise UsageError(f"unknown value at /condition: {condition!r}")
    except RegionError as e:
        raise UsageError(f"/V on /region: {e}")
    except SuppliedDerivativeError as e:
        raise UsageError(f"/dV/{e.entry} disagrees with /V: {e}")
    except expr_mod.ExprError as e:  # a kink of V or a singularity on the grid
        raise UsageError(f"/V on /region: {e}; keep it off the grid, "
                         "e.g. exclude a ball around 0 with /region/exclude_r0")
    except KeyError as e:
        raise UsageError(f"missing config field at /params/{e.args[0]}")
    except ValueError as e:
        raise UsageError(f"bad value at /params: {e}")
    _emit(args, comments, lambda fh, c: _report_out(args, fh, c, report.to_json_dict()))
    if condition != "find_cly" and not report.passed:
        raise CheckFailed(f"{report.condition}: max violation {report.max_violation:.3e} "
                          f"> tolerance {report.tolerance:.3e}")
    return 0


def cmd_linstab(args, cfg, comments):
    unc = _uncertainty(cfg)
    if not isinstance(unc, SigmaBand):
        raise UsageError("/band: linear certificates are for scalar-noise systems")
    n = _fetch(cfg, "/n", int)
    if n < 1:
        raise UsageError("config field /n must be >= 1")

    def matrix(name):
        what = f"a row-major list of {n}x{n} finite numbers"
        arr = _coerce(lambda v: np.asarray(v, dtype=float), _fetch(cfg, f"/{name}", list),
                      f"/{name}", what)
        if arr.size != n * n or not np.all(np.isfinite(arr)):
            raise UsageError(f"config field /{name} must be {what}")
        return arr.reshape(n, n)

    sys_ = LinearGSystem(matrix("F"), matrix("H"), matrix("C"), unc)
    mode = cfg.get("mode", "stable")
    if mode == "search":
        cert = search_p(sys_, seed=args.seed)
        conclusive = cert.kind == "ms_stable"
    else:
        P = matrix("P") if "P" in cfg else np.eye(n)
        if mode == "stable":
            certify, wanted = lmi_stable, "ms_stable"
        elif mode == "unstable":
            certify, wanted = lmi_unstable, "ms_unstable"
        else:
            raise UsageError(f"unknown value at /mode: {mode!r}")
        try:
            cert = certify(sys_, P)
        except NotSPDError as e:
            raise UsageError(f"/P: {e}")
        conclusive = cert.kind == wanted
    _emit(args, comments, lambda fh, c: _report_out(args, fh, c, cert.to_json_dict()))
    if not conclusive:
        raise CheckFailed(f"certificate inconclusive (margin {cert.margin:.3e})")
    return 0


def cmd_experiment(args, cfg, comments):
    kind = _fetch(cfg, "/kind", str)
    unc = _uncertainty(cfg)
    family = _family(cfg, unc)
    if kind == "bt_over_t":
        if not isinstance(unc, SigmaBand):
            raise UsageError("/dim: the |B_t|/t table is defined for d = 1 bands")
        try:
            t_values = _coerce(lambda ts: [float(t) for t in ts], _fetch(cfg, "/t_values", list),
                               "/t_values", "a list of numbers")
            result = exp_mod.bt_over_t(unc, family, t_values, _fetch(cfg, "/n_paths", int),
                                       args.seed)
        except exp_mod.ConfigError as e:
            raise UsageError(f"/t_values: {e}")
    elif kind in ("moment_decay", "lyapunov_exponent"):
        _fetch(cfg, "/model", dict)  # a /model that is no object is a type error
        model = exp_mod.GeometricModel(*(_fetch(cfg, f"/model/{name}", float)
                                         for name in ("alpha", "beta", "gamma", "x0")))
        try:
            ecfg = exp_mod.ExperimentConfig(
                system=model, unc=unc, p=_fetch(cfg, "/p", float), T=_fetch(cfg, "/T", float),
                dt=_fetch(cfg, "/dt", float), family=family,
                n_paths=_fetch(cfg, "/n_paths", int), seed=args.seed,
                lam=_fetch(cfg, "/lambda", float, required=False),
                times=tuple(cfg.get("times", ())),
            )
            runner = exp_mod.moment_decay_curve if kind == "moment_decay" else exp_mod.lyapunov_exponent
            result = runner(ecfg)
        except exp_mod.ConfigError as e:
            raise UsageError(f"/{e.field}: {e}" if e.field else str(e))
    else:
        raise UsageError(f"unknown value at /kind: {kind!r}")
    _emit(args, comments, lambda fh, c: _maybe_long(args, fh, c, result.header, result.rows))
    if not result.passed:
        raise CheckFailed(f"experiment {result.name} bound violated")
    return 0


_HANDLERS = {
    "simulate": cmd_simulate,
    "upper": cmd_upper,
    "gheat": cmd_gheat,
    "gsde": cmd_gsde,
    "lyapunov": cmd_lyapunov,
    "linstab": cmd_linstab,
    "experiment": cmd_experiment,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gcalc", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"gcalc {__version__}")
    sub = parser.add_subparsers(dest="subcommand", metavar="|".join(SUBCOMMANDS))
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default=None)
        p.add_argument("--threads", type=int, default=1, help="ignored; kept for compatibility")
        p.add_argument("--force", action="store_true", help="allow overwriting --out")
        p.add_argument("--emit-plot-data", action="store_true",
                       help="tidy long-format CSV instead of the wide table")
    return parser


_DEFAULT_FORMAT = {"simulate": "csv", "gheat": "csv", "gsde": "csv", "experiment": "csv",
                   "upper": "json", "lyapunov": "json", "linstab": "json"}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1
    if args.subcommand is None:
        parser.print_usage(sys.stderr)
        return 1
    if args.format is None:
        args.format = _DEFAULT_FORMAT[args.subcommand]
    try:
        cfg = _load_config(args.config)
        comments = standard_comments(config_hash(cfg), args.seed)
        return _HANDLERS[args.subcommand](args, cfg, comments)
    except UsageError as e:
        print(f"gcalc {args.subcommand}: error: {e}", file=sys.stderr)
        return 1
    except CheckFailed as e:
        print(f"gcalc {args.subcommand}: check failed: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
