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
import math
import sys
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np

from . import (
    ConfigError,
    ConstantPolicy,
    LinearGSystem,
    PiecewiseConstantPolicy,
    PolicyFamily,
    SpaceTimeGrid,
    TimeGrid,
    TruncationSchedule,
    __version__,
    estimate_upper,
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
from .lyapunov import (CONDITIONS, CheckRegion, LyapunovSpec, check_stability_conditions,
                       check_growth_condition, find_cly_detailed)  # noqa: F401 (for perfbench)
from .runio import config_hash, standard_comments, write_json, write_table

# the pointers of the library fields gcalc lyapunov sets; the others are under /params
_LYAPUNOV_FIELDS = {"v": "/V", "constants": "/constants", "mode": "/mode", "dt": "/dV/dt",
                    "grad": "/dV/grad", "hess": "/dV/hess", "t_end": "/region/t",
                    "box": "/region/box", "exclude_r0": "/region/exclude_r0", "nt": "/region/nt",
                    "condition": "/condition"}


class UsageError(Exception):
    """Bad flags, an unreadable config, or a value of the wrong JSON type (exit 1)."""

    field = None  # the pointer, if any, is in the message


def _fetch(cfg, pointer: str, kind, required=True, default=None):
    """Walk a '/a/b' JSON pointer; type errors name the full pointer.

    kind float takes any JSON number as a float; kind int takes any JSON
    number as given, since whether it is integral is the library's check."""
    node = cfg
    for part in [p for p in pointer.split("/") if p]:
        if not isinstance(node, dict) or part not in node:
            if required:
                raise UsageError(f"missing config field at {pointer}")
            return default
        node = node[part]
    if kind in (int, float) and _is_number(node):
        return float(node) if kind is float else node
    if kind is not None and (kind in (int, float) or not isinstance(node, kind)):
        raise UsageError(f"config field {pointer} must be {getattr(kind, '__name__', kind)}")
    return node


def _is_number(node) -> bool:
    """A JSON number; true and false are not numbers."""
    return isinstance(node, (int, float)) and not isinstance(node, bool)


def _numbers(cfg, pointer: str, depth=1, required=True):
    """The list at pointer as given: JSON numbers, or lists of them nested
    at most depth levels in all."""

    def ok(node, depth):
        return all(ok(v, depth - 1) if isinstance(v, list) and depth > 1
                   else _is_number(v) for v in node)

    node = _fetch(cfg, pointer, list, required)
    if node is not None and not ok(node, depth):
        raise UsageError(f"config field {pointer} must hold JSON numbers only")
    return node


@contextmanager
def _at(section="", **fields):
    """Give a ConfigError raised inside the JSON pointer of its field: the
    pointer that fields holds for its first part, else section/field, and
    section itself for an error that names no field."""
    try:
        yield
    except ConfigError as e:
        if e.field is None:
            e.field = section
        else:
            head, _, tail = e.field.partition("/")
            e.field = fields.get(head, f"{section}/{head}") + (f"/{tail}" if tail else "")
        raise


_OVERFLOW = object()  # json.loads's value of a number literal no float holds, like 1e400


def _number(kind):
    return lambda text: _OVERFLOW if math.isinf(float(text)) else kind(text)


def _reject_overflow(node, pointer=""):
    if node is _OVERFLOW:
        raise UsageError(f"config field {pointer} is a number too large for a float")
    for key, value in (node.items() if isinstance(node, dict)
                       else enumerate(node) if isinstance(node, list) else ()):
        _reject_overflow(value, f"{pointer}/{key}")


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise UsageError(f"cannot read config {path}: {e}")
    try:
        cfg = json.loads(text, parse_int=_number(int), parse_float=_number(float))
    except json.JSONDecodeError as e:
        raise UsageError(f"config {path} is not valid JSON: {e}")
    if not isinstance(cfg, dict):
        raise UsageError("config root must be a JSON object")
    _reject_overflow(cfg)
    return cfg


def _uncertainty(cfg):
    if "band" not in cfg and not ("dim" in cfg and "members" in cfg):
        raise UsageError("config needs /band or /dim + /members")
    _numbers(cfg, "/band", required=False)
    _numbers(cfg, "/members", depth=3, required=False)
    with _at():
        return load_uncertainty({k: cfg[k] for k in ("band", "dim", "members") if k in cfg})


def _time_grid(cfg) -> TimeGrid:
    with _at("/grid"):
        return TimeGrid(_fetch(cfg, "/grid/t_end", float), _fetch(cfg, "/grid/n_steps", int))


def _policy(cfg, unc, pointer="/policy"):
    spec = _fetch(cfg, pointer, dict)
    kind = _fetch(cfg, f"{pointer}/kind", str)
    with _at(pointer, band="/band"):
        if kind == "constant":
            if "value" in spec:
                return ConstantPolicy(value=_fetch(cfg, f"{pointer}/value", float))
            return ConstantPolicy(index=_fetch(cfg, f"{pointer}/index", int))
        if kind == "piecewise":
            schedule = _fetch(cfg, f"{pointer}/schedule", list)
            policy = PiecewiseConstantPolicy(schedule)
            for i, (_, value) in enumerate(schedule):
                if not _is_number(value):
                    raise UsageError(f"config field {pointer}/schedule/{i} must be [int step, number]")
            return policy
        if kind == "bangbang_threshold":
            return threshold_bangbang(unc, _fetch(cfg, f"{pointer}/theta", float),
                                      hi_above=_fetch(cfg, f"{pointer}/hi_above", bool,
                                                      required=False, default=True))
    raise UsageError(f"unknown policy kind at {pointer}/kind: {kind!r}")


def _expression(cfg, pointer, variables):
    """The expression at pointer, with the config's /constants."""
    with _at(pointer, constants="/constants"):
        return expr_mod.parse(_fetch(cfg, pointer, str), variables, cfg.get("constants"))


def _family(cfg, pointer="/family") -> PolicyFamily:
    _fetch(cfg, pointer, dict)  # a family that is no object is a type error
    kind = _fetch(cfg, f"{pointer}/kind", str)
    if kind == "extreme_constants":
        return PolicyFamily.extreme_constants()
    with _at(pointer):
        if kind == "constants_only":
            return PolicyFamily.constants_only(_fetch(cfg, f"{pointer}/n", int, required=False,
                                                      default=5))
        if kind == "bangbang_threshold":
            return PolicyFamily.bangbang_threshold(_numbers(cfg, f"{pointer}/thresholds"))
    raise UsageError(f"unknown family kind at {pointer}/kind: {kind!r}")


def cmd_simulate(args, cfg):
    unc = _uncertainty(cfg)
    grid = _time_grid(cfg)
    policy = _policy(cfg, unc)
    with _at():
        batch = simulate_batch(policy, unc, grid, args.seed,
                               _fetch(cfg, "/n_paths", int, required=False, default=1))
    header, table = batch.table()  # %.17g of its float path index is the %d text
    rows = table.reshape(-1, len(header))
    if args.format == "json":  # the path index stays a JSON integer
        rows = [(int(p), *row) for p, *row in rows.tolist()]
    return (header, rows), None


def cmd_upper(args, cfg):
    unc = _uncertainty(cfg)
    grid = _time_grid(cfg)
    family = _family(cfg)
    d = unc.dim
    payoff_expr = _expression(cfg, "/payoff", ["t"] + [f"b{i + 1}" for i in range(d)] + ["qv"])

    def payoff(batch):
        # qv is the terminal quadratic-variation trace (the scalar qvar at d=1)
        env = {"t": batch.grid.t_end,
               "qv": np.einsum("pii->p", batch.qvar[:, -1])}
        for i in range(d):
            env[f"b{i + 1}"] = batch.b[:, -1, i]
        return np.broadcast_to(np.asarray(payoff_expr.eval(env), dtype=float), (len(batch),))

    with _at():
        report = estimate_upper(payoff, family, unc, grid, _fetch(cfg, "/n_paths", int), args.seed)
    return report.to_json_dict(), None


def cmd_gheat(args, cfg):
    unc = _uncertainty(cfg)
    payoff_expr = _expression(cfg, "/payoff", ["x"])
    x_lo, x_hi, T = (_fetch(cfg, f"/grid/{name}", float) for name in ("x_lo", "x_hi", "T"))
    nx = _fetch(cfg, "/grid/nx", int)
    nt = _fetch(cfg, "/grid/nt", int, required=False)  # 0 or absent: the CFL count
    with _at("/grid", payoff="/payoff", band="/band"):
        grid = (SpaceTimeGrid(x_lo, x_hi, nx, T, nt) if nt
                else SpaceTimeGrid.with_cfl(x_lo, x_hi, nx, T, unc))
        sol = gheat_mod.solve_terminal(unc, lambda x: payoff_expr.eval({"x": x}), grid)
    try:
        print(f"u(0, 0) = {sol.value_at(0.0):.6g}", file=sys.stderr)
    except ValueError as e:
        print(f"u(0, 0) not reported: {e}", file=sys.stderr)
    return (["x", "u"], np.column_stack([sol.x, sol.u])), None


def cmd_gsde(args, cfg):
    with _at():
        coeffs, unc = load_system(cfg)
    grid = _time_grid(cfg)
    policy = _policy(cfg, unc)
    x0 = _numbers(cfg, "/x0")
    radii = _numbers(cfg, "/schedule", required=False)
    localized = radii is not None or coeffs.lipschitz_tag == "local"
    with _at(radii="/schedule"):
        schedule = TruncationSchedule(tuple(radii)) if radii else TruncationSchedule.doubling()
        batch = simulate_batch(policy, unc, grid, args.seed, 1)
        try:
            if localized:
                sol = solve_localized(coeffs, x0, batch, schedule)
                print(f"localization settled at radius {sol.n0_used:g}", file=sys.stderr)
            else:
                sol = gsde_mod.integrate(coeffs, x0, batch)
        except (gsde_mod.ExplosionSuspectedError, gsde_mod.BlowUpError) as e:
            return None, str(e)
    return (["t"] + expr_mod.state_variables(coeffs.n), np.column_stack([sol.t, sol.x[0]])), None


def cmd_lyapunov(args, cfg):
    with _at("/system"):
        coeffs, unc = load_system(_fetch(cfg, "/system", dict))
    _fetch(cfg, "/dV", dict, required=False)  # a /dV that is no object is a type error
    t = _numbers(cfg, "/region/t")
    if len(t) != 2 or t[0] != 0:
        raise UsageError("config field /region/t must be [0, t_end]")
    condition = _fetch(cfg, "/condition", str)
    params = _fetch(cfg, "/params", dict, required=False, default={})
    with _at("/params", **_LYAPUNOV_FIELDS):
        spec = LyapunovSpec(coeffs.n, _fetch(cfg, "/V", str),
                            mode=_fetch(cfg, "/mode", str, required=False, default="finite_difference"),
                            dt=_fetch(cfg, "/dV/dt", str, required=False),
                            grad=_fetch(cfg, "/dV/grad", list, required=False),
                            hess=_fetch(cfg, "/dV/hess", list, required=False),
                            constants=cfg.get("constants"),
                            nonneg=_fetch(cfg, "/nonneg", bool, required=False, default=True))
        region = CheckRegion(t[1], _numbers(cfg, "/region/box", depth=2),
                             _fetch(cfg, "/region/exclude_r0", float, required=False, default=0.0),
                             _fetch(cfg, "/region/nt", int, required=False, default=2))
        try:
            report = check_stability_conditions(spec, coeffs, unc, region, params, condition)
        except expr_mod.ExprError as e:  # a kink of V or a singularity on the grid
            raise UsageError(f"/V on /region: {e}; keep it off the grid, "
                             "e.g. exclude a ball around 0 with /region/exclude_r0")
    return report.to_json_dict(), CONDITIONS[condition].verdict and not report.passed and (
        f"{report.condition}: max violation {report.max_violation:.3e} "
        f"> tolerance {report.tolerance:.3e}")


def cmd_linstab(args, cfg):
    unc = _uncertainty(cfg)
    mode = _fetch(cfg, "/mode", str, required=False, default="stable")
    with _at():
        sys_ = LinearGSystem.from_rows(_fetch(cfg, "/n", int),
                                       *(_numbers(cfg, f"/{name}", depth=2) for name in "FHC"),
                                       unc)
        if mode == "search":
            cert = search_p(sys_, seed=args.seed)
        elif mode in ("stable", "unstable"):
            certify = lmi_stable if mode == "stable" else lmi_unstable
            cert = certify(sys_, _numbers(cfg, "/P", depth=2) if "P" in cfg else np.eye(sys_.n))
        else:
            raise UsageError(f"unknown value at /mode: {mode!r}")
    return cert.to_json_dict(), cert.kind == "inconclusive" and (
        f"certificate inconclusive (margin {cert.margin:.3e})")


def cmd_experiment(args, cfg):
    kind = _fetch(cfg, "/kind", str)
    unc = _uncertainty(cfg)
    family = _family(cfg)
    if kind == "bt_over_t":
        with _at():
            result = exp_mod.bt_over_t(unc, family, _numbers(cfg, "/t_values"),
                                       _fetch(cfg, "/n_paths", int), args.seed)
    elif kind in ("moment_decay", "lyapunov_exponent"):
        _fetch(cfg, "/model", dict)  # a /model that is no object is a type error
        model = exp_mod.GeometricModel(*(_fetch(cfg, f"/model/{name}", float)
                                         for name in ("alpha", "beta", "gamma", "x0")))
        runner = exp_mod.moment_decay_curve if kind == "moment_decay" else exp_mod.lyapunov_exponent
        with _at():
            result = runner(exp_mod.ExperimentConfig(
                system=model, unc=unc, p=_fetch(cfg, "/p", float), T=_fetch(cfg, "/T", float),
                dt=_fetch(cfg, "/dt", float), family=family,
                n_paths=_fetch(cfg, "/n_paths", int), seed=args.seed,
                lam=_fetch(cfg, "/lambda", float, required=False),
                times=tuple(_numbers(cfg, "/times", required=False) or ()),
            ))
    else:
        raise UsageError(f"unknown value at /kind: {kind!r}")
    return (result.header, result.rows), not result.passed and (
        f"experiment {result.name} bound violated")


_HANDLERS = {
    "simulate": cmd_simulate,
    "upper": cmd_upper,
    "gheat": cmd_gheat,
    "gsde": cmd_gsde,
    "lyapunov": cmd_lyapunov,
    "linstab": cmd_linstab,
    "experiment": cmd_experiment,
}


def _write(args, comments, output) -> None:
    """Write a handler's output to --out, or to stdout without --out.

    A report (a dict) is JSON, or key,value CSV under --format csv.  A table
    ((header, rows), rows a 2-D float array or a list of rows) is CSV, or
    JSON under --format json, or long-format CSV under --emit-plot-data.
    None (a gsde blow-up) writes nothing and creates no file.  An --out
    that exists without --force, or that cannot be opened, is a UsageError."""
    if output is None:
        return
    if args.out is not None and Path(args.out).exists() and not args.force:
        raise UsageError(f"output path {args.out} exists; pass --force to overwrite")
    try:
        target = nullcontext(sys.stdout) if args.out is None else open(args.out, "w", newline="")
    except OSError as e:
        raise UsageError(f"cannot write {args.out}: {e.strerror}")
    with target as fh:
        if isinstance(output, dict) and args.format != "csv":
            write_json(fh, output, comments=comments)
        elif isinstance(output, dict):
            write_table(fh, ["key", "value"], [(k, json.dumps(v) if isinstance(v, (dict, list))
                                                else v) for k, v in output.items()], comments)
        elif args.format == "json" or args.emit_plot_data:  # both take Python values
            header, rows = output
            rows = rows.tolist() if isinstance(rows, np.ndarray) else rows
            if args.format == "json":
                write_json(fh, {"header": list(header), "rows": [list(r) for r in rows]},
                           comments=comments)
            else:
                write_table(fh, ["row", "variable", "value"], ((i, name, value) for i, row
                            in enumerate(rows) for name, value in zip(header, row)), comments)
        else:
            write_table(fh, *output, comments)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gcalc", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"gcalc {__version__}")
    sub = parser.add_subparsers(dest="subcommand", metavar="|".join(_HANDLERS))
    for name in _HANDLERS:
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


def main(argv=None) -> int:
    """Run one subcommand.  Its handler returns (output, failure), failure
    false or the message of a failed check; _write writes the output, and a
    failure then prints one line and returns 2.  A usage or config error (a
    number no float holds, an --out that cannot be opened) returns 1."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1
    if args.subcommand is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        cfg = _load_config(args.config)
        comments = standard_comments(config_hash(cfg), args.seed)
        output, failure = _HANDLERS[args.subcommand](args, cfg)
        _write(args, comments, output)
    except (UsageError, ConfigError) as e:  # a library error's field is now a JSON pointer
        where = f"{e.field}: " if e.field else ""
        print(f"gcalc {args.subcommand}: error: {where}{e}", file=sys.stderr)
        return 1
    if failure:
        print(f"gcalc {args.subcommand}: check failed: {failure}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
