"""Where a traced pass puts its spans, and the per-layer figures read off them.

Layer names are gcalc's module names.  A figure of a layer that the
workload does not exercise reads 0.
"""

from __future__ import annotations

from collections import defaultdict

from spans import self_seconds

LAYERS = ("cli", "runio", "upper_expectation", "scenario", "expr", "experiments", "gsde",
          "lyapunov", "gheat", "linstab", "uncertainty")

# name -> (unit, better); the order is the order of the report
PER_LAYER = {
    "scenario.noise_s": ("s", "lower"),
    "scenario.noise_paths_per_s": ("1/s", "higher"),
    "scenario.assemble_open_s": ("s", "lower"),
    "scenario.assemble_feedback_s": ("s", "lower"),
    "scenario.pathbatch_mb": ("MB", "lower"),
    "scenario.path_steps": ("count", "higher"),
    "upper_expectation.estimate_s": ("s", "lower"),
    "upper_expectation.self_s": ("s", "lower"),
    "upper_expectation.thread_speedup": ("ratio", "higher"),
    "upper_expectation.policies": ("count", "higher"),
    "experiments.moment_decay_s": ("s", "lower"),
    "expr.payoff_eval_s": ("s", "lower"),
    "expr.coeff_eval_us_per_step": ("us", "lower"),
    "expr.grid_eval_s": ("s", "lower"),
    "gsde.localize_s": ("s", "lower"),
    "gsde.single_pass_s": ("s", "lower"),
    "gsde.localize_overhead_ratio": ("ratio", "lower"),
    "gsde.radii_tried": ("count", "lower"),
    "gsde.path_steps": ("count", "higher"),
    "cli.emit_s": ("s", "lower"),
    "cli.output_mb": ("MB", "lower"),
    "cli.rows_emitted": ("count", "higher"),
    "lyapunov.derivatives_s": ("s", "lower"),
    "lyapunov.eval_L_s": ("s", "lower"),
    "lyapunov.grid_points": ("count", "higher"),
    "lyapunov.v_evals_per_point": ("count", "lower"),
    "lyapunov.margin.duffing_growth": ("value", "lower"),
    "lyapunov.margin.exact_analytic": ("value", "lower"),
    "lyapunov.margin.exact_fd": ("value", "lower"),
    "lyapunov.margin.exact_fail": ("value", "higher"),
    "lyapunov.wrong_verdicts": ("count", "lower"),
    "gheat.solve_s": ("s", "lower"),
    "gheat.step_us": ("us", "lower"),
    "gheat.cell_updates": ("count", "higher"),
    "gheat.two_step_s": ("s", "lower"),
    "gheat.bytes_moved": ("B", "lower"),
    "linstab.certify_s": ("s", "lower"),
    "uncertainty.g_scalar_ns_per_point": ("ns", "lower"),
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    "trace.overhead_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
}

# figures derived from array sizes or grid shapes rather than observed
COMPUTED = {"scenario.pathbatch_mb", "gheat.cell_updates", "gheat.bytes_moved"}


def patches(g) -> list:
    """(owner, attribute, span name, counts(args, kwargs, result)) for every
    public call into a layer that the workloads reach.  Each module-level
    entry names the namespace the caller looks the function up in."""
    sc, ue, ex, gs, ly, gh, cli = (g.scenario, g.upper_expectation, g.experiments, g.gsde,
                                   g.lyapunov, g.gheat, g.cli)

    def noise(a, k, r):
        return {"paths": a[2], "steps": a[3]}

    def assemble(a, k, r):
        arrays = (r.b, r.qvar, r.trace, r.choices, r.noise)
        return {"paths": len(r), "steps": r.grid.n_steps,
                "feedback": isinstance(a[0], sc.BangBangPolicy),
                "bytes": sum(x.nbytes for x in arrays)}

    def estimate(a, k, r):
        return {"policies": len(r.table)}

    def localize(a, k, r):
        return {"radii": len(r.radii_used), "paths": len(a[2]), "steps": a[2].grid.n_steps}

    def check(a, k, r):
        return {"points": r.grid_size}

    def terminal(a, k, r):
        grid = a[2]
        return {"cells": grid.nx * grid.nt, "steps": grid.nt}

    def two_step(a, k, r):
        outer, inner = a[4], a[5]
        return {"cells": outer.nx * inner.nx * inner.nt + outer.nx * outer.nt}

    def points(a, k, r):
        return {"points": int(getattr(a[1], "size", 1))}

    out = [
        (cli, "estimate_upper", "upper_expectation.estimate_upper", estimate),
        (cli, "simulate_batch", "scenario.simulate_batch", None),
        (cli, "solve_localized", "gsde.solve_localized", None),
        (cli, "check_growth_condition", "lyapunov.check", check),
        (cli, "find_cly_detailed", "lyapunov.check", check),
        (cli, "check_stability_conditions", "lyapunov.check", check),
        (cli, "lmi_stable", "linstab.lmi_stable", None),
        (cli, "search_p", "linstab.search_p", None),
        (cli, "write_table", "runio.write_table", None),
        (cli, "write_json", "runio.write_json", None),
        (sc, "simulate_batch", "scenario.simulate_batch", None),
        (ex, "moment_decay_curve", "experiments.moment_decay_curve", None),
        (ex, "closed_form_geometric", "gsde.closed_form_geometric", None),
        (gs, "solve_localized_batch", "gsde.solve_localized_batch", localize),
        (gs, "integrate_batch", "gsde.integrate_batch", None),
        (gs, "integrate", "gsde.integrate", None),
        (ly, "eval_L", "lyapunov.eval_L", None),
        (ly.LyapunovSpec, "derivatives", "lyapunov.derivatives", None),
        (ly.LyapunovSpec, "value", "lyapunov.value", None),
        (g.expr.Expression, "eval", "expr.eval", None),
        (gh, "solve_terminal", "gheat.solve_terminal", terminal),
        (gh, "solve_two_step", "gheat.solve_two_step", two_step),
    ]
    for mod in (ue, sc, ex):
        out.append((mod, "batch_noise", "scenario.batch_noise", noise))
        out.append((mod, "assemble", "scenario.assemble", assemble))
    for mod in (gh, ly, g.linstab):
        out.append((mod, "g_scalar", "uncertainty.g_scalar", points))
    return out


def layer_figures(spans, results, wl) -> dict:
    """Per-layer figures of one traced pass (see PER_LAYER)."""
    by = defaultdict(list)
    for s in spans:
        by[s.name].append(s)
    byid = {s.id: s for s in spans}
    own = self_seconds(spans)

    def total(name):
        return sum(s.seconds for s in by[name])

    def count(name, key):
        return sum(s.counts.get(key, 0) for s in by[name])

    def ratio(a, b):
        return a / b if b else 0.0

    def ancestor(s, name):
        while s.parent is not None:
            s = byid[s.parent]
            if s.name == name:
                return s
        return None

    m = {}
    m["scenario.noise_s"] = total("scenario.batch_noise")
    m["scenario.noise_paths_per_s"] = ratio(count("scenario.batch_noise", "paths"),
                                            m["scenario.noise_s"])
    asm = by["scenario.assemble"]
    m["scenario.assemble_open_s"] = sum(s.seconds for s in asm if not s.counts["feedback"])
    m["scenario.assemble_feedback_s"] = sum(s.seconds for s in asm if s.counts["feedback"])
    m["scenario.pathbatch_mb"] = max((s.counts["bytes"] for s in asm), default=0) / 1e6
    m["scenario.path_steps"] = sum(s.counts["paths"] * s.counts["steps"] for s in asm)

    est = by["upper_expectation.estimate_upper"]
    m["upper_expectation.estimate_s"] = total("upper_expectation.estimate_upper")
    m["upper_expectation.self_s"] = sum(own[s.id] for s in est)
    one = results.get("upper_feedback_1thread")
    many = results.get(f"upper_feedback_{wl.threads}thread")
    m["upper_expectation.thread_speedup"] = ratio(one.seconds, many.seconds) if one else 0.0
    m["upper_expectation.policies"] = count("upper_expectation.estimate_upper", "policies")
    m["experiments.moment_decay_s"] = total("experiments.moment_decay_curve")

    est_ids = {s.id for s in est}
    m["expr.payoff_eval_s"] = sum(s.seconds for s in by["expr.eval"] if s.parent in est_ids)
    probe = results.get("coeff_eval")
    m["expr.coeff_eval_us_per_step"] = probe.seconds * 1e6 if probe else 0.0
    m["expr.grid_eval_s"] = total("lyapunov.value")

    m["gsde.localize_s"] = total("gsde.solve_localized_batch")
    # the last integrate_batch of a localization runs at the largest radius
    last = {}
    for s in by["gsde.integrate_batch"]:
        parent = byid.get(s.parent)
        if parent is not None and parent.name == "gsde.solve_localized_batch":
            if s.parent not in last or s.start > last[s.parent].start:
                last[s.parent] = s
    m["gsde.single_pass_s"] = sum(s.seconds for s in last.values())
    m["gsde.localize_overhead_ratio"] = ratio(m["gsde.localize_s"], m["gsde.single_pass_s"])
    m["gsde.radii_tried"] = count("gsde.solve_localized_batch", "radii")
    m["gsde.path_steps"] = sum(s.counts["paths"] * s.counts["steps"]
                               for s in by["gsde.solve_localized_batch"])

    # emission: the simulate subcommand's time outside simulate_batch
    sims = by["cli.simulate"]
    inner = sum(s.seconds for s in by["scenario.simulate_batch"]
                if s.parent is not None and byid[s.parent].name == "cli.simulate")
    m["cli.emit_s"] = sum(s.seconds for s in sims) - inner
    sim = results.get("simulate") if sims else None
    m["cli.output_mb"] = sim.extra["bytes"] / 1e6 if sim else 0.0
    m["cli.rows_emitted"] = wl.csv_rows(sim) if sim else 0

    m["lyapunov.derivatives_s"] = total("lyapunov.derivatives")
    m["lyapunov.eval_L_s"] = total("lyapunov.eval_L")
    m["lyapunov.grid_points"] = count("lyapunov.check", "points")
    # expression evaluations of V (or of its derivatives) per certified point
    v_evals = defaultdict(int)
    v_callers = ("lyapunov.derivatives", "lyapunov.value")
    for s in by["expr.eval"]:
        if s.parent is not None and byid[s.parent].name in v_callers:
            check = ancestor(s, "lyapunov.check")
            if check is not None:
                v_evals[check.id] += 1
    m["lyapunov.v_evals_per_point"] = ratio(
        sum(v_evals[s.id] * s.counts["points"] for s in by["lyapunov.check"]),
        m["lyapunov.grid_points"])
    margins = wl.margins(results)
    for case in ("duffing_growth", "exact_analytic", "exact_fd", "exact_fail"):
        m[f"lyapunov.margin.{case}"] = margins.get(case, 0.0)
    m["lyapunov.wrong_verdicts"] = sum(wl.verdicts(results).values())

    m["gheat.solve_s"] = total("gheat.solve_terminal")
    m["gheat.step_us"] = ratio(m["gheat.solve_s"], count("gheat.solve_terminal", "steps")) * 1e6
    m["gheat.cell_updates"] = (count("gheat.solve_terminal", "cells")
                               + count("gheat.solve_two_step", "cells"))
    m["gheat.two_step_s"] = total("gheat.solve_two_step")
    # one 8-byte read and one 8-byte write per cell update, ignoring temporaries
    m["gheat.bytes_moved"] = 16 * m["gheat.cell_updates"]
    m["linstab.certify_s"] = total("linstab.lmi_stable") + total("linstab.search_p")
    m["uncertainty.g_scalar_ns_per_point"] = ratio(
        total("uncertainty.g_scalar"), count("uncertainty.g_scalar", "points")) * 1e9

    layer_self = defaultdict(float)
    for s in spans:
        layer_self[s.layer] += own[s.id]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    m["trace.spans"] = len(spans)
    return m
