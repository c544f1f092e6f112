#!/usr/bin/env python3
"""gcalc benchmark: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload mc_sup --seed 1 --seconds 42 --trace 0
    python3 perfbench/run.py --workload all --seconds 10     # every workload, both modes

A run runs passes over the workload's jobs for --seconds, each on a fresh
set-up (import gcalc, write and parse the configs, build the objects) whose
time is recorded; setup_s is the median.  Pass 0 warms up and runs the
correctness gates against the oracles; every later pass must reproduce
pass 0's outputs byte for byte.  With --trace 0 the figures are the
end-to-end ones, from each job's 90th-percentile time over the passes of
the run: wall_s is the sum of those times, a rate is work over the sum of
those times of the jobs it counts.  The machine is a share of a loaded
host that runs at a steady speed most of the time and in bursts 1.6 times
faster when the host is quieter; the 90th percentile of each job is its
time at the host's common, loaded speed, which moves least with how many
bursts a run happens to catch.  With --trace 1 untraced and traced
passes alternate; the traced ones give the per-layer figures, and the
difference of the two 90th-percentile pass times is the tracing overhead.
The last stdout line is one JSON object; the report lines above it name
every figure with its unit, and a full report goes to perfbench/out/.  Run
from the root of a gcalc checkout.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# gated figures (BENCHMARK.json), then the workload-specific names behind
# work_per_s and side_work_per_s; name -> unit
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "work_per_s": "1/s",
              "side_work_per_s": "1/s"}
NAMED = {
    "mc_path_steps_per_s": "1/s", "mc_time_to_se1e-3_s": "s", "traj_path_steps_per_s": "1/s",
    "emit_rows_per_s": "1/s", "cert_points_per_s": "1/s", "pde_cell_updates_per_s": "1/s",
}


def peak_rss_mb() -> float:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def set_up(workload_cls, seed, work, threads):
    """Fresh import of gcalc plus the workload's configs and objects.

    Every pass runs on a fresh set-up, so that the set-up times are spread
    over the run like the pass times.  The garbage of the previous set-up
    is collected here, outside the timed regions."""
    for name in [m for m in sys.modules if m == "gcalc" or m.startswith("gcalc.")]:
        del sys.modules[name]
    gc.collect()
    t0 = time.perf_counter()
    import gcalc
    import gcalc.cli  # noqa: F401
    wl = workload_cls(gcalc, seed, work, threads)
    return time.perf_counter() - t0, wl


def check_pass(wl, results, reference, failures, pass_no):
    """Count each job that raised, exited unexpectedly, or whose output
    differs from pass 0.  Returns the number of failed jobs."""
    failed = set()
    for name, r in results.items():
        problem = None
        if r.error:
            problem = r.error
        elif r.rc not in wl.expected_rc(name):
            problem = f"exit code {r.rc}"
        elif name in reference and r.digest != reference[name]:
            problem = "output differs from pass 0"
        if problem:
            failed.add(name)
            failures.append({"pass": pass_no, "job": name, "problem": problem})
    return failed


def median(values):
    return statistics.median(values) if values else 0.0


def p90(values):
    """90th percentile, interpolated between the order statistics."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def llc_mb():
    best = (0, None)
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = int((idx / "level").read_text())
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        if level > best[0]:
            best = (level, size)
    if best[1] is None:
        return None
    size = best[1]
    scale = {"K": 1 / 1024, "M": 1.0, "G": 1024.0}.get(size[-1], 1 / 2**20)
    return float(size.rstrip("KMG")) * scale


def metadata(args, wl, threads):
    import numpy
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "gcalc").glob("*.py")):
        src.update(path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(), "source_sha256": src.hexdigest(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "threads_used": threads, "llc_mb": llc_mb(),
        "working_sets_mb": wl.working_sets(),
    }


def run_workload(args) -> int:
    if not (ROOT / "src" / "gcalc" / "__init__.py").is_file():
        print(f"perfbench: no gcalc sources under {ROOT / 'src'}; run from a gcalc checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy  # noqa: F401  (imported first: numpy's import is not gcalc's set-up)
    from layers import COMPUTED, PER_LAYER, layer_figures, patches
    from spans import Tracer
    from workloads import WORKLOADS

    out_dir = HERE / "out"
    work = out_dir / "work" / args.workload
    work.mkdir(parents=True, exist_ok=True)
    threads = min(2, len(os.sched_getaffinity(0)))
    cls = WORKLOADS[args.workload]

    units = {**END_TO_END, **NAMED, "wall_s_median_pass": "s"}
    failures, attempted, failed = [], 0, 0
    t_start = time.perf_counter()
    seconds, wl = set_up(cls, args.seed, work, threads)
    setup_times = [seconds]
    results = wl.run_pass()
    attempted += len(results)
    bad = check_pass(wl, results, {}, failures, 0)
    gates = {}
    if not bad:
        for name, (ok, detail) in wl.gate(results).items():
            gates[name] = {"ok": bool(ok), "detail": detail}
            if not ok:
                bad.add(name)
                failures.append({"pass": 0, "job": name, "problem": "gate: " + detail})
    failed += len(bad)
    reference = {n: r.digest for n, r in results.items()}
    verdicts = {} if bad else {k: bool(v) for k, v in wl.verdicts(results).items()}
    counts = {} if bad else wl.counts(results)
    del results

    walls = {False: [], True: []}
    e2e = []
    layer_rows = []
    tracer = Tracer() if args.trace else None
    pass_no = 0
    last = 0.0
    while True:
        pass_no += 1
        traced = bool(args.trace) and pass_no % 2 == 0
        t_pass = time.perf_counter()
        seconds, wl = set_up(cls, args.seed, work, threads)
        setup_times.append(seconds)
        if traced:
            first_span = len(tracer.spans)
            with tracer.installed(patches(wl.g)):
                results = wl.run_pass(tracer)
        else:
            results = wl.run_pass()
        attempted += len(results)
        bad = check_pass(wl, results, reference, failures, pass_no)
        failed += len(bad)
        if not bad:
            wall = sum(r.seconds for r in results.values())
            walls[traced].append(wall)
            if traced:
                results.update((name, probe()) for name, probe in wl.probes(results))
                layer_rows.append(layer_figures(tracer.spans[first_span:], results, wl))
            else:
                e2e.append({"wall_s": wall, "timed": wl.timed(results),
                            "rates": wl.e2e(results)})
        del results
        last = max(last, time.perf_counter() - t_pass)
        if pass_no >= 1 + bool(args.trace) and time.perf_counter() - t_start + last > args.seconds:
            break
    run_seconds = time.perf_counter() - t_start

    figures = {}
    job_stats = {}
    if e2e:
        # each job's (and timed sub-part's) time at the host's loaded speed
        times = {c: [row["timed"][c] for row in e2e] for c in e2e[0]["timed"]}
        typical = {c: p90(v) for c, v in times.items()}
        job_stats = {c: {"passes": len(v), "min": min(v), "median": median(v), "p90": typical[c]}
                     for c, v in times.items()}
        figures["wall_s"] = sum(typical[n] for n in reference)
        for key, (work, parts) in e2e[0]["rates"].items():
            seconds = sum(typical[c] for c in parts)
            # work repeats exactly from pass to pass; a time figure is the
            # time per unit of work, a rate the work per second
            figures[key] = seconds / work if units[key] == "s" else work / seconds
        figures["wall_s_median_pass"] = median([row["wall_s"] for row in e2e])
    figures.update(setup_s=median(setup_times), peak_rss_mb=peak_rss_mb())
    per_layer = {}
    if args.trace:
        for key in PER_LAYER:
            vals = [row[key] for row in layer_rows if key in row]
            per_layer[key] = median(vals)
        per_layer["trace.overhead_s"] = p90(walls[True]) - p90(walls[False])

    n_wrong = sum(verdicts.values())
    correct = failed == 0
    meta = metadata(args, wl, threads)
    report = {
        "meta": meta, "correct": correct, "attempted": attempted, "failed": failed,
        "error_rate": failed / attempted, "wrong_verdicts": n_wrong, "verdicts": verdicts,
        "gates": gates, "failures": failures, "run_seconds": run_seconds, "work_counts": counts,
        "passes": {"untraced": len(walls[False]), "traced": len(walls[True])},
        "setup_s_each": setup_times, "end_to_end_each": e2e, "job_seconds": job_stats,
        "end_to_end": {k: {"value": v, "unit": units[k]} for k, v in figures.items()},
        "per_layer": {k: {"value": v, "unit": PER_LAYER[k][0],
                          "kind": "computed" if k in COMPUTED else
                          ("count" if PER_LAYER[k][0] == "count" else "measured")}
                      for k, v in per_layer.items()},
        "per_layer_each": layer_rows,
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"report-{tag}.json").write_text(json.dumps(report, indent=1) + "\n")
    if tracer is not None:
        with gzip.open(out_dir / f"spans-{tag}.jsonl.gz", "wt") as fh:
            for s in tracer.spans:
                fh.write(json.dumps(s.to_json()) + "\n")

    def line(name, value, unit, note=""):
        print(f"{args.workload:13s} {name:36s} {value:14.6g} {unit:6s} {note}")

    n_e2e = len(e2e)
    for name, value in figures.items():
        unit = units[name]
        note = (f"median of {len(setup_times)} set-ups" if name == "setup_s" else
                f"median of {n_e2e} passes" if name == "wall_s_median_pass" else
                "" if name == "peak_rss_mb" else f"90th percentile of {n_e2e} passes per job")
        line(name, value, unit, note)
    line("error_rate", failed / attempted, "ratio", f"{failed} of {attempted} jobs failed")
    if args.workload == "certify":
        line("wrong_verdicts", n_wrong, "count",
             ", ".join(k for k, v in verdicts.items() if v) or "none")
    for name, value in counts.items():
        line(name, value, "count", "exact work count of one pass")
    for name, value in per_layer.items():
        line(name, value, PER_LAYER[name][0], "computed" if name in COMPUTED else "")
    for f in failures[:20]:
        print(f"FAILED pass {f['pass']} job {f['job']}: {f['problem']}")

    if args.trace:
        metrics = {k: {"value": v, "unit": PER_LAYER[k][0]} for k, v in per_layer.items()}
    else:
        # a run whose every pass failed has no medians; correct is false then
        metrics = {k: {"value": figures.get(k, 0.0), "unit": END_TO_END[k]} for k in END_TO_END}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    status = 0
    for name in ("mc_sup", "trajectories", "certify"):
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            status |= subprocess.run(cmd, check=False).returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=("mc_sup", "trajectories", "certify", "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
