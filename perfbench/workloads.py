"""The three benchmark workloads: mc_sup, trajectories and certify.

Each workload is a closed loop with one client: a pass runs the workload's
jobs back to back in this process, through ``gcalc.cli.main`` where a
subcommand exists and through the public library functions where none
does.  A set-up builds a workload object (configs written, parsed back and
turned into objects), which can run any number of passes; run.py builds a
fresh one before every pass.

Per pass a workload returns its job results; from them it derives the
seconds of each timed component (``timed``: every job, plus the parts of a
job that a rate divides by), the work behind each end-to-end rate and the
components it is timed over (``e2e``), the oracle gates of the first pass
(``gate``)
and, from the spans of a traced pass, its per-layer figures.  mc_sup and
trajectories run at a quarter (the CSV job at an eighth) of their full-size
path counts, so that several passes fit in one run; certify runs at full
size.  Why each
workload exists is in README.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BAND = [1.0, 2.0]
# u(0, 0) of the G-heat equation with terminal data pos(1 - |x|) (the
# butterfly), band [1, 2], T = 1; nx = 1601 and nx = 3201 on [-8, 8] give
# 0.413078 and 0.413075.
BUTTERFLY_VALUE = 0.41307
ORACLE_TOL = 1e-3

OSCILLATOR = {
    "n": 2, "d": 1, "band": BAND,
    "f": ["0", "0"], "h": ["x2", "-a*x1 - b*x1^3 - c*x2"], "g": ["0", "sigma"],
    "constants": {"a": 1.0, "b": 1.0, "c": 1.0, "sigma": 2.0},
    "lipschitz_tag": "local",
}


@dataclass
class JobResult:
    name: str
    seconds: float
    rc: int | None = None
    digest: str | None = None      # sha256 of the output bytes or arrays
    value: object = None           # parsed output the gates and metrics read
    extra: dict = field(default_factory=dict)
    error: str | None = None


def _sha(*chunks) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c if isinstance(c, bytes) else np.ascontiguousarray(c).tobytes())
    return h.hexdigest()


class Workload:
    """Shared job runner.  Subclasses define setup, jobs and figures."""

    name = ""
    # subcommand output files are JSON for these, CSV otherwise
    _JSON = ("upper", "lyapunov", "linstab")

    def __init__(self, gcalc, seed: int, work: Path, threads: int):
        self.g = gcalc
        self.seed = int(seed)
        self.work = work
        self.threads = threads
        self.tracer = None
        self.configs = {}

    def write_config(self, name: str, obj: dict) -> dict:
        """Write a job config, read it back, and return the parsed copy."""
        path = self.work / f"{name}.json"
        path.write_text(json.dumps(obj))
        self.configs[name] = path
        return json.loads(path.read_text())

    def _span(self, name):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def cli(self, name, sub, config, extra=()) -> JobResult:
        out = self.work / f"{name}.out.{'json' if sub in self._JSON else 'csv'}"
        argv = [sub, "--config", str(self.configs[config]), "--seed", str(self.seed),
                "--out", str(out), "--force", *extra]
        err = io.StringIO()
        t0 = time.perf_counter()
        with self._span("cli." + sub), contextlib.redirect_stderr(err):
            rc = self.g.cli.main(argv)
        seconds = time.perf_counter() - t0
        data = out.read_bytes() if out.exists() else b""
        if sub in self._JSON:
            value = json.loads(data) if data else None
        else:
            value = data.decode()
        return JobResult(name, seconds, rc, _sha(data), value,
                         {"stderr": err.getvalue(), "bytes": len(data)})

    def run_pass(self, tracer=None) -> dict:
        """All jobs once; a job that raises is recorded, not propagated."""
        self.tracer = tracer
        results = {}
        try:
            for name, job in self.jobs():
                if tracer is not None:
                    tracer.run_id = name
                try:
                    with self._span("bench." + name):
                        results[name] = job()
                except Exception as e:  # a failed job is a counted failure
                    results[name] = JobResult(name, float("nan"), error=f"{type(e).__name__}: {e}")
        finally:
            self.tracer = None
        return results

    def probes(self, results):
        """(name, fn) of the untraced measurements that follow a traced
        pass; they feed per-layer figures and are not part of wall_s."""
        return []

    def timed(self, results) -> dict:
        """Seconds of each timed component of a pass; the jobs here, plus
        any sub-part of a job that a rate in ``e2e`` divides by."""
        return {n: r.seconds for n, r in results.items()}

    def expected_rc(self, name) -> tuple:
        return (0,)

    def verdicts(self, results) -> dict:
        """Per verdict job: True when it contradicts the known answer."""
        return {}

    def margins(self, results) -> dict:
        """Per verdict case: violation minus tolerance."""
        return {}

    @staticmethod
    def csv_rows(result: JobResult) -> int:
        return len(_csv_rows(result.value))


def _csv_rows(text: str) -> list:
    """Data rows of a CSV output: comment lines and the header dropped."""
    return [line for line in text.splitlines() if line and not line.startswith("#")][1:]


class McSup(Workload):
    """Wide, short Monte Carlo sups: open-loop and feedback families and a
    moment-decay experiment."""

    name = "mc_sup"
    N_PATHS = 25_000          # 100k at full size
    N_STEPS = 50
    DECAY_PATHS = 5_000       # 20k at full size
    DECAY_STEPS = 200

    def __init__(self, gcalc, seed, work, threads):
        super().__init__(gcalc, seed, work, threads)
        g = gcalc
        grid = {"t_end": 1.0, "n_steps": self.N_STEPS}
        a = self.write_config("upper_open", {
            "band": BAND, "payoff": "b1^2", "family": {"kind": "constants_only", "n": 5},
            "n_paths": self.N_PATHS, "grid": grid})
        b = self.write_config("upper_feedback", {
            "band": BAND, "payoff": "pos(1 - abs(b1))",
            "family": {"kind": "bangbang_threshold", "thresholds": [-0.5, 0.0, 0.5]},
            "n_paths": self.N_PATHS, "grid": grid})
        c = self.write_config("moment_decay", {
            "kind": "moment_decay", "band": BAND, "family": {"kind": "extreme_constants"},
            "model": {"alpha": -1.0, "beta": 0.5, "gamma": 1.0, "x0": 1.0},
            "p": 0.5, "T": 2.0, "dt": 2.0 / self.DECAY_STEPS, "n_paths": self.DECAY_PATHS})
        band = g.load_uncertainty(a)
        for cfg in (a, b):
            g.parse(cfg["payoff"], ["t", "b1", "qv"])
        self.policies = {
            "upper_open": len(g.PolicyFamily.constants_only(a["family"]["n"]).policies(band)),
            "upper_feedback": len(g.PolicyFamily.bangbang_threshold(
                b["family"]["thresholds"]).policies(band)),
            "moment_decay": len(g.PolicyFamily.extreme_constants().policies(band)),
        }
        self.path_steps = {
            "upper_open": self.policies["upper_open"] * self.N_PATHS * self.N_STEPS,
            "upper_feedback": self.policies["upper_feedback"] * self.N_PATHS * self.N_STEPS,
            "moment_decay": self.policies["moment_decay"] * c["n_paths"] * self.DECAY_STEPS,
        }

    def jobs(self):
        return [
            ("upper_open", lambda: self.cli("upper_open", "upper", "upper_open",
                                            ("--threads", "1"))),
            ("upper_feedback", lambda: self.cli("upper_feedback", "upper", "upper_feedback",
                                                ("--threads", str(self.threads)))),
            ("moment_decay", lambda: self.cli("moment_decay", "experiment", "moment_decay")),
        ]

    def probes(self, results):
        # job (b) at one thread and at the job's own count, for thread_speedup
        return [(f"upper_feedback_{n}thread",
                 lambda n=n: self.cli(f"upper_feedback_{n}thread", "upper", "upper_feedback",
                                      ("--threads", str(n))))
                for n in sorted({1, self.threads})]

    def gate(self, r) -> dict:
        a, b, c = r["upper_open"].value, r["upper_feedback"].value, r["moment_decay"].value
        out = {}
        # convex payoff: the sup sits at the top constant, so the check is two-sided
        dev = abs(a["value"] - 2.0)
        out["upper_open"] = (dev <= max(0.02 * 2.0, 3 * a["std_error"]),
                             f"value {a['value']:.5f} +- {a['std_error']:.5f} vs oracle 2.0")
        # a finite family under-estimates the sup: one-sided
        out["upper_feedback"] = (b["value"] <= BUTTERFLY_VALUE + 3 * b["std_error"],
                                 f"value {b['value']:.5f} +- {b['std_error']:.5f} "
                                 f"vs oracle {BUTTERFLY_VALUE}")
        oks = [row.split(",")[-1] for row in _csv_rows(c)]
        out["moment_decay"] = (oks and all(v == "true" for v in oks),
                               f"bound rows ok: {oks}")
        return out

    def counts(self, r) -> dict:
        """Exact work counts of one pass, from the configs."""
        out = {}
        for name, steps in self.path_steps.items():
            out[f"{name}.policies"] = self.policies[name]
            out[f"{name}.path_steps"] = steps
        return out

    def e2e(self, r) -> dict:
        names = ("upper_open", "upper_feedback", "moment_decay")
        mc = (sum(self.path_steps[n] for n in names), names)
        # time to se 1e-3 is the time of (a) x (se / 1e-3)^2; its "work" is
        # the accuracy bought per second of (a), (1e-3 / se)^2
        se = r["upper_open"].value["std_error"]
        acc = ((1e-3 / se) ** 2, ("upper_open",))
        return {"mc_path_steps_per_s": mc, "mc_time_to_se1e-3_s": acc,
                "work_per_s": mc, "side_work_per_s": acc}

    def working_sets(self) -> dict:
        # one d = 1 PathBatch: b and qvar (P, K+1), trace, choices and noise (P, K)
        p, k = self.N_PATHS, self.N_STEPS
        return {"pathbatch_mb": 8 * p * (2 * (k + 1) + 3 * k) / 1e6}


class Trajectories(Workload):
    """Narrow, long paths: batch localization, CSV emission, one localized
    single path."""

    name = "trajectories"
    N_PATHS = 500             # 2000 at full size
    N_STEPS = 1000
    SIM_PATHS = 25            # 200 at full size
    X0 = [1.0, 0.0]
    # the single path starts at norm 10 and peaks below 12 on every seed
    # tried, so it settles at radius 16 (four radii) whatever the seed
    GSDE_X0 = [0.0, 10.0]

    def __init__(self, gcalc, seed, work, threads):
        super().__init__(gcalc, seed, work, threads)
        g = gcalc
        grid = {"t_end": 5.0, "n_steps": self.N_STEPS}
        policy = {"kind": "bangbang_threshold", "theta": 0.0}
        sys_cfg = self.write_config("system", OSCILLATOR)
        sim = self.write_config("simulate", {"band": BAND, "grid": grid, "policy": policy,
                                             "n_paths": self.SIM_PATHS})
        self.write_config("gsde", {**OSCILLATOR, "x0": self.GSDE_X0, "grid": grid,
                                   "policy": policy})
        self.coeffs, self.band = g.load_system(sys_cfg)
        self.grid = g.TimeGrid(grid["t_end"], grid["n_steps"])
        self.policy = g.threshold_bangbang(self.band, policy["theta"])
        self.schedule = g.TruncationSchedule.doubling()
        self.sim_rows = sim["n_paths"] * (self.N_STEPS + 1)

    def _localize(self) -> JobResult:
        g = self.g
        t0 = time.perf_counter()
        batch = g.scenario.simulate_batch(self.policy, self.band, self.grid, self.seed,
                                          self.N_PATHS)
        t1 = time.perf_counter()
        rep = g.gsde.solve_localized_batch(self.coeffs, self.X0, batch, self.schedule)
        t2 = time.perf_counter()
        return JobResult("localize", t2 - t0, 0, _sha(rep.solution.x, rep.n0_per_path),
                         (rep, batch), {"localize_s": t2 - t1})

    def jobs(self):
        return [
            ("localize", self._localize),
            ("simulate", lambda: self.cli("simulate", "simulate", "simulate")),
            ("gsde", lambda: self.cli("gsde", "gsde", "gsde")),
        ]

    def single_pass(self, loc: JobResult) -> JobResult:
        """One integrate_batch at the largest settled radius."""
        g = self.g
        rep, batch = loc.value
        t0 = time.perf_counter()
        sol = g.gsde.integrate_batch(g.truncate(self.coeffs, rep.solution.n0_used), self.X0, batch)
        return JobResult("single_pass", time.perf_counter() - t0, 0, _sha(sol.x), sol)

    def probes(self, results):
        return [("coeff_eval", self._coeff_probe)]

    def _coeff_probe(self) -> JobResult:
        """eval_f + eval_h + eval_g of the oscillator on a (2000, 2) state."""
        rng = np.random.default_rng(self.seed)
        x = rng.standard_normal((2000, 2))
        c = self.coeffs
        times = []
        for _ in range(50):
            t0 = time.perf_counter()
            c.eval_f(0.0, x), c.eval_h(0.0, x), c.eval_g(0.0, x)
            times.append(time.perf_counter() - t0)
        return JobResult("coeff_eval", float(np.median(times)), 0)

    def gate(self, r) -> dict:
        out = {}
        loc = r["localize"]
        rep, _ = loc.value
        settled = bool(np.all(np.isfinite(rep.n0_per_path)))
        single = self.single_pass(loc)
        same = np.array_equal(single.value.x, rep.solution.x)
        out["localize"] = (settled and same,
                           f"settled {settled}, radii {rep.radii_used}, exit fractions "
                           f"{rep.exit_fractions}, bitwise equal to one pass at "
                           f"N={rep.solution.n0_used:g}: {same}")
        rows = self.csv_rows(r["simulate"])
        out["simulate"] = (rows == self.sim_rows, f"{rows} rows, expected {self.sim_rows}")
        rows = self.csv_rows(r["gsde"])
        settled = "settled at radius" in r["gsde"].extra["stderr"]
        out["gsde"] = (rows == self.N_STEPS + 1 and settled,
                       f"{rows} rows, settled {settled}")
        return out

    def counts(self, r) -> dict:
        rep, _ = r["localize"].value
        return {
            "localize.path_steps": self.N_PATHS * self.N_STEPS,
            "localize.radii_tried": len(rep.radii_used),
            "simulate.rows": self.csv_rows(r["simulate"]),
            "simulate.bytes": r["simulate"].extra["bytes"],
            "gsde.rows": self.csv_rows(r["gsde"]),
        }

    def timed(self, results) -> dict:
        return {**super().timed(results),
                "localize.solve": results["localize"].extra["localize_s"]}

    def e2e(self, r) -> dict:
        loc = (self.N_PATHS * self.N_STEPS, ("localize.solve",))
        emit = (self.sim_rows, ("simulate",))
        return {"traj_path_steps_per_s": loc, "emit_rows_per_s": emit,
                "work_per_s": loc, "side_work_per_s": emit}

    def working_sets(self) -> dict:
        p, k = self.N_PATHS, self.N_STEPS
        return {"solution_mb": 8 * p * (k + 1) * 2 / 1e6,
                "pathbatch_mb": 8 * p * (2 * (k + 1) + 3 * k) / 1e6}


class Certify(Workload):
    """Deterministic certificates: Lyapunov grids, linear certificates and
    the G-heat solver."""

    name = "certify"
    DUFFING_BOX = [[-5.0, 5.0, 401], [-5.0, 5.0, 401]]
    EXACT_AXIS = [[-50.0, 50.0, 100001]]
    # exit code the mathematics demands for each verdict job
    KNOWN_RC = {"duffing_growth": 0, "exact_analytic": 0, "exact_fd": 0, "exact_fail": 2,
                "linstab_stable": 0, "linstab_search": 0}
    LYAPUNOV = ("duffing_growth", "duffing_find_cly", "exact_analytic", "exact_fd", "exact_fail")
    GHEAT = ("gheat_butterfly", "gheat_square", "two_step")

    def __init__(self, gcalc, seed, work, threads):
        super().__init__(gcalc, seed, work, threads)
        g = gcalc
        duffing = {**OSCILLATOR, "constants": {**OSCILLATOR["constants"], "sigma": 1.0}}
        duffing_v = "1 + 0.5*x2^2 + 0.5*x1^2 + 0.25*x1^4"
        duff_region = {"t": [0, 5], "box": self.DUFFING_BOX, "nt": 3}
        # dX = -3X dt + 0.5X d<B> + X dB with V = x1^2 has LV = -2V exactly
        exact = {"n": 1, "d": 1, "band": BAND, "f": ["-3*x1"], "h": ["0.5*x1"], "g": ["x1"]}
        exact_region = {"t": [0, 1], "box": self.EXACT_AXIS}
        analytic = {"dt": "0", "grad": ["2*x1"], "hess": [["2"]]}
        cfgs = {
            "duffing_growth": {"system": duffing, "V": duffing_v, "mode": "finite_difference",
                               "region": duff_region, "condition": "growth",
                               "params": {"c_ly": 1.0}},
            "duffing_find_cly": {"system": duffing, "V": duffing_v, "mode": "finite_difference",
                                 "region": duff_region, "condition": "find_cly"},
            "exact_analytic": {"system": exact, "V": "x1^2", "mode": "analytic", "dV": analytic,
                               "region": exact_region, "condition": "exp_stable",
                               "params": {"lambda": 2.0}},
            "exact_fd": {"system": exact, "V": "x1^2", "mode": "finite_difference",
                         "region": exact_region, "condition": "exp_stable",
                         "params": {"lambda": 2.0}},
            "exact_fail": {"system": exact, "V": "x1^2", "mode": "finite_difference",
                           "region": exact_region, "condition": "exp_stable",
                           "params": {"lambda": 2.5}},
            "linstab_stable": {"n": 1, "F": [-3.0], "H": [-1.0], "C": [1.0], "band": BAND,
                               "P": [1.0], "mode": "stable"},
            "linstab_search": {"n": 2, "F": [-10.0, 0.0, 0.0, -0.6], "H": [0.0] * 4,
                               "C": [0.0, 3.0, 0.0, 0.0], "band": [1.0, 1.0], "mode": "search"},
            "gheat_butterfly": {"band": BAND, "payoff": "pos(1 - abs(x))",
                                "grid": {"x_lo": -8.0, "x_hi": 8.0, "nx": 1601, "T": 1.0}},
            "gheat_square": {"band": BAND, "payoff": "x^2",
                             "grid": {"x_lo": -12.0, "x_hi": 12.0, "nx": 401, "T": 1.0}},
        }
        self.points = {}
        self.cells = {}
        for name, cfg in cfgs.items():
            cfg = self.write_config(name, cfg)
            if name in self.LYAPUNOV:
                coeffs, unc = g.load_system(cfg["system"])
                spec_kw = {}
                if cfg["mode"] == "analytic":
                    spec_kw = {"dt": cfg["dV"]["dt"], "grad": cfg["dV"]["grad"],
                               "hess": cfg["dV"]["hess"]}
                g.LyapunovSpec(coeffs.n, cfg["V"], mode=cfg["mode"], **spec_kw)
                reg = cfg["region"]
                region = g.CheckRegion(reg["t"][1], reg["box"], nt=reg.get("nt", 2))
                self.points[name] = int(region.nt * np.prod([c for _, _, c in region.box]))
            elif name.startswith("gheat"):
                gr = cfg["grid"]
                grid = g.SpaceTimeGrid.with_cfl(gr["x_lo"], gr["x_hi"], gr["nx"], gr["T"],
                                                g.load_uncertainty(cfg))
                self.cells[name] = grid.nx * grid.nt
        self.band = g.SigmaBand(*BAND)
        self.outer = g.SpaceTimeGrid.with_cfl(-10.0, 10.0, 401, 0.5, self.band)
        self.inner = g.SpaceTimeGrid.with_cfl(-10.0, 10.0, 401, 0.5, self.band)
        # inner stage steps every outer row at once; the outer stage steps one row
        self.cells["two_step"] = (self.outer.nx * self.inner.nx * self.inner.nt
                                  + self.outer.nx * self.outer.nt)

    def _two_step(self) -> JobResult:
        t0 = time.perf_counter()
        v = self.g.gheat.solve_two_step(self.band, lambda a, b: (a + b) ** 2, 0.5, 1.0,
                                        self.outer, self.inner)
        return JobResult("two_step", time.perf_counter() - t0, 0, _sha(np.float64(v)), v)

    def jobs(self):
        jobs = [(n, lambda n=n: self.cli(n, "lyapunov", n)) for n in self.LYAPUNOV]
        jobs += [(n, lambda n=n: self.cli(n, "linstab", n))
                 for n in ("linstab_stable", "linstab_search")]
        jobs += [(n, lambda n=n: self.cli(n, "gheat", n)) for n in self.GHEAT[:2]]
        jobs.append(("two_step", self._two_step))
        return jobs

    def expected_rc(self, name) -> tuple:
        # 2 is a verdict (a certified check failed), not an error
        return (0, 2) if name in self.KNOWN_RC else (0,)

    def _u0(self, text) -> float:
        rows = np.array([[float(v) for v in row.split(",")] for row in _csv_rows(text)])
        return float(np.interp(0.0, rows[:, 0], rows[:, 1]))

    def gate(self, r) -> dict:
        out = {}
        for name, want in (("gheat_butterfly", BUTTERFLY_VALUE), ("gheat_square", 2.0)):
            u0 = self._u0(r[name].value)
            out[name] = (abs(u0 - want) <= ORACLE_TOL, f"u(0,0) {u0:.6f} vs {want}")
        v = r["two_step"].value
        out["two_step"] = (abs(v - 2.0) <= ORACLE_TOL, f"value {v:.6f} vs 2.0")
        return out

    def verdicts(self, r) -> dict:
        wrong = {n: r[n].rc != rc for n, rc in self.KNOWN_RC.items()}
        # on the Duffing box, max LV/V = 1, attained at the origin (a grid point)
        rep = r["duffing_find_cly"].value
        wrong["duffing_find_cly"] = abs(rep["diagnostics"]["raw"] - 1.0) > rep["tolerance"]
        return wrong

    def margins(self, r) -> dict:
        return {n: r[n].value["max_violation"] - r[n].value["tolerance"]
                for n in ("duffing_growth", "exact_analytic", "exact_fd", "exact_fail")}

    def counts(self, r) -> dict:
        out = {f"{n}.grid_points": r[n].value["grid_size"] for n in self.LYAPUNOV}
        out.update({f"{n}.cell_updates": self.cells[n] for n in self.GHEAT})
        out["linstab_search.candidates"] = r["linstab_search"].value["details"]["candidates_tried"]
        return out

    def e2e(self, r) -> dict:
        cert = (sum(r[n].value["grid_size"] for n in self.LYAPUNOV), self.LYAPUNOV)
        pde = (sum(self.cells[n] for n in self.GHEAT), self.GHEAT)
        return {"cert_points_per_s": cert, "pde_cell_updates_per_s": pde,
                "work_per_s": cert, "side_work_per_s": pde}

    def working_sets(self) -> dict:
        n_duff = self.points["duffing_growth"]
        return {"duffing_hessian_mb": 8 * n_duff * 4 / 1e6,
                "two_step_rows_mb": 8 * self.outer.nx * self.inner.nx / 1e6,
                "butterfly_row_mb": 8 * 1601 / 1e6}


WORKLOADS = {w.name: w for w in (McSup, Trajectories, Certify)}
