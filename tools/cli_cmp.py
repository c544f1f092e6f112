"""Compare the gcalc CLI of a git ref with the working tree, byte for byte.

    python3 tools/cli_cmp.py BASE_REF

BASE_REF is extracted with ``git archive`` into a temporary directory.  Every
subcommand runs on a built-in set of small configs (valid ones and config
errors) with seeds 1 and 7, once with BASE_REF's ``src`` and once with the
working tree's, writing to stdout; ``upper`` cases run once more with
``--threads 2``.  Every case that is not a config error or a blow-up also
runs in its other output formats, so that every writer path is compared: the
CSV subcommands with ``--emit-plot-data`` (long-format rows) and with
``--format json``, the JSON subcommands with ``--format csv`` (key/value
rows).  Any difference in stdout, stderr or exit code is reported with the
first differing lines.

A change that alters some output on purpose names those cases, one per line,
in ``tools/cli_cmp_expected.txt`` (``#`` starts a comment), under a line
``# base: <sha>`` that names the commit the list was written against.  When
BASE_REF is that commit, the listed differences are reported but pass, and a
listed case that no longer differs on any run, or that names no case, fails.
When BASE_REF is another commit (or the file names no base), the list was
written for a change that is now in the base: its entries are printed as
skipped and every run must match.  Exits 0 when every run that is not listed
for this base matches and every such listed case differs, and 1 otherwise.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = ROOT / "tools" / "cli_cmp_expected.txt"
SEEDS = (1, 7)
# subcommands whose default output is a CSV table; the others write JSON
CSV_SUBCOMMANDS = ("simulate", "gheat", "gsde", "experiment")

BAND = [1.0, 2.0]
COV = {"dim": 2, "members": [[1.0, 0.0, 0.0, 1.0], [2.0, 0.5, 0.5, 1.0]]}
DUFFING = {"n": 2, "d": 1, "band": BAND, "f": ["0", "0"],
           "h": ["x2", "-x1 - x1^3 - x2"], "g": ["0", "1"]}
COV_SYSTEM = {"n": 2, "d": 2, **COV, "f": ["-x1", "-2*x2"],
              "h": [[["0.1*x1", "0"], ["0", "0"]], [["0", "0"], ["0", "0.1*x2"]]],
              "g": [["x1", "0"], ["0.5*x2", "x2"]]}
EXACT = {"n": 1, "d": 1, "band": BAND, "f": ["-3*x1"], "h": ["0.5*x1"], "g": ["x1"]}
# (system, V, analytic derivatives, region)
CANDIDATES = {
    "band": (DUFFING, "1 + 0.5*x2^2 + 0.5*x1^2 + 0.25*x1^4",
             {"dt": "0", "grad": ["x1 + x1^3", "x2"], "hess": [["1 + 3*x1^2", "0"], ["0", "1"]]},
             {"t": [0, 2], "box": [[-3, 3, 13], [-3, 3, 13]], "nt": 2}),
    "cov": (COV_SYSTEM, "x1^2 + x2^2",
            {"dt": "0", "grad": ["2*x1", "2*x2"], "hess": [["2", "0"], ["0", "2"]]},
            {"t": [0, 1], "box": [[-2, 2, 9], [-2, 2, 9]], "exclude_r0": 0.25}),
    # t appears in V, so every time slice of the grid is evaluated
    "time": (DUFFING, "exp(-t)*(1 + x1^2 + x2^2)",
             {"dt": "-exp(-t)*(1 + x1^2 + x2^2)", "grad": ["2*exp(-t)*x1", "2*exp(-t)*x2"],
              "hess": [["2*exp(-t)", "0"], ["0", "2*exp(-t)"]]},
             {"t": [0, 2], "box": [[-2, 2, 9], [-2, 2, 9]], "nt": 3}),
}
CONDITIONS = {"growth": {"c_ly": 1.0}, "find_cly": {}, "sandwich": {"p": 2.0, "c1": 0.5, "c2": 3.0},
              "nonpositive": {}, "exp_stable": {"lambda": 0.5}, "exp_unstable": {"lambda": 0.5}}


def lyapunov_cfg(which, mode, condition, **override):
    system, v, dv, region = CANDIDATES[which]
    cfg = {"system": system, "V": v, "mode": mode, "region": region,
           "condition": condition, "params": CONDITIONS[condition]}
    if mode == "analytic":
        cfg["dV"] = dv
    return {**cfg, **override}


def cases() -> dict:
    """name -> (subcommand, config)."""
    out = {}
    for which in CANDIDATES:
        for mode in ("finite_difference", "analytic"):
            for condition in CONDITIONS:
                out[f"lyapunov_{which}_{mode}_{condition}"] = (
                    "lyapunov", lyapunov_cfg(which, mode, condition))
    out["lyapunov_exact_fd"] = ("lyapunov", {
        "system": EXACT, "V": "x1^2", "region": {"t": [0, 1], "box": [[-50, 50, 101]]},
        "condition": "exp_stable", "params": {"lambda": 2.0}})
    # V = |x| has no second derivative at x = 0, a grid point unless excluded
    kink = {"system": {**EXACT, "f": ["-x1"], "h": ["0"], "g": ["1"]}, "V": "abs(x1)",
            "region": {"t": [0, 1], "box": [[-1, 1, 5]]}, "condition": "nonpositive"}
    out["lyapunov_kink_excluded"] = ("lyapunov", {
        **kink, "region": {**kink["region"], "exclude_r0": 0.25}})
    # a time-free V with t in a coefficient takes the full grid as well
    out["lyapunov_time_coefficient"] = ("lyapunov", lyapunov_cfg(
        "band", "finite_difference", "growth",
        system={**DUFFING, "h": ["x2", "-x1 - x1^3 - (1 + 0.5*sin(t))*x2"]}))
    duffing_band = lyapunov_cfg("band", "analytic", "growth")
    errors = {
        "axis_count": {"region": {"t": [0, 1], "box": [[-1, 1, 1], [-1, 1, 3]]}},
        "axis_number": {"region": {"t": [0, 1], "box": [[-1, 1, 3]]}},
        "v_min": {"V": "x1^2 + x2^2", "mode": "finite_difference", "condition": "find_cly"},
        "negative_v": {"V": "x1^2 - 1", "mode": "finite_difference"},
        "grad_shape": {"dV": {"dt": "0", "grad": ["x1"], "hess": [["1", "0"], ["0", "1"]]}},
        "hess_shape": {"dV": {"dt": "0", "grad": ["x1", "x2"], "hess": [["1", "0"], ["0"]]}},
        "missing_p": {"condition": "sandwich", "params": {"c1": 1.0, "c2": 2.0}},
        "lambda": {"condition": "exp_stable", "params": {"lambda": 0.0}},
        "t_short": {"region": {**duffing_band["region"], "t": [0]}},
        "nt_text": {"region": {**duffing_band["region"], "nt": "two"}},
        "nt_zero": {"region": {**duffing_band["region"], "nt": 0}},
        "nt_negative": {"region": {**duffing_band["region"], "nt": -3}},
        "nt_float": {"region": {**duffing_band["region"], "nt": 2.7}},
        "nt_string": {"region": {**duffing_band["region"], "nt": "3"}},
        "exclude_r0_string": {"region": {**duffing_band["region"], "exclude_r0": "0.6"}},
        "exclude_r0_bool": {"region": {**duffing_band["region"], "exclude_r0": True}},
        "t_start": {"region": {**duffing_band["region"], "t": [3, 5]}},
        "t_negative": {"region": {**duffing_band["region"], "t": [0, -2]}},
        "box_missing": {"region": {"t": [0, 2]}},
        "params_text": {"params": "x"},
        "nonneg_text": {"nonneg": "false"},
        "dv_text": {"dV": "x"},
        "lambda_bool": {"condition": "exp_stable", "params": {"lambda": True}},
        "c_ly_string": {"params": {"c_ly": "1.0"}},
        "p_string": {"condition": "sandwich", "params": {"p": "2", "c1": 0.5, "c2": 3.0}},
    }
    for name, override in errors.items():
        out[f"lyapunov_error_{name}"] = ("lyapunov", {**duffing_band, **override})
    out["lyapunov_error_kink"] = ("lyapunov", kink)
    # dX = 0.5X dt grows, yet a wrong-sign gradient of V = x^2 makes LV = -x^2
    out["lyapunov_error_dv_sign"] = ("lyapunov", {
        "system": {**EXACT, "f": ["0.5*x1"], "h": ["0"], "g": ["0"]}, "V": "x1^2",
        "mode": "analytic", "dV": {"grad": ["-2*x1"], "hess": [["2"]]},
        "region": {"t": [0, 1], "box": [[-1, 1, 5]]}, "condition": "exp_stable",
        "params": {"lambda": 0.5}})

    # V is infinite on the x1 = 0 line, so adjacent grid values differ by nan
    out["lyapunov_singular_sandwich"] = ("lyapunov", {
        "system": DUFFING, "V": "2 + x2^2 + 1/x1^2", "region": {"t": [0, 1], "box": [[-1, 1, 3]] * 2},
        "condition": "sandwich", "params": CONDITIONS["sandwich"]})

    oscillator = {**DUFFING, "lipschitz_tag": "local", "f": ["x2", "-x1 - x1^3"],
                  "h": ["0", "-0.2*x2"], "g": ["0", "0.5*x1"]}
    constant = {"kind": "constant", "value": 1.5}
    out["gsde_localized"] = ("gsde", {**oscillator, "x0": [1.0, 0.0], "policy": constant,
                                      "grid": {"t_end": 2.0, "n_steps": 200}})
    out["gsde_global"] = ("gsde", {**EXACT, "x0": [1.0], "policy": constant,
                                   "grid": {"t_end": 1.0, "n_steps": 100}})
    out["gsde_cov"] = ("gsde", {**COV_SYSTEM, "x0": [1.0, -0.5],
                                "policy": {"kind": "constant", "index": 1},
                                "grid": {"t_end": 1.0, "n_steps": 50}})

    extremes = {"kind": "extreme_constants"}
    grid = {"t_end": 1.0, "n_steps": 20}
    out["upper_band"] = ("upper", {"band": BAND, "family": extremes, "payoff": "b1^2",
                                   "grid": grid, "n_paths": 2000})
    out["upper_bangbang"] = ("upper", {"band": BAND, "payoff": "pos(b1) + 0.1*qv",
                                       "family": {"kind": "bangbang_threshold",
                                                  "thresholds": [-0.5, 0.0, 0.5]},
                                       "grid": grid, "n_paths": 1000})
    out["upper_cov"] = ("upper", {**COV, "family": extremes, "payoff": "b1^2 + b1*b2",
                                  "grid": grid, "n_paths": 1000})
    out["simulate_band"] = ("simulate", {"band": BAND, "policy": constant,
                                         "grid": {"t_end": 1.0, "n_steps": 10}, "n_paths": 3})
    out["simulate_bangbang"] = ("simulate", {"band": BAND, "n_paths": 2,
                                             "policy": {"kind": "bangbang_threshold", "theta": 0.0},
                                             "grid": {"t_end": 1.0, "n_steps": 10}})
    out["simulate_cov"] = ("simulate", {**COV, "policy": {"kind": "constant", "index": 0},
                                        "grid": {"t_end": 1.0, "n_steps": 5}, "n_paths": 2})
    out["simulate_cov_piecewise"] = ("simulate", {
        **COV, "policy": {"kind": "piecewise", "schedule": [[0, 1], [2, 0], [5, 1]]},
        "grid": {"t_end": 1.0, "n_steps": 8}, "n_paths": 3})
    model = {"alpha": -1.0, "beta": 0.2, "gamma": 0.5, "x0": 1.0}
    out["experiment_moment_decay"] = ("experiment", {
        "kind": "moment_decay", "band": BAND, "family": extremes, "model": model,
        "p": 2.0, "T": 1.0, "dt": 0.05, "n_paths": 500})
    out["experiment_lyapunov_exponent"] = ("experiment", {
        "kind": "lyapunov_exponent", "band": BAND, "family": extremes, "model": model,
        "p": 2.0, "T": 2.0, "dt": 0.05, "n_paths": 200})
    out["experiment_bt_over_t"] = ("experiment", {
        "kind": "bt_over_t", "band": BAND, "family": extremes,
        "t_values": [10.0, 100.0], "n_paths": 200})
    out["gheat_square"] = ("gheat", {"band": BAND, "payoff": "x^2",
                                     "grid": {"x_lo": -8.0, "x_hi": 8.0, "nx": 161, "T": 1.0}})
    # u_xx < 0 near the kinks, so G takes its sigma2_lo branch as well
    out["gheat_butterfly"] = ("gheat", {"band": BAND, "payoff": "pos(1 - abs(x))",
                                        "grid": {"x_lo": -8.0, "x_hi": 8.0, "nx": 161, "T": 1.0}})
    out["gheat_off_grid"] = ("gheat", {"band": BAND, "payoff": "x^2",
                                       "grid": {"x_lo": 1.0, "x_hi": 5.0, "nx": 41, "T": 1.0}})
    # edge cases of G's bits: a far tail of subnormals and zeros, -0.0 cells
    # (x > 0), a zero-width band and a band with a small lower variance
    out["gheat_butterfly_tail"] = ("gheat", {"band": BAND, "payoff": "pos(1 - abs(x))",
                                             "grid": {"x_lo": -80.0, "x_hi": 80.0, "nx": 3201,
                                                      "T": 2.0}})
    out["gheat_negative_zero"] = ("gheat", {"band": BAND, "payoff": "-(0*x)",
                                            "grid": {"x_lo": -8.0, "x_hi": 8.0, "nx": 161, "T": 1.0}})
    out["gheat_zero_width_band"] = ("gheat", {"band": [1.5, 1.5], "payoff": "pos(1 - abs(x))",
                                              "grid": {"x_lo": -8.0, "x_hi": 8.0, "nx": 161,
                                                       "T": 1.0}})
    out["gheat_wide_band"] = ("gheat", {"band": [0.01, 4.0], "payoff": "pos(1 - abs(x))",
                                        "grid": {"x_lo": -8.0, "x_hi": 8.0, "nx": 161, "T": 1.0}})
    out["linstab_stable"] = ("linstab", {"n": 1, "F": [-3.0], "H": [-1.0], "C": [1.0],
                                         "band": BAND, "P": [1.0], "mode": "stable"})
    out["linstab_unstable"] = ("linstab", {"n": 1, "F": [3.0], "H": [-1.0], "C": [1.0],
                                           "band": BAND, "P": [1.0], "mode": "unstable"})
    # X_t = x0 exp(1.3t - 1.5<B>_t) decays in every scenario: no certificate
    out["linstab_unstable_counterexample"] = ("linstab", {
        "n": 1, "F": [1.3], "H": [-1.5], "C": [0.0], "band": BAND, "P": [1.0],
        "mode": "unstable"})
    # under sigma^2 = 2 the second moment grows at rate +1: no certificate
    out["linstab_ms_counterexample"] = ("linstab", {"n": 1, "F": [-1.0], "H": [0.0],
                                                    "C": [1.5 ** 0.5], "band": BAND, "P": [3.0],
                                                    "mode": "stable"})
    out["linstab_search"] = ("linstab", {"n": 2, "F": [-10.0, 0.0, 0.0, -0.6], "H": [0.0] * 4,
                                         "C": [0.0, 3.0, 0.0, 0.0], "band": [1.0, 1.0],
                                         "mode": "search"})

    # config errors (exit 1) and blow-ups (exit 2) of the other subcommands
    def variant(case, **override):
        sub, cfg = out[case]
        return sub, {**cfg, **override}

    out["simulate_error_n_paths"] = variant("simulate_band", n_paths="x")
    out["simulate_error_negative_n_paths"] = variant("simulate_band", n_paths=-1)
    out["simulate_zero_paths"] = variant("simulate_band", n_paths=0)
    out["simulate_error_n_steps"] = variant("simulate_band", grid={"t_end": 1.0, "n_steps": 0})
    out["upper_error_t_end"] = variant("upper_band", grid={"t_end": -1.0, "n_steps": 20})
    out["upper_error_n_paths"] = variant("upper_band", n_paths=1)
    out["gsde_error_n_steps"] = variant("gsde_global", grid={"t_end": 1.0, "n_steps": 0})
    out["simulate_error_policy_band"] = variant("simulate_band",
                                                policy={"kind": "constant", "value": 3.0})
    out["simulate_error_policy_schedule"] = variant(
        "simulate_band", policy={"kind": "piecewise", "schedule": [[2, 1.0]]})
    out["upper_error_payoff_syntax"] = variant("upper_band", payoff="b1 +")
    out["upper_error_payoff_name"] = variant("upper_band", payoff="y1^2")
    out["upper_error_payoff_non_finite"] = variant("upper_band", payoff="log(b1)")
    out["gheat_error_payoff"] = variant("gheat_square", payoff="x +")
    square_grid = out["gheat_square"][1]["grid"]
    out["gheat_error_nx"] = variant("gheat_square", grid={**square_grid, "nx": 2})
    out["gheat_error_x_range"] = variant("gheat_square", grid={**square_grid, "x_lo": 8.0})
    out["gheat_error_t"] = variant("gheat_square", grid={**square_grid, "T": 0.0})
    out["gsde_error_x0"] = variant("gsde_global", x0=[1.0, 2.0])
    out["gsde_error_schedule"] = variant("gsde_localized", schedule=[4.0, 2.0])
    out["gsde_blowup_global"] = variant("gsde_global", f=["x1^3"], h=["0"], g=["0"], x0=[2.0],
                                        grid={"t_end": 2.0, "n_steps": 200})
    out["gsde_blowup_localized"] = variant(
        "gsde_localized", f=["1", "0*sqrt(1.5 - x1)"], h=["0", "0"], g=["0", "0"],
        x0=[0.0, 0.0], schedule=[2.0, 4.0, 8.0], grid={"t_end": 5.0, "n_steps": 500})
    out["linstab_error_p"] = variant("linstab_stable", P=[-1.0])
    out["linstab_error_n_zero"] = variant("linstab_stable", n=0, F=[], H=[], C=[], P=[])
    out["linstab_error_n_negative"] = variant("linstab_stable", n=-1)
    out["linstab_error_matrix_text"] = variant("linstab_stable", F=["a"])
    out["upper_error_no_constants"] = variant("upper_band",
                                              family={"kind": "constants_only", "n": 0})
    out["experiment_error_times"] = variant("experiment_moment_decay", times=[1.0, 5.0, -2.0])
    out["experiment_error_t_values_text"] = variant("experiment_bt_over_t", t_values=["a"])
    out["upper_error_thresholds_empty"] = variant(
        "upper_bangbang", family={"kind": "bangbang_threshold", "thresholds": []})
    out["upper_error_thresholds_text"] = variant(
        "upper_bangbang", family={"kind": "bangbang_threshold", "thresholds": ["a"]})
    out["simulate_error_policy_kind"] = variant("simulate_band", policy={"kind": 5})
    out["simulate_error_policy_theta"] = variant(
        "simulate_bangbang", policy={"kind": "bangbang_threshold", "theta": "x"})
    out["simulate_error_hi_above_text"] = variant(
        "simulate_bangbang", policy={"kind": "bangbang_threshold", "theta": 0.0,
                                     "hi_above": "false"})
    out["simulate_error_n_paths_float"] = variant("simulate_band", n_paths=2.7)
    out["upper_error_family_n_float"] = variant("upper_band",
                                                family={"kind": "constants_only", "n": 2.7})
    out["experiment_error_model_alpha"] = variant("experiment_moment_decay",
                                                  model={**model, "alpha": "x"})
    out["experiment_error_lambda_bool"] = variant("experiment_moment_decay", **{"lambda": True})
    out["experiment_error_lambda_string"] = variant("experiment_moment_decay", **{"lambda": "0.5"})
    out["simulate_error_member_fraction"] = variant("simulate_cov",
                                                    policy={"kind": "constant", "value": 1.7})
    for name, schedule in (("step_float", [[0, 1.0], [2.7, 2.0]]),
                           ("value_text", [[0, "1.5"], [2, 2.0]]),
                           ("value_bool", [[0, 1.5], [2, True]])):
        out[f"simulate_error_schedule_{name}"] = variant(
            "simulate_band", policy={"kind": "piecewise", "schedule": schedule})
    # constants of the wrong JSON type, times that are no list of numbers and
    # a horizon <= 0 used to end in a traceback
    for case in ("upper_band", "gheat_square", "gsde_global"):
        out[f"{case.split('_')[0]}_error_constants_type"] = variant(case, constants=[1.0])
    out["gheat_error_constants_value"] = variant("gheat_square", payoff="a*x^2",
                                                 constants={"a": "x"})
    out["lyapunov_error_constants_type"] = ("lyapunov", {**duffing_band, "constants": [2.0]})
    out["lyapunov_error_system_constants_type"] = (
        "lyapunov", {**duffing_band, "system": {**DUFFING, "constants": 3.0}})
    out["experiment_error_times_type"] = variant("experiment_moment_decay", times=5)
    out["experiment_error_times_text"] = variant("experiment_moment_decay", times=["a"])
    out["experiment_error_t_values_zero"] = variant("experiment_bt_over_t", t_values=[0.0, 10.0])
    # fractional counts used to be truncated, and true read as 1
    out["lyapunov_error_box_count_float"] = ("lyapunov", {
        **duffing_band, "region": {**duffing_band["region"], "box": [[-5, 5, 11.5]] * 2}})
    out["gsde_error_n_float"] = variant("gsde_global", n=1.5)
    out["gsde_error_n_text"] = variant("gsde_global", n="1")
    out["gheat_error_nt_float"] = variant("gheat_square", grid={**square_grid, "nt": 2.5})
    out["simulate_error_n_paths_bool"] = variant("simulate_band", n_paths=True)
    # band-only kinds and subcommands and the geometric model under a set,
    # and a band paired with d = 2 (gsde and lyapunov used to exit 0 on it)
    def swapped(case, **unc):
        sub, cfg = out[case]
        return sub, {k: v for k, v in cfg.items() if k not in ("band", "dim", "members")} | unc

    for case in ("simulate_bangbang", "upper_bangbang", "gheat_square", "linstab_stable",
                 "experiment_bt_over_t"):
        out[case.replace("_", "_error_", 1) + "_cov"] = swapped(case, **COV)
    out["experiment_error_derived_rate_set"] = swapped("experiment_moment_decay", dim=1,
                                                       members=[[1.0], [2.0]])
    out["experiment_error_closed_form_cov"] = swapped("experiment_moment_decay", **COV,
                                                      **{"lambda": 1.0})
    out["gsde_error_band_two_noises"] = swapped("gsde_cov", band=BAND)
    out["lyapunov_error_band_two_noises"] = ("lyapunov", {
        "system": {"n": 1, "d": 2, "band": BAND, "f": ["0"], "h": [[["0", "0"], ["0", "0"]]],
                   "g": [["0", "2*x1"]]},
        "V": "x1^2", "region": {"t": [0, 1], "box": [[-1, 1, 5]]}, "condition": "nonpositive"})
    out["upper_error_payoff_exponent"] = variant("upper_band", payoff="2e-b1")
    return out


def variants(name: str, sub: str) -> list:
    """The flag sets a case runs with: the default output, then the
    subcommand's other writer paths unless the case is an error case."""
    out = [()] + ([("--threads", "2")] if sub == "upper" else [])
    if "_error" in name or "_blowup" in name:
        return out
    if sub in CSV_SUBCOMMANDS:
        return out + [("--emit-plot-data",), ("--format", "json")]
    return out + [("--format", "csv")]


def extract(ref: str, dest: Path) -> None:
    blob = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", ref],
                          check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(dest, filter="data")


def run(src: Path, sub: str, config: Path, seed: int, cwd: Path, flags=()):
    env = {**os.environ, "PYTHONPATH": str(src)}
    p = subprocess.run([sys.executable, "-m", "gcalc.cli", sub, "--config", str(config),
                        "--seed", str(seed), *flags], capture_output=True, env=env, cwd=cwd)
    return p.stdout, p.stderr, p.returncode


def first_difference(a: bytes, b: bytes) -> str:
    la, lb = a.decode(errors="replace").splitlines(), b.decode(errors="replace").splitlines()
    for i in range(max(len(la), len(lb))):
        x = la[i] if i < len(la) else "<end>"
        y = lb[i] if i < len(lb) else "<end>"
        if x != y:
            return f"line {i + 1}:\n      base: {x[:200]}\n      tree: {y[:200]}"
    return "same lines, different bytes (line endings?)"


def expected_cases() -> tuple:
    """The base commit the list names (None if none) and the case names it
    lists as differing on purpose."""
    if not EXPECTED.exists():
        return None, set()
    base, names = None, set()
    for line in EXPECTED.read_text().splitlines():
        name, _, comment = (part.strip() for part in line.partition("#"))
        if name:
            names.add(name)
        elif comment.startswith("base:"):
            base = comment[len("base:"):].strip() or None
    return base, names


def resolve(ref: str) -> str:
    """The full sha of the commit ref names."""
    return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", f"{ref}^{{commit}}"],
                          check=True, capture_output=True, text=True).stdout.strip()


def listed_for(base_sha: str) -> set:
    """The listed cases that apply against base_sha: all of them when the
    list names that commit (a prefix of at least 7 hex digits will do),
    none otherwise, each skipped one printed."""
    base, names = expected_cases()
    if base is not None and len(base) >= 7 and base_sha.startswith(base.lower()):
        return names
    for name in sorted(names):
        print(f"SKIP  {name} (listed for base {base}, not {base_sha[:12]})")
    return set()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1 or argv[0].startswith("-"):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    expected, all_cases = listed_for(resolve(argv[0])), cases()
    failed = [f"{EXPECTED.name} names no case: {name}" for name in sorted(expected - set(all_cases))]
    with tempfile.TemporaryDirectory(prefix="cli_cmp_") as tmp:
        tmp = Path(tmp)
        extract(argv[0], tmp / "base")
        (tmp / "configs").mkdir()
        differ = runs = 0
        differing = set()
        for name, (sub, cfg) in all_cases.items():
            config = tmp / "configs" / f"{name}.json"
            config.write_text(json.dumps(cfg))
            for flags, seed in [(f, s) for f in variants(name, sub) for s in SEEDS]:
                case = " ".join([name, f"seed={seed}", *flags])
                runs += 1
                base = run(tmp / "base" / "src", sub, config, seed, tmp, flags)
                tree = run(ROOT / "src", sub, config, seed, tmp, flags)
                if base == tree:
                    print(f"same  {case} exit={tree[2]}")
                    continue
                differ += 1
                differing.add(name)
                print(f"{'EXPECTED DIFF' if name in expected else 'DIFF'}  {case}")
                if base[2] != tree[2]:
                    print(f"    exit code: base {base[2]}, tree {tree[2]}")
                for label, a, b in (("stdout", base[0], tree[0]), ("stderr", base[1], tree[1])):
                    if a != b:
                        print(f"    {label} {first_difference(a, b)}")
        print(f"{runs - differ} of {runs} runs identical, {differ} differ ({argv[0]} vs working tree)")
    failed += [f"differs but is not in {EXPECTED.name}: {name}" for name in sorted(differing - expected)]
    failed += [f"in {EXPECTED.name} but identical on every run: {name}"
               for name in sorted((expected & set(all_cases)) - differing)]
    for line in failed:
        print(f"FAIL  {line}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
