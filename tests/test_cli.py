import json
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from gcalc.cli import main


def write_cfg(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


@pytest.fixture
def derived_linstab_cfg(tmp_path):
    return write_cfg(tmp_path, "ex_ri.json", {
        "n": 1, "F": [-3.0], "H": [-1.0], "C": [1.0],
        "band": [1.0, 2.0], "P": [1.0], "mode": "stable",
    })


@pytest.fixture
def square_cfg(tmp_path):
    return write_cfg(tmp_path, "square.json", {
        "band": [1.0, 2.0], "payoff": "x^2",
        "grid": {"x_lo": -12.0, "x_hi": 12.0, "nx": 401, "T": 1.0},
    })


@pytest.fixture
def duffing_cfg(tmp_path):
    def make(c_ly):
        return write_cfg(tmp_path, f"duffing_{c_ly}.json", {
            "system": {
                "n": 2, "d": 1, "band": [1.0, 2.0],
                "f": ["0", "0"], "h": ["x2", "-x1 - x1^3 - x2"], "g": ["0", "1"],
            },
            "V": "1 + 0.5*x2^2 + 0.5*x1^2 + 0.25*x1^4",
            "mode": "finite_difference",
            "region": {"t": [0, 5], "box": [[-5, 5, 21], [-5, 5, 21]]},
            "condition": "growth", "params": {"c_ly": c_ly},
        })

    return make


SIM_OK = {"band": [1.0, 2.0], "grid": {"t_end": 1.0, "n_steps": 8},
          "policy": {"kind": "constant", "value": 1.5}, "n_paths": 2}
SIM_SET = {"dim": 1, "members": [[[1.0]], [[2.0]]], "grid": {"t_end": 1.0, "n_steps": 8},
           "policy": {"kind": "constant", "index": 1}, "n_paths": 2}
UPPER_OK = {"band": [1.0, 2.0], "grid": {"t_end": 1.0, "n_steps": 8}, "payoff": "b1^2",
            "family": {"kind": "extreme_constants"}, "n_paths": 100}
GHEAT_OK = {"band": [1.0, 2.0], "payoff": "x^2",
            "grid": {"x_lo": -4.0, "x_hi": 4.0, "nx": 41, "T": 1.0}}
GSDE_OK = {"n": 1, "d": 1, "band": [1.0, 2.0], "f": ["-x1"], "h": ["0"], "g": ["x1"],
           "x0": [1.0], "policy": {"kind": "constant", "value": 1.5},
           "grid": {"t_end": 1.0, "n_steps": 20}}
LINSTAB_OK = {"n": 1, "F": [-3.0], "H": [-1.0], "C": [1.0], "band": [1.0, 2.0],
              "P": [1.0], "mode": "stable"}
MOMENT_DECAY_OK = {"kind": "moment_decay", "band": [1.0, 2.0],
                   "family": {"kind": "extreme_constants"},
                   "model": {"alpha": -1.0, "beta": 0.2, "gamma": 0.5, "x0": 1.0},
                   "p": 2.0, "T": 1.0, "dt": 0.05, "n_paths": 200}

LYAPUNOV_OK = {
    "system": {"n": 2, "d": 1, "band": [1.0, 2.0],
               "f": ["0", "0"], "h": ["x2", "-x1 - x1^3 - x2"], "g": ["0", "1"]},
    "V": "1 + 0.5*x2^2 + 0.5*x1^2 + 0.25*x1^4", "mode": "finite_difference",
    "region": {"t": [0, 1], "box": [[-2, 2, 5], [-2, 2, 5]]},
    "condition": "growth", "params": {"c_ly": 1.0},
}

# V = |x| has no second derivative at the grid point x = 0
KINK_OK = {"system": {"n": 1, "d": 1, "band": [1.0, 2.0], "f": ["-x1"], "h": ["0"], "g": ["1"]},
           "V": "abs(x1)", "region": {"t": [0, 1], "box": [[-1, 1, 5]]},
           "condition": "nonpositive"}
# dX = 0.5X dt grows: with V = x^2, LV = x^2 and exp_stable fails; a
# wrong-sign /dV/grad would make LV = -x^2 and pass it
GROWING = {"system": {"n": 1, "d": 1, "band": [1.0, 2.0], "f": ["0.5*x1"], "h": ["0"],
                      "g": ["0"]},
           "V": "x1^2", "region": {"t": [0, 1], "box": [[-1, 1, 5]]},
           "condition": "exp_stable", "params": {"lambda": 0.5}}
WRONG_SIGN = GROWING | {"mode": "analytic", "dV": {"grad": ["-2*x1"], "hess": [["2"]]}}
# dX = -3X dt + 0.5X d<B> + X dB with V = x^2 has LV = -2V exactly
EXACT_RATE = {"system": {"n": 1, "d": 1, "band": [1.0, 2.0], "f": ["-3*x1"], "h": ["0.5*x1"],
                         "g": ["x1"]},
              "V": "x1^2", "region": {"t": [0, 1], "box": [[-50, 50, 101]]},
              "condition": "exp_stable"}


class TestExitCodes:
    def test_linstab_derived_passes(self, derived_linstab_cfg, tmp_path, capsys):
        out = tmp_path / "cert.json"
        assert main(["linstab", "--config", derived_linstab_cfg, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["kind"] == "ms_stable"
        assert doc["margin"] == pytest.approx(6.0, abs=1e-9)

    def test_lyapunov_below_threshold_exits_two(self, duffing_cfg, tmp_path):
        cfg = duffing_cfg(0.0)
        out = tmp_path / "rep.json"
        assert main(["lyapunov", "--config", cfg, "--out", str(out)]) == 2
        assert json.loads(out.read_text())["verdict"] == "fail"

    def test_lyapunov_at_derived_constant_passes(self, duffing_cfg, tmp_path):
        assert main(["lyapunov", "--config", duffing_cfg(1.0),
                     "--out", str(tmp_path / "ok.json")]) == 0

    @pytest.mark.parametrize("lam,code", [(2.0, 0), (2.5, 2)])
    def test_exact_rate_verdict_in_default_mode(self, tmp_path, lam, code):
        cfg = write_cfg(tmp_path, "exact.json", EXACT_RATE | {"params": {"lambda": lam}})
        assert main(["lyapunov", "--config", cfg, "--out", str(tmp_path / "rep.json")]) == code

    @pytest.mark.parametrize("params,code", [
        ({"lam": 2.0}, 0), ({"lam": 2.5}, 2), ({"lambda": 2.0, "lam": 2.5}, 0),
        ({"lambda": 2.0, "mu": "x"}, 0),
    ], ids=["lam", "lam_fails", "lambda_first", "unread_key"])
    def test_lam_alias_and_unread_keys(self, tmp_path, params, code):
        cfg = write_cfg(tmp_path, "exact.json", EXACT_RATE | {"params": params})
        assert main(["lyapunov", "--config", cfg, "--out", str(tmp_path / "rep.json")]) == code

    def test_infinite_parameter_is_a_config_error(self, tmp_path, capsys):
        # inf * V at V = 0 used to give max_violation NaN, a RuntimeWarning and exit 2
        cfg = write_cfg(tmp_path, "c.json", GROWING | {"condition": "growth",
                                                       "params": {"c_ly": float("inf")}})
        assert main(["lyapunov", "--config", cfg]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == ("gcalc lyapunov: error: /params/c_ly: c_ly must be a "
                                     "finite number, got inf\n")

    def test_kink_on_the_grid_names_the_point(self, tmp_path, capsys):
        assert main(["lyapunov", "--config", write_cfg(tmp_path, "k.json", KINK_OK)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("gcalc lyapunov: error: /V on /region: ")
        assert "t=0.0, x=[0.0]" in err and err.count("\n") == 1
        # off the kink LV = -|x| <= 0
        excluded = KINK_OK | {"region": {"t": [0, 1], "box": [[-1, 1, 5]], "exclude_r0": 0.25}}
        out = tmp_path / "rep.json"
        assert main(["lyapunov", "--config", write_cfg(tmp_path, "e.json", excluded),
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["verdict"] == "pass" and doc["max_violation"] == -0.5 and doc["grid_size"] == 8

    def test_usage_errors_exit_one(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "missing.json")]) == 1
        bad = write_cfg(tmp_path, "bad.json", {"band": [1.0, 2.0]})
        assert main(["simulate", "--config", bad]) == 1

    def test_unknown_subcommand(self):
        assert main(["frobnicate", "--config", "x"]) == 1

    @pytest.mark.parametrize("sub,cfg,pointer", [
        ("experiment", {"kind": "bt_over_t", "dim": 2, "members": [[[1, 0], [0, 1]]],
                        "family": {"kind": "extreme_constants"},
                        "t_values": [10.0, 100.0], "n_paths": 100}, "/band"),
        ("experiment", {"kind": "bt_over_t", "band": [1.0, 2.0],
                        "family": {"kind": "extreme_constants"},
                        "t_values": [100.0, 10.0], "n_paths": 100}, "/t_values"),
        ("upper", {"dim": 2, "members": [[[1, 0], [0, 1]]], "payoff": "b1^2",
                   "family": {"kind": "bangbang_threshold", "thresholds": [0.0]},
                   "grid": {"t_end": 1.0, "n_steps": 8}, "n_paths": 100}, "/band"),
        ("lyapunov", LYAPUNOV_OK | {"region": {"t": [0, 1], "box": [[-1, 1, 1], [-1, 1, 3]]}},
         "/region/box"),
        ("lyapunov", LYAPUNOV_OK | {"region": {"t": [0, 1], "box": [[-1, 1, 3]]}},
         "/region/box"),
        ("lyapunov", LYAPUNOV_OK | {"V": "x1^2 + x2^2", "condition": "find_cly"}, "/V"),
        ("lyapunov", LYAPUNOV_OK | {"V": "x1^2 - 1"}, "/V"),
        ("lyapunov", LYAPUNOV_OK | {"mode": "analytic", "dV": {
            "grad": ["x1"], "hess": [["1", "0"], ["0", "1"]]}}, "/dV/grad"),
        ("lyapunov", LYAPUNOV_OK | {"mode": "analytic", "dV": {
            "grad": ["x1", "x2"], "hess": [["1", "0"], ["0"]]}}, "/dV/hess"),
        ("lyapunov", LYAPUNOV_OK | {"condition": "sandwich", "params": {"c1": 1, "c2": 2}},
         "/params/p"),
        ("lyapunov", LYAPUNOV_OK | {"condition": "exp_stable", "params": {"lambda": 0.0}},
         "/params"),
        ("lyapunov", LYAPUNOV_OK | {"mode": "symbolic"}, "/mode"),
        ("lyapunov", LYAPUNOV_OK | {"mode": "analytic", "dV": {
            "dt": "s", "grad": ["x1", "x2"], "hess": [["1", "0"], ["0", "1"]]}}, "/dV/dt"),
        ("lyapunov", LYAPUNOV_OK | {"mode": "analytic", "dV": {
            "grad": ["2*y1", "x2"], "hess": [["1", "0"], ["0", "1"]]}}, "/dV/grad"),
        ("lyapunov", LYAPUNOV_OK | {"mode": "analytic", "dV": {
            "grad": ["x1", "x2"], "hess": [["1", "0"], ["0", "1 +"]]}}, "/dV/hess"),
        ("simulate", SIM_OK | {"n_paths": "x"}, "/n_paths"),
        ("simulate", SIM_OK | {"policy": {"kind": "constant", "value": 3.0}}, "/policy"),
        ("simulate", SIM_OK | {"policy": {"kind": "piecewise", "schedule": [[2, 1.0]]}},
         "/policy/schedule"),
        ("gsde", GSDE_OK | {"policy": {"kind": "piecewise", "schedule": [[0, 1.0], [3, 2.5]]}},
         "/policy"),
        ("upper", UPPER_OK | {"payoff": "b1 +"}, "/payoff"),
        ("upper", UPPER_OK | {"payoff": "y1^2"}, "/payoff"),
        ("upper", UPPER_OK | {"payoff": "log(b1)"}, "/payoff"),
        ("gheat", GHEAT_OK | {"payoff": "x +"}, "/payoff"),
        ("gheat", GHEAT_OK | {"payoff": "b1"}, "/payoff"),
        ("gsde", GSDE_OK | {"x0": [1.0, 2.0]}, "/x0"),
        ("gsde", GSDE_OK | {"schedule": [4.0, 2.0]}, "/schedule"),
        ("linstab", LINSTAB_OK | {"P": [-1.0]}, "/P"),
        ("experiment", MOMENT_DECAY_OK | {"times": [1.0, 5.0, -2.0]}, "/times"),
        ("lyapunov", KINK_OK, "/region/exclude_r0"),
        ("simulate", SIM_OK | {"grid": {"t_end": 1.0, "n_steps": 0}}, "/grid/n_steps"),
        ("upper", UPPER_OK | {"grid": {"t_end": -1.0, "n_steps": 8}}, "/grid/t_end"),
        ("gsde", GSDE_OK | {"grid": {"t_end": 1.0, "n_steps": 0}}, "/grid/n_steps"),
        ("upper", UPPER_OK | {"n_paths": 1}, "/n_paths"),
        ("simulate", SIM_OK | {"n_paths": -1}, "/n_paths"),
        ("gheat", GHEAT_OK | {"grid": GHEAT_OK["grid"] | {"nx": 2}}, "/grid/nx"),
        ("gheat", GHEAT_OK | {"grid": GHEAT_OK["grid"] | {"x_lo": 4.0}}, "/grid/x_hi"),
        ("gheat", GHEAT_OK | {"grid": GHEAT_OK["grid"] | {"x_hi": -5.0}}, "/grid/x_hi"),
        ("gheat", GHEAT_OK | {"grid": GHEAT_OK["grid"] | {"T": 0.0}}, "/grid/T"),
        ("gheat", GHEAT_OK | {"grid": GHEAT_OK["grid"] | {"T": -1.0}}, "/grid/T"),
        ("gheat", GHEAT_OK | {"grid": GHEAT_OK["grid"] | {"nt": -3}}, "/grid/nt"),
        ("lyapunov", LYAPUNOV_OK | {"region": LYAPUNOV_OK["region"] | {"t": [0]}}, "/region/t"),
        ("lyapunov", LYAPUNOV_OK | {"region": LYAPUNOV_OK["region"] | {"nt": "two"}},
         "/region/nt"),
        ("linstab", LINSTAB_OK | {"n": 0, "F": [], "H": [], "C": [], "P": []}, "/n"),
        ("linstab", LINSTAB_OK | {"n": -1}, "/n"),
        ("linstab", LINSTAB_OK | {"F": ["a"]}, "/F"),
        ("experiment", {"kind": "bt_over_t", "band": [1.0, 2.0],
                        "family": {"kind": "extreme_constants"},
                        "t_values": ["a"], "n_paths": 100}, "/t_values"),
        ("upper", UPPER_OK | {"family": {"kind": "constants_only", "n": 0}}, "/family/n"),
        ("upper", UPPER_OK | {"family": {"kind": "bangbang_threshold", "thresholds": []}},
         "/family/thresholds"),
        ("upper", UPPER_OK | {"family": {"kind": "bangbang_threshold", "thresholds": ["a"]}},
         "/family/thresholds"),
        ("upper", UPPER_OK | {"family": {"kind": 5}}, "/family/kind"),
        ("simulate", SIM_OK | {"policy": {"kind": 5}}, "/policy/kind"),
        ("simulate", SIM_OK | {"policy": {"value": 1.5}}, "/policy/kind"),
        ("simulate", SIM_OK | {"policy": {"kind": "bangbang_threshold", "theta": "x"}},
         "/policy/theta"),
        ("simulate", SIM_OK | {"policy": {"kind": "constant", "index": "0"}}, "/policy/index"),
        ("experiment", MOMENT_DECAY_OK | {"model": MOMENT_DECAY_OK["model"] | {"alpha": "x"}},
         "/model/alpha"),
        ("experiment", MOMENT_DECAY_OK | {"model": {"alpha": -1.0}}, "/model/beta"),
        ("lyapunov", LYAPUNOV_OK | {"region": {"t": [0, 1]}}, "/region/box"),
        ("lyapunov", LYAPUNOV_OK | {"region": LYAPUNOV_OK["region"] | {"nt": 0}}, "/region/nt"),
        ("lyapunov", LYAPUNOV_OK | {"region": LYAPUNOV_OK["region"] | {"nt": -3}}, "/region/nt"),
        ("lyapunov", LYAPUNOV_OK | {"region": LYAPUNOV_OK["region"] | {"t": [3, 5]}}, "/region/t"),
        ("lyapunov", LYAPUNOV_OK | {"region": LYAPUNOV_OK["region"] | {"t": [0, -2]}},
         "/region/t"),
        ("lyapunov", LYAPUNOV_OK | {"region": LYAPUNOV_OK["region"] | {"nt": 2.7}}, "/region/nt"),
        ("lyapunov", LYAPUNOV_OK | {"region": LYAPUNOV_OK["region"] | {"nt": "3"}}, "/region/nt"),
        ("lyapunov", LYAPUNOV_OK | {"region": LYAPUNOV_OK["region"] | {"exclude_r0": "0.6"}},
         "/region/exclude_r0"),
        ("lyapunov", LYAPUNOV_OK | {"region": LYAPUNOV_OK["region"] | {"exclude_r0": True}},
         "/region/exclude_r0"),
        ("lyapunov", LYAPUNOV_OK | {"params": "x"}, "/params"),
        ("lyapunov", LYAPUNOV_OK | {"nonneg": "false"}, "/nonneg"),
        ("simulate", SIM_OK | {"policy": {"kind": "bangbang_threshold", "theta": 0.0,
                                          "hi_above": "false"}}, "/policy/hi_above"),
        ("simulate", SIM_OK | {"n_paths": 2.7}, "/n_paths"),
        ("upper", UPPER_OK | {"family": {"kind": "constants_only", "n": 2.7}}, "/family/n"),
        ("lyapunov", WRONG_SIGN, "/dV/grad/0"),
        ("lyapunov", LYAPUNOV_OK | {"dV": "x"}, "/dV"),
        ("lyapunov", GROWING | {"params": {"lambda": True}}, "/params/lambda"),
        ("lyapunov", GROWING | {"params": {"lam": "0.5"}}, "/params/lam"),
        ("lyapunov", LYAPUNOV_OK | {"params": {"c_ly": "1.0"}}, "/params/c_ly"),
        ("lyapunov", LYAPUNOV_OK | {"condition": "sandwich",
                                    "params": {"p": True, "c1": 0.5, "c2": 3.0}}, "/params/p"),
        ("lyapunov", LYAPUNOV_OK | {"condition": "sandwich",
                                    "params": {"p": 2.0, "c1": "0.5", "c2": 3.0}}, "/params/c1"),
        ("lyapunov", LYAPUNOV_OK | {"condition": "sandwich",
                                    "params": {"p": 2.0, "c1": 0.5, "c2": False}}, "/params/c2"),
        ("experiment", MOMENT_DECAY_OK | {"lambda": True}, "/lambda"),
        ("experiment", MOMENT_DECAY_OK | {"lambda": "0.5"}, "/lambda"),
        ("simulate", SIM_SET | {"policy": {"kind": "constant", "value": 1.7}}, "/policy"),
        ("simulate", SIM_SET | {"policy": {"kind": "piecewise", "schedule": [[0, 1.9], [2, 0.2]]}},
         "/policy"),
        ("simulate", SIM_OK | {"policy": {"kind": "piecewise", "schedule": [[0, 1.0], [2.7, 2.0]]}},
         "/policy/schedule/1"),
        ("simulate", SIM_OK | {"policy": {"kind": "piecewise", "schedule": [[0, "1.5"], [2, 2.0]]}},
         "/policy/schedule/0"),
        ("simulate", SIM_OK | {"policy": {"kind": "piecewise", "schedule": [[0, 1.5], [2, True]]}},
         "/policy/schedule/1"),
        ("simulate", SIM_OK | {"policy": {"kind": "piecewise", "schedule": [[0, 1.5], [2]]}},
         "/policy/schedule/1"),
        ("upper", UPPER_OK | {"constants": [1.0]}, "/constants"),
        ("gheat", GHEAT_OK | {"constants": "x"}, "/constants"),
        ("gheat", GHEAT_OK | {"payoff": "a*x", "constants": {"a": "x"}}, "/constants/a"),
        ("gsde", GSDE_OK | {"constants": 5}, "/constants"),
        ("lyapunov", LYAPUNOV_OK | {"constants": [2.0]}, "/constants"),
        ("lyapunov", LYAPUNOV_OK | {"system": LYAPUNOV_OK["system"] | {"constants": 3.0}},
         "/system/constants"),
        ("experiment", MOMENT_DECAY_OK | {"times": 5}, "/times"),
        ("experiment", MOMENT_DECAY_OK | {"times": ["a"]}, "/times"),
        ("experiment", {"kind": "bt_over_t", "band": [1.0, 2.0],
                        "family": {"kind": "extreme_constants"},
                        "t_values": [0.0, 10.0], "n_paths": 100}, "/t_values"),
        ("lyapunov", LYAPUNOV_OK | {"region": {"t": [0, 1], "box": [[-5, 5, 11.5], [-5, 5, 11]]}},
         "/region/box/0/2"),
        ("gsde", GSDE_OK | {"n": 1.5}, "/n"),
        ("gsde", GSDE_OK | {"n": "1"}, "/n"),
        ("gheat", GHEAT_OK | {"grid": GHEAT_OK["grid"] | {"nt": 2.5}}, "/grid/nt"),
        ("simulate", SIM_OK | {"n_paths": True}, "/n_paths"),
        ("lyapunov", LYAPUNOV_OK | {"params": {"c_ly": float("inf")}}, "/params/c_ly"),
        ("lyapunov", GROWING | {"params": {"lambda": float("inf")}}, "/params/lambda"),
        ("lyapunov", GROWING | {"params": {"lam": float("nan")}}, "/params/lam"),
        ("lyapunov", LYAPUNOV_OK | {"params": {"c_ly": 1.0, "lambda": "x"}}, "/params/lambda"),
        ("lyapunov", LYAPUNOV_OK | {"condition": "bogus"}, "/condition"),
    ], ids=["bt_over_t_covariance_set", "bt_over_t_decreasing", "bangbang_family_covariance_set",
            "lyapunov_axis_count", "lyapunov_axis_number", "lyapunov_v_min",
            "lyapunov_negative_v", "lyapunov_grad_shape", "lyapunov_hess_shape",
            "lyapunov_missing_p", "lyapunov_lambda", "lyapunov_mode",
            "lyapunov_dt_expression", "lyapunov_grad_expression", "lyapunov_hess_expression",
            "simulate_n_paths", "simulate_policy_band", "simulate_policy_schedule",
            "gsde_policy_band", "upper_payoff_syntax", "upper_payoff_name",
            "upper_payoff_non_finite", "gheat_payoff_syntax", "gheat_payoff_name",
            "gsde_x0_length", "gsde_schedule_order", "linstab_p_not_spd", "experiment_times",
            "lyapunov_kink", "simulate_n_steps", "upper_t_end", "gsde_n_steps",
            "upper_n_paths", "simulate_negative_n_paths", "gheat_nx", "gheat_x_equal",
            "gheat_x_reversed", "gheat_t_zero", "gheat_t_negative", "gheat_nt_negative",
            "lyapunov_t_short", "lyapunov_nt_text", "linstab_n_zero", "linstab_n_negative",
            "linstab_matrix_text", "bt_over_t_text", "upper_no_constants",
            "upper_thresholds_empty", "upper_thresholds_text", "upper_family_kind",
            "simulate_policy_kind", "simulate_policy_no_kind", "simulate_policy_theta",
            "simulate_policy_index", "experiment_model_alpha", "experiment_model_missing",
            "lyapunov_region_box", "lyapunov_nt_zero", "lyapunov_nt_negative",
            "lyapunov_t_start", "lyapunov_t_negative", "lyapunov_nt_float", "lyapunov_nt_string",
            "lyapunov_exclude_r0_string", "lyapunov_exclude_r0_bool", "lyapunov_params_text",
            "lyapunov_nonneg_text", "simulate_hi_above_text", "simulate_n_paths_float",
            "upper_family_n_float", "lyapunov_dv_sign", "lyapunov_dv_text",
            "lyapunov_lambda_bool", "lyapunov_lam_string", "lyapunov_c_ly_string",
            "lyapunov_p_bool", "lyapunov_c1_string", "lyapunov_c2_bool",
            "experiment_lambda_bool", "experiment_lambda_string", "simulate_member_fraction",
            "simulate_schedule_member_fraction", "simulate_schedule_step_float",
            "simulate_schedule_value_text", "simulate_schedule_value_bool",
            "simulate_schedule_entry_short", "upper_constants_type", "gheat_constants_type",
            "gheat_constants_value", "gsde_constants_type", "lyapunov_constants_type",
            "lyapunov_system_constants_type", "experiment_times_type", "experiment_times_text",
            "bt_over_t_t_values_zero", "lyapunov_box_count_float", "gsde_n_float", "gsde_n_text",
            "gheat_nt_float", "simulate_n_paths_bool", "lyapunov_c_ly_infinite",
            "lyapunov_lambda_infinite", "lyapunov_lam_nan", "lyapunov_unread_param_text",
            "lyapunov_condition_unknown"])
    def test_config_errors_exit_one_naming_pointer(self, tmp_path, capsys, sub, cfg, pointer):
        path = write_cfg(tmp_path, "c.json", cfg)
        assert main([sub, "--config", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"gcalc {sub}: error: ")
        assert pointer in err
        assert err.count("\n") == 1

    def test_wrong_sign_gradient_names_the_entry(self, tmp_path, capsys):
        # the supplied table used to decide the verdict: pass, exit 0
        assert main(["lyapunov", "--config", write_cfg(tmp_path, "w.json", WRONG_SIGN)]) == 1
        err = capsys.readouterr().err
        assert err == ("gcalc lyapunov: error: /dV/grad/0: supplied grad/0 is "
                       "2.0 where V's symbolic derivative is -2.0, at t=0.0, x=[-1.0]\n")
        out = tmp_path / "rep.json"
        assert main(["lyapunov", "--config", write_cfg(tmp_path, "g.json", GROWING),
                     "--out", str(out)]) == 2
        assert json.loads(out.read_text())["max_violation"] == 1.5

    @pytest.mark.parametrize("dv", [
        {"dt": "0", "grad": ["2*x1"], "hess": [["2"]]},
        {"grad": ["2*x1"]},
        {"hess": [["2"]], "dt": "0*t"},
    ], ids=["all", "grad_only", "hess_and_timed_dt"])
    @pytest.mark.parametrize("mode", ["analytic", "finite_difference"])
    def test_agreeing_dv_leaves_bytes_unchanged(self, tmp_path, capsys, dv, mode):
        def run(cfg):
            # the report after its meta lines, which hold the config hash
            code = main(["lyapunov", "--config", write_cfg(tmp_path, "c.json", cfg)])
            out, err = capsys.readouterr()
            return code, out[out.index('  "condition"'):], err

        for lam in (2.0, 2.5):
            cfg = EXACT_RATE | {"params": {"lambda": lam}}
            assert run(cfg | {"mode": mode, "dV": dv}) == run(cfg)

    def test_linstab_noise_free_decay_is_not_unstable(self, tmp_path, capsys):
        # X_t = x0 exp(1.3t - 1.5<B>_t) decays in every scenario
        cfg = LINSTAB_OK | {"F": [1.3], "H": [-1.5], "C": [0.0], "mode": "unstable"}
        out = tmp_path / "cert.json"
        assert main(["linstab", "--config", write_cfg(tmp_path, "u.json", cfg),
                     "--out", str(out)]) == 2
        doc = json.loads(out.read_text())
        assert doc["kind"] == "inconclusive" and doc["margin"] == pytest.approx(-4.4, abs=1e-12)
        growing = cfg | {"F": [0.6], "H": [0.0], "C": [1.0]}
        assert main(["linstab", "--config", write_cfg(tmp_path, "g.json", growing),
                     "--out", str(tmp_path / "g_cert.json")]) == 0
        doc = json.loads((tmp_path / "g_cert.json").read_text())
        assert doc["kind"] == "ms_unstable" and set(doc["details"]) == {"lambda_min_lo",
                                                                        "lambda_min_hi"}

    def test_infinite_grid_values_emit_no_warning(self, tmp_path, capsys):
        # V is infinite on the x1 = 0 line: adjacent grid values differ by nan
        cfg = LYAPUNOV_OK | {"V": "2 + x2^2 + 1/x1^2", "condition": "sandwich",
                             "params": {"p": 2.0, "c1": 0.5, "c2": 3.0},
                             "region": {"t": [0, 1], "box": [[-1, 1, 3], [-1, 1, 3]]}}
        path = write_cfg(tmp_path, "s.json", cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            main(["lyapunov", "--config", path])
        assert "Warning" not in capsys.readouterr().err

    def test_infinite_v_fails_with_a_finite_tolerance(self, tmp_path, capsys):
        # V = inf on the x1 = 0 line violates V <= 3|x|^2 by inf; the
        # tolerance scale is the largest finite |V| or |x|^2, here 4
        cfg = LYAPUNOV_OK | {"V": "2 + x2^2 + 1/x1^2", "condition": "sandwich",
                             "params": {"p": 2.0, "c1": 0.5, "c2": 3.0},
                             "region": {"t": [0, 1], "box": [[-1, 1, 3], [-1, 1, 3]]}}
        out = tmp_path / "rep.json"
        assert main(["lyapunov", "--config", write_cfg(tmp_path, "s.json", cfg),
                     "--out", str(out)]) == 2
        doc = json.loads(out.read_text())
        assert doc["verdict"] == "fail" and doc["max_violation"] == float("inf")
        assert doc["tolerance"] == 1e-9 * (1.0 + 4.0)
        assert "check failed" in capsys.readouterr().err

    def test_schema_violation_names_pointer(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "c.json", {
            "band": [1.0, 2.0], "policy": {"kind": "constant", "value": 2.0},
            "grid": {"t_end": 1.0},
        })
        assert main(["simulate", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "/grid/n_steps" in err


class TestGHeat:
    def test_square_value_and_csv(self, square_cfg, tmp_path, capsys):
        out = tmp_path / "u.csv"
        assert main(["gheat", "--config", square_cfg, "--out", str(out)]) == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "x,u"
        rows = {float(l.split(",")[0]): float(l.split(",")[1]) for l in lines[1:]}
        assert rows[0.0] == pytest.approx(2.0, abs=1e-3)
        assert "u(0, 0)" in capsys.readouterr().err

    def test_cfl_violation_is_usage_error(self, tmp_path):
        cfg = write_cfg(tmp_path, "bad_nt.json", {
            "band": [1.0, 2.0], "payoff": "x^2",
            "grid": {"x_lo": -12.0, "x_hi": 12.0, "nx": 401, "T": 1.0, "nt": 5},
        })
        assert main(["gheat", "--config", cfg]) == 1

    def test_origin_off_grid_still_writes_csv(self, tmp_path, capsys):
        # x in [1, 5] leaves 0 off the grid: no u(0, 0) value, but the table
        cfg = write_cfg(tmp_path, "off.json", {
            "band": [1.0, 2.0], "payoff": "x^2",
            "grid": {"x_lo": 1.0, "x_hi": 5.0, "nx": 41, "T": 1.0},
        })
        out = tmp_path / "u.csv"
        assert main(["gheat", "--config", cfg, "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert err == "u(0, 0) not reported: x = 0 is off the grid [1, 5]\n"
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "x,u" and len(lines) == 42


class TestOutputs:
    def test_overwrite_needs_force(self, square_cfg, tmp_path):
        out = tmp_path / "u.csv"
        assert main(["gheat", "--config", square_cfg, "--out", str(out)]) == 0
        assert main(["gheat", "--config", square_cfg, "--out", str(out)]) == 1
        assert main(["gheat", "--config", square_cfg, "--out", str(out), "--force"]) == 0

    def test_byte_identical_reruns(self, square_cfg, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(["gheat", "--config", square_cfg, "--out", str(a)]) == 0
        assert main(["gheat", "--config", square_cfg, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_output_embeds_hash_and_seed(self, square_cfg, tmp_path):
        out = tmp_path / "u.csv"
        main(["gheat", "--config", square_cfg, "--out", str(out), "--seed", "7"])
        text = out.read_text()
        assert "# config_hash=" in text and "# seed=7" in text

    def test_format_flag_crosses_both_ways(self, derived_linstab_cfg, square_cfg, tmp_path):
        cert_csv = tmp_path / "cert.csv"
        assert main(["linstab", "--config", derived_linstab_cfg, "--format", "csv",
                     "--out", str(cert_csv)]) == 0
        lines = [l for l in cert_csv.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "key,value"
        assert any(l.startswith("margin,") for l in lines)
        table_json = tmp_path / "u.json"
        assert main(["gheat", "--config", square_cfg, "--format", "json",
                     "--out", str(table_json)]) == 0
        doc = json.loads(table_json.read_text())
        assert doc["header"] == ["x", "u"]
        assert len(doc["rows"]) == 401


# a gsde state that blows up: (config, the step it turns non-finite at)
GSDE_BLOWUPS = {
    "global": (GSDE_OK | {"f": ["x1^3"], "g": ["0"], "x0": [2.0],
                          "grid": {"t_end": 2.0, "n_steps": 200}}, 22),
    # x2 turns NaN once x1 > 1.5, before |X| reaches the first radius
    "localized": (GSDE_OK | {"n": 2, "f": ["1", "0*sqrt(1.5 - x1)"], "h": ["0", "0"],
                             "g": ["0", "0"], "lipschitz_tag": "local", "x0": [0.0, 0.0],
                             "schedule": [2.0, 4.0, 8.0], "grid": {"t_end": 5.0, "n_steps": 500}},
                  151),
}


class TestSimulateAndGsde:
    def test_simulate_csv_shape(self, tmp_path):
        cfg = write_cfg(tmp_path, "sim.json", {
            "band": [1.0, 2.0],
            "grid": {"t_end": 1.0, "n_steps": 16},
            "policy": {"kind": "bangbang_threshold", "theta": 0.0},
            "n_paths": 2,
        })
        out = tmp_path / "paths.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "path,t,b_1,qvar_11,policy_choice"
        assert len(lines) == 1 + 2 * 17

    def test_simulate_path_index_reads_as_an_integer(self, tmp_path):
        """The CSV writes the path index from a float column; every format
        still reads it as an integer."""
        cfg = write_cfg(tmp_path, "sim.json", SIM_OK | {"n_paths": 3})
        texts = []
        for i, flags in enumerate([(), ("--emit-plot-data",), ("--format", "json")]):
            out = tmp_path / f"out{i}"
            assert main(["simulate", "--config", cfg, "--out", str(out), *flags]) == 0
            texts.append(out.read_text())
        csv_rows, long_rows = ([l.split(",") for l in text.splitlines() if not l.startswith("#")][1:]
                               for text in texts[:2])
        assert {r[0] for r in csv_rows} == {"0", "1", "2"}
        assert {r[2] for r in long_rows if r[1] == "path"} == {"0", "1", "2"}
        assert {type(r[0]) for r in json.loads(texts[2])["rows"]} == {int}

    def test_simulate_zero_paths_is_header_only(self, tmp_path):
        out = tmp_path / "none.csv"
        assert main(["simulate", "--config", write_cfg(tmp_path, "z.json", SIM_OK | {"n_paths": 0}),
                     "--out", str(out)]) == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines == ["path,t,b_1,qvar_11,policy_choice"]

    def test_gsde_localized_run(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "dvp.json", {
            "n": 2, "d": 1, "band": [1.0, 2.0],
            "f": ["0", "0"], "h": ["x2", "-x1 - x1^3 - x2"], "g": ["0", "1"],
            "lipschitz_tag": "local",
            "x0": [1.0, 0.0],
            "grid": {"t_end": 5.0, "n_steps": 500},
            "policy": {"kind": "bangbang_threshold", "theta": 0.0},
        })
        out = tmp_path / "sol.csv"
        assert main(["gsde", "--config", cfg, "--out", str(out)]) == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "t,x1,x2"
        assert len(lines) == 502
        assert "localization settled" in capsys.readouterr().err

    @pytest.mark.parametrize("cfg,step", GSDE_BLOWUPS.values(), ids=GSDE_BLOWUPS)
    def test_gsde_blowup_is_one_line_exit_two(self, tmp_path, capsys, cfg, step):
        assert main(["gsde", "--config", write_cfg(tmp_path, "blow.json", cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            f"gcalc gsde: check failed: state became non-finite at step {step} (path index 0)")
        assert captured.err.count("\n") == 1

    def test_upper_json_report(self, tmp_path):
        cfg = write_cfg(tmp_path, "up.json", {
            "band": [1.0, 2.0],
            "grid": {"t_end": 1.0, "n_steps": 32},
            "payoff": "b1^2",
            "family": {"kind": "extreme_constants"},
            "n_paths": 4000,
        })
        out = tmp_path / "rep.json"
        assert main(["upper", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["value"] == pytest.approx(2.0, rel=0.05)
        assert len(doc["policies"]) == 2

    def test_upper_ignores_threads(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "bb.json", {
            "band": [1.0, 2.0], "grid": {"t_end": 1.0, "n_steps": 16},
            "payoff": "pos(1 - abs(b1))",
            "family": {"kind": "bangbang_threshold", "thresholds": [-0.5, 0.0, 0.5]},
            "n_paths": 500,
        })
        outs = []
        for flags in ([], ["--threads", "2"]):
            assert main(["upper", "--config", cfg, "--seed", "3", *flags]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] and outs[0] == outs[1]

    def test_experiment_pass_and_plot_data(self, tmp_path):
        cfg = write_cfg(tmp_path, "exp.json", {
            "kind": "bt_over_t", "band": [1.0, 2.0],
            "family": {"kind": "extreme_constants"},
            "t_values": [10.0, 1000.0], "n_paths": 200,
        })
        out = tmp_path / "bt.csv"
        assert main(["experiment", "--config", cfg, "--out", str(out)]) == 0
        long_out = tmp_path / "bt_long.csv"
        assert main(["experiment", "--config", cfg, "--out", str(long_out),
                     "--emit-plot-data"]) == 0
        lines = [l for l in long_out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "row,variable,value"

    def test_experiment_bound_violation_exits_two(self, tmp_path):
        # decreasing-quantile check cannot hold with a single tiny horizon pair
        cfg = write_cfg(tmp_path, "exp2.json", {
            "kind": "moment_decay", "band": [1.0, 2.0],
            "model": {"alpha": -0.1, "beta": 0.5, "gamma": 1.0, "x0": 1.0},
            "p": 0.5, "T": 4.0, "dt": 0.01, "lambda": 2.0,
            "family": {"kind": "extreme_constants"}, "n_paths": 400,
        })
        assert main(["experiment", "--config", cfg]) == 2


SIM_PIECEWISE = SIM_OK | {"policy": {"kind": "piecewise", "schedule": [[0, 1.0], [2, 2.0]]}}
SIM_BANGBANG = SIM_OK | {"policy": {"kind": "bangbang_threshold", "theta": 0.0, "hi_above": True}}
UPPER_CONSTANTS = UPPER_OK | {"payoff": "a*b1^2", "constants": {"a": 1.0},
                              "family": {"kind": "constants_only", "n": 3}}
UPPER_BANGBANG = UPPER_OK | {"family": {"kind": "bangbang_threshold", "thresholds": [0.0]}}
GHEAT_NT = GHEAT_OK | {"grid": GHEAT_OK["grid"] | {"nt": 400}}
GSDE_LOCAL = GSDE_OK | {"lipschitz_tag": "local", "schedule": [2.0, 4.0, 8.0]}
LYAPUNOV_DV = LYAPUNOV_OK | {
    "mode": "analytic", "nonneg": True, "params": {"c_ly": 1.0},
    "dV": {"dt": "0", "grad": ["x1 + x1^3", "x2"], "hess": [["1 + 3*x1^2", "0"], ["0", "1"]]},
    "region": LYAPUNOV_OK["region"] | {"nt": 2, "exclude_r0": 0.0}}
SANDWICH = LYAPUNOV_OK | {"condition": "sandwich", "params": {"p": 2.0, "c1": 0.5, "c2": 3.0}}
EXP_STABLE = LYAPUNOV_OK | {"condition": "exp_stable", "params": {"lambda": 0.5}}
EXP_STABLE_LAM = LYAPUNOV_OK | {"condition": "exp_stable", "params": {"lam": 0.5}}
LINSTAB_P = LINSTAB_OK | {"mode": "unstable", "F": [3.0]}
DECAY = MOMENT_DECAY_OK | {"lambda": 1.0, "times": [0.5, 1.0]}
BT_OVER_T = {"kind": "bt_over_t", "band": [1.0, 2.0], "family": {"kind": "extreme_constants"},
             "t_values": [10.0, 100.0], "n_paths": 100}
BAD_EXPRESSIONS = st.sampled_from(["x1 +", "(", "y9", "1 +* 2", "sin"])

# Every field the CLI reads: (subcommand, a valid config, pointer, kind,
# required, out-of-range values or None, the pointer those name if another).
# kind is int, float, str, bool, list or dict: the JSON type the field takes.
FIELD_TABLE = [
    ("simulate", SIM_OK, "/band", list, True, st.sampled_from([[2.0, 1.0], [0.0, 1.0], [1.0]]),
     None),
    ("simulate", SIM_SET, "/dim", int, True, st.integers(-5, 0), None),
    ("simulate", SIM_SET, "/members", list, True, st.sampled_from([[[[-1.0]]], [], [[1.0, 2.0]]]),
     None),
    ("simulate", SIM_OK, "/grid", dict, True, None, None),
    ("simulate", SIM_OK, "/grid/t_end", float, True, st.floats(max_value=0.0), None),
    ("simulate", SIM_OK, "/grid/n_steps", int, True, st.integers(-5, 0), None),
    ("simulate", SIM_OK, "/n_paths", int, False, st.integers(-5, -1), None),
    ("simulate", SIM_OK, "/policy", dict, True, None, None),
    ("simulate", SIM_OK, "/policy/kind", str, True, st.sampled_from(["const", "feedback"]),
     None),
    ("simulate", SIM_OK, "/policy/value", float, False,
     st.floats(allow_nan=False).filter(lambda v: not 1.0 <= v <= 2.0), "/policy"),
    ("simulate", SIM_SET, "/policy/index", int, False, st.integers(-5, -1), None),
    ("simulate", SIM_PIECEWISE, "/policy/schedule", list, True,
     st.sampled_from([[], [[1, 1.0]], [[0, 1.0], [0, 2.0]], [[0, 5.0]]]), "/policy"),
    ("simulate", SIM_BANGBANG, "/policy/theta", float, True, None, None),
    ("simulate", SIM_BANGBANG, "/policy/hi_above", bool, False, None, None),
    ("upper", UPPER_OK, "/payoff", str, True, BAD_EXPRESSIONS, None),
    ("upper", UPPER_OK, "/n_paths", int, True, st.integers(-5, 1), None),
    ("upper", UPPER_OK, "/family", dict, True, None, None),
    ("upper", UPPER_OK, "/family/kind", str, True, st.sampled_from(["all", "custom"]), None),
    ("upper", UPPER_CONSTANTS, "/family/n", int, False, st.integers(-5, 0), None),
    ("upper", UPPER_CONSTANTS, "/constants", dict, False, None, None),
    ("upper", UPPER_CONSTANTS, "/constants/a", float, False, None, None),
    ("upper", UPPER_BANGBANG, "/family/thresholds", list, True, st.just([]), None),
    ("gheat", GHEAT_NT, "/payoff", str, True, BAD_EXPRESSIONS, None),
    ("gheat", GHEAT_NT, "/grid/x_lo", float, True, st.floats(min_value=4.0), "/grid/x_hi"),
    ("gheat", GHEAT_NT, "/grid/x_hi", float, True, st.floats(max_value=-4.0), None),
    ("gheat", GHEAT_NT, "/grid/nx", int, True, st.integers(-5, 2), None),
    ("gheat", GHEAT_NT, "/grid/T", float, True, st.floats(max_value=0.0), None),
    ("gheat", GHEAT_NT, "/grid/nt", int, False, st.integers(-5, -1) | st.integers(1, 5), None),
    ("gsde", GSDE_LOCAL, "/n", int, True, st.integers(-5, 0), None),
    ("gsde", GSDE_LOCAL, "/d", int, True, st.integers(-5, 0), None),
    ("gsde", GSDE_LOCAL, "/f", list, True, st.sampled_from([[], ["0", "0"], ["y"]]), None),
    ("gsde", GSDE_LOCAL, "/h", list, True, st.sampled_from([[], ["0", "0"], [[["0", "0"]]]]),
     None),
    ("gsde", GSDE_LOCAL, "/g", list, True, st.sampled_from([[], ["0", "0"], [["0", "0"]]]),
     None),
    ("gsde", GSDE_LOCAL, "/lipschitz_tag", str, False, st.sampled_from(["Global", "none"]),
     None),
    ("gsde", GSDE_LOCAL, "/x0", list, True, st.sampled_from([[], [1.0, 2.0]]), None),
    ("gsde", GSDE_LOCAL, "/schedule", list, False,
     st.sampled_from([[4.0, 2.0], [0.0, 1.0], [-1.0]]), None),
    ("lyapunov", LYAPUNOV_DV, "/system", dict, True, None, None),
    ("lyapunov", LYAPUNOV_DV, "/system/n", int, True, st.integers(-5, 0), None),
    ("lyapunov", LYAPUNOV_DV, "/V", str, True, BAD_EXPRESSIONS, None),
    ("lyapunov", LYAPUNOV_DV, "/mode", str, False, st.sampled_from(["symbolic", "fd"]), None),
    ("lyapunov", LYAPUNOV_DV, "/dV", dict, False, None, None),
    ("lyapunov", LYAPUNOV_DV, "/dV/dt", str, False, BAD_EXPRESSIONS | st.just("1"), None),
    ("lyapunov", LYAPUNOV_DV, "/dV/grad", list, False,
     st.sampled_from([["x1"], ["x1", "x2", "x1"], ["-x1", "x2"]]), None),
    ("lyapunov", LYAPUNOV_DV, "/dV/hess", list, False,
     st.sampled_from([[["1", "0"], ["0"]], [["0", "0"], ["0", "1"]]]), None),
    ("lyapunov", LYAPUNOV_DV, "/nonneg", bool, False, None, None),
    ("lyapunov", LYAPUNOV_DV, "/region", dict, True, None, None),
    ("lyapunov", LYAPUNOV_DV, "/region/t", list, True,
     st.sampled_from([[0], [0, -1], [1, 2], [0, 1, 2]]), None),
    ("lyapunov", LYAPUNOV_DV, "/region/box", list, True,
     st.sampled_from([[[-2, 2, 1], [-2, 2, 5]], [[-2, 2, 5]], [[2, -2, 5], [-2, 2, 5]],
                      [[-2, 2], [-2, 2, 5]]]), None),
    ("lyapunov", LYAPUNOV_DV, "/region/exclude_r0", float, False,
     st.floats(min_value=3.0, allow_infinity=False), None),
    ("lyapunov", LYAPUNOV_DV, "/region/nt", int, False, st.integers(-5, 0), None),
    ("lyapunov", LYAPUNOV_DV, "/condition", str, True, st.sampled_from(["stable", "LV"]), None),
    ("lyapunov", LYAPUNOV_DV, "/params", dict, False, None, None),
    ("lyapunov", LYAPUNOV_DV, "/params/c_ly", float, False, st.floats(max_value=-1e-3), None),
    ("lyapunov", SANDWICH, "/params/p", float, True, st.floats(max_value=0.0), None),
    ("lyapunov", SANDWICH, "/params/c1", float, True, st.floats(max_value=0.0), None),
    ("lyapunov", SANDWICH, "/params/c2", float, True, st.floats(max_value=0.0), None),
    ("lyapunov", EXP_STABLE, "/params/lambda", float, True, st.floats(max_value=0.0), None),
    ("lyapunov", EXP_STABLE_LAM, "/params/lam", float, True, st.floats(max_value=0.0), None),
    ("linstab", LINSTAB_P, "/n", int, True, st.integers(-5, 0), None),
    ("linstab", LINSTAB_P, "/F", list, True, st.sampled_from([[], [1.0, 2.0]]), None),
    ("linstab", LINSTAB_P, "/H", list, True, st.sampled_from([[], [1.0, 2.0]]), None),
    ("linstab", LINSTAB_P, "/C", list, True, st.sampled_from([[], [1.0, 2.0]]), None),
    ("linstab", LINSTAB_P, "/P", list, False, st.sampled_from([[-1.0], [0.0], [1.0, 2.0]]),
     None),
    ("linstab", LINSTAB_P, "/mode", str, False, st.sampled_from(["stabl", "both"]), None),
    ("experiment", DECAY, "/kind", str, True, st.sampled_from(["decay", "bt"]), None),
    ("experiment", DECAY, "/model", dict, True, None, None),
    ("experiment", DECAY, "/model/alpha", float, True, None, None),
    ("experiment", DECAY, "/model/x0", float, True, None, None),
    ("experiment", DECAY, "/p", float, True, st.floats(max_value=0.0), None),
    ("experiment", DECAY, "/T", float, True, st.floats(max_value=0.0), None),
    ("experiment", DECAY, "/dt", float, True, st.floats(max_value=0.0), None),
    ("experiment", DECAY, "/n_paths", int, True, st.integers(-5, 99), None),
    ("experiment", DECAY, "/lambda", float, False, None, None),
    ("experiment", DECAY, "/times", list, False, st.sampled_from([[2.0], [-0.5]]), None),
    ("experiment", DECAY, "/family", dict, True, None, None),
    ("experiment", BT_OVER_T, "/t_values", list, True,
     st.sampled_from([[], [100.0, 10.0], [0.0, 10.0], [-1.0]]), None),
    ("experiment", BT_OVER_T, "/n_paths", int, True, st.integers(-5, 0), None),
]

WRONG_TYPES = {
    int: st.text(max_size=3) | st.lists(st.integers(), max_size=2) | st.none(),
    float: st.text(max_size=3) | st.lists(st.floats(), max_size=2) | st.none(),
    str: st.integers() | st.lists(st.text(), max_size=2) | st.none(),
    bool: st.integers() | st.text(max_size=3) | st.none(),
    list: st.integers() | st.text(max_size=3) | st.dictionaries(st.text(max_size=2), st.integers(),
                                                                 max_size=2),
    dict: st.integers() | st.text(max_size=3) | st.lists(st.integers(), max_size=2),
}


def substituted(cfg, pointer, value, omit=False):
    """A copy of cfg with the value at pointer replaced, or removed."""
    cfg = json.loads(json.dumps(cfg))
    *parents, last = pointer.strip("/").split("/")
    node = cfg
    for part in parents:
        node = node[part]
    if omit:
        del node[last]
    else:
        node[last] = value
    return cfg


class TestFieldTable:
    @pytest.mark.parametrize("sub,cfg,pointer", [row[:3] for row in FIELD_TABLE],
                             ids=[f"{row[0]}{row[2]}" for row in FIELD_TABLE])
    def test_valid_configs_run(self, tmp_path, capsys, sub, cfg, pointer):
        assert main([sub, "--config", write_cfg(tmp_path, "c.json", cfg)]) in (0, 2)

    @pytest.mark.parametrize("sub,cfg,pointer,kind,required,out_of_range,out_pointer", FIELD_TABLE,
                             ids=[f"{row[0]}{row[2]}" for row in FIELD_TABLE])
    @settings(max_examples=8, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_bad_value_exits_one_naming_pointer(self, tmp_path, capsys, data, sub, cfg, pointer,
                                                kind, required, out_of_range, out_pointer):
        """A wrong JSON type, a bool, a fractional integer, an out-of-range
        value or a missing required field: exit 1 on one line naming the
        field, never a traceback."""
        ways = ["type"] + ["bool"] * (kind is not bool) + ["fraction"] * (kind is int)
        ways += ["range"] * (out_of_range is not None) + ["omit"] * required
        way = data.draw(st.sampled_from(ways))
        fractions = st.floats().filter(lambda v: not float(v).is_integer())
        value = data.draw({"type": WRONG_TYPES[kind], "bool": st.booleans(), "fraction": fractions,
                           "range": out_of_range, "omit": st.none()}[way])
        bad = substituted(cfg, pointer, value, omit=way == "omit")
        capsys.readouterr()
        assert main([sub, "--config", write_cfg(tmp_path, "c.json", bad)]) == 1, (way, value)
        err = capsys.readouterr().err
        want = out_pointer if way == "range" and out_pointer else pointer
        assert err.startswith(f"gcalc {sub}: error: ") and err.count("\n") == 1, err
        assert want in err and "Traceback" not in err, (way, value, err)


SET_1 = {"dim": 1, "members": [[[1.0]], [[2.0]]]}
SET_2 = {"dim": 2, "members": [[1.0, 0.0, 0.0, 1.0], [2.0, 0.5, 0.5, 1.0]]}


def under(cfg, unc):
    """cfg with its band or covariance set replaced by unc."""
    return {k: v for k, v in cfg.items() if k not in ("band", "dim", "members")} | unc


BANGBANG_POLICY = {"policy": {"kind": "bangbang_threshold", "theta": 0.0}}
BANGBANG_FAMILY = {"family": {"kind": "bangbang_threshold", "thresholds": [0.0]}}
TWO_NOISE_SYSTEM = {"n": 1, "d": 2, "f": ["0"], "h": [[["0", "0"], ["0", "0"]]],
                    "g": [["0", "2*x1"]]}
# what is defined on d = 1 bands only, under a covariance set, and every
# noise dimension that does not match the system's: (subcommand, config,
# the pointer the error names)
CROSS_FIELD = {
    "simulate_bangbang_policy": ("simulate", under(SIM_BANGBANG, SET_1), "/band"),
    "gsde_bangbang_policy": ("gsde", under(GSDE_OK | BANGBANG_POLICY, SET_1), "/band"),
    "upper_bangbang_family": ("upper", under(UPPER_BANGBANG, SET_1), "/band"),
    "experiment_bangbang_family": ("experiment", under(DECAY | BANGBANG_FAMILY, SET_1), "/band"),
    "experiment_bt_over_t": ("experiment", under(BT_OVER_T, SET_1), "/band"),
    "experiment_derived_rate": ("experiment", under(MOMENT_DECAY_OK, SET_1), "/band"),
    "experiment_moment_decay_dim": ("experiment", under(DECAY, SET_2), "/dim"),
    "experiment_lyapunov_exponent_dim": (
        "experiment", under(DECAY | {"kind": "lyapunov_exponent"}, SET_2), "/dim"),
    "gheat_cfl": ("gheat", under(GHEAT_OK, SET_1), "/band"),
    "gheat_nt": ("gheat", under(GHEAT_NT, SET_1), "/band"),
    "linstab_stable": ("linstab", under(LINSTAB_OK, SET_1), "/band"),
    "linstab_unstable": ("linstab", under(LINSTAB_P, SET_1), "/band"),
    "linstab_search": ("linstab", under(LINSTAB_OK | {"mode": "search"}, SET_1), "/band"),
    "gsde_band_two_noises": ("gsde", GSDE_OK | TWO_NOISE_SYSTEM, "/d"),
    "gsde_set_one_noise": ("gsde", under(GSDE_OK, SET_2) | {"policy": {"kind": "constant",
                                                                      "index": 0}}, "/d"),
    "gsde_set_two_noises": ("gsde", under(GSDE_OK | TWO_NOISE_SYSTEM, SET_1), "/d"),
    "lyapunov_band_two_noises": (
        "lyapunov", KINK_OK | {"system": KINK_OK["system"] | TWO_NOISE_SYSTEM, "V": "x1^2"},
        "/system/d"),
    "lyapunov_set_one_noise": ("lyapunov", LYAPUNOV_OK | {"system": under(LYAPUNOV_OK["system"],
                                                                          SET_2)}, "/system/d"),
}


class TestCrossField:
    @pytest.mark.parametrize("sub,cfg,pointer", CROSS_FIELD.values(), ids=CROSS_FIELD)
    def test_exits_one_naming_the_pointer_before_any_output(self, tmp_path, capsys, sub, cfg,
                                                            pointer):
        assert main([sub, "--config", write_cfg(tmp_path, "c.json", cfg)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"gcalc {sub}: error: {pointer}: ") and err.count("\n") == 1, err


# one run of each subcommand that passes, and of each that fails its check
PASSING = {"simulate": SIM_OK, "upper": UPPER_OK, "gheat": GHEAT_OK, "gsde": GSDE_OK,
           "lyapunov": LYAPUNOV_OK, "linstab": LINSTAB_OK, "experiment": MOMENT_DECAY_OK}
FAILING = {
    "lyapunov_exp_stable": ("lyapunov", EXACT_RATE | {"params": {"lambda": 2.5}}),
    # under sigma^2 = 2 the second moment grows at rate +1: no P certifies it
    "linstab_search": ("linstab", {"n": 1, "F": [-1.0], "H": [0.0], "C": [1.5 ** 0.5],
                                   "band": [1.0, 2.0], "mode": "search"}),
    "experiment_moment_decay": ("experiment", MOMENT_DECAY_OK | {
        "model": {"alpha": -0.1, "beta": 0.5, "gamma": 1.0, "x0": 1.0},
        "p": 0.5, "T": 4.0, "dt": 0.01, "lambda": 2.0, "n_paths": 400}),
}


class TestOutContract:
    """--out writes what stdout would get, once, and only what a run
    produced: an existing file needs --force, a failed check still writes
    its output, and a gsde blow-up writes nothing."""

    @staticmethod
    def stdout_and_file(tmp_path, capsys, sub, cfg):
        path = write_cfg(tmp_path, "c.json", cfg)
        rc = main([sub, "--config", path])
        stdout, err = capsys.readouterr()
        out = tmp_path / "out"
        assert main([sub, "--config", path, "--out", str(out)]) == rc
        assert capsys.readouterr() == ("", err)
        assert out.read_bytes() == stdout.encode()
        return rc, err

    @pytest.mark.parametrize("sub", PASSING)
    def test_out_holds_the_stdout_bytes(self, tmp_path, capsys, sub):
        assert self.stdout_and_file(tmp_path, capsys, sub, PASSING[sub])[0] == 0

    @pytest.mark.parametrize("sub", PASSING)
    def test_existing_out_needs_force(self, tmp_path, capsys, sub):
        out = tmp_path / "out"
        out.write_bytes(b"kept\n")
        assert main([sub, "--config", write_cfg(tmp_path, "c.json", PASSING[sub]),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()[-1:]
        assert err == [f"gcalc {sub}: error: output path {out} exists; pass --force to overwrite"]
        assert out.read_bytes() == b"kept\n"

    @pytest.mark.parametrize("sub,cfg", FAILING.values(), ids=FAILING)
    def test_failed_check_writes_then_exits_two(self, tmp_path, capsys, sub, cfg):
        rc, err = self.stdout_and_file(tmp_path, capsys, sub, cfg)
        assert rc == 2
        assert err.startswith(f"gcalc {sub}: check failed: ") and err.count("\n") == 1

    @pytest.mark.parametrize("cfg", [cfg for cfg, _ in GSDE_BLOWUPS.values()], ids=GSDE_BLOWUPS)
    def test_gsde_blowup_writes_no_file(self, tmp_path, capsys, cfg):
        out = tmp_path / "out"
        assert main(["gsde", "--config", write_cfg(tmp_path, "c.json", cfg), "--out", str(out),
                     "--force"]) == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith("gcalc gsde: check failed: ")

    @pytest.mark.parametrize("where", ["directory", "missing_parent"])
    def test_out_that_cannot_be_opened_is_one_line(self, tmp_path, capsys, where):
        out = tmp_path if where == "directory" else tmp_path / "nodir" / "x.csv"
        assert main(["gheat", "--config", write_cfg(tmp_path, "c.json", GHEAT_OK),
                     "--out", str(out), "--force"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()[-1]
        assert err.startswith(f"gcalc gheat: error: cannot write {out}: "), err
        assert "Traceback" not in captured.err


def huge(value, number):
    """value with number in place of its last JSON number, or None if it
    holds none."""
    if isinstance(value, list):
        for i in reversed(range(len(value))):
            swapped = huge(value[i], number)
            if swapped is not None:
                return value[:i] + [swapped] + value[i + 1:]
        return None
    return number if isinstance(value, (int, float)) and not isinstance(value, bool) else None


def at(cfg, pointer):
    node = cfg
    for part in pointer.strip("/").split("/"):
        node = node[part]
    return node


NUMERIC_ROWS = [row for row in FIELD_TABLE if huge(at(row[1], row[2]), 0) is not None]


class TestHugeNumbers:
    @pytest.mark.parametrize("sub,cfg,pointer", [row[:3] for row in NUMERIC_ROWS],
                             ids=[f"{row[0]}{row[2]}" for row in NUMERIC_ROWS])
    @pytest.mark.parametrize("literal", ["1" + "0" * 400, "-1e400"], ids=["integer", "float"])
    def test_number_no_float_holds_exits_one_naming_pointer(self, tmp_path, capsys, sub, cfg,
                                                            pointer, literal):
        """A JSON number no float holds, as an integer or a float literal,
        in any numeric field: one line naming the field, never a traceback."""
        marker = 123456789.125
        text = json.dumps(substituted(cfg, pointer, huge(at(cfg, pointer), marker)))
        path = tmp_path / "c.json"
        path.write_text(text.replace(repr(marker), literal))
        assert main([sub, "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"gcalc {sub}: error: config field {pointer}")
        assert err.endswith(" is a number too large for a float\n") and err.count("\n") == 1

    @pytest.mark.parametrize("sub,cfg,pointer", [row[:3] for row in FIELD_TABLE if row[3] is int],
                             ids=[f"{row[0]}{row[2]}" for row in FIELD_TABLE if row[3] is int])
    def test_count_beyond_maxsize_exits_one_naming_pointer(self, tmp_path, capsys, sub, cfg,
                                                            pointer):
        bad = substituted(cfg, pointer, sys.maxsize + 1)
        assert main([sub, "--config", write_cfg(tmp_path, "c.json", bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"gcalc {sub}: error: ") and err.count("\n") == 1, err
        assert pointer in err and "Traceback" not in err, err
