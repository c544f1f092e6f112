import json
import warnings

import numpy as np
import pytest

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
                        "t_values": [10.0, 100.0], "n_paths": 100}, "/dim"),
        ("experiment", {"kind": "bt_over_t", "band": [1.0, 2.0],
                        "family": {"kind": "extreme_constants"},
                        "t_values": [100.0, 10.0], "n_paths": 100}, "/t_values"),
        ("upper", {"dim": 2, "members": [[[1, 0], [0, 1]]], "payoff": "b1^2",
                   "family": {"kind": "bangbang_threshold", "thresholds": [0.0]},
                   "grid": {"t_end": 1.0, "n_steps": 8}, "n_paths": 100}, "/family/kind"),
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
            "experiment_lambda_bool", "experiment_lambda_string"])
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
        assert err == ("gcalc lyapunov: error: /dV/grad/0 disagrees with /V: supplied grad/0 is "
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

    @pytest.mark.parametrize("cfg,step", [
        (GSDE_OK | {"f": ["x1^3"], "g": ["0"], "x0": [2.0], "grid": {"t_end": 2.0, "n_steps": 200}},
         22),
        # x2 turns NaN once x1 > 1.5, before |X| reaches the first radius
        (GSDE_OK | {"n": 2, "f": ["1", "0*sqrt(1.5 - x1)"], "h": ["0", "0"], "g": ["0", "0"],
                    "lipschitz_tag": "local", "x0": [0.0, 0.0], "schedule": [2.0, 4.0, 8.0],
                    "grid": {"t_end": 5.0, "n_steps": 500}}, 151),
    ], ids=["global", "localized"])
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
