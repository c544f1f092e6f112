"""Every constructor and loader that takes a count, a step or an index
rejects a fractional or bool value with a ConfigError naming its field,
instead of truncating it, and keeps taking integral values such as 3.0."""

import math
import sys

import numpy as np
import pytest

from gcalc import (
    CFLError,
    CheckRegion,
    ConfigError,
    CovarianceSet,
    ConstantPolicy,
    ExperimentConfig,
    GeometricModel,
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
    bt_over_t,
    check_growth_condition,
    check_stability_conditions,
    closed_form_geometric,
    coefficients,
    eval_L,
    experiments,
    expr,
    integrate_batch,
    load_system,
    optimize_bangbang,
    simulate_batch,
    solve_terminal,
    solve_two_step,
    threshold_bangbang,
)
from gcalc.lyapunov import CONDITIONS, RegionError, SuppliedDerivativeError


# systems with every coefficient 0, of 3 states and of 3 noises
SYSTEM_N = {"d": 1, "band": [1.0, 2.0], "f": ["0"] * 3, "h": ["0"] * 3, "g": ["0"] * 3}
SYSTEM_D = {"n": 1, "dim": 3, "members": [np.eye(3).tolist()], "f": ["0"],
            "h": [[["0"] * 3] * 3], "g": [["0"] * 3]}


# (constructor of the integral value, what reads it back, field, an out-of-range value)
INTEGRAL = {
    "time_grid": (lambda v: TimeGrid(1.0, v), lambda g: g.n_steps, "n_steps", 0),
    "space_time_grid_nx": (lambda v: SpaceTimeGrid(-1.0, 1.0, v, 1.0, 2), lambda g: g.nx, "nx", 2),
    "space_time_grid_nt": (lambda v: SpaceTimeGrid(-1.0, 1.0, 3, 1.0, v), lambda g: g.nt, "nt", 0),
    "region_count": (lambda v: CheckRegion(1.0, [(-1.0, 1.0, 3), (-1.0, 1.0, v)]),
                     lambda r: r.box[1][2], "box/1/2", 1),
    "region_nt": (lambda v: CheckRegion(1.0, [(-1.0, 1.0, 3)], nt=v), lambda r: r.nt, "nt", 0),
    "constant_index": (lambda v: ConstantPolicy(index=v), lambda p: p.index, "index", -1),
    "schedule_step": (lambda v: PiecewiseConstantPolicy([(0, 1.0), (v, 2.0)]),
                      lambda p: p.schedule[1][0], "schedule/1/0", -1),
    "constants_only": (PolicyFamily.constants_only, lambda f: f.n_constants, "n", 0),
    "system_n": (lambda v: load_system({**SYSTEM_N, "n": v}), lambda s: s[0].n, "n", 0),
    "system_d": (lambda v: load_system({**SYSTEM_D, "d": v}), lambda s: s[0].d, "d", 0),
}


@pytest.mark.parametrize("build,read,field,out_of_range", INTEGRAL.values(), ids=INTEGRAL)
def test_integral_fields(build, read, field, out_of_range):
    for value in (3, 3.0):
        got = read(build(value))
        assert got == 3 and type(got) is int
    # a count above sys.maxsize, which no array could hold, is rejected too
    for value in (2.7, True, out_of_range, float("nan"), "3", sys.maxsize + 1, float(2 ** 64),
                  10 ** 400):
        with pytest.raises(ConfigError) as err:
            build(value)
        assert err.value.field == field, value


def test_region_errors_stay_region_errors():
    for box in ([(-1.0, 1.0, 2.5)], [(-1.0, 1.0)], [(1.0, -1.0, 3)]):
        with pytest.raises(RegionError):
            CheckRegion(1.0, box)


def test_schedule_entry_shape():
    # array choices at one step are compared by step alone
    same_step = [(0, np.array([1.0, 2.0])), (0, np.array([1.5, 2.0]))]
    for schedule, field in (([(0, 1.0), (2,)], "schedule/1"), ([(0, 1.0), 2.0], "schedule/1"),
                            ([(1, 1.0)], "schedule"), (same_step, "schedule")):
        with pytest.raises(ConfigError) as err:
            PiecewiseConstantPolicy(schedule)
        assert err.value.field == field


def test_one_error_class():
    # the library's setting errors share one base, so one except clause
    # catches them all, and the older names stay
    assert experiments.ConfigError is ConfigError
    for cls in (RegionError, PolicyError, CFLError, NotSPDError, SuppliedDerivativeError,
                PayoffError, expr.ExprError):
        assert issubclass(cls, ConfigError) and issubclass(cls, ValueError)


COV_SET = CovarianceSet(2, [np.eye(2), np.array([[2.0, 0.5], [0.5, 1.0]])])
GRID = SpaceTimeGrid(-1.0, 1.0, 11, 0.5, 100)


@pytest.mark.parametrize("call", [
    lambda: threshold_bangbang(COV_SET, 0.0),
    lambda: solve_terminal(COV_SET, lambda x: x * x, GRID),
    lambda: solve_two_step(COV_SET, lambda a, b: a + b, 0.5, 1.0, GRID, GRID),
    lambda: SpaceTimeGrid.with_cfl(-1.0, 1.0, 11, 1.0, COV_SET),
    lambda: PolicyFamily.bangbang_threshold([0.0]).policies(COV_SET),
    lambda: optimize_bangbang(lambda b: b.b[:, -1, 0], COV_SET, TimeGrid(1.0, 4), [0.0], 10, 0),
    lambda: LinearGSystem([[-1.0]], [[0.0]], [[1.0]], COV_SET),
    lambda: GeometricModel(-1.0, 0.2, 0.5, 1.0).moment_rate(2.0, COV_SET),
    lambda: bt_over_t(COV_SET, PolicyFamily.extreme_constants(), [1.0, 2.0], 10, 0),
], ids=["threshold_bangbang", "solve_terminal", "solve_two_step", "with_cfl",
        "bangbang_family", "optimize_bangbang", "linear_system", "moment_rate", "bt_over_t"])
def test_band_only_calls_name_the_band(call):
    """What is defined on d = 1 bands rejects a covariance set by name,
    not with an AttributeError."""
    with pytest.raises(ConfigError) as err:
        call()
    assert err.value.field == "band"
    assert "needs a d = 1 band, got a CovarianceSet" in str(err.value)


BAND = SigmaBand(1.0, 2.0)
ONE_NOISE = coefficients(1, 1, ["-x1"], ["0"], ["x1"])
TWO_NOISES = coefficients(1, 2, ["-x1"], [[["0", "0"], ["0", "0"]]], [["x1", "0"]])


def _batch(unc):
    return simulate_batch(ConstantPolicy(index=0) if unc is COV_SET else ConstantPolicy(value=1.5),
                          unc, TimeGrid(1.0, 4), 0, 3)


@pytest.mark.parametrize("call,field", [
    (lambda: load_system({"n": 1, "d": 2, "band": [1.0, 2.0], "f": ["0"],
                          "h": [[["0", "0"], ["0", "0"]]], "g": [["0", "2*x1"]]}), "d"),
    (lambda: load_system({"n": 1, "d": 1, "dim": 2, "members": [np.eye(2).tolist()],
                          "f": ["0"], "h": ["0"], "g": ["x1"]}), "d"),
    (lambda: integrate_batch(TWO_NOISES, [1.0], _batch(BAND)), "d"),
    (lambda: integrate_batch(ONE_NOISE, [1.0], _batch(COV_SET)), "d"),
    (lambda: eval_L(LyapunovSpec(1, "x1^2"), TWO_NOISES, BAND, 0.0, np.array([[1.0]])), "d"),
    (lambda: eval_L(LyapunovSpec(1, "x1^2"), ONE_NOISE, COV_SET, 0.0, np.array([[1.0]])), "d"),
    (lambda: ExperimentConfig(GeometricModel(-1.0, 0.2, 0.5, 1.0), COV_SET, 2.0, 1.0, 0.1,
                              PolicyFamily.extreme_constants(), 100, 0, lam=1.0), "dim"),
    (lambda: ExperimentConfig((ONE_NOISE, [1.0]), COV_SET, 2.0, 1.0, 0.1,
                              PolicyFamily.extreme_constants(), 100, 0, lam=1.0), "dim"),
    (lambda: closed_form_geometric(-1.0, 0.2, 0.5, 1.0, _batch(COV_SET)), "dim"),
], ids=["load_system_band", "load_system_set", "integrate_band", "integrate_set", "eval_L_band",
        "eval_L_set", "geometric_experiment", "coefficient_experiment", "closed_form"])
def test_dimension_mismatches_name_the_field(call, field):
    """A noise dimension that does not match the system's, band or set, is
    a ConfigError naming it, not a broadcast of one noise into several."""
    with pytest.raises(ConfigError) as err:
        call()
    assert err.value.field == field


# (condition, a parameter it reads, a value out of the parameter's bound)
LYAPUNOV_PARAMS = {
    "growth_c_ly": ("growth", "c_ly", -1.0),
    "sandwich_p": ("sandwich", "p", 0.0),
    "sandwich_c1": ("sandwich", "c1", -2.0),
    "sandwich_c2": ("sandwich", "c2", 0.0),
    "exp_stable_lambda": ("exp_stable", "lambda", 0.0),
    "exp_stable_lam": ("exp_stable", "lam", -1.0),
    "exp_unstable_lambda": ("exp_unstable", "lambda", -0.5),
    "exp_unstable_lam": ("exp_unstable", "lam", 0.0),
}
# what every row reads, all valid; lam only ever replaces lambda
LYAPUNOV_VALID = {"c_ly": 1.0, "p": 2.0, "c1": 0.5, "c2": 3.0, "lambda": 0.5}
LYAPUNOV_CHECK = (LyapunovSpec(1, "1 + x1^2"), ONE_NOISE, BAND, CheckRegion(1.0, [(-1.0, 1.0, 3)]))


def _lyapunov(condition, name, value):
    """The check with name set to value, and lambda left out for lam."""
    drop = "lambda" if name == "lam" else name
    params = {k: v for k, v in LYAPUNOV_VALID.items() if k != drop} | {name: value}
    return check_stability_conditions(*LYAPUNOV_CHECK, params, condition)


@pytest.mark.parametrize("condition,name,out_of_range", LYAPUNOV_PARAMS.values(),
                         ids=LYAPUNOV_PARAMS)
def test_lyapunov_parameters_are_finite_reals(condition, name, out_of_range):
    """One reader takes every condition parameter: a finite real number,
    never a bool or a numeric string, within its bound; a parameter of
    another row is read the same way."""
    assert _lyapunov(condition, name, 3).to_json_dict() == \
        _lyapunov(condition, name, 3.0).to_json_dict()
    for value in (True, False, "2", None, [1.0], math.inf, -math.inf, math.nan, 10 ** 400,
                  out_of_range):
        with pytest.raises(ConfigError) as err:
            _lyapunov(condition, name, value)
        assert err.value.field == name, value
    other = "lambda" if name == "c_ly" else "c_ly"
    for value in (True, "1", math.inf):
        with pytest.raises(ConfigError) as err:
            check_stability_conditions(*LYAPUNOV_CHECK, LYAPUNOV_VALID | {other: value}, condition)
        assert err.value.field == other


def test_lyapunov_required_parameters_and_unread_keys():
    for condition, name in (("sandwich", "c2"), ("exp_stable", "lambda"),
                            ("exp_unstable", "lambda")):
        with pytest.raises(ConfigError) as err:
            check_stability_conditions(*LYAPUNOV_CHECK, {k: v for k, v in LYAPUNOV_VALID.items()
                                                         if k != name}, condition)
        assert err.value.field == name and str(err.value).endswith("> 0, got None")
    # a key that no row reads is ignored, whatever its value
    for condition in CONDITIONS:
        check_stability_conditions(*LYAPUNOV_CHECK, LYAPUNOV_VALID | {"mu": "x"}, condition)


def test_named_lyapunov_checks_read_the_same_way():
    for c_ly in (True, "1", math.inf):
        with pytest.raises(ConfigError) as err:
            check_growth_condition(*LYAPUNOV_CHECK, c_ly)
        assert err.value.field == "c_ly"
