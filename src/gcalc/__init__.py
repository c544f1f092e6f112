"""Numerical workbench for stochastic differential equations driven by
G-Brownian motion: scenario simulation under volatility uncertainty, upper
expectation estimation, a fully nonlinear heat-equation oracle, localized
solving of locally Lipschitz systems, and Lyapunov/matrix-inequality
stability certificates."""

__version__ = "0.1.0"

from .errors import ConfigError
from .uncertainty import (
    CovarianceSet,
    SigmaBand,
    g_matrix,
    g_scalar,
    g_value,
    load_uncertainty,
)
from .scenario import (
    BangBangPolicy,
    ConstantPolicy,
    PathBatch,
    PiecewiseConstantPolicy,
    PolicyError,
    TimeGrid,
    VolatilityPolicy,
    qv_compensation_check_batch,
    batch_noise,
    path_noise,
    qvar_bounds_check_batch,
    restrict,
    simulate_batch,
    threshold_bangbang,
)
from .upper_expectation import (
    EstimateReport,
    PayoffError,
    PolicyFamily,
    estimate_upper,
    optimize_bangbang,
    stochastic_exponential_payoff,
)
from .gheat import CFLError, GHeatSolution, SpaceTimeGrid, solve_terminal, solve_two_step
from .expr import Expression, ExprError, ExprNameError, ExprSyntaxError, parse
from .gsde import (
    BlowUpError,
    CoefficientSet,
    ExplosionSuspectedError,
    SolutionBatch,
    TruncationSchedule,
    closed_form_geometric,
    coefficients,
    initial_sensitivity,
    integrate,
    integrate_batch,
    load_system,
    solve_localized,
    solve_localized_batch,
    truncate,
)
from .lyapunov import (
    CheckRegion,
    CheckReport,
    LyapunovSpec,
    check_growth_condition,
    check_stability_conditions,
    eval_L,
    find_cly,
    find_cly_detailed,
    verify_moment_bound,
)
from .linstab import (
    Certificate,
    LinearGSystem,
    NotSPDError,
    PRange,
    admissible_p_range,
    default_p_candidates,
    lmi_stable,
    lmi_unstable,
    riccati_value,
    search_p,
)
from .experiments import (
    ExperimentConfig,
    GeometricModel,
    bt_over_t,
    lyapunov_exponent,
    moment_decay_curve,
)
