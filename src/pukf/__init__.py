"""State estimation with partitioned second-order measurement updates.

The package provides a derivative-free second-order linearization, a
measurement decorrelation that minimizes per-element nonlinearity, the
partitioned update filter built on both, a set of baseline filters (EKF,
analytic EKF2, UKF, IEKF, RUF, bootstrap PF), three benchmark scenarios,
evaluation metrics, and a seeded Monte Carlo benchmark harness.
"""

from .baselines import (
    ParticleCloud,
    bootstrap_pf_step,
    ekf2_update_analytic,
    ekf_update,
    iekf_update,
    log_likelihood,
    propagate_particles,
    resample,
    ruf_update,
    sample_gaussian,
    systematic_resample,
    ukf_update,
    unscented_transform,
    weight_particles,
)
from .core import (
    AnalyticMeasurementModel,
    GaussianState,
    LinearStateModel,
    MeasurementModel,
    matrix_sqrt,
    sym_eig_ascending,
)
from .decorrelation import (
    DecorrelationResult,
    decorrelate,
    nonlinearity,
    transform_model,
)
from .errors import (
    ConfigError,
    EmptySample,
    GridTooSmall,
    NonFiniteEvaluation,
    NonSymmetricInput,
    NotPositiveSemiDefinite,
    PukfError,
    ReportIoError,
    SingularCovariance,
    SingularInnovation,
    SingularNoiseSqrt,
)
from .evaluation import (
    DEFAULT_PROBS,
    Grid2D,
    ellipsoid_coverage,
    error_quantiles,
    kl_divergence_grid,
    kl_divergence_mass,
)
from .harness import (
    FILTERS,
    SCENARIOS,
    CampaignConfig,
    MetricsReport,
    config_hash,
    emit_report,
    format_report,
    parse_filter,
    read_report,
    run_campaign,
)
from .linearization import (
    GAMMA_DEFAULT,
    LinearizationSummary,
    ekf2_update,
    ekf2_update_numerical,
    linearize,
)
from .partitioned import (
    PartialUpdateRound,
    PartialUpdateTrace,
    PukfConfig,
    pukf_update,
)
from .scenarios import (
    ScenarioSpec,
    scenario_bearings_far_near,
    scenario_bearings_near_near,
    scenario_polynomial,
    simulate_truth,
    wrap_angle,
)

__version__ = "0.1.0"
