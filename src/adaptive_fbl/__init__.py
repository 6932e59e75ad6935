"""Adaptive feedback linearization with concurrent weight learning and
online Gaussian-process disturbance compensation."""

from .concurrent_learning import HistoryStack, LearnerConfig, weight_update_derivative
from .controller import (
    ControlBreakdown,
    ControllerConfig,
    compute_control,
    compute_P,
)
from .errors import (
    AllStartsFailedError,
    ConfigError,
    ConfigParseError,
    NonFiniteValueError,
    NotHurwitzError,
    NotPositiveDefiniteError,
    OutOfRangeError,
    StateEscapeError,
    TraceWriteError,
    UnfittedModelError,
    UnknownKeyError,
)
from .gp import GpConfig, GpModel, Hyperparams, log_marginal_likelihood, training_target
from .numerics import rk4_step, solve_lyapunov
from .plant import (
    Plant,
    ReferenceModel,
    benchmark_plant,
    eval_regressor,
    sine_reference,
)
from .simulator import (
    CASE_IDS,
    Metrics,
    Scenario,
    Trace,
    compute_metrics,
    emit_trace,
    lyapunov_monitor,
    run_case,
)

__version__ = "0.1.0"
