"""Online portfolio selection with polylogarithmic regret and no gradient bounds.

The package implements an epoch-structured follow-the-regularized-leader
scheme over biased quadratic surrogate losses with log-barrier
regularization (the BISONS algorithm), its generalization from the
probability simplex to the set of trace-one PSD Hermitian matrices
(Schrodinger's BISONS), plain log-barrier FTRL on the true log losses
together with an adversarial sequence generator that drives its regret up,
and an experiment harness with hindsight comparators and diagnostics.
"""

from .geometry import (
    BETA_MAX,
    InfiniteLossError,
    InvalidReturnsError,
    PiProjection,
    SurrogateQuad,
    build_surrogate,
    log_loss,
    lower_surrogate_eval,
    normalize_returns,
    uniform_portfolio,
)
from .solver import QuadraticObjective, SolveReport, SolverFailure, minimize_simplex, minimize_spectraplex
from .vector import BisonsParams, RoundRecord, bisons_round, check_reset, default_params, run_bisons, update_bias
from .quantum import QBisonsParams, q_check_reset, q_default_params, q_update_bias, qbisons_round, run_qbisons

__all__ = [
    "BETA_MAX",
    "BisonsParams",
    "InfiniteLossError",
    "InvalidReturnsError",
    "PiProjection",
    "QBisonsParams",
    "QuadraticObjective",
    "RoundRecord",
    "SolveReport",
    "SolverFailure",
    "bisons_round",
    "build_surrogate",
    "check_reset",
    "default_params",
    "log_loss",
    "lower_surrogate_eval",
    "minimize_simplex",
    "minimize_spectraplex",
    "normalize_returns",
    "q_check_reset",
    "q_default_params",
    "q_update_bias",
    "qbisons_round",
    "run_bisons",
    "run_qbisons",
    "uniform_portfolio",
    "update_bias",
]
