"""Stochastic equilibrium seeking for games with shared affine constraints.

The package solves monotone generalized Nash problems by a relaxed
inertial forward-backward-forward iteration on an extended
primal-dual-consensus state, with mini-batch gradient sampling and a
message-passing executor that reproduces the monolithic trajectory
bitwise. See the solver module for the iteration, agentnet for the
distributed form, and cournot for the benchmark market game.
"""

from .blockvec import AgentPartition, Preconditioner, PrimalDualState
from .cournot import CournotConfig, generate
from .errors import (
    ConfigurationError,
    DimensionMismatchError,
    GnesError,
    NumericError,
    ToleranceError,
)
from .graph import CommGraph, generate_graph
from .operators import ExtendedOperator, GameProblem, KKTReport, kkt_check
from .solver import (
    DiagnosticsReport,
    SolverParams,
    SolverTrace,
    diagnostics_check,
    run,
    solve_ground_truth,
)
from .agentnet import NetworkReport, run_distributed
from .instances import BUILTINS, builtin_document, load_document
from .stochastic import (
    AdditiveGaussianOracle,
    AgentStreams,
    BatchSchedule,
    SamplingOracle,
    ZeroNoiseOracle,
)

__all__ = [
    "AgentPartition",
    "Preconditioner",
    "PrimalDualState",
    "CournotConfig",
    "generate",
    "GnesError",
    "ConfigurationError",
    "DimensionMismatchError",
    "NumericError",
    "ToleranceError",
    "CommGraph",
    "generate_graph",
    "ExtendedOperator",
    "GameProblem",
    "KKTReport",
    "kkt_check",
    "DiagnosticsReport",
    "SolverParams",
    "SolverTrace",
    "diagnostics_check",
    "run",
    "solve_ground_truth",
    "NetworkReport",
    "run_distributed",
    "BUILTINS",
    "builtin_document",
    "load_document",
    "AdditiveGaussianOracle",
    "AgentStreams",
    "BatchSchedule",
    "SamplingOracle",
    "ZeroNoiseOracle",
]

__version__ = "0.1.0"
