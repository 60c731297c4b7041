"""Accelerated primal-dual solver for affinely constrained composite problems.

The package bundles Bregman geometries over products of simplices and
Euclidean blocks, benchmark instance generators, the adaptive solver
with its fixed-tolerance baseline, decay-rate analysis helpers, a
continuous-time flow integrator, and a JSON/CSV benchmark CLI.
"""

from .geometry import (BregmanGeometry, EntropyGeometry, EuclideanGeometry,
                       three_term_residual)
from .problems import (InstanceRecipe, ProblemInstance, instance_from_dict,
                       instance_to_dict, load_instance, make_basis_pursuit,
                       make_matrix_game, make_regularized_matrix_game, make_steiner,
                       make_synthetic_qp, operator_norm)
from .solver import (IterationRecord, LineSearchError, SolverConfig, SolverError,
                     SolverState, TRACE_COLUMNS, solve, trace_to_csv)
from .analysis import (DecayBoundSpec, beta_rate_bound, decay_spec_for_solver,
                       envelope, fit_rate, holder_constant,
                       line_search_total_bound, mk_bound, rate_bound_preconditions)
from .flow import FlowDomainError, FlowState, flow_lyapunov, integrate

__version__ = "0.1.0"

__all__ = [
    "BregmanGeometry", "EntropyGeometry", "EuclideanGeometry",
    "three_term_residual",
    "InstanceRecipe", "ProblemInstance", "instance_from_dict",
    "instance_to_dict", "load_instance", "make_basis_pursuit", "make_matrix_game",
    "make_regularized_matrix_game", "make_steiner", "make_synthetic_qp",
    "operator_norm",
    "IterationRecord", "LineSearchError", "SolverConfig", "SolverError",
    "SolverState", "TRACE_COLUMNS", "solve", "trace_to_csv",
    "DecayBoundSpec", "beta_rate_bound", "decay_spec_for_solver", "envelope",
    "fit_rate", "holder_constant", "line_search_total_bound", "mk_bound",
    "rate_bound_preconditions",
    "FlowDomainError", "FlowState", "flow_lyapunov", "integrate",
    "__version__",
]
