"""Trigonometric cubic B-spline collocation solver for the 1D damped wave
(telegraph) equation u_tt + 2 alpha u_t + beta^2 u = u_xx + q, with Dirichlet
or Neumann boundary data, a von Neumann stability analyzer, and error-norm
benchmarking utilities.

The names below are the user-facing API; everything else (knot weights,
single-step assembly, the linear solvers, stability internals) stays
importable from its submodule.
"""

from .basis import DegenerateMeshError, UniformMesh, evaluate_solution
from .expr import (
    EvaluationError,
    Expression,
    ExpressionError,
    ExpressionSyntaxError,
    UnknownFunctionError,
    parse,
)
from .linalg import SingularSystemError
from .metrics import ErrorReport, MissingExactSolutionError, error_norms
from .problem import (
    BoundaryKind,
    BoundarySpec,
    Diagnostic,
    TelegraphProblem,
    builtin_problem,
    validate,
)
from .solver import CoefficientFrame, SchemeParams, SolutionHistory, run
from .stability import StabilityReport, stability_scan, stability_sweep

__version__ = "0.1.0"

__all__ = [
    "BoundaryKind",
    "BoundarySpec",
    "CoefficientFrame",
    "DegenerateMeshError",
    "Diagnostic",
    "ErrorReport",
    "EvaluationError",
    "Expression",
    "ExpressionError",
    "ExpressionSyntaxError",
    "MissingExactSolutionError",
    "SchemeParams",
    "SingularSystemError",
    "SolutionHistory",
    "StabilityReport",
    "TelegraphProblem",
    "UniformMesh",
    "UnknownFunctionError",
    "builtin_problem",
    "error_norms",
    "evaluate_solution",
    "parse",
    "run",
    "stability_scan",
    "stability_sweep",
    "validate",
]
