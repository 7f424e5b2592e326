"""Trigonometric cubic B-spline collocation solver for the 1D damped wave
(telegraph) equation u_tt + 2 alpha u_t + beta^2 u = u_xx + q, with Dirichlet
or Neumann boundary data, a von Neumann stability analyzer, and error-norm
benchmarking utilities.

The names below are the user-facing API; everything else (knot weights,
single-step assembly, the linear solvers, stability internals) stays
importable from its submodule.

``import telespline`` loads no submodule: each public name is resolved on
first use (PEP 562), which imports the submodule that defines it.  So a
command-line run loads only the modules its subcommand calls.
"""

# public name -> the submodule that defines it
_SUBMODULE = {
    "DegenerateMeshError": "basis",
    "UniformMesh": "basis",
    "evaluate_solution": "basis",
    "EvaluationError": "expr",
    "Expression": "expr",
    "ExpressionError": "expr",
    "ExpressionSyntaxError": "expr",
    "UnknownFunctionError": "expr",
    "parse": "expr",
    "SingularSystemError": "linalg",
    "ErrorReport": "metrics",
    "MissingExactSolutionError": "metrics",
    "error_norms": "metrics",
    "BoundaryKind": "problem",
    "BoundarySpec": "problem",
    "Diagnostic": "problem",
    "TelegraphProblem": "problem",
    "builtin_problem": "problem",
    "validate": "problem",
    "CoefficientFrame": "solver",
    "SchemeParams": "solver",
    "SolutionHistory": "solver",
    "run": "solver",
    "StabilityReport": "stability",
    "stability_scan": "stability",
    "stability_sweep": "stability",
}

__version__ = "0.1.0"

__all__ = sorted(_SUBMODULE)


def __getattr__(name: str):
    """Import the submodule behind a public name on its first use."""
    try:
        submodule = _SUBMODULE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    from importlib import import_module

    value = getattr(import_module(f".{submodule}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
