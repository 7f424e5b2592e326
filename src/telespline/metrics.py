"""Error norms of a computed frame against a known exact solution.

All norms are taken over the mesh knots x_0 .. x_N:

    L_inf = max_j |e_j|
    L_2   = sqrt(h * sum_j e_j^2)
    RMS   = sqrt(sum_j e_j^2 / (N + 1))

so L_2 = RMS * sqrt(h * (N + 1)) and L_inf >= RMS.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .basis import UniformMesh, basis_weights, knot_values
from .problem import TelegraphProblem, sample
from .solver import CoefficientFrame


class MissingExactSolutionError(ValueError):
    """Raised when norms are requested for a problem without an exact solution."""


class ErrorReport(NamedTuple):
    l_inf: float
    l2: float
    rms: float
    time: float
    n_cells: int


def error_norms(
    frame: CoefficientFrame, problem: TelegraphProblem, mesh: UniformMesh
) -> ErrorReport:
    """Knot-wise error norms of one frame."""
    if problem.exact is None:
        raise MissingExactSolutionError(
            "the problem has no exact solution to compare against"
        )
    weights = basis_weights(mesh)
    numeric = knot_values(frame.values, weights, 0)
    errors = sample(problem.exact, mesh.knots(), frame.time) - numeric
    sq = float(np.dot(errors, errors))
    count = mesh.n_cells + 1
    return ErrorReport(
        l_inf=float(np.max(np.abs(errors))),
        l2=math.sqrt(mesh.h * sq),
        rms=math.sqrt(sq / count),
        time=frame.time,
        n_cells=mesh.n_cells,
    )
