"""Collocation time stepping for the damped wave equation.

Space is discretised by the trigonometric cubic B-spline expansion
U(x, t_j) = sum_i C_i^j TB_i(x) over i = -3 .. N-1; time by the three-level
scheme (k is the time step, theta the implicitness weight, G = U_xx - beta^2 U)

    (U^{j+1} - 2 U^j + U^{j-1}) / k^2  +  2 alpha (U^{j+1} - U^j) / k
        = theta G^{j+1} + (1 - theta) G^j + q(x, t_j)

collocated at the mesh knots, which after collecting the new level reads

    (1 + 2 alpha k + k^2 theta beta^2) U^{j+1} - k^2 theta (U_xx)^{j+1}
        = 2 (1 + alpha k) U^j + k^2 (1 - theta) ((U_xx)^j - beta^2 U^j)
          - U^{j-1} + k^2 q(x, t_j)

Substituting the knot identities from :mod:`telespline.basis` makes each
collocation row touch exactly three consecutive coefficients, so together
with one boundary row at each end the update is a corner-tridiagonal solve.

The missing level at start-up is removed with the ghost identity
U^{-1} = U^1 - 2 k g2(x): the first step gains +1 on the a-weight part of
the diagonal and +2 k g2(x_i) on the right-hand side.

The initial coefficient vector interpolates g1 at all knots and matches
g1' at both ends (for either boundary kind), which closes the system.

One builder, :func:`_collocation_matrix`, writes every matrix: knot rows
``value_weight * U - curvature_weight * U_xx`` between the two boundary
rows of one kind.  The initial fit is (1, 0, Neumann), since its g1' end
rows are the Neumann rows; a step is (lambda, k^2 theta, the problem's
kind), where lambda = 1 + 2 alpha k + k^2 theta beta^2 gains the ghost-level
+1 on the first step.  The step matrix therefore depends on the step only
through that +1, so :func:`run` builds and factors it twice per run: once
for the first step and once, on the second step, for every later one.
Each step then builds just its right-hand side and solves with the kept
factor (:class:`telespline.linalg.CornerTridiagonalFactor`, numpy only).
A step evaluates the spline at the knots twice, for U^j and (U_xx)^j; the
U^{j-1} it needs is the U^j of the step before, which :func:`run` keeps.
Problem data are sampled as arrays: every data callable is called once per
use with the whole knot array (see
:class:`telespline.problem.TelegraphProblem`), so a step costs one forcing
call (two with theta-blended forcing).  :func:`initial_coefficients`,
:func:`assemble_step` and :func:`step` build the fit, a single step's system
and its solution on their own with the same arithmetic, so they reproduce
:func:`run` exactly.
:func:`output_steps` is the one rule for which output times a run accepts.
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .basis import BasisWeights, UniformMesh, basis_weights, knot_values
from .linalg import CornerTridiagonalFactor, CornerTridiagonalSystem, SingularSystemError, solve
from .problem import BoundaryKind, TelegraphProblem, central_slope, sample, slope_step

_TIME_ALIGN_TOL = 1e-9

_FORCING_LEVELS = ("j", "theta")

# why every Dirichlet step matrix at theta = 0 is singular
_EXPLICIT_DIRICHLET = (
    "at theta = 0 the Dirichlet boundary row and the collocation row at x0 are "
    "proportional, so the step matrix is singular; use theta > 0"
)


@dataclass(frozen=True)
class SchemeParams:
    """Time-scheme parameters.

    ``forcing_level`` selects where the source term is sampled: at the old
    level t_j (``"j"``, the default) or theta-blended between t_j and t_{j+1}
    (``"theta"``).
    """

    theta: float
    dt: float
    t_final: float
    forcing_level: str = "j"

    def __post_init__(self) -> None:
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError(f"theta must lie in [0, 1], got {self.theta}")
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not math.isfinite(self.t_final):
            raise ValueError(f"t_final must be finite, got {self.t_final}")
        if not self.t_final >= self.dt:
            raise ValueError(
                f"t_final must be at least one step, got {self.t_final} < {self.dt}"
            )
        if not math.isfinite((self.t_final + self.align_tol) / self.dt):
            raise ValueError(
                f"t_final / dt = {self.t_final} / {self.dt} is too large to count the steps"
            )
        if self.forcing_level not in _FORCING_LEVELS:
            raise ValueError(
                f"forcing_level must be one of {_FORCING_LEVELS}, got {self.forcing_level!r}"
            )

    @property
    def align_tol(self) -> float:
        """How far a time may lie from a step level and still count as on it:
        1e-9, or a millionth of dt when dt is below 1e-3."""
        return min(_TIME_ALIGN_TOL, 1e-6 * self.dt)

    @property
    def last_step(self) -> int:
        """Index of the last step level within t_final (to ``align_tol``)."""
        return int((self.t_final + self.align_tol) / self.dt)

    @property
    def last_time(self) -> float:
        """Time of level ``last_step``: t_final itself when it lies on that
        level (to ``align_tol``), else ``last_step * dt``."""
        end = self.last_step * self.dt
        return self.t_final if abs(self.t_final - end) <= self.align_tol else end


@dataclass(frozen=True)
class CoefficientFrame:
    """Spline coefficients C_{-3} .. C_{N-1} at one time level."""

    values: np.ndarray
    time: float


@dataclass(frozen=True)
class SolutionHistory:
    """Frames captured at the requested output times of one run.

    ``stepping_seconds[i]`` is the wall time the stepping loop had consumed
    when ``frames[i]`` was captured: right-hand sides and solves, plus the
    one-off factorisations of the first-step and later-step matrices.
    """

    problem: TelegraphProblem
    mesh: UniformMesh
    frames: list[CoefficientFrame] = field(default_factory=list)
    stepping_seconds: list[float] = field(default_factory=list)


def _end_slopes(problem: TelegraphProblem, mesh: UniformMesh) -> np.ndarray:
    """g1' at both interval ends."""
    ends = np.array([mesh.a, mesh.b])
    if problem.initial_slope is not None:
        return sample(problem.initial_slope, ends)
    return central_slope(problem.initial_value, ends, slope_step(ends))


def _collocation_matrix(
    w: BasisWeights,
    n_cells: int,
    value_weight: float,
    curvature_weight: float,
    kind: BoundaryKind,
) -> CornerTridiagonalSystem:
    """The band of every system in this module, with a zero right-hand side.

    Each knot's row collocates ``value_weight * U - curvature_weight * U_xx``;
    the first and last rows are the boundary rows of ``kind``: U at the ends
    for Dirichlet, U_x (the same rows as the fit's g1' rows) for Neumann.
    """
    lo = value_weight * w.a1 - curvature_weight * w.a5
    mid = value_weight * w.a2 - curvature_weight * w.a6

    n = n_cells + 3
    sub = np.full(n - 1, lo)
    diag = np.full(n, mid)
    sup = np.full(n - 1, lo)
    if kind is BoundaryKind.DIRICHLET:
        diag[0], sup[0], corner_top = w.a1, w.a2, w.a1
        corner_bottom, sub[n - 2], diag[n - 1] = w.a1, w.a2, w.a1
    else:
        diag[0], sup[0], corner_top = w.a3, 0.0, w.a4
        corner_bottom, sub[n - 2], diag[n - 1] = w.a3, 0.0, w.a4
    return CornerTridiagonalSystem(sub, diag, sup, corner_top, corner_bottom, np.zeros(n))


def _step_weights(
    problem: TelegraphProblem, params: SchemeParams, first_step: bool
) -> tuple[float, float]:
    """The step's (value_weight, curvature_weight): lambda and k^2 theta.

    The ghost level adds 1 to lambda on the first step.
    """
    k = params.dt
    curvature = k * k * params.theta
    lam = 1.0 + 2.0 * problem.alpha * k + curvature * problem.beta**2
    if first_step:
        lam += 1.0
    return lam, curvature


def _fit_initial(
    problem: TelegraphProblem, mesh: UniformMesh, w: BasisWeights, knots: np.ndarray
) -> CoefficientFrame:
    rhs = np.empty(mesh.n_cells + 3)
    rhs[1:-1] = sample(problem.initial_value, knots)
    rhs[0], rhs[-1] = _end_slopes(problem, mesh)
    matrix = _collocation_matrix(w, mesh.n_cells, 1.0, 0.0, BoundaryKind.NEUMANN)
    return CoefficientFrame(values=solve(replace(matrix, rhs=rhs)), time=0.0)


def initial_coefficients(problem: TelegraphProblem, mesh: UniformMesh) -> CoefficientFrame:
    """Fit the initial profile: g1 at every knot, g1' at both ends."""
    return _fit_initial(problem, mesh, basis_weights(mesh), mesh.knots())


def _step_rhs(
    problem: TelegraphProblem,
    params: SchemeParams,
    w: BasisWeights,
    knots: np.ndarray,
    current: CoefficientFrame,
    u_prev: np.ndarray | None,
    t_j: float,
    first_step: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """The step's right-hand side (collocation rows, then the boundary rows)
    and U^j at the knots, which the next step takes as its ``u_prev``.

    ``u_prev`` is U^{j-1} at the knots; the first step ignores it.
    """
    k = params.dt
    theta = params.theta
    alpha = problem.alpha
    beta2 = problem.beta**2

    u_now = knot_values(current.values, w, 0)
    scratch = knot_values(current.values, w, 2)
    if params.forcing_level == "j":
        q_vals = sample(problem.forcing, knots, t_j)
    else:
        q_next = sample(problem.forcing, knots, t_j + k)
        q_vals = theta * q_next + (1.0 - theta) * sample(problem.forcing, knots, t_j)

    # 2 (1 + alpha k) U + k^2 (1 - theta) (U_xx - beta^2 U) + k^2 q, summed
    # left to right; ``scratch`` starts as U_xx, and q may be read-only
    rhs = np.empty(len(knots) + 2)
    rhs_mid = rhs[1:-1]
    np.multiply(u_now, beta2, out=rhs_mid)
    np.subtract(scratch, rhs_mid, out=scratch)
    np.multiply(scratch, k * k * (1.0 - theta), out=scratch)
    np.multiply(u_now, 2.0 * (1.0 + alpha * k), out=rhs_mid)
    np.add(rhs_mid, scratch, out=rhs_mid)
    np.multiply(q_vals, k * k, out=scratch)
    np.add(rhs_mid, scratch, out=rhs_mid)
    if first_step:
        np.multiply(sample(problem.initial_velocity, knots), 2.0 * k, out=scratch)
        np.add(rhs_mid, scratch, out=rhs_mid)
    else:
        np.subtract(rhs_mid, u_prev, out=rhs_mid)

    t_next = t_j + k
    rhs[0] = problem.boundary.left(t_next)
    rhs[-1] = problem.boundary.right(t_next)
    return rhs, u_now


def assemble_step(
    problem: TelegraphProblem,
    mesh: UniformMesh,
    params: SchemeParams,
    current: CoefficientFrame,
    previous: CoefficientFrame,
    t_j: float,
    first_step: bool = False,
) -> CornerTridiagonalSystem:
    """Build the linear system whose solution is the coefficient level j+1.

    ``previous`` is ignored when ``first_step`` is set (the ghost level
    replaces it).
    """
    w = basis_weights(mesh)
    weights = _step_weights(problem, params, first_step)
    matrix = _collocation_matrix(w, mesh.n_cells, *weights, problem.boundary.kind)
    u_prev = None if first_step else knot_values(previous.values, w, 0)
    rhs, _ = _step_rhs(problem, params, w, mesh.knots(), current, u_prev, t_j, first_step)
    return replace(matrix, rhs=rhs)


def step(
    problem: TelegraphProblem,
    mesh: UniformMesh,
    params: SchemeParams,
    current: CoefficientFrame,
    previous: CoefficientFrame,
    t_j: float,
    first_step: bool = False,
) -> CoefficientFrame:
    """Advance one time level by solving :func:`assemble_step`'s system."""
    system = assemble_step(problem, mesh, params, current, previous, t_j, first_step)
    return CoefficientFrame(values=solve(system), time=t_j + params.dt)


def output_steps(times: Sequence[float], params: SchemeParams) -> list[int]:
    """The step index j of each output time t = j * dt.

    Each time must lie within ``params.align_tol`` of a step level in
    [0, t_final] (the levels 0 .. ``params.last_step``), and the times must
    be strictly increasing; otherwise ``ValueError``.
    """
    times = [float(t) for t in times]
    if not times:
        raise ValueError("at least one output time is required")
    tol, last = params.align_tol, params.last_step
    steps: list[int] = []
    for t in times:
        if not math.isfinite(t):
            raise ValueError(f"output time {t} is not finite")
        if not -tol <= t <= params.t_final + tol:
            raise ValueError(f"output time {t} outside [0, {params.t_final}]")
        # t / dt is finite here, since (t_final + tol) / dt is
        j = int(round(t / params.dt))
        if abs(t - j * params.dt) > tol:
            raise ValueError(
                f"output time {t} is not a multiple of the step {params.dt}"
            )
        if j > last:
            raise ValueError(f"output time {t} outside [0, {params.t_final}]")
        steps.append(j)
    if any(b <= a for a, b in zip(steps, steps[1:])):
        raise ValueError(f"output times must be strictly increasing, got {times}")
    return steps


def run(
    problem: TelegraphProblem,
    mesh: UniformMesh,
    params: SchemeParams,
    output_times: Sequence[float],
) -> SolutionHistory:
    """March from t = 0 and capture the requested output times.

    The output times follow :func:`output_steps`, and t_final must not pass
    the problem's ``t_max``.
    """
    if problem.t_max is not None and params.t_final > problem.t_max + 1e-12:
        raise ValueError(
            f"t_final = {params.t_final} exceeds the problem's validity horizon "
            f"t <= {problem.t_max} (the data degenerates beyond it)"
        )
    indices = output_steps(output_times, params)
    wanted = set(indices)
    last = indices[-1]
    frames: list[CoefficientFrame] = []
    seconds: list[float] = []

    w = basis_weights(mesh)
    knots = mesh.knots()
    frame0 = _fit_initial(problem, mesh, w, knots)
    elapsed = 0.0
    if 0 in wanted:
        frames.append(frame0)
        seconds.append(0.0)

    current = frame0
    u_prev = None
    factor = None
    for j in range(last):
        tic = _time.perf_counter()
        first_step = j == 0
        if j < 2:
            # step 0 has its own matrix and every later step shares one; the
            # first-step factor is released before the second is built
            factor = None
            weights = _step_weights(problem, params, first_step)
            try:
                factor = CornerTridiagonalFactor(
                    _collocation_matrix(w, mesh.n_cells, *weights, problem.boundary.kind)
                )
            except SingularSystemError as exc:
                if params.theta == 0 and problem.boundary.kind is BoundaryKind.DIRICHLET:
                    raise SingularSystemError(exc.row, exc.pivot, _EXPLICIT_DIRICHLET) from exc
                raise
        t_j = j * params.dt
        t_next = t_j + params.dt
        rhs, u_prev = _step_rhs(problem, params, w, knots, current, u_prev, t_j, first_step)
        try:
            values = factor.solve(rhs)
        except ValueError as exc:
            raise ValueError(f"step {j} (t = {t_next:.12g}): {exc}") from exc
        advanced = CoefficientFrame(values=values, time=t_next)
        elapsed += _time.perf_counter() - tic
        current = advanced
        if j + 1 in wanted:
            frames.append(advanced)
            seconds.append(elapsed)

    return SolutionHistory(problem=problem, mesh=mesh, frames=frames, stepping_seconds=seconds)
