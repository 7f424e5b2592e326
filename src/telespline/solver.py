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
U^{-1} = U^1 - 2 k g2(x): its U^1 part gives the first step's matrix +1 on
the a-weight part of the diagonal, and its -2 k g2(x_i) is the first step's
U^{j-1} data, so every step builds its right-hand side the same way.

The initial coefficient vector interpolates g1 at all knots and matches
g1' at both ends (for either boundary kind), which closes the system.

The rows' weights come from :func:`telespline.basis.scheme_stencil`, the
one-theta view of the generator that the von Neumann analysis of
:mod:`telespline.stability` iterates.  One definition, :func:`_stencil`,
fixes every matrix by a handful of scalars: the knot rows' band
(lo, mid, lo) between the two boundary rows of one kind.  The initial fit
is (a1, a2, Neumann), since its
g1' end rows are the Neumann rows; a step is (w1, w2, the problem's kind),
where lambda gains the ghost-level +1 on the first step.  The step matrix
therefore depends on the step only through that +1, so :func:`run` factors
it twice per run: once for the first step and once, on the second step, for
every later one.  :func:`run` and the fit factor straight from those
scalars (:meth:`telespline.linalg.CornerTridiagonalFactor.from_stencil`,
numpy only), so a run writes no n-length band; :func:`_collocation_matrix`
writes the band out for :func:`assemble_step`, and both give the same bits.
Each step then builds just its right-hand side, the fused stencil
w3 S + w4 M - U^{j-1} + k^2 q over the coefficients (S the two side ones, M
the middle one), and solves with the kept factor.  A step evaluates no
spline at the knots: U^j = a1 S + a2 M, the U^{j-1} of the next step, comes
from the same sum S.
Problem data are sampled as arrays: every data callable is called once per
use with the whole knot array (see
:class:`telespline.problem.TelegraphProblem`), so a step costs one forcing
call (two with theta-blended forcing).  Every step passes the same knot
array, so the built-in and config problems evaluate their x-only factors,
such as sin(x), once per run; the built-in problems share one sin(x) among
g1, g2, q and the exact solution.  :func:`initial_coefficients`,
:func:`assemble_step` and :func:`step` build the fit, a single step's system
and its solution on their own with the same arithmetic, so they reproduce
:func:`run` exactly.
:func:`output_steps` is the one rule for which output times a run accepts.
"""

from __future__ import annotations

import math
import time as _time
from typing import NamedTuple, Optional, Sequence

import numpy as np

from ._record import FrozenRecord
from .basis import BasisWeights, UniformMesh, basis_weights, scheme_stencil
from .linalg import CornerTridiagonalFactor, CornerTridiagonalSystem, SingularSystemError, solve
from .problem import BoundaryKind, TelegraphProblem, central_slope, sample, slope_step

_TIME_ALIGN_TOL = 1e-9

# widest cell a run accepts: above it the value symbol a2 + 2 a1 cos(phi) of
# the basis, and with it the implicit level's symbol, vanishes inside (0, pi)
_MAX_CELL_WIDTH = 2 * math.pi / 3

_FORCING_LEVELS = ("j", "theta")

# most steps a run takes: beyond 2**53 the levels j * dt are no longer distinct
_MAX_STEPS = 2**53

# why every Dirichlet step matrix at theta = 0 is singular
_EXPLICIT_DIRICHLET = (
    "at theta = 0 the Dirichlet boundary row and the collocation row at x0 are "
    "proportional, so the step matrix is singular; use theta > 0"
)
# the same when k^2 theta is lost beside 1 (for one, when k^2 underflows)
_LOST_CURVATURE = (
    "k^2 theta = {:.3g} is lost beside 1 at dt = {} and theta = {}, so as at theta = 0 "
    "the Dirichlet boundary row and the collocation row at x0 are proportional and the "
    "step matrix is singular; use a larger dt"
)


class SchemeParams(FrozenRecord):
    """Time-scheme parameters.

    ``forcing_level`` selects where the source term is sampled: at the old
    level t_j (``"j"``, the default) or theta-blended between t_j and t_{j+1}
    (``"theta"``).
    """

    __slots__ = _fields = ("theta", "dt", "t_final", "forcing_level")
    theta: float
    dt: float
    t_final: float
    forcing_level: str

    def __init__(self, theta: float, dt: float, t_final: float, forcing_level: str = "j") -> None:
        self._assign(theta, dt, t_final, forcing_level)
        if not 0.0 <= theta <= 1.0:
            raise ValueError(f"theta must lie in [0, 1], got {theta}")
        if not dt > 0:
            raise ValueError(f"dt must be positive, got {dt}")
        if not math.isfinite(t_final):
            raise ValueError(f"t_final must be finite, got {t_final}")
        if not t_final >= dt:
            raise ValueError(f"t_final must be at least one step, got {t_final} < {dt}")
        if not (t_final + self.align_tol) / dt <= _MAX_STEPS:
            raise ValueError(
                f"t_final / dt = {t_final} / {dt} is too large to count the steps"
            )
        if forcing_level not in _FORCING_LEVELS:
            raise ValueError(
                f"forcing_level must be one of {_FORCING_LEVELS}, got {forcing_level!r}"
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


class CoefficientFrame(NamedTuple):
    """Spline coefficients C_{-3} .. C_{N-1} at one time level."""

    values: np.ndarray
    time: float


class SolutionHistory(FrozenRecord):
    """Frames captured at the requested output times of one run.

    ``stepping_seconds[i]`` is the wall time the stepping loop had consumed
    when ``frames[i]`` was captured: right-hand sides and solves, plus the
    one-off factorisations of the first-step and later-step matrices.
    Either list defaults to a new empty one.
    """

    __slots__ = _fields = ("frames", "stepping_seconds")
    frames: list[CoefficientFrame]
    stepping_seconds: list[float]

    def __init__(
        self,
        frames: Optional[list[CoefficientFrame]] = None,
        stepping_seconds: Optional[list[float]] = None,
    ) -> None:
        self._assign(
            [] if frames is None else frames,
            [] if stepping_seconds is None else stepping_seconds,
        )


def _end_slopes(problem: TelegraphProblem, mesh: UniformMesh) -> np.ndarray:
    """g1' at both interval ends."""
    ends = np.array([mesh.a, mesh.b])
    if problem.initial_slope is not None:
        return sample(problem.initial_slope, ends)
    return central_slope(problem.initial_value, ends, slope_step(ends))


def _stencil(
    w: BasisWeights, n_cells: int, lo: float, mid: float, kind: BoundaryKind
) -> tuple[int, float, float, tuple[float, float, float], tuple[float, float, float]]:
    """The band of every system in this module, as the scalars that fix it:
    (n, lo, mid, first row, last row), the arguments of
    :meth:`CornerTridiagonalFactor.from_stencil`.

    Each knot's row is ``lo, mid, lo`` on its three coefficients; the first
    and last rows are the boundary rows of ``kind``, each in column order:
    U at the ends for Dirichlet, U_x (the same rows as the fit's g1' rows)
    for Neumann.
    """
    row = (w.a1, w.a2, w.a1) if kind is BoundaryKind.DIRICHLET else (w.a3, 0.0, w.a4)
    return n_cells + 3, lo, mid, row, row


def _collocation_matrix(
    w: BasisWeights, n_cells: int, lo: float, mid: float, kind: BoundaryKind
) -> CornerTridiagonalSystem:
    """:func:`_stencil`'s band written out, with a zero right-hand side."""
    n, lo, mid, (d0, sup0, corner_top), (corner_bottom, sub_last, dn) = _stencil(
        w, n_cells, lo, mid, kind
    )
    sub = np.full(n - 1, lo)
    diag = np.full(n, mid)
    sup = np.full(n - 1, lo)
    diag[0], sup[0] = d0, sup0
    sub[n - 2], diag[n - 1] = sub_last, dn
    return CornerTridiagonalSystem(sub, diag, sup, corner_top, corner_bottom, np.zeros(n))


def _fit_initial(
    problem: TelegraphProblem, mesh: UniformMesh, w: BasisWeights, knots: np.ndarray
) -> CoefficientFrame:
    rhs = np.empty(mesh.n_cells + 3)
    rhs[1:-1] = sample(problem.initial_value, knots)
    rhs[0], rhs[-1] = _end_slopes(problem, mesh)
    factor = CornerTridiagonalFactor.from_stencil(
        *_stencil(w, mesh.n_cells, w.a1, w.a2, BoundaryKind.NEUMANN)
    )
    return CoefficientFrame(values=factor.solve(rhs), time=0.0)


def initial_coefficients(problem: TelegraphProblem, mesh: UniformMesh) -> CoefficientFrame:
    """Fit the initial profile: g1 at every knot, g1' at both ends."""
    return _fit_initial(problem, mesh, basis_weights(mesh), mesh.knots())


def _step_rhs(
    problem: TelegraphProblem,
    params: SchemeParams,
    stencil: tuple[float, float, float, float],
    w: BasisWeights,
    knots: np.ndarray,
    current: CoefficientFrame,
    u_prev: np.ndarray,
    t_j: float,
) -> tuple[np.ndarray, np.ndarray]:
    """The step's right-hand side (collocation rows, then the boundary rows)
    and U^j at the knots, which the next step takes as its ``u_prev``.

    ``u_prev`` is U^{j-1} at the knots: -2 k g2 on the first step.
    """
    k = params.dt
    theta = params.theta
    _, _, w3, w4 = stencil
    coeffs = current.values
    middle = coeffs[1:-1]

    if params.forcing_level == "j":
        q_vals = sample(problem.forcing, knots, t_j)
    else:
        q_next = sample(problem.forcing, knots, t_j + k)
        q_vals = theta * q_next + (1.0 - theta) * sample(problem.forcing, knots, t_j)

    # w3 S + w4 M + k^2 q - U^{j-1}, summed left to right; q may be read-only
    rhs = np.empty(coeffs.size)
    rhs_mid = rhs[1:-1]
    side = np.add(coeffs[:-2], coeffs[2:])
    scratch = np.multiply(middle, w4)
    np.multiply(side, w3, out=rhs_mid)
    np.add(rhs_mid, scratch, out=rhs_mid)
    np.multiply(q_vals, k * k, out=scratch)
    np.add(rhs_mid, scratch, out=rhs_mid)
    np.subtract(rhs_mid, u_prev, out=rhs_mid)
    # U^j = a1 S + a2 M in the buffer of S; :func:`assemble_step` repeats it
    u_now = np.multiply(side, w.a1, out=side)
    np.multiply(middle, w.a2, out=scratch)
    np.add(u_now, scratch, out=u_now)

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
    stencil = scheme_stencil(problem.alpha, problem.beta, params.theta, params.dt, w, first_step)
    matrix = _collocation_matrix(w, mesh.n_cells, *stencil[:2], problem.boundary.kind)
    knots = mesh.knots()
    old = previous.values
    if first_step:  # U^{j-1} as :func:`run` forms it: the ghost level, then _step_rhs's U^j
        u_prev = sample(problem.initial_velocity, knots) * (-2.0 * params.dt)
    else:
        u_prev = w.a1 * (old[:-2] + old[2:]) + w.a2 * old[1:-1]
    rhs, _ = _step_rhs(problem, params, stencil, w, knots, current, u_prev, t_j)
    return CornerTridiagonalSystem(
        matrix.sub, matrix.diag, matrix.sup, matrix.corner_top, matrix.corner_bottom, rhs
    )


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


def _singular_reason(problem: TelegraphProblem, params: SchemeParams) -> Optional[str]:
    """Why a step matrix of ``problem`` is singular, where the cause is known:
    on Dirichlet ends, the rows at x0 are proportional at theta = 0 and
    wherever k^2 theta is lost beside 1."""
    if problem.boundary.kind is not BoundaryKind.DIRICHLET:
        return None
    if params.theta == 0:
        return _EXPLICIT_DIRICHLET
    curvature = params.dt * params.dt * params.theta
    if 1.0 + curvature == 1.0:
        return _LOST_CURVATURE.format(curvature, params.dt, params.theta)
    return None


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

    The output times follow :func:`output_steps`, the last level marched,
    ``params.last_time``, must not pass the problem's ``t_max``, and the cell
    width must lie below 2 pi / 3.  The mesh must span the problem's domain.
    """
    if (mesh.a, mesh.b) != tuple(problem.domain):
        raise ValueError(
            f"mesh interval [{mesh.a}, {mesh.b}] is not the problem's domain "
            f"[{problem.domain[0]}, {problem.domain[1]}]"
        )
    if not mesh.h < _MAX_CELL_WIDTH:
        raise ValueError(
            f"cell width h = {mesh.h} is not below 2*pi/3 = {_MAX_CELL_WIDTH}: on such "
            f"cells the Fourier symbol of the implicit level vanishes; use more cells"
        )
    if problem.t_max is not None and params.last_time > problem.t_max + 1e-12:
        raise ValueError(
            f"t_final = {params.t_final} marches to t = {params.last_time}, past the "
            f"problem's validity horizon t <= {problem.t_max} (the data degenerates beyond it)"
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
    u_prev = sample(problem.initial_velocity, knots) * (-2.0 * params.dt)  # the ghost level
    factor = None
    for j in range(last):
        tic = _time.perf_counter()
        if j < 2:
            # step 0 has its own matrix and every later step shares one; the
            # first-step factor is released before the second is built
            factor = None
            stencil = scheme_stencil(
                problem.alpha, problem.beta, params.theta, params.dt, w, j == 0
            )
            try:
                factor = CornerTridiagonalFactor.from_stencil(
                    *_stencil(w, mesh.n_cells, *stencil[:2], problem.boundary.kind)
                )
            except SingularSystemError as exc:
                reason = _singular_reason(problem, params)
                if reason is None:
                    raise
                raise SingularSystemError(exc.row, exc.pivot, reason) from exc
        t_j = j * params.dt
        t_next = t_j + params.dt
        rhs, u_prev = _step_rhs(problem, params, stencil, w, knots, current, u_prev, t_j)
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

    return SolutionHistory(frames=frames, stepping_seconds=seconds)
