"""Problem definitions for the damped wave equation

    u_tt + 2*alpha*u_t + beta^2*u = u_xx + q(x, t)

on an interval [a, b], together with initial data u(x,0) = g1(x),
u_t(x,0) = g2(x) and either Dirichlet or Neumann boundary data.

Five classical benchmark cases with known exact solutions are built in.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

# number of sample points used for cheap consistency probes
_PROBE_POINTS = 33


class BoundaryKind(enum.Enum):
    DIRICHLET = "dirichlet"
    NEUMANN = "neumann"


@dataclass(frozen=True)
class BoundarySpec:
    """Boundary data: u (Dirichlet) or u_x (Neumann) at both interval ends."""

    kind: BoundaryKind
    left: Callable[[float], float]
    right: Callable[[float], float]


@dataclass(frozen=True)
class Diagnostic:
    """One violated compatibility condition found by :func:`validate`."""

    condition: str
    location: float
    magnitude: float

    def __str__(self) -> str:
        return f"{self.condition} at x = {self.location:g} (off by {self.magnitude:.3e})"


@dataclass(frozen=True)
class TelegraphProblem:
    """A complete initial/boundary value problem for the damped wave equation.

    The data callables are vectorised: ``forcing``, ``initial_value``,
    ``initial_velocity``, ``exact`` and ``initial_slope`` are called with x
    as a float64 array of points (the mesh knots, or the two interval ends)
    and t as a float, and return either an array of x's shape or a scalar,
    which stands for that value at every point.  Numpy ufuncs in place of
    ``math`` functions give this; a callable that only takes scalars does
    not work.  The boundary callables ``left`` and ``right`` take a scalar t.

    ``initial_slope`` optionally supplies g1' in closed form; when absent the
    derivative end conditions fall back to central differencing of g1.
    ``t_max`` optionally marks the largest time the data stays regular for;
    :func:`telespline.solver.run` refuses to march past it.
    """

    alpha: float
    beta: float
    domain: tuple[float, float]
    forcing: Callable[[float, float], float]
    initial_value: Callable[[float], float]
    initial_velocity: Callable[[float], float]
    boundary: BoundarySpec
    exact: Optional[Callable[[float, float], float]] = None
    initial_slope: Optional[Callable[[float], float]] = None
    t_max: Optional[float] = None

    def __post_init__(self) -> None:
        a, b = self.domain
        if not b > a:
            raise ValueError(f"domain needs b > a, got [{a}, {b}]")
        if self.alpha < 0 or self.beta < 0:
            raise ValueError(
                f"damping and restoring coefficients must be nonnegative, "
                f"got alpha={self.alpha}, beta={self.beta}"
            )
        if self.exact is not None:
            # the exact solution must restrict to the initial profile at t = 0
            x = a + (b - a) * np.arange(_PROBE_POINTS) / (_PROBE_POINTS - 1)
            want = sample(self.initial_value, x)
            got = sample(self.exact, x, 0.0)
            off = np.abs(got - want) > 1e-10 * np.maximum(1.0, np.abs(want))
            if off.any():
                k = int(off.argmax())
                raise ValueError(
                    f"exact(x, 0) disagrees with the initial profile at "
                    f"x = {x[k]} ({got[k]} vs {want[k]})"
                )


def sample(function: Callable[..., object], x: np.ndarray, *args: float) -> np.ndarray:
    """``function(x, *args)`` as an array of x's shape, from one call."""
    return np.broadcast_to(function(x, *args), x.shape)


def central_slope(f: Callable[[float], float], x: float, step: float) -> float:
    """Central difference approximation of f'(x)."""
    return (f(x + step) - f(x - step)) / (2 * step)


def slope_step(x):
    """Central-difference step for f'(x): cbrt(eps) * max(1, |x|).

    It balances the O(step^2) truncation error against the O(eps/step)
    rounding error, so the slope is good to about eps^(2/3) at any mesh size.
    """
    return np.cbrt(np.finfo(float).eps) * np.maximum(1.0, np.abs(x))


def validate(problem: TelegraphProblem, mesh) -> list[Diagnostic]:
    """Report every corner/consistency mismatch between the problem data.

    Returns diagnostics rather than raising: an inconsistent problem is still
    solvable, the solution just cannot be smooth near the corners.
    """
    out: list[Diagnostic] = []
    ends = np.array(problem.domain)
    g1 = problem.initial_value
    bc = problem.boundary
    data = np.array([bc.left(0.0), bc.right(0.0)])
    if bc.kind is BoundaryKind.DIRICHLET:
        profile = sample(g1, ends)
        gaps = np.abs(data - profile)
        tolerances = 1e-10 * np.maximum(1.0, np.abs(profile))
        condition = "Dirichlet value vs initial profile"
    else:
        gaps = np.abs(data - central_slope(g1, ends, slope_step(ends)))
        tolerances = np.full(2, 1e-8)
        condition = "Neumann value vs initial slope"
    for which, x, gap, tolerance in zip(("left", "right"), ends, gaps, tolerances):
        if gap > tolerance:
            out.append(Diagnostic(f"{which} {condition}", float(x), float(gap)))
    if problem.exact is not None:
        knots = mesh.knots()
        profile = sample(g1, knots)
        gaps = np.abs(sample(problem.exact, knots, 0.0) - profile)
        off = gaps > 1e-10 * np.maximum(1.0, np.abs(profile))
        for x, gap in zip(knots[off].tolist(), gaps[off].tolist()):
            out.append(Diagnostic("exact solution vs initial profile", x, gap))
    return out


def _problem_one() -> TelegraphProblem:
    """Decaying standing wave exp(-t) sin(x) on [0, pi], Dirichlet ends."""
    return TelegraphProblem(
        alpha=4.0,
        beta=2.0,
        domain=(0.0, math.pi),
        forcing=lambda x, t: -2 * np.exp(-t) * np.sin(x),
        initial_value=lambda x: np.sin(x),
        initial_velocity=lambda x: -np.sin(x),
        boundary=BoundarySpec(
            BoundaryKind.DIRICHLET, lambda t: 0.0, lambda t: 0.0
        ),
        exact=lambda x, t: np.exp(-t) * np.sin(x),
        initial_slope=lambda x: np.cos(x),
    )


def _problem_two() -> TelegraphProblem:
    """Travelling front tan((x + t)/2) on [0, 2]; steepens, so keep t <= 1."""
    return TelegraphProblem(
        alpha=10.0,
        beta=5.0,
        domain=(0.0, 2.0),
        forcing=lambda x, t: 10 * (1 + np.tan((x + t) / 2) ** 2)
        + 25 * np.tan((x + t) / 2),
        initial_value=lambda x: np.tan(x / 2),
        initial_velocity=lambda x: (1 + np.tan(x / 2) ** 2) / 2,
        boundary=BoundarySpec(
            BoundaryKind.DIRICHLET,
            lambda t: np.tan(t / 2),
            lambda t: np.tan((2 + t) / 2),
        ),
        exact=lambda x, t: np.tan((x + t) / 2),
        initial_slope=lambda x: (1 + np.tan(x / 2) ** 2) / 2,
        t_max=1.0,
    )


def _problem_three() -> TelegraphProblem:
    """Parabolic bump (x - x^2) t^2 exp(-t) growing from rest on [0, 1]."""
    return TelegraphProblem(
        alpha=0.5,
        beta=1.0,
        domain=(0.0, 1.0),
        forcing=lambda x, t: (2 - 2 * t + t ** 2) * (x - x ** 2) * np.exp(-t)
        + 2 * t ** 2 * np.exp(-t),
        initial_value=lambda x: 0.0,
        initial_velocity=lambda x: 0.0,
        boundary=BoundarySpec(
            BoundaryKind.DIRICHLET, lambda t: 0.0, lambda t: 0.0
        ),
        exact=lambda x, t: (x - x ** 2) * t ** 2 * np.exp(-t),
        initial_slope=lambda x: 0.0,
    )


def _problem_four() -> TelegraphProblem:
    """Oscillating profile cos(t) sin(x) on [0, 1], Dirichlet ends."""
    return TelegraphProblem(
        alpha=6.0,
        beta=2.0,
        domain=(0.0, 1.0),
        forcing=lambda x, t: -12 * np.sin(t) * np.sin(x)
        + 4 * np.cos(t) * np.sin(x),
        initial_value=lambda x: np.sin(x),
        initial_velocity=lambda x: 0.0,
        boundary=BoundarySpec(
            BoundaryKind.DIRICHLET,
            lambda t: 0.0,
            lambda t: np.cos(t) * np.sin(1),
        ),
        exact=lambda x, t: np.cos(t) * np.sin(x),
        initial_slope=lambda x: np.cos(x),
    )


def _problem_five() -> TelegraphProblem:
    """Decaying wave exp(-t) sin(x) on [0, 2 pi] with Neumann end data."""
    return TelegraphProblem(
        alpha=4.0,
        beta=2.0,
        domain=(0.0, 2 * math.pi),
        forcing=lambda x, t: -2 * np.exp(-t) * np.sin(x),
        initial_value=lambda x: np.sin(x),
        initial_velocity=lambda x: -np.sin(x),
        boundary=BoundarySpec(
            BoundaryKind.NEUMANN,
            lambda t: np.exp(-t),
            lambda t: np.exp(-t),
        ),
        exact=lambda x, t: np.exp(-t) * np.sin(x),
        initial_slope=lambda x: np.cos(x),
    )


_BUILTINS = {
    1: _problem_one,
    2: _problem_two,
    3: _problem_three,
    4: _problem_four,
    5: _problem_five,
}


def builtin_problem(problem_id: int) -> TelegraphProblem:
    """One of the five bundled benchmark problems (ids 1..5)."""
    try:
        factory = _BUILTINS[problem_id]
    except (KeyError, TypeError):
        raise ValueError(f"unknown builtin problem {problem_id!r}") from None
    return factory()
