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

    ``initial_slope`` optionally supplies g1' in closed form; when absent the
    derivative end conditions fall back to central differencing of g1.
    ``t_max`` optionally marks the largest time the data stays regular for.
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
            for k in range(_PROBE_POINTS):
                x = a + (b - a) * k / (_PROBE_POINTS - 1)
                want = self.initial_value(x)
                got = self.exact(x, 0.0)
                if abs(got - want) > 1e-10 * max(1.0, abs(want)):
                    raise ValueError(
                        f"exact(x, 0) disagrees with the initial profile at "
                        f"x = {x} ({got} vs {want})"
                    )


def central_slope(f: Callable[[float], float], x: float, step: float) -> float:
    """Central difference approximation of f'(x)."""
    return (f(x + step) - f(x - step)) / (2 * step)


def validate(problem: TelegraphProblem, mesh) -> list[Diagnostic]:
    """Report every corner/consistency mismatch between the problem data.

    Returns diagnostics rather than raising: an inconsistent problem is still
    solvable, the solution just cannot be smooth near the corners.
    """
    out: list[Diagnostic] = []
    a, b = problem.domain
    g1 = problem.initial_value
    bc = problem.boundary
    if bc.kind is BoundaryKind.DIRICHLET:
        for which, func, x in (("left", bc.left, a), ("right", bc.right, b)):
            gap = abs(func(0.0) - g1(x))
            if gap > 1e-10 * max(1.0, abs(g1(x))):
                out.append(
                    Diagnostic(f"{which} Dirichlet value vs initial profile", x, gap)
                )
    else:
        step = 1e-6 * (b - a)
        for which, func, x in (("left", bc.left, a), ("right", bc.right, b)):
            gap = abs(func(0.0) - central_slope(g1, x, step))
            if gap > 1e-8:
                out.append(
                    Diagnostic(f"{which} Neumann value vs initial slope", x, gap)
                )
    if problem.exact is not None:
        for x in mesh.knots().tolist():
            gap = abs(problem.exact(x, 0.0) - g1(x))
            if gap > 1e-10 * max(1.0, abs(g1(x))):
                out.append(Diagnostic("exact solution vs initial profile", x, gap))
    return out


def _problem_one() -> TelegraphProblem:
    """Decaying standing wave exp(-t) sin(x) on [0, pi], Dirichlet ends."""
    return TelegraphProblem(
        alpha=4.0,
        beta=2.0,
        domain=(0.0, math.pi),
        forcing=lambda x, t: -2 * math.exp(-t) * math.sin(x),
        initial_value=lambda x: math.sin(x),
        initial_velocity=lambda x: -math.sin(x),
        boundary=BoundarySpec(
            BoundaryKind.DIRICHLET, lambda t: 0.0, lambda t: 0.0
        ),
        exact=lambda x, t: math.exp(-t) * math.sin(x),
        initial_slope=lambda x: math.cos(x),
    )


def _problem_two() -> TelegraphProblem:
    """Travelling front tan((x + t)/2) on [0, 2]; steepens, so keep t <= 1."""
    return TelegraphProblem(
        alpha=10.0,
        beta=5.0,
        domain=(0.0, 2.0),
        forcing=lambda x, t: 10 * (1 + math.tan((x + t) / 2) ** 2)
        + 25 * math.tan((x + t) / 2),
        initial_value=lambda x: math.tan(x / 2),
        initial_velocity=lambda x: (1 + math.tan(x / 2) ** 2) / 2,
        boundary=BoundarySpec(
            BoundaryKind.DIRICHLET,
            lambda t: math.tan(t / 2),
            lambda t: math.tan((2 + t) / 2),
        ),
        exact=lambda x, t: math.tan((x + t) / 2),
        initial_slope=lambda x: (1 + math.tan(x / 2) ** 2) / 2,
        t_max=1.0,
    )


def _problem_three() -> TelegraphProblem:
    """Parabolic bump (x - x^2) t^2 exp(-t) growing from rest on [0, 1]."""
    return TelegraphProblem(
        alpha=0.5,
        beta=1.0,
        domain=(0.0, 1.0),
        forcing=lambda x, t: (2 - 2 * t + t ** 2) * (x - x ** 2) * math.exp(-t)
        + 2 * t ** 2 * math.exp(-t),
        initial_value=lambda x: 0.0,
        initial_velocity=lambda x: 0.0,
        boundary=BoundarySpec(
            BoundaryKind.DIRICHLET, lambda t: 0.0, lambda t: 0.0
        ),
        exact=lambda x, t: (x - x ** 2) * t ** 2 * math.exp(-t),
        initial_slope=lambda x: 0.0,
    )


def _problem_four() -> TelegraphProblem:
    """Oscillating profile cos(t) sin(x) on [0, 1], Dirichlet ends."""
    return TelegraphProblem(
        alpha=6.0,
        beta=2.0,
        domain=(0.0, 1.0),
        forcing=lambda x, t: -12 * math.sin(t) * math.sin(x)
        + 4 * math.cos(t) * math.sin(x),
        initial_value=lambda x: math.sin(x),
        initial_velocity=lambda x: 0.0,
        boundary=BoundarySpec(
            BoundaryKind.DIRICHLET,
            lambda t: 0.0,
            lambda t: math.cos(t) * math.sin(1),
        ),
        exact=lambda x, t: math.cos(t) * math.sin(x),
        initial_slope=lambda x: math.cos(x),
    )


def _problem_five() -> TelegraphProblem:
    """Decaying wave exp(-t) sin(x) on [0, 2 pi] with Neumann end data."""
    return TelegraphProblem(
        alpha=4.0,
        beta=2.0,
        domain=(0.0, 2 * math.pi),
        forcing=lambda x, t: -2 * math.exp(-t) * math.sin(x),
        initial_value=lambda x: math.sin(x),
        initial_velocity=lambda x: -math.sin(x),
        boundary=BoundarySpec(
            BoundaryKind.NEUMANN,
            lambda t: math.exp(-t),
            lambda t: math.exp(-t),
        ),
        exact=lambda x, t: math.exp(-t) * math.sin(x),
        initial_slope=lambda x: math.cos(x),
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
