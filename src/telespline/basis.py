"""Trigonometric cubic B-spline basis on a uniform mesh.

The basis function TB_i lives on the four cells [x_i, x_{i+4}] of a uniform
knot sequence and is built from half-angle sines, so it is C2-continuous and
reproduces trigonometric rather than polynomial segments.  Writing
xi(y) = sin((x - y)/2), zeta(y) = sin((y - x)/2) and
omega = sin(h/2) sin(h) sin(3h/2), the four branches are

    TB_i(x) * omega =
        xi(x_i)^3                                              on [x_i,     x_{i+1}]
        xi(x_i) (xi(x_i) zeta(x_{i+2}) + zeta(x_{i+3}) xi(x_{i+1}))
            + zeta(x_{i+4}) xi(x_{i+1})^2                      on [x_{i+1}, x_{i+2}]
        zeta(x_{i+4}) (xi(x_{i+1}) zeta(x_{i+3}) + zeta(x_{i+4}) xi(x_{i+2}))
            + xi(x_i) zeta(x_{i+3})^2                          on [x_{i+2}, x_{i+3}]
        zeta(x_{i+4})^3                                        on [x_{i+3}, x_{i+4}]

At the five knots of its support the triple (value, first, second derivative)
takes the tabulated weights

    value : (0, a1, a2, a1, 0)
    d1    : (0, a4, 0, a3, 0)     # rises into the peak, falls after it
    d2    : (0, a5, a6, a5, 0)

with the closed forms coded in :func:`basis_weights`.  A solution expansion
sum_i C_i TB_i over i = -3 .. N-1 therefore has the knot identities

    U(x_j)   = a1 C_{j-3} + a2 C_{j-2} + a1 C_{j-1}
    U'(x_j)  = a3 C_{j-3}             + a4 C_{j-1}
    U''(x_j) = a5 C_{j-3} + a6 C_{j-2} + a5 C_{j-1}

used throughout the collocation solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class DegenerateMeshError(ValueError):
    """Raised when the cell width makes the basis normalisation collapse."""


@dataclass(frozen=True)
class UniformMesh:
    """Uniform spatial mesh with n_cells cells on [a, b].

    Knot indices extend beyond the domain (three ghost knots on each side
    are enough for every basis function overlapping [a, b]).
    """

    a: float
    b: float
    n_cells: int
    h: float = field(init=False)

    def __post_init__(self) -> None:
        if not self.b > self.a:
            raise ValueError(f"mesh needs b > a, got [{self.a}, {self.b}]")
        if self.n_cells < 3:
            raise ValueError(f"mesh needs at least 3 cells, got {self.n_cells}")
        h = (self.b - self.a) / self.n_cells
        if not h < math.pi:
            raise ValueError(f"cell width {h} must be below pi")
        object.__setattr__(self, "h", h)

    def knot(self, i: int) -> float:
        """Knot x_i = a + i*h; indices outside 0..n_cells are permitted."""
        if i == self.n_cells:
            return self.b
        return self.a + i * self.h

    def knots(self) -> np.ndarray:
        """The n_cells + 1 knots inside [a, b], equal to :meth:`knot` entry by entry."""
        knots = self.a + self.h * np.arange(self.n_cells + 1)
        knots[-1] = self.b
        return knots


@dataclass(frozen=True)
class BasisWeights:
    """Knot-point weights a1..a6 of the basis value and its derivatives."""

    a1: float
    a2: float
    a3: float
    a4: float
    a5: float
    a6: float


@dataclass(frozen=True)
class BasisValue:
    """Value and first two derivatives of one basis function at one point."""

    value: float
    d1: float
    d2: float


def _require_nondegenerate(mesh: UniformMesh) -> None:
    h = mesh.h
    quantities = (
        math.sin(h / 2),
        math.sin(h),
        math.sin(3 * h / 2),
        1 + 2 * math.cos(h),
        2 * math.cos(h / 2) + math.cos(3 * h / 2),
    )
    for value in quantities:
        if abs(value) < 1e-14:
            raise DegenerateMeshError(
                f"cell width {h} makes the spline normalisation degenerate"
            )


def basis_weights(mesh: UniformMesh) -> BasisWeights:
    """Closed-form knot weights for the given cell width."""
    _require_nondegenerate(mesh)
    h = mesh.h
    s32 = math.sin(3 * h / 2)
    a1 = math.sin(h / 2) ** 2 / (math.sin(h) * s32)
    a2 = 2 / (1 + 2 * math.cos(h))
    a3 = -3 / (4 * s32)
    a4 = 3 / (4 * s32)
    a5 = (
        3
        * (1 + 3 * math.cos(h))
        / (16 * math.sin(h / 2) ** 2 * (2 * math.cos(h / 2) + math.cos(3 * h / 2)))
    )
    a6 = (
        -3
        * math.cos(h / 2) ** 2
        / (2 * math.sin(h / 2) ** 2 * (1 + 2 * math.cos(h)))
    )
    return BasisWeights(a1, a2, a3, a4, a5, a6)


def _xi(x: float, knot: float) -> tuple[float, float, float]:
    """sin((x - knot)/2) with first and second x-derivatives."""
    half = (x - knot) / 2
    v = math.sin(half)
    return v, math.cos(half) / 2, -v / 4


def _zeta(x: float, knot: float) -> tuple[float, float, float]:
    """sin((knot - x)/2) with first and second x-derivatives."""
    half = (knot - x) / 2
    v = math.sin(half)
    return v, -math.cos(half) / 2, -v / 4


def _mul(
    p: tuple[float, float, float], q: tuple[float, float, float]
) -> tuple[float, float, float]:
    """Product rule on (value, d1, d2) triples."""
    return (
        p[0] * q[0],
        p[1] * q[0] + p[0] * q[1],
        p[2] * q[0] + 2 * p[1] * q[1] + p[0] * q[2],
    )


def _add(*terms: tuple[float, float, float]) -> tuple[float, float, float]:
    return (
        sum(t[0] for t in terms),
        sum(t[1] for t in terms),
        sum(t[2] for t in terms),
    )


def _branch_values(i: int, branch: int, x: float, mesh: UniformMesh) -> BasisValue:
    """Evaluate one branch formula of TB_i, regardless of where x lies."""
    t = [mesh.knot(i + j) for j in range(5)]
    if branch == 0:
        raw = _mul(_mul(_xi(x, t[0]), _xi(x, t[0])), _xi(x, t[0]))
    elif branch == 1:
        raw = _add(
            _mul(_mul(_xi(x, t[0]), _xi(x, t[0])), _zeta(x, t[2])),
            _mul(_mul(_xi(x, t[0]), _zeta(x, t[3])), _xi(x, t[1])),
            _mul(_mul(_zeta(x, t[4]), _xi(x, t[1])), _xi(x, t[1])),
        )
    elif branch == 2:
        raw = _add(
            _mul(_mul(_zeta(x, t[4]), _xi(x, t[1])), _zeta(x, t[3])),
            _mul(_mul(_zeta(x, t[4]), _zeta(x, t[4])), _xi(x, t[2])),
            _mul(_mul(_xi(x, t[0]), _zeta(x, t[3])), _zeta(x, t[3])),
        )
    elif branch == 3:
        raw = _mul(_mul(_zeta(x, t[4]), _zeta(x, t[4])), _zeta(x, t[4]))
    else:
        raise ValueError(f"branch index must be 0..3, got {branch}")
    h = mesh.h
    omega = math.sin(h / 2) * math.sin(h) * math.sin(3 * h / 2)
    return BasisValue(raw[0] / omega, raw[1] / omega, raw[2] / omega)


def eval_basis_all(i: int, x: float, mesh: UniformMesh) -> BasisValue:
    """Value, d1 and d2 of TB_i at x; zero triple outside the support."""
    _require_nondegenerate(mesh)
    t0 = mesh.knot(i)
    t4 = mesh.knot(i + 4)
    if x < t0 or x > t4:
        return BasisValue(0.0, 0.0, 0.0)
    # a point sitting exactly on an interior knot belongs to the left branch
    if x <= mesh.knot(i + 1):
        branch = 0
    elif x <= mesh.knot(i + 2):
        branch = 1
    elif x <= mesh.knot(i + 3):
        branch = 2
    else:
        branch = 3
    return _branch_values(i, branch, x, mesh)


def eval_basis(i: int, x: float, mesh: UniformMesh, derivative_order: int = 0) -> float:
    """Evaluate TB_i or one of its first two derivatives at x."""
    if derivative_order not in (0, 1, 2):
        raise ValueError(f"derivative_order must be 0, 1 or 2, got {derivative_order}")
    triple = eval_basis_all(i, x, mesh)
    return (triple.value, triple.d1, triple.d2)[derivative_order]


def evaluate_solution(
    coeffs, x: float, mesh: UniformMesh, derivative_order: int = 0
) -> float:
    """Evaluate a spline expansion sum_i C_i TB_i at a point of [a, b].

    ``coeffs`` is the coefficient vector C_{-3} .. C_{N-1} (length N + 3),
    or any object carrying it as a ``values`` attribute.  Only the (at most
    four) basis functions whose support contains x contribute.
    """
    values = np.asarray(getattr(coeffs, "values", coeffs), dtype=float)
    n = mesh.n_cells
    if values.shape != (n + 3,):
        raise ValueError(
            f"expected {n + 3} coefficients for {n} cells, got shape {values.shape}"
        )
    if x < mesh.a or x > mesh.b:
        raise ValueError(f"point {x} lies outside the domain [{mesh.a}, {mesh.b}]")
    cell = min(n - 1, max(0, int((x - mesh.a) // mesh.h)))
    total = 0.0
    for i in range(cell - 3, cell + 1):
        total += values[i + 3] * eval_basis(i, x, mesh, derivative_order)
    return total


def knot_values(
    coeffs, weights: BasisWeights, derivative_order: int = 0
) -> np.ndarray:
    """Spline values (or derivatives) at all mesh knots, via the a-weights.

    Returns the length N + 1 vector over knots x_0 .. x_N given the length
    N + 3 coefficient vector; a stack of coefficient vectors (last axis
    N + 3) gives the same stack of knot vectors.
    """
    values = np.asarray(getattr(coeffs, "values", coeffs), dtype=float)
    left, middle, right = values[..., :-2], values[..., 1:-1], values[..., 2:]
    if derivative_order == 0:
        return weights.a1 * left + weights.a2 * middle + weights.a1 * right
    if derivative_order == 1:
        return weights.a3 * left + weights.a4 * right
    if derivative_order == 2:
        return weights.a5 * left + weights.a6 * middle + weights.a5 * right
    raise ValueError(f"derivative_order must be 0, 1 or 2, got {derivative_order}")
