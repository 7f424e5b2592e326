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

On a uniform mesh the four functions that are nonzero on the cell
[x_c, x_{c+1}] are fixed functions of the offset u = x - x_c.  With
s_m = sin((u - m h)/2), which is xi(x_{c+m}) and -zeta(x_{c+m}),

    TB_{c-3} * omega = -s_1^3
    TB_{c-2} * omega = s_2 s_{-1} s_1 + s_2^2 s_0 + s_{-2} s_1^2
    TB_{c-1} * omega = -(s_{-1}^2 s_1 + s_{-1} s_2 s_0 + s_3 s_0^2)
    TB_c     * omega = s_0^3

for any u, not only inside the cell.  One kernel evaluates these four on an
array of offsets; every off-knot evaluation in this module goes through it.

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


def _mul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Product rule on (value, d1, d2) triples stacked along the first axis."""
    return np.stack(
        (
            p[0] * q[0],
            p[1] * q[0] + p[0] * q[1],
            p[2] * q[0] + 2 * p[1] * q[1] + p[0] * q[2],
        )
    )


def _cell_basis(u, mesh: UniformMesh) -> np.ndarray:
    """(value, d1, d2) of TB_{c-3} .. TB_c at the offsets u = x - x_c.

    The result has shape ``(3,) + u.shape + (4,)``: derivative order first,
    the four basis functions of cell c last.  The formulas hold for any u,
    not only for x inside the cell.
    """
    _require_nondegenerate(mesh)
    h = mesh.h
    # half[m + 2] = (u - m h)/2 for m = -2 .. 3
    half = np.subtract.outer(h * np.arange(-2, 4), u) / -2
    sines = np.sin(half)
    sm2, sm1, s0, s1, s2, s3 = np.stack((sines, np.cos(half) / 2, -sines / 4), axis=1)
    s00, s11 = _mul(s0, s0), _mul(s1, s1)
    columns = (
        -_mul(s11, s1),
        _mul(_mul(s2, sm1), s1) + _mul(_mul(s2, s2), s0) + _mul(sm2, s11),
        -(_mul(_mul(sm1, sm1), s1) + _mul(_mul(sm1, s2), s0) + _mul(s3, s00)),
        _mul(s00, s0),
    )
    omega = math.sin(h / 2) * math.sin(h) * math.sin(3 * h / 2)
    return np.stack(columns, axis=-1) / omega


def _branch_values(i: int, branch: int, x: float, mesh: UniformMesh) -> BasisValue:
    """Evaluate one branch formula of TB_i, regardless of where x lies."""
    if branch not in (0, 1, 2, 3):
        raise ValueError(f"branch index must be 0..3, got {branch}")
    # branch j of TB_i is the formula of TB_{c-(3-j)} on cell c = i + j
    value, d1, d2 = _cell_basis(x - mesh.knot(i + branch), mesh)[:, 3 - branch]
    return BasisValue(float(value), float(d1), float(d2))


def eval_basis_all(i: int, x: float, mesh: UniformMesh) -> BasisValue:
    """Value, d1 and d2 of TB_i at x; zero triple outside the support."""
    _require_nondegenerate(mesh)
    t0 = mesh.knot(i)
    if x < t0 or x > mesh.knot(i + 4):
        return BasisValue(0.0, 0.0, 0.0)
    # a point sitting exactly on an interior knot belongs to the left branch
    branch = sum(x > mesh.knot(i + j) for j in (1, 2, 3))
    return _branch_values(i, branch, x, mesh)


def eval_basis(i: int, x: float, mesh: UniformMesh, derivative_order: int = 0) -> float:
    """Evaluate TB_i or one of its first two derivatives at x."""
    if derivative_order not in (0, 1, 2):
        raise ValueError(f"derivative_order must be 0, 1 or 2, got {derivative_order}")
    triple = eval_basis_all(i, x, mesh)
    return (triple.value, triple.d1, triple.d2)[derivative_order]


def evaluate_solution(coeffs, x, mesh: UniformMesh, derivative_order: int = 0):
    """Evaluate a spline expansion sum_i C_i TB_i at points of [a, b].

    ``coeffs`` is the coefficient vector C_{-3} .. C_{N-1} (length N + 3),
    or any object carrying it as a ``values`` attribute.  ``x`` is a float
    or an array; the result has x's shape, a numpy float for a float x.
    A point x takes the four basis functions of the cell c with
    x_c <= x < x_{c+1}, so on a knot its offset u is 0 and it matches
    :func:`knot_values` to rounding.
    """
    values = np.asarray(getattr(coeffs, "values", coeffs), dtype=float)
    n = mesh.n_cells
    if values.shape != (n + 3,):
        raise ValueError(
            f"expected {n + 3} coefficients for {n} cells, got shape {values.shape}"
        )
    if derivative_order not in (0, 1, 2):
        raise ValueError(f"derivative_order must be 0, 1 or 2, got {derivative_order}")
    x = np.asarray(x, dtype=float)
    outside = ~((x >= mesh.a) & (x <= mesh.b))  # NaN included
    if outside.any():
        point = float(x.flat[np.argmax(outside)])
        raise ValueError(f"point {point} lies outside the domain [{mesh.a}, {mesh.b}]")
    knots = mesh.knots()
    cell = np.searchsorted(knots, x, side="right") - 1  # c = N at x = b
    basis = _cell_basis(x - knots[cell], mesh)[derivative_order]
    # C_N = 0 stands for TB_N, the fourth function of cell N, zero at b
    padded = np.append(values, 0.0)
    return np.sum(basis * padded[cell[..., None] + np.arange(4)], axis=-1)


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
