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
array of offsets; :func:`evaluate_solution`, the only off-knot evaluator, uses it.
numpy is loaded on the first call to an array evaluator (``knots``,
:func:`evaluate_solution`, :func:`knot_values`), so the stability analysis,
which reads only the scalar weights and the stencil, runs without it.

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

used throughout the collocation solver.  :func:`scheme_stencils` turns them
into the time scheme's weights on those three coefficients; it is the one
definition of those weights, which the solver reads for one theta through
:func:`scheme_stencil` and the stability analysis for a sweep of thetas.
Next to it are the one copy of each input rule, :func:`check_coefficients`
for alpha and beta and :func:`check_thetas`, which the problem, the scheme
parameters and the stability sweep call.
"""

from __future__ import annotations

import math
import operator
from typing import TYPE_CHECKING, Iterator, NamedTuple

from ._record import FrozenRecord

if TYPE_CHECKING:
    import numpy as np


class DegenerateMeshError(ValueError):
    """Raised when the cell width makes the basis normalisation collapse."""


class UniformMesh(FrozenRecord):
    """Uniform spatial mesh with n_cells cells on [a, b], and its cell width h.

    The basis functions overlapping [a, b] also reach three ghost knots
    x_i = a + i*h beyond each end.
    """

    __slots__ = _fields = ("a", "b", "n_cells", "h")
    a: float
    b: float
    n_cells: int
    h: float

    def __init__(self, a: float, b: float, n_cells: int) -> None:
        if not b > a:
            raise ValueError(f"mesh needs b > a, got [{a}, {b}]")
        try:
            # numpy integers pass; 10.5 or "10" would change h or break knots()
            n_cells = operator.index(n_cells)
        except TypeError:
            raise ValueError(f"mesh needs an integer cell count, got {n_cells!r}") from None
        if n_cells < 3:
            raise ValueError(f"mesh needs at least 3 cells, got {n_cells}")
        h = (b - a) / n_cells
        if not h < math.pi:
            raise ValueError(f"cell width {h} must be below pi")
        self._assign(a, b, n_cells, h)

    def knots(self) -> np.ndarray:
        """The n_cells + 1 knots x_i = a + i*h of [a, b], with x_n = b exactly."""
        import numpy as np

        knots = self.a + self.h * np.arange(self.n_cells + 1)
        knots[-1] = self.b
        return knots


class BasisWeights(NamedTuple):
    """Knot-point weights a1..a6 of the basis value and its derivatives."""

    a1: float
    a2: float
    a3: float
    a4: float
    a5: float
    a6: float


def _require_nondegenerate(mesh: UniformMesh) -> tuple[float, float, float, float, float]:
    """sin(h/2), sin h, sin(3h/2), 1 + 2 cos h and 2 cos(h/2) + cos(3h/2),
    the factors the weights divide by, once none lies within 1e-14 of 0."""
    h = mesh.h
    factors = (
        math.sin(h / 2),
        math.sin(h),
        math.sin(3 * h / 2),
        1 + 2 * math.cos(h),
        2 * math.cos(h / 2) + math.cos(3 * h / 2),
    )
    for value in factors:
        if abs(value) < 1e-14:
            raise DegenerateMeshError(
                f"cell width {h} makes the spline normalisation degenerate"
            )
    return factors


def basis_weights(mesh: UniformMesh) -> BasisWeights:
    """Closed-form knot weights for the given cell width."""
    # sin(h/2), sin h, sin(3h/2), 1 + 2 cos h and 2 cos(h/2) + cos(3h/2)
    s12, s1, s32, c1, c32 = _require_nondegenerate(mesh)
    h = mesh.h
    a1 = s12 ** 2 / (s1 * s32)
    a2 = 2 / c1
    a3 = -3 / (4 * s32)
    a4 = 3 / (4 * s32)
    a5 = 3 * (1 + 3 * math.cos(h)) / (16 * s12 ** 2 * c32)
    a6 = -3 * math.cos(h / 2) ** 2 / (2 * s12 ** 2 * c1)
    return BasisWeights(a1, a2, a3, a4, a5, a6)


def check_coefficients(alpha: float, beta: float) -> None:
    """Refuse a negative or NaN alpha or beta, then an infinite one."""
    if not (alpha >= 0 and beta >= 0):  # NaN fails too
        raise ValueError(f"alpha and beta must be nonnegative, got {alpha}, {beta}")
    if not (math.isfinite(alpha) and math.isfinite(beta)):
        raise ValueError(f"alpha and beta must be finite, got {alpha}, {beta}")


def check_thetas(thetas) -> None:
    """Refuse the first theta outside [0, 1], NaN included."""
    for theta in thetas:
        if not 0.0 <= theta <= 1.0:
            raise ValueError(f"theta must lie in [0, 1], got {theta}")


def scheme_stencils(
    alpha: float, beta: float, thetas, k: float, weights: BasisWeights, first_step: bool = False
) -> Iterator[tuple]:
    """The scheme's weights (w1, w2, w3, w4) on the coefficients around a
    knot, for each theta of ``thetas`` in order.

    Collocating the three-level theta scheme at knot x_j (see
    :mod:`telespline.solver`) reads, with S = C_{j-3} + C_{j-1} the two side
    coefficients and M = C_{j-2} the middle one,

        w1 S^{j+1} + w2 M^{j+1} = w3 S^j + w4 M^j - U^{j-1}(x_j) + k^2 q

    where, with lambda = (1 + 2 alpha k) + k^2 theta beta^2 and
    mu = (2 + 2 alpha k) - (1 - theta) k^2 beta^2,

        w1 = lambda a1 - k^2 theta a5       w3 = mu a1 + (1 - theta) k^2 a5
        w2 = lambda a2 - k^2 theta a6       w4 = mu a2 + (1 - theta) k^2 a6

    ``first_step`` then adds the ghost level's 1 to lambda.  The parts free
    of theta are formed once.  This is the one place the weights are
    written: the step matrix and the step's right-hand side read them
    through :func:`scheme_stencil`, and the von Neumann analysis
    (:func:`telespline.stability.stability_sweep`) iterates this generator
    over its thetas.  A theta is a float or an array, and its weights take
    its shape.  For floats an overflow gives a non-finite weight silently,
    for the caller to check; numpy warns of it on arrays.
    """
    beta2, kk = beta * beta, k * k
    lam0, mu0 = 1.0 + 2.0 * alpha * k, 2.0 + 2.0 * alpha * k
    a1, a2, _, _, a5, a6 = weights
    for theta in thetas:
        t = kk * theta
        s = (1.0 - theta) * k * k
        lam = lam0 + t * beta2
        if first_step:
            lam = lam + 1.0
        mu = mu0 - s * beta2
        yield lam * a1 - t * a5, lam * a2 - t * a6, mu * a1 + s * a5, mu * a2 + s * a6


def scheme_stencil(
    alpha: float, beta: float, theta, k: float, weights: BasisWeights, first_step: bool = False
) -> tuple:
    """The weights (w1, w2, w3, w4) of :func:`scheme_stencils` for one
    theta, a float or an array."""
    return next(scheme_stencils(alpha, beta, (theta,), k, weights, first_step))


def _mul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Product rule on (value, d1, d2) triples stacked along the first axis."""
    import numpy as np

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
    import numpy as np

    # omega = sin(h/2) sin(h) sin(3h/2); 1 * sin(h/2) is exact
    omega = math.prod(_require_nondegenerate(mesh)[:3])
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
    return np.stack(columns, axis=-1) / omega


def evaluate_solution(coeffs, x, mesh: UniformMesh, derivative_order: int = 0):
    """Evaluate a spline expansion sum_i C_i TB_i at points of [a, b].

    ``coeffs`` is the coefficient vector C_{-3} .. C_{N-1} (length N + 3),
    or any object carrying it as a ``values`` attribute.  ``x`` is a float
    or an array; the result has x's shape, a numpy float for a float x.
    A point x takes the four basis functions of the cell c with
    x_c <= x < x_{c+1}, so on a knot its offset u is 0 and it matches
    :func:`knot_values` to rounding.
    """
    import numpy as np

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
    basis = _cell_basis(x - knots[cell], mesh)[int(derivative_order)]
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
    import numpy as np

    values = np.asarray(getattr(coeffs, "values", coeffs), dtype=float)
    left, middle, right = values[..., :-2], values[..., 1:-1], values[..., 2:]
    if derivative_order == 0:
        return weights.a1 * left + weights.a2 * middle + weights.a1 * right
    if derivative_order == 1:
        return weights.a3 * left + weights.a4 * right
    if derivative_order == 2:
        return weights.a5 * left + weights.a6 * middle + weights.a5 * right
    raise ValueError(f"derivative_order must be 0, 1 or 2, got {derivative_order}")
