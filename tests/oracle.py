"""Reference implementations the tests check the library against.

None of this is used by the library itself: a dense matrix view of a
corner-tridiagonal system, a dense Gaussian-elimination solver, the plain
pivot sweep that marches every row, without the fixed-point exit of
:func:`telespline.linalg._pivot_sweep`, also as a drop-in for it on the
blocks of :meth:`~telespline.linalg.CornerTridiagonalFactor.from_stencil`,
whose run it writes out, and the factor's pivots and multipliers written
out in full from it, the factor solve that forms every
doubling level in full on each call, which the factor's prebuilt plan must
match bit for bit, the scalar spline evaluator, the tests' one way to
evaluate a single basis function, which picks each branch on absolute knots
x_i = a + i*h that it forms itself and which the cell kernel of
:mod:`telespline.basis` must match to rounding, and the per-cell output writer that the CLI's frame templates must match
byte for byte, the amplification quadratic's A, B and C at any mode angle,
formed from :func:`telespline.basis.scheme_stencil` in the library's
operation order, the scalar root solver of that quadratic, the
element-wise numpy kernel that mirrors it, the stability sweep that runs
that kernel on every (theta, phi) pair of a phi grid: with the two samples
phi = 0 and phi = pi it must equal the two-end sweep of
:mod:`telespline.stability` bit for bit, and a finer grid, which holds both
ends, can only read a larger maximum, the vectorised two-end sweep that the
library's scalar per-theta loop must equal bit for bit, and the reference stepper
whose right-hand side evaluates the spline at the knots twice per step,
which the fused stencil of :mod:`telespline.solver` must match to rounding.
"""

import cmath
import math
from itertools import islice
from typing import NamedTuple

import numpy as np

from telespline.basis import (
    UniformMesh,
    _require_nondegenerate,
    basis_weights,
    knot_values,
    scheme_stencil,
)
from telespline.linalg import (
    _NEGLIGIBLE,
    _PIVOT_FLOOR,
    CornerTridiagonalFactor,
    CornerTridiagonalSystem,
    SingularSystemError,
    _doubling_levels,
)
from telespline.metrics import error_norms
from telespline.problem import sample
from telespline.solver import CoefficientFrame, _collocation_matrix, _fit_initial
from telespline.stability import _DEGENERATE_LEAD, _STABILITY_SLACK, StabilitySweep


def dense(system: CornerTridiagonalSystem) -> np.ndarray:
    """The full n-by-n matrix of ``system``."""
    n = system.n
    full = np.zeros((n, n))
    full[np.arange(n), np.arange(n)] = system.diag
    full[np.arange(1, n), np.arange(n - 1)] = system.sub
    full[np.arange(n - 1), np.arange(1, n)] = system.sup
    full[0, 2] += system.corner_top
    full[n - 1, n - 3] += system.corner_bottom
    return full


def dense_solve_oracle(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Gaussian elimination with partial pivoting on a dense matrix.

    ``rhs`` is one right-hand side, or one per column of a 2-D array.  Rows
    that already hold a zero below the pivot are skipped, which changes no
    result and keeps banded matrices cheap.  Deliberately independent of
    :func:`telespline.linalg.solve` so the two can cross-check each other.
    """
    a = np.array(matrix, dtype=float, copy=True)
    b = np.array(rhs, dtype=float, copy=True)
    n = b.shape[0]
    if a.shape != (n, n):
        raise ValueError(f"matrix shape {a.shape} does not match rhs size {n}")
    for col in range(n):
        pivot_row = col + int(np.argmax(np.abs(a[col:, col])))
        if abs(a[pivot_row, col]) < _PIVOT_FLOOR:
            raise SingularSystemError(col, a[pivot_row, col])
        if pivot_row != col:
            a[[col, pivot_row]] = a[[pivot_row, col]]
            b[[col, pivot_row]] = b[[pivot_row, col]]
        rows = col + 1 + np.flatnonzero(a[col + 1 :, col])
        factors = a[rows, col] / a[col, col]
        a[rows, col:] -= np.outer(factors, a[col, col:])
        b[rows] -= np.multiply.outer(factors, b[col])
    x = np.empty_like(b)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - a[row, row + 1 :] @ x[row + 1 :]) / a[row, row]
    return x


def plain_pivot_sweep(sub: np.ndarray, diag: np.ndarray, sup: np.ndarray) -> np.ndarray:
    """Pivots of a tridiagonal block, every row marched in turn.

    Same arithmetic, floor checks and error rows (block row plus one) as
    the library's sweep, which must match it bit for bit.
    """
    pivots = np.empty(diag.size)
    pivot = float(diag[0])
    if abs(pivot) < _PIVOT_FLOOR:
        raise SingularSystemError(1, pivot)
    pivots[0] = pivot
    for row in range(1, diag.size):
        pivot = float(diag[row]) - float(sub[row - 1]) * (float(sup[row - 1]) / pivot)
        if -_PIVOT_FLOOR < pivot < _PIVOT_FLOOR:
            raise SingularSystemError(row + 1, pivot)
        pivots[row] = pivot
    return pivots


def plain_cut_sweep(sub: np.ndarray, diag: np.ndarray, sup: np.ndarray, extra: int):
    """:func:`plain_pivot_sweep` in place of the library's sweep, on a block
    in ``from_stencil``'s form, where row 2 stands for 1 + ``extra`` equal
    rows.

    The block is written out in full and every row marched.  The row it
    returns with the pivots is the last one, so the factor takes no
    multiplier as constant and keeps every one of them explicit.
    """
    counts = np.ones(diag.size, dtype=int)
    counts[2:3] += extra
    pivots = plain_pivot_sweep(
        np.repeat(sub, counts[1:]), np.repeat(diag, counts), np.repeat(sup, counts[1:])
    )
    return pivots, pivots.size - 1


def doubling_depth(multipliers: np.ndarray) -> int:
    """How many doubling levels have a coefficient of at least 2**-60, with
    every level formed over the full multiplier array."""
    depth = 0
    for _, coefficients in _doubling_levels(multipliers):
        if max(coefficients.max(), -coefficients.min()) < _NEGLIGIBLE:
            break
        depth += 1
    return depth


def expand(multipliers) -> np.ndarray:
    """The full multiplier array of the factor's run-length form
    (head, rho, length, tail)."""
    head, rho, length, tail = multipliers
    return np.concatenate((head, np.full(length, rho), tail))


def reference_factor(system: CornerTridiagonalSystem) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pivots and the forward and back multipliers of ``system``'s
    factor as full arrays, with every row marched by
    :func:`plain_pivot_sweep`.  The corners are condensed with the
    library's arithmetic, and the boundary rows' pivots are checked first,
    so errors come in the library's row order."""
    n = system.n
    sub, diag, sup = system.sub, system.diag, system.sup
    d0, dn = float(diag[0]), float(diag[n - 1])
    if abs(d0) < _PIVOT_FLOOR:
        raise SingularSystemError(0, d0)
    if abs(dn) < _PIVOT_FLOOR:
        raise SingularSystemError(n - 1, dn)
    fold_top, fold_bottom = sub[0] / d0, sup[n - 2] / dn
    inner_diag = diag[1 : n - 1].copy()
    inner_diag[0] -= fold_top * sup[0]
    inner_diag[-1] -= fold_bottom * sub[n - 2]
    inner_sup = sup[1 : n - 2].copy()
    inner_sup[0] -= fold_top * system.corner_top
    inner_sub = sub[1 : n - 2].copy()
    inner_sub[-1] -= fold_bottom * system.corner_bottom
    pivots = plain_pivot_sweep(inner_sub, inner_diag, inner_sup)
    return pivots, -inner_sub / pivots[1:], -inner_sup / pivots[:-1]


def reference_solve(factor: CornerTridiagonalFactor, rhs) -> tuple[np.ndarray, tuple[int, int]]:
    """The solution for ``rhs`` and the (forward, back) level counts, from
    ``factor``'s pivots and multipliers, with each level's products formed
    in full on every call."""
    rhs = np.asarray(rhs, dtype=float)
    forward, backward = expand(factor._forward), expand(factor._backward)
    levels = (doubling_depth(forward), doubling_depth(backward))
    x = np.empty(factor.n)
    inner = x[1:-1]
    inner[:] = rhs[1:-1]
    inner[0] -= factor._fold_top * rhs[0]
    inner[-1] -= factor._fold_bottom * rhs[-1]
    inner /= factor._pivots
    for shift, coefficients in islice(_doubling_levels(forward), levels[0]):
        inner[shift:] += coefficients * inner[:-shift]
    for shift, coefficients in islice(_doubling_levels(backward), levels[1]):
        inner[:-shift] += coefficients * inner[shift:]
    d0, sup0, corner_top = factor._first_row
    corner_bottom, sub_last, dn = factor._last_row
    x[0] = (rhs[0] - sup0 * x[1] - corner_top * x[2]) / d0
    x[-1] = (rhs[-1] - corner_bottom * x[-3] - sub_last * x[-2]) / dn
    return x, levels


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


def knot(mesh: UniformMesh, i: int) -> float:
    """Knot x_i = a + i*h, with x_n = b exactly; indices outside 0..n are permitted."""
    if i == mesh.n_cells:
        return mesh.b
    return mesh.a + i * mesh.h


class BasisValue(NamedTuple):
    """Value and first two derivatives of one basis function at one point."""

    value: float
    d1: float
    d2: float


def _branch_values(i: int, branch: int, x: float, mesh: UniformMesh) -> BasisValue:
    """Evaluate one branch formula of TB_i, regardless of where x lies."""
    t = [knot(mesh, i + j) for j in range(5)]
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
    t0 = knot(mesh, i)
    t4 = knot(mesh, i + 4)
    if x < t0 or x > t4:
        return BasisValue(0.0, 0.0, 0.0)
    # a point sitting exactly on an interior knot belongs to the left branch
    if x <= knot(mesh, i + 1):
        branch = 0
    elif x <= knot(mesh, i + 2):
        branch = 1
    elif x <= knot(mesh, i + 3):
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


def format_cell(value) -> str:
    """One number cell: ``format(float, ".17g")``."""
    return format(float(value), ".17g")


def write_rows(header, rows, sep: str) -> str:
    """The text of a table: the header and each row of cells, joined one by one."""
    lines = [sep.join(header)]
    lines.extend(sep.join(row) for row in rows)
    return "\n".join(lines) + "\n"


def solve_text(problem, mesh, history, times, positions, sep: str) -> str:
    """What ``solve`` writes, one frame and one knot at a time."""
    weights = basis_weights(mesh)
    knots = mesh.knots()
    x_cells = [format_cell(x) for x in knots.tolist()]
    rows = []
    for t, pos in zip(times, positions):
        values = knot_values(history.frames[pos].values, weights, 0).tolist()
        if problem.exact is None:
            exact_values = [None] * len(values)
        else:
            exact_values = sample(problem.exact, knots, t).tolist()
        for x_cell, u, exact_value in zip(x_cells, values, exact_values):
            if exact_value is None:
                tail = ["", ""]
            else:
                tail = [format_cell(exact_value), format_cell(u - exact_value)]
            rows.append([x_cell, format_cell(t), format_cell(u)] + tail)
    return write_rows(["x", "t", "u", "exact", "error"], rows, sep)


def plot_text(mesh, history, sep: str) -> str:
    """What ``--emit-plot-data`` writes: (x, t, u) for every captured frame."""
    weights = basis_weights(mesh)
    x_cells = [format_cell(x) for x in mesh.knots().tolist()]
    rows = []
    for frame in history.frames:
        values = knot_values(frame.values, weights, 0).tolist()
        rows.extend([x, format_cell(frame.time), format_cell(u)] for x, u in zip(x_cells, values))
    return write_rows(["x", "t", "u"], rows, sep)


def bench_text(problem, mesh, history, times, positions, sep: str) -> str:
    """What ``bench`` writes: the error norms and stepping time per output time."""
    rows = []
    for t, pos in zip(times, positions):
        report = error_norms(history.frames[pos], problem, mesh)
        numbers = (t, report.l2, report.l_inf, report.rms, history.stepping_seconds[pos])
        rows.append([format_cell(v) for v in numbers])
    return write_rows(["t", "L2", "Linf", "RMS", "cpu_seconds"], rows, sep)


def stability_text(thetas, sweep, sep: str) -> str:
    """What ``stability`` writes: one row per theta value."""
    rows = []
    for theta, *numbers, stable in zip(thetas, *sweep):
        verdict = "stable" if stable else "unstable"
        rows.append([format_cell(v) for v in (theta, *numbers)] + [verdict])
    header = ["theta", "max_amplification", "worst_phi", "rh1", "rh2", "rh3", "verdict"]
    return write_rows(header, rows, sep)


def quadratic(alpha, beta, theta, dt, weights, cos):
    """A, B and C of the amplification quadratic at ``cos`` = cos(phi), from
    the scheme's stencil, in the library's operation order.

    ``theta`` and ``cos`` broadcast: a theta column by a cos row gives the
    (theta, phi) grid.  Raises the library's ``ValueError`` when the stencil
    w1..w4 is not finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        w1, w2, w3, w4 = scheme_stencil(alpha, beta, theta, dt, weights)
    if not np.all(np.isfinite([w1, w2, w3, w4])):
        raise ValueError(
            f"dt = {dt} gives non-finite Fourier coefficients w1..w4 "
            f"(alpha = {alpha}, beta = {beta}); use a smaller dt"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        return (
            w2 + 2.0 * w1 * cos,
            w4 + 2.0 * w3 * cos,
            weights.a2 + 2.0 * weights.a1 * cos,
        )


def _max_amplification(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """|delta|_max of A delta^2 - B delta + C = 0, element by element.

    Mirrors the scalar root solver :func:`amplification_roots`: a
    degenerate lead gives inf, a complex pair gives sqrt(C/A), a real pair
    the larger root modulus, and a NaN discriminant gives NaN.  Every entry
    of the broadcast shape is written.
    """
    with np.errstate(all="ignore"):
        abs_a = np.abs(a)
        disc = b * b - 4.0 * a * c
        complex_pair = disc < 0.0
        # complex-conjugate pair: |delta|^2 equals the root product C/A
        amp = np.sqrt(np.maximum(c / a, 0.0))
        # damped stable modes are all complex pairs: skip the real branch then
        if not complex_pair.all():
            # |q| for q = (b + sign(b) sqrt(disc)) / 2: both terms share b's sign,
            # so |q| = (|b| + sqrt(disc)) / 2 exactly; roots q/A and C/q (Vieta)
            q = (np.abs(b) + np.sqrt(disc)) / 2.0
            real = np.where(q != 0.0, np.maximum(q / abs_a, np.abs(c) / q), 0.0)
            amp = np.where(complex_pair, amp, real)
    return np.where(abs_a < _DEGENERATE_LEAD, np.inf, amp)


# the two ends of the mode range, phi = 0 and phi = pi, and their cosines
_END_PHI = np.array([0.0, math.pi])
_END_COS = np.array([1.0, -1.0])


def two_end_sweep(alpha, beta, thetas, dt, mesh) -> StabilitySweep:
    """:func:`telespline.stability.stability_sweep` on numpy arrays: the
    element-wise kernel on a (theta, end) grid of the two ends phi = 0 and
    phi = pi, with the library's validation and messages.

    The library's scalar loop must equal it bit for bit on every column,
    except ``worst_phi`` on rows whose lead A vanishes somewhere on
    [0, pi]: this takes the arccos of the zero of A with ``np.arccos``,
    whose last bit depends on the CPU's vector routines, and the library
    with ``math.acos``.
    """
    column = np.asarray(thetas, dtype=float).reshape(-1, 1)
    weights = basis_weights(mesh)
    if not (alpha >= 0 and beta >= 0):
        raise ValueError(f"alpha and beta must be nonnegative, got {alpha}, {beta}")
    if not (math.isfinite(alpha) and math.isfinite(beta)):
        raise ValueError(f"alpha and beta must be finite, got {alpha}, {beta}")
    outside = column[~((column >= 0.0) & (column <= 1.0))]
    if outside.size:
        raise ValueError(f"theta must lie in [0, 1], got {outside[0]}")
    if not dt >= 0:
        raise ValueError(f"dt must be nonnegative, got {dt}")
    a, b, c = quadratic(alpha, beta, column, dt, weights, _END_COS)
    with np.errstate(all="ignore"):
        w1, w2, _, _ = scheme_stencil(alpha, beta, column[:, 0], dt, weights)
        # A is affine in cos(phi): unless its end values share a strict sign it
        # is zero at cos(phi) = -w2 / (2 w1), where a root is unbounded (A == 0
        # throughout names phi = 0)
        zero = np.nan_to_num(-w2 / (2.0 * w1), nan=1.0)
        a_pi, b_pi, c_pi = a[:, 1], b[:, 1], c[1]
        rh = (a_pi + b_pi + c_pi, a_pi - c_pi, a_pi - b_pi + c_pi)
    amp = _max_amplification(a, b, c)
    worst = amp.argmax(axis=1)  # the first maximum: a tie names phi = 0, a NaN wins
    max_amp = amp[np.arange(len(amp)), worst]
    vanishes = ~((a > 0.0).all(axis=1) | (a < 0.0).all(axis=1))
    max_amp = np.where(vanishes, np.inf, max_amp)
    worst_phi = np.where(vanishes, np.arccos(np.clip(zero, -1.0, 1.0)), _END_PHI[worst])
    stable = (max_amp <= 1.0 + _STABILITY_SLACK).tolist()
    return StabilitySweep(max_amp.tolist(), worst_phi.tolist(), *(r.tolist() for r in rh), stable)


# grid points per block of theta rows: about 64 KiB per temporary
_BLOCK_POINTS = 8192


def full_grid_sweep(alpha, beta, thetas, dt, mesh, phi_samples=721) -> StabilitySweep:
    """:func:`telespline.stability.stability_sweep` evaluating every phi of every theta.

    The library's kernel runs on blocks of consecutive theta rows by all
    ``phi_samples`` columns; each row reports its first maximum.
    """
    if phi_samples < 2:
        raise ValueError(f"phi_samples must be at least 2, got {phi_samples}")
    column = np.asarray(thetas, dtype=float).reshape(-1, 1)
    weights = basis_weights(mesh)
    phis = np.linspace(0.0, math.pi, phi_samples)
    cos = np.cos(phis)

    rows = max(1, _BLOCK_POINTS // phi_samples)
    worst = np.empty(len(column), dtype=np.intp)
    max_amp = np.empty(len(column))
    for lo in range(0, len(column), rows):
        block = slice(lo, lo + rows)
        amp = _max_amplification(*quadratic(alpha, beta, column[block], dt, weights, cos))
        worst[block] = amp.argmax(axis=1)
        max_amp[block] = amp[np.arange(len(amp)), worst[block]]

    a, b, c = quadratic(alpha, beta, column[:, 0], dt, weights, -1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        rh = (a + b + c, a - c, a - b + c)
    stable = (max_amp <= 1.0 + _STABILITY_SLACK).tolist()
    return StabilitySweep(
        max_amp.tolist(), phis[worst].tolist(), *(r.tolist() for r in rh), stable
    )


def amplification_roots(a: float, b: float, c: float) -> tuple[complex, complex]:
    """Both roots of A delta^2 - B delta + C = 0.

    When the quadratic degenerates (A ~ 0) the single linear root is paired
    with an infinite-magnitude marker.
    """
    if abs(a) < _DEGENERATE_LEAD:
        marker = complex(math.inf, 0.0)
        if abs(b) < _DEGENERATE_LEAD:
            return marker, marker
        return complex(c / b, 0.0), marker
    disc = b * b - 4.0 * a * c
    if disc >= 0.0:
        sq = math.sqrt(disc)
        # cancellation-free split: bigger root via b + sign(b) sqrt, mate via Vieta
        q = (b + math.copysign(sq, b)) / 2.0
        if q == 0.0:
            return complex(0.0), complex(0.0)
        return complex(q / a, 0.0), complex(c / q, 0.0)
    sq = cmath.sqrt(complex(disc, 0.0))
    r1 = (b + sq) / (2.0 * a)
    return r1, r1.conjugate()


def reference_step_rhs(problem, params, w, knots, current, u_prev, t_j, first_step):
    """A step's right-hand side from two knot evaluations, U^j and (U_xx)^j,
    and U^j itself, which the next step takes as its ``u_prev``.

    The library's fused stencil over the coefficients must stay within
    rounding of this.
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


def reference_run(problem, mesh, params, steps: int) -> list[np.ndarray]:
    """The coefficients of levels 0 .. ``steps``, marched with the library's
    fit and step matrices and :func:`reference_step_rhs`."""
    w = basis_weights(mesh)
    knots = mesh.knots()
    frames = [_fit_initial(problem, mesh, w, knots)]
    u_prev = None
    for j in range(steps):
        if j < 2:
            w1, w2, _, _ = scheme_stencil(
                problem.alpha, problem.beta, params.theta, params.dt, w, j == 0
            )
            factor = CornerTridiagonalFactor(
                _collocation_matrix(w, mesh.n_cells, w1, w2, problem.boundary.kind)
            )
        rhs, u_prev = reference_step_rhs(
            problem, params, w, knots, frames[-1], u_prev, j * params.dt, j == 0
        )
        frames.append(CoefficientFrame(values=factor.solve(rhs), time=(j + 1) * params.dt))
    return [frame.values for frame in frames]
