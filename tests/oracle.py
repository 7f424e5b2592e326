"""Reference implementations the tests check the library against.

None of this is used by the library itself: a dense matrix view of a
corner-tridiagonal system, a dense Gaussian-elimination solver, the plain
pivot sweep that marches every row, without the fixed-point exit of
:func:`telespline.linalg._pivot_sweep`, the factor solve that forms every
doubling level in full on each call, which the factor's prebuilt plan must
match bit for bit, the scalar spline evaluator that picks each basis
function's branch on absolute knots, which the cell kernel of
:mod:`telespline.basis` must match to rounding, and the per-cell output
writer that the CLI's frame templates must match byte for byte, and the
stability sweep that evaluates every (theta, phi) pair, which the band-aware
sweep of :mod:`telespline.stability` must match bit for bit.
"""

import math
from dataclasses import replace
from itertools import islice

import numpy as np

from telespline.basis import (
    BasisValue,
    UniformMesh,
    _require_nondegenerate,
    basis_weights,
    knot_values,
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
from telespline.stability import (
    _BLOCK_POINTS,
    _STABILITY_SLACK,
    StabilityReport,
    _max_amplification_grid,
    fourier_coefficients,
    routh_hurwitz_conditions,
)


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


def doubling_depth(multipliers: np.ndarray) -> int:
    """How many doubling levels have a coefficient of at least 2**-60, with
    every level formed over the full multiplier array."""
    depth = 0
    for _, coefficients in _doubling_levels(multipliers):
        if max(coefficients.max(), -coefficients.min()) < _NEGLIGIBLE:
            break
        depth += 1
    return depth


def reference_solve(factor: CornerTridiagonalFactor, rhs) -> tuple[np.ndarray, tuple[int, int]]:
    """The solution for ``rhs`` and the (forward, back) level counts, from
    ``factor``'s pivots and multipliers, with each level's products formed
    in full on every call."""
    rhs = np.asarray(rhs, dtype=float)
    levels = (doubling_depth(factor._forward), doubling_depth(factor._backward))
    x = np.empty(factor.n)
    inner = x[1:-1]
    inner[:] = rhs[1:-1]
    inner[0] -= factor._fold_top * rhs[0]
    inner[-1] -= factor._fold_bottom * rhs[-1]
    inner /= factor._pivots
    for shift, coefficients in islice(_doubling_levels(factor._forward), levels[0]):
        inner[shift:] += coefficients * inner[:-shift]
    for shift, coefficients in islice(_doubling_levels(factor._backward), levels[1]):
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


def stability_text(thetas, reports, sep: str) -> str:
    """What ``stability`` writes: one row per theta value."""
    rows = []
    for theta, report in zip(thetas, reports):
        numbers = (theta, report.max_amplification, report.worst_phi, *report.rh_conditions)
        verdict = "stable" if report.stable else "unstable"
        rows.append([format_cell(v) for v in numbers] + [verdict])
    header = ["theta", "max_amplification", "worst_phi", "rh1", "rh2", "rh3", "verdict"]
    return write_rows(header, rows, sep)


def full_grid_sweep(alpha, beta, thetas, dt, mesh, phi_samples=721) -> list[StabilityReport]:
    """:func:`telespline.stability.stability_sweep` evaluating every phi of every theta.

    The grid kernel runs on blocks of consecutive theta rows by all
    ``phi_samples`` columns; each row reports its first maximum.
    """
    if phi_samples < 2:
        raise ValueError(f"phi_samples must be at least 2, got {phi_samples}")
    column = np.asarray(thetas, dtype=float).reshape(-1, 1)
    fc = fourier_coefficients(alpha, beta, column, dt, basis_weights(mesh))
    phis = np.linspace(0.0, math.pi, phi_samples)
    cos = np.cos(phis)

    rows = max(1, _BLOCK_POINTS // phi_samples)
    worst = np.empty(len(column), dtype=np.intp)
    max_amp = np.empty(len(column))
    for lo in range(0, len(column), rows):
        block = slice(lo, lo + rows)
        amp = _max_amplification_grid(
            replace(fc, w1=fc.w1[block], w2=fc.w2[block], w3=fc.w3[block], w4=fc.w4[block]),
            cos,
        )
        worst[block] = amp.argmax(axis=1)
        max_amp[block] = amp[np.arange(len(amp)), worst[block]]

    with np.errstate(over="ignore", invalid="ignore"):
        rh1, rh2, rh3 = (r[:, 0].tolist() for r in routh_hurwitz_conditions(fc, math.pi))
    stable = (max_amp <= 1.0 + _STABILITY_SLACK).tolist()
    return [
        StabilityReport(max_amplification=m, worst_phi=phi, rh_conditions=rh, stable=s)
        for m, phi, rh, s in zip(max_amp.tolist(), phis[worst].tolist(), zip(rh1, rh2, rh3), stable)
    ]
