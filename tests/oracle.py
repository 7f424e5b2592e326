"""Reference implementations the tests check the library against.

None of this is used by the library itself: a dense matrix view of a
corner-tridiagonal system, a dense Gaussian-elimination solver, and the
plain pivot sweep that marches every row, without the fixed-point exit of
:func:`telespline.linalg._pivot_sweep`.
"""

import numpy as np

from telespline.linalg import _PIVOT_FLOOR, CornerTridiagonalSystem, SingularSystemError


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
