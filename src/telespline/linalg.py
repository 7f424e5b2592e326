"""Direct solvers for the almost-tridiagonal collocation systems.

Every linear system in this package is tridiagonal except for one extra
entry in the first row (column 2) and one in the last row (column n-3),
introduced by the boundary rows.  Each boundary row is used once to
eliminate the end unknown from its neighbouring interior row, the interior
block is factored by the standard pivot sweep, and the end unknowns are
recovered from the untouched boundary rows.  (Subtracting a multiple of an
interior row from the boundary row instead would cancel the boundary row's
diagonal exactly whenever the two rows share the symmetric (c, m, c)
stencil, as they do for Dirichlet steps.)

A time-stepping run solves with one matrix many times, so the work is split.
:class:`CornerTridiagonalFactor` condenses the corners, runs the pivot sweep
and forms the substitution multipliers once; its ``solve`` then handles one
right-hand side at a time.  The forward and back substitutions are
first-order linear recurrences, which ``solve`` evaluates by recursive
doubling (Stone 1973): level k adds in the entry 2**k places away, weighted
by the product of the 2**k multipliers between, so about log2(n) vectorised
numpy passes replace a Python loop over n rows.  Levels whose products are
all below 2**-60 change no result at double precision and are left out.

The factor builds these products once, as a plan.  Past the pivots' fixed
point (below) the multipliers are one constant rho, so each level's products
there are one scalar, rho**(2**k) by the same squarings, between a short
head and tail array.  Each level of the plan holds these and views into
work arrays the factor owns, so a solve is four numpy calls per level and
allocates only its result; the work arrays make ``solve`` not reentrant.
LAPACK's ``dgttrs`` would do the same job, but importing ``scipy.linalg``
adds about 0.4 s and 28 MiB to every process, more than a typical command
spends in total, so numpy is the only dependency.

The pivot sweep is sequential and runs over Python floats, but the
matrices of a run have a constant interior stencil: after condensation
every row from the third to the last but one repeats the same coefficients,
so its pivots follow one map p <- d - l * (u / p).  The LU factors of such
a constant-diagonal block converge (Malcolm & Palmer, "A fast method for
solving a class of tridiagonal linear systems", Commun. ACM 17(1), 1974):
once a pivot equals the one before it bit for bit, the map gives every
later row of the run the same bits.  The sweep therefore stops there,
fills the rest of the run with that pivot and marches only the rows after
it, which gives the pivots of the full sweep exactly.  At n = 10000 and
dt = 1e-3 the fixed point comes within some tens of rows; a stiff step
such as theta = 1, dt = 0.1 takes about 3200.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Iterator

import numpy as np

_PIVOT_FLOOR = 1e-13
# doubling levels whose coefficients are all below this change no result
_NEGLIGIBLE = 2.0**-60
# pivot-sweep rows handled per batch of Python floats
_PIVOT_CHUNK = 1024


class SingularSystemError(RuntimeError):
    """Raised when elimination meets a pivot too close to zero."""

    def __init__(self, row: int, pivot: float, reason: str = ""):
        self.row = row
        self.pivot = pivot
        message = f"elimination broke down at row {row} (pivot {pivot!r})"
        super().__init__(f"{message}: {reason}" if reason else message)


@dataclass
class CornerTridiagonalSystem:
    """Tridiagonal system with corner entries at (0, 2) and (n-1, n-3).

    sub[i] sits at (i+1, i), diag[i] at (i, i), sup[i] at (i, i+1).
    """

    sub: np.ndarray
    diag: np.ndarray
    sup: np.ndarray
    corner_top: float
    corner_bottom: float
    rhs: np.ndarray

    def __post_init__(self) -> None:
        self.sub = np.asarray(self.sub, dtype=float)
        self.diag = np.asarray(self.diag, dtype=float)
        self.sup = np.asarray(self.sup, dtype=float)
        self.rhs = np.asarray(self.rhs, dtype=float)
        n = self.diag.size
        if n < 4:
            raise ValueError(f"system needs at least 4 rows, got {n}")
        if self.sub.size != n - 1 or self.sup.size != n - 1 or self.rhs.size != n:
            raise ValueError(
                "inconsistent band sizes: "
                f"diag {n}, sub {self.sub.size}, sup {self.sup.size}, rhs {self.rhs.size}"
            )
        for name, data in (
            ("sub", self.sub),
            ("diag", self.diag),
            ("sup", self.sup),
            ("rhs", self.rhs),
            ("corners", np.array([self.corner_top, self.corner_bottom])),
        ):
            if not np.isfinite(data).all():
                raise ValueError(f"non-finite entries in {name}")

    @property
    def n(self) -> int:
        return self.diag.size


class CornerTridiagonalFactor:
    """The matrix of a corner-tridiagonal system, factored for repeated solves.

    Built once from a :class:`CornerTridiagonalSystem` (its right-hand side
    is ignored); :meth:`solve` then takes any number of right-hand sides.
    Raises :class:`SingularSystemError` at the first pivot below the floor,
    in row order: row 0, row n-1, then the interior rows 1 .. n-2.
    ``levels`` holds the number of doubling levels of the forward and of the
    back substitution.
    """

    def __init__(self, system: CornerTridiagonalSystem):
        n = system.n
        sub, diag, sup = system.sub, system.diag, system.sup
        self.n = n

        # row 0 (d0, sup[0], corner_top) eliminates the column-0 entry of row 1
        d0 = float(diag[0])
        if abs(d0) < _PIVOT_FLOOR:
            raise SingularSystemError(0, d0)
        self._first_row = (d0, float(sup[0]), system.corner_top)
        self._fold_top = sub[0] / d0
        # row n-1 (corner_bottom, sub[n-2], dn) eliminates column n-1 of row n-2
        dn = float(diag[n - 1])
        if abs(dn) < _PIVOT_FLOOR:
            raise SingularSystemError(n - 1, dn)
        self._last_row = (system.corner_bottom, float(sub[n - 2]), dn)
        self._fold_bottom = sup[n - 2] / dn

        # the condensed interior block, rows/unknowns 1 .. n-2
        inner_diag = diag[1 : n - 1].copy()
        inner_diag[0] -= self._fold_top * sup[0]
        inner_diag[-1] -= self._fold_bottom * sub[n - 2]
        inner_sup = sup[1 : n - 2].copy()
        inner_sup[0] -= self._fold_top * system.corner_top
        inner_sub = sub[1 : n - 2].copy()
        inner_sub[-1] -= self._fold_bottom * system.corner_bottom
        self._pivots = _pivot_sweep(inner_sub, inner_diag, inner_sup)

        # forward: y_i = rhs_i / p_i - (sub_i / p_i) y_{i-1}
        # back:    x_i = y_i - (sup_i / p_i) x_{i+1}
        self._forward = -inner_sub / self._pivots[1:]
        self._backward = -inner_sup / self._pivots[:-1]
        # a solve works in two arrays the block is done with: fresh ones would
        # fault in new pages at every factorisation.  The levels run one after
        # another, so they share one product buffer.
        inner = self._inner = inner_diag
        products = inner_sub
        self._plan = []
        self.levels = ()
        for multipliers, forward in ((self._forward, True), (self._backward, False)):
            levels = _doubling_coefficients(multipliers)
            self.levels += (len(levels),)
            for k, (head, rho, tail) in enumerate(levels):
                shift = 2**k
                width = inner.size - shift
                low, high = inner[:width], inner[shift:]
                source, target = (low, high) if forward else (high, low)
                product = products[:width]
                h, t = head.size, width - tail.size
                self._plan.append((
                    source, rho, product, head, source[:h], product[:h],
                    tail, source[t:], product[t:], target,
                ))

    def solve(self, rhs) -> np.ndarray:
        """The solution for one right-hand side, as a new array; ``rhs`` is
        left untouched."""
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape != (self.n,):
            raise ValueError(f"rhs needs shape ({self.n},), got {rhs.shape}")
        if not np.isfinite(rhs).all():
            raise ValueError("non-finite entries in rhs")
        inner = self._inner
        inner[:] = rhs[1:-1]
        inner[0] -= self._fold_top * rhs[0]
        inner[-1] -= self._fold_bottom * rhs[-1]
        inner /= self._pivots
        multiply, add = np.multiply, np.add
        for (
            source, rho, product, head, source_head, product_head,
            tail, source_tail, product_tail, target,
        ) in self._plan:
            multiply(source, rho, out=product)
            multiply(head, source_head, out=product_head)
            multiply(tail, source_tail, out=product_tail)
            add(target, product, out=target)
        x = np.empty(self.n)
        x[1:-1] = inner
        d0, sup0, corner_top = self._first_row
        corner_bottom, sub_last, dn = self._last_row
        x[0] = (rhs[0] - sup0 * x[1] - corner_top * x[2]) / d0
        x[-1] = (rhs[-1] - corner_bottom * x[-3] - sub_last * x[-2]) / dn
        return x


def _pivot_sweep(sub: np.ndarray, diag: np.ndarray, sup: np.ndarray) -> np.ndarray:
    """Pivots of the elimination of a tridiagonal block.

    Row r >= 1 takes its pivot from (sub[r-1], sup[r-1], diag[r]) and the
    pivot of row r-1.  Rows 2 .. run_end-1, the longest run that shares
    row 2's coefficients, repeat one map; the sweep stops there once a
    pivot equals its predecessor bit for bit, gives the rest of the run
    that value and carries on after the run.  Global row numbers in errors
    are the block's row numbers plus one.  The sweep walks Python floats
    one chunk at a time, taken from the arrays outside the run and from the
    run's three scalars inside it, so its temporary lists stay small
    whatever the size of the block.
    """
    floor = _PIVOT_FLOOR
    size = diag.size
    pivots = np.empty(size)
    pivot = float(diag[0])
    if abs(pivot) < floor:
        raise SingularSystemError(1, pivot)
    pivots[0] = pivot
    run_end, run = size, None
    if size > 2:
        run = (float(sup[1]), float(sub[1]), float(diag[2]))
        breaks = np.flatnonzero((sup[1:] != run[0]) | (sub[1:] != run[1]) | (diag[2:] != run[2]))
        if breaks.size:
            run_end = 2 + int(breaks[0])
    row = 1
    while row < size:
        in_run = 2 <= row < run_end
        stop = min(row + _PIVOT_CHUNK, 2 if row < 2 else run_end if in_run else size)
        if in_run:
            coefficients = repeat(run, stop - row)
        else:
            coefficients = zip(
                sup[row - 1 : stop - 1].tolist(),
                sub[row - 1 : stop - 1].tolist(),
                diag[row:stop].tolist(),
            )
        swept = []
        keep = swept.append
        for up, low, middle in coefficients:
            new = middle - low * (up / pivot)
            if -floor < new < floor:
                raise SingularSystemError(row + len(swept) + 1, new)
            keep(new)
            if new == pivot and in_run:
                # fixed point: every later row of the run repeats this pivot
                stop = run_end
                break
            pivot = new
        pivots[row : row + len(swept)] = swept
        pivots[row + len(swept) : stop] = pivot
        row = stop
    return pivots


def _doubling_levels(multipliers: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """Recursive-doubling coefficients of a first-order linear recurrence.

    ``multipliers[i]`` carries one entry of the recurrence into its
    neighbour (i into i+1 forward, i+1 into i backward).  Level k pairs the
    shift s = 2**k with the products of s consecutive multipliers; applying
    the levels in order resolves the whole recurrence.  Each level is made
    from the one before only when the caller asks for it.
    """
    coefficients = multipliers
    shift = 1
    while coefficients.size:
        yield shift, coefficients
        coefficients = coefficients[shift:] * coefficients[:-shift]
        shift *= 2


def _constant_run(multipliers: np.ndarray) -> tuple[int, int]:
    """(start, stop) of the longest run of bit-identical multipliers."""
    bits = multipliers.view(np.int64)
    edges = np.flatnonzero(bits[1:] != bits[:-1]) + 1
    edges = np.concatenate(([0], edges, [multipliers.size]))
    longest = int(np.argmax(np.diff(edges)))
    return int(edges[longest]), int(edges[longest + 1])


def _doubling_coefficients(
    multipliers: np.ndarray,
) -> list[tuple[np.ndarray, float, np.ndarray]]:
    """The (head, rho, tail) coefficients of each doubling level that has a
    coefficient of at least 2**-60; a level too deep to have a constant
    middle is all head, with a zero rho whose products the head overwrites.

    The levels are formed on a copy whose constant run is cut to 2**8
    entries, which gives the same bits for every level whose shift fits in
    the kept run.  A deeper level would mix head and tail, so that test
    comes before the negligible test, and the levels are formed again with
    twice the run kept.
    """
    start, stop = _constant_run(multipliers)
    length = stop - start
    keep = 2**8
    while True:
        kept = min(keep, length)
        cut = multipliers
        if kept < length:
            cut = np.concatenate((multipliers[: start + kept], multipliers[stop:]))
        levels = []
        for shift, coefficients in _doubling_levels(cut):
            if shift > kept < length:
                break
            if max(coefficients.max(), -coefficients.min()) < _NEGLIGIBLE:
                return levels
            middle = kept - shift + 1
            if middle > 0:
                head, rho = coefficients[:start].copy(), float(coefficients[start])
                levels.append((head, rho, coefficients[start + middle :].copy()))
            else:
                levels.append((coefficients, 0.0, coefficients[:0]))
        if kept == length:
            return levels
        keep *= 2


def solve(system: CornerTridiagonalSystem) -> np.ndarray:
    """Solve the corner-tridiagonal system; the input is left untouched."""
    return CornerTridiagonalFactor(system).solve(system.rhs)
