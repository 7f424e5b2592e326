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

Every matrix of a run is one band (lo, mid, lo) between two boundary rows,
so :meth:`CornerTridiagonalFactor.from_stencil` takes those scalars and
writes the band's run-length form: an interior block of at most four rows
whose third row stands for all the equal rows between.  Only this form
takes the shortcuts.  The multipliers are a short head, one scalar rho over
the run past the fixed point and a short tail, and each doubling level is
formed on a copy whose run is cut to 2**8 entries; the full multiplier
array is written out only when a level's shift outgrows that cut, as on a
stiff step.  Built from the stencil, a factor thus costs O(head + tail)
work plus three n-length arrays: the pivots and the solve's two work
arrays.  A system given as bands is factored row by row with no shortcut,
through the same sweep, multipliers and plan with an empty run, as the
reference that :meth:`~CornerTridiagonalFactor.from_stencil` is checked
against.
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import Iterator

import numpy as np

from ._record import Record

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


class CornerTridiagonalSystem(Record):
    """Tridiagonal system with corner entries at (0, 2) and (n-1, n-3).

    sub[i] sits at (i+1, i), diag[i] at (i, i), sup[i] at (i, i+1).
    """

    __slots__ = _fields = ("sub", "diag", "sup", "corner_top", "corner_bottom", "rhs")
    sub: np.ndarray
    diag: np.ndarray
    sup: np.ndarray
    corner_top: float
    corner_bottom: float
    rhs: np.ndarray

    def __init__(
        self,
        sub: np.ndarray,
        diag: np.ndarray,
        sup: np.ndarray,
        corner_top: float,
        corner_bottom: float,
        rhs: np.ndarray,
    ) -> None:
        self.sub = np.asarray(sub, dtype=float)
        self.diag = np.asarray(diag, dtype=float)
        self.sup = np.asarray(sup, dtype=float)
        self.corner_top = corner_top
        self.corner_bottom = corner_bottom
        self.rhs = np.asarray(rhs, dtype=float)
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
    is ignored), which marches every row, or from the scalars of a constant
    band with :meth:`from_stencil`, which takes the run's shortcuts and
    gives the same bits; :meth:`solve` then takes any number of right-hand
    sides.  Raises :class:`SingularSystemError` at the first pivot below the
    floor, in row order: row 0, row n-1, then the interior rows 1 .. n-2.
    ``levels`` holds the number of doubling levels of the forward and of the
    back substitution.
    """

    def __init__(self, system: CornerTridiagonalSystem):
        n = system.n
        sub, diag, sup = system.sub, system.diag, system.sup
        self._factor(
            n,
            (float(diag[0]), float(sup[0]), float(system.corner_top)),
            (float(system.corner_bottom), float(sub[n - 2]), float(diag[n - 1])),
            (float(sub[0]), float(sup[n - 2])),
            (sub[1 : n - 2].copy(), diag[1 : n - 1].copy(), sup[1 : n - 2].copy()),
            0,
        )

    @classmethod
    def from_stencil(
        cls,
        n: int,
        lo: float,
        mid: float,
        first_row: tuple[float, float, float],
        last_row: tuple[float, float, float],
    ) -> "CornerTridiagonalFactor":
        """The factor of the n-row band whose rows 1 .. n-2 are (lo, mid, lo)
        between ``first_row`` (d0, sup0, corner_top) and ``last_row``
        (corner_bottom, sub_last, dn), each in column order.

        It equals the factor of that system written out, bit for bit, errors
        included, but writes no n-length band: from n = 6 on, the interior
        block is four rows, the third standing for the n - 5 equal rows
        between.
        """
        if n < 4:
            raise ValueError(f"system needs at least 4 rows, got {n}")
        lo, mid = float(lo), float(mid)
        d0, sup0, corner_top = first_row = tuple(map(float, first_row))
        corner_bottom, sub_last, dn = last_row = tuple(map(float, last_row))
        for name, values in (
            ("sub", (lo, sub_last)),
            ("diag", (d0, mid, dn)),
            ("sup", (sup0, lo)),
            ("corners", (corner_top, corner_bottom)),
        ):
            if not all(map(math.isfinite, values)):
                raise ValueError(f"non-finite entries in {name}")
        size = min(n - 2, 4)
        block = (np.full(size - 1, lo), np.full(size, mid), np.full(size - 1, lo))
        factor = cls.__new__(cls)
        factor._factor(n, first_row, last_row, (lo, lo), block, n - 2 - size)
        return factor

    def _factor(
        self,
        n: int,
        first_row: tuple[float, float, float],
        last_row: tuple[float, float, float],
        links: tuple[float, float],
        block: tuple[np.ndarray, np.ndarray, np.ndarray],
        extra: int,
    ) -> None:
        """Condense the boundary rows into the interior block and factor it.

        ``links`` are the entries of rows 1 and n-2 in columns 0 and n-1;
        ``block`` is (sub, diag, sup) of rows 1 .. n-2, as copies, with its
        row 2 standing for 1 + ``extra`` equal rows.
        """
        self.n = n
        # row 0 (d0, sup0, corner_top) eliminates the column-0 entry of row 1
        d0, sup0, corner_top = self._first_row = first_row
        if abs(d0) < _PIVOT_FLOOR:
            raise SingularSystemError(0, d0)
        self._fold_top = links[0] / d0
        # row n-1 (corner_bottom, sub_last, dn) eliminates column n-1 of row n-2
        corner_bottom, sub_last, dn = self._last_row = last_row
        if abs(dn) < _PIVOT_FLOOR:
            raise SingularSystemError(n - 1, dn)
        self._fold_bottom = links[1] / dn

        # the condensed interior block, rows/unknowns 1 .. n-2
        sub, diag, sup = block
        diag[0] -= self._fold_top * sup0
        diag[-1] -= self._fold_bottom * sub_last
        sup[0] -= self._fold_top * corner_top
        sub[-1] -= self._fold_bottom * corner_bottom
        pivots, settled = _pivot_sweep(sub, diag, sup, extra)
        self._pivots = pivots

        # forward: y_i = rhs_i / p_i - (sub_i / p_i) y_{i-1}
        # back:    x_i = y_i - (sup_i / p_i) x_{i+1}
        # entries start .. stop-1 of each take rows of the run past the pivots'
        # fixed point, so they share one value; entry 2 + extra is past the run
        size = pivots.size
        stop = min(2 + extra, size - 1)
        start = min(max(settled, 2), stop)
        self._forward = _multipliers(sub, pivots[1:], start, stop)
        self._backward = _multipliers(sup, pivots[:-1], start, stop)
        # a solve works in two arrays the factor owns; the levels run one
        # after another, so they share one product buffer
        inner = self._inner = np.empty(size)
        products = np.empty(size - 1)
        self._plan = []
        self.levels = ()
        for multipliers, forward in ((self._forward, True), (self._backward, False)):
            levels = _doubling_coefficients(multipliers)
            self.levels += (len(levels),)
            for k, (head, rho, tail) in enumerate(levels):
                shift = 2**k
                width = size - shift
                low, high = inner[:width], inner[shift:]
                source, target = (low, high) if forward else (high, low)
                product = products[:width]
                # head, constant middle and tail each write their own products
                h, t = head.size, width - tail.size
                self._plan.append((
                    source[h:t], rho, product[h:t], head, source[:h], product[:h],
                    tail, source[t:], product[t:], product, target,
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
            source_middle, rho, product_middle, head, source_head, product_head,
            tail, source_tail, product_tail, product, target,
        ) in self._plan:
            multiply(source_middle, rho, out=product_middle)
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


def _pivot_sweep(
    sub: np.ndarray, diag: np.ndarray, sup: np.ndarray, extra: int
) -> tuple[np.ndarray, int]:
    """Pivots of the elimination of a tridiagonal block whose row 2 stands
    for 1 + ``extra`` equal rows, and the first row from which they keep one
    value to the run's end.

    Row r >= 1 takes its pivot from (sub[r-1], sup[r-1], diag[r]) and the
    pivot of row r-1.  Rows 2 .. 2 + ``extra``, the run, repeat one map; the
    sweep stops there once a pivot equals its predecessor bit for bit, gives
    the rest of the run that value and carries on after the run.  Without
    such a fixed point the run's last row is the one returned.  With
    ``extra`` 0, as for a system given as bands, every row is marched.
    Global row numbers in errors are the block's row numbers plus one.  The
    sweep walks Python floats one chunk at a time, taken from the arrays
    outside the run and from the run's three scalars inside it, so its
    temporary lists stay small whatever the size of the block.
    """
    floor = _PIVOT_FLOOR
    size = diag.size + extra
    pivots = np.empty(size)
    pivot = float(diag[0])
    if abs(pivot) < floor:
        raise SingularSystemError(1, pivot)
    pivots[0] = pivot
    run_end, run = size, None
    if size > 2:
        run_end, run = 3 + extra, (float(sup[1]), float(sub[1]), float(diag[2]))
    settled = run_end - 1
    row = 1
    while row < size:
        in_run = 2 <= row < run_end
        stop = min(row + _PIVOT_CHUNK, 2 if row < 2 else run_end if in_run else size)
        if in_run:
            coefficients = repeat(run, stop - row)
        else:
            at = row - extra if row > 2 else row  # rows past the run sit extra rows up
            coefficients = zip(
                sup[at - 1 : at - 1 + stop - row].tolist(),
                sub[at - 1 : at - 1 + stop - row].tolist(),
                diag[at : at + stop - row].tolist(),
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
                settled = row + len(swept) - 2
                stop = run_end
                break
            pivot = new
        pivots[row : row + len(swept)] = swept
        pivots[row + len(swept) : stop] = pivot
        row = stop
    return pivots, settled


def _multipliers(
    values: np.ndarray, pivots: np.ndarray, start: int, stop: int
) -> tuple[np.ndarray, float, int, np.ndarray]:
    """-values / pivots in run-length form (head, rho, length, tail).

    ``values`` is a band of the block that :func:`_pivot_sweep` takes,
    whose entry 1 stands for the run, and ``pivots`` the pivot of each
    entry.  Entries start .. stop-1 all take the value rho; the head holds
    the ones before and the tail the ones from stop on.
    """
    head = np.concatenate((values[:1], np.repeat(values[1:2], start - 1)))
    rho = -float(values[1]) / float(pivots[start]) if stop > start else 0.0
    return -head / pivots[:start], rho, stop - start, -values[2:] / pivots[stop:]


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


def _doubling_coefficients(
    multipliers: tuple[np.ndarray, float, int, np.ndarray],
) -> list[tuple[np.ndarray, float, np.ndarray]]:
    """The (head, rho, tail) coefficients of each doubling level that has a
    coefficient of at least 2**-60, from multipliers in :func:`_multipliers`'
    run-length form; a level too deep to have a constant middle is all
    head, with an empty middle and a zero rho that multiplies nothing.

    The levels are first formed on a copy whose constant run is cut to 2**8
    entries, which gives the same bits for every level whose shift fits in
    the kept run.  A deeper level would mix head and tail, so that test
    comes before the negligible test; when it fails, or the cut copy runs
    out of levels before one is negligible, the levels are formed again on
    the full array, which is written out only then.
    """
    head, rho, length, tail = multipliers
    start = head.size
    for kept in (min(2**8, length), length):
        levels = []
        cut = np.concatenate((head, np.full(kept, rho), tail))
        for shift, coefficients in _doubling_levels(cut):
            if shift > kept < length:
                break
            if np.maximum.reduce(np.abs(coefficients)) < _NEGLIGIBLE:
                return levels
            middle = kept - shift + 1
            if middle > 0:
                level_head = coefficients[:start].copy()
                level_tail = coefficients[start + middle :].copy()
                levels.append((level_head, float(coefficients[start]), level_tail))
            else:
                levels.append((coefficients, 0.0, coefficients[:0]))
        if kept == length:
            return levels


def solve(system: CornerTridiagonalSystem) -> np.ndarray:
    """Solve the corner-tridiagonal system; the input is left untouched."""
    return CornerTridiagonalFactor(system).solve(system.rhs)
