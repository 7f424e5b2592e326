"""Von Neumann stability analysis of the collocation time scheme.

Inserting a Fourier mode C_m^j = delta^j e^{i m phi} into the interior
recurrence gives, per mode angle phi, the quadratic

    A(phi) delta^2 - B(phi) delta + C(phi) = 0

with A = w2 + 2 w1 cos(phi), B = w4 + 2 w3 cos(phi), C = a2 + 2 a1 cos(phi),
where w1..w4 are the scheme's stencil on the three time levels, from
:func:`telespline.basis.scheme_stencil`, the one definition that also
builds the solver's step matrix and right-hand side.

The scheme is stable at phi when both roots satisfy |delta| <= 1.  Mapping
delta = (1 + xi)/(1 - xi) turns that into a Routh-Hurwitz condition: the
transformed quadratic (A+B+C) xi^2 + 2 (A-C) xi + (A-B+C) = 0 must have no
root with positive real part, which for nonnegative coefficients is
automatic.  The sweep reports the triple (A+B+C, A-C, A-B+C) at phi = pi
as its columns rh1, rh2 and rh3, alongside the amplification maximum.

A, B and C are affine in c = cos(phi).  While A keeps one strict sign on
[-1, 1] (negating the quadratic moves no root, so take A > 0), both roots
lie in |delta| <= r exactly when |C| <= A r^2 and A r^2 +- B r + C >= 0
(the Schur-Cohn, or Jury, test for a real quadratic), and for each r these
cut out an interval of c.  So the largest |delta| over [0, pi] lies at an
end, phi = 0 or phi = pi (E. I. Jury, Theory and Application of the
z-Transform Method, 1964; J. J. H. Miller, J. Inst. Math. Appl. 8 (1971)).
:func:`stability_sweep` therefore forms A, B and C once per sweep, for the
whole theta column at cos(phi) = 1 and -1, and reads the amplification,
its phi, the lead's sign and the Routh-Hurwitz triple from those two
columns; :func:`stability_scan` is its one row for one theta.

The rule's precondition is checked on every row, and exactly: A is affine
in c, so it keeps one strict sign on [-1, 1] exactly when its two end
values do.  A row whose A vanishes somewhere on [0, pi] has a root that
grows without bound there and reads max_amplification = inf at that phi.
For the scheme's own weights this happens on coarse meshes only.  With
A = lambda (a2 + 2 a1 c) - k^2 theta (a6 + 2 a5 c) and lambda >= 1, a cell
width h < 2 pi / 3 gives a2 +- 2 a1 > 0 and a6 +- 2 a5 < 0, so A > 0 on
every row.  Above 2 pi / 3 both signs flip at c = 1 and not at c = -1, so
A changes sign on every row and every row reads unbounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .basis import UniformMesh, basis_weights, scheme_stencil

_DEGENERATE_LEAD = 1e-14
_STABILITY_SLACK = 1e-12
# the two ends of the mode range, phi = 0 and phi = pi, and their cosines
_END_PHI = np.array([0.0, math.pi])
_END_COS = np.array([1.0, -1.0])


@dataclass(frozen=True)
class StabilityReport:
    """Result of scanning mode angles phi over [0, pi]."""

    max_amplification: float
    worst_phi: float
    rh_conditions: tuple[float, float, float]
    stable: bool


class StabilitySweep(NamedTuple):
    """:func:`stability_sweep`'s columns, one entry per theta, in order;
    rh1..rh3 are the Routh-Hurwitz triple at phi = pi."""

    max_amplification: list[float]
    worst_phi: list[float]
    rh1: list[float]
    rh2: list[float]
    rh3: list[float]
    stable: list[bool]


def _max_amplification(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """|delta|_max of A delta^2 - B delta + C = 0, element by element.

    Mirrors the scalar root solver ``amplification_roots`` of the tests'
    oracle: a degenerate lead gives inf, a complex pair gives sqrt(C/A), a
    real pair the larger root modulus, and a NaN discriminant gives NaN.
    Every entry of the broadcast shape is written.
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


def stability_sweep(
    alpha: float, beta: float, thetas: Sequence[float], dt: float, mesh: UniformMesh
) -> StabilitySweep:
    """Evaluate phi = 0 and phi = pi for each theta: six columns, named as
    the ``stability`` command's header, with one entry per theta in order.

    ``max_amplification`` is the larger of the two ends, which is the
    maximum over all of [0, pi] (see the module docstring), and
    ``worst_phi`` is the end that gives it.  A tie names phi = 0; a NaN
    amplification counts as the maximum and reads unstable.  A row whose
    lead A vanishes on [0, pi] (every row once the cell width exceeds
    2 pi / 3) reads ``max_amplification = inf`` at the phi where A = 0.
    At theta = 0 with alpha < beta every phi is a complex pair with
    |delta|^2 = 1 / (1 + 2 alpha k) exactly, so the two ends tie in exact
    arithmetic and rounding decides which of them ``worst_phi`` names.

    Raises ``ValueError`` for a negative or infinite alpha or beta, a theta
    outside [0, 1], a negative dt, or a dt whose stencil w1..w4 is not finite.
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
    w1, w2, w3, w4 = scheme_stencil(alpha, beta, column, dt, weights)
    if not np.all(np.isfinite([w1, w2, w3, w4])):
        raise ValueError(
            f"dt = {dt} gives non-finite Fourier coefficients w1..w4 "
            f"(alpha = {alpha}, beta = {beta}); use a smaller dt"
        )
    with np.errstate(all="ignore"):
        # A and B at cos(phi) = 1 and -1, one row per theta; C is the same on every row
        a = w2 + 2.0 * w1 * _END_COS
        b = w4 + 2.0 * w3 * _END_COS
        c = weights.a2 + 2.0 * weights.a1 * _END_COS
        # A is affine in cos(phi): unless its end values share a strict sign it
        # is zero at cos(phi) = -w2 / (2 w1), where a root is unbounded (A == 0
        # throughout names phi = 0)
        zero = np.nan_to_num(-w2[:, 0] / (2.0 * w1[:, 0]), nan=1.0)
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


def stability_scan(
    alpha: float, beta: float, theta: float, dt: float, mesh: UniformMesh
) -> StabilityReport:
    """The worst amplification factor over phi in [0, pi] for one theta:
    row 0 of :func:`stability_sweep` as one report."""
    sweep = stability_sweep(alpha, beta, [theta], dt, mesh)
    peak, phi, rh1, rh2, rh3, stable = (column[0] for column in sweep)
    return StabilityReport(peak, phi, (rh1, rh2, rh3), stable)
