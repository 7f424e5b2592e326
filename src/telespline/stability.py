"""Von Neumann stability analysis of the collocation time scheme.

Inserting a Fourier mode C_m^j = delta^j e^{i m phi} into the interior
recurrence gives, per mode angle phi, the quadratic

    A(phi) delta^2 - B(phi) delta + C(phi) = 0

with A = w2 + 2 w1 cos(phi), B = w4 + 2 w3 cos(phi), C = a2 + 2 a1 cos(phi),
where the w-coefficients collect the scheme weights on the three time levels:

    w1 = (1 + 2 alpha k + k^2 theta beta^2) a1 - k^2 theta a5
    w2 = (1 + 2 alpha k + k^2 theta beta^2) a2 - k^2 theta a6
    w3 = (2 + 2 alpha k - (1 - theta) k^2 beta^2) a1 + (1 - theta) k^2 a5
    w4 = (2 + 2 alpha k - (1 - theta) k^2 beta^2) a2 + (1 - theta) k^2 a6

The scheme is stable at phi when both roots satisfy |delta| <= 1.  Mapping
delta = (1 + xi)/(1 - xi) turns that into a Routh-Hurwitz condition: the
transformed quadratic (A+B+C) xi^2 + 2 (A-C) xi + (A-B+C) = 0 must have no
root with positive real part, which for nonnegative coefficients is
automatic.  The triple (A+B+C, A-C, A-B+C) is therefore reported alongside
the scanned amplification maximum.

:func:`stability_sweep` scans many theta values in one pass: the
w-coefficients form a theta column, and |delta|max is evaluated on blocks of
theta rows x phi columns small enough to stay in cache.  Most of each row is
never evaluated.  A, B and C are affine in c = cos(phi), so the discriminant
is a quadratic in c,

    B^2 - 4 A C = q2 c^2 + q1 c + q0
    q2 = 4 w3^2 - 16 w1 a1
    q1 = 4 w3 w4 - 8 (w2 a1 + w1 a2)
    q0 = w4^2 - 4 w2 a2

and where it is negative the roots are a complex pair with |delta|^2 = C/A,
which is monotone in c wherever A keeps its sign.  When q2 > 0 with two
roots c_lo < c_hi, the real-root samples of a row are a prefix
(cos(phi) >= c_hi) and a suffix (cos(phi) <= c_lo) of the phi samples, and
the row is evaluated only on those, padded by a few columns: every skipped
sample lies between the two evaluated edges of the complex run, so it
cannot beat the larger of them.  The sweep takes that result only when
three checks prove it: the discriminant is clearly negative on the skipped
span, the lead A is well conditioned and of one sign, and the row maximum
clearly beats both edges (see :func:`_proven_bands`).  Every row that fails
a check, and every row of another shape (q2 <= 0, all roots real, a
degenerate lead, NaN), is evaluated on all phi samples.  Either way an
evaluated entry is computed by the same elementwise operations on the same
cos(phi) value, so each row equals a single-theta scan and the full grid bit
for bit; :func:`stability_scan` is the sweep of one theta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .basis import BasisWeights, UniformMesh, basis_weights

_DEGENERATE_LEAD = 1e-14
_STABILITY_SLACK = 1e-12
# grid points per block of theta rows: about 64 KiB per temporary
_BLOCK_POINTS = 8192
# Constants of the band proof in _proven_bands; u = 2^-53 is the unit roundoff.
# Columns added to each side of a complex run, beyond the closed-form band edge.
_PAD_COLUMNS = 2
# tau: the kernel's B^2 - 4AC and the closed form (q2 c + q1) c + q0 each lie
# within about 7u * scale of the exact discriminant, scale = sB^2 + 4 sA sC
# (s_ = the sum of the term magnitudes of A, B, C on [-1, 1]); a closed-form
# maximum below -tau * scale, tau >> 14u ~ 1.6e-15, leaves every skipped
# kernel entry a complex pair.
_DISC_MARGIN = 1e-12
# A and C within this factor of their term magnitudes: each is then computed
# to a relative 2u * 100 ~ 2.2e-14, and sqrt(C/A) to about 2.3e-14.
_CONDITION_CAP = 100.0
# The row maximum must beat both evaluated edges of the complex run by this
# relative gap, well above the 5e-14 by which a skipped entry can exceed them.
_EDGE_GAP = 1e-12


@dataclass(frozen=True)
class FourierCoefficients:
    """Per-mode recurrence weights, plus the basis weights a1 and a2 of C.

    The w-coefficients are floats, or arrays shaped like the theta array
    they were computed for.
    """

    w1: float
    w2: float
    w3: float
    w4: float
    a1: float
    a2: float


@dataclass(frozen=True)
class StabilityReport:
    """Result of scanning mode angles phi over [0, pi]."""

    max_amplification: float
    worst_phi: float
    rh_conditions: tuple[float, float, float]
    stable: bool


def fourier_coefficients(
    alpha: float, beta: float, theta: float | np.ndarray, dt: float, weights: BasisWeights
) -> FourierCoefficients:
    """The w-coefficients of the per-mode amplification quadratic.

    ``theta`` is a float or an array of values in [0, 1]; the w-coefficients
    take its shape.  Raises ``ValueError`` when any of them is not finite.
    """
    if not (alpha >= 0 and beta >= 0):
        raise ValueError(f"alpha and beta must be nonnegative, got {alpha}, {beta}")
    values = np.ravel(theta)
    outside = values[~((values >= 0.0) & (values <= 1.0))]
    if outside.size:
        raise ValueError(f"theta must lie in [0, 1], got {outside[0]}")
    if not dt >= 0:
        raise ValueError(f"dt must be nonnegative, got {dt}")
    k = dt
    beta2 = beta * beta
    with np.errstate(over="ignore", invalid="ignore"):
        lam = 1.0 + 2.0 * alpha * k + k * k * theta * beta2
        mu = 2.0 + 2.0 * alpha * k - (1.0 - theta) * k * k * beta2
        w1 = lam * weights.a1 - k * k * theta * weights.a5
        w2 = lam * weights.a2 - k * k * theta * weights.a6
        w3 = mu * weights.a1 + (1.0 - theta) * k * k * weights.a5
        w4 = mu * weights.a2 + (1.0 - theta) * k * k * weights.a6
    if not np.all(np.isfinite([w1, w2, w3, w4])):
        raise ValueError(
            f"dt = {dt} gives non-finite Fourier coefficients w1..w4 "
            f"(alpha = {alpha}, beta = {beta}); use a smaller dt"
        )
    return FourierCoefficients(w1=w1, w2=w2, w3=w3, w4=w4, a1=weights.a1, a2=weights.a2)


def _quadratic_coefficients(fc: FourierCoefficients, cos: float | np.ndarray):
    """A, B, C at cos(phi); broadcasts over array w-coefficients and cos."""
    return (
        fc.w2 + 2.0 * fc.w1 * cos,
        fc.w4 + 2.0 * fc.w3 * cos,
        fc.a2 + 2.0 * fc.a1 * cos,
    )


def routh_hurwitz_conditions(fc: FourierCoefficients, phi: float) -> tuple[float, float, float]:
    """The triple (A+B+C, A-C, A-B+C) at mode angle phi (arrays for array w's)."""
    a, b, c = _quadratic_coefficients(fc, math.cos(phi))
    return (a + b + c, a - c, a - b + c)


def _max_amplification_grid(fc: FourierCoefficients, cos: np.ndarray) -> np.ndarray:
    """|delta|_max on the grid of fc's theta column x the cos(phi) row.

    Mirrors the scalar root solver ``amplification_roots`` of the tests'
    oracle: a degenerate lead gives inf, a complex pair gives sqrt(C/A), a
    real pair the larger root modulus, and a NaN discriminant gives NaN.
    Every entry is written.
    """
    with np.errstate(all="ignore"):
        a, b, c = _quadratic_coefficients(fc, cos)
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


def _smaller_end(const, slope):
    """min |const + 2 slope c| over c in [-1, 1]: the smaller end, or 0 on a sign change."""
    hi, lo = const + 2.0 * slope, const - 2.0 * slope
    return np.where(hi * lo > 0.0, np.minimum(np.abs(hi), np.abs(lo)), 0.0)


def _proven_bands(fc: FourierCoefficients, cos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per theta row, how many leading and trailing phi columns decide it.

    Returns int arrays ``left`` and ``right``.  From column ``left - 1`` to
    column ``P - right`` a row is proven to hold complex pairs only, with
    |delta|^2 = C/A monotone in cos(phi) and |delta| computed to a relative
    2.3e-14.  So no skipped column (strictly between those two) exceeds the
    larger of them by more than 5e-14 relative, and once the row's maximum
    over the evaluated columns beats both by ``_EDGE_GAP`` (the caller's
    check), its first argmax is the first argmax over all columns.  This
    still holds for any wider ``left`` and ``right`` that skip a column.
    Rows it cannot prove, NaN included, get ``left = P`` and ``right = 0``.
    """
    samples = len(cos)
    w1, w2, w3, w4 = (np.ravel(w) for w in (fc.w1, fc.w2, fc.w3, fc.w4))
    a1, a2 = fc.a1, fc.a2
    with np.errstate(all="ignore"):
        q2 = 4.0 * w3 * w3 - 16.0 * w1 * a1
        q1 = 4.0 * w3 * w4 - 8.0 * (w2 * a1 + w1 * a2)
        q0 = w4 * w4 - 4.0 * w2 * a2
        # real roots of the discriminant, cancellation-free
        root_disc = q1 * q1 - 4.0 * q2 * q0
        t = -(q1 + np.copysign(np.sqrt(root_disc), q1)) / 2.0
        c_hi = np.maximum(t / q2, q0 / t)
        c_lo = np.minimum(t / q2, q0 / t)
        # q2 > 0: real samples at cos >= c_hi (a prefix) and cos <= c_lo (a
        # suffix).  A concave discriminant (q2 < 0, so w1 a1 > 0) is B^2 >= 0
        # where A vanishes, so it always has real roots; such a row is
        # unproven, like every other shape.
        two_bands = (q2 > 0.0) & (root_disc > 0.0)
        per_radian = (samples - 1) / math.pi
        left = np.floor(np.arccos(np.clip(c_hi, -1.0, 1.0)) * per_radian) + (1 + _PAD_COLUMNS)
        right = samples + _PAD_COLUMNS - np.ceil(np.arccos(np.clip(c_lo, -1.0, 1.0)) * per_radian)
        skips = two_bands & (left + right < samples)
        left = np.where(skips, left, 1.0).astype(np.intp)
        right = np.where(skips, right, 1.0).astype(np.intp)

        # 1. the discriminant's maximum on [cos(phi_{P-right}), cos(phi_{left-1})],
        # at one of its ends since q2 > 0
        lo, hi = cos[samples - right], cos[left - 1]
        peak = np.maximum((q2 * lo + q1) * lo + q0, (q2 * hi + q1) * hi + q0)
        s_a, s_b = np.abs(w2) + 2.0 * np.abs(w1), np.abs(w4) + 2.0 * np.abs(w3)
        s_c = abs(a2) + 2.0 * abs(a1)
        complex_span = peak < -_DISC_MARGIN * (s_b * s_b + 4.0 * s_a * s_c)

        # 2. A of one sign on [-1, 1], well conditioned and far from degenerate;
        # so is C, which does not depend on theta
        a_min = _smaller_end(w2, w1)
        lead_ok = (
            (a_min * _CONDITION_CAP > s_a)
            & (a_min > 2.0 * _DEGENERATE_LEAD)
            & (_smaller_end(a2, a1) * _CONDITION_CAP > s_c)
        )

    # cos must fall along the columns for a skipped sample to lie between the edges
    proven = skips & complex_span & lead_ok & np.all(np.diff(cos) < 0.0)
    return np.where(proven, left, samples), np.where(proven, right, 0)


def _row_maxima(fc: FourierCoefficients, rows: np.ndarray, cos: np.ndarray):
    """|delta|max of the theta ``rows`` on ``cos``, its first argmax and value."""
    amp = _max_amplification_grid(
        replace(fc, w1=fc.w1[rows], w2=fc.w2[rows], w3=fc.w3[rows], w4=fc.w4[rows]), cos
    )
    first = amp.argmax(axis=1)
    return amp, first, amp[np.arange(len(rows)), first]


def sweep_columns(
    alpha: float,
    beta: float,
    thetas: Sequence[float],
    dt: float,
    mesh: UniformMesh,
    phi_samples: int = 721,
) -> tuple[list[float], list[float], list[float], list[float], list[float], list[bool]]:
    """:func:`stability_sweep`'s results as columns, one entry per theta:
    ``max_amplification``, ``worst_phi``, the three Routh-Hurwitz values
    and ``stable``, each a list."""
    if phi_samples < 2:
        raise ValueError(f"phi_samples must be at least 2, got {phi_samples}")
    column = np.asarray(thetas, dtype=float).reshape(-1, 1)
    fc = fourier_coefficients(alpha, beta, column, dt, basis_weights(mesh))
    phis = np.linspace(0.0, math.pi, phi_samples)
    cos = np.cos(phis)

    worst = np.empty(len(column), dtype=np.intp)
    max_amp = np.empty(len(column))
    left, right = _proven_bands(fc, cos)
    banded = np.flatnonzero(left < phi_samples)
    full = [np.flatnonzero(left == phi_samples)]
    # chunks of consecutive banded rows, each at most a block wide
    count = max(1, _BLOCK_POINTS // int((left[banded] + right[banded]).max(initial=1)))
    for start in range(0, len(banded), count):
        chunk = banded[start : start + count]
        wide_left, wide_right = int(left[chunk].max()), int(right[chunk].max())
        if wide_left + wide_right >= phi_samples:
            full.append(chunk)
            continue
        cols = np.r_[0:wide_left, phi_samples - wide_right : phi_samples]
        amp, first, peak = _row_maxima(fc, chunk, cos[cols])
        # 3. the maximum beats both edges of the skipped span (NaN fails)
        with np.errstate(over="ignore"):
            beaten = peak > np.maximum(amp[:, wide_left - 1], amp[:, wide_left]) * (1.0 + _EDGE_GAP)
        worst[chunk[beaten]] = cols[first[beaten]]
        max_amp[chunk[beaten]] = peak[beaten]
        full.append(chunk[~beaten])

    rows = np.concatenate(full)
    count = max(1, _BLOCK_POINTS // phi_samples)
    for start in range(0, len(rows), count):
        chunk = rows[start : start + count]
        _, worst[chunk], max_amp[chunk] = _row_maxima(fc, chunk, cos)

    with np.errstate(over="ignore", invalid="ignore"):
        rh1, rh2, rh3 = (r[:, 0].tolist() for r in routh_hurwitz_conditions(fc, math.pi))
    stable = (max_amp <= 1.0 + _STABILITY_SLACK).tolist()
    return max_amp.tolist(), phis[worst].tolist(), rh1, rh2, rh3, stable


def stability_sweep(
    alpha: float,
    beta: float,
    thetas: Sequence[float],
    dt: float,
    mesh: UniformMesh,
    phi_samples: int = 721,
) -> list[StabilityReport]:
    """Scan phi over [0, pi] for each theta; one report per theta, in order.

    ``max_amplification`` is the first maximum over the phi samples; a NaN
    amplification counts as the maximum and reads unstable.  At theta = 0
    with alpha < beta every sample is a complex pair with |delta|^2 =
    1 / (1 + 2 alpha k) exactly, so the row ties in exact arithmetic:
    ``max_amplification`` is exact to rounding, but rounding decides which
    phi ``worst_phi`` names (likewise for theta up to about 1e-9).
    """
    max_amp, worst_phi, rh1, rh2, rh3, stable = sweep_columns(
        alpha, beta, thetas, dt, mesh, phi_samples
    )
    return [
        StabilityReport(max_amplification=m, worst_phi=phi, rh_conditions=rh, stable=s)
        for m, phi, rh, s in zip(max_amp, worst_phi, zip(rh1, rh2, rh3), stable)
    ]


def stability_scan(
    alpha: float,
    beta: float,
    theta: float,
    dt: float,
    mesh: UniformMesh,
    phi_samples: int = 721,
) -> StabilityReport:
    """Scan phi over [0, pi] and report the worst amplification factor."""
    return stability_sweep(alpha, beta, [theta], dt, mesh, phi_samples)[0]
