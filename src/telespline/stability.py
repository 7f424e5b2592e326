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
theta rows x phi columns small enough to stay in cache.  Every grid entry is
computed by the same elementwise operations, with no masked writes, so each
row equals a single-theta scan bit for bit; :func:`stability_scan` is the
sweep of one theta.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .basis import BasisWeights, UniformMesh, basis_weights

_DEGENERATE_LEAD = 1e-14
_STABILITY_SLACK = 1e-12
# grid points per block of theta rows: about 64 KiB per temporary
_BLOCK_POINTS = 8192


@dataclass(frozen=True)
class FourierCoefficients:
    """Per-mode recurrence weights, plus the basis weights they combine.

    The w-coefficients are floats, or arrays shaped like the theta array
    they were computed for.
    """

    w1: float
    w2: float
    w3: float
    w4: float
    a1: float
    a2: float
    a5: float
    a6: float


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
    return FourierCoefficients(
        w1=w1, w2=w2, w3=w3, w4=w4, a1=weights.a1, a2=weights.a2, a5=weights.a5, a6=weights.a6
    )


def _quadratic_coefficients(fc: FourierCoefficients, cos: float | np.ndarray):
    """A, B, C at cos(phi); broadcasts over array w-coefficients and cos."""
    return (
        fc.w2 + 2.0 * fc.w1 * cos,
        fc.w4 + 2.0 * fc.w3 * cos,
        fc.a2 + 2.0 * fc.a1 * cos,
    )


def amplification_roots(fc: FourierCoefficients, phi: float) -> tuple[complex, complex]:
    """Both roots of A delta^2 - B delta + C = 0 at mode angle phi.

    When the quadratic degenerates (A ~ 0) the single linear root is paired
    with an infinite-magnitude marker.
    """
    a, b, c = _quadratic_coefficients(fc, math.cos(phi))
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


def routh_hurwitz_conditions(fc: FourierCoefficients, phi: float) -> tuple[float, float, float]:
    """The triple (A+B+C, A-C, A-B+C) at mode angle phi (arrays for array w's)."""
    a, b, c = _quadratic_coefficients(fc, math.cos(phi))
    return (a + b + c, a - c, a - b + c)


def _max_amplification_grid(fc: FourierCoefficients, cos: np.ndarray) -> np.ndarray:
    """|delta|_max on the grid of fc's theta column x the cos(phi) row.

    Mirrors :func:`amplification_roots`: a degenerate lead gives inf, a
    complex pair gives sqrt(C/A), a real pair the larger root modulus, and a
    NaN discriminant gives NaN.  Every entry is written.
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
    amplification counts as the maximum and reads unstable.
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
