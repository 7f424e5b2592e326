"""Von Neumann stability analysis of the collocation time scheme.

Inserting a Fourier mode C_m^j = delta^j e^{i m phi} into the interior
recurrence gives, per mode angle phi, the quadratic

    A(phi) delta^2 - B(phi) delta + C(phi) = 0

with A = w2 + 2 w1 cos(phi), B = w4 + 2 w3 cos(phi), C = a2 + 2 a1 cos(phi),
where w1..w4 are the scheme's stencil on the three time levels, as
:func:`telespline.basis.scheme_stencils` defines them, once, for the
solver's step matrix and right-hand side and for this analysis.

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
:func:`stability_sweep` therefore computes one scalar row per theta: it
takes w1..w4 from scheme_stencils, forms A, B and C at cos(phi) = 1 and
-1, and reads the amplification, its phi, the lead's sign and the
Routh-Hurwitz triple from those two ends, in Python floats, so the module
needs no numpy; one written-out formula gives |delta| at each end whatever
the lead's sign.  :func:`stability_scan` is its one row for one theta.

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
from typing import NamedTuple, Sequence

from .basis import UniformMesh, basis_weights, scheme_stencils

_DEGENERATE_LEAD = 1e-14
_STABILITY_SLACK = 1e-12


class StabilityReport(NamedTuple):
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
    thetas = list(map(float, thetas))
    weights = basis_weights(mesh)
    if not (alpha >= 0 and beta >= 0):
        raise ValueError(f"alpha and beta must be nonnegative, got {alpha}, {beta}")
    if not (math.isfinite(alpha) and math.isfinite(beta)):
        raise ValueError(f"alpha and beta must be finite, got {alpha}, {beta}")
    for theta in thetas:
        if not 0.0 <= theta <= 1.0:
            raise ValueError(f"theta must lie in [0, 1], got {theta}")
    if not dt >= 0:
        raise ValueError(f"dt must be nonnegative, got {dt}")

    # C at cos(phi) = 1 and -1, the same on every row
    c0, c_pi = weights.a2 + 2.0 * weights.a1, weights.a2 - 2.0 * weights.a1
    abs_c0, abs_c_pi = abs(c0), abs(c_pi)
    lead, limit = _DEGENERATE_LEAD, 1.0 + _STABILITY_SLACK
    inf, sqrt, pi = math.inf, math.sqrt, math.pi
    sweep = StabilitySweep([], [], [], [], [], [])
    peaks, phis, rh1s, rh2s, rh3s = (column.append for column in sweep[:5])
    for w1, w2, w3, w4 in scheme_stencils(alpha, beta, thetas, dt, weights):
        # A and B at cos(phi) = 1 and -1
        w1x2, w3x2 = 2.0 * w1, 2.0 * w3
        a0, a_pi = w2 + w1x2, w2 - w1x2
        b0, b_pi = w4 + w3x2, w4 - w3x2
        rh1s(a_pi + b_pi + c_pi)
        rh2s(a_pi - c_pi)
        rh3s(a_pi - b_pi + c_pi)
        if not (a0 > 0.0 and a_pi > 0.0 or a0 < 0.0 and a_pi < 0.0):
            # A is affine in cos(phi) and zero at cos(phi) = -w2 / (2 w1),
            # where a root is unbounded; A == 0 throughout names phi = 0
            peaks(inf)
            phis(0.0 if w1 == 0.0 else math.acos(min(1.0, max(-1.0, -w2 / w1x2))))
            continue
        # |delta|_max at each end, written out at both because a call per
        # end made the sweep 15-24% slower: inf for a degenerate lead;
        # sqrt(C/A), the root product, for a complex pair (4AC > B^2 makes
        # C/A positive); and for a real pair the larger of q/|A| and |C|/q,
        # the roots by Vieta, with |q| = (|B| + sqrt(disc)) / 2 exactly.
        # far = q/|A| is NaN whenever near = |C|/q is
        abs_a0, abs_a_pi = abs(a0), abs(a_pi)
        disc0 = b0 * b0 - 4.0 * a0 * c0
        if abs_a0 < lead:
            amp0 = inf
        elif disc0 < 0.0:
            amp0 = sqrt(c0 / a0)
        else:
            q = (abs(b0) + sqrt(disc0)) / 2.0
            amp0, near = (q / abs_a0, abs_c0 / q) if q else (0.0, 0.0)
            if near > amp0:
                amp0 = near
        disc_pi = b_pi * b_pi - 4.0 * a_pi * c_pi
        if abs_a_pi < lead:
            amp_pi = inf
        elif disc_pi < 0.0:
            amp_pi = sqrt(c_pi / a_pi)
        else:
            q = (abs(b_pi) + sqrt(disc_pi)) / 2.0
            amp_pi, near = (q / abs_a_pi, abs_c_pi / q) if q else (0.0, 0.0)
            if near > amp_pi:
                amp_pi = near
        # the first maximum: a tie names phi = 0, and a NaN wins
        if amp0 >= amp_pi or amp0 != amp0:
            peaks(amp0)
            phis(0.0)
        else:
            peaks(amp_pi)
            phis(pi)
    # a non-finite w makes its row's rh1 inf or NaN, and so their sum
    if not math.isfinite(sum(sweep.rh1)):
        for stencil in scheme_stencils(alpha, beta, thetas, dt, weights):
            if not all(map(math.isfinite, stencil)):
                raise ValueError(
                    f"dt = {dt} gives non-finite Fourier coefficients w1..w4 "
                    f"(alpha = {alpha}, beta = {beta}); use a smaller dt"
                )
    sweep.stable.extend(map(limit.__ge__, sweep.max_amplification))  # NaN reads False
    return sweep


def stability_scan(
    alpha: float, beta: float, theta: float, dt: float, mesh: UniformMesh
) -> StabilityReport:
    """The worst amplification factor over phi in [0, pi] for one theta:
    row 0 of :func:`stability_sweep` as one report."""
    sweep = stability_sweep(alpha, beta, [theta], dt, mesh)
    peak, phi, rh1, rh2, rh3, stable = (column[0] for column in sweep)
    return StabilityReport(peak, phi, (rh1, rh2, rh3), stable)
