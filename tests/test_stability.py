"""Fourier-mode amplification: roots, scans, sweeps."""

import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from telespline import stability
from telespline.basis import BasisWeights, UniformMesh, basis_weights, scheme_stencil
from telespline.stability import StabilityReport, stability_scan, stability_sweep

from oracle import (
    _max_amplification,
    amplification_roots,
    full_grid_sweep,
    quadratic,
    two_end_sweep,
)

MESH = UniformMesh(0.0, math.pi, 20)
WEIGHTS = basis_weights(MESH)


class TestAmplificationRoots:
    def test_double_zero_root(self):
        # delta^2 = 0
        r1, r2 = amplification_roots(1.0, 0.0, 0.0)
        assert r1 == 0.0 and r2 == 0.0

    def test_pure_imaginary_pair(self):
        # delta^2 + 1 = 0
        r1, r2 = amplification_roots(1.0, 0.0, 1.0)
        assert sorted([r1, r2], key=lambda z: z.imag) == [complex(0, -1), complex(0, 1)]
        assert abs(r1) == pytest.approx(1.0)

    def test_double_unit_root(self):
        # delta^2 - 2 delta + 1 = 0
        r1, r2 = amplification_roots(1.0, 2.0, 1.0)
        assert r1 == pytest.approx(1.0)
        assert r2 == pytest.approx(1.0)

    def test_degenerate_lead_is_marked_infinite(self):
        r1, r2 = amplification_roots(1e-20, 2.0, 3.0)
        assert r2 == complex(math.inf, 0.0)
        assert r1 == pytest.approx(1.5)  # linear root C / B
        r1, r2 = amplification_roots(1e-20, 1e-20, 3.0)
        assert r1 == complex(math.inf, 0.0) and r2 == complex(math.inf, 0.0)

    @given(
        alpha=st.floats(0.0, 10.0),
        beta=st.floats(0.0, 5.0),
        theta=st.floats(0.0, 1.0),
        dt=st.floats(1e-4, 1.0),
        phi=st.floats(0.0, math.pi),
    )
    @settings(max_examples=120, deadline=None)
    def test_roots_satisfy_vieta(self, alpha, beta, theta, dt, phi):
        a, b, c = quadratic(alpha, beta, theta, dt, WEIGHTS, math.cos(phi))
        if abs(a) < 1e-10:
            return
        r1, r2 = amplification_roots(a, b, c)
        scale = max(1.0, abs(b / a), abs(c / a))
        assert abs(r1 * r2 - c / a) <= 1e-9 * scale
        assert abs(r1 + r2 - b / a) <= 1e-9 * scale


class TestRouthHurwitz:
    def test_pi_mode_rh3_ignores_damping_and_theta(self):
        # at phi = pi the alpha and theta terms cancel out of A - B + C,
        # leaving k^2 [beta^2 (a2 - 2 a1) - (a6 - 2 a5)]
        k = 0.07
        expected = None
        for alpha, theta in [(0.0, 0.5), (4.0, 0.5), (4.0, 1.0), (9.0, 0.75)]:
            rh3 = stability_scan(alpha, 2.0, theta, k, MESH).rh_conditions[2]
            if expected is None:
                expected = rh3
            assert rh3 == pytest.approx(expected, rel=1e-12)
        closed_form = k * k * (
            4.0 * (WEIGHTS.a2 - 2 * WEIGHTS.a1) - (WEIGHTS.a6 - 2 * WEIGHTS.a5)
        )
        assert expected == pytest.approx(closed_form, rel=1e-12)


class TestScan:
    def test_zero_step_collapses_to_identity_mode(self):
        # with k = 0 every mode has the double root 1
        report = stability_scan(3.0, 2.0, 0.5, 0.0, MESH)
        assert report.max_amplification == 1.0
        assert report.rh_conditions[1] == 0.0
        assert report.rh_conditions[2] == 0.0
        assert report.rh_conditions[0] >= 0.0
        assert report.stable

    def test_scan_agrees_with_scalar_roots(self):
        report = stability_scan(4.0, 2.0, 0.5, 0.05, MESH)
        cos = np.cos(np.linspace(0.0, math.pi, 181))
        a, b, c = quadratic(4.0, 2.0, 0.5, 0.05, WEIGHTS, cos)
        worst = max(
            max(abs(r) for r in amplification_roots(*abc))
            for abc in zip(a.tolist(), b.tolist(), c.tolist())
        )
        assert report.max_amplification == pytest.approx(worst, rel=1e-12)
        assert 0.0 <= report.worst_phi <= math.pi

    def test_explicit_scheme_blowup_witness(self):
        # fully explicit with a unit step on the undamped wave equation
        # amplifies badly; values frozen from an independent evaluation of
        # the quadratic roots at phi = pi
        mesh = UniformMesh(0.0, math.pi, 40)
        report = stability_scan(0.0, 0.0, 0.0, 1.0, mesh)
        assert not report.stable
        assert report.max_amplification > 1.0
        assert report.max_amplification == pytest.approx(1942.8662305071616, rel=1e-9)
        assert report.worst_phi == pytest.approx(math.pi)
        assert report.rh_conditions[0] == pytest.approx(-647.7876931051185, rel=1e-9)
        assert report.rh_conditions[1] == 0.0
        assert report.rh_conditions[2] == pytest.approx(649.1227413658064, rel=1e-9)

    @given(
        alpha=st.floats(0.0, 10.0),
        beta=st.floats(0.0, 5.0),
        theta=st.floats(0.5, 1.0),
        dt=st.floats(1e-3, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_upper_theta_range_is_unconditionally_stable(self, alpha, beta, theta, dt):
        report = stability_scan(alpha, beta, theta, dt, MESH)
        assert report.stable
        assert all(v >= -1e-9 for v in report.rh_conditions)


def reference_amplification(a, b, c):
    """|delta|max at one phi by scalar formulas: inf for a degenerate lead,
    sqrt(C/A) for a complex pair, the larger real root modulus otherwise."""
    if abs(a) < 1e-14:
        return math.inf
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return math.sqrt(max(c / a, 0.0))
    sq = math.sqrt(disc)
    q = (b + (sq if b >= 0.0 else -sq)) / 2.0
    if q == 0.0:
        return 0.0
    return max(abs(q / a), abs(c / q))


def reference_scan(alpha, beta, theta, dt, mesh, phi_samples):
    """One theta, one phi at a time, in Python floats."""
    weights = basis_weights(mesh)
    a1, a2 = weights.a1, weights.a2
    w1, w2, w3, w4 = scheme_stencil(alpha, beta, theta, dt, weights)
    phis = np.linspace(0.0, math.pi, phi_samples)
    amps = [
        reference_amplification(w2 + 2.0 * w1 * cos, w4 + 2.0 * w3 * cos, a2 + 2.0 * a1 * cos)
        for cos in np.cos(phis).tolist()
    ]
    worst = max(range(phi_samples), key=amps.__getitem__)  # first maximum
    a, b, c = w2 - 2.0 * w1, w4 - 2.0 * w3, a2 - 2.0 * a1
    return amps[worst], float(phis[worst]), (a + b + c, a - c, a - b + c)


def rh(sweep, i):
    """Row i's Routh-Hurwitz triple, as ``StabilityReport.rh_conditions``."""
    return sweep.rh1[i], sweep.rh2[i], sweep.rh3[i]


class TestSweep:
    @given(
        alpha=st.floats(0.0, 10.0),
        beta=st.floats(0.0, 5.0),
        log_dt=st.floats(-4.0, 1.0),
        count=st.sampled_from([1, 2, 3, 100, 5001]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_rows_equal_single_scans_bit_for_bit(self, alpha, beta, log_dt, count, seed):
        dt = 10.0**log_dt
        thetas = np.random.default_rng(seed).uniform(0.0, 1.0, count)
        thetas[:: max(1, count // 3)] = 0.5  # the stability boundary shows up too
        sweep = stability_sweep(alpha, beta, thetas, dt, MESH)
        assert [len(column) for column in sweep] == [count] * 6
        # the scalar reference is slow in Python: check the ends and a spread
        for i in sorted({0, count - 1}.union(range(0, count, max(1, count // 25)))):
            theta = float(thetas[i])
            scan = stability_scan(alpha, beta, theta, dt, MESH)
            row = (sweep.max_amplification[i], sweep.worst_phi[i], rh(sweep, i), sweep.stable[i])
            assert row == (scan.max_amplification, scan.worst_phi, scan.rh_conditions, scan.stable)
            max_amp, worst_phi, rh_conditions = reference_scan(alpha, beta, theta, dt, MESH, 2)
            assert sweep.max_amplification[i] == max_amp
            assert sweep.worst_phi[i] == worst_phi
            assert rh(sweep, i) == rh_conditions
            assert sweep.stable[i] == (max_amp <= 1.0 + 1e-12)
            abc = quadratic(alpha, beta, theta, dt, WEIGHTS, math.cos(worst_phi))
            root_max = max(abs(r) for r in amplification_roots(*abc))
            assert abs(max_amp - root_max) <= 1e-12

    def test_grid_branches_match_the_scalar_formulas(self):
        # rows chosen directly: double zero root (q = 0), pure imaginary pair,
        # double unit root, a double root 0.1 where disc = 0 exactly but
        # sqrt(C/A) and the real-root formula differ in the last bit,
        # degenerate lead, a real pair with b < 0, b = 0 with real roots, and
        # a lead 2 cos(phi) that vanishes at phi = pi/2
        w1, w2, w3, w4, a1, a2 = (
            np.array(col).reshape(-1, 1)
            for col in zip(
                (0.0, 1.0, 0.0, 0.0, 0.0, 0.0),
                (0.0, 1.0, 0.0, 0.0, 0.0, 1.0),
                (0.0, 1.0, 0.0, 2.0, 0.0, 1.0),
                (0.0, 1.0, 0.0, 0.2, 0.0, 0.1 * 0.1),
                (0.0, 1e-20, 0.0, 2.0, 0.0, 3.0),
                (0.0, 1.0, 0.0, -3.0, 0.0, 2.0),
                (0.0, 1.0, 0.0, 0.0, 0.0, -1.0),
                (1.0, 0.0, 0.5, 1.0, 0.25, 1.0),
            )
        )
        cos = np.cos(np.linspace(0.0, math.pi, 181))
        grid = _max_amplification(w2 + 2.0 * w1 * cos, w4 + 2.0 * w3 * cos, a2 + 2.0 * a1 * cos)
        for row in range(len(w1)):
            abc = [
                (
                    float(w2[row, 0] + 2.0 * w1[row, 0] * x),
                    float(w4[row, 0] + 2.0 * w3[row, 0] * x),
                    float(a2[row, 0] + 2.0 * a1[row, 0] * x),
                )
                for x in cos
            ]
            expected = [reference_amplification(*point) for point in abc]
            assert grid[row].tolist() == expected, row

    @pytest.mark.parametrize(
        "stencil, a1, a2",
        [
            # a degenerate lead, positive and negative: the linear root is
            # finite, but a root grows without bound as A -> 0
            ((0.0, 1e-20, 0.0, 2.0), 0.0, 3.0),
            ((0.0, -1e-20, 0.0, 2.0), 0.0, 3.0),
            # a lead of 1.1e-14 at one end and 1e-15 at the other
            ((0.25e-14, 0.6e-14, 0.0, 2.0), 0.0, 3.0),
            ((-0.25e-14, 0.6e-14, 0.0, 2.0), 0.0, 3.0),
            # negative leads with a real pair whose far root q/|A| is the
            # maximum, at phi = pi and at phi = 0
            ((0.1, -1.0, -0.5, 3.0), 0.0, 2.0),
            ((0.1, -1.0, 0.5, 3.0), 0.0, 2.0),
            # a negative lead with a complex pair, and a double zero root
            ((0.1, -1.0, 0.0, 0.5), 0.0, -2.0),
            ((0.1, -1.0, 0.0, 0.0), 0.0, 0.0),
        ],
    )
    def test_each_end_follows_the_scalar_formulas_whatever_the_lead(
        self, monkeypatch, stencil, a1, a2
    ):
        # the stencil and weights chosen directly, each lead keeping one sign
        # over [0, pi]: the row reads the first maximum of the two ends
        monkeypatch.setattr(stability, "basis_weights", lambda mesh: BasisWeights(a1, a2, 0, 0, 0, 0))
        monkeypatch.setattr(stability, "scheme_stencils", lambda *args: iter([stencil]))
        w1, w2, w3, w4 = stencil
        ends = [
            reference_amplification(w2 + 2.0 * w1 * x, w4 + 2.0 * w3 * x, a2 + 2.0 * a1 * x)
            for x in (1.0, -1.0)
        ]
        worst = 0 if ends[0] >= ends[1] else 1
        report = stability_scan(0.0, 0.0, 0.5, 0.1, MESH)
        assert (report.max_amplification, report.worst_phi) == (ends[worst], (0.0, math.pi)[worst])

    def test_ties_report_the_first_maximum(self):
        # with dt = 0 every mode has the double root 1, so all phi tie
        sweep = stability_sweep(3.0, 2.0, [0.0, 0.5, 1.0], 0.0, MESH)
        for theta, peak, phi in zip([0.0, 0.5, 1.0], sweep.max_amplification, sweep.worst_phi):
            assert (peak, phi) == (1.0, 0.0)
            assert reference_scan(3.0, 2.0, theta, 0.0, MESH, 181)[:2] == (1.0, 0.0)

    def test_nan_amplification_reads_unstable(self):
        # finite w-coefficients whose quadratic overflows: 2 w1 cos(phi) is inf
        mesh = UniformMesh(0.0, math.pi, 40)
        report = stability_scan(0.0, 0.0, 0.5, 5.6e152, mesh)
        assert math.isnan(report.max_amplification)
        assert not report.stable

    def test_sweep_builds_no_report_and_scan_builds_one(self, monkeypatch):
        # the sweep hands back its columns; only the one-theta view builds a report
        built = []
        new = StabilityReport.__new__

        def counted(cls, *args, **kwargs):
            built.append(args or kwargs)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(StabilityReport, "__new__", counted)
        mesh = UniformMesh(0.0, math.pi, 1000)
        stability_sweep(*SEED_301, np.linspace(0.0, 1.0, 5001), 1e-3, mesh)
        assert built == []
        stability_scan(*SEED_301, 0.5, 1e-3, mesh)
        assert len(built) == 1

    def test_every_row_takes_its_weights_from_the_one_stencil(self, monkeypatch):
        # the sweep forms no stencil product of its own: each row's w1..w4
        # come from basis.scheme_stencils, which the step matrix reads too
        rows = []
        stencils = stability.scheme_stencils

        def counted(*args, **kwargs):
            for stencil in stencils(*args, **kwargs):
                rows.append(stencil)
                yield stencil

        monkeypatch.setattr(stability, "scheme_stencils", counted)
        mesh = UniformMesh(0.0, math.pi, 1000)
        weights = basis_weights(mesh)
        thetas = np.linspace(0.0, 1.0, 5001).tolist()
        sweep = stability_sweep(*SEED_301, thetas, 1e-3, mesh)
        assert len(rows) == 5001
        assert rows == [scheme_stencil(*SEED_301, theta, 1e-3, weights) for theta in thetas]
        c_pi = weights.a2 - 2.0 * weights.a1
        assert sweep.rh2 == [(w2 - 2.0 * w1) - c_pi for w1, w2, _, _ in rows]

    @pytest.mark.xfail(
        strict=True,
        reason="B^2 overflows once |B| exceeds about 1.3e154, so the discriminant reads inf",
    )
    def test_huge_damping_or_mass_reads_stable(self):
        # the paper proves theta >= 1/2 stable; alpha = 1e153 reads 1, stable,
        # but at alpha = 1e154 (or beta = 1e80) the phi = 0 end's B^2 - 4AC
        # is inf - inf or inf, and the row reads inf, unstable
        mesh = UniformMesh(0.0, math.pi, 10)
        verdicts = [
            stability_scan(alpha, beta, 0.5, 1.0, mesh).stable
            for alpha, beta in [(1e154, 1.0), (0.0, 1e80)]
        ]
        assert verdicts == [True, True]

    @pytest.mark.xfail(
        strict=True,
        reason="a2 - 2a1 cancels near h = 2 pi / 3, where a1 and a2 share one pole",
    )
    @pytest.mark.parametrize("delta", [1e-9, 1e-10])
    def test_cells_just_below_two_thirds_pi_read_stable(self, delta):
        # the lead A keeps its sign here; 60-digit mpmath reads the rows
        # theta = 1/2 and 1 as 0.999375585329 and 0.998752338879, stable,
        # and so does the library at delta = 1e-8.  Closer in, basis_weights
        # loses every digit of a2 - 2a1 and the rows read inf, unstable
        mesh = UniformMesh(0.0, 3 * (2 * math.pi / 3 - delta), 3)
        sweep = stability_sweep(0.0, 0.0, [0.5, 1.0], 0.1, mesh)
        assert sweep.stable == [True, True]
        assert sweep.max_amplification == pytest.approx(
            [0.999375585329, 0.998752338879], rel=0.0, abs=1e-6
        )

    @pytest.mark.parametrize("dt", [1e154, 1e160, math.inf, math.nan])
    def test_non_finite_coefficients_name_dt(self, dt):
        with pytest.raises(ValueError, match="dt"):
            stability_sweep(1.0, 1.0, [0.0, 0.5, 1.0], dt, MESH)

    def test_validation_reports_the_first_bad_input(self):
        # alpha and beta, then theta, then dt, then the stencil w1..w4
        with pytest.raises(ValueError, match="alpha and beta must be nonnegative"):
            stability_sweep(-1.0, 2.0, [1.5], -0.1, MESH)
        with pytest.raises(ValueError, match="alpha and beta must be nonnegative"):
            stability_sweep(1.0, -2.0, [0.5], 0.1, MESH)
        with pytest.raises(ValueError, match=r"theta must lie in \[0, 1\], got 1.5"):
            stability_sweep(1.0, 2.0, [1.5], -0.1, MESH)
        with pytest.raises(ValueError, match="dt must be nonnegative, got -0.1"):
            stability_sweep(1.0, 2.0, [0.5], -0.1, MESH)
        with pytest.raises(ValueError, match="non-finite Fourier coefficients w1..w4"):
            stability_sweep(1.0, 2.0, [0.5], 1e160, MESH)

    def test_sweep_validation(self):
        with pytest.raises(ValueError, match=r"theta must lie in \[0, 1\], got 1.5"):
            stability_sweep(1.0, 2.0, [0.5, 1.5, -1.0], 0.1, MESH)
        with pytest.raises(ValueError, match="alpha and beta"):
            stability_sweep(math.nan, 2.0, [0.5], 0.1, MESH)

    @pytest.mark.parametrize("alpha, beta", [(math.inf, 1.0), (1.0, math.inf)])
    def test_infinite_alpha_or_beta_is_named_not_dt(self, alpha, beta):
        # no dt makes the stencil finite, so the message must not blame dt
        with pytest.raises(ValueError, match=f"^alpha and beta must be finite, got {alpha}, {beta}$"):
            stability_sweep(alpha, beta, [0.5], 0.1, MESH)


# (alpha, beta) that the benchmark's stability workload draws from seeds 301
# (alpha > beta: real roots at phi = 0) and 7 (alpha < beta)
SEED_301 = (3.2980116134776933, 1.733373462070224)
SEED_7 = (1.0279721087357567, 2.1273361825996346)


def assert_sweeps_equal(got, want, rows=slice(None)):
    """Every column bit for bit over ``rows``, with NaN equal to NaN."""
    for name, column, expected in zip(got._fields, got, want):
        got_bytes, want_bytes = (np.array(c[rows]).tobytes() for c in (column, expected))
        assert got_bytes == want_bytes, (name, rows)


def lead_zero(alpha, beta, theta, dt, mesh):
    """The phi in [0, pi] where the lead A = w2 + 2 w1 cos(phi) vanishes, or
    None when A keeps one strict sign there (A is affine in cos(phi))."""
    w1, w2, _, _ = scheme_stencil(alpha, beta, theta, dt, basis_weights(mesh))
    ends = (w2 + 2.0 * w1, w2 - 2.0 * w1)
    if min(ends) > 0.0 or max(ends) < 0.0:
        return None
    if w1 == 0.0:
        return 0.0
    return math.acos(min(1.0, max(-1.0, -w2 / (2.0 * w1))))


# cell widths on both sides of 2 pi / 3, where the scheme's lead first
# vanishes and the spline normalisation degenerates
FINE_CELL = st.floats(1e-3, 2.09)
COARSE_CELL = st.floats(2.1, 3.14)
# just above 2 pi / 3, where rounding in basis_weights makes the lead A
# negative at both ends (a2 - 2 a1 loses every digit), so every row takes
# the negative-lead side of the per-end formula
JUST_COARSE_CELL = 2.0 * math.pi / 3.0 + 1e-10


def magnitude():
    return st.one_of(
        st.just(0.0), st.floats(0.0, 5.0), st.floats(-3.0, 3.0).map(lambda e: 10.0**e)
    )


class TestBandedSweep:
    """The two-end sweep against the oracle's full phi grid."""

    @given(
        alpha=magnitude(),
        beta=magnitude(),
        thetas=st.lists(st.floats(0.0, 1.0), max_size=40).map(lambda t: [0.0, 0.5, 1.0] + t),
        dt=st.one_of(st.just(0.0), st.floats(-11.0, 1.5).map(lambda e: 10.0**e)),
        n=st.integers(3, 3000),
        cell=st.one_of(st.floats(1e-3, 3.14), FINE_CELL, COARSE_CELL),
    )
    @example(alpha=0.0, beta=0.0, thetas=[0.0, 0.5, 1.0], dt=0.1, n=3, cell=JUST_COARSE_CELL)
    @settings(max_examples=150, deadline=None)
    def test_equals_the_full_grid_oracle(self, alpha, beta, thetas, dt, n, cell):
        mesh = UniformMesh(0.0, n * cell, n)
        try:
            ends = full_grid_sweep(alpha, beta, thetas, dt, mesh, phi_samples=2)
        except ValueError as error:
            with pytest.raises(ValueError, match=re.escape(str(error))):
                stability_sweep(alpha, beta, thetas, dt, mesh)
            return
        got = stability_sweep(alpha, beta, thetas, dt, mesh)
        full = full_grid_sweep(alpha, beta, thetas, dt, mesh)
        for i, theta in enumerate(thetas):
            zero = lead_zero(alpha, beta, theta, dt, mesh)
            if zero is not None:
                # a root is unbounded where A vanishes
                assert got.max_amplification[i] == math.inf and not got.stable[i]
                assert got.worst_phi[i] == pytest.approx(zero, abs=1e-12)
                assert rh(got, i) == rh(ends, i)
                continue
            assert_sweeps_equal(got, ends, slice(i, i + 1))
            # the full grid holds both ends, so it can only read higher; from
            # dt = 1e-4 up it reads the same maximum and verdict to rounding
            assert not got.max_amplification[i] > full.max_amplification[i]
            if dt >= 1e-4:
                assert got.stable[i] == full.stable[i]
                if math.isfinite(full.max_amplification[i]):
                    assert full.max_amplification[i] <= got.max_amplification[i] * (1.0 + 1e-14)

    @pytest.mark.parametrize("alpha, beta", [SEED_301, SEED_7])
    def test_benchmark_sweeps_equal_the_full_grid(self, alpha, beta):
        # every row but the theta = 0 tie of alpha < beta equals the full grid
        # bit for bit; the tie moves worst_phi to an end and its amplification
        # by at most an ulp
        mesh = UniformMesh(0.0, math.pi, 1000)
        thetas = np.linspace(0.0, 1.0, 5001)
        sweep = stability_sweep(alpha, beta, thetas, 1e-3, mesh)
        full = full_grid_sweep(alpha, beta, thetas, 1e-3, mesh)
        assert_sweeps_equal(sweep, full, slice(1, None))
        if alpha >= beta:
            assert_sweeps_equal(sweep, full, slice(0, 1))
        assert sweep.worst_phi[0] in (0.0, math.pi)
        assert sweep.max_amplification[0] == pytest.approx(full.max_amplification[0], rel=2.3e-16)
        assert (rh(sweep, 0), sweep.stable[0]) == (rh(full, 0), full.stable[0])

    def test_rounding_level_discriminant_reads_stable(self):
        # at this dt the discriminant is rounding noise away from the ends: a
        # full grid takes the real-root branch there and reads up to 2.7e-8
        # above 1, so 10 of these rows read unstable; the exact maximum is 1,
        # at phi = 0
        mesh = UniformMesh(0.0, math.pi, 2641)
        sweep = stability_sweep(0.0, 0.0, np.linspace(0.0, 1.0, 21), 1.07e-11, mesh)
        assert sweep.max_amplification == [1.0] * 21
        assert sweep.stable == [True] * 21

    @pytest.mark.xfail(
        strict=True,
        reason="|delta| at phi = 0 rounds above 1 + 1e-12 next to the root 1",
    )
    def test_undamped_midpoint_reads_stable_on_a_fine_mesh(self):
        # the paper proves theta >= 1/2 stable for every dt and h, but at
        # n = 10000 the computed phi = 0 amplification is 1.0000082
        report = stability_scan(0.0, 0.0, 0.5, 0.2, UniformMesh(0.0, math.pi, 10000))
        assert report.stable

    @given(
        alpha=magnitude(),
        beta=magnitude(),
        theta=st.floats(0.0, 1.0),
        dt=st.floats(-11.0, 1.5).map(lambda e: 10.0**e),
        cell=st.one_of(FINE_CELL, COARSE_CELL),
    )
    @settings(max_examples=100, deadline=None)
    def test_scheme_lead_keeps_its_sign_below_two_thirds_pi(self, alpha, beta, theta, dt, cell):
        # the two-end rule needs A of one sign on [-1, 1]; A is affine in
        # cos(phi).  Below h = 2 pi / 3 the weights keep A > 0; above it A
        # changes sign on every row, which then reads unbounded
        weights = basis_weights(UniformMesh(0.0, 3 * cell, 3))
        w1, w2, w3, w4 = scheme_stencil(alpha, beta, theta, dt, weights)
        assume(np.isfinite([w1, w2, w3, w4]).all())
        if cell < 2.0 * math.pi / 3.0:
            assert w2 + 2.0 * w1 > 0.0
            assert w2 - 2.0 * w1 > 0.0
        else:
            assert w2 + 2.0 * w1 < 0.0 < w2 - 2.0 * w1
            report = stability_scan(alpha, beta, theta, dt, UniformMesh(0.0, 3 * cell, 3))
            assert report.max_amplification == math.inf and not report.stable

    def test_coarse_mesh_lead_zero_reads_unstable(self):
        # h = 2.5: A is about -8.6 at phi = 0 and 1.96 at phi = pi, so it
        # vanishes in between and a root is unbounded there.  The two ends
        # alone read 0.999 and 0.996, a false "stable"; the full grid reads 17
        # near the zero of A
        mesh = UniformMesh(0.0, 7.5, 3)
        report = stability_scan(0.0, 0.0, 0.5, 0.1, mesh)
        zero = lead_zero(0.0, 0.0, 0.5, 0.1, mesh)
        assert report.max_amplification == math.inf
        assert not report.stable
        assert report.worst_phi == pytest.approx(zero, abs=1e-12)
        assert report.worst_phi == pytest.approx(2.2511496454009432, rel=1e-12)
        full = full_grid_sweep(0.0, 0.0, [0.5], 0.1, mesh)
        assert full.stable == [False]
        assert full.worst_phi[0] == pytest.approx(report.worst_phi, abs=math.pi / 720)

    @pytest.mark.parametrize("alpha, beta", [(0.5, 1.0), (1.0, 2.9), (2.0, 2.5)])
    def test_theta_zero_tie_has_the_exact_amplification(self, alpha, beta):
        # at theta = 0, w1 = lambda a1 and w2 = lambda a2 with lambda = 1 + 2 alpha k,
        # so with alpha < beta every phi is a complex pair with |delta|^2 = 1/lambda
        # exactly: the amplification is pinned, but rounding names the end
        mesh = UniformMesh(0.0, math.pi, 1000)
        dt = 1e-3
        sweep = stability_sweep(alpha, beta, [0.0, 1e-10], dt, mesh)
        for peak, phi, stable in zip(sweep.max_amplification, sweep.worst_phi, sweep.stable):
            assert abs(peak * math.sqrt(1.0 + 2.0 * alpha * dt) - 1.0) <= 1e-15
            assert phi in (0.0, math.pi)
            assert stable


class TestScalarSweep:
    """The scalar loop against the vectorised two-end sweep it replaced."""

    @given(
        alpha=magnitude(),
        beta=magnitude(),
        thetas=st.lists(st.floats(0.0, 1.0), max_size=40).map(lambda t: [0.0, 0.5, 1.0] + t),
        dt=st.one_of(
            st.just(0.0), st.floats(-11.0, 1.5).map(lambda e: 10.0**e), st.just(5.6e152)
        ),
        n=st.integers(3, 3000),
        cell=st.one_of(FINE_CELL, COARSE_CELL),
        as_array=st.booleans(),
    )
    # NaN rows, and finite weights whose rows read rh1 = -inf and +inf
    @example(
        alpha=0.0, beta=0.0, thetas=[0.0, 0.25, 0.5, 0.75, 1.0], dt=5.6e152, n=40,
        cell=math.pi / 40, as_array=True,
    )
    @example(
        alpha=3.0, beta=0.5, thetas=[0.0, 0.5, 1.0], dt=0.1, n=3, cell=JUST_COARSE_CELL,
        as_array=False,
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_the_vectorised_two_end_sweep_bit_for_bit(
        self, alpha, beta, thetas, dt, n, cell, as_array
    ):
        mesh = UniformMesh(0.0, n * cell, n)
        argument = np.array(thetas) if as_array else thetas
        try:
            want = two_end_sweep(alpha, beta, thetas, dt, mesh)
        except ValueError as error:
            with pytest.raises(ValueError, match=f"^{re.escape(str(error))}$"):
                stability_sweep(alpha, beta, argument, dt, mesh)
            return
        got = stability_sweep(alpha, beta, argument, dt, mesh)
        worst_phi = list(want.worst_phi)
        for i, theta in enumerate(thetas):
            zero = lead_zero(alpha, beta, theta, dt, mesh)
            if zero is not None:
                # where the lead vanishes the library takes math.acos, whose
                # result does not depend on the CPU as np.arccos's can
                assert got.max_amplification[i] == math.inf
                worst_phi[i] = zero
        assert_sweeps_equal(got, want._replace(worst_phi=worst_phi))
        assert all(type(value) is float for column in got[:5] for value in column)
        assert all(type(value) is bool for value in got.stable)
