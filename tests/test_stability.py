"""Fourier-mode amplification: coefficients, roots, scans."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from telespline import stability
from telespline.basis import UniformMesh, basis_weights
from telespline.stability import (
    _BLOCK_POINTS,
    FourierCoefficients,
    _max_amplification_grid,
    _proven_bands,
    amplification_roots,
    fourier_coefficients,
    routh_hurwitz_conditions,
    stability_scan,
    stability_sweep,
)

from oracle import full_grid_sweep

MESH = UniformMesh(0.0, math.pi, 20)
WEIGHTS = basis_weights(MESH)


class TestFourierCoefficients:
    def test_matches_scheme_weights(self):
        alpha, beta, theta, k = 4.0, 2.0, 0.7, 0.05
        fc = fourier_coefficients(alpha, beta, theta, k, WEIGHTS)
        lam = 1 + 2 * alpha * k + k * k * theta * beta**2
        mu = 2 + 2 * alpha * k - (1 - theta) * k * k * beta**2
        assert fc.w1 == pytest.approx(lam * WEIGHTS.a1 - k * k * theta * WEIGHTS.a5)
        assert fc.w2 == pytest.approx(lam * WEIGHTS.a2 - k * k * theta * WEIGHTS.a6)
        assert fc.w3 == pytest.approx(mu * WEIGHTS.a1 + (1 - theta) * k * k * WEIGHTS.a5)
        assert fc.w4 == pytest.approx(mu * WEIGHTS.a2 + (1 - theta) * k * k * WEIGHTS.a6)

    def test_zero_step_collapses_to_identity_mode(self):
        # with k = 0 the three levels carry weights (1, 2, 1): w1 = a1,
        # w2 = a2, w3 = 2 a1, w4 = 2 a2, so both roots are exactly 1
        fc = fourier_coefficients(3.0, 2.0, 0.5, 0.0, WEIGHTS)
        assert fc.w1 == WEIGHTS.a1
        assert fc.w2 == WEIGHTS.a2
        assert fc.w3 == 2.0 * WEIGHTS.a1
        assert fc.w4 == 2.0 * WEIGHTS.a2
        report = stability_scan(3.0, 2.0, 0.5, 0.0, MESH)
        assert report.max_amplification == 1.0
        assert report.rh_conditions[1] == 0.0
        assert report.rh_conditions[2] == 0.0
        assert report.rh_conditions[0] >= 0.0
        assert report.stable

    def test_validation(self):
        with pytest.raises(ValueError):
            fourier_coefficients(-1.0, 2.0, 0.5, 0.1, WEIGHTS)
        with pytest.raises(ValueError):
            fourier_coefficients(1.0, 2.0, 1.5, 0.1, WEIGHTS)
        with pytest.raises(ValueError):
            fourier_coefficients(1.0, 2.0, 0.5, -0.1, WEIGHTS)


def raw_coefficients(w1, w2, w3, w4, a1=0.0, a2=0.0):
    """Coefficients chosen directly, bypassing the scheme formulas."""
    return FourierCoefficients(w1=w1, w2=w2, w3=w3, w4=w4, a1=a1, a2=a2, a5=0.0, a6=0.0)


class TestAmplificationRoots:
    def test_double_zero_root(self):
        # delta^2 = 0
        fc = raw_coefficients(0.0, 1.0, 0.0, 0.0)
        r1, r2 = amplification_roots(fc, math.pi / 2)
        assert r1 == 0.0 and r2 == 0.0

    def test_pure_imaginary_pair(self):
        # delta^2 + 1 = 0
        fc = raw_coefficients(0.0, 1.0, 0.0, 0.0, a1=0.0, a2=1.0)
        r1, r2 = amplification_roots(fc, math.pi / 2)
        assert sorted([r1, r2], key=lambda z: z.imag) == [complex(0, -1), complex(0, 1)]
        assert abs(r1) == pytest.approx(1.0)

    def test_double_unit_root(self):
        # delta^2 - 2 delta + 1 = 0
        fc = raw_coefficients(0.0, 1.0, 0.0, 2.0, a1=0.0, a2=1.0)
        r1, r2 = amplification_roots(fc, math.pi / 2)
        assert r1 == pytest.approx(1.0)
        assert r2 == pytest.approx(1.0)

    def test_degenerate_lead_is_marked_infinite(self):
        fc = raw_coefficients(0.0, 1e-20, 0.0, 2.0, a1=0.0, a2=3.0)
        r1, r2 = amplification_roots(fc, math.pi / 2)
        assert r2 == complex(math.inf, 0.0)
        assert r1 == pytest.approx(1.5)  # linear root C / B
        fc = raw_coefficients(0.0, 1e-20, 0.0, 1e-20, a1=0.0, a2=3.0)
        r1, r2 = amplification_roots(fc, math.pi / 2)
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
        fc = fourier_coefficients(alpha, beta, theta, dt, WEIGHTS)
        a, b, c = (
            fc.w2 + 2 * fc.w1 * math.cos(phi),
            fc.w4 + 2 * fc.w3 * math.cos(phi),
            fc.a2 + 2 * fc.a1 * math.cos(phi),
        )
        if abs(a) < 1e-10:
            return
        r1, r2 = amplification_roots(fc, phi)
        scale = max(1.0, abs(b / a), abs(c / a))
        assert abs(r1 * r2 - c / a) <= 1e-9 * scale
        assert abs(r1 + r2 - b / a) <= 1e-9 * scale


class TestRouthHurwitz:
    def test_triple_matches_quadratic(self):
        fc = fourier_coefficients(4.0, 2.0, 0.5, 0.1, WEIGHTS)
        phi = 1.3
        a = fc.w2 + 2 * fc.w1 * math.cos(phi)
        b = fc.w4 + 2 * fc.w3 * math.cos(phi)
        c = fc.a2 + 2 * fc.a1 * math.cos(phi)
        assert routh_hurwitz_conditions(fc, phi) == pytest.approx(
            (a + b + c, a - c, a - b + c)
        )

    def test_pi_mode_rh3_ignores_damping_and_theta(self):
        # at phi = pi the alpha and theta terms cancel out of A - B + C,
        # leaving k^2 [beta^2 (a2 - 2 a1) - (a6 - 2 a5)]
        k = 0.07
        expected = None
        for alpha, theta in [(0.0, 0.5), (4.0, 0.5), (4.0, 1.0), (9.0, 0.75)]:
            fc = fourier_coefficients(alpha, 2.0, theta, k, WEIGHTS)
            rh3 = routh_hurwitz_conditions(fc, math.pi)[2]
            if expected is None:
                expected = rh3
            assert rh3 == pytest.approx(expected, rel=1e-12)
        closed_form = k * k * (
            4.0 * (WEIGHTS.a2 - 2 * WEIGHTS.a1) - (WEIGHTS.a6 - 2 * WEIGHTS.a5)
        )
        assert expected == pytest.approx(closed_form, rel=1e-12)


class TestScan:
    def test_scan_agrees_with_scalar_roots(self):
        report = stability_scan(4.0, 2.0, 0.5, 0.05, MESH, phi_samples=181)
        fc = fourier_coefficients(4.0, 2.0, 0.5, 0.05, WEIGHTS)
        worst = max(
            max(abs(r) for r in amplification_roots(fc, float(phi)))
            for phi in np.linspace(0.0, math.pi, 181)
        )
        assert report.max_amplification == pytest.approx(worst, rel=1e-12)
        assert 0.0 <= report.worst_phi <= math.pi

    def test_phi_samples_floor(self):
        with pytest.raises(ValueError, match="phi_samples"):
            stability_scan(4.0, 2.0, 0.5, 0.05, MESH, phi_samples=1)

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
        report = stability_scan(alpha, beta, theta, dt, MESH, phi_samples=181)
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
    fc = fourier_coefficients(alpha, beta, theta, dt, basis_weights(mesh))
    phis = np.linspace(0.0, math.pi, phi_samples)
    amps = [
        reference_amplification(
            fc.w2 + 2.0 * fc.w1 * cos, fc.w4 + 2.0 * fc.w3 * cos, fc.a2 + 2.0 * fc.a1 * cos
        )
        for cos in np.cos(phis).tolist()
    ]
    worst = max(range(phi_samples), key=amps.__getitem__)  # first maximum
    a, b, c = fc.w2 - 2.0 * fc.w1, fc.w4 - 2.0 * fc.w3, fc.a2 - 2.0 * fc.a1
    return amps[worst], float(phis[worst]), (a + b + c, a - c, a - b + c)


class TestSweep:
    @given(
        alpha=st.floats(0.0, 10.0),
        beta=st.floats(0.0, 5.0),
        log_dt=st.floats(-4.0, 1.0),
        phi_samples=st.sampled_from([2, 3, 181, 721]),
        length=st.sampled_from(["one", "rows-1", "rows", "rows+1", "ragged"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_rows_equal_single_scans_bit_for_bit(
        self, alpha, beta, log_dt, phi_samples, length, seed
    ):
        dt = 10.0**log_dt
        rows = _BLOCK_POINTS // phi_samples
        count = {"one": 1, "rows-1": rows - 1, "rows": rows, "rows+1": rows + 1}.get(
            length, 2 * rows + 3
        )
        thetas = np.random.default_rng(seed).uniform(0.0, 1.0, count)
        thetas[:: max(1, count // 3)] = 0.5  # the stability boundary shows up too
        reports = stability_sweep(alpha, beta, thetas, dt, MESH, phi_samples)
        assert len(reports) == count
        # the scalar reference is slow in Python: check the rows at block
        # edges and a spread of the others
        edges = {0, rows - 1, rows, 2 * rows - 1, 2 * rows, count - 1}
        spread = range(0, count, max(1, count // 25))
        for i in sorted(i for i in edges.union(spread) if i < count):
            theta = float(thetas[i])
            assert reports[i] == stability_scan(alpha, beta, theta, dt, MESH, phi_samples)
            max_amp, worst_phi, rh = reference_scan(alpha, beta, theta, dt, MESH, phi_samples)
            assert reports[i].max_amplification == max_amp
            assert reports[i].worst_phi == worst_phi
            assert reports[i].rh_conditions == rh
            assert reports[i].stable == (max_amp <= 1.0 + 1e-12)
            fc = fourier_coefficients(alpha, beta, theta, dt, WEIGHTS)
            root_max = max(abs(r) for r in amplification_roots(fc, worst_phi))
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
        for row in range(len(w1)):
            fc = FourierCoefficients(
                w1=w1[row : row + 1], w2=w2[row : row + 1],
                w3=w3[row : row + 1], w4=w4[row : row + 1],
                a1=float(a1[row, 0]), a2=float(a2[row, 0]), a5=0.0, a6=0.0,
            )
            grid = _max_amplification_grid(fc, cos)[0]
            expected = [
                reference_amplification(
                    float(w2[row, 0] + 2.0 * w1[row, 0] * x),
                    float(w4[row, 0] + 2.0 * w3[row, 0] * x),
                    float(a2[row, 0] + 2.0 * a1[row, 0] * x),
                )
                for x in cos
            ]
            assert grid.tolist() == expected, row

    def test_ties_report_the_first_maximum(self):
        # with dt = 0 every mode has the double root 1, so all phi tie
        reports = stability_sweep(3.0, 2.0, [0.0, 0.5, 1.0], 0.0, MESH, phi_samples=181)
        for theta, report in zip([0.0, 0.5, 1.0], reports):
            assert (report.max_amplification, report.worst_phi) == (1.0, 0.0)
            assert reference_scan(3.0, 2.0, theta, 0.0, MESH, 181)[:2] == (1.0, 0.0)

    def test_nan_amplification_reads_unstable(self):
        # finite w-coefficients whose quadratic overflows: 2 w1 cos(phi) is inf
        mesh = UniformMesh(0.0, math.pi, 40)
        report = stability_scan(0.0, 0.0, 0.5, 5.6e152, mesh)
        assert math.isnan(report.max_amplification)
        assert not report.stable

    @pytest.mark.parametrize("dt", [1e154, 1e160, math.inf, math.nan])
    def test_non_finite_coefficients_name_dt(self, dt):
        with pytest.raises(ValueError, match="dt"):
            stability_sweep(1.0, 1.0, [0.0, 0.5, 1.0], dt, MESH)

    def test_sweep_validation(self):
        with pytest.raises(ValueError, match=r"theta must lie in \[0, 1\], got 1.5"):
            stability_sweep(1.0, 2.0, [0.5, 1.5, -1.0], 0.1, MESH)
        with pytest.raises(ValueError, match="alpha and beta"):
            stability_sweep(math.nan, 2.0, [0.5], 0.1, MESH)
        with pytest.raises(ValueError, match="phi_samples"):
            stability_sweep(1.0, 2.0, [0.5], 0.1, MESH, phi_samples=1)


# (alpha, beta) that the benchmark's stability workload draws from seeds 301
# (alpha > beta: real roots at phi = 0) and 7 (alpha < beta)
SEED_301 = (3.2980116134776933, 1.733373462070224)
SEED_7 = (1.0279721087357567, 2.1273361825996346)


def assert_reports_equal(reports, expected):
    """Bit for bit, with NaN equal to NaN."""
    assert len(reports) == len(expected)
    for got, want in zip(reports, expected):
        got_floats = (got.max_amplification, got.worst_phi, *got.rh_conditions)
        want_floats = (want.max_amplification, want.worst_phi, *want.rh_conditions)
        assert np.array(got_floats).tobytes() == np.array(want_floats).tobytes(), (got, want)
        assert got.stable == want.stable


@pytest.fixture
def grid_calls(monkeypatch):
    """(theta rows, phi columns) of every call of the grid kernel."""
    calls = []

    def counted(fc, cos):
        calls.append((np.size(fc.w1), np.size(cos)))
        return _max_amplification_grid(fc, cos)

    monkeypatch.setattr(stability, "_max_amplification_grid", counted)
    return calls


def magnitude():
    return st.one_of(
        st.just(0.0), st.floats(0.0, 5.0), st.floats(-3.0, 3.0).map(lambda e: 10.0**e)
    )


class TestBandedSweep:
    @given(
        alpha=magnitude(),
        beta=magnitude(),
        thetas=st.lists(st.floats(0.0, 1.0), max_size=40).map(lambda t: [0.0, 0.5, 1.0] + t),
        dt=st.one_of(st.just(0.0), st.floats(-11.0, 1.5).map(lambda e: 10.0**e)),
        n=st.integers(3, 3000),
        phi_samples=st.sampled_from([2, 3, 4, 5, 181, 721]),
    )
    @settings(max_examples=150, deadline=None)
    def test_equals_the_full_grid_oracle(self, alpha, beta, thetas, dt, n, phi_samples):
        mesh = UniformMesh(0.0, math.pi, n)
        try:
            expected = full_grid_sweep(alpha, beta, thetas, dt, mesh, phi_samples)
        except ValueError as error:
            with pytest.raises(ValueError, match=re.escape(str(error))):
                stability_sweep(alpha, beta, thetas, dt, mesh, phi_samples)
            return
        assert_reports_equal(stability_sweep(alpha, beta, thetas, dt, mesh, phi_samples), expected)

    @pytest.mark.parametrize("alpha, beta", [SEED_301, SEED_7])
    def test_benchmark_sweeps_equal_the_full_grid(self, alpha, beta):
        mesh = UniformMesh(0.0, math.pi, 1000)
        thetas = np.linspace(0.0, 1.0, 5001)
        assert_reports_equal(
            stability_sweep(alpha, beta, thetas, 1e-3, mesh),
            full_grid_sweep(alpha, beta, thetas, 1e-3, mesh),
        )

    def test_concave_discriminant_takes_the_full_grid(self):
        # at beta * dt = 4 and theta = 0.5, q2 < 0 and the discriminant's real
        # band covers the phi = pi end; theta = 0 gives q2 > 0 with real roots
        # on every sample
        mesh = UniformMesh(0.0, math.pi, 100)
        thetas = [0.0, 0.5]
        fc = fourier_coefficients(1.0, 400.0, np.reshape(thetas, (-1, 1)), 0.01, basis_weights(mesh))
        q2 = 4.0 * fc.w3 * fc.w3 - 16.0 * fc.w1 * fc.a1
        assert q2[1, 0] < 0.0 < q2[0, 0]
        assert _proven_bands(fc, np.cos(np.linspace(0.0, math.pi, 721)))[0].tolist() == [721, 721]
        assert_reports_equal(
            stability_sweep(1.0, 400.0, thetas, 0.01, mesh),
            full_grid_sweep(1.0, 400.0, thetas, 0.01, mesh),
        )

    def test_rounding_level_discriminant_takes_the_full_grid(self):
        # at this dt the discriminant is within a few ulps of 0 on the skipped
        # span: kernel entries there can take the real-root branch, whose
        # larger root exceeds sqrt(C/A) by about sqrt(ulp), so only check 1
        # (a clearly negative discriminant) keeps these rows on the full grid
        mesh = UniformMesh(0.0, math.pi, 2641)
        thetas = np.linspace(0.0, 1.0, 21)
        assert_reports_equal(
            stability_sweep(0.0, 0.0, thetas, 1.07e-11, mesh),
            full_grid_sweep(0.0, 0.0, thetas, 1.07e-11, mesh),
        )

    def test_ill_conditioned_lead_is_unproven(self):
        # both rows: B = 2 + 2c and q2 > 0, with real roots at c = 0 and just
        # below -1, so phi > pi/2 is a complex run; the first row's
        # A = 1 + 0.998 c comes within 0.002 of 0 at c = -1, below 1/100 of
        # its term sum, so its sqrt(C/A) is not known to the edge gap
        fc = FourierCoefficients(
            w1=np.array([[0.499], [0.45]]), w2=np.array([[1.0], [1.0]]),
            w3=np.array([[1.0], [1.0]]), w4=np.array([[2.0], [2.0]]),
            a1=0.45, a2=1.0, a5=0.0, a6=0.0,
        )
        left, right = _proven_bands(fc, np.cos(np.linspace(0.0, math.pi, 721)))
        assert (left[0], right[0]) == (721, 0)
        assert left[1] + right[1] < 721

    def test_failed_gap_check_falls_back_to_the_full_grid(self, grid_calls):
        # with alpha < beta there is no real root, and near theta = 0 C/A is
        # flat in phi (exactly constant at theta = 0), so the maximum cannot
        # beat the edges of the skipped span: the rounding of the skipped
        # entries decides the first maximum
        mesh = UniformMesh(0.0, math.pi, 1000)
        thetas = [0.0, 1e-12, 1e-9, 0.5]
        reports = stability_sweep(*SEED_7, thetas, 1e-3, mesh)
        assert grid_calls[0][0] == 4 and grid_calls[0][1] < 721
        assert grid_calls[1:] == [(3, 721)]
        assert_reports_equal(reports, full_grid_sweep(*SEED_7, thetas, 1e-3, mesh))
        assert reports[0].worst_phi > 0.0

    def test_benchmark_sweep_skips_most_of_the_grid(self, grid_calls):
        mesh = UniformMesh(0.0, math.pi, 1000)
        stability_sweep(*SEED_301, np.linspace(0.0, 1.0, 5001), 1e-3, mesh)
        assert sum(rows * cols for rows, cols in grid_calls) <= 0.2 * 5001 * 721

    def test_ties_take_the_full_grid(self, grid_calls):
        # dt = 0: q2 = 0, so no row is proven and every phi ties
        stability_sweep(3.0, 2.0, [0.0, 0.5, 1.0], 0.0, MESH, phi_samples=181)
        assert grid_calls == [(3, 181)]
