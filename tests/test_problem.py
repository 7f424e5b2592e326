"""Built-in problems: data values, consistency diagnostics, PDE residuals."""

import dataclasses
import math

import numpy as np
import pytest

from telespline.basis import UniformMesh
from telespline.metrics import error_norms
from telespline.problem import (
    BoundaryKind,
    BoundarySpec,
    Diagnostic,
    TelegraphProblem,
    _memo,
    builtin_problem,
    central_slope,
    validate,
)
from telespline.solver import SchemeParams, run


class TestBuiltinData:
    def test_problem_one_values(self):
        p = builtin_problem(1)
        assert (p.alpha, p.beta) == (4.0, 2.0)
        assert p.domain == (0.0, math.pi)
        assert p.boundary.kind is BoundaryKind.DIRICHLET
        # forcing at (1, 0) is -2 sin 1
        assert p.forcing(1.0, 0.0) == pytest.approx(-2 * math.sin(1.0), rel=1e-15)
        assert p.exact(math.pi / 2, 0.0) == 1.0
        assert p.boundary.left(0.7) == 0.0
        assert p.initial_velocity(1.0) == pytest.approx(-math.sin(1.0))

    def test_problem_two_values(self):
        p = builtin_problem(2)
        assert (p.alpha, p.beta) == (10.0, 5.0)
        assert p.t_max == 1.0
        assert p.boundary.right(0.0) == pytest.approx(math.tan(1.0), rel=1e-15)
        assert p.exact(1.0, 1.0) == pytest.approx(math.tan(1.0), rel=1e-15)

    def test_problem_three_starts_from_rest(self):
        p = builtin_problem(3)
        for x in (0.0, 0.3, 1.0):
            assert p.initial_value(x) == 0.0
            assert p.initial_velocity(x) == 0.0
        assert p.exact(0.5, 1.0) == pytest.approx(0.25 * math.exp(-1.0), rel=1e-14)

    def test_problem_four_values(self):
        p = builtin_problem(4)
        assert p.boundary.right(0.0) == pytest.approx(math.sin(1.0), rel=1e-15)
        assert p.forcing(1.0, 0.0) == pytest.approx(4 * math.sin(1.0), rel=1e-14)

    def test_problem_five_is_neumann(self):
        p = builtin_problem(5)
        assert p.boundary.kind is BoundaryKind.NEUMANN
        assert p.domain == (0.0, 2 * math.pi)
        # u_x = exp(-t) cos(x) equals exp(-t) at both ends
        assert p.boundary.left(0.0) == 1.0
        assert p.boundary.right(0.0) == 1.0
        assert p.boundary.left(2.0) == pytest.approx(math.exp(-2.0), rel=1e-15)

    def test_unknown_ids_rejected(self):
        for bad in (0, 6, -1, 99):
            with pytest.raises(ValueError, match="unknown builtin problem"):
                builtin_problem(bad)

    def test_all_builtins_have_exact_and_slope(self):
        for pid in range(1, 6):
            p = builtin_problem(pid)
            assert p.exact is not None
            assert p.initial_slope is not None


class TestConstruction:
    def test_domain_must_be_increasing(self):
        with pytest.raises(ValueError):
            TelegraphProblem(
                alpha=1.0,
                beta=1.0,
                domain=(1.0, 0.0),
                forcing=lambda x, t: 0.0,
                initial_value=lambda x: 0.0,
                initial_velocity=lambda x: 0.0,
                boundary=BoundarySpec(
                    BoundaryKind.DIRICHLET, lambda t: 0.0, lambda t: 0.0
                ),
            )

    def test_negative_damping_rejected(self):
        with pytest.raises(ValueError):
            TelegraphProblem(
                alpha=-1.0,
                beta=1.0,
                domain=(0.0, 1.0),
                forcing=lambda x, t: 0.0,
                initial_value=lambda x: 0.0,
                initial_velocity=lambda x: 0.0,
                boundary=BoundarySpec(
                    BoundaryKind.DIRICHLET, lambda t: 0.0, lambda t: 0.0
                ),
            )

    @pytest.mark.parametrize("alpha, beta", [(math.nan, 1.0), (1.0, math.nan)])
    def test_nan_coefficients_rejected(self, alpha, beta):
        with pytest.raises(ValueError, match="must be nonnegative"):
            dataclasses.replace(builtin_problem(1), alpha=alpha, beta=beta)

    @pytest.mark.parametrize("alpha, beta", [(math.inf, 1.0), (1.0, math.inf)])
    def test_infinite_coefficients_rejected(self, alpha, beta):
        # before, run() failed later with "non-finite entries in sub"
        message = f"^alpha and beta must be finite, got {alpha}, {beta}$"
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(builtin_problem(1), alpha=alpha, beta=beta)

    def test_exact_must_extend_initial_profile(self):
        with pytest.raises(ValueError, match="initial profile"):
            TelegraphProblem(
                alpha=1.0,
                beta=1.0,
                domain=(0.0, 1.0),
                forcing=lambda x, t: 0.0,
                initial_value=lambda x: 0.0,
                initial_velocity=lambda x: 0.0,
                boundary=BoundarySpec(
                    BoundaryKind.DIRICHLET, lambda t: 0.0, lambda t: 0.0
                ),
                exact=lambda x, t: 1.0,
            )


class TestValidate:
    def test_builtins_are_consistent(self):
        for pid in range(1, 6):
            p = builtin_problem(pid)
            mesh = UniformMesh(p.domain[0], p.domain[1], 12)
            assert validate(p, mesh) == []

    def test_dirichlet_corner_mismatch_reported(self):
        p = TelegraphProblem(
            alpha=1.0,
            beta=1.0,
            domain=(0.0, 1.0),
            forcing=lambda x, t: 0.0,
            initial_value=lambda x: 0.0,
            initial_velocity=lambda x: 0.0,
            boundary=BoundarySpec(BoundaryKind.DIRICHLET, lambda t: 1.0, lambda t: 0.0),
        )
        found = validate(p, UniformMesh(0.0, 1.0, 8))
        assert len(found) == 1
        assert "left" in found[0].condition
        assert found[0].magnitude == pytest.approx(1.0)
        assert "left" in str(found[0])

    def test_neumann_corner_mismatch_reported(self):
        p = TelegraphProblem(
            alpha=1.0,
            beta=1.0,
            domain=(0.0, 1.0),
            forcing=lambda x, t: 0.0,
            initial_value=lambda x: x * x,  # slope 0 at left end, 2 at right
            initial_velocity=lambda x: 0.0,
            boundary=BoundarySpec(BoundaryKind.NEUMANN, lambda t: 0.0, lambda t: 5.0),
        )
        found = validate(p, UniformMesh(0.0, 1.0, 8))
        assert len(found) == 1
        assert "right" in found[0].condition
        assert found[0].magnitude == pytest.approx(3.0, abs=1e-6)

    def test_exact_vs_initial_profile_mismatch_reported(self):
        # 0.2 is a knot of 5 cells but none of the probes i/32 that the
        # construction checks, so only validate() sees the mismatch
        p = TelegraphProblem(
            alpha=1.0,
            beta=1.0,
            domain=(0.0, 1.0),
            forcing=lambda x, t: 0.0,
            initial_value=lambda x: 0.0,
            initial_velocity=lambda x: 0.0,
            boundary=BoundarySpec(BoundaryKind.DIRICHLET, lambda t: 0.0, lambda t: 0.0),
            exact=lambda x, t: np.where(x == 0.2, 1e-3, 0.0),
        )
        found = validate(p, UniformMesh(0.0, 1.0, 5))
        assert found == [Diagnostic("exact solution vs initial profile", 0.2, 1e-3)]

    def test_central_slope(self):
        assert central_slope(math.sin, 1.0, 1e-6) == pytest.approx(
            math.cos(1.0), rel=1e-9
        )


def fd_residual(p, x, t, delta=3e-5):
    """u_tt + 2 alpha u_t + beta^2 u - u_xx - q under central differencing."""
    u = p.exact
    u_tt = (u(x, t + delta) - 2 * u(x, t) + u(x, t - delta)) / delta**2
    u_t = (u(x, t + delta) - u(x, t - delta)) / (2 * delta)
    u_xx = (u(x + delta, t) - 2 * u(x, t) + u(x - delta, t)) / delta**2
    return u_tt + 2 * p.alpha * u_t + p.beta**2 * u(x, t) - u_xx - p.forcing(x, t)


@pytest.mark.parametrize("pid", [1, 2, 3, 4, 5])
def test_exact_solutions_satisfy_their_pde(pid):
    p = builtin_problem(pid)
    a, b = p.domain
    rng = np.random.default_rng(pid)
    for _ in range(25):
        if pid == 2:
            # tan((x+t)/2) has a pole at x + t = pi; stay well inside
            t = rng.uniform(1e-3, 1.0)
            x = rng.uniform(a + 1e-3, min(b - 1e-3, 2.5 - t))
        else:
            t = rng.uniform(1e-3, 2.0)
            x = rng.uniform(a + 1e-3, b - 1e-3)
        assert abs(fd_residual(p, float(x), float(t))) < 1e-4

    # the initial data agree with the exact solution and its time derivative
    delta = 3e-5
    for x in np.linspace(a + 1e-3, b - 1e-3, 7):
        x = float(x)
        assert p.exact(x, 0.0) == pytest.approx(p.initial_value(x), abs=1e-12)
        fd_velocity = (p.exact(x, delta) - p.exact(x, -delta)) / (2 * delta)
        assert fd_velocity == pytest.approx(p.initial_velocity(x), abs=1e-6)
        fd_slope = (p.initial_value(x + delta) - p.initial_value(x - delta)) / (
            2 * delta
        )
        assert fd_slope == pytest.approx(p.initial_slope(x), abs=1e-6)


class TestMemo:
    def setup_method(self):
        self.calls = []

        def sine(x):
            self.calls.append(x)
            return np.sin(x)

        self.memo = _memo(sine)

    def test_equal_bits_hit(self):
        x = np.linspace(0.0, 3.0, 11)
        first = self.memo(x)
        assert self.memo(x) is first
        assert self.memo(x.copy()) is first
        assert self.memo(x[::-1][::-1]) is first  # a strided view, same bits
        assert len(self.calls) == 1
        assert first.tobytes() == np.sin(x).tobytes()

    def test_changed_bits_miss(self):
        x = np.linspace(0.0, 3.0, 11)
        self.memo(x)
        x[4] += 0.5  # in place: the same object with new bits
        assert self.memo(x).tobytes() == np.sin(x).tobytes()
        # 0.0 and -0.0 compare equal but are different bits, and so are
        # their sines
        zero = np.zeros(3)
        assert not np.signbit(self.memo(zero)).any()
        assert np.signbit(self.memo(-zero)).all()
        assert self.memo(x[:5]).shape == (5,)
        assert self.memo(x.astype(np.float32)).dtype == np.float32
        # the same bytes under another shape or dtype
        self.memo(x)
        assert self.memo(x.reshape(1, -1)).shape == (1, 11)
        self.memo(x)
        ints = x.view(np.int64)
        assert self.memo(ints).tobytes() == np.sin(ints).tobytes()
        assert len(self.calls) == 10

    def test_kept_value_is_read_only(self):
        x = np.linspace(0.0, 3.0, 11)
        with pytest.raises(ValueError, match="read-only"):
            self.memo(x)[0] = 1.0
        assert x.flags.writeable

    def test_scalars_bypass(self):
        assert self.memo(0.5) == math.sin(0.5)
        assert self.memo(np.float64(0.5)) == math.sin(0.5)
        assert self.memo(0.5) == math.sin(0.5)
        assert len(self.calls) == 3
        # a 0-d array is kept, though its sine is a scalar
        assert self.memo(np.array(0.5)) == math.sin(0.5)
        assert self.memo(np.array(0.5)) == math.sin(0.5)
        assert len(self.calls) == 4

    def test_errors_are_not_kept(self):
        def fails(x):
            self.calls.append(x)
            raise ZeroDivisionError

        memo = _memo(fails)
        x = np.ones(4)
        for _ in range(2):
            with pytest.raises(ZeroDivisionError):
                memo(x)
        assert len(self.calls) == 2


# the forcing and exact solution of each built-in that keeps an x-only factor,
# as plain lambdas that recompute every factor
_UNCACHED = {
    1: dict(
        forcing=lambda x, t: -2 * np.exp(-t) * np.sin(x),
        exact=lambda x, t: np.exp(-t) * np.sin(x),
    ),
    3: dict(
        forcing=lambda x, t: (2 - 2 * t + t ** 2) * (x - x ** 2) * np.exp(-t)
        + 2 * t ** 2 * np.exp(-t),
        exact=lambda x, t: (x - x ** 2) * t ** 2 * np.exp(-t),
    ),
    4: dict(
        forcing=lambda x, t: -12 * np.sin(t) * np.sin(x) + 4 * np.cos(t) * np.sin(x),
        exact=lambda x, t: np.cos(t) * np.sin(x),
    ),
    5: dict(
        forcing=lambda x, t: -2 * np.exp(-t) * np.sin(x),
        exact=lambda x, t: np.exp(-t) * np.sin(x),
    ),
}


class TestKeptFactors:
    """The built-ins keep their x-only factors and still give the bits of
    the plain formulas."""

    @pytest.mark.parametrize("pid", sorted(_UNCACHED))
    @pytest.mark.parametrize("level", ["j", "theta"])
    @pytest.mark.parametrize("theta", [0.5, 1.0])
    def test_runs_equal_uncached_data_bit_for_bit(self, pid, level, theta):
        built = builtin_problem(pid)
        plain = dataclasses.replace(built, **_UNCACHED[pid])
        mesh = UniformMesh(built.domain[0], built.domain[1], 40)
        params = SchemeParams(theta=theta, dt=0.01, t_final=0.3, forcing_level=level)
        times = [0.0, 0.01, 0.15, 0.3]
        got = run(built, mesh, params, times)
        want = run(plain, mesh, params, times)
        assert len(got.frames) == len(want.frames) == len(times)
        for ours, theirs in zip(got.frames, want.frames):
            assert ours.values.tobytes() == theirs.values.tobytes()
        norms = [
            np.array(tuple(error_norms(history.frames[-1], p, mesh)))
            for history, p in ((got, built), (want, plain))
        ]
        assert norms[0].tobytes() == norms[1].tobytes()

    @pytest.mark.parametrize("pid", sorted(_UNCACHED))
    def test_data_equal_uncached_data_bit_for_bit(self, pid):
        built = builtin_problem(pid)
        plain = _UNCACHED[pid]
        x = np.linspace(built.domain[0], built.domain[1], 17)
        for t in (0.0, 0.3, 2.5):
            for name in ("forcing", "exact"):
                for points in (x, x.copy(), 0.4):
                    got = np.asarray(getattr(built, name)(points, t))
                    assert got.tobytes() == np.asarray(plain[name](points, t)).tobytes()
                assert getattr(built, name)(x, t).flags.writeable
            x[3] = -x[3]  # in place
