"""Time stepping: initial fit, system assembly, accuracy, API contract."""

import dataclasses
import math

import numpy as np
import pytest

from telespline import linalg, solver
from telespline.basis import UniformMesh, basis_weights, evaluate_solution, knot_values
from telespline.linalg import SingularSystemError, solve
from telespline.metrics import error_norms
from telespline.problem import (
    BoundaryKind,
    BoundarySpec,
    TelegraphProblem,
    builtin_problem,
)
from telespline.solver import (
    CoefficientFrame,
    SchemeParams,
    assemble_step,
    initial_coefficients,
    output_steps,
    run,
    step,
)

from oracle import dense, plain_pivot_sweep


def knot_errors(frame, problem, mesh):
    w = basis_weights(mesh)
    numeric = knot_values(frame.values, w, 0)
    exact = np.array([problem.exact(float(x), frame.time) for x in mesh.knots()])
    return np.max(np.abs(exact - numeric))


class TestSchemeParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            SchemeParams(theta=1.5, dt=0.1, t_final=1.0)
        with pytest.raises(ValueError):
            SchemeParams(theta=0.5, dt=0.0, t_final=1.0)
        with pytest.raises(ValueError):
            SchemeParams(theta=0.5, dt=0.1, t_final=0.05)
        with pytest.raises(ValueError):
            SchemeParams(theta=0.5, dt=0.1, t_final=1.0, forcing_level="x")

    @pytest.mark.parametrize("t_final", [math.inf, -math.inf, math.nan])
    def test_non_finite_t_final_rejected(self, t_final):
        with pytest.raises(ValueError, match=f"t_final must be finite, got {t_final}"):
            SchemeParams(theta=0.5, dt=0.1, t_final=t_final)

    @pytest.mark.parametrize("dt, t_final", [(1e-320, 0.1), (5e-324, 1.0), (1e-300, 1e10)])
    def test_step_count_overflow_rejected(self, dt, t_final):
        with pytest.raises(ValueError, match=f"t_final / dt = {t_final} / {dt} is too large"):
            SchemeParams(theta=0.5, dt=dt, t_final=t_final)

    @pytest.mark.parametrize("dt, tol", [(1.0, 1e-9), (1e-3, 1e-9), (1e-4, 1e-10), (1e-10, 1e-16)])
    def test_alignment_tolerance_follows_small_steps(self, dt, tol):
        assert SchemeParams(theta=0.5, dt=dt, t_final=1.0).align_tol == tol

    def test_tiny_step_grid_ends_at_t_final(self):
        # an absolute 1e-9 slack is ten steps of 1e-10
        params = SchemeParams(theta=0.5, dt=1e-10, t_final=1e-5)
        assert params.last_step == 100000
        assert params.last_time == 1e-5
        assert output_steps([0.0, 1e-5], params) == [0, 100000]
        with pytest.raises(ValueError, match=r"output time 1.0001e-05 outside \[0, 1e-05\]"):
            output_steps([1.0001e-5], params)


class TestInitialFit:
    def test_zero_profile_gives_zero_coefficients(self):
        p = builtin_problem(3)
        mesh = UniformMesh(0.0, 1.0, 20)
        frame = initial_coefficients(p, mesh)
        assert frame.time == 0.0
        assert np.all(frame.values == 0.0)

    def test_sine_profile_interpolates(self):
        p = builtin_problem(1)
        mesh = UniformMesh(0.0, math.pi, 40)
        frame = initial_coefficients(p, mesh)
        w = basis_weights(mesh)
        fitted = knot_values(frame.values, w, 0)
        target = np.sin(mesh.knots())
        assert np.max(np.abs(fitted - target)) < 1e-9
        # the end slopes are pinned to g1'
        assert evaluate_solution(frame, 0.0, mesh, 1) == pytest.approx(1.0, abs=1e-10)
        assert evaluate_solution(frame, math.pi, mesh, 1) == pytest.approx(
            -1.0, abs=1e-10
        )


def constant_problem(level):
    """u identically equal to ``level``; forcing balances the beta^2 term."""
    return TelegraphProblem(
        alpha=1.0,
        beta=1.0,
        domain=(0.0, 1.0),
        forcing=lambda x, t: level,
        initial_value=lambda x: level,
        initial_velocity=lambda x: 0.0,
        boundary=BoundarySpec(
            BoundaryKind.DIRICHLET, lambda t: level, lambda t: level
        ),
        exact=lambda x, t: level,
        initial_slope=lambda x: 0.0,
    )


class TestStepping:
    def test_constant_state_converges_at_second_order(self):
        # constants are outside the trigonometric spline space (each branch
        # lives in span{sin(x/2), cos(x/2), sin(3x/2), cos(3x/2)}), so a flat
        # profile is reproduced only to O(h^2); check the error and the rate
        p = constant_problem(5.0)
        errors = {}
        for n in (16, 32):
            mesh = UniformMesh(0.0, 1.0, n)
            params = SchemeParams(theta=0.5, dt=0.05, t_final=1.0)
            history = run(p, mesh, params, [1.0])
            w = basis_weights(mesh)
            values = knot_values(history.frames[0].values, w, 0)
            errors[n] = np.max(np.abs(values - 5.0))
        assert errors[16] < 2e-4
        assert errors[32] < 5e-5
        assert errors[16] / errors[32] > 3.0

    def test_zero_problem_stays_bitwise_zero(self):
        p = TelegraphProblem(
            alpha=0.5,
            beta=1.0,
            domain=(0.0, 1.0),
            forcing=lambda x, t: 0.0,
            initial_value=lambda x: 0.0,
            initial_velocity=lambda x: 0.0,
            boundary=BoundarySpec(
                BoundaryKind.DIRICHLET, lambda t: 0.0, lambda t: 0.0
            ),
            initial_slope=lambda x: 0.0,
        )
        mesh = UniformMesh(0.0, 1.0, 12)
        params = SchemeParams(theta=0.5, dt=0.1, t_final=1.0)
        history = run(p, mesh, params, [0.5, 1.0])
        for frame in history.frames:
            assert np.all(frame.values == 0.0)

    def test_single_tiny_step_tracks_exact(self):
        p = builtin_problem(1)
        mesh = UniformMesh(0.0, math.pi, 40)
        params = SchemeParams(theta=0.5, dt=1e-5, t_final=1e-5)
        frame0 = initial_coefficients(p, mesh)
        frame1 = step(p, mesh, params, frame0, frame0, 0.0, first_step=True)
        assert frame1.time == pytest.approx(1e-5)
        assert knot_errors(frame1, p, mesh) < 1e-12

    def test_theta_one_is_less_accurate_than_midpoint(self):
        p = builtin_problem(3)
        mesh = UniformMesh(0.0, 1.0, 50)
        errors = {}
        for theta in (0.5, 1.0):
            params = SchemeParams(theta=theta, dt=1e-2, t_final=1.0)
            history = run(p, mesh, params, [1.0])
            errors[theta] = knot_errors(history.frames[0], p, mesh)
        assert errors[0.5] < 2e-3
        assert errors[1.0] < 4e-3
        assert errors[1.0] > errors[0.5]

    def test_forcing_level_choice_changes_the_answer(self):
        p = builtin_problem(3)
        mesh = UniformMesh(0.0, 1.0, 50)
        finals = {}
        for level in ("j", "theta"):
            params = SchemeParams(theta=0.5, dt=1e-2, t_final=1.0, forcing_level=level)
            history = run(p, mesh, params, [1.0])
            finals[level] = history.frames[0]
            assert knot_errors(finals[level], p, mesh) < 2e-3
        gap = np.max(np.abs(finals["j"].values - finals["theta"].values))
        assert gap > 1e-12

    def test_dirichlet_boundary_exact_at_every_step(self):
        p = builtin_problem(1)
        mesh = UniformMesh(0.0, math.pi, 30)
        dt = 0.01
        params = SchemeParams(theta=0.5, dt=dt, t_final=0.3)
        times = [round(j * dt, 10) for j in range(31)]
        history = run(p, mesh, params, times)
        assert len(history.frames) == 31
        for frame in history.frames:
            left = evaluate_solution(frame, 0.0, mesh, 0)
            right = evaluate_solution(frame, math.pi, mesh, 0)
            assert abs(left - p.boundary.left(frame.time)) < 1e-9
            assert abs(right - p.boundary.right(frame.time)) < 1e-9

    def test_neumann_boundary_exact_at_every_step(self):
        p = builtin_problem(5)
        mesh = UniformMesh(0.0, 2 * math.pi, 30)
        dt = 0.01
        params = SchemeParams(theta=0.5, dt=dt, t_final=0.2)
        times = [round(j * dt, 10) for j in range(21)]
        history = run(p, mesh, params, times)
        for frame in history.frames:
            left = evaluate_solution(frame, 0.0, mesh, 1)
            right = evaluate_solution(frame, 2 * math.pi, mesh, 1)
            assert abs(left - p.boundary.left(frame.time)) < 1e-9
            assert abs(right - p.boundary.right(frame.time)) < 1e-9

    def test_interior_recurrence_holds(self):
        # a regular (non-ghost) step must satisfy the three-level recurrence
        p = builtin_problem(1)
        mesh = UniformMesh(0.0, math.pi, 20)
        k = 0.01
        theta = 0.5
        params = SchemeParams(theta=theta, dt=k, t_final=0.03)
        history = run(p, mesh, params, [0.0, k, 2 * k])
        w = basis_weights(mesh)
        older, now, new = history.frames
        lam = 1 + 2 * p.alpha * k + k * k * theta * p.beta**2
        lhs = lam * knot_values(new.values, w, 0) - k * k * theta * knot_values(
            new.values, w, 2
        )
        q = np.array([p.forcing(float(x), now.time) for x in mesh.knots()])
        rhs = (
            2 * (1 + p.alpha * k) * knot_values(now.values, w, 0)
            + k * k * (1 - theta)
            * (
                knot_values(now.values, w, 2)
                - p.beta**2 * knot_values(now.values, w, 0)
            )
            - knot_values(older.values, w, 0)
            + k * k * q
        )
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def dense_oracle(problem, mesh, params, current, previous, t_j, first_step):
    """Assemble the stepping system entry by entry, straight from the scheme."""
    w = basis_weights(mesh)
    k, theta = params.dt, params.theta
    alpha, beta2 = problem.alpha, problem.beta**2
    n = mesh.n_cells + 3
    mat = np.zeros((n, n))
    rhs = np.zeros(n)
    lam = 1 + 2 * alpha * k + k * k * theta * beta2
    if first_step:
        lam += 1.0
    lo = lam * w.a1 - k * k * theta * w.a5
    mid = lam * w.a2 - k * k * theta * w.a6
    knots = mesh.knots()
    c, prev = current.values, previous.values
    for i in range(mesh.n_cells + 1):
        row = i + 1
        mat[row, i] = lo
        mat[row, i + 1] = mid
        mat[row, i + 2] = lo
        u_now = w.a1 * c[i] + w.a2 * c[i + 1] + w.a1 * c[i + 2]
        uxx_now = w.a5 * c[i] + w.a6 * c[i + 1] + w.a5 * c[i + 2]
        x = float(knots[i])
        if params.forcing_level == "j":
            q = problem.forcing(x, t_j)
        else:
            q = theta * problem.forcing(x, t_j + k) + (1 - theta) * problem.forcing(
                x, t_j
            )
        value = (
            2 * (1 + alpha * k) * u_now
            + k * k * (1 - theta) * (uxx_now - beta2 * u_now)
            + k * k * q
        )
        if first_step:
            value += 2 * k * problem.initial_velocity(x)
        else:
            value -= w.a1 * prev[i] + w.a2 * prev[i + 1] + w.a1 * prev[i + 2]
        rhs[row] = value
    if problem.boundary.kind is BoundaryKind.DIRICHLET:
        mat[0, 0], mat[0, 1], mat[0, 2] = w.a1, w.a2, w.a1
        mat[n - 1, n - 3], mat[n - 1, n - 2], mat[n - 1, n - 1] = w.a1, w.a2, w.a1
    else:
        mat[0, 0], mat[0, 2] = w.a3, w.a4
        mat[n - 1, n - 3], mat[n - 1, n - 1] = w.a3, w.a4
    rhs[0] = problem.boundary.left(t_j + k)
    rhs[n - 1] = problem.boundary.right(t_j + k)
    return mat, rhs


class TestAssembly:
    @pytest.mark.parametrize("pid", [1, 5])
    @pytest.mark.parametrize("first_step", [True, False])
    def test_matches_hand_assembly(self, pid, first_step):
        p = builtin_problem(pid)
        mesh = UniformMesh(p.domain[0], p.domain[1], 14)
        params = SchemeParams(theta=0.6, dt=0.02, t_final=1.0)
        rng = np.random.default_rng(10 * pid + first_step)
        size = mesh.n_cells + 3
        current = CoefficientFrame(values=rng.standard_normal(size), time=0.3)
        previous = CoefficientFrame(values=rng.standard_normal(size), time=0.28)
        system = assemble_step(p, mesh, params, current, previous, 0.3, first_step)
        mat, rhs = dense_oracle(p, mesh, params, current, previous, 0.3, first_step)
        np.testing.assert_allclose(dense(system), mat, rtol=0, atol=1e-12)
        np.testing.assert_allclose(system.rhs, rhs, rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            solve(system), np.linalg.solve(mat, rhs), rtol=0, atol=1e-10
        )

    def test_boundary_rows_carry_next_level_data(self):
        p = builtin_problem(2)
        mesh = UniformMesh(0.0, 2.0, 10)
        params = SchemeParams(theta=0.5, dt=0.05, t_final=1.0)
        frame = initial_coefficients(p, mesh)
        system = assemble_step(p, mesh, params, frame, frame, 0.1, first_step=False)
        assert system.rhs[0] == pytest.approx(math.tan(0.15 / 2), rel=1e-15)
        assert system.rhs[-1] == pytest.approx(math.tan(2.15 / 2), rel=1e-15)


class TestRunContract:
    def setup_method(self):
        self.p = builtin_problem(3)
        self.mesh = UniformMesh(0.0, 1.0, 10)
        self.params = SchemeParams(theta=0.5, dt=0.1, t_final=1.0)

    def test_requested_times_are_captured(self):
        history = run(self.p, self.mesh, self.params, [0.0, 0.5, 1.0])
        assert [f.time for f in history.frames] == pytest.approx([0.0, 0.5, 1.0])
        assert len(history.stepping_seconds) == 3
        assert history.stepping_seconds[0] == 0.0
        assert history.stepping_seconds == sorted(history.stepping_seconds)

    def test_frames_are_separate_arrays(self):
        # the factor solves in buffers it reuses; each frame must be its own
        frames = run(self.p, self.mesh, self.params, [0.1 * j for j in range(11)]).frames
        for i, frame in enumerate(frames):
            for other in frames[i + 1 :]:
                assert not np.shares_memory(frame.values, other.values)

    def test_two_knot_evaluations_per_step(self, monkeypatch):
        # U^{j-1} at the knots is the U^j of the step before, not evaluated again
        calls = []

        def counted(*args):
            calls.append(args[2] if len(args) > 2 else 0)
            return knot_values(*args)

        monkeypatch.setattr(solver, "knot_values", counted)
        run(self.p, self.mesh, self.params, [1.0])
        assert sorted(calls) == [0] * 10 + [2] * 10

    def test_initial_frame_only(self):
        history = run(self.p, self.mesh, self.params, [0.0])
        assert len(history.frames) == 1
        assert history.frames[0].time == 0.0

    def test_empty_times_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            run(self.p, self.mesh, self.params, [])

    def test_misaligned_time_rejected(self):
        with pytest.raises(ValueError, match="multiple"):
            run(self.p, self.mesh, self.params, [0.35])

    def test_time_beyond_final_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            run(self.p, self.mesh, self.params, [2.0])

    def test_time_rounding_to_a_negative_step_rejected(self):
        # one step before 0: the range check t >= -align_tol rejects it, since
        # align_tol is 1e-15 at this dt
        params = SchemeParams(theta=0.5, dt=1e-9, t_final=1e-8)
        with pytest.raises(ValueError, match="outside"):
            run(self.p, self.mesh, params, [-1e-9])

    def test_time_rounding_past_the_last_step_rejected(self):
        # inside [0, t_final + align_tol] and within align_tol of step 3, but
        # the last level is step 2: only the step-range check catches it
        params = SchemeParams(theta=0.5, dt=0.1, t_final=0.3 - 1.2e-9)
        assert params.last_step == 2
        with pytest.raises(ValueError, match="outside"):
            output_steps([0.3 - 0.4e-9], params)

    def test_off_grid_final_time_is_misaligned_not_outside(self):
        # 0.37 rounds to step 4, past the last level 3, yet lies inside [0, T]
        params = SchemeParams(theta=0.5, dt=0.1, t_final=0.37)
        with pytest.raises(ValueError, match="multiple"):
            run(self.p, self.mesh, params, [0.37])

    @pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
    def test_non_finite_time_rejected(self, t):
        with pytest.raises(ValueError, match=f"output time {t} is not finite"):
            output_steps([0.0, t], self.params)

    def test_huge_time_is_outside_not_an_overflow(self):
        params = SchemeParams(theta=0.5, dt=1e-3, t_final=1.0)
        with pytest.raises(ValueError, match="outside"):
            run(self.p, self.mesh, params, [1e308])

    def test_unsorted_times_rejected(self):
        with pytest.raises(ValueError, match="increasing"):
            run(self.p, self.mesh, self.params, [0.5, 0.2])
        with pytest.raises(ValueError, match="increasing"):
            run(self.p, self.mesh, self.params, [0.5, 0.5])


class TestRunMatchesStepping:
    @pytest.mark.parametrize("pid", [1, 5])
    @pytest.mark.parametrize("level", ["j", "theta"])
    @pytest.mark.parametrize("theta", [0.5, 1.0])
    def test_frames_match_a_loop_of_step(self, pid, level, theta):
        # run() factors each step matrix once; step() assembles and solves anew
        p = builtin_problem(pid)
        mesh = UniformMesh(p.domain[0], p.domain[1], 24)
        dt, steps = 0.01, 12
        params = SchemeParams(theta=theta, dt=dt, t_final=steps * dt, forcing_level=level)
        history = run(p, mesh, params, [j * dt for j in range(steps + 1)])

        previous = current = initial_coefficients(p, mesh)
        expected = [current]
        for j in range(steps):
            advanced = step(p, mesh, params, current, previous, j * dt, first_step=(j == 0))
            previous, current = current, advanced
            expected.append(advanced)

        assert len(history.frames) == len(expected)
        for got, want in zip(history.frames, expected):
            assert got.time == want.time
            scale = np.max(np.abs(want.values))
            assert np.max(np.abs(got.values - want.values)) <= 1e-13 * scale


class TestRunMatchesPlainSweep:
    @pytest.mark.parametrize("pid", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("level", ["j", "theta"])
    def test_frames_are_bit_identical(self, pid, level, monkeypatch):
        p = builtin_problem(pid)
        mesh = UniformMesh(p.domain[0], p.domain[1], 300)
        dt, steps = 1e-3, 6
        times = [j * dt for j in range(steps + 1)]
        for theta in (0.5, 1.0):
            params = SchemeParams(theta=theta, dt=dt, t_final=steps * dt, forcing_level=level)
            fast = run(p, mesh, params, times)
            with monkeypatch.context() as patch:
                patch.setattr(linalg, "_pivot_sweep", plain_pivot_sweep)
                plain = run(p, mesh, params, times)
            for got, want in zip(fast.frames, plain.frames, strict=True):
                assert got.time == want.time
                assert np.array_equal(got.values.view(np.int64), want.values.view(np.int64))


class TestFailureClassification:
    def test_dirichlet_theta_zero_fails_on_the_first_step(self):
        # the boundary row and the collocation row at x_0 become proportional
        p = builtin_problem(1)
        sampled = []

        def forcing(x, t):
            sampled.append(t)
            return p.forcing(x, t)

        probe = dataclasses.replace(p, forcing=forcing)
        mesh = UniformMesh(0.0, math.pi, 20)
        params = SchemeParams(theta=0.0, dt=0.01, t_final=0.05)
        with pytest.raises(SingularSystemError) as info:
            run(probe, mesh, params, [0.0, 0.01, 0.05])
        assert info.value.row == 1
        assert all(t < params.dt for t in sampled)

    def test_dirichlet_theta_zero_names_its_cause(self):
        p = builtin_problem(3)
        mesh = UniformMesh(0.0, 1.0, 12)
        params = SchemeParams(theta=0.0, dt=0.01, t_final=0.05)
        with pytest.raises(SingularSystemError, match="row 1 .*theta = 0.*proportional") as info:
            run(p, mesh, params, [0.05])
        assert info.value.row == 1

    def test_forcing_turning_non_finite_mid_run(self):
        p = builtin_problem(1)
        probe = dataclasses.replace(
            p, forcing=lambda x, t: math.inf if t > 0.025 else p.forcing(x, t)
        )
        mesh = UniformMesh(0.0, math.pi, 20)
        params = SchemeParams(theta=0.5, dt=0.01, t_final=0.05)
        with pytest.raises(ValueError, match="non-finite entries in rhs"):
            run(probe, mesh, params, [0.05])

    @pytest.mark.parametrize("level, bad_step", [("j", 3), ("theta", 2)])
    def test_non_finite_rhs_names_its_step(self, level, bad_step):
        # q is first sampled past t = 0.025 at t_3 (level j) or t_3 = t_2 + dt (theta)
        p = builtin_problem(1)
        probe = dataclasses.replace(
            p, forcing=lambda x, t: math.inf if t > 0.025 else p.forcing(x, t)
        )
        mesh = UniformMesh(0.0, math.pi, 20)
        params = SchemeParams(theta=0.5, dt=0.01, t_final=0.05, forcing_level=level)
        message = rf"^step {bad_step} \(t = 0\.0{bad_step + 1}\): non-finite entries in rhs$"
        with pytest.raises(ValueError, match=message):
            run(probe, mesh, params, [0.05])


class TestProblemContract:
    def test_run_refuses_to_march_past_the_horizon(self):
        p = builtin_problem(2)
        mesh = UniformMesh(0.0, 2.0, 10)
        with pytest.raises(ValueError, match="horizon"):
            run(p, mesh, SchemeParams(theta=0.5, dt=0.1, t_final=1.5), [0.5])
        # up to t_max itself is fine
        history = run(p, mesh, SchemeParams(theta=0.5, dt=0.1, t_final=1.0), [1.0])
        assert history.frames[-1].time == pytest.approx(1.0)

    def test_finite_difference_end_slopes_on_a_fine_mesh(self):
        # without g1' the end slopes come from central differences of g1; the
        # step must not shrink with h, or rounding swamps them on fine meshes
        p = dataclasses.replace(builtin_problem(1), initial_slope=None)
        mesh = UniformMesh(0.0, math.pi, 10000)
        frame = initial_coefficients(p, mesh)
        for x, slope in ((0.0, 1.0), (math.pi, -1.0)):
            assert abs(evaluate_solution(frame, x, mesh, 1) - slope) < 1e-9

    @pytest.mark.parametrize("level, per_step", [("j", 1), ("theta", 2)])
    def test_data_are_sampled_once_per_use_on_the_knot_array(self, level, per_step):
        calls = []

        def counted(name, function):
            def wrapper(x, *args):
                calls.append((name, x))
                return function(x, *args)

            return wrapper

        p = builtin_problem(1)
        probe = dataclasses.replace(
            p,
            **{
                name: counted(name, getattr(p, name))
                for name in ("forcing", "initial_value", "initial_velocity", "exact")
            },
        )
        mesh = UniformMesh(0.0, math.pi, 16)
        steps, dt = 7, 0.01
        params = SchemeParams(theta=0.5, dt=dt, t_final=steps * dt, forcing_level=level)
        calls.clear()  # drop the construction-time consistency probe
        history = run(probe, mesh, params, [steps * dt])
        names = [name for name, _ in calls]
        assert names.count("forcing") == per_step * steps
        assert names.count("initial_value") == 1
        assert names.count("initial_velocity") == 1
        assert "exact" not in names

        sampled = len(calls)
        error_norms(history.frames[-1], probe, mesh)
        assert [name for name, _ in calls[sampled:]] == ["exact"]
        for _, x in calls:
            assert isinstance(x, np.ndarray)
            assert np.array_equal(x, mesh.knots())
