"""Corner-tridiagonal solver against the dense elimination oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from telespline.basis import UniformMesh
from telespline.linalg import (
    CornerTridiagonalFactor,
    CornerTridiagonalSystem,
    SingularSystemError,
    dense_solve_oracle,
    solve,
)
from telespline.problem import builtin_problem
from telespline.solver import SchemeParams, assemble_step, initial_coefficients


def random_dominant_system(rng, n):
    """A corner-tridiagonal system with strict row diagonal dominance."""
    sub = rng.uniform(-1.0, 1.0, n - 1)
    sup = rng.uniform(-1.0, 1.0, n - 1)
    corner_top, corner_bottom = rng.uniform(-1.0, 1.0, 2)
    diag = np.empty(n)
    for i in range(n):
        off = 0.0
        if i > 0:
            off += abs(sub[i - 1])
        if i < n - 1:
            off += abs(sup[i])
        if i == 0:
            off += abs(corner_top)
        if i == n - 1:
            off += abs(corner_bottom)
        diag[i] = (off + 1.0) * (1.0 if rng.uniform() < 0.5 else -1.0)
    rhs = rng.uniform(-5.0, 5.0, n)
    return CornerTridiagonalSystem(sub, diag, sup, corner_top, corner_bottom, rhs)


def assert_factor_reuse_matches_oracle(system, rng, count=20):
    """One factor, ``count`` random right-hand sides, each within 1e-12 relative."""
    factor = CornerTridiagonalFactor(system)
    rhs = rng.uniform(-5.0, 5.0, (system.n, count))
    want = dense_solve_oracle(system.dense(), rhs)
    for column in range(count):
        got = factor.solve(rhs[:, column])
        expected = want[:, column]
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))
    return factor


class TestSolve:
    def test_plain_tridiagonal_case(self):
        system = CornerTridiagonalSystem(
            sub=[-1.0, -1.0, -1.0],
            diag=[2.0, 2.0, 2.0, 2.0],
            sup=[-1.0, -1.0, -1.0],
            corner_top=0.0,
            corner_bottom=0.0,
            rhs=[1.0, 0.0, 0.0, 1.0],
        )
        assert solve(system) == pytest.approx([1.0, 1.0, 1.0, 1.0], rel=1e-14)

    def test_identity(self):
        n = 6
        system = CornerTridiagonalSystem(
            np.zeros(n - 1), np.ones(n), np.zeros(n - 1), 0.0, 0.0, np.arange(1.0, n + 1)
        )
        assert solve(system) == pytest.approx(np.arange(1.0, n + 1))

    def test_corner_entries_are_honoured(self):
        # verify against the dense representation, not a reimplementation
        rng = np.random.default_rng(11)
        system = random_dominant_system(rng, 9)
        got = solve(system)
        assert system.dense() @ got == pytest.approx(np.asarray(system.rhs), abs=1e-12)

    def test_symmetric_boundary_rows(self):
        # boundary row proportional to its neighbour: the shape that defeats
        # corner folding by row subtraction; must still solve cleanly
        n = 6
        system = CornerTridiagonalSystem(
            sub=np.full(n - 1, 1.0),
            diag=np.array([1.0, 4.0, 4.0, 4.0, 4.0, 1.0]),
            sup=np.full(n - 1, 1.0),
            corner_top=1.0,
            corner_bottom=1.0,
            rhs=np.ones(n),
        )
        system.diag[0] = system.sub[0] = 1.0
        got = solve(system)
        want = dense_solve_oracle(system.dense(), system.rhs)
        assert got == pytest.approx(want, rel=1e-12)

    def test_matches_oracle_on_many_random_systems(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            n = int(rng.integers(4, 80))
            system = random_dominant_system(rng, n)
            got = solve(system)
            want = dense_solve_oracle(system.dense(), system.rhs)
            scale = max(1.0, float(np.max(np.abs(want))))
            assert float(np.max(np.abs(got - want))) <= 1e-12 * scale

    def test_input_is_not_mutated(self):
        rng = np.random.default_rng(5)
        system = random_dominant_system(rng, 12)
        before = (
            system.sub.copy(),
            system.diag.copy(),
            system.sup.copy(),
            system.rhs.copy(),
        )
        solve(system)
        assert np.array_equal(system.sub, before[0])
        assert np.array_equal(system.diag, before[1])
        assert np.array_equal(system.sup, before[2])
        assert np.array_equal(system.rhs, before[3])

    def test_zero_rhs_gives_zero_solution(self):
        rng = np.random.default_rng(6)
        system = random_dominant_system(rng, 10)
        system.rhs[:] = 0.0
        assert np.all(solve(system) == 0.0)

    def test_zero_boundary_pivot_raises(self):
        system = CornerTridiagonalSystem(
            np.ones(4), np.array([0.0, 3.0, 3.0, 3.0, 3.0]), np.ones(4), 0.5, 0.5, np.ones(5)
        )
        with pytest.raises(SingularSystemError) as info:
            solve(system)
        assert info.value.row == 0

        system = CornerTridiagonalSystem(
            np.ones(4), np.array([3.0, 3.0, 3.0, 3.0, 0.0]), np.ones(4), 0.5, 0.5, np.ones(5)
        )
        with pytest.raises(SingularSystemError) as info:
            solve(system)
        assert info.value.row == 4

    def test_interior_breakdown_raises(self):
        # rows 1 and 2 proportional: the interior sweep must hit a dead pivot
        system = CornerTridiagonalSystem(
            sub=np.array([0.0, 1.0, 0.0, 1.0]),
            diag=np.array([1.0, 1.0, 1.0, 4.0, 4.0]),
            sup=np.array([0.0, 1.0, 0.0, 1.0]),
            corner_top=0.0,
            corner_bottom=0.0,
            rhs=np.ones(5),
        )
        with pytest.raises(SingularSystemError):
            solve(system)


class TestFactor:
    def test_pivot_failures_keep_their_rows(self):
        # the boundary rows first, then the interior sweep in row order
        cases = [
            (np.ones(4), np.array([0.0, 3.0, 3.0, 3.0, 3.0]), np.ones(4), 0.5, 0.5, 0),
            (np.ones(4), np.array([3.0, 3.0, 3.0, 3.0, 0.0]), np.ones(4), 0.5, 0.5, 4),
            (
                np.array([0.0, 1.0, 0.0, 1.0]),
                np.array([1.0, 1.0, 1.0, 4.0, 4.0]),
                np.array([0.0, 1.0, 0.0, 1.0]),
                0.0,
                0.0,
                2,
            ),
        ]
        for sub, diag, sup, top, bottom, row in cases:
            system = CornerTridiagonalSystem(sub, diag, sup, top, bottom, np.ones(5))
            with pytest.raises(SingularSystemError) as info:
                CornerTridiagonalFactor(system)
            assert info.value.row == row
            assert info.value.pivot == 0.0

    def test_solve_checks_the_rhs(self):
        factor = CornerTridiagonalFactor(random_dominant_system(np.random.default_rng(3), 8))
        with pytest.raises(ValueError, match="non-finite entries in rhs"):
            factor.solve(np.array([0.0, 1.0, np.nan, 0.0, 0.0, 0.0, 0.0, 0.0]))
        with pytest.raises(ValueError, match="shape"):
            factor.solve(np.ones(7))

    def test_rhs_is_not_mutated(self):
        rng = np.random.default_rng(4)
        factor = CornerTridiagonalFactor(random_dominant_system(rng, 12))
        rhs = rng.uniform(-1.0, 1.0, 12)
        before = rhs.copy()
        factor.solve(rhs)
        assert np.array_equal(rhs, before)

    @pytest.mark.parametrize("problem_id", [1, 5])
    @pytest.mark.parametrize("n_cells", [40, 100])
    @pytest.mark.parametrize("first_step", [True, False])
    def test_reuse_on_stiff_step_matrices(self, problem_id, n_cells, first_step):
        # with k^2 theta / h^2 >= 100 the multipliers are close to 1, so the
        # doubling coefficients never become negligible and every level runs
        problem = builtin_problem(problem_id)
        mesh = UniformMesh(problem.domain[0], problem.domain[1], n_cells)
        params = SchemeParams(theta=1.0, dt=12 * mesh.h, t_final=12 * mesh.h)
        assert params.dt**2 * params.theta / mesh.h**2 >= 100
        frame = initial_coefficients(problem, mesh)
        system = assemble_step(problem, mesh, params, frame, frame, 0.0, first_step)
        factor = assert_factor_reuse_matches_oracle(system, np.random.default_rng(n_cells))
        # shifts 1, 2, 4, ... below the n - 2 interior unknowns
        every_level = (system.n - 3).bit_length()
        assert factor.levels == (every_level, every_level)


class TestConstruction:
    def test_too_small(self):
        with pytest.raises(ValueError):
            CornerTridiagonalSystem(np.ones(2), np.ones(3), np.ones(2), 0.0, 0.0, np.ones(3))

    def test_band_size_mismatch(self):
        with pytest.raises(ValueError):
            CornerTridiagonalSystem(np.ones(4), np.ones(5), np.ones(3), 0.0, 0.0, np.ones(5))
        with pytest.raises(ValueError):
            CornerTridiagonalSystem(np.ones(4), np.ones(5), np.ones(4), 0.0, 0.0, np.ones(4))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            CornerTridiagonalSystem(
                np.ones(4), np.array([1.0, np.nan, 1.0, 1.0, 1.0]), np.ones(4), 0.0, 0.0, np.ones(5)
            )
        with pytest.raises(ValueError):
            CornerTridiagonalSystem(np.ones(4), np.ones(5), np.ones(4), np.inf, 0.0, np.ones(5))

    def test_dense_layout(self):
        system = CornerTridiagonalSystem(
            sub=[1.0, 2.0, 3.0],
            diag=[10.0, 20.0, 30.0, 40.0],
            sup=[4.0, 5.0, 6.0],
            corner_top=7.0,
            corner_bottom=8.0,
            rhs=[0.0, 0.0, 0.0, 0.0],
        )
        want = np.array(
            [
                [10.0, 4.0, 7.0, 0.0],
                [1.0, 20.0, 5.0, 0.0],
                [0.0, 2.0, 30.0, 6.0],
                [0.0, 8.0, 3.0, 40.0],
            ]
        )
        assert np.array_equal(system.dense(), want)


class TestDenseOracle:
    def test_two_by_two(self):
        got = dense_solve_oracle(np.array([[2.0, 1.0], [1.0, 3.0]]), np.array([3.0, 4.0]))
        assert got == pytest.approx([1.0, 1.0], rel=1e-14)

    def test_requires_pivoting(self):
        # zero leading entry is fine for the oracle thanks to row swaps
        matrix = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert dense_solve_oracle(matrix, np.array([2.0, 3.0])) == pytest.approx([3.0, 2.0])

    def test_singular_matrix_raises(self):
        with pytest.raises(SingularSystemError):
            dense_solve_oracle(np.ones((3, 3)), np.ones(3))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            dense_solve_oracle(np.ones((3, 2)), np.ones(3))


@settings(max_examples=80, deadline=None)
@given(n=st.integers(min_value=4, max_value=40), seed=st.integers(0, 2**31 - 1))
def test_solver_matches_oracle_property(n, seed):
    rng = np.random.default_rng(seed)
    system = random_dominant_system(rng, n)
    got = solve(system)
    want = dense_solve_oracle(system.dense(), system.rhs)
    scale = max(1.0, float(np.max(np.abs(want))))
    assert float(np.max(np.abs(got - want))) <= 1e-11 * scale


@settings(max_examples=25, deadline=None)
@given(n=st.integers(min_value=4, max_value=2000), seed=st.integers(0, 2**31 - 1))
def test_factor_reuse_matches_oracle_property(n, seed):
    rng = np.random.default_rng(seed)
    assert_factor_reuse_matches_oracle(random_dominant_system(rng, n), rng)
