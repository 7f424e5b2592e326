"""Corner-tridiagonal solver against the dense elimination oracle."""

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from telespline import linalg
from telespline.basis import DegenerateMeshError, UniformMesh, basis_weights, scheme_stencil
from telespline.linalg import (
    CornerTridiagonalFactor,
    CornerTridiagonalSystem,
    SingularSystemError,
    solve,
)
from telespline.problem import BoundaryKind, builtin_problem
from telespline.solver import (
    SchemeParams,
    _collocation_matrix,
    _stencil,
    assemble_step,
    initial_coefficients,
)

from oracle import (
    dense,
    dense_solve_oracle,
    doubling_depth,
    expand,
    plain_pivot_sweep,
    reference_factor,
    reference_solve,
)


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
    want = dense_solve_oracle(dense(system), rhs)
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
        assert dense(system) @ got == pytest.approx(np.asarray(system.rhs), abs=1e-12)

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
        want = dense_solve_oracle(dense(system), system.rhs)
        assert got == pytest.approx(want, rel=1e-12)

    def test_matches_oracle_on_many_random_systems(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            n = int(rng.integers(4, 80))
            system = random_dominant_system(rng, n)
            got = solve(system)
            want = dense_solve_oracle(dense(system), system.rhs)
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

    def test_solves_share_no_memory(self):
        # solve works in a buffer the factor keeps: results must be copies
        rng = np.random.default_rng(4)
        factor = CornerTridiagonalFactor(random_dominant_system(rng, 12))
        rhs = rng.uniform(-1.0, 1.0, (2, 12))
        before = rhs.copy()
        first = factor.solve(rhs[0])
        kept = first.copy()
        second = factor.solve(rhs[1])
        assert not np.shares_memory(first, second)
        assert np.array_equal(first, kept) and not np.array_equal(first, second)
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
        assert np.array_equal(dense(system), want)


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
    want = dense_solve_oracle(dense(system), system.rhs)
    scale = max(1.0, float(np.max(np.abs(want))))
    assert float(np.max(np.abs(got - want))) <= 1e-11 * scale


@settings(max_examples=25, deadline=None)
@given(n=st.integers(min_value=4, max_value=2000), seed=st.integers(0, 2**31 - 1))
def test_factor_reuse_matches_oracle_property(n, seed):
    rng = np.random.default_rng(seed)
    assert_factor_reuse_matches_oracle(random_dominant_system(rng, n), rng)


def factor_outcome(system, reference=False):
    """The factor's pivots and full multiplier arrays as int64 bit patterns,
    with its levels, or the row and pivot bits of its SingularSystemError;
    ``reference`` takes them from the oracle's plain sweep instead."""
    try:
        if reference:
            arrays = reference_factor(system)
            levels = tuple(doubling_depth(a) for a in arrays[1:])
        else:
            factor = CornerTridiagonalFactor(system)
            arrays = (factor._pivots, expand(factor._forward), expand(factor._backward))
            levels = factor.levels
    except SingularSystemError as exc:
        return ("singular", exc.row, np.float64(exc.pivot).view(np.int64))
    return tuple(a.view(np.int64).tolist() for a in arrays) + (levels,)


def assert_sweep_matches_reference(system):
    """The library's factor equals, bit for bit, the one the plain sweep gives."""
    want = factor_outcome(system, reference=True)
    assert factor_outcome(system) == want
    return want


def block_system(sub, diag, sup):
    """A system whose condensed block is exactly (sub, diag, sup).

    The first and last rows are unit rows with no link to the block, so the
    corner folds change nothing and error rows are block rows plus one.
    """
    sub, diag, sup = (np.asarray(a, dtype=float) for a in (sub, diag, sup))
    pad = np.zeros(1)
    return CornerTridiagonalSystem(
        np.concatenate([pad, sub, pad]),
        np.concatenate([[1.0], diag, [1.0]]),
        np.concatenate([pad, sup, pad]),
        0.0,
        0.0,
        np.zeros(diag.size + 2),
    )


def step_matrix(problem_id, n_cells, theta, dt, first_step):
    problem = builtin_problem(problem_id)
    mesh = UniformMesh(problem.domain[0], problem.domain[1], n_cells)
    w = basis_weights(mesh)
    w1, w2, _, _ = scheme_stencil(problem.alpha, problem.beta, theta, dt, w, first_step)
    return _collocation_matrix(w, n_cells, w1, w2, problem.boundary.kind)


class TestFixedPointSweep:
    def test_step_matrices_reach_the_fixed_point_early(self):
        # the plain sweep repeats its pivot bit for bit well before the end
        system = step_matrix(1, 2000, 0.75, 1e-3, False)
        pivots = np.asarray(assert_sweep_matches_reference(system)[0])
        repeats = np.flatnonzero(pivots[2:-1] == pivots[1:-2])
        assert repeats.size and repeats[0] < 100
        # the last condensed row has its own coefficients and pivot
        assert pivots[-1] != pivots[-2]

    def test_floor_failure_inside_the_constant_run(self):
        # pivots 7/8, 6/7, ... of the (1, 2, 1) stencil reach zero at block row 7
        size = 30
        system = block_system(np.ones(size - 1), [7 / 8] + [2.0] * (size - 1), np.ones(size - 1))
        want = assert_sweep_matches_reference(system)
        assert want[:2] == ("singular", 8)

    def test_floor_failure_in_the_last_condensed_row(self):
        size = 60
        sub, diag, sup = np.ones(size - 1), np.full(size, 4.0), np.ones(size - 1)
        pivots = plain_pivot_sweep(sub, diag, sup)
        assert pivots[-2] == pivots[-3]  # the run converged before the last row
        # cancel the last pivot exactly: d - l * (u / p) == 0
        diag[-1] = sub[-1] * (sup[-1] / pivots[-2])
        want = assert_sweep_matches_reference(block_system(sub, diag, sup))
        assert want == ("singular", size, np.float64(0.0).view(np.int64))

    def test_repeated_pivot_before_the_run_is_not_a_fixed_point(self):
        # block rows 0 and 1 share the pivot 2, but the run's map sends 2 to 3.5
        size = 12
        diag = np.array([2.0, 3.0] + [4.0] * (size - 2))
        sub = np.ones(size - 1)
        sup = np.array([2.0] + [1.0] * (size - 2))
        pivots = np.asarray(assert_sweep_matches_reference(block_system(sub, diag, sup))[0])
        assert pivots[0] == pivots[1] != pivots[2]

    def test_run_ends_before_the_last_rows(self):
        # a stencil change a few rows from the end: the tail is marched in full
        size = 80
        sub, diag, sup = np.ones(size - 1), np.full(size, 4.0), np.ones(size - 1)
        diag[-4:] = 5.0
        sub[-6] = 0.5
        assert_sweep_matches_reference(block_system(sub, diag, sup))

    @pytest.mark.parametrize("rows", [4, 5, 6])
    def test_small_blocks(self, rows):
        rng = np.random.default_rng(rows)
        for _ in range(20):
            assert_sweep_matches_reference(random_dominant_system(rng, rows))
        assert_sweep_matches_reference(
            CornerTridiagonalSystem(
                np.ones(rows - 1), np.full(rows, 4.0), np.ones(rows - 1), 1.0, 1.0, np.ones(rows)
            )
        )
        size = rows - 2
        assert_sweep_matches_reference(
            block_system(np.ones(size - 1), np.full(size, 2.0), np.ones(size - 1))
        )

    def test_random_systems_without_a_constant_stencil(self):
        rng = np.random.default_rng(41)
        for n in (7, 50, 1500, 2500):
            assert_sweep_matches_reference(random_dominant_system(rng, n))

    def test_dirichlet_theta_zero_fails_at_the_same_row(self):
        want = assert_sweep_matches_reference(step_matrix(1, 200, 0.0, 1e-3, True))
        assert want[:2] == ("singular", 1)


@settings(max_examples=60, deadline=None)
@given(
    problem_id=st.integers(1, 5),
    n_cells=st.integers(3, 3000),
    theta=st.floats(0.0, 1.0),
    dt=st.floats(-6.0, 0.0).map(lambda e: 10.0**e),
    first_step=st.booleans(),
)
def test_fixed_point_sweep_matches_plain_sweep_property(problem_id, n_cells, theta, dt, first_step):
    try:
        system = step_matrix(problem_id, n_cells, theta, dt, first_step)
    except DegenerateMeshError:
        reject()  # e.g. problem 5 at 3 cells: h = 2 pi / 3 has no spline basis
    assert_sweep_matches_reference(system)


def assert_plan_matches_reference(system, seed=0):
    """The factor's solves and ``levels`` equal the reference solve's bit for
    bit, for a few right-hand sides in a row."""
    factor = CornerTridiagonalFactor(system)
    rng = np.random.default_rng(seed)
    for rhs in rng.uniform(-5.0, 5.0, (3, system.n)):
        want, levels = reference_solve(factor, rhs)
        assert factor.levels == levels
        assert np.array_equal(factor.solve(rhs).view(np.int64), want.view(np.int64))


@settings(max_examples=60, deadline=None)
@given(
    problem_id=st.integers(1, 5),
    n_cells=st.integers(3, 3000),
    theta=st.floats(0.0, 1.0),
    dt=st.floats(-6.0, 0.0).map(lambda e: 10.0**e),
    first_step=st.booleans(),
)
# levels (10, 10): shifts up to 2**9 outgrow the run cut to 2**8, so the
# plan is formed again on the full array
@example(problem_id=2, n_cells=3001, theta=1.0, dt=0.01, first_step=False)
def test_doubling_plan_matches_reference_on_step_matrices(
    problem_id, n_cells, theta, dt, first_step
):
    try:
        system = step_matrix(problem_id, n_cells, theta, dt, first_step)
        assert_plan_matches_reference(system)
    except (DegenerateMeshError, SingularSystemError):
        reject()  # no basis at this h, or Dirichlet at theta = 0


@settings(max_examples=40, deadline=None)
@given(
    n=st.one_of(st.integers(4, 6), st.integers(7, 2000)),
    seed=st.integers(0, 2**31 - 1),
)
def test_doubling_plan_matches_reference_without_a_constant_stencil(n, seed):
    assert_plan_matches_reference(random_dominant_system(np.random.default_rng(seed), n), seed)


@settings(max_examples=40, deadline=None)
@given(
    head=st.integers(0, 300),
    run=st.integers(0, 1500),
    tail=st.integers(0, 300),
    gap=st.floats(-3.5, 1.0).map(lambda e: 10.0**e),
    seed=st.integers(0, 2**31 - 1),
)
# 300 rows after the run: level 2**9 is all negligible on the cut copy only
@example(head=0, run=1200, tail=300, gap=4e-3, seed=1)
def test_doubling_plan_matches_reference_around_a_constant_run(head, run, tail, gap, seed):
    # random dominant rows around a run of the (-1, 2 + gap, -1) stencil.  A
    # small gap keeps the multipliers near 1, so many levels count, and the
    # pivots reach their fixed point within the run only after some hundred
    # rows; a constant stretch longer than 2**8 is then cut, and levels with
    # larger shifts need the plan formed again on the full array
    rng = np.random.default_rng(seed)
    size = max(head + run + tail, 2)
    sub = rng.uniform(-1.0, 1.0, size - 1)
    sup = rng.uniform(-1.0, 1.0, size - 1)
    diag = rng.uniform(3.0, 4.0, size)
    sub[head : head + run] = sup[head : head + run] = -1.0
    diag[head : head + run] = 2.0 + gap
    assert_plan_matches_reference(block_system(sub, diag, sup), seed)


def test_stiff_plan_is_formed_in_at_most_two_passes(monkeypatch):
    # problem 1 at theta = 1, dt = 0.1: the pivots reach their fixed point
    # only after about 3200 rows and 14 levels count, so shifts past 2**8
    # outgrow the cut copy and each direction needs the full array once
    passes = []
    doubling_coefficients = linalg._doubling_coefficients
    doubling_levels = linalg._doubling_levels

    def counted_coefficients(multipliers):
        passes.append(0)
        return doubling_coefficients(multipliers)

    def counted_levels(multipliers):
        passes[-1] += 1
        return doubling_levels(multipliers)

    monkeypatch.setattr(linalg, "_doubling_coefficients", counted_coefficients)
    monkeypatch.setattr(linalg, "_doubling_levels", counted_levels)
    factor = CornerTridiagonalFactor(step_matrix(1, 10000, 1.0, 0.1, False))
    assert factor.levels == (14, 14)
    assert passes == [2, 2]
    # the stencil entry writes the multipliers out only for the second pass
    passes.clear()
    args = _stencil(*stencil_args(1, 10000, 1.0, 0.1, "later steps"))
    factor = CornerTridiagonalFactor.from_stencil(*args)
    assert factor.levels == (14, 14)
    assert passes == [2, 2]


def stencil_args(problem_id, n_cells, theta, dt, matrix):
    """The arguments of ``_stencil`` for the initial fit or a step matrix."""
    problem = builtin_problem(problem_id)
    mesh = UniformMesh(problem.domain[0], problem.domain[1], n_cells)
    w = basis_weights(mesh)
    if matrix == "fit":
        return w, n_cells, w.a1, w.a2, BoundaryKind.NEUMANN
    first_step = matrix == "first step"
    w1, w2, _, _ = scheme_stencil(problem.alpha, problem.beta, theta, dt, w, first_step)
    return w, n_cells, w1, w2, problem.boundary.kind


def built(make):
    """``make()``, or the row and pivot bits of the SingularSystemError it raises."""
    try:
        return make()
    except SingularSystemError as exc:
        return ("singular", exc.row, np.float64(exc.pivot).view(np.int64))


def assert_stencil_factor_matches_written_out_band(system, args, seed=0):
    """The factor ``from_stencil(*args)`` solves, counts its levels and
    fails exactly as the factor of ``system``, its band written out, does."""
    general = built(lambda: CornerTridiagonalFactor(system))
    compact = built(lambda: CornerTridiagonalFactor.from_stencil(*args))
    if isinstance(general, tuple):
        assert compact == general
        return
    assert compact.levels == general.levels
    assert np.array_equal(compact._pivots.view(np.int64), general._pivots.view(np.int64))
    for rhs in np.random.default_rng(seed).uniform(-5.0, 5.0, (3, general.n)):
        assert np.array_equal(compact.solve(rhs).view(np.int64), general.solve(rhs).view(np.int64))


@settings(max_examples=60, deadline=None)
@given(
    problem_id=st.integers(1, 5),
    n_cells=st.integers(3, 3000),
    theta=st.floats(0.0, 1.0),
    dt=st.floats(-6.0, 0.0).map(lambda e: 10.0**e),
    matrix=st.sampled_from(["fit", "first step", "later steps"]),
)
# the stiff matrices: the pivots settle after about 3200 rows and 14 levels
# count, so the multiplier run is written out in full
@example(problem_id=1, n_cells=10000, theta=1.0, dt=0.1, matrix="first step")
@example(problem_id=1, n_cells=10000, theta=1.0, dt=0.1, matrix="later steps")
@example(problem_id=1, n_cells=10000, theta=1.0, dt=0.1, matrix="fit")
# Dirichlet at theta = 0: the zero pivot of row 1
@example(problem_id=1, n_cells=20, theta=0.0, dt=0.01, matrix="first step")
def test_stencil_factor_matches_written_out_band_property(problem_id, n_cells, theta, dt, matrix):
    try:
        args = stencil_args(problem_id, n_cells, theta, dt, matrix)
    except DegenerateMeshError:
        reject()  # e.g. problem 5 at 3 cells: h = 2 pi / 3 has no spline basis
    assert_stencil_factor_matches_written_out_band(
        _collocation_matrix(*args), _stencil(*args), n_cells
    )


def written_out(n, lo, mid, first_row, last_row):
    """The system of ``from_stencil``'s arguments, every entry written out."""
    (d0, sup0, corner_top), (corner_bottom, sub_last, dn) = first_row, last_row
    sub, diag, sup = np.full(n - 1, lo), np.full(n, mid), np.full(n - 1, lo)
    diag[0], sup[0], sub[-1], diag[-1] = d0, sup0, sub_last, dn
    return CornerTridiagonalSystem(sub, diag, sup, corner_top, corner_bottom, np.zeros(n))


@pytest.mark.parametrize("n", [4, 5, 6, 7, 40])
def test_stencil_factor_on_small_bands(n):
    # the four-row block is the whole interior, or a cut of it; with the
    # last row (0, 0, dn) the fold leaves row n-2 with the interior's
    # coefficients, so the run reaches the end
    first, last = (4.0, 1.0, 0.5), (0.25, 1.5, 3.0)
    cases = [(1.0, 4.0, first, last), (1.0, 2.0, first, last), (-1.0, 2.5, first, last)]
    cases += [(0.0, 1.0, first, last), (1.0, 4.0, first, (0.0, 0.0, 3.0))]
    for lo, mid, first_row, last_row in cases:
        args = (n, lo, mid, first_row, last_row)
        assert_stencil_factor_matches_written_out_band(written_out(*args), args)


@pytest.mark.parametrize(
    "lo, mid, row, name",
    [
        (np.inf, 1.0, (1.0, 0.0, 1.0), "sub"),
        (1.0, np.nan, (1.0, 0.0, 1.0), "diag"),
        (1.0, 4.0, (np.inf, 0.0, 1.0), "diag"),
        (1.0, 4.0, (1.0, np.nan, 1.0), "sub"),
        (1.0, 4.0, (1.0, 0.0, -np.inf), "diag"),
    ],
)
def test_stencil_factor_names_non_finite_entries_as_the_system_does(lo, mid, row, name):
    # ``row`` is used as the first and as the last row, as the solver does
    with pytest.raises(ValueError, match=f"^non-finite entries in {name}$"):
        CornerTridiagonalFactor.from_stencil(13, lo, mid, row, row)
    with pytest.raises(ValueError, match=f"^non-finite entries in {name}$"):
        written_out(13, lo, mid, row, row)


def test_stencil_factor_needs_four_rows():
    with pytest.raises(ValueError, match="at least 4 rows, got 3"):
        CornerTridiagonalFactor.from_stencil(3, 1.0, 4.0, (1.0, 0.0, 0.0), (0.0, 0.0, 1.0))
