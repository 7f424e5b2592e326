"""Basis function values, derivatives, and knot-weight identities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from telespline.basis import (
    DegenerateMeshError,
    UniformMesh,
    _cell_basis,
    basis_weights,
    evaluate_solution,
    knot_values,
)

import oracle

# frozen against a 30-digit mpmath evaluation of the closed forms
WEIGHTS_PI_THIRD = (
    0.28867513459481288,
    1.0,
    -0.75,
    0.75,
    1.0825317547305483,
    -2.25,
)
WEIGHTS_HALF = (
    0.18730003060000233,
    0.72590930494050451,
    -1.1002895433562576,
    1.1002895433562576,
    4.1686080218344618,
    -8.3502481765487868,
)


def mesh_with_h(h, n_cells=8):
    return UniformMesh(0.0, n_cells * h, n_cells)


def as_tuple(w):
    return (w.a1, w.a2, w.a3, w.a4, w.a5, w.a6)


def tb0_at_knots(mesh, order):
    """TB_0 at x_0 .. x_4 from the cell kernel.

    At u = 0 the kernel's columns are TB_{c-3} .. TB_c at x_c, so TB_0 at
    x_0 .. x_3 reads them backwards; x_4 ends TB_{c-3}'s support at u = h.
    """
    cell = _cell_basis(np.array([0.0, mesh.h]), mesh)[order]
    return [*cell[0, ::-1], cell[1, 0]]


def seam_sides(mesh, seam):
    """(value, d1, d2) of TB_0's branches on each side of knot ``seam``.

    Branch seam - 1 is column 4 - seam of its cell at u = h, branch seam
    is column 3 - seam of the next cell at u = 0.
    """
    cell = _cell_basis(np.array([0.0, mesh.h]), mesh)
    return cell[:, 1, 4 - seam], cell[:, 0, 3 - seam]


class TestWeights:
    def test_frozen_values_pi_third(self):
        w = basis_weights(UniformMesh(0.0, math.pi, 3))
        assert as_tuple(w) == pytest.approx(WEIGHTS_PI_THIRD, rel=1e-14)

    def test_frozen_values_half(self):
        w = basis_weights(UniformMesh(0.0, 2.0, 4))
        assert as_tuple(w) == pytest.approx(WEIGHTS_HALF, rel=1e-14)

    def test_small_h_limits(self):
        # a1 -> 1/6 and a2 -> 2/3, the polynomial cubic B-spline values
        w = basis_weights(UniformMesh(0.0, 3e-4, 3))
        assert w.a1 == pytest.approx(1 / 6, abs=1e-6)
        assert w.a2 == pytest.approx(2 / 3, abs=1e-6)

    def test_first_derivative_weights_are_opposite(self):
        for mesh in (mesh_with_h(0.1), mesh_with_h(0.5), mesh_with_h(1.0)):
            w = basis_weights(mesh)
            assert w.a3 + w.a4 == 0.0
            assert w.a4 > 0.0

    def test_degenerate_width_rejected(self):
        # h = 2*pi/3 zeroes the normalisation denominators
        with pytest.raises(DegenerateMeshError):
            basis_weights(UniformMesh(0.0, 2 * math.pi, 3))

    def test_mesh_validation(self):
        with pytest.raises(ValueError):
            UniformMesh(1.0, 0.0, 5)
        with pytest.raises(ValueError):
            UniformMesh(0.0, 1.0, 2)
        with pytest.raises(ValueError):
            UniformMesh(0.0, 10.0, 3)  # h > pi

    @pytest.mark.parametrize("n_cells", [10.5, 10.0, "10"])
    def test_cell_count_must_be_an_integer(self, n_cells):
        # 10.5 would give h = 1/10.5 and 12 knots, and break run() in numpy
        with pytest.raises(ValueError, match=f"integer cell count, got {n_cells!r}"):
            UniformMesh(0.0, 1.0, n_cells)

    def test_numpy_integer_cell_count_is_taken_as_int(self):
        mesh = UniformMesh(0.0, 1.0, np.int64(10))
        assert type(mesh.n_cells) is int and mesh.n_cells == 10
        assert mesh == UniformMesh(0.0, 1.0, 10)

    def test_knot_helpers(self):
        mesh = UniformMesh(0.0, 1.0, 4)
        assert mesh.h == 0.25
        assert mesh.knots()[0] == 0.0
        assert mesh.knots()[4] == 1.0  # exact right endpoint, no accumulation
        assert oracle.knot(mesh, -3) == -0.75
        assert mesh.knots() == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])

    @pytest.mark.parametrize(
        "a, b, n",
        [(0.0, 1.0, 4), (0, 3, 9), (0.0, math.pi, 7), (0.1, 0.7, 3), (-1.3, 2.9, 10000)],
    )
    def test_knots_equal_knot_exactly(self, a, b, n):
        mesh = UniformMesh(a, b, n)
        assert mesh.knots().tolist() == [oracle.knot(mesh, i) for i in range(n + 1)]


class TestKnotTable:
    @pytest.mark.parametrize("mesh", [mesh_with_h(0.5), UniformMesh(0.0, math.pi, 5)])
    def test_value_row(self, mesh):
        w = basis_weights(mesh)
        got = tb0_at_knots(mesh, 0)
        assert got == pytest.approx([0.0, w.a1, w.a2, w.a1, 0.0], abs=1e-12)

    @pytest.mark.parametrize("mesh", [mesh_with_h(0.5), UniformMesh(0.0, math.pi, 5)])
    def test_first_derivative_row(self, mesh):
        # rises into the peak (a4 > 0 at x_{i+1}), falls after it (a3 < 0)
        w = basis_weights(mesh)
        got = tb0_at_knots(mesh, 1)
        assert got == pytest.approx([0.0, w.a4, 0.0, w.a3, 0.0], abs=1e-12)

    @pytest.mark.parametrize("mesh", [mesh_with_h(0.5), UniformMesh(0.0, math.pi, 5)])
    def test_second_derivative_row(self, mesh):
        w = basis_weights(mesh)
        got = tb0_at_knots(mesh, 2)
        assert got == pytest.approx([0.0, w.a5, w.a6, w.a5, 0.0], abs=1e-12)


# TB_0 at x = 0.21, 0.77, 1.13 and 1.68 on h = 0.5: (offset u in the cell, column)
FD_POINTS = ((0.21, 3), (0.27, 2), (0.13, 1), (0.18, 0))


class TestShape:
    def test_compact_support(self):
        # TB_2 alone, on [x_2, x_6]: zero off it, positive inside
        mesh = mesh_with_h(0.4)
        unit = np.zeros(mesh.n_cells + 3)
        unit[5] = 1.0
        x2, x4, x6, x8 = (oracle.knot(mesh, i) for i in (2, 4, 6, 8))
        outside = [x2 - 0.7, x6 + 1e-9, x8]
        for order in (0, 1, 2):
            assert evaluate_solution(unit, outside, mesh, order).tolist() == [0.0, 0.0, 0.0]
        assert evaluate_solution(unit, x4 + 0.13, mesh) > 0.0
        # and the kernel's first and last branches end in a zero triple
        cell = _cell_basis(np.array([0.0, mesh.h]), mesh)
        assert cell[:, 0, 3].tolist() == [0.0, 0.0, 0.0]
        assert cell[:, 1, 0].tolist() == [0.0, 0.0, 0.0]

    def test_symmetry_about_support_centre(self):
        # TB_i is even about x_{i+2}: column j at u mirrors column 3 - j at h - u
        mesh = mesh_with_h(0.3)
        u = np.array([0.05, 0.21, 0.14, 0.29])
        near, far = _cell_basis(u, mesh), _cell_basis(mesh.h - u, mesh)[..., ::-1]
        assert near[0] == pytest.approx(far[0], rel=1e-12)
        assert near[1] == pytest.approx(-far[1], rel=1e-12, abs=1e-14)
        assert near[2] == pytest.approx(far[2], rel=1e-12)

    def test_c2_continuity_at_interior_knots(self):
        # adjacent branch formulas agree in value, d1 and d2 at the seam
        for mesh in (mesh_with_h(0.5), mesh_with_h(1.0), UniformMesh(0.0, math.pi, 5)):
            for seam in (1, 2, 3):
                left, right = seam_sides(mesh, seam)
                assert left == pytest.approx(right, abs=1e-10)

    def test_d1_matches_finite_differences(self):
        mesh = mesh_with_h(0.5)
        delta = 1e-6 * mesh.h
        for u, column in FD_POINTS:
            value, d1, _ = _cell_basis(np.array([u - delta, u, u + delta]), mesh)[..., column]
            fd = (value[2] - value[0]) / (2 * delta)
            assert d1[1] == pytest.approx(fd, rel=1e-5)

    def test_d2_matches_finite_differences_of_d1(self):
        mesh = mesh_with_h(0.5)
        delta = 1e-6 * mesh.h
        for u, column in FD_POINTS:
            _, d1, d2 = _cell_basis(np.array([u - delta, u, u + delta]), mesh)[..., column]
            fd = (d1[2] - d1[0]) / (2 * delta)
            assert d2[1] == pytest.approx(fd, rel=1e-5)

    def test_bad_derivative_order(self):
        mesh = mesh_with_h(0.5)
        with pytest.raises(ValueError):
            evaluate_solution(np.zeros(mesh.n_cells + 3), 0.3, mesh, 3)
        with pytest.raises(ValueError):
            knot_values(np.zeros(mesh.n_cells + 3), basis_weights(mesh), -1)


class TestExpansion:
    def test_matches_brute_force_sum(self):
        rng = np.random.default_rng(3)
        mesh = UniformMesh(0.0, 2.0, 7)
        coeffs = rng.uniform(-2.0, 2.0, mesh.n_cells + 3)
        for x in rng.uniform(0.0, 2.0, 25):
            brute = sum(
                coeffs[i + 3] * oracle.eval_basis(i, float(x), mesh)
                for i in range(-3, mesh.n_cells)
            )
            assert evaluate_solution(coeffs, float(x), mesh) == pytest.approx(
                brute, rel=1e-12, abs=1e-13
            )

    def test_knot_values_match_pointwise_evaluation(self):
        rng = np.random.default_rng(4)
        mesh = UniformMesh(0.0, math.pi, 9)
        w = basis_weights(mesh)
        coeffs = rng.uniform(-1.0, 1.0, mesh.n_cells + 3)
        for order in (0, 1, 2):
            table = knot_values(coeffs, w, order)
            direct = [
                evaluate_solution(coeffs, float(x), mesh, order) for x in mesh.knots()
            ]
            assert table == pytest.approx(direct, rel=1e-10, abs=1e-10)

    def test_stacked_coefficients_give_each_frame_bit_for_bit(self):
        rng = np.random.default_rng(5)
        mesh = UniformMesh(0.0, math.pi, 17)
        w = basis_weights(mesh)
        stack = rng.uniform(-1.0, 1.0, (6, mesh.n_cells + 3))
        for order in (0, 1, 2):
            table = knot_values(stack, w, order)
            assert table.shape == (6, mesh.n_cells + 1)
            for row, coeffs in zip(table, stack):
                assert row.tobytes() == knot_values(coeffs, w, order).tobytes()

    def test_unit_coefficient_reproduces_weight_rows(self):
        mesh = UniformMesh(0.0, 2.0, 6)
        w = basis_weights(mesh)
        coeffs = np.zeros(mesh.n_cells + 3)
        coeffs[3] = 1.0  # the spline TB_0, peaking at knot 2
        assert knot_values(coeffs, w, 0)[2] == pytest.approx(w.a2, rel=1e-14)
        assert knot_values(coeffs, w, 1)[1] == pytest.approx(w.a4, rel=1e-14)
        assert knot_values(coeffs, w, 2)[2] == pytest.approx(w.a6, rel=1e-14)

    def test_domain_and_shape_checks(self):
        mesh = UniformMesh(0.0, 1.0, 5)
        with pytest.raises(ValueError):
            evaluate_solution(np.zeros(8), 1.5, mesh)
        with pytest.raises(ValueError):
            evaluate_solution(np.zeros(4), 0.5, mesh)

    def test_accepts_objects_with_values_attribute(self):
        mesh = UniformMesh(0.0, 1.0, 5)

        class Holder:
            values = np.ones(8)

        assert evaluate_solution(Holder(), 0.5, mesh) == pytest.approx(
            evaluate_solution(np.ones(8), 0.5, mesh)
        )


@settings(max_examples=60, deadline=None)
@given(
    h=st.floats(min_value=0.05, max_value=1.8),
    offset=st.floats(min_value=0.0, max_value=4.0),
)
def test_seam_continuity_property(h, offset):
    mesh = UniformMesh(offset, offset + 6 * h, 6)
    try:
        basis_weights(mesh)
    except DegenerateMeshError:
        return
    for seam in (1, 2, 3):
        left, right = seam_sides(mesh, seam)
        scale = max(1.0, abs(left[2]))
        assert np.max(np.abs(left - right)) <= 1e-10 * scale


@settings(max_examples=60, deadline=None)
@given(
    h=st.floats(min_value=0.05, max_value=1.8),
    coeff=st.floats(min_value=-10.0, max_value=10.0),
    scale=st.floats(min_value=-3.0, max_value=3.0),
)
def test_expansion_linearity_property(h, coeff, scale):
    mesh = UniformMesh(0.0, 5 * h, 5)
    try:
        w = basis_weights(mesh)
    except DegenerateMeshError:
        return
    base = np.linspace(-1.0, 1.0, mesh.n_cells + 3)
    lhs = knot_values(coeff + scale * base, w, 0)
    rhs = coeff * knot_values(np.ones_like(base), w, 0) + scale * knot_values(
        base, w, 0
    )
    assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-11)


class TestArrayEvaluation:
    def test_result_keeps_the_shape_of_x(self):
        mesh = UniformMesh(-1.3, 2.9, 11)
        coeffs = np.random.default_rng(6).uniform(-1.0, 1.0, mesh.n_cells + 3)
        grid = np.linspace(mesh.a, mesh.b, 12).reshape(3, 4)
        for order in (0, 1, 2):
            flat = evaluate_solution(coeffs, grid.ravel(), mesh, order)
            assert flat.shape == (12,)
            table = evaluate_solution(coeffs, grid, mesh, order)
            assert table.shape == (3, 4)
            assert table.tobytes() == flat.tobytes()
            point = evaluate_solution(coeffs, grid[1, 2], mesh, order)
            assert isinstance(point, np.floating)
            assert np.shape(evaluate_solution(coeffs, np.array(grid[1, 2]), mesh, order)) == ()
            assert point == pytest.approx(table[1, 2], rel=1e-15, abs=1e-15)

    @pytest.mark.parametrize("a, b, n", [(0.0, math.pi, 9), (-1.3, 2.9, 1000), (0.0, 1.0, 10000)])
    def test_knots_match_knot_values(self, a, b, n):
        # on a knot the offset into its cell is exactly 0
        mesh = UniformMesh(a, b, n)
        w = basis_weights(mesh)
        coeffs = np.random.default_rng(7).uniform(-1.0, 1.0, n + 3)
        for order in (0, 1, 2):
            table = knot_values(coeffs, w, order)
            got = evaluate_solution(coeffs, mesh.knots(), mesh, order)
            assert np.max(np.abs(got - table)) <= 1e-14 * np.max(np.abs(table))

    @pytest.mark.parametrize(
        "x, named",
        [
            (float("nan"), "nan"),
            (-0.25, "-0.25"),
            ([0.2, float("nan"), 3.0], "nan"),
            ([[0.2, 0.4], [1.5, float("nan")]], "1.5"),
        ],
    )
    def test_nan_and_outside_points_are_named(self, x, named):
        mesh = UniformMesh(0.0, 1.0, 5)
        with pytest.raises(ValueError, match=rf"^point {named} lies outside the domain \[0.0, 1.0\]$"):
            evaluate_solution(np.ones(8), x, mesh)

    def test_bad_derivative_order(self):
        mesh = UniformMesh(0.0, 1.0, 5)
        with pytest.raises(ValueError, match="derivative_order"):
            evaluate_solution(np.ones(8), [0.1, 0.2], mesh, 3)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(min_value=3, max_value=1000),
    h=st.floats(min_value=0.01, max_value=1.8),
    a=st.floats(min_value=-4.0, max_value=4.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_kernel_matches_scalar_oracle_property(n, h, a, seed):
    # Both paths place the knots to within eps * |x|, so they may differ by
    # about eps * |x| / h of the spline's scale: below 1e-12 while |x| / h
    # stays near n <= 1000.
    mesh = UniformMesh(a, a + n * h, n)
    try:
        w = basis_weights(mesh)
    except DegenerateMeshError:
        return
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(-1.0, 1.0, n + 3)
    # knots, where the oracle takes the left branch, and both ends
    x = np.concatenate(
        ([mesh.a, mesh.b], rng.choice(mesh.knots(), 4), rng.uniform(mesh.a, mesh.b, 6))
    )
    for order in (0, 1, 2):
        scale = np.max(np.abs(knot_values(coeffs, w, order)))
        got = evaluate_solution(coeffs, x, mesh, order)
        want = [oracle.evaluate_solution(coeffs, float(p), mesh, order) for p in x]
        assert np.max(np.abs(got - want)) <= 1e-12 * scale
