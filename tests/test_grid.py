import numpy as np
import pytest

import medrec.grid as gr
from medrec.grid import (BoundaryData, FluxField, GridError, GridMismatchError,
                         ScalarField, StaggeredGrid)
from conftest import random_admissible_flux, random_boundary, random_scalar


def test_grid_rejects_small_or_bad_n():
    with pytest.raises(GridError):
        StaggeredGrid(3)
    with pytest.raises(GridError):
        StaggeredGrid(-1)
    g = StaggeredGrid(4)
    assert g.h == 0.25


def test_field_shape_and_finiteness_validation(grid16):
    with pytest.raises(GridError):
        ScalarField(grid16, np.zeros((4, 4)))
    bad = np.zeros((16, 16))
    bad[3, 3] = np.nan
    with pytest.raises(GridError):
        ScalarField(grid16, bad)
    with pytest.raises(GridError):
        BoundaryData(grid16, np.zeros(16))
    # boundary-normal faces carry no entry, so the all-faces shapes fail
    with pytest.raises(GridError):
        FluxField(grid16, np.zeros((17, 16)), np.zeros((16, 17)))


def test_gradient_of_constant_is_zero(grid16):
    u = ScalarField.constant(grid16, 3.0)
    grad = gr.gradient_to_faces(u)
    assert np.all(grad.x_values == 0.0)
    assert np.all(grad.y_values == 0.0)


def test_gradient_of_linear_field():
    g = StaggeredGrid(4)
    u = ScalarField.from_function(g, lambda x, y: x)
    grad = gr.gradient_to_faces(u)
    assert grad.x_values.shape == (3, 4) and grad.y_values.shape == (4, 3)
    assert np.allclose(grad.x_values, 1.0)
    assert np.all(grad.y_values == 0.0)


def test_divergence_trivials():
    g = StaggeredGrid(8)
    assert np.all(gr.divergence_to_cells(FluxField.zeros(g)).values == 0.0)
    # p_x = x on the interior faces, zero on the boundary: interior divergence is 1
    n = g.n
    px = np.tile((np.arange(1, n) * g.h)[:, None], (1, n))
    p = FluxField(g, px, np.zeros((n, n - 1)))
    div = gr.divergence_to_cells(p)
    assert np.allclose(div.values[1:-1, :], 1.0)


def test_summation_by_parts_identity(grid16, rng):
    for _ in range(20):
        u = random_scalar(grid16, rng)
        p = random_admissible_flux(grid16, rng)
        lhs = gr.face_inner(gr.gradient_to_faces(u), p)
        rhs = gr.cell_inner(u, gr.divergence_to_cells(p))
        assert abs(lhs + rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1e-30)


def test_average_to_faces_values():
    g = StaggeredGrid(8)
    q = ScalarField.constant(g, 2.5)
    avg = gr.average_to_faces(q)
    assert np.all(avg.x_values == 2.5) and np.all(avg.y_values == 2.5)

    vals = np.ones((8, 8))
    vals[3, 4] = 20.0
    avg = gr.average_to_faces(ScalarField(g, vals))
    assert avg.x_values[2, 4] == 10.5 and avg.x_values[3, 4] == 10.5
    assert avg.y_values[3, 3] == 10.5 and avg.y_values[3, 4] == 10.5

    checker = ScalarField.from_function(
        g, lambda x, y: (np.round(x * 8 - 0.5).astype(int)
                         + np.round(y * 8 - 0.5).astype(int)) % 2 * 2.0)
    avg = gr.average_to_faces(checker)
    assert np.allclose(avg.x_values, 1.0)
    assert np.allclose(avg.y_values, 1.0)


def test_average_adjoint_is_exact_transpose(grid16, rng):
    for _ in range(10):
        q = random_scalar(grid16, rng)
        z = FluxField(grid16, rng.standard_normal((15, 16)),
                      rng.standard_normal((16, 15)))
        a = gr.face_inner(gr.average_to_faces(q), z)
        b = gr.cell_inner(q, gr.average_to_faces_adjoint(z))
        assert abs(a - b) <= 1e-12 * max(abs(a), 1e-30)


def test_boundary_trace_values():
    g = StaggeredGrid(4)
    u = ScalarField.constant(g, 5.0)
    assert np.all(gr.boundary_trace(u).values == 5.0)

    u = ScalarField.from_function(g, lambda x, y: y)
    bottom, right, top, left = gr.boundary_trace(u).sides()
    assert np.allclose(bottom, 0.125)
    assert np.allclose(top, 0.875)
    assert np.allclose(right, g.cell_coords_1d())
    assert np.allclose(left, g.cell_coords_1d())


def test_boundary_trace_first_order_accuracy():
    # piecewise-constant trace of a smooth field converges at O(h); the
    # ratio check needs a field with a nonvanishing normal derivative
    def trace_error(n, fn):
        g = StaggeredGrid(n)
        u = ScalarField.from_function(g, fn)
        pts = g.boundary_midpoints()
        exact = fn(pts[:, 0], pts[:, 1])
        return np.abs(gr.boundary_trace(u).values - exact).max()

    cosine = lambda x, y: np.cos(np.pi * x) * np.cos(np.pi * y)
    assert trace_error(16, cosine) <= 2.0 / 16

    expo = lambda x, y: np.exp(x + y)
    e16, e32 = trace_error(16, expo), trace_error(32, expo)
    assert 1.7 <= e16 / e32 <= 2.3


def test_neumann_to_source_values():
    g = StaggeredGrid(10)
    assert np.all(gr.neumann_to_source(BoundaryData.zeros(g)).values == 0.0)
    src = gr.neumann_to_source(BoundaryData(g, np.ones(40))).values
    corners = [src[0, 0], src[0, -1], src[-1, 0], src[-1, -1]]
    assert np.allclose(corners, 20.0)
    assert np.allclose(src[1:-1, 0], 10.0) and np.allclose(src[0, 1:-1], 10.0)
    assert np.all(src[1:-1, 1:-1] == 0.0)


def test_neumann_trace_duality(grid16, rng):
    for _ in range(20):
        h = random_boundary(grid16, rng)
        v = random_scalar(grid16, rng)
        a = gr.cell_inner(gr.neumann_to_source(h), v)
        b = gr.boundary_inner(h, gr.boundary_trace(v))
        assert abs(a - b) <= 1e-12 * max(abs(b), 1e-30)


def test_norms_and_inner_products(grid16, rng):
    one = ScalarField.constant(grid16, 1.0)
    assert gr.cell_norm(one) ** 2 == pytest.approx(1.0, rel=1e-14)
    assert gr.boundary_norm(gr.boundary_trace(one)) ** 2 == pytest.approx(4.0, rel=1e-14)
    for _ in range(10):
        a = random_scalar(grid16, rng)
        b = random_scalar(grid16, rng)
        assert abs(gr.cell_inner(a, b)) <= gr.cell_norm(a) * gr.cell_norm(b) * (1 + 1e-12)


def test_grid_mismatch_errors(rng):
    a = ScalarField.zeros(StaggeredGrid(8))
    b = ScalarField.zeros(StaggeredGrid(16))
    with pytest.raises(GridMismatchError):
        gr.cell_inner(a, b)
    with pytest.raises(GridMismatchError):
        a + b


def test_operators_are_linear(grid16, rng):
    for op, make in ((gr.gradient_to_faces, lambda: random_scalar(grid16, rng)),
                     (gr.divergence_to_cells, lambda: random_admissible_flux(grid16, rng)),
                     (gr.average_to_faces, lambda: random_scalar(grid16, rng)),
                     (gr.boundary_trace, lambda: random_scalar(grid16, rng)),
                     (gr.neumann_to_source, lambda: random_boundary(grid16, rng))):
        x, y = make(), make()
        combo = op(2.0 * x + (-3.0) * y)
        parts = 2.0 * op(x) + (-3.0) * op(y)
        for attr in ("values", "x_values", "y_values"):
            if hasattr(combo, attr):
                c, p = getattr(combo, attr), getattr(parts, attr)
                assert np.allclose(c, p, rtol=1e-12, atol=1e-12)


def test_prolong_restrict_round_trip(rng):
    g = StaggeredGrid(8)
    u = random_scalar(g, rng)
    fine = gr.prolong_cells(u, 3)
    assert fine.grid.n == 24
    back = gr.restrict_cells(fine, 3)
    assert np.allclose(back.values, u.values, rtol=0, atol=1e-14)
    b = random_boundary(g, rng)
    fb = gr.prolong_boundary(b, 2)
    assert fb.grid.n == 16
    assert np.allclose(fb.values[::2], b.values)


@pytest.mark.parametrize("make, arrays", [
    (random_scalar, ("values",)), (random_admissible_flux, ("x_values", "y_values")),
    (random_boundary, ("values",))])
def test_field_arithmetic_is_array_arithmetic(grid16, rng, make, arrays):
    a, b = make(grid16, rng), make(grid16, rng)
    cases = [(a + b, lambda x, y: x + y), (a - b, lambda x, y: x - y),
             (a * b, lambda x, y: x * y), (2 * a, lambda x, y: 2.0 * x),
             (a * 2, lambda x, y: x * 2.0), (-a, lambda x, y: -x),
             (a.copy(), lambda x, y: x)]
    for out, expect in cases:
        assert type(out) is type(a) and out.grid == grid16
        for name in arrays:
            got, x, y = getattr(out, name), getattr(a, name), getattr(b, name)
            assert np.array_equal(got, expect(x, y))
            # each result owns its arrays
            assert not np.shares_memory(got, x) and not np.shares_memory(got, y)
    other = make(StaggeredGrid(8), rng)
    for op in (lambda: a + other, lambda: a - other, lambda: a * other):
        with pytest.raises(GridMismatchError):
            op()
