"""The assembled sparse operators agree with their matrix-free grid.py twins."""

import numpy as np
from hypothesis import given, settings, strategies as st

import medrec.grid as gr
from medrec import operators as ops
from medrec.grid import BoundaryData, ScalarField, StaggeredGrid

grids = st.integers(min_value=4, max_value=40)
seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)
property_settings = settings(max_examples=30, deadline=None)


def assert_close(assembled, reference):
    scale = max(np.abs(reference).max(), 1.0)
    np.testing.assert_allclose(assembled, reference, rtol=0, atol=1e-13 * scale)


@property_settings
@given(n=grids, seed=seeds)
def test_gradient_matches_grid(n, seed):
    grid = StaggeredGrid(n)
    u = ScalarField(grid, np.random.default_rng(seed).standard_normal((n, n)))
    gx, gy = ops.face_gradient(n)
    free = gr.gradient_to_faces(u)
    assert_close(gx @ u.values.ravel(), free.x_values.ravel())
    assert_close(gy @ u.values.ravel(), free.y_values.ravel())


@property_settings
@given(n=grids, seed=seeds)
def test_averaging_matches_grid_on_interior_faces(n, seed):
    grid = StaggeredGrid(n)
    q = ScalarField(grid, np.random.default_rng(seed).standard_normal((n, n)))
    ax, ay = ops.face_average(n)
    free = gr.average_to_faces(q)
    assert_close(ax @ q.values.ravel(), free.x_values.ravel())
    assert_close(ay @ q.values.ravel(), free.y_values.ravel())


@property_settings
@given(n=grids, seed=seeds)
def test_trace_and_neumann_source_match_grid(n, seed):
    grid = StaggeredGrid(n)
    rng = np.random.default_rng(seed)
    u = ScalarField(grid, rng.standard_normal((n, n)))
    b = BoundaryData(grid, rng.standard_normal(4 * n))
    t, src = ops.trace(n), ops.neumann_source(n)
    assert np.array_equal(t @ u.values.ravel(), gr.boundary_trace(u).values)
    assert_close(src @ b.values, gr.neumann_to_source(b).values.ravel())
    assert (src != t.T / grid.h).nnz == 0


@property_settings
@given(n=grids, seed=seeds)
def test_diffusion_matrix_matches_matrix_free(n, seed):
    grid = StaggeredGrid(n)
    rng = np.random.default_rng(seed)
    sigma = ScalarField(grid, 0.5 + 20.0 * rng.random((n, n)))
    mu = ScalarField(grid, 10.0 * rng.random((n, n)))
    u = ScalarField(grid, rng.standard_normal((n, n)))
    flux = gr.average_to_faces(sigma) * gr.gradient_to_faces(u)
    free = mu * u - gr.divergence_to_cells(flux)
    assembled = ops.diffusion_matrix(sigma.values, mu.values) @ u.values.ravel()
    assert_close(assembled, free.values.ravel())
