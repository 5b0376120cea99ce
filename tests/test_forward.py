import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse.linalg import splu

import medrec.forward as forward
from medrec.dsm import homogeneous_reference
from medrec.forward import (ForwardProblem, ForwardSolverError, MeasurementSet,
                            _ForwardSolver, default_excitations,
                            generate_measurements, solve_forward)
from medrec.operators import SPD_LU, diffusion_matrix
from medrec.grid import (BoundaryData, ScalarField, StaggeredGrid,
                         boundary_trace, cell_norm, neumann_to_source,
                         prolong_boundary, prolong_cells, restrict_cells)
from medrec.experiments import make_example


def constant_problem(grid, sigma=1.0, mu=1.0, g=None, h=None):
    return ForwardProblem(
        sigma=ScalarField.constant(grid, sigma),
        mu=ScalarField.constant(grid, mu),
        neumann=h if h is not None else BoundaryData.zeros(grid),
        volumetric_source=g)


def manufactured_error(n):
    grid = StaggeredGrid(n)
    src = ScalarField.from_function(
        grid, lambda x, y: (2 * np.pi ** 2 + 1) * np.cos(np.pi * x) * np.cos(np.pi * y))
    u = solve_forward(constant_problem(grid, g=src))
    exact = ScalarField.from_function(
        grid, lambda x, y: np.cos(np.pi * x) * np.cos(np.pi * y))
    return cell_norm(u - exact)


def test_constants_balance():
    grid = StaggeredGrid(16)
    u = solve_forward(constant_problem(grid, g=ScalarField.constant(grid, 1.0)))
    assert np.abs(u.values - 1.0).max() < 1e-9


def test_manufactured_solution_second_order():
    e16, e32 = manufactured_error(16), manufactured_error(32)
    assert 3.0 <= e16 / e32 <= 5.0


def test_validation_errors():
    grid = StaggeredGrid(8)
    with pytest.raises(ValueError):
        ForwardProblem(ScalarField.constant(grid, 0.0),
                       ScalarField.constant(grid, 1.0), BoundaryData.zeros(grid))
    with pytest.raises(ValueError):
        ForwardProblem(ScalarField.constant(grid, 1.0),
                       ScalarField.constant(grid, -1.0), BoundaryData.zeros(grid))
    with pytest.raises(ValueError):
        solve_forward(constant_problem(grid, g=ScalarField.constant(grid, 1.0)), tol=0.0)


def test_absorption_free_medium_is_rejected():
    # mu == 0 on every cell leaves the Neumann operator singular
    grid = StaggeredGrid(8)
    h = BoundaryData.from_sides(grid, 0.0, -1.0, 0.0, 1.0)   # zero net flux
    with pytest.raises(ValueError, match="positive somewhere"):
        constant_problem(grid, mu=0.0, h=h)
    with pytest.raises(ValueError, match="positive somewhere"):
        generate_measurements(ScalarField.constant(grid, 1.0),
                              ScalarField.zeros(grid), [h])


@settings(max_examples=30, deadline=None)
@given(n=st.integers(min_value=4, max_value=24),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
       one_absorbing_cell=st.booleans())
def test_forward_operator_is_factored_pivot_free(n, seed, one_absorbing_cell):
    # The single absorbing cell is the accepted medium nearest to the
    # singular mu == 0 one.  It holds mu = 30: the constant mode's
    # eigenvalue is about mu / n^2, and two backward-stable solves differ
    # by up to cond * eps, which at mu = 0.5 already exceeds 1e-10.
    grid = StaggeredGrid(n)
    rng = np.random.default_rng(seed)
    sigma = 0.5 + 29.5 * rng.random((n, n))
    if one_absorbing_cell:
        mu = np.zeros((n, n))
        mu[rng.integers(n), rng.integers(n)] = 30.0
    else:
        mu = 30.0 * rng.random((n, n))
    solver = _ForwardSolver(ScalarField(grid, sigma), ScalarField(grid, mu))
    # equal row and column permutations: no row was pivoted
    assert np.array_equal(solver.lu.perm_r, solver.lu.perm_c)
    matrix = diffusion_matrix(sigma, mu)
    b = rng.standard_normal(n * n)
    x = solver.lu.solve(b)
    colamd = splu(matrix)                  # COLAMD with partial pivoting
    reference = colamd.solve(b)
    assert np.abs(x - reference).max() <= 1e-10 * np.abs(reference).max()
    # minimum degree fills less (measured at most 0.91x for n in [4, 24])
    assert solver.lu.L.nnz + solver.lu.U.nnz < colamd.L.nnz + colamd.U.nnz
    # backward stable: residual at rounding level of |A| |x|
    assert np.abs(matrix @ x - b).max() \
        <= 1e-14 * abs(matrix).sum(axis=1).max() * np.abs(x).max()


def test_residual_gate_rejects_unreachable_tolerance():
    grid = StaggeredGrid(8)
    with pytest.raises(ForwardSolverError) as info:
        solve_forward(constant_problem(grid, g=ScalarField.constant(grid, 1.0)),
                      tol=1e-30)
    assert np.isfinite(info.value.residual) and info.value.residual > 1e-30


def test_maximum_principle_sanity():
    grid = StaggeredGrid(12)
    g = ScalarField.from_function(grid, lambda x, y: (x < 0.5).astype(float))
    u = solve_forward(constant_problem(grid, g=g,
                                       h=BoundaryData(grid, np.full(48, 0.5))))
    assert u.values.min() >= -1e-9


def test_linearity_in_data():
    grid = StaggeredGrid(12)
    rng = np.random.default_rng(3)
    g1 = ScalarField(grid, rng.standard_normal((12, 12)))
    g2 = ScalarField(grid, rng.standard_normal((12, 12)))
    u1 = solve_forward(constant_problem(grid, g=g1), tol=1e-12)
    u2 = solve_forward(constant_problem(grid, g=g2), tol=1e-12)
    u12 = solve_forward(constant_problem(grid, g=g1 + g2), tol=1e-12)
    assert cell_norm(u12 - (u1 + u2)) <= 1e-8 * max(cell_norm(u12), 1.0)


def test_example1_media_solution_bounded():
    grid = StaggeredGrid(32)
    truth = make_example("ex1").rasterize(grid)
    h = default_excitations(grid, 1)[0]
    u = solve_forward(ForwardProblem(truth.sigma, truth.mu, h))
    assert np.isfinite(u.values).all()
    assert np.abs(u.values).max() < 10 * np.abs(h.values).max()


def test_generate_measurements_oversample_one_is_definitional():
    grid = StaggeredGrid(12)
    truth = make_example("ex1").rasterize(grid)
    h = default_excitations(grid, 1)[0]
    sets = generate_measurements(truth.sigma, truth.mu, [h], oversample=1)
    direct = solve_forward(ForwardProblem(truth.sigma, truth.mu, h))
    assert np.array_equal(sets[0].f.values, boundary_trace(direct).values)
    assert np.array_equal(sets[0].h.values, h.values)


def test_generate_measurements_oversample_convergence():
    # restricted fine-grid traces approach the direct trace at O(h^2)
    def gap(n):
        grid = StaggeredGrid(n)
        sigma = ScalarField.from_function(grid, lambda x, y: 1 + 0.3 * np.sin(np.pi * x))
        mu = ScalarField.constant(grid, 1.0)
        h = default_excitations(grid, 1)[0]
        f1 = generate_measurements(sigma, mu, [h], oversample=1)[0].f
        f2 = generate_measurements(sigma, mu, [h], oversample=2)[0].f
        return np.abs(f1.values - f2.values).max()

    g8, g16 = gap(8), gap(16)
    assert g16 < g8
    assert g8 / g16 > 2.0


def test_two_excitations_for_ring_example():
    grid = StaggeredGrid(16)
    truth = make_example("ex4").rasterize(grid)
    excitations = default_excitations(grid, 2)
    sets = generate_measurements(truth.sigma, truth.mu, excitations, oversample=2)
    assert len(sets) == 2
    assert all(isinstance(m, MeasurementSet) for m in sets)


@pytest.fixture
def forward_factors(monkeypatch):
    """Count the forward solver's LU factorizations."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return splu(*args, **kwargs)
    monkeypatch.setattr(forward, "splu", counting)
    return calls


def test_one_factorization_per_medium(forward_factors):
    grid = StaggeredGrid(16)
    truth = make_example("ex4").rasterize(grid)
    excitations = default_excitations(grid, 2)
    sets = generate_measurements(truth.sigma, truth.mu, excitations, oversample=2)
    assert len(forward_factors) == 1
    sigma_f, mu_f = prolong_cells(truth.sigma, 2), prolong_cells(truth.mu, 2)
    for m, h in zip(sets, excitations):
        alone = solve_forward(ForwardProblem(sigma_f, mu_f, prolong_boundary(h, 2)))
        assert np.array_equal(m.f.values,
                              boundary_trace(restrict_cells(alone, 2)).values)

    # A constant medium is solved by the DCT, with nothing factored; the
    # splu route it replaced is the oracle.
    forward_factors.clear()
    reference = homogeneous_reference(1.0, 1.0, excitations, oversample=2)
    assert len(forward_factors) == 0 and len(reference) == 2
    fine = StaggeredGrid(32)
    lu = splu(diffusion_matrix(np.ones((32, 32)), np.ones((32, 32))), **SPD_LU)
    for f, h in zip(reference, excitations):
        b = neumann_to_source(prolong_boundary(h, 2)).values.ravel()
        u = ScalarField(fine, lu.solve(b).reshape(32, 32))
        oracle = boundary_trace(restrict_cells(u, 2)).values
        assert np.linalg.norm(f.values - oracle) <= 1e-12 * np.linalg.norm(oracle)


def test_shared_factor_keeps_the_residual_gate():
    grid = StaggeredGrid(8)
    truth = make_example("ex4").rasterize(grid)
    with pytest.raises(ForwardSolverError) as info:
        generate_measurements(truth.sigma, truth.mu,
                              default_excitations(grid, 2), tol=1e-30)
    assert np.isfinite(info.value.residual) and info.value.residual > 1e-30


def test_default_excitation_count_validation():
    grid = StaggeredGrid(8)
    with pytest.raises(ValueError):
        default_excitations(grid, 0)
    with pytest.raises(ValueError):
        default_excitations(grid, 3)
