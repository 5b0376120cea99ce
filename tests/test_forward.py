import numpy as np
import pytest
from scipy.sparse.linalg import splu

import medrec.forward as forward
from medrec.dsm import homogeneous_reference
from medrec.forward import (ForwardProblem, ForwardSolverError,
                            IncompatibleProblemError, MeasurementSet,
                            default_excitations, generate_measurements,
                            solve_forward)
from medrec.grid import (BoundaryData, ScalarField, StaggeredGrid,
                         boundary_trace, cell_norm, prolong_boundary,
                         prolong_cells, restrict_cells)
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


def test_pure_neumann_compatibility():
    grid = StaggeredGrid(8)
    bad = constant_problem(grid, mu=0.0, h=BoundaryData(grid, np.ones(32)))
    with pytest.raises(IncompatibleProblemError):
        solve_forward(bad)
    # compatible zero-mean data solves and returns a mean-free solution
    h = BoundaryData.from_sides(grid, 0.0, -1.0, 0.0, 1.0)
    u = solve_forward(constant_problem(grid, mu=0.0, h=h))
    assert abs(u.values.mean()) < 1e-12


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

    forward_factors.clear()
    reference = homogeneous_reference(1.0, 1.0, excitations, oversample=2)
    assert len(forward_factors) == 1 and len(reference) == 2


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
