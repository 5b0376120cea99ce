import logging

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.sparse.linalg import splu

import medrec.dsm as dsm
import medrec.forward as forward
import medrec.operators as operators
import medrec.optimizer as optimizer
from medrec.dsm import homogeneous_reference
from medrec.forward import (ForwardSolverError, MeasurementSet, _ForwardSolver,
                            default_excitations, generate_measurements,
                            solve_forward)
from medrec.operators import ConstantDiffusionSolver, diffusion_matrix
from medrec.grid import (BoundaryData, GridMismatchError, ScalarField, StaggeredGrid,
                         average_to_faces, boundary_trace, cell_norm,
                         divergence_to_cells, gradient_to_faces, neumann_to_source,
                         prolong_boundary, prolong_cells, restrict_cells)
from medrec.experiments import make_example


def solve_constant(grid, sigma=1.0, mu=1.0, g=None, h=None):
    return solve_forward(ScalarField.constant(grid, sigma),
                         ScalarField.constant(grid, mu),
                         h if h is not None else BoundaryData.zeros(grid), g)


def manufactured_error(n):
    grid = StaggeredGrid(n)
    src = ScalarField.from_function(
        grid, lambda x, y: (2 * np.pi ** 2 + 1) * np.cos(np.pi * x) * np.cos(np.pi * y))
    u = solve_constant(grid, g=src)
    exact = ScalarField.from_function(
        grid, lambda x, y: np.cos(np.pi * x) * np.cos(np.pi * y))
    return cell_norm(u - exact)


def test_constants_balance():
    grid = StaggeredGrid(16)
    u = solve_constant(grid, g=ScalarField.constant(grid, 1.0))
    assert np.abs(u.values - 1.0).max() < 1e-9


def test_manufactured_solution_second_order():
    e16, e32 = manufactured_error(16), manufactured_error(32)
    assert 3.0 <= e16 / e32 <= 5.0


def test_validation_errors():
    grid = StaggeredGrid(8)
    with pytest.raises(ValueError):
        solve_constant(grid, sigma=0.0)
    with pytest.raises(ValueError):
        solve_constant(grid, mu=-1.0)


def test_grid_mismatch_names_both_grids():
    small, large = StaggeredGrid(8), StaggeredGrid(10)
    one = ScalarField.constant(small, 1.0)
    with pytest.raises(GridMismatchError, match="n=8 vs n=10"):
        _ForwardSolver(one, ScalarField.constant(large, 1.0))
    solver = _ForwardSolver(one, one)
    with pytest.raises(GridMismatchError, match="n=8 vs n=10"):
        solver.solve(BoundaryData(large, np.ones(40)))
    with pytest.raises(GridMismatchError, match="n=8 vs n=10"):
        solver.solve(BoundaryData.zeros(small), ScalarField.constant(large, 1.0))


def test_absorption_free_medium_is_rejected():
    # mu == 0 on every cell leaves the Neumann operator singular
    grid = StaggeredGrid(8)
    h = BoundaryData.from_sides(grid, 0.0, -1.0, 0.0, 1.0)   # zero net flux
    with pytest.raises(ValueError, match="positive somewhere"):
        solve_constant(grid, mu=0.0, h=h)
    with pytest.raises(ValueError, match="positive somewhere"):
        generate_measurements(ScalarField.constant(grid, 1.0),
                              ScalarField.zeros(grid), [h])


@settings(max_examples=30, deadline=None)
@given(n=st.integers(min_value=4, max_value=24),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
       one_absorbing_cell=st.booleans())
@example(n=20, seed=33, one_absorbing_cell=False)
def test_forward_pcg_meets_the_residual_gate(n, seed, one_absorbing_cell):
    # The single absorbing cell is the accepted medium nearest to the
    # singular mu == 0 one.  A random mu puts mu_0 = min mu near zero,
    # where PCG's start is large and its residual drifts: in the pinned
    # draw (min mu 2e-4) its first call ends at a true residual of 1e-9,
    # and only the restart meets tol.
    grid = StaggeredGrid(n)
    rng = np.random.default_rng(seed)
    sigma = 0.5 + 29.5 * rng.random((n, n))
    if one_absorbing_cell:
        mu = np.zeros((n, n))
        mu[rng.integers(n), rng.integers(n)] = 30.0
    else:
        mu = 30.0 * rng.random((n, n))
    solver = _ForwardSolver(ScalarField(grid, sigma), ScalarField(grid, mu))
    h = BoundaryData(grid, rng.standard_normal(4 * n))
    g = ScalarField(grid, rng.standard_normal((n, n)))
    u = solver.solve(h, g)          # raises unless PCG and the gate pass
    assert 0 < solver.iterations <= 2 * forward.FORWARD_PCG_MAX
    b = (neumann_to_source(h) + g).values
    r = ScalarField(grid, mu) * u - divergence_to_cells(
        average_to_faces(ScalarField(grid, sigma)) * gradient_to_faces(u))
    assert np.linalg.norm(r.values - b) <= 1e-10 * np.linalg.norm(b)


@pytest.mark.parametrize("example", ["ex1", "ex2_1", "ex2_2", "ex3", "ex4"])
def test_forward_pcg_matches_a_direct_solve_on_the_examples(example):
    # The examples' media are well conditioned: their data on the 2n grid
    # are an LU solve's up to rounding (measured at most 7e-13 at n=50).
    # On a medium with one absorbing cell the error is bounded by the
    # condition number times PCG's rtol instead, so none is compared there.
    grid = StaggeredGrid(50)
    truth = make_example(example).rasterize(grid)
    sigma_f, mu_f = prolong_cells(truth.sigma, 2), prolong_cells(truth.mu, 2)
    solver = _ForwardSolver(sigma_f, mu_f)
    lu = splu(diffusion_matrix(sigma_f.values, mu_f.values))
    for h in default_excitations(grid, 2):
        h_fine = prolong_boundary(h, 2)
        u = solver.solve(h_fine).values.ravel()
        reference = lu.solve(neumann_to_source(h_fine).values.ravel())
        assert np.linalg.norm(u - reference) <= 1e-11 * np.linalg.norm(reference)


def test_residual_gate_rejects_unreachable_tolerance(monkeypatch):
    grid = StaggeredGrid(8)
    monkeypatch.setattr(forward, "FORWARD_TOL", 1e-30)
    with pytest.raises(ForwardSolverError) as info:
        solve_constant(grid, g=ScalarField.constant(grid, 1.0))
    assert np.isfinite(info.value.residual) and info.value.residual > 1e-30


def test_maximum_principle_sanity():
    grid = StaggeredGrid(12)
    g = ScalarField.from_function(grid, lambda x, y: (x < 0.5).astype(float))
    u = solve_constant(grid, g=g, h=BoundaryData(grid, np.full(48, 0.5)))
    assert u.values.min() >= -1e-9


def test_linearity_in_data(monkeypatch):
    grid = StaggeredGrid(12)
    rng = np.random.default_rng(3)
    g1 = ScalarField(grid, rng.standard_normal((12, 12)))
    g2 = ScalarField(grid, rng.standard_normal((12, 12)))
    monkeypatch.setattr(forward, "FORWARD_TOL", 1e-12)
    u1 = solve_constant(grid, g=g1)
    u2 = solve_constant(grid, g=g2)
    u12 = solve_constant(grid, g=g1 + g2)
    assert cell_norm(u12 - (u1 + u2)) <= 1e-8 * max(cell_norm(u12), 1.0)


def test_example1_media_solution_bounded():
    grid = StaggeredGrid(32)
    truth = make_example("ex1").rasterize(grid)
    h = default_excitations(grid, 1)[0]
    u = solve_forward(truth.sigma, truth.mu, h)
    assert np.isfinite(u.values).all()
    assert np.abs(u.values).max() < 10 * np.abs(h.values).max()


def test_generate_measurements_oversample_one_is_definitional():
    grid = StaggeredGrid(12)
    truth = make_example("ex1").rasterize(grid)
    h = default_excitations(grid, 1)[0]
    sets = generate_measurements(truth.sigma, truth.mu, [h], oversample=1)
    direct = solve_forward(truth.sigma, truth.mu, h)
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


def test_generate_factors_nothing(monkeypatch):
    grid = StaggeredGrid(16)
    truth = make_example("ex4").rasterize(grid)
    excitations = default_excitations(grid, 2)

    def refuse(*args, **kwargs):
        raise AssertionError("sparse factorization in data synthesis")
    for module in (dsm, operators, optimizer):
        monkeypatch.setattr(module, "splu", refuse)
    for module in (operators, optimizer):
        monkeypatch.setattr(module, "factor_spd", refuse)
    sets = generate_measurements(truth.sigma, truth.mu, excitations, oversample=2)
    reference = homogeneous_reference(1.0, 1.0, excitations, oversample=2)
    assert len(sets) == len(reference) == 2

    # one solver for the medium: each excitation's data equal its own solve
    sigma_f, mu_f = prolong_cells(truth.sigma, 2), prolong_cells(truth.mu, 2)
    for m, h in zip(sets, excitations):
        alone = solve_forward(sigma_f, mu_f, prolong_boundary(h, 2))
        assert np.array_equal(m.f.values,
                              boundary_trace(restrict_cells(alone, 2)).values)


@pytest.mark.parametrize("n", [8, 50, 80])
@pytest.mark.parametrize("sigma, mu", [(1.0, 1.0), (30.0, 30.0)])
def test_constant_medium_stops_at_pcg_start(n, sigma, mu):
    # The preconditioner is the constant medium's exact solver, so PCG's
    # start meets its rtol and the data are the DCT's to the bit: the
    # homogeneous reference of the sampling stage is unchanged.  (At 300^2
    # the DCT leaves a residual of 1.6e-12, so one iteration may run.)
    fine = StaggeredGrid(2 * n)
    solver = _ForwardSolver(ScalarField.constant(fine, sigma),
                            ScalarField.constant(fine, mu))
    dct = ConstantDiffusionSolver(2 * n, sigma, mu)
    for h in default_excitations(StaggeredGrid(n), 2):
        h_fine = prolong_boundary(h, 2)
        u = solver.solve(h_fine)
        assert solver.iterations == 0
        b = neumann_to_source(h_fine).values.ravel()
        assert np.array_equal(u.values.ravel(), dct.solve(b))


def test_forward_pcg_iterations_are_logged(caplog):
    grid = StaggeredGrid(12)
    truth = make_example("ex1").rasterize(grid)
    with caplog.at_level(logging.DEBUG, logger="medrec"):
        generate_measurements(truth.sigma, truth.mu, default_excitations(grid, 2))
    records = [r.getMessage() for r in caplog.records
               if r.name == "medrec" and r.getMessage().startswith("forward PCG")]
    assert len(records) == 2                    # one per excitation
    assert all(m.endswith("iterations on 24^2 cells") for m in records)
    assert all(int(m.split()[2]) > 0 for m in records)


def test_pcg_failure_reports_its_last_iterate(monkeypatch):
    # Two iterations miss tol on ex1's medium; the error carries the
    # matrix-free residual of the iterate PCG reached, not of its start.
    grid = StaggeredGrid(24)
    truth = make_example("ex1").rasterize(grid)
    solver = _ForwardSolver(truth.sigma, truth.mu)
    h = default_excitations(grid, 1)[0]
    b = neumann_to_source(h).values
    start = solver._residual(ScalarField(grid, solver.background.solve(b)), b)
    monkeypatch.setattr(forward, "FORWARD_PCG_MAX", 2)
    with pytest.raises(ForwardSolverError, match="last iterate") as info:
        solver.solve(h)
    assert np.isfinite(info.value.residual) and info.value.residual < start
    assert f"(last iterate: {info.value.residual:.3e})" in str(info.value)


def test_shared_factor_keeps_the_residual_gate(monkeypatch):
    grid = StaggeredGrid(8)
    truth = make_example("ex4").rasterize(grid)
    monkeypatch.setattr(forward, "FORWARD_TOL", 1e-30)
    with pytest.raises(ForwardSolverError) as info:
        generate_measurements(truth.sigma, truth.mu, default_excitations(grid, 2))
    assert np.isfinite(info.value.residual) and info.value.residual > 1e-30


def test_default_excitation_count_validation():
    grid = StaggeredGrid(8)
    with pytest.raises(ValueError):
        default_excitations(grid, 0)
    with pytest.raises(ValueError):
        default_excitations(grid, 3)


def test_default_excitations_are_the_amplitude_times_the_table():
    # the paper's push-pull on a uniform influx, then its quarter turn
    grid = StaggeredGrid(8)
    first, second = default_excitations(grid, 2)
    assert [side[0] for side in first.sides()] == [50.0, -150.0, 50.0, 250.0]
    assert [side[0] for side in second.sides()] == [250.0, 50.0, -150.0, 50.0]
    for h, weights in zip((first, second), forward.EXCITATION_SIDES, strict=True):
        assert np.array_equal(h.values, np.repeat(
            np.multiply(weights, forward.EXCITATION_AMPLITUDE), grid.n))
