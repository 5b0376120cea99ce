import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse.linalg import splu

from medrec.forward import MeasurementSet, default_excitations, generate_measurements
from medrec.grid import (BoundaryData, FluxField, ScalarField, StaggeredGrid,
                         average_to_faces, gradient_to_faces)
from medrec.model import (CoefficientPair, StatePair, coefficient_misfit_gradients,
                          eval_J, misfit_value, sources_from_measurements,
                          state_normal_apply, state_normal_residual)
from medrec.optimizer import (COEFF_TOL, STATE_TOL, AdiConfig, SubproblemFailure,
                              _StateSolver, _mu_problem, _sigma_problem,
                              adi_reconstruct, bregman_diagnostics, pack_state,
                              solve_coefficient_subproblem,
                              solve_state_subproblem)
from medrec.regularization import RegConfig, eval_phi_smooth, smooth_grad_phi
from medrec.experiments import make_example
from conftest import random_admissible_flux, random_scalar


def small_problem(n=16, example="ex1", oversample=2):
    grid = StaggeredGrid(n)
    truth = make_example(example).rasterize(grid)
    excitations = default_excitations(grid, 1)
    sets = generate_measurements(truth.sigma, truth.mu, excitations,
                                 oversample=oversample)
    return grid, truth, sets


def default_config(max_outer=10, **kw):
    return AdiConfig(reg_sigma=RegConfig(1e-2, 2e-2, 0.5, 30.0),
                     reg_mu=RegConfig(5e-4, 5e-4, 0.5, 30.0),
                     max_outer=max_outer, **kw)


def test_assembled_matches_matrix_free(rng):
    grid = StaggeredGrid(12)
    q = CoefficientPair(ScalarField(grid, 1.0 + rng.random((12, 12))),
                        ScalarField(grid, 0.5 + rng.random((12, 12))))
    solver = _StateSolver(q)
    for _ in range(5):
        v = StatePair(random_scalar(grid, rng), random_admissible_flux(grid, rng))
        x = pack_state(v)
        assembled = solver._m.T @ (solver._w * (solver._m @ x))
        free = pack_state(state_normal_apply(q, v)) * grid.h ** 2
        assert np.allclose(assembled, free, rtol=1e-12, atol=1e-12)


def random_box_coefficients(grid, rng):
    n = grid.n
    return CoefficientPair(ScalarField(grid, 0.5 + 29.5 * rng.random((n, n))),
                           ScalarField(grid, 0.5 + 29.5 * rng.random((n, n))))


def lu_nnz(lu):
    return lu.L.nnz + lu.U.nnz


@settings(max_examples=30, deadline=None)
@given(n=st.integers(min_value=4, max_value=24),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_state_normal_matrix_is_spd_and_factored_pivot_free(n, seed):
    grid = StaggeredGrid(n)
    rng = np.random.default_rng(seed)
    solver = _StateSolver(random_box_coefficients(grid, rng))
    normal = solver.normal_matrix()
    scale = abs(normal).max()
    assert abs(normal - normal.T).max() <= 1e-13 * scale
    # equal row and column permutations: no row was pivoted
    assert np.array_equal(solver._lu.perm_r, solver._lu.perm_c)
    b = rng.standard_normal(normal.shape[0])
    reference = splu(normal).solve(b)      # COLAMD with partial pivoting
    assert np.abs(solver._lu.solve(b) - reference).max() \
        <= 1e-10 * np.abs(reference).max()


def test_state_factor_fill_halves_against_colamd():
    grid = StaggeredGrid(50)
    solver = _StateSolver(random_box_coefficients(grid, np.random.default_rng(0)))
    # measured 0.45; minimum degree with partial pivoting fills far more
    assert lu_nnz(solver._lu) < 0.6 * lu_nnz(splu(solver.normal_matrix()))


def assert_rel_close(actual, reference, rtol=1e-12):
    np.testing.assert_allclose(actual, reference, rtol=0,
                               atol=rtol * np.abs(reference).max())


@settings(max_examples=30, deadline=None)
@given(n=st.integers(min_value=4, max_value=24),
       excitations=st.integers(min_value=1, max_value=2),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
       alpha=st.floats(min_value=0.0, max_value=1.0),
       beta=st.floats(min_value=0.0, max_value=1.0))
def test_coefficient_problems_match_matrix_free_model(n, excitations, seed,
                                                     alpha, beta):
    grid = StaggeredGrid(n)
    rng = np.random.default_rng(seed)
    states = [StatePair(random_scalar(grid, rng), random_admissible_flux(grid, rng))
              for _ in range(excitations)]
    sources = [random_scalar(grid, rng) for _ in range(excitations)]
    reg = RegConfig(alpha, beta, 0.5, 30.0)
    q = CoefficientPair(ScalarField(grid, 0.5 + 29.5 * rng.random((n, n))),
                        ScalarField(grid, 0.5 + 29.5 * rng.random((n, n))))
    problems = (_sigma_problem(states, reg, n), _mu_problem(states, sources, reg, n))
    fields = (q.sigma, q.mu)

    grads = [coefficient_misfit_gradients(v, q, g) for v, g in zip(states, sources)]
    for k, (problem, fld) in enumerate(zip(problems, fields)):
        free = sum(gr[k].values for gr in grads) + smooth_grad_phi(fld, reg).values
        x = fld.values.ravel()
        assert_rel_close(problem.smooth_grad(x), free.ravel())
        s = rng.standard_normal(n * n)
        assert_rel_close(problem.hess @ s,
                         problem.smooth_grad(x + s) - problem.smooth_grad(x))

    # sigma and mu split the misfit between them: flux and divergence parts
    assembled = sum(p.total_value(f.values.ravel()) for p, f in zip(problems, fields))
    free = sum(misfit_value(v, q, g) for v, g in zip(states, sources)) \
        + sum(eval_phi_smooth(f, reg) + beta * grid.h ** 2 * np.abs(f.values).sum()
              for f in fields)
    assert abs(assembled - free) <= 1e-12 * abs(free)


def test_state_subproblem_zero_data_gives_zero(grid16):
    q = CoefficientPair(ScalarField.constant(grid16, 1.0),
                        ScalarField.constant(grid16, 1.0))
    cfg = default_config()
    v = solve_state_subproblem(q, ScalarField.zeros(grid16),
                               BoundaryData.zeros(grid16), cfg)
    assert np.abs(v.u.values).max() == 0.0
    assert np.abs(v.p.x_values).max() == 0.0


def test_state_subproblem_beats_forward_state():
    grid, truth, sets = small_problem()
    cfg = default_config()
    source = sources_from_measurements(sets)[0]
    v = solve_state_subproblem(truth, source, sets[0].f, cfg)
    assert state_normal_residual(truth, v, source, sets[0].f) <= STATE_TOL
    # the solved state fits at least as well as the forward-model state
    from medrec.forward import ForwardProblem, solve_forward
    u_fwd = solve_forward(ForwardProblem(truth.sigma, truth.mu, sets[0].h))
    s_face = average_to_faces(truth.sigma)
    gu = gradient_to_faces(u_fwd)
    v_fwd = StatePair(u_fwd, FluxField(grid, s_face.x_values * gu.x_values,
                                       s_face.y_values * gu.y_values))
    wide = RegConfig(0.0, 0.0, -1e9, 1e9)
    j_solved = eval_J(v, truth, source, sets[0], wide, wide)
    j_fwd = eval_J(v_fwd, truth, source, sets[0], wide, wide)
    assert j_solved <= j_fwd + 1e-10 * (1 + j_fwd)


def test_state_factor_failure_is_subproblem_failure(grid16, singular_factor):
    q = CoefficientPair(ScalarField.constant(grid16, 1.0),
                        ScalarField.constant(grid16, 1.0))
    with pytest.raises(SubproblemFailure, match="exactly singular"):
        solve_state_subproblem(q, ScalarField.zeros(grid16),
                               BoundaryData.zeros(grid16), default_config())


def test_adi_state_factor_failure_carries_report(singular_factor):
    grid, truth, sets = small_problem(n=8)
    with pytest.raises(SubproblemFailure) as info:
        adi_reconstruct(sets, truth, default_config(max_outer=2))
    assert info.value.report.stop_reason == "subproblem_failure"
    assert info.value.report.iterations == 0


def test_state_subproblem_requires_feasible_coefficients(grid16):
    cfg = default_config()
    q = CoefficientPair(ScalarField.constant(grid16, 0.1),  # below the box
                        ScalarField.constant(grid16, 1.0))
    with pytest.raises(ValueError):
        solve_state_subproblem(q, ScalarField.zeros(grid16),
                               BoundaryData.zeros(grid16), cfg)


def test_coefficient_subproblem_recovers_truth_from_exact_state(rng):
    # manufactured state with nonvanishing gradient everywhere
    grid = StaggeredGrid(16)
    u = ScalarField.from_function(grid, lambda x, y: 2.0 * x + 3.0 * y + 1.0)
    sigma_true = ScalarField.from_function(
        grid, lambda x, y: 2.0 + np.sin(2 * np.pi * x) * 0.5 + 0.3 * y)
    mu_true = ScalarField.from_function(
        grid, lambda x, y: 1.5 + 0.4 * np.cos(np.pi * x) + 0.2 * x * y)
    s_face = average_to_faces(sigma_true)
    gu = gradient_to_faces(u)
    p = FluxField(grid, s_face.x_values * gu.x_values, s_face.y_values * gu.y_values)
    v = StatePair(u, p)
    from medrec.grid import divergence_to_cells
    g = ScalarField(grid, -divergence_to_cells(p).values + mu_true.values * u.values)

    cfg = AdiConfig(reg_sigma=RegConfig(1e-10, 0.0, -100.0, 100.0),
                    reg_mu=RegConfig(1e-10, 0.0, -100.0, 100.0))
    warm = CoefficientPair(ScalarField.constant(grid, 1.0),
                           ScalarField.constant(grid, 1.0))
    update = solve_coefficient_subproblem([v], [g], cfg, warm)
    # pointwise oracle for mu (its misfit is diagonal): mu = u (g + div p) / u^2
    mu_oracle = (u.values * (g.values + divergence_to_cells(p).values)) / u.values ** 2
    assert np.abs(update.coefficients.mu.values - mu_oracle).max() <= 1e-4
    assert np.abs(update.coefficients.sigma.values - sigma_true.values).max() <= 1e-4


def test_coefficient_subproblem_zero_state_minimizes_phi_alone(grid16):
    cfg = default_config()
    v = StatePair.zeros(grid16)
    g = ScalarField.zeros(grid16)
    warm = CoefficientPair(ScalarField.constant(grid16, 2.0),
                           ScalarField.constant(grid16, 2.0))
    update = solve_coefficient_subproblem([v], [g], cfg, warm)
    # argmin of phi alone shrinks to zero then clips to the lower bound
    assert np.allclose(update.coefficients.sigma.values, 0.5)
    assert np.allclose(update.coefficients.mu.values, 0.5)


def test_adi_monotone_descent_small():
    grid, truth, sets = small_problem()
    cfg = default_config(max_outer=8)
    init = CoefficientPair(ScalarField.constant(grid, 1.0),
                           ScalarField.constant(grid, 1.0))
    report = adi_reconstruct(sets, init, cfg)
    j = report.j_history
    slack = 1e-10 * (1 + j[0])
    assert np.all(np.diff(j) <= slack)
    # half-step descent: state update never increases J
    assert np.all(report.j_after_state <= np.concatenate([[j[0]], j[1:-1]]) + slack)
    # coefficient update never increases J either
    assert np.all(j[1:] <= report.j_after_state + slack)
    assert report.stop_reason == "max_iterations"
    assert report.iterations == 8


def test_adi_rejects_infeasible_start(grid16):
    grid, truth, sets = small_problem()
    cfg = default_config()
    bad = CoefficientPair(ScalarField.constant(sets[0].grid, 100.0),
                          ScalarField.constant(sets[0].grid, 1.0))
    with pytest.raises(ValueError):
        adi_reconstruct(sets, bad, cfg)


def test_adi_is_flat_at_an_exact_minimizer():
    # inverse-crime data with negligible regularization makes the truth an
    # exact minimizer: one alternation started there leaves the functional
    # flat across the coefficient half-step and the coefficients in place
    grid, truth, sets = small_problem(n=12, oversample=1)
    cfg = AdiConfig(reg_sigma=RegConfig(1e-12, 0.0, 0.5, 30.0),
                    reg_mu=RegConfig(1e-12, 0.0, 0.5, 30.0),
                    max_outer=1)
    report = adi_reconstruct(sets, truth, cfg)
    assert report.stop_reason == "max_iterations" and report.iterations == 1
    flat = 1e-12 * (1.0 + report.j_history[0])
    assert abs(report.j_after_state[0] - report.j_history[1]) <= flat
    assert report.coeff_decrement_terms[0] <= flat


def test_bregman_diagnostics_and_certificate():
    grid, truth, sets = small_problem(n=12)
    cfg = default_config(max_outer=6)
    rng = np.random.default_rng(5)
    init = CoefficientPair(
        ScalarField(grid, np.clip(1.0 + 0.3 * rng.standard_normal((12, 12)), 0.5, 30.0)),
        ScalarField(grid, np.clip(1.0 + 0.3 * rng.standard_normal((12, 12)), 0.5, 30.0)))
    report = adi_reconstruct(sets, init, cfg)
    diag = bregman_diagnostics(report)
    assert diag.nonnegative(1e-10)
    assert diag.certificate_holds(1e-8)
    assert len(diag.e_values) == report.iterations


def test_block_optimality_at_exit():
    grid, truth, sets = small_problem(n=12)
    cfg = default_config(max_outer=6)
    init = CoefficientPair(ScalarField.constant(grid, 1.0),
                           ScalarField.constant(grid, 1.0))
    report = adi_reconstruct(sets, init, cfg)
    assert report.final_state_residual <= STATE_TOL
    rs, rm = report.final_coeff_residuals
    assert rs <= 10 * COEFF_TOL
    assert rm <= 10 * COEFF_TOL


def test_feasibility_preserved_every_iteration():
    grid, truth, sets = small_problem(n=12)
    cfg = default_config(max_outer=5)
    init = CoefficientPair(ScalarField.constant(grid, 1.0),
                           ScalarField.constant(grid, 1.0))
    report = adi_reconstruct(sets, init, cfg)
    assert report.coefficients.sigma.values.min() >= cfg.reg_sigma.q_lo
    assert report.coefficients.sigma.values.max() <= cfg.reg_sigma.q_hi
    assert report.coefficients.mu.values.min() >= cfg.reg_mu.q_lo


def test_determinism_bit_identical():
    grid, truth, sets = small_problem(n=12)
    cfg = default_config(max_outer=4)
    init = CoefficientPair(ScalarField.constant(grid, 1.0),
                           ScalarField.constant(grid, 1.0))
    r1 = adi_reconstruct(sets, init, cfg)
    r2 = adi_reconstruct(sets, init, cfg)
    assert np.array_equal(r1.j_history, r2.j_history)
    assert np.array_equal(r1.coefficients.sigma.values, r2.coefficients.sigma.values)


def test_frozen_mu_stays_put():
    grid, truth, sets = small_problem(n=12, example="ex2_1")
    cfg = AdiConfig(reg_sigma=RegConfig(1e-3, 5e-3, 0.5, 30.0),
                    reg_mu=RegConfig(0.0, 0.0, 0.5, 30.0),
                    max_outer=4, update_mu=False)
    init = CoefficientPair(ScalarField.constant(grid, 1.0),
                           ScalarField.constant(grid, 1.0))
    report = adi_reconstruct(sets, init, cfg)
    assert np.all(report.coefficients.mu.values == 1.0)
    assert math.isnan(report.final_coeff_residuals[1])
