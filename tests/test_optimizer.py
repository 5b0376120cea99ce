import math
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st
from scipy.sparse.linalg import eigsh, splu

import medrec.model as model
import medrec.optimizer as optimizer

from medrec.forward import MeasurementSet, default_excitations, generate_measurements
from medrec.grid import (BoundaryData, FluxField, ScalarField, StaggeredGrid,
                         average_to_faces, boundary_inner, boundary_trace,
                         cell_inner, divergence_to_cells, face_inner,
                         gradient_to_faces)
from medrec.model import (CoefficientPair, StatePair, apply_L,
                          coefficient_misfit_gradients, eval_J, full_residuals,
                          misfit_value, sources_from_measurements,
                          state_normal_apply, state_normal_residual,
                          state_normal_rhs)
from medrec.optimizer import (COEFF_TOL, STATE_PCG_MAX, STATE_TOL, AdiConfig,
                              ReconstructionReport, SubproblemFailure,
                              _CoefficientSolver, _KeptFactor, _StateSolver,
                              _mu_problem, _projected_start, _sigma_problem,
                              adi_reconstruct, bregman_diagnostics,
                              solve_coefficient_subproblem)
from medrec.regularization import (RegConfig, bregman_distance, eval_phi,
                                   eval_phi_smooth, prox_l1_box_array,
                                   smooth_grad_phi)
from medrec.experiments import make_example
from medrec.operators import (SPD_LU, _pcg, diffusion_matrix, factor_spd,
                              grid_operators)
from conftest import (assert_matrix_close, draw_coefficients,
                      random_admissible_flux, random_boundary, random_scalar)


def holding_medium(example: str):
    """The example's medium with every square widened to 0.2, so that each
    inclusion holds cell centres at every n the tests here use (8 to 24):
    the 0.05-wide squares of ex1 and ex2_1 hold no sigma cell below n = 24."""
    spec = make_example(example)
    widen = lambda shapes: tuple(replace(shape, width=0.2) for shape in shapes)
    return replace(spec, sigma_inclusions=widen(spec.sigma_inclusions),
                   mu_inclusions=widen(spec.mu_inclusions))


def small_problem(n=16, example="ex1", oversample=2, excitations=1):
    grid = StaggeredGrid(n)
    medium = holding_medium(example)
    x, y = grid.cell_centers()
    assert all(shape.contains(x, y).any()
               for shape in medium.sigma_inclusions + medium.mu_inclusions)
    truth = medium.rasterize(grid)
    excitations = default_excitations(grid, excitations)
    sets = generate_measurements(truth.sigma, truth.mu, excitations,
                                 oversample=oversample)
    return grid, truth, sets


def default_config(max_outer=10, **kw):
    return AdiConfig(reg_sigma=RegConfig(1e-2, 2e-2, 0.5, 30.0),
                     reg_mu=RegConfig(5e-4, 5e-4, 0.5, 30.0),
                     max_outer=max_outer, **kw)


def coefficient_solvers(cfg, n):
    """A run's sigma and mu solvers, as adi_reconstruct builds them."""
    return _CoefficientSolver(cfg.reg_sigma, n), _CoefficientSolver(cfg.reg_mu, n)


def pack_state(v: StatePair) -> np.ndarray:
    """v as one vector (u, px, py), the layout of product_normal_matrix."""
    return np.concatenate([v.u.values.ravel(), v.p.x_values.ravel(),
                           v.p.y_values.ravel()])


def weighted_map(q: CoefficientPair):
    """(M, w): the (u, p) state block's map M = [[D_mu, Gx^T, Gy^T],
    [-Sx Gx, I, 0], [-Sy Gy, 0, I], [T, 0, 0]], assembled, and its row
    weights, h^2 on the first three block rows and h on the trace rows."""
    grid = q.sigma.grid
    n, h = grid.n, grid.h
    ops = grid_operators(n)
    gx, gy, ax, ay = ops.gx, ops.gy, ops.ax, ops.ay
    sx = ax @ q.sigma.values.ravel()
    sy = ay @ q.sigma.values.ravel()
    nf = (n - 1) * n
    eye_f = sp.identity(nf, format="csr")
    m = sp.bmat([[sp.diags(q.mu.values.ravel()), gx.T, gy.T],
                 [-sp.diags(sx) @ gx, eye_f, None],
                 [-sp.diags(sy) @ gy, None, eye_f],
                 [ops.trace, None, None]], format="csr")
    w = np.concatenate([np.full(n * n, h * h), np.full(2 * nf, h * h),
                        np.full(4 * n, h)])
    return m, w


def product_normal_matrix(q: CoefficientPair) -> sp.csc_matrix:
    """The (u, p) normal matrix M^T W M as scipy products of the assembled M."""
    m, w = weighted_map(q)
    return (m.T @ sp.diags(w) @ m).tocsc()


def product_rhs(q: CoefficientPair, g: ScalarField, f: BoundaryData) -> np.ndarray:
    """M^T W (g, 0, 0, f), the right-hand side of product_normal_matrix."""
    m, w = weighted_map(q)
    faces = 2 * (g.grid.n - 1) * g.grid.n
    return m.T @ (w * np.concatenate([g.values.ravel(), np.zeros(faces), f.values]))


def schur_system(q, g, f):
    """(S, c): the Schur complement of the flux block in the (u, p) normal
    equations, dense, from product_normal_matrix; the oracle of the cell
    system the state solver builds."""
    m = q.sigma.grid.n ** 2
    normal = product_normal_matrix(q).toarray()
    b = product_rhs(q, g, f)
    coupling = np.linalg.solve(normal[m:, m:], normal[m:, :m])     # M_pp^-1 M_pu
    return normal[:m, :m] - normal[:m, m:] @ coupling, b[:m] - coupling.T @ b[m:]


def record_state_factors(patch, matrices: list) -> None:
    """Patch optimizer.splu to append every matrix it factors to matrices."""
    real = optimizer.splu

    def recorded(a, **kwargs):
        matrices.append(a)
        return real(a, **kwargs)

    patch.setattr(optimizer, "splu", recorded)


def state_solver(q, factored=None, g=None, f=None):
    """A state solver of the data g, f (zero by default) assembled for q,
    holding the factor of `factored` (q itself by default)."""
    grid = q.sigma.grid
    solver = _StateSolver(grid, [ScalarField.zeros(grid) if g is None else g],
                          [BoundaryData.zeros(grid) if f is None else f])
    solver.assemble(factored or q)
    # a zero right-hand side takes the factor and runs no PCG iteration
    solver.factor.solve(solver, np.zeros((q.sigma.grid.n ** 2, 1)), solver._shifted,
                        solver._precondition, STATE_PCG_MAX, optimizer.PCG_RTOL)
    solver.assemble(q)
    return solver


def cell_matrix(solver) -> np.ndarray:
    """The solver's S of its assembled coefficients, dense."""
    return solver @ np.eye(solver.grid.n ** 2)


def test_assembled_matches_matrix_free(rng):
    grid = StaggeredGrid(12)
    q = CoefficientPair(ScalarField(grid, 1.0 + rng.random((12, 12))),
                        ScalarField(grid, 0.5 + rng.random((12, 12))))
    normal = product_normal_matrix(q)
    h2 = grid.h ** 2
    solver = state_solver(q)
    for _ in range(5):
        v = StatePair(random_scalar(grid, rng), random_admissible_flux(grid, rng))
        assembled = normal @ pack_state(v)
        free = pack_state(state_normal_apply(q, v)) * h2
        assert np.allclose(assembled, free, rtol=1e-12, atol=1e-12)
        g, f = random_scalar(grid, rng), random_boundary(grid, rng)
        free = pack_state(state_normal_rhs(q, g, f)) * h2
        assert np.allclose(product_rhs(q, g, f), free, rtol=1e-12, atol=1e-12)
        # The solver's cell system is the Schur complement of the flux block.
        schur, c = schur_system(q, g, f)
        data = _StateSolver(grid, [g], [f])
        data.assemble(q)
        rhs, full = data.rhs()
        assert_rel_close(rhs[:, 0], c)
        assert full[0] == pytest.approx(np.linalg.norm(free), rel=1e-12)
    assert_matrix_close(cell_matrix(solver), schur)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(min_value=4, max_value=24),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
       piecewise=st.booleans())
def test_cell_solve_and_closed_form_flux_match_the_full_system(n, seed, piecewise):
    grid = StaggeredGrid(n)
    rng = np.random.default_rng(seed)
    q = CoefficientPair(*(ScalarField(grid, c)
                          for c in draw_coefficients(n, rng, piecewise)))
    g, f = random_scalar(grid, rng), random_boundary(grid, rng)
    states, residual, _ = _StateSolver(grid, [g], [f]).solve(q)
    assert residual <= STATE_TOL
    v = states[0]

    # Against a direct solve of the (u, p) normal equations: as in
    # test_pcg_on_a_kept_factor_matches_a_fresh_solve, two solutions differ
    # by at most the sum of their residuals over lambda_min.
    a, b = product_normal_matrix(q), product_rhs(q, g, f)
    x, x_direct = pack_state(v), splu(a).solve(b)
    lam_min = eigsh(a, k=1, sigma=0, which="LM", return_eigenvectors=False)[0]
    bound = (np.linalg.norm(b - a @ x) + np.linalg.norm(b - a @ x_direct)) / lam_min
    assert np.linalg.norm(x - x_direct) <= bound

    # The closed-form p satisfies the flux rows of the matrix-free normal
    # operator to rounding: measured at most 2.2e-14 of their largest term.
    av, bv = state_normal_apply(q, v), state_normal_rhs(q, g, f)
    flux_rows = pack_state(av - bv)[n * n:]
    scale = np.abs(pack_state(av)[n * n:]).max() + np.abs(pack_state(bv)[n * n:]).max()
    assert np.abs(flux_rows).max() <= 1e-13 * scale


def test_state_subproblem_without_absorption_meets_the_tolerance():
    # With mu == 0 the forward operator A is singular (constants span its
    # kernel); A_c, shifted on the boundary cells, is not.
    grid, truth, sets = small_problem()
    q = CoefficientPair(truth.sigma, ScalarField.zeros(grid))
    forward = diffusion_matrix(q.sigma.values, q.mu.values)
    assert np.abs(forward @ np.ones(grid.n ** 2)).max() <= 1e-12 * abs(forward).max()
    source = sources_from_measurements(sets)[0]
    v = _StateSolver(grid, [source], [sets[0].f]).solve(q)[0][0]
    assert state_normal_residual(q, v, source, sets[0].f) <= STATE_TOL


def product_hessians(states, reg, n):
    """2 B^T B + alpha (G^T G + I) of sigma and of mu as scipy products."""
    ops = grid_operators(n)
    gx, gy, ax, ay = ops.gx, ops.gy, ops.ax, ops.ay
    g = sp.vstack([gx, gy], format="csr")
    blocks = []
    for v in states:
        u = v.u.values.ravel()
        blocks += [sp.diags(gx @ u) @ ax, sp.diags(gy @ u) @ ay]
    b_sigma = sp.vstack(blocks, format="csr")
    b_mu = sp.vstack([sp.diags(v.u.values.ravel()) for v in states], format="csr")
    return [2.0 * (b.T @ b) + reg.alpha * (g.T @ g + sp.identity(n * n))
            for b in (b_sigma, b_mu)]


def shifted_forward_product(q) -> sp.csc_matrix:
    """A_c = Gx^T Sx Gx + Gy^T Sy Gy + diag(mu + T^T 1 / (2 h sigma)) as
    scipy products: the oracle of the state factor's matrix."""
    grid = q.sigma.grid
    ops = grid_operators(grid.n)
    s = q.sigma.values.ravel()
    edges = ops.trace.T @ np.ones(4 * grid.n)
    return (ops.gx.T @ sp.diags(ops.ax @ s) @ ops.gx
            + ops.gy.T @ sp.diags(ops.ay @ s) @ ops.gy
            + sp.diags(q.mu.values.ravel() + edges / (2.0 * grid.h * s))).tocsc()


@settings(max_examples=30, deadline=None)
@given(n=st.integers(min_value=4, max_value=40),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
       piecewise=st.booleans())
def test_filled_blocks_equal_the_products(n, seed, piecewise):
    grid = StaggeredGrid(n)
    rng = np.random.default_rng(seed)
    q = CoefficientPair(*(ScalarField(grid, c)
                          for c in draw_coefficients(n, rng, piecewise)))
    recorded = []
    with pytest.MonkeyPatch.context() as patch:
        record_state_factors(patch, recorded)
        state_solver(q)
    assert recorded[0].format == "csc"
    assert_matrix_close(recorded[0], shifted_forward_product(q))

    states = [StatePair(random_scalar(grid, rng), random_admissible_flux(grid, rng))
              for _ in range(2)]
    sources = [random_scalar(grid, rng) for _ in states]
    reg = RegConfig(float(rng.random()), 0.1, 0.5, 30.0)
    filled = (_sigma_problem(states, reg, n)[0],
              _mu_problem(states, sources, reg, n)[0])
    for hess, product in zip(filled, product_hessians(states, reg, n)):
        assert_matrix_close(hess, product)


def test_exact_cancellations_add_no_fill():
    # At sigma = mu = 1 every (u, p) coupling h^2 (mu - sigma_face) of the
    # normal matrix cancels exactly.  The state factor is of the cells'
    # shifted forward operator, which has no such entries: it stores none
    # that vanish, and its fill is that of the scipy product.
    grid = StaggeredGrid(80)
    q = CoefficientPair.constant(grid, 1.0, 1.0)
    product = shifted_forward_product(q)
    solver = state_solver(q)
    assert product.nnz == 31680 and (product.data != 0.0).all()
    fill = lu_nnz(splu(product, **SPD_LU))
    assert lu_nnz(solver.factor.lu) == solver.factor.lu.nnz == solver.factor.fill == fill


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
    q = random_box_coefficients(grid, rng)
    solver = state_solver(q)
    schur = cell_matrix(solver)
    scale = np.abs(schur).max()
    assert np.abs(schur - schur.T).max() <= 1e-13 * scale
    assert np.linalg.eigvalsh(0.5 * (schur + schur.T))[0] > 0.0
    # equal row and column permutations: no row was pivoted
    assert np.array_equal(solver.factor.lu.perm_r, solver.factor.lu.perm_c)
    b = rng.standard_normal(n * n)
    reference = splu(shifted_forward_product(q)).solve(b)  # COLAMD, partial pivoting
    assert np.abs(solver.factor.lu.solve(b) - reference).max() \
        <= 1e-10 * np.abs(reference).max()


def test_state_factor_fill_halves_against_colamd():
    grid = StaggeredGrid(50)
    q = random_box_coefficients(grid, np.random.default_rng(0))
    solver = state_solver(q)
    # measured 0.62 on the shifted forward operator (0.45 on the (u, p)
    # normal matrix factored before); minimum degree with partial pivoting
    # fills far more
    assert lu_nnz(solver.factor.lu) < 0.7 * lu_nnz(splu(shifted_forward_product(q)))


def perturbed(q, rng, spread):
    """q with each cell scaled by a uniform factor in 1 +- spread, kept in the box."""
    n = q.sigma.grid.n
    return CoefficientPair(*(
        ScalarField(q.sigma.grid, np.clip(
            c.values * (1.0 + spread * rng.uniform(-1, 1, (n, n))), 0.5, 30.0))
        for c in (q.sigma, q.mu)))


def kept_factor_system(n, rng):
    """A stale-factor system as the state block meets it: S of a 20%
    perturbation of q0, preconditioned with q0's factor."""
    grid = StaggeredGrid(n)
    q0 = random_box_coefficients(grid, rng)
    solver = state_solver(perturbed(q0, rng, 0.2), factored=q0)
    return (sp.csc_matrix(cell_matrix(solver)),
            lambda r: solver._precondition(solver.factor.lu, r))


@settings(max_examples=30, deadline=None)
@given(n=st.integers(min_value=4, max_value=24),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_pcg_on_a_kept_factor_matches_a_fresh_solve(n, seed):
    grid = StaggeredGrid(n)
    rng = np.random.default_rng(seed)
    q0 = random_box_coefficients(grid, rng)
    q1 = perturbed(q0, rng, 0.2)
    g, f = random_scalar(grid, rng), random_boundary(grid, rng)
    # The bound is lifted so that PCG itself is checked, not the refactor
    # policy: extreme +-20% draws take up to about 15 iterations.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(optimizer, "STATE_PCG_MAX", 100)
        solver = state_solver(q1, factored=q0, g=g, f=f)
        states, residual, iterations = solver.solve(q1)
    assert solver.factor.factorizations == 1 and iterations > 0
    assert residual <= STATE_TOL

    # x - x_direct = S^-1 (r_direct - r), so the two solutions differ by at
    # most (||r|| + ||r_direct||) / lambda_min(S), with both residuals
    # evaluated.  Measured: at most 0.1 of the bound; an unconverged or
    # wrongly preconditioned PCG misses it.
    a, b = schur_system(q1, g, f)
    x = states[0].u.values.ravel()
    x_direct = np.linalg.solve(a, b)
    lam_min = np.linalg.eigvalsh(a)[0]
    bound = (np.linalg.norm(b - a @ x) + np.linalg.norm(b - a @ x_direct)) / lam_min
    assert np.linalg.norm(x - x_direct) <= bound


@settings(max_examples=30, deadline=None)
@given(n=st.integers(min_value=4, max_value=20),
       k=st.sampled_from([1, 2, 3]),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_multi_column_pcg_matches_one_column_solves(n, k, seed):
    rng = np.random.default_rng(seed)
    a, precondition = kept_factor_system(n, rng)
    size = a.shape[0]
    # k random columns, then a zero column and one started at its solution
    b = np.column_stack([rng.standard_normal((size, k)), np.zeros(size),
                         rng.standard_normal(size)])
    x0 = np.zeros_like(b)
    x0[:, -1] = splu(a).solve(b[:, -1])
    # The true residual is checked; at 1e-8 the recurrence's rounding
    # cannot decide it.
    rtol, cap = 1e-8, 100
    with np.errstate(divide="raise", invalid="raise"):
        x, iterations, converged = _pcg(a, b, precondition, cap, rtol, x0=x0)
    assert converged and x.shape == b.shape
    norm_b = np.linalg.norm(b, axis=0)
    assert (np.linalg.norm(b - a @ x, axis=0) <= rtol * norm_b).all()
    assert not x[:, k].any()

    # As in test_pcg_on_a_kept_factor_matches_a_fresh_solve: two solutions
    # differ by at most the sum of their residuals over lambda_min(a).
    lam_min = eigsh(a, k=1, sigma=0, which="LM", return_eigenvectors=False)[0]
    counts = []
    for j in range(b.shape[1]):
        single, count, converged = _pcg(a, b[:, j:j + 1], precondition, cap, rtol,
                                        x0=x0[:, j:j + 1])
        assert converged
        single = single[:, 0]
        counts.append(count)
        bound = (np.linalg.norm(b[:, j] - a @ x[:, j])
                 + np.linalg.norm(b[:, j] - a @ single)) / lam_min
        assert np.linalg.norm(x[:, j] - single) <= bound
    assert counts[k] == counts[-1] == 0 < min(counts[:k])
    assert iterations == max(counts)


def a_norm(a, e):
    return math.sqrt(max(float(e @ (a @ e)), 0.0))


@settings(max_examples=20, deadline=None)
@given(n=st.integers(min_value=4, max_value=16),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_projected_start_beats_the_zero_and_the_last_state(n, seed):
    grid = StaggeredGrid(n)
    rng = np.random.default_rng(seed)
    g, f = random_scalar(grid, rng), random_boundary(grid, rng)
    q = random_box_coefficients(grid, rng)
    states, matrices, rhs = [], [], []
    for _ in range(5):      # five coefficient pairs, each a 5% step from the last
        q = perturbed(q, rng, 0.05)
        a, b = schur_system(q, g, f)
        matrices.append(a)
        rhs.append(b)
        states.append(np.linalg.solve(a, b))
    a, b, exact = matrices[-1], rhs[-1], states[-1]
    history = np.column_stack(states[:-1])
    start = _projected_start(a, history, b[:, None])[:, 0]
    error = a_norm(a, start - exact)
    # Galerkin's start is the least a-norm error over span(history), which
    # holds both other starts; the slack is rounding.
    slack = 1e-10 * a_norm(a, exact)
    assert error <= a_norm(a, exact) + slack
    assert error <= a_norm(a, history[:, -1] - exact) + slack


def test_projected_start_drops_a_repeated_state():
    rng = np.random.default_rng(3)
    a, _ = kept_factor_system(12, rng)
    states = rng.standard_normal((a.shape[0], 2))
    b = rng.standard_normal((a.shape[0], 2))
    once = _projected_start(a, states, b)
    repeated = _projected_start(a, np.column_stack([states, states[:, :1]]), b)
    assert np.isfinite(repeated).all()
    # one span, one Galerkin start
    assert_rel_close(repeated, once, rtol=1e-10)
    assert not _projected_start(a, np.zeros((a.shape[0], 3)), b).any()


def test_stale_factor_past_the_bound_refactors(monkeypatch):
    grid = StaggeredGrid(16)
    rng = np.random.default_rng(7)
    g, f = random_scalar(grid, rng), random_boundary(grid, rng)
    q = CoefficientPair.constant(grid, 30.0, 30.0)
    solver = state_solver(q, factored=CoefficientPair.constant(grid, 0.5, 0.5),
                          g=g, f=f)
    runs = []       # (x0, returned iterate, iterations, converged) of each PCG loop
    real = optimizer._pcg

    def recorded(a, b, precondition, cap, rtol, x0=None):
        x, iterations, converged = real(a, b, precondition, cap, rtol, x0=x0)
        runs.append((x0, x.copy(), iterations, converged))
        return x, iterations, converged

    monkeypatch.setattr(optimizer, "_pcg", recorded)
    states, residual, iterations = solver.solve(q)
    monkeypatch.undo()
    # PCG on the sigma = mu = 0.5 factor overruns the bound (it would need
    # 19 iterations); the loop on the new factor then starts from its last
    # iterate, and so takes fewer iterations than a fresh solver's loop
    (_, capped, capped_iterations, capped_ok), (start, _, more, ok) = runs
    assert not capped_ok and capped_iterations == STATE_PCG_MAX and ok
    assert np.array_equal(start, capped)
    fresh, _, fresh_iterations = _StateSolver(grid, [g], [f]).solve(q)
    assert iterations == STATE_PCG_MAX + more < STATE_PCG_MAX + fresh_iterations
    assert solver.factor.factorizations == 2
    assert residual <= STATE_TOL
    assert_rel_close(pack_state(states[0]), pack_state(fresh[0]))


def test_pcg_stops_on_nonpositive_curvature():
    b = np.ones((3, 1))
    x, iterations, converged = _pcg(-sp.identity(3, format="csc"), b, lambda r: r,
                                    STATE_PCG_MAX, optimizer.PCG_RTOL)
    assert converged is False and iterations == 1
    # the last iterate is the start, before the failed direction
    assert np.array_equal(x, b)


def test_pcg_failure_on_a_fresh_factor_carries_the_last_residual():
    # -I factors, but PCG preconditioned by the identity meets p^T a p < 0
    # at once; its last iterate, the start b, leaves the residual 2 b.
    minus = -sp.identity(3, format="csc")
    factor = _KeptFactor("test block", factor_spd)
    with pytest.raises(SubproblemFailure, match="test block PCG did not converge") as info:
        factor.solve(minus, np.ones((3, 1)), lambda: minus, lambda lu, r: r,
                     STATE_PCG_MAX, optimizer.PCG_RTOL)
    assert factor.factorizations == 1
    assert info.value.residual == pytest.approx(2.0, rel=1e-15)


# The report's per-iteration series, by the half-step that appends to them;
# j_history also starts with the initial pair's functional.
STATE_SERIES = ("state_residuals", "state_factorizations", "state_pcg_iterations",
                "state_start_residuals", "state_lu_fill", "state_decrement_terms",
                "j_after_state")
COEFF_SERIES = ("coeff_residual_sigma", "coeff_residual_mu", "coeff_inner_iterations",
                "coeff_factorizations", "coeff_pcg_iterations",
                "coeff_decrement_terms", "bregman_values")
COUNT_SERIES = ("state_factorizations", "state_pcg_iterations", "state_lu_fill",
                "coeff_inner_iterations", "coeff_factorizations",
                "coeff_pcg_iterations")


def assert_series_lengths(report, state: int, coefficient: int):
    """Every state series has `state` entries, every coefficient series
    `coefficient`, and j_history one more than the latter."""
    assert len(report.j_history) == coefficient + 1
    assert {name: len(getattr(report, name)) for name in STATE_SERIES} \
        == dict.fromkeys(STATE_SERIES, state)
    assert {name: len(getattr(report, name)) for name in COEFF_SERIES} \
        == dict.fromkeys(COEFF_SERIES, coefficient)


def test_every_report_series_has_one_entry_per_iteration():
    grid, truth, sets = small_problem(n=8)
    init = CoefficientPair(ScalarField.constant(grid, 1.0),
                           ScalarField.constant(grid, 1.0))
    report = adi_reconstruct(sets, init, default_config(max_outer=3))
    series = {f.name: getattr(report, f.name) for f in fields(ReconstructionReport)
              if isinstance(getattr(report, f.name), np.ndarray)}
    assert set(series) == {"j_history", *STATE_SERIES, *COEFF_SERIES}
    assert report.iterations == 3
    assert_series_lengths(report, state=3, coefficient=3)
    for name, values in series.items():
        assert values.dtype.kind == ("i" if name in COUNT_SERIES else "f"), name


def test_failed_refactor_carries_the_partial_report(monkeypatch):
    grid, truth, sets = small_problem(n=8)
    real = optimizer.splu
    calls = []

    def fail_second(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise RuntimeError("Factor is exactly singular")
        return real(*args, **kwargs)

    monkeypatch.setattr(optimizer, "splu", fail_second)
    monkeypatch.setattr(optimizer, "STATE_PCG_MAX", 0)   # refactor every time
    init = CoefficientPair(ScalarField.constant(grid, 1.0),
                           ScalarField.constant(grid, 1.0))
    with pytest.raises(SubproblemFailure, match="exactly singular") as info:
        adi_reconstruct(sets, init, default_config(max_outer=3))
    report = info.value.report
    assert len(calls) == 2
    assert report.stop_reason == "subproblem_failure"
    assert report.iterations == 1
    assert report.state_factorizations.tolist() == [1]
    assert report.state_pcg_iterations[0] > 0      # the first half-step runs PCG
    assert_series_lengths(report, state=1, coefficient=1)


class _TrackedFactor:
    """A factor that can be weakly referenced (SuperLU cannot)."""

    def __init__(self, lu):
        self._lu = lu

    def __getattr__(self, name):
        return getattr(self._lu, name)


@pytest.mark.parametrize("excitations", [1, 2])
def test_one_state_factor_per_run_and_never_two_alive(monkeypatch, excitations):
    grid, truth, sets = small_problem(n=24, excitations=excitations)
    init = CoefficientPair(ScalarField.constant(grid, 1.0),
                           ScalarField.constant(grid, 1.0))
    real = optimizer.splu
    factors = []

    def tracked(*args, **kwargs):
        assert all(ref() is None for ref in factors), "an earlier factor is alive"
        lu = _TrackedFactor(real(*args, **kwargs))
        factors.append(weakref.ref(lu))
        return lu

    monkeypatch.setattr(optimizer, "splu", tracked)
    kept = adi_reconstruct(sets, init, default_config(max_outer=6))
    # every half-step converges on the first factor (4 or 5 PCG iterations
    # against the bound of 14), so the run factors once
    assert len(factors) == 1
    assert kept.state_factorizations.tolist() == [1, 0, 0, 0, 0, 0]
    assert kept.state_lu_fill[0] > 0 and not kept.state_lu_fill[1:].any()
    assert 0 < kept.state_pcg_iterations.min()
    assert kept.state_pcg_iterations.max() <= STATE_PCG_MAX
    assert kept.state_residuals.max() <= STATE_TOL
    # no history before the first half-step: it starts from zero
    assert kept.state_start_residuals[0] == 0.0
    assert (kept.state_start_residuals[1:] > 0.0).all()

    factors.clear()
    monkeypatch.setattr(optimizer, "STATE_PCG_MAX", 0)   # a factor per half-step
    every = adi_reconstruct(sets, init, default_config(max_outer=6))
    assert len(factors) == 6
    assert every.state_factorizations.tolist() == [1] * 6
    assert (every.state_lu_fill > 0).all()
    assert every.state_residuals.max() <= STATE_TOL
    np.testing.assert_allclose(kept.j_history, every.j_history, rtol=1e-9, atol=0)


def test_state_factor_sees_only_state_matrices(monkeypatch):
    grid, truth, sets = small_problem(n=12)
    init = CoefficientPair(ScalarField.constant(grid, 1.0),
                           ScalarField.constant(grid, 1.0))
    matrices = []
    record_state_factors(monkeypatch, matrices)
    monkeypatch.setattr(optimizer, "STATE_PCG_MAX", 0)   # a factor per half-step
    monkeypatch.setattr(optimizer, "COEFF_PCG_MAX", 0)
    report = adi_reconstruct(sets, init, default_config(max_outer=3))
    # one shifted forward operator per half-step, the first of the initial
    # coefficients; the coefficient factors, as many, go elsewhere
    assert len(matrices) == report.state_factorizations.sum() == 3
    assert all(a.shape == (12 * 12, 12 * 12) for a in matrices)
    assert_matrix_close(matrices[0], shifted_forward_product(init))
    assert report.coeff_factorizations.sum() > 2


def test_one_coefficient_factor_each_and_none_left_after_the_run(monkeypatch):
    grid, truth, sets = small_problem(n=12)
    init = CoefficientPair(ScalarField.constant(grid, 1.0),
                           ScalarField.constant(grid, 1.0))
    real = optimizer.factor_spd
    factors = []

    def tracked(*args, **kwargs):
        # sigma's and mu's factors alternate: one other may be alive
        assert sum(ref() is not None for ref in factors) <= 1, "a stale factor is alive"
        lu = _TrackedFactor(real(*args, **kwargs))
        factors.append(weakref.ref(lu))
        return lu

    monkeypatch.setattr(optimizer, "factor_spd", tracked)
    kept = adi_reconstruct(sets, init, default_config(max_outer=4))
    assert len(factors) == 2
    assert kept.coeff_factorizations.tolist() == [2, 0, 0, 0]
    assert all(ref() is None for ref in factors)

    factors.clear()
    monkeypatch.setattr(optimizer, "COEFF_PCG_MAX", 0)   # refactor on every system
    every = adi_reconstruct(sets, init, default_config(max_outer=4))
    assert len(factors) == every.coeff_factorizations.sum() >= 2 * 4
    assert all(ref() is None for ref in factors)
    # Direct solves against PCG stopped at what COEFF_TOL needs: measured
    # 7e-9 apart.
    np.testing.assert_allclose(kept.j_history, every.j_history, rtol=1e-7, atol=0)


def test_one_coefficient_solver_keeps_its_factor_across_outer_iterations(monkeypatch):
    grid, truth, sets = small_problem(n=12)
    init = CoefficientPair(ScalarField.constant(grid, 1.0),
                           ScalarField.constant(grid, 1.0))
    cfg = default_config(max_outer=2)
    systems = []        # sigma's (hess, shift) of the two outer iterations
    real_problem = optimizer._sigma_problem
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(optimizer, "_sigma_problem",
                      lambda *args: systems.append(real_problem(*args)) or systems[-1])
        report = adi_reconstruct(sets, init, cfg)
    assert len(systems) == 2

    real = optimizer.factor_spd
    factors = []

    def tracked(*args, **kwargs):
        lu = _TrackedFactor(real(*args, **kwargs))
        factors.append(weakref.ref(lu))
        return lu

    monkeypatch.setattr(optimizer, "factor_spd", tracked)
    solver = _CoefficientSolver(cfg.reg_sigma, grid.n)
    sigma = init.sigma
    for hess, shift in systems:
        sigma, _, _, pcg_iterations, converged = solver.solve(hess, shift, sigma)
        assert converged
    # the second system ran PCG on the first one's factor
    assert pcg_iterations > 0
    assert len(factors) == solver.factor.factorizations == 1
    # the run's sigma solver took the same steps on the same factor
    assert np.array_equal(sigma.values, report.coefficients.sigma.values)
    solver.release()
    assert factors[0]() is None


def test_coefficient_zero_pivot_carries_the_partial_report(monkeypatch):
    grid, truth, sets = small_problem(n=8)
    real = optimizer.factor_spd
    factors = []

    def fail_third(*args, **kwargs):
        if len(factors) == 2:
            raise RuntimeError("Factor is exactly singular")
        lu = _TrackedFactor(real(*args, **kwargs))
        factors.append(weakref.ref(lu))
        return lu

    monkeypatch.setattr(optimizer, "factor_spd", fail_third)
    monkeypatch.setattr(optimizer, "COEFF_PCG_MAX", 0)   # refactor on every system
    init = CoefficientPair(ScalarField.constant(grid, 1.0),
                           ScalarField.constant(grid, 1.0))
    with pytest.raises(SubproblemFailure, match="coefficient factorization failed"
                       ".*exactly singular") as info:
        adi_reconstruct(sets, init, default_config(max_outer=3))
    report = info.value.report
    assert report.stop_reason == "subproblem_failure"
    assert report.iterations == 1
    assert report.coeff_factorizations.tolist() == [2]
    assert_series_lengths(report, state=2, coefficient=1)
    # the traceback still holds the run's frame, but not its factors
    assert all(ref() is None for ref in factors)


def test_failed_run_frees_the_state_factor(monkeypatch, singular_coefficient_factor):
    grid, truth, sets = small_problem(n=24)
    real = optimizer.splu
    factors = []

    def tracked(*args, **kwargs):
        lu = _TrackedFactor(real(*args, **kwargs))
        factors.append(weakref.ref(lu))
        return lu

    monkeypatch.setattr(optimizer, "splu", tracked)
    init = CoefficientPair(ScalarField.constant(grid, 1.0),
                           ScalarField.constant(grid, 1.0))
    with pytest.raises(SubproblemFailure, match="coefficient factorization") as info:
        adi_reconstruct(sets, init, default_config(max_outer=2))
    assert info.value.report.state_factorizations.tolist() == [1]
    # the held failure's traceback still holds the run's frame, and with it
    # the state solver, but not its factor
    assert len(factors) == 1 and factors[0]() is None


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
    for k, ((hess, shift), fld) in enumerate(zip(problems, fields)):
        free = sum(gr[k].values for gr in grads) + smooth_grad_phi(fld, reg).values
        x = fld.values.ravel()
        assert_rel_close(hess @ x - shift, free.ravel())

    # sigma and mu split the misfit between them: flux and divergence parts.
    # Each block's smooth value is h^2 (x^T H x / 2 - shift^T x) plus its
    # value at x = 0, which the matrix-free misfit gives at q = 0.
    h2 = grid.h ** 2
    zero = CoefficientPair.constant(grid, 0.0, 0.0)
    assembled = sum(misfit_value(v, zero, g) for v, g in zip(states, sources))
    for (hess, shift), fld in zip(problems, fields):
        x = fld.values.ravel()
        assembled += h2 * (0.5 * x @ (hess @ x) - shift @ x
                           + beta * np.abs(x).sum())
    free = sum(misfit_value(v, q, g) for v, g in zip(states, sources)) \
        + sum(eval_phi_smooth(f, reg) + beta * h2 * np.abs(f.values).sum()
              for f in fields)
    assert abs(assembled - free) <= 1e-12 * abs(free)


def apg_oracle(solver, hess, shift, value, q0, iterations=10000):
    """The accelerated monotone proximal gradient this package used before
    projected Newton: step 1/L with L from 20 power iterations plus 5%,
    strong-convexity momentum with function-value restarts (FISTA when
    alpha = 0) and the best iterate kept; it stops at COEFF_TOL, checked
    every 10 iterations.  value is the block's value (block_value).
    Returns the best iterate."""
    reg = solver.reg
    x = np.random.default_rng(1234).standard_normal(hess.shape[0])
    lam = 0.0
    for _ in range(20):
        y = hess @ x
        lam = (y @ x) / (x @ x)
        x = y / np.linalg.norm(y)
    l_eff = 1.05 * max(lam, 1e-12)
    tau = 1.0 / l_eff

    def prox_step(y):
        return prox_l1_box_array(y - tau * (hess @ y - shift), tau * reg.beta,
                                 reg.q_lo, reg.q_hi)

    def residual(q):
        h = solver.h
        return h * np.linalg.norm(q - prox_step(q)) / (1.0 + h * np.linalg.norm(q))

    best = z_prev = y = np.clip(q0, reg.q_lo, reg.q_hi)
    f_best = fz_prev = value(best)
    t = 1.0
    ratio = math.sqrt(reg.alpha / l_eff) if 0 < reg.alpha < l_eff else None
    for j in range(iterations):
        z = prox_step(y)
        fz = value(z)
        if fz <= f_best:
            best, f_best = z, fz
        if ratio is not None:
            y = z if fz > fz_prev else z + (1.0 - ratio) / (1.0 + ratio) * (z - z_prev)
        else:
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            y = z + ((t - 1.0) / t_next) * (z - z_prev)
            t = t_next
        z_prev, fz_prev = z, fz
        if (j + 1) % 10 == 0 and residual(best) <= COEFF_TOL:
            break
    return best


def block_value(states, sources, reg, mu_block):
    """The value of a coefficient block at a raveled field, matrix-free: the
    squared residual of the equation the coefficient enters (model.apply_L),
    summed over the excitations, plus its regularizer (eval_phi)."""
    def value(x):
        grid = states[0].u.grid
        q = ScalarField(grid, x.reshape(grid.n, grid.n))
        total = eval_phi(q, reg)
        for v, g in zip(states, sources):
            res = apply_L(v, CoefficientPair(q, q), g)
            total += (cell_inner(res.r_div, res.r_div) if mu_block
                      else face_inner(res.r_flux, res.r_flux))
        return total
    return value


def box_qp(n, rng, alpha, mu_block):
    """A coefficient block whose misfit vanishes at a field drawn beyond both
    bounds of [0.5, 30], so that at the minimizer cells sit on a bound, on
    most draws on each of the two.

    sigma: fluxes p = mean(q~) G u on the faces; mu: sources
    g = u q~ + G^T p, for random u and p.  Returns the grid, the block's
    solver, its (hess, shift) and its block_value.
    """
    grid = StaggeredGrid(n)
    q_target = ScalarField(grid, rng.uniform(-30.0, 60.0, (n, n)))
    reg = RegConfig(alpha, float(rng.uniform(0.0, 2.0)), 0.5, 30.0)
    states, sources = [], []
    for _ in range(2):
        u = random_scalar(grid, rng)
        if mu_block:
            p = random_admissible_flux(grid, rng)
            sources.append(ScalarField(grid, u.values * q_target.values
                                       - divergence_to_cells(p).values))
        else:
            mean, grad = average_to_faces(q_target), gradient_to_faces(u)
            p = FluxField(grid, mean.x_values * grad.x_values,
                          mean.y_values * grad.y_values)
            sources.append(ScalarField.zeros(grid))     # the flux residual reads none
        states.append(StatePair(u, p))
    system = (_mu_problem(states, sources, reg, n) if mu_block
              else _sigma_problem(states, reg, n))
    return (grid, _CoefficientSolver(reg, n), system,
            block_value(states, sources, reg, mu_block))


def assert_kkt(solver, hess, shift, q):
    """Optimality of q on the box, each cell's gradient measured against the
    tolerance its share of the fixed-point residual allows.  Returns the
    masks of the cells on q_lo and on q_hi."""
    reg, h = solver.reg, solver.h
    g = hess @ q - shift + reg.beta
    bound = abs(hess).sum(axis=1).max()
    tol = COEFF_TOL * (1.0 + h * np.linalg.norm(q)) * bound / h
    at_lo, at_hi = q == reg.q_lo, q == reg.q_hi
    assert (g[at_lo] >= -tol).all()
    assert (g[at_hi] <= tol).all()
    assert (np.abs(g[~(at_lo | at_hi)]) <= tol).all()
    return at_lo, at_hi


# A draw whose minimizer holds cells on both bounds (12 on q_lo, 19 on q_hi).
BOTH_BOUNDS = dict(n=10, alpha=1e-2, mu_block=True, seed=0)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(min_value=4, max_value=20),
       alpha=st.sampled_from([0.0, 1e-6, 1e-2]),
       mu_block=st.booleans(),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
# The minimizer of this draw holds 11 cells on q_hi and none on q_lo.
@example(n=4, alpha=0.0, mu_block=False, seed=1138850)
@example(**BOTH_BOUNDS)
def test_projected_newton_meets_kkt_and_beats_the_gradient_oracle(n, alpha, mu_block,
                                                                   seed):
    rng = np.random.default_rng(seed)
    grid, solver, system, value = box_qp(n, rng, alpha, mu_block)
    warm = ScalarField(grid, rng.uniform(0.5, 30.0, (n, n)))
    field, residual, steps, _, converged = solver.solve(*system, warm)
    q = field.values.ravel()
    assert converged and residual <= COEFF_TOL
    assert q.min() >= 0.5 and q.max() <= 30.0
    at_lo, at_hi = assert_kkt(solver, *system, q)
    if dict(n=n, alpha=alpha, mu_block=mu_block, seed=seed) == BOTH_BOUNDS:
        assert at_lo.any() and at_hi.any()
    oracle = value(apg_oracle(solver, *system, value, warm.values.ravel()))
    assert value(q) <= oracle + 1e-12 * abs(oracle)


def test_gradient_fallback_descends(monkeypatch):
    # With no arc step allowed, every step is the projected-gradient one.
    monkeypatch.setattr(optimizer, "ARMIJO_MAX", 0)
    grid, solver, system, value = box_qp(10, np.random.default_rng(3), 1e-2, False)
    warm = ScalarField(grid, np.full((10, 10), 15.0))
    solved, _, steps, pcg_iterations, _ = solver.solve(*system, warm)
    assert steps == optimizer.NEWTON_MAX and pcg_iterations > 0
    assert value(solved.values.ravel()) < 0.5 * value(warm.values.ravel())


def test_cells_creeping_onto_the_bound_land_in_one_step():
    # Two neighbouring cells sit just above q_lo, the gradient pushing them
    # down, in a strongly coupled block (alpha G^T G dominates).  A scaled
    # gradient step on them stalls short of the bound and zigzags; moved
    # straight onto it, the block is solved by a single Newton step.
    n = 6
    grid = StaggeredGrid(n)
    ops = grid_operators(n)
    reg = RegConfig(1.0, 0.0, 0.5, 30.0)
    hess = ops.five_point(1.0 + reg.alpha, grad=(reg.alpha, reg.alpha))
    target = np.full(n * n, 2.0)
    pair = [14, 15]
    target[pair] = -40.0
    solution, _, _, _, converged = _CoefficientSolver(reg, n).solve(
        hess, hess @ target, ScalarField.constant(grid, 2.0))
    q = solution.values.ravel()
    assert converged and np.array_equal(np.flatnonzero(q == 0.5), pair)

    warm = q.copy()
    warm[pair] = 0.5 + 1e-4
    solved, residual, steps, _, converged = _CoefficientSolver(reg, n).solve(
        hess, hess @ target, ScalarField(grid, warm.reshape(n, n)))
    assert converged and residual <= COEFF_TOL
    assert steps == 1
    assert np.array_equal(np.flatnonzero(solved.values.ravel() == 0.5), pair)


def test_state_subproblem_zero_data_gives_zero(grid16):
    q = CoefficientPair(ScalarField.constant(grid16, 1.0),
                        ScalarField.constant(grid16, 1.0))
    v = _StateSolver(grid16, [ScalarField.zeros(grid16)],
                     [BoundaryData.zeros(grid16)]).solve(q)[0][0]
    assert np.abs(v.u.values).max() == 0.0
    assert np.abs(v.p.x_values).max() == 0.0


def test_state_subproblem_beats_forward_state():
    grid, truth, sets = small_problem()
    source = sources_from_measurements(sets)[0]
    v = _StateSolver(grid, [source], [sets[0].f]).solve(truth)[0][0]
    assert state_normal_residual(truth, v, source, sets[0].f) <= STATE_TOL
    # the solved state fits at least as well as the forward-model state
    from medrec.forward import solve_forward
    u_fwd = solve_forward(truth.sigma, truth.mu, sets[0].h)
    s_face = average_to_faces(truth.sigma)
    gu = gradient_to_faces(u_fwd)
    v_fwd = StatePair(u_fwd, FluxField(grid, s_face.x_values * gu.x_values,
                                       s_face.y_values * gu.y_values))
    wide = RegConfig(0.0, 0.0, -1e9, 1e9)
    j_solved, j_fwd = (eval_J([full_residuals(w, truth, source, sets[0].f)], truth,
                              wide, wide) for w in (v, v_fwd))
    assert j_solved <= j_fwd + 1e-10 * (1 + j_fwd)


def test_state_factor_failure_is_subproblem_failure(grid16, singular_factor):
    q = CoefficientPair(ScalarField.constant(grid16, 1.0),
                        ScalarField.constant(grid16, 1.0))
    with pytest.raises(SubproblemFailure, match="exactly singular"):
        _StateSolver(grid16, [ScalarField.zeros(grid16)],
                     [BoundaryData.zeros(grid16)]).solve(q)


def test_adi_state_factor_failure_carries_report(singular_factor):
    grid, truth, sets = small_problem(n=8)
    with pytest.raises(SubproblemFailure) as info:
        adi_reconstruct(sets, truth, default_config(max_outer=2))
    assert info.value.report.stop_reason == "subproblem_failure"
    assert info.value.report.iterations == 0


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
    update = solve_coefficient_subproblem([v], [g], cfg, warm,
                                          coefficient_solvers(cfg, 16))
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
    update = solve_coefficient_subproblem([v], [g], cfg, warm,
                                          coefficient_solvers(cfg, 16))
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


def test_l1_weight_needs_a_nonnegative_box():
    # The coefficient solve takes beta |q| as beta q, which needs q >= 0.
    with pytest.raises(ValueError, match="q_lo >= 0"):
        AdiConfig(reg_sigma=RegConfig(1e-2, 1e-2, -1.0, 30.0),
                  reg_mu=RegConfig(1e-2, 0.0, 0.5, 30.0))
    AdiConfig(reg_sigma=RegConfig(1e-2, 0.0, -1.0, 30.0),
              reg_mu=RegConfig(1e-2, 1e-2, 0.0, 30.0))


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
    # a known mu replaces the start's mu, whatever that holds, for the run
    grid, truth, sets = small_problem(n=12, example="ex2_1")
    cfg = AdiConfig(reg_sigma=RegConfig(1e-3, 5e-3, 0.5, 30.0),
                    reg_mu=RegConfig(0.0, 0.0, 0.5, 30.0),
                    max_outer=4, known_mu=1.0)
    mu = np.ones((grid.n, grid.n))
    mu[3:6, 4:7] = 20.0
    init = CoefficientPair(ScalarField.constant(grid, 1.0), ScalarField(grid, mu))
    report = adi_reconstruct(sets, init, cfg)
    assert np.all(report.coefficients.mu.values == 1.0)
    assert math.isnan(report.final_coeff_residuals[1])


@pytest.mark.parametrize("known_mu", [0.1, 31.0])
def test_known_mu_outside_its_box_is_refused(known_mu):
    grid, truth, sets = small_problem(n=12, example="ex2_1")
    cfg = AdiConfig(reg_sigma=RegConfig(1e-3, 5e-3, 0.5, 30.0),
                    reg_mu=RegConfig(0.0, 0.0, 0.5, 30.0),
                    max_outer=1, known_mu=known_mu)
    init = CoefficientPair(ScalarField.constant(grid, 1.0),
                           ScalarField.constant(grid, 1.0))
    with pytest.raises(ValueError, match="violate their boxes"):
        adi_reconstruct(sets, init, cfg)


def test_one_debug_record_per_outer_iteration(caplog):
    grid, truth, sets = small_problem(n=8)
    init = CoefficientPair(ScalarField.constant(grid, 1.0),
                           ScalarField.constant(grid, 1.0))
    with caplog.at_level("DEBUG", logger="medrec"):
        report = adi_reconstruct(sets, init, default_config(max_outer=3))
    records = [r for r in caplog.records if r.name == "medrec"]
    assert len(records) == report.iterations == 3
    assert "start residual 0.00e+00, factored True" in records[0].getMessage()
    assert "factored False" in records[1].getMessage()
    fill = report.state_lu_fill[0]
    assert fill > 0
    for k, record in enumerate(records):
        message = record.getMessage()
        assert f"LU fill {fill}," in message
        assert (f"PCG {report.state_pcg_iterations[k]}, "
                f"start residual {report.state_start_residuals[k]:.2e},") in message
        assert (f"coefficient Newton steps {report.coeff_inner_iterations[k]}, "
                f"coefficient PCG {report.coeff_pcg_iterations[k]}, "
                f"coefficient factors {report.coeff_factorizations[k]},") in message
        assert f"E {report.bregman_values[k]:.3e}" in message
        assert (f"decrements {report.state_decrement_terms[k]:.3e} (state) "
                f"{report.coeff_decrement_terms[k]:.3e} (coefficient)") in message


# The certificate's terms by their definitions, as adi_reconstruct once
# computed them: each from its own residual evaluations.

def direct_state_decrement(states_new, states_old, coeffs) -> float:
    """Sum of ||L_q (v+ - v)||^2 + ||C (u+ - u)||^2 over excitations."""
    zero = ScalarField.zeros(coeffs.sigma.grid)
    total = 0.0
    for v_new, v_old in zip(states_new, states_old):
        delta = v_new - v_old
        trace = boundary_trace(delta.u)
        total += misfit_value(delta, coeffs, zero)
        total += boundary_inner(trace, trace)
    return total


def direct_coeff_decrement(states, coeffs_new, coeffs_old) -> float:
    """Sum of ||Phi_u (q+ - q)||^2 over excitations: L_dq (u, 0) with no
    source, up to the sign of its flux part, which the square drops."""
    grid = coeffs_new.sigma.grid
    step = CoefficientPair(coeffs_new.sigma - coeffs_old.sigma,
                           coeffs_new.mu - coeffs_old.mu)
    zero, no_flux = ScalarField.zeros(grid), FluxField.zeros(grid)
    return sum(misfit_value(StatePair(v.u, no_flux), step, zero) for v in states)


def direct_bregman(states, sources, coeffs_new, coeffs_old, cfg) -> float:
    """The Bregman distance of the coefficient step at the subgradient
    -(summed misfit gradients at (v+, q+))."""
    grid = coeffs_new.sigma.grid
    gs, gm = np.zeros((grid.n, grid.n)), np.zeros((grid.n, grid.n))
    for v, g in zip(states, sources):
        grad_s, grad_m = coefficient_misfit_gradients(v, coeffs_new, g)
        gs += grad_s.values
        gm += grad_m.values
    return (bregman_distance(coeffs_old.sigma, coeffs_new.sigma,
                             ScalarField(grid, -gs), cfg.reg_sigma)
            + bregman_distance(coeffs_old.mu, coeffs_new.mu,
                               ScalarField(grid, -gm), cfg.reg_mu))


@pytest.mark.parametrize("example", ["ex1", "ex4"])
def test_certificate_terms_equal_their_definitions(example):
    # The decrements are differences of one half-step's residuals and the
    # last one's; the Bregman distance reads the misfit gradients of
    # r(v+, q+).  Runs of 1 to 4 outer iterations give each iterate, so
    # every entry is checked against its definition on consecutive iterates.
    spec = make_example(example)
    grid = StaggeredGrid(24)
    truth = spec.rasterize(grid)
    sets = generate_measurements(truth.sigma, truth.mu,
                                 default_excitations(grid, spec.excitation_count),
                                 oversample=2)
    sources = sources_from_measurements(sets)
    known_mu = None if spec.reconstruct_mu else spec.mu_background
    init = CoefficientPair.constant(grid, spec.sigma_background, spec.mu_background)
    cfg = default_config(known_mu=known_mu)
    reports = [adi_reconstruct(sets, init, replace(cfg, max_outer=m))
               for m in range(1, 5)]
    last = reports[-1]
    tol = 1e-12 * (1.0 + last.j_history[0])
    states = [StatePair.zeros(grid) for _ in sets]
    coeffs = init
    for k, report in enumerate(reports):
        # each run repeats the longest one's first iterations bit for bit
        assert np.array_equal(report.j_history, last.j_history[:k + 2])
        for name in ("state_decrement_terms", "coeff_decrement_terms", "bregman_values"):
            assert np.array_equal(getattr(report, name), getattr(last, name)[:k + 1])
        new_states, new_coeffs = report.states, report.coefficients
        assert abs(last.state_decrement_terms[k]
                   - direct_state_decrement(new_states, states, coeffs)) <= tol
        assert abs(last.coeff_decrement_terms[k]
                   - direct_coeff_decrement(new_states, new_coeffs, coeffs)) <= tol
        assert abs(last.bregman_values[k]
                   - direct_bregman(new_states, sources, new_coeffs, coeffs, cfg)) <= tol
        states, coeffs = new_states, new_coeffs
    assert last.coeff_decrement_terms.min() > 0.0


def test_each_half_step_evaluates_its_residual_once(monkeypatch):
    # k (1 + 3 m) residual evaluations for k excitations and m outer
    # iterations: the start's, and per half-step one for the state solve's
    # own check and one that J, the decrement and the gradients share.
    grid, truth, sets = small_problem(n=12, excitations=2)
    calls = []
    real = model.apply_L

    def counted(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(model, "apply_L", counted)
    init = CoefficientPair.constant(grid, 1.0, 1.0)
    adi_reconstruct(sets, init, default_config(max_outer=5))
    assert len(calls) == 2 * (1 + 3 * 5)
