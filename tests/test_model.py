import math

import numpy as np
import pytest

from medrec.forward import MeasurementSet, default_excitations, generate_measurements
from medrec.grid import (BoundaryData, FluxField, ScalarField, StaggeredGrid,
                         average_to_faces, boundary_trace, cell_inner, cell_norm,
                         face_inner, gradient_to_faces, neumann_to_source)
from medrec.model import (CoefficientPair, StatePair, apply_L,
                          coefficient_misfit_gradients, eval_J, full_residuals,
                          misfit_value, state_inner, state_norm,
                          state_normal_apply, state_normal_rhs,
                          sources_from_measurements)
from medrec.regularization import RegConfig
from conftest import random_admissible_flux, random_boundary, random_scalar

WIDE = RegConfig(0.0, 0.0, -1e9, 1e9)


def exact_triple(grid, rng):
    """(v, q, g) with both first-order residuals identically zero."""
    sigma = ScalarField(grid, 1.0 + rng.random((grid.n, grid.n)))
    mu = ScalarField(grid, 0.5 + rng.random((grid.n, grid.n)))
    u = random_scalar(grid, rng)
    s_face = average_to_faces(sigma)
    gu = gradient_to_faces(u)
    p = FluxField(grid, s_face.x_values * gu.x_values,
                  s_face.y_values * gu.y_values)
    v = StatePair(u, p)
    res = apply_L(v, CoefficientPair(sigma, mu), ScalarField.zeros(grid))
    g = res.r_div  # by construction L(v,q) = (g, 0)
    return v, CoefficientPair(sigma, mu), g


def test_exact_first_order_solution_has_zero_residuals(grid16, rng):
    grid = grid16
    ones = ScalarField.constant(grid, 1.0)
    v = StatePair(ones, FluxField.zeros(grid))
    res = apply_L(v, CoefficientPair(ones, ones), ones)
    assert np.abs(res.r_div.values).max() == 0.0
    assert np.abs(res.r_flux.x_values).max() == 0.0

    v, q, g = exact_triple(grid, rng)
    res = apply_L(v, q, g)
    assert np.abs(res.r_div.values).max() < 1e-12
    assert np.abs(res.r_flux.x_values).max() == 0.0
    assert np.abs(res.r_flux.y_values).max() == 0.0


def test_affine_structure_in_coefficients(grid16, rng):
    grid = grid16
    v = StatePair(random_scalar(grid, rng), random_admissible_flux(grid, rng))
    zero = ScalarField.zeros(grid)
    q1 = CoefficientPair(random_scalar(grid, rng), random_scalar(grid, rng))
    q2 = CoefficientPair(random_scalar(grid, rng), random_scalar(grid, rng))
    a, b = 0.7, 0.3  # affine combination: a + b = 1
    q_mix = CoefficientPair(a * q1.sigma + b * q2.sigma, a * q1.mu + b * q2.mu)
    r_mix = apply_L(v, q_mix, zero)
    r1 = apply_L(v, q1, zero)
    r2 = apply_L(v, q2, zero)
    assert np.allclose(r_mix.r_div.values, a * r1.r_div.values + b * r2.r_div.values,
                       rtol=1e-12, atol=1e-12)
    assert np.allclose(r_mix.r_flux.x_values,
                       a * r1.r_flux.x_values + b * r2.r_flux.x_values,
                       rtol=1e-12, atol=1e-12)

    # with p = 0 the map is genuinely linear in q for any combination
    v0 = StatePair(v.u, FluxField.zeros(grid))
    a, b = 2.0, -3.0
    q_lin = CoefficientPair(a * q1.sigma + b * q2.sigma, a * q1.mu + b * q2.mu)
    r_lin = apply_L(v0, q_lin, zero)
    r1 = apply_L(v0, q1, zero)
    r2 = apply_L(v0, q2, zero)
    assert np.allclose(r_lin.r_div.values, a * r1.r_div.values + b * r2.r_div.values,
                       rtol=1e-12, atol=1e-12)
    assert np.allclose(r_lin.r_flux.y_values,
                       a * r1.r_flux.y_values + b * r2.r_flux.y_values,
                       rtol=1e-12, atol=1e-12)


def test_decoupling_is_exact(grid16, rng):
    grid = grid16
    v = StatePair(random_scalar(grid, rng), random_admissible_flux(grid, rng))
    g = random_scalar(grid, rng)
    base = CoefficientPair(ScalarField.constant(grid, 1.0),
                           ScalarField.constant(grid, 1.0))
    bumped_sigma = CoefficientPair(base.sigma + random_scalar(grid, rng), base.mu)
    bumped_mu = CoefficientPair(base.sigma, base.mu + random_scalar(grid, rng))
    r0 = apply_L(v, base, g)
    rs = apply_L(v, bumped_sigma, g)
    rm = apply_L(v, bumped_mu, g)
    assert np.array_equal(rs.r_div.values, r0.r_div.values)
    assert np.array_equal(rm.r_flux.x_values, r0.r_flux.x_values)
    assert np.array_equal(rm.r_flux.y_values, r0.r_flux.y_values)


def one_J(v, q, g, f, reg=WIDE):
    """eval_J of one excitation's residual r(v, q) against the trace f."""
    return eval_J([full_residuals(v, q, g, f)], q, reg, reg)


def make_measurement(grid, rng):
    return MeasurementSet(h=random_boundary(grid, rng), f=random_boundary(grid, rng))


def test_eval_J_values(grid16, rng):
    grid = grid16
    v, q, g = exact_triple(grid, rng)
    meas = MeasurementSet(h=random_boundary(grid, rng), f=boundary_trace(v.u))
    assert one_J(v, q, g, meas.f) == pytest.approx(0.0, abs=1e-20)

    # zero state and coefficients: J = ||g||^2 + ||f||^2 (+ phi(0) = 0)
    zero_v = StatePair.zeros(grid)
    zero_q = CoefficientPair(ScalarField.zeros(grid), ScalarField.zeros(grid))
    g = random_scalar(grid, rng)
    meas = make_measurement(grid, rng)
    from medrec.grid import boundary_inner
    expected = cell_inner(g, g) + boundary_inner(meas.f, meas.f)
    assert one_J(zero_v, zero_q, g, meas.f) == pytest.approx(expected, rel=1e-12)


def test_eval_J_box_violation_is_infinite(grid16, rng):
    grid = grid16
    cfg = RegConfig(1e-2, 1e-2, 0.5, 30.0)
    sigma = ScalarField.constant(grid, 1.0)
    sigma.values[2, 2] = 30.1
    q = CoefficientPair(sigma, ScalarField.constant(grid, 1.0))
    v = StatePair.zeros(grid)
    g = ScalarField.zeros(grid)
    assert one_J(v, q, g, make_measurement(grid, rng).f, cfg) == math.inf


def test_eval_J_matches_residual_norms(grid16, rng):
    grid = grid16
    v = StatePair(random_scalar(grid, rng), random_admissible_flux(grid, rng))
    q = CoefficientPair(ScalarField.constant(grid, 2.0),
                        ScalarField.constant(grid, 1.5))
    g = random_scalar(grid, rng)
    meas = make_measurement(grid, rng)
    res = full_residuals(v, q, g, meas.f)
    from medrec.grid import boundary_inner
    total = (cell_inner(res.r_div, res.r_div) + face_inner(res.r_flux, res.r_flux)
             + boundary_inner(res.r_data, res.r_data))
    assert one_J(v, q, g, meas.f) == pytest.approx(total, rel=1e-12)


def test_block_midpoint_convexity(grid16, rng):
    grid = grid16
    reg = RegConfig(1e-3, 1e-3, -100.0, 100.0)
    g = random_scalar(grid, rng)
    meas = make_measurement(grid, rng)
    q = CoefficientPair(ScalarField.constant(grid, 2.0), ScalarField.constant(grid, 1.0))
    for _ in range(5):
        va = StatePair(random_scalar(grid, rng), random_admissible_flux(grid, rng))
        vb = StatePair(random_scalar(grid, rng), random_admissible_flux(grid, rng))
        mid = StatePair(0.5 * (va.u + vb.u), 0.5 * (va.p + vb.p))
        j_mid = one_J(mid, q, g, meas.f, reg)
        j_avg = 0.5 * (one_J(va, q, g, meas.f, reg)
                       + one_J(vb, q, g, meas.f, reg))
        assert j_mid <= j_avg + 1e-10 * (1 + abs(j_avg))
    v = StatePair(random_scalar(grid, rng), random_admissible_flux(grid, rng))
    for _ in range(5):
        qa = CoefficientPair(random_scalar(grid, rng), random_scalar(grid, rng))
        qb = CoefficientPair(random_scalar(grid, rng), random_scalar(grid, rng))
        q_mid = CoefficientPair(0.5 * (qa.sigma + qb.sigma), 0.5 * (qa.mu + qb.mu))
        j_mid = one_J(v, q_mid, g, meas.f, reg)
        j_avg = 0.5 * (one_J(v, qa, g, meas.f, reg)
                       + one_J(v, qb, g, meas.f, reg))
        assert j_mid <= j_avg + 1e-10 * (1 + abs(j_avg))


def test_state_normal_operator_symmetry_and_psd(grid16, rng):
    grid = grid16
    q = CoefficientPair(ScalarField(grid, 1.0 + rng.random((16, 16))),
                        ScalarField(grid, 0.5 + rng.random((16, 16))))
    for _ in range(10):
        v1 = StatePair(random_scalar(grid, rng), random_admissible_flux(grid, rng))
        v2 = StatePair(random_scalar(grid, rng), random_admissible_flux(grid, rng))
        a1, a2 = state_normal_apply(q, v1), state_normal_apply(q, v2)
        s12, s21 = state_inner(a1, v2), state_inner(v1, a2)
        assert abs(s12 - s21) <= 1e-12 * max(abs(s12), 1e-30)
        assert state_inner(a1, v1) >= 0.0


def test_state_normal_operator_coercive(grid16, rng):
    # smallest Ritz value via power iteration on the shifted operator
    grid = grid16
    q = CoefficientPair(ScalarField.constant(grid, 1.0), ScalarField.constant(grid, 1.0))

    def apply_a(v):
        return state_normal_apply(q, v)

    x = StatePair(random_scalar(grid, rng), random_admissible_flux(grid, rng))
    lam_max = 0.0
    for _ in range(60):
        y = apply_a(x)
        lam_max = state_inner(y, x) / state_inner(x, x)
        x = y * (1.0 / state_norm(y))
    shift = 1.1 * lam_max
    x = StatePair(random_scalar(grid, rng), random_admissible_flux(grid, rng))
    lam_shift = 0.0
    for _ in range(300):
        y = StatePair(shift * x.u - apply_a(x).u, shift * x.p - apply_a(x).p)
        lam_shift = state_inner(y, x) / state_inner(x, x)
        x = y * (1.0 / state_norm(y))
    lam_min = shift - lam_shift
    assert lam_min > 0.0


def test_state_normal_rhs_consistency(grid16, rng):
    # b solves <b, w> = <(g,0), L w> + <f, C w> for every direction w
    grid = grid16
    q = CoefficientPair(ScalarField(grid, 1.0 + rng.random((16, 16))),
                        ScalarField(grid, 0.5 + rng.random((16, 16))))
    g = random_scalar(grid, rng)
    f = random_boundary(grid, rng)
    b = state_normal_rhs(q, g, f)
    from medrec.grid import boundary_inner
    for _ in range(10):
        w = StatePair(random_scalar(grid, rng), random_admissible_flux(grid, rng))
        res = apply_L(w, q, ScalarField.zeros(grid))
        rhs = cell_inner(g, res.r_div) + boundary_inner(f, boundary_trace(w.u))
        assert state_inner(b, w) == pytest.approx(rhs, rel=1e-11, abs=1e-11)


def test_misfit_gradients_zero_at_exact_solution(grid16, rng):
    v, q, g = exact_triple(grid16, rng)
    gs, gm = coefficient_misfit_gradients(v, q, g)
    assert np.abs(gs.values).max() < 1e-10
    assert np.abs(gm.values).max() < 1e-10


def test_misfit_gradient_constant_case(grid16):
    grid = grid16
    # u = 1, r_div = 1 comes from mu = 1, p = 0, g = 0: grad_mu = 2 * u * r_div = 2
    v = StatePair(ScalarField.constant(grid, 1.0), FluxField.zeros(grid))
    q = CoefficientPair(ScalarField.constant(grid, 1.0), ScalarField.constant(grid, 1.0))
    _, gm = coefficient_misfit_gradients(v, q, ScalarField.zeros(grid))
    assert np.allclose(gm.values, 2.0)


def test_misfit_gradients_match_finite_differences(grid16, rng):
    grid = grid16
    step = 1e-5
    for _ in range(5):
        v = StatePair(random_scalar(grid, rng), random_admissible_flux(grid, rng))
        q = CoefficientPair(ScalarField(grid, 2.0 + rng.random((16, 16))),
                            ScalarField(grid, 1.0 + rng.random((16, 16))))
        g = random_scalar(grid, rng)
        gs, gm = coefficient_misfit_gradients(v, q, g)
        d_sigma = random_scalar(grid, rng)
        d_mu = random_scalar(grid, rng)
        for grad, d, build in (
                (gs, d_sigma, lambda t: CoefficientPair(q.sigma + t * d_sigma, q.mu)),
                (gm, d_mu, lambda t: CoefficientPair(q.sigma, q.mu + t * d_mu))):
            fd = (misfit_value(v, build(step), g)
                  - misfit_value(v, build(-step), g)) / (2 * step)
            exact = cell_inner(grad, d)
            assert fd == pytest.approx(exact, rel=1e-5, abs=1e-9)


def test_sources_from_measurements(grid16, rng):
    meas = [make_measurement(grid16, rng) for _ in range(2)]
    sources = sources_from_measurements(meas)
    assert len(sources) == 2
    assert np.array_equal(sources[0].values, neumann_to_source(meas[0].h).values)
