import math

import numpy as np
import pytest

from medrec.grid import ScalarField, StaggeredGrid, cell_inner, cell_norm
from medrec.regularization import (RegConfig, bregman_distance, box_feasible,
                                   eval_phi, eval_phi_smooth,
                                   h1_stencil_norm_sq, prox_l1_box,
                                   prox_l1_box_array, smooth_grad_phi)
from conftest import random_scalar


def test_config_validation():
    with pytest.raises(ValueError):
        RegConfig(-1.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        RegConfig(0.0, 0.0, 2.0, 1.0)


@pytest.mark.parametrize("alpha, beta", [(math.inf, 0.0), (math.nan, 0.0),
                                         (0.0, math.inf), (0.0, math.nan)])
def test_non_finite_weights_are_rejected(alpha, beta):
    with pytest.raises(ValueError, match="finite"):
        RegConfig(alpha, beta, 0.0, 1.0)


def test_eval_phi_constant_field(grid16):
    cfg = RegConfig(0.5, 0.25, -10.0, 10.0)
    q = ScalarField.constant(grid16, 3.0)
    # unit area: alpha/2 * c^2 + beta * |c|
    assert eval_phi(q, cfg) == pytest.approx(0.25 * 9.0 + 0.25 * 3.0, rel=1e-12)


def test_eval_phi_box_violation(grid16):
    cfg = RegConfig(1.0, 1.0, 0.0, 5.0)
    q = ScalarField.constant(grid16, 1.0)
    q.values[0, 0] = 5.1
    assert eval_phi(q, cfg) == math.inf
    assert not box_feasible(q, cfg)


def test_eval_phi_table_params_finite(grid16, rng):
    cfg = RegConfig(1.0e-2, 2.0e-2, 0.5, 30.0)
    q = ScalarField(grid16, 0.5 + 29.5 * rng.random((16, 16)))
    assert math.isfinite(eval_phi(q, cfg))


def test_smooth_grad_constant_and_zero_alpha(grid16):
    cfg = RegConfig(0.7, 0.3, -10, 10)
    q = ScalarField.constant(grid16, 2.0)
    assert np.allclose(smooth_grad_phi(q, cfg).values, 0.7 * 2.0)
    cfg0 = RegConfig(0.0, 0.3, -10, 10)
    r = random_scalar(grid16, np.random.default_rng(0))
    assert np.all(smooth_grad_phi(r, cfg0).values == 0.0)


def test_smooth_grad_matches_finite_differences(grid16, rng):
    cfg = RegConfig(0.37, 0.0, -100, 100)
    step = 1e-6
    for _ in range(5):
        q = random_scalar(grid16, rng)
        d = random_scalar(grid16, rng)
        grad = smooth_grad_phi(q, cfg)
        fd = (eval_phi_smooth(q + step * d, cfg)
              - eval_phi_smooth(q + (-step) * d, cfg)) / (2 * step)
        assert fd == pytest.approx(cell_inner(grad, d), rel=1e-6, abs=1e-10)


def test_prox_simple_cases(grid16):
    v = ScalarField.constant(grid16, 5.0)
    out = prox_l1_box(v, 1.0, 1.0, 20.0)
    assert np.allclose(out.values, 4.0)
    v = ScalarField.constant(grid16, 0.5)
    out = prox_l1_box(v, 1.0, 1.0, 20.0)
    assert np.allclose(out.values, 1.0)


def brute_force_prox(v, tau_beta, lo, hi):
    """1D objective scanned on a grid no coarser than 1e-4."""
    count = max(int(math.ceil((hi - lo) / 1e-4)) + 1, 2)
    q = np.linspace(lo, hi, count)
    obj = 0.5 * (q - v) ** 2 + tau_beta * np.abs(q)
    return q[np.argmin(obj)]


def test_prox_against_brute_force_scan(rng):
    # moderate sample here; the full 10^4-instance sweep runs in acceptance
    for _ in range(300):
        v = float(rng.uniform(-5, 5))
        tau_beta = float(rng.uniform(0, 2))
        lo = float(rng.uniform(-3, 1))
        hi = lo + float(rng.uniform(0.2, 3.5))
        got = prox_l1_box_array(np.array([v]), tau_beta, lo, hi)[0]
        want = brute_force_prox(v, tau_beta, lo, hi)
        assert abs(got - want) <= 2e-4


def test_prox_nonexpansive(grid16, rng):
    for _ in range(20):
        a = random_scalar(grid16, rng)
        b = random_scalar(grid16, rng)
        pa = prox_l1_box(a, 0.3, -1.0, 1.5)
        pb = prox_l1_box(b, 0.3, -1.0, 1.5)
        assert np.all(np.abs(pa.values - pb.values) <= np.abs(a.values - b.values) + 1e-15)


def test_prox_fixed_point_optimality(rng):
    # q* = prox(q* - tau * grad) satisfies the 1D optimality per cell,
    # checked against the brute-force scan
    tau = 0.37
    beta = 0.8
    lo, hi = -1.0, 2.0
    for _ in range(50):
        v = float(rng.uniform(-4, 4))
        q_star = prox_l1_box_array(np.array([v]), tau * beta, lo, hi)[0]
        # at the fixed point, re-applying the prox to q* - tau*0 returns q*
        again = prox_l1_box_array(np.array([q_star]), 0.0, lo, hi)[0]
        assert again == pytest.approx(q_star, abs=1e-15)
        want = brute_force_prox(v, tau * beta, lo, hi)
        assert abs(q_star - want) <= 2e-4


def test_bregman_identity_for_same_point(grid16, rng):
    cfg = RegConfig(0.2, 0.1, -5, 5)
    q = prox_l1_box(random_scalar(grid16, rng), 0.0, -5, 5)
    xi = smooth_grad_phi(q, cfg)
    assert bregman_distance(q, q, xi, cfg) == pytest.approx(0.0, abs=1e-14)


def test_bregman_quadratic_case(grid16, rng):
    # beta = 0 and inactive box: E(q, p) = alpha/2 * ||q - p||_{H1 stencil}^2
    cfg = RegConfig(0.42, 0.0, -1e6, 1e6)
    q = random_scalar(grid16, rng)
    p = random_scalar(grid16, rng)
    xi = smooth_grad_phi(p, cfg)
    expected = 0.5 * cfg.alpha * h1_stencil_norm_sq(q - p)
    assert bregman_distance(q, p, xi, cfg) == pytest.approx(expected, rel=1e-10)


def test_bregman_nonnegative_with_true_subgradient(grid16, rng):
    cfg = RegConfig(0.05, 0.4, -1.0, 2.0)
    for _ in range(20):
        p = prox_l1_box(random_scalar(grid16, rng) * 2.0, 0.2, cfg.q_lo, cfg.q_hi)
        # subgradient: smooth part + beta * sign selection + normal cone element
        sign_sel = np.sign(p.values)
        normal = np.zeros_like(p.values)
        normal[p.values >= cfg.q_hi] = rng.random((p.values >= cfg.q_hi).sum()) * 3
        normal[p.values <= cfg.q_lo] = -rng.random((p.values <= cfg.q_lo).sum()) * 3
        xi = ScalarField(grid16, smooth_grad_phi(p, cfg).values
                         + cfg.beta * sign_sel + normal)
        q = prox_l1_box(random_scalar(grid16, rng) * 2.0, 0.0, cfg.q_lo, cfg.q_hi)
        assert bregman_distance(q, p, xi, cfg) >= -1e-10


def test_bregman_infeasible_propagates(grid16):
    cfg = RegConfig(0.1, 0.1, 0.0, 1.0)
    good = ScalarField.constant(grid16, 0.5)
    bad = ScalarField.constant(grid16, 2.0)
    xi = ScalarField.zeros(grid16)
    assert bregman_distance(bad, good, xi, cfg) == math.inf
    assert bregman_distance(good, bad, xi, cfg) == math.inf


def test_strict_midpoint_convexity_margin(grid16, rng):
    cfg = RegConfig(0.3, 0.2, -10.0, 10.0)
    for _ in range(10):
        a = random_scalar(grid16, rng)
        b = random_scalar(grid16, rng)
        mid = 0.5 * (a + b)
        margin = cfg.alpha / 8.0 * h1_stencil_norm_sq(a - b)
        lhs = eval_phi(mid, cfg)
        rhs = 0.5 * (eval_phi(a, cfg) + eval_phi(b, cfg)) - margin
        assert lhs <= rhs + 1e-12 * (1 + abs(rhs))


def test_phi_coercive_in_h1_stencil_norm(grid16, rng):
    cfg = RegConfig(0.25, 0.1, -50.0, 50.0)
    for _ in range(10):
        q = random_scalar(grid16, rng) * 3.0
        assert eval_phi(q, cfg) >= 0.5 * cfg.alpha * h1_stencil_norm_sq(q) - 1e-12
