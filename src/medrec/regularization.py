"""Mixed L1 + H1 + box regularizer for one coefficient field.

The penalty splits into a smooth quadratic part (the full H1 norm,
weight alpha/2) and a nonsmooth part (weighted L1 plus a box indicator)
whose proximal map is available in closed form: soft-threshold, then
clip into the box.  A Bregman distance built on the full penalty feeds
the optimizer's descent certificates.
"""

import math
from dataclasses import dataclass

import numpy as np

from .grid import (ScalarField, cell_inner, divergence_to_cells,
                   face_inner, gradient_to_faces)


@dataclass(frozen=True)
class RegConfig:
    """Weights and box bounds for one coefficient's regularizer.

    alpha scales the H1 part (applied as alpha/2), beta the L1 part,
    [q_lo, q_hi] is the admissible range enforced through the indicator.
    """

    alpha: float
    beta: float
    q_lo: float
    q_hi: float

    def __post_init__(self):
        if not (0.0 <= self.alpha < math.inf and 0.0 <= self.beta < math.inf):
            raise ValueError("regularization weights must be finite and nonnegative")
        if not self.q_lo < self.q_hi:
            raise ValueError(f"empty box [{self.q_lo}, {self.q_hi}]")


def box_feasible(q: ScalarField, cfg: RegConfig) -> bool:
    return bool((q.values >= cfg.q_lo).all() and (q.values <= cfg.q_hi).all())


def eval_phi(q: ScalarField, cfg: RegConfig) -> float:
    """Value of the full regularizer; +inf outside the box."""
    if not box_feasible(q, cfg):
        return math.inf
    l1 = cfg.beta * q.grid.h ** 2 * np.abs(q.values).sum()
    return float(eval_phi_smooth(q, cfg) + l1)


def eval_phi_smooth(q: ScalarField, cfg: RegConfig) -> float:
    """H1 part only (no L1, no box)."""
    return float(0.5 * cfg.alpha * h1_stencil_norm_sq(q))


def smooth_grad_phi(q: ScalarField, cfg: RegConfig) -> ScalarField:
    """Gradient of the H1 part: alpha (-lap q + q), natural Neumann stencil."""
    lap = divergence_to_cells(gradient_to_faces(q))
    return ScalarField(q.grid, cfg.alpha * (-lap.values + q.values))


def prox_l1_box(v: ScalarField, tau_beta: float, q_lo: float, q_hi: float) -> ScalarField:
    """Proximal map of tau_beta |.| + box indicator, pointwise.

    Solves argmin_q 1/2 (q - v)^2 + tau_beta |q| + chi(q; q_lo, q_hi)
    per cell: shrink toward zero by tau_beta, then clip into the box.
    """
    if tau_beta < 0:
        raise ValueError("tau_beta must be nonnegative")
    if not q_lo < q_hi:
        raise ValueError(f"empty box [{q_lo}, {q_hi}]")
    return ScalarField(v.grid, prox_l1_box_array(v.values, tau_beta, q_lo, q_hi))


def prox_l1_box_array(v: np.ndarray, tau_beta: float, q_lo: float, q_hi: float) -> np.ndarray:
    shrunk = np.sign(v) * np.maximum(np.abs(v) - tau_beta, 0.0)
    return np.clip(shrunk, q_lo, q_hi)


def bregman_distance(q: ScalarField, p: ScalarField, xi: ScalarField,
                     cfg: RegConfig) -> float:
    """phi(q) - phi(p) - <xi, q - p> for a subgradient xi of phi at p.

    Nonnegative whenever xi really is a subgradient; infeasibility of
    either argument propagates as +inf.
    """
    phi_q = eval_phi(q, cfg)
    phi_p = eval_phi(p, cfg)
    if math.isinf(phi_q) or math.isinf(phi_p):
        return math.inf
    return phi_q - phi_p - cell_inner(xi, q - p)


def h1_stencil_norm_sq(d: ScalarField) -> float:
    """||grad d||^2 + ||d||^2: the H1 sum of phi's smooth part."""
    g = gradient_to_faces(d)
    return face_inner(g, g) + cell_inner(d, d)
