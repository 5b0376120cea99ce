"""First-order residual operator, least-squares functional, and adjoints.

The reconstruction works on the first-order system

    -div p + mu u = g        (cell equation)
    p - sigma_face grad u = 0  (face equation on the interior faces)

so that sigma and mu each enter exactly one linear equation.  The flux
lives on the interior faces only (grid.FluxField), so the side constraint
p.nu = 0 holds by construction and needs no check.  This module
evaluates the residuals r(v, q) = (r_div, r_flux, r_data), the symmetric
normal operator of the state block, and, from residuals a caller has
evaluated once, the total functional J (equation residuals + data misfit
+ both regularizers) and the misfit gradients of the coefficient block.
Every adjoint here is the exact discrete transpose of its forward map,
which is what makes the finite-difference gradient checks tight.
"""

import math
from dataclasses import dataclass

from .forward import MeasurementSet
from .grid import (BoundaryData, FluxField, ScalarField, average_to_faces,
                   average_to_faces_adjoint, boundary_inner, boundary_trace,
                   cell_inner, divergence_to_cells, face_inner,
                   gradient_to_faces, neumann_to_source, _require_same_grid)
from .regularization import RegConfig, eval_phi


@dataclass
class StatePair:
    """State block v = (u, p) of cell values and interior-face fluxes."""

    u: ScalarField
    p: FluxField

    def __post_init__(self):
        _require_same_grid(self.u, self.p)

    @classmethod
    def zeros(cls, grid) -> "StatePair":
        return cls(ScalarField.zeros(grid), FluxField.zeros(grid))

    def __add__(self, other):
        return StatePair(self.u + other.u, self.p + other.p)

    def __sub__(self, other):
        return StatePair(self.u - other.u, self.p - other.p)

    def __mul__(self, s):
        return StatePair(self.u * float(s), self.p * float(s))

    __rmul__ = __mul__


@dataclass
class CoefficientPair:
    """Coefficient block q = (sigma, mu)."""

    sigma: ScalarField
    mu: ScalarField

    def __post_init__(self):
        _require_same_grid(self.sigma, self.mu)

    @classmethod
    def constant(cls, grid, sigma: float, mu: float) -> "CoefficientPair":
        return cls(ScalarField.constant(grid, sigma), ScalarField.constant(grid, mu))


@dataclass
class Residuals:
    """Residual triple; r_data is filled only when a trace target is given."""

    r_div: ScalarField
    r_flux: FluxField
    r_data: BoundaryData | None = None

    def __sub__(self, other):
        return Residuals(self.r_div - other.r_div, self.r_flux - other.r_flux,
                         self.r_data - other.r_data)


def state_inner(a: StatePair, b: StatePair) -> float:
    return cell_inner(a.u, b.u) + face_inner(a.p, b.p)


def state_norm(a: StatePair) -> float:
    return math.sqrt(max(state_inner(a, a), 0.0))


def apply_L(v: StatePair, q: CoefficientPair, g: ScalarField) -> Residuals:
    """Equation residuals (r_div, r_flux) of the first-order system."""
    _require_same_grid(v.u, q.sigma)
    _require_same_grid(v.u, g)
    r_div = ScalarField(
        v.u.grid,
        -divergence_to_cells(v.p).values + q.mu.values * v.u.values - g.values)
    r_flux = v.p - average_to_faces(q.sigma) * gradient_to_faces(v.u)
    return Residuals(r_div=r_div, r_flux=r_flux)


def full_residuals(v: StatePair, q: CoefficientPair, g: ScalarField,
                   f: BoundaryData) -> Residuals:
    res = apply_L(v, q, g)
    res.r_data = boundary_trace(v.u) - f
    return res


def _as_list(x, cls):
    if isinstance(x, cls):
        return [x]
    return list(x)


def squared_norm(residuals) -> float:
    """Sum over the excitations' full residuals of the squared cell norm
    of r_div, the squared face norm of r_flux and the squared boundary
    norm of r_data."""
    total = 0.0
    for res in residuals:
        total += cell_inner(res.r_div, res.r_div)
        total += face_inner(res.r_flux, res.r_flux)
        total += boundary_inner(res.r_data, res.r_data)
    return total


def eval_J(residuals, coeffs: CoefficientPair, reg_sigma: RegConfig,
           reg_mu: RegConfig) -> float:
    """Total least-squares functional from each excitation's full residual.

    residuals is one full_residuals(v, coeffs, g, f) per excitation; J is
    their squared_norm plus both regularizers of coeffs.  Returns +inf as
    soon as a coefficient leaves its box.
    """
    if not residuals:
        raise ValueError("at least one residual is required")
    total = squared_norm(residuals)
    total += eval_phi(coeffs.sigma, reg_sigma)
    total += eval_phi(coeffs.mu, reg_mu)
    return float(total)


# ---------------------------------------------------------------------------
# State block: normal operator A = L_q^* L_q + C^* C and its right-hand side
# ---------------------------------------------------------------------------

def state_normal_apply(q: CoefficientPair, v: StatePair) -> StatePair:
    """Apply the symmetric positive definite state-block normal operator."""
    grid = v.u.grid
    res = apply_L(v, q, ScalarField.zeros(grid))
    # Like p, r_flux has no boundary-normal entries; the divergence reads them as 0.
    s_r_flux = average_to_faces(q.sigma) * res.r_flux
    a_u = q.mu.values * res.r_div.values + divergence_to_cells(s_r_flux).values \
        + neumann_to_source(boundary_trace(v.u)).values
    return StatePair(ScalarField(grid, a_u), gradient_to_faces(res.r_div) + res.r_flux)


def state_normal_rhs(q: CoefficientPair, g: ScalarField, f: BoundaryData) -> StatePair:
    """Right-hand side L_q^*(g, 0) + C^* f of the state normal equations."""
    grid = g.grid
    b_u = q.mu.values * g.values + neumann_to_source(f).values
    b_p = gradient_to_faces(g)
    return StatePair(ScalarField(grid, b_u), b_p)


def state_normal_residual(q: CoefficientPair, v: StatePair, g: ScalarField,
                          f: BoundaryData) -> float:
    """Relative residual ||A v - b|| / ||b|| in the state-space norm."""
    av = state_normal_apply(q, v)
    b = state_normal_rhs(q, g, f)
    b_norm = state_norm(b)
    if b_norm == 0.0:
        return state_norm(av)
    return state_norm(av - b) / b_norm


# ---------------------------------------------------------------------------
# Coefficient block: gradients of the smooth misfit terms
# ---------------------------------------------------------------------------

def misfit_gradients(states, residuals) -> tuple[ScalarField, ScalarField]:
    """Gradients of the summed equation misfits with respect to sigma and mu,
    from each excitation's state v and its residual r(v, q).

    The two decouple: sigma only enters the flux residual, mu only the
    divergence residual.  Both gradients are exact for the discrete
    functional (the face-to-cell adjoint is the true transpose of the
    averaging map).
    """
    grads_sigma, grads_mu = [], []
    for v, res in zip(states, residuals):
        weighted = gradient_to_faces(v.u) * res.r_flux
        grads_sigma.append(-2.0 * average_to_faces_adjoint(weighted))
        grads_mu.append(2.0 * v.u * res.r_div)
    return sum(grads_sigma[1:], grads_sigma[0]), sum(grads_mu[1:], grads_mu[0])


def coefficient_misfit_gradients(v: StatePair, q: CoefficientPair,
                                 g: ScalarField) -> tuple[ScalarField, ScalarField]:
    """misfit_gradients of one excitation's equation misfit at (v, q)."""
    return misfit_gradients([v], [apply_L(v, q, g)])


def misfit_value(v: StatePair, q: CoefficientPair, g: ScalarField) -> float:
    """Equation misfit ||r_div||^2 + ||r_flux||^2 for one excitation."""
    res = apply_L(v, q, g)
    return cell_inner(res.r_div, res.r_div) + face_inner(res.r_flux, res.r_flux)


def sources_from_measurements(measurements) -> list[ScalarField]:
    """Neumann-to-source images of each measurement's applied flux."""
    return [neumann_to_source(m.h) for m in _as_list(measurements, MeasurementSet)]
