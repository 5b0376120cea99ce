"""Second-order forward solver used to synthesize boundary measurements.

Solves the five-point staggered discretization of

    -div(sigma grad u) + mu u = g_vol + (boundary flux h spread onto the
                                boundary cell layer)

by one sparse LU factorization of the assembled operator, bordered by a
mean-zero constraint when mu == 0.  The factorization depends on the
medium alone, so generate_measurements factorizes once per medium and
makes one residual-verified solve per excitation on that factor.  The
solver exists only to manufacture Cauchy pairs (h, f); the
reconstruction itself never calls it.  Data generation runs on a grid
refined by an integer `oversample` and restricts back, so inversion
never sees its own discretization.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .grid import (BoundaryData, ScalarField, StaggeredGrid, average_to_faces,
                   boundary_trace, divergence_to_cells, gradient_to_faces,
                   neumann_to_source, prolong_boundary, prolong_cells,
                   restrict_cells, _require_same_grid)
from .operators import diffusion_matrix


class IncompatibleProblemError(ValueError):
    """Pure-Neumann problem whose data violates the compatibility condition."""


class ForwardSolverError(RuntimeError):
    """The direct solve missed the requested relative residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


@dataclass
class ForwardProblem:
    """Coefficients and data for one forward solve."""

    sigma: ScalarField
    mu: ScalarField
    neumann: BoundaryData
    volumetric_source: ScalarField | None = None

    def __post_init__(self):
        _require_same_grid(self.sigma, self.mu)
        _require_same_grid(self.sigma, self.neumann)
        if self.volumetric_source is not None:
            _require_same_grid(self.sigma, self.volumetric_source)
        _check_coefficients(self.sigma, self.mu)

    @property
    def grid(self) -> StaggeredGrid:
        return self.sigma.grid


@dataclass
class MeasurementSet:
    """One excitation's Cauchy pair: applied flux h, observed trace f."""

    h: BoundaryData
    f: BoundaryData

    def __post_init__(self):
        _require_same_grid(self.h, self.f)

    @property
    def grid(self) -> StaggeredGrid:
        return self.h.grid


def _check_coefficients(sigma: ScalarField, mu: ScalarField) -> None:
    if sigma.values.min() <= 0:
        raise ValueError("diffusion coefficient must be strictly positive")
    if mu.values.min() < 0:
        raise ValueError("absorption coefficient must be nonnegative")


class _ForwardSolver:
    """One sparse LU factorization of one medium's operator, many data.

    The operator depends on the coefficients alone, so every excitation
    of a medium is solved on the same factor; each solve is still
    verified on its own.
    """

    def __init__(self, sigma: ScalarField, mu: ScalarField):
        _check_coefficients(sigma, mu)
        n = sigma.grid.n
        self.grid = sigma.grid
        self.mu = mu
        self.sigma_faces = average_to_faces(sigma)
        self.pure_neumann = mu.values.max() == 0.0
        matrix = diffusion_matrix(sigma.values, mu.values)
        if self.pure_neumann:
            # Gauge: border the singular operator with the mean-zero constraint.
            ones = sp.csc_matrix(np.ones((n * n, 1)))
            matrix = sp.bmat([[matrix, ones], [ones.T, None]], format="csc")
        # The operator is symmetric: minimum degree on A^T + A gives about
        # half the LU fill of the default COLAMD ordering.
        self.lu = splu(matrix, permc_spec="MMD_AT_PLUS_A")

    def solve(self, neumann: BoundaryData,
              volumetric_source: ScalarField | None = None,
              tol: float = 1e-10) -> ScalarField:
        """One right-hand side, with the guarantees of solve_forward."""
        if tol <= 0:
            raise ValueError("tol must be positive")
        grid = self.grid
        n, h = grid.n, grid.h

        rhs_field = neumann_to_source(neumann)
        if volumetric_source is not None:
            rhs_field = rhs_field + volumetric_source
        b = rhs_field.values

        if self.pure_neumann:
            total = float(b.sum()) * h * h
            scale = h * np.abs(neumann.values).sum() \
                + h * h * np.abs(b).sum() + 1.0
            if abs(total) > 1e-10 * scale:
                raise IncompatibleProblemError(
                    f"mu == 0 with nonzero net source ({total:.3e}); "
                    "the pure-Neumann problem has no solution")
            b = b - b.mean()

        if not np.any(b):
            return ScalarField.zeros(grid)
        rhs = b.ravel()
        if self.pure_neumann:
            rhs = np.append(rhs, 0.0)
        x = self.lu.solve(rhs)
        u = ScalarField(grid, x[:n * n].reshape(n, n))

        # Verify through the independent matrix-free operators of grid.py.
        r = self.mu * u - divergence_to_cells(self.sigma_faces * gradient_to_faces(u))
        res = float(np.linalg.norm(r.values - b) / np.linalg.norm(b))
        if not res <= tol:
            raise ForwardSolverError(
                f"direct solve reached relative residual {res:.3e} > tol {tol:.1e}",
                residual=res)
        return u


def solve_forward(problem: ForwardProblem, tol: float = 1e-10) -> ScalarField:
    """Solve the staggered discretization by one sparse LU factorization.

    The solution is returned only if its relative residual, recomputed
    through the matrix-free operators of grid.py, is <= tol.  Raises
    IncompatibleProblemError for a pure-Neumann problem (mu == 0) whose
    total source does not vanish, and ForwardSolverError (carrying the
    residual) when the direct solve misses tol.
    """
    solver = _ForwardSolver(problem.sigma, problem.mu)
    return solver.solve(problem.neumann, problem.volumetric_source, tol)


EXCITATION_AMPLITUDE = 200.0
EXCITATION_OFFSET = 0.25


def default_excitations(grid: StaggeredGrid, count: int = 1,
                        amplitude: float = EXCITATION_AMPLITUDE) -> list[BoundaryData]:
    """Boundary flux patterns used when none are supplied.

    #1 superposes a uniform influx (weight 0.25, which keeps the interior
    field positive so absorption stays observable) on a left-to-right
    push-pull; #2 is the same pattern rotated a quarter turn.  The
    amplitude sets the data term's weight against the regularization in
    the least-squares stage.
    """
    if count < 1 or count > 2:
        raise ValueError("between 1 and 2 default excitations are defined")
    c = EXCITATION_OFFSET
    out = [BoundaryData.from_sides(grid, c * amplitude, (c - 1.0) * amplitude,
                                   c * amplitude, (c + 1.0) * amplitude)]
    if count == 2:
        out.append(BoundaryData.from_sides(grid, (c + 1.0) * amplitude,
                                           c * amplitude, (c - 1.0) * amplitude,
                                           c * amplitude))
    return out


def generate_measurements(true_sigma: ScalarField, true_mu: ScalarField,
                          excitations: list[BoundaryData], oversample: int = 2,
                          tol: float = 1e-10) -> list[MeasurementSet]:
    """Synthesize (h, f) pairs for each excitation.

    Each forward solve runs on a grid refined by `oversample`; the fine
    solution is block-averaged back before taking the trace, so the
    measured f carries genuine discretization mismatch relative to the
    inversion grid.  The fine-grid operator is factorized once for the
    medium and every excitation is one solve on that factor, verified
    against tol on its own exactly as solve_forward verifies it.  With
    oversample == 1 the trace of the direct solve is returned unchanged.
    """
    if oversample < 1:
        raise ValueError("oversample must be >= 1")
    _require_same_grid(true_sigma, true_mu)
    for h_coarse in excitations:
        _require_same_grid(true_sigma, h_coarse)

    solver = _ForwardSolver(prolong_cells(true_sigma, oversample),
                            prolong_cells(true_mu, oversample))
    sets = []
    for h_coarse in excitations:
        u_fine = solver.solve(prolong_boundary(h_coarse, oversample), tol=tol)
        u_coarse = restrict_cells(u_fine, oversample)
        sets.append(MeasurementSet(h=h_coarse.copy(), f=boundary_trace(u_coarse)))
    return sets
