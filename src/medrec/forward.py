"""Second-order forward solver used to synthesize boundary measurements.

Solves the five-point staggered discretization of

    -div(sigma grad u) + mu u = g_vol + (boundary flux h spread onto the
                                boundary cell layer)

by one sparse LU factorization of the assembled operator.  With
sigma > 0 and mu >= 0 positive somewhere the operator is symmetric
positive definite, so it is factored pivot-free under a symmetric
minimum-degree ordering (operators.SPD_LU), like the state block.  A
constant medium, such as the sampling stage's homogeneous background,
is not factored: operators.ConstantDiffusionSolver solves it exactly
by the 2-D DCT.  The solver depends on the medium alone, so
generate_measurements sets it up once per medium and makes one
residual-verified solve per excitation.  The solver exists only to
manufacture Cauchy pairs (h, f); the reconstruction itself never calls
it.  Data generation runs on a grid refined by an integer `oversample`
and restricts back, so inversion never sees its own discretization.
"""

from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import splu

from .grid import (BoundaryData, ScalarField, StaggeredGrid, average_to_faces,
                   boundary_trace, divergence_to_cells, gradient_to_faces,
                   neumann_to_source, prolong_boundary, prolong_cells,
                   restrict_cells, _require_same_grid)
from .operators import SPD_LU, ConstantDiffusionSolver, diffusion_matrix


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


def check_measurements(measurements) -> list[MeasurementSet]:
    """Normalize to a nonempty list of MeasurementSet on one shared grid."""
    if isinstance(measurements, MeasurementSet):
        measurements = [measurements]
    out = list(measurements)
    if not out:
        raise ValueError("at least one measurement set is required")
    for m in out:
        if not isinstance(m, MeasurementSet):
            raise TypeError(f"expected MeasurementSet, got {type(m).__name__}")
    n = out[0].grid.n
    if any(m.grid.n != n for m in out):
        raise ValueError("all measurement sets must share one grid")
    return out


def _check_coefficients(sigma: ScalarField, mu: ScalarField) -> None:
    if sigma.values.min() <= 0:
        raise ValueError("diffusion coefficient must be strictly positive")
    if mu.values.min() < 0:
        raise ValueError("absorption coefficient must be nonnegative")
    if mu.values.max() == 0:
        raise ValueError("absorption coefficient must be positive somewhere")


class _ForwardSolver:
    """One sparse LU factorization of one medium's operator, many data.

    The operator depends on the coefficients alone, so every excitation
    of a medium is solved on the same factor; each solve is still
    verified on its own.  A constant medium, whose mu the checks leave
    positive, is solved by the DCT instead, with nothing factored.
    """

    def __init__(self, sigma: ScalarField, mu: ScalarField):
        _check_coefficients(sigma, mu)
        self.grid = sigma.grid
        self.mu = mu
        self.sigma_faces = average_to_faces(sigma)
        s, m = sigma.values, mu.values
        if (s == s.flat[0]).all() and (m == m.flat[0]).all():
            self.lu = ConstantDiffusionSolver(self.grid.n, float(s.flat[0]),
                                              float(m.flat[0]))
        else:
            self.lu = splu(diffusion_matrix(s, m), **SPD_LU)

    def solve(self, neumann: BoundaryData,
              volumetric_source: ScalarField | None = None,
              tol: float = 1e-10) -> ScalarField:
        """One right-hand side, with the guarantees of solve_forward."""
        if tol <= 0:
            raise ValueError("tol must be positive")
        grid = self.grid
        rhs_field = neumann_to_source(neumann)
        if volumetric_source is not None:
            rhs_field = rhs_field + volumetric_source
        b = rhs_field.values
        if not np.any(b):
            return ScalarField.zeros(grid)
        u = ScalarField(grid, self.lu.solve(b.ravel()).reshape(b.shape))

        # Verify through the independent matrix-free operators of grid.py.
        r = self.mu * u - divergence_to_cells(self.sigma_faces * gradient_to_faces(u))
        res = float(np.linalg.norm(r.values - b) / np.linalg.norm(b))
        if not res <= tol:
            raise ForwardSolverError(
                f"direct solve reached relative residual {res:.3e} > tol {tol:.1e}",
                residual=res)
        return u


def solve_forward(problem: ForwardProblem, tol: float = 1e-10) -> ScalarField:
    """Solve the staggered discretization by one sparse LU factorization,
    or by the DCT where sigma and mu are constant.

    The solution is returned only if its relative residual, recomputed
    through the matrix-free operators of grid.py, is <= tol.  Raises
    ForwardSolverError (carrying the residual) when the direct solve
    misses tol; ForwardProblem has already rejected sigma <= 0, mu < 0
    and mu == 0 on every cell.
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
    inversion grid.  The fine-grid solver is set up once for the medium
    and every excitation is one solve on it, verified against tol on its
    own exactly as solve_forward verifies it.  With
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
