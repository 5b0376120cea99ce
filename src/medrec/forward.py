"""Second-order forward solver used to synthesize boundary measurements.

Solves the five-point staggered discretization of

    -div(sigma grad u) + mu u = g_vol + (boundary flux h spread onto the
                                boundary cell layer)

with nothing factored.  With sigma > 0 and mu >= 0 positive somewhere
the assembled operator is symmetric positive definite, and conjugate
gradients solve it, preconditioned by the 2-D DCT of a constant medium
(operators.ConstantDiffusionSolver, Concus & Golub 1973), which solves
a constant medium, such as the sampling stage's homogeneous
background, at PCG's start.  The solver depends on the medium alone, so
generate_measurements sets it up once per medium and makes one
residual-verified solve per excitation.  The solver exists only to
manufacture Cauchy pairs (h, f); the reconstruction itself never calls
it.  Data generation runs on a grid refined by an integer `oversample`
and restricts back, so inversion never sees its own discretization.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .grid import (BoundaryData, ScalarField, StaggeredGrid, average_to_faces,
                   boundary_trace, divergence_to_cells, gradient_to_faces,
                   neumann_to_source, prolong_boundary, prolong_cells,
                   restrict_cells, _require_same_grid)
from .operators import ConstantDiffusionSolver, _pcg, diffusion_matrix

logger = logging.getLogger("medrec")

# PCG iterations per forward solve; the examples take 20-51 at tol 1e-10.
FORWARD_PCG_MAX = 1000


class ForwardSolverError(RuntimeError):
    """The forward solve missed the requested relative residual."""

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
    """One medium's operator, many data, and nothing factored.

    Each excitation is solved by conjugate gradients on the assembled
    operator A, preconditioned by the DCT of the constant medium A_0 of
    (sigma_0, mu_0) = (min sigma, min mu) (Concus & Golub 1973).  Then
    A_0 <= A, so the preconditioned condition number is at most the
    medium's contrast, and a constant medium is solved exactly by PCG's
    start.  Where mu vanishes on some cell, mu_0 is the mean of mu
    instead, the constant mode's Rayleigh quotient.  Every solve is
    verified on its own.
    """

    def __init__(self, sigma: ScalarField, mu: ScalarField):
        _check_coefficients(sigma, mu)
        self.grid = sigma.grid
        self.mu = mu
        self.sigma_faces = average_to_faces(sigma)
        s, m = sigma.values, mu.values
        self.matrix = diffusion_matrix(s, m)
        mu_0 = m.min() or m.mean()
        self.background = ConstantDiffusionSolver(self.grid.n, float(s.min()),
                                                  float(mu_0))
        self.iterations = 0         # the last solve's PCG iterations

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
        # PCG's recurrence lets its residual drift from b - A x by the
        # rounding of its iterates; where mu_0 is small its start is large,
        # so that drift can pass tol.  A restart from its answer recomputes
        # the true residual and removes the drift.
        x, self.iterations = None, 0
        for _ in range(2):
            x, k = _pcg(self.matrix, b.reshape(-1, 1), self.background.solve,
                        FORWARD_PCG_MAX, 1e-2 * tol, x0=x)
            self.iterations += k
            if x is None:
                # PCG keeps no iterate when it fails: report the residual of
                # its start, the constant medium's solution.
                start = ScalarField(grid, self.background.solve(b))
                res = self._residual(start, b)
                raise ForwardSolverError(
                    f"forward PCG missed relative residual {1e-2 * tol:.1e} in "
                    f"{self.iterations} iterations (start: {res:.3e})", residual=res)
            u = ScalarField(grid, x.reshape(b.shape))
            res = self._residual(u, b)
            if res <= tol:
                break
        logger.debug("forward PCG: %d iterations on %d^2 cells", self.iterations,
                     grid.n)
        if not res <= tol:
            raise ForwardSolverError(
                f"forward solve reached relative residual {res:.3e} > tol {tol:.1e}",
                residual=res)
        return u

    def _residual(self, u: ScalarField, b: np.ndarray) -> float:
        """The relative residual of u, through the independent matrix-free
        operators of grid.py."""
        r = self.mu * u - divergence_to_cells(self.sigma_faces * gradient_to_faces(u))
        return float(np.linalg.norm(r.values - b) / np.linalg.norm(b))


def solve_forward(problem: ForwardProblem, tol: float = 1e-10) -> ScalarField:
    """Solve the staggered discretization by PCG on the DCT of a constant
    medium, as _ForwardSolver does.

    The solution is returned only if its relative residual, recomputed
    through the matrix-free operators of grid.py, is <= tol.  Raises
    ForwardSolverError (carrying the residual) when PCG or that check
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
    and every excitation is one PCG solve on it, verified against tol on
    its own exactly as solve_forward verifies it.  With oversample == 1
    the trace of the forward solve is returned unchanged.
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
