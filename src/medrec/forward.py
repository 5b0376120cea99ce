"""Second-order forward solver used to synthesize boundary measurements.

Solves the five-point staggered discretization of

    -div(sigma grad u) + mu u = g_vol + (boundary flux h spread onto the
                                boundary cell layer)

with nothing factored.  With sigma > 0 and mu >= 0 positive somewhere
the assembled operator is symmetric positive definite, and conjugate
gradients solve it, preconditioned by the 2-D DCT of a constant medium
(operators.ConstantDiffusionSolver, Concus & Golub 1973).  A constant
medium, such as the sampling stage's homogeneous background, is solved
by that DCT alone, with no matrix.  _ForwardSolver is built once from the
medium, which its solves share, and each solve takes one excitation's
data: generate_measurements builds one per medium, and solve_forward is
one build and one solve.  Every solve is verified against FORWARD_TOL
on its own.  The solver exists only to manufacture Cauchy pairs (h, f);
the reconstruction itself never calls it.  Data generation runs on a
grid refined by an integer `oversample` and restricts back, so
inversion never sees its own discretization.
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

# Both are read at call time.  FORWARD_TOL is the relative residual every
# forward solve is verified to, through the matrix-free operators.
FORWARD_TOL = 1e-10
FORWARD_PCG_MAX = 1000      # PCG iterations per solve; the examples take 20-51


class ForwardSolverError(RuntimeError):
    """The forward solve missed FORWARD_TOL; residual is that of the last
    iterate, recomputed matrix-free."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


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


class _ForwardSolver:
    """One medium's operator, many data, and nothing factored.

    Each excitation is solved by conjugate gradients on the assembled
    operator A, preconditioned by the DCT of the constant medium A_0 of
    (sigma_0, mu_0) = (min sigma, min mu) (Concus & Golub 1973).  Then
    A_0 <= A, so the preconditioned condition number is at most the
    medium's contrast.  A constant medium is A_0 itself, solved by the
    DCT alone with no A assembled.  Where mu vanishes on some cell, mu_0
    is the mean of mu instead, the constant mode's Rayleigh quotient.
    Every solve is verified on its own.  GridMismatchError is raised for
    a mu, or a solve's data, on another grid than sigma.
    """

    def __init__(self, sigma: ScalarField, mu: ScalarField):
        _require_same_grid(sigma, mu)
        s, m = sigma.values, mu.values
        if s.min() <= 0:
            raise ValueError("diffusion coefficient must be strictly positive")
        if m.min() < 0:
            raise ValueError("absorption coefficient must be nonnegative")
        if m.max() == 0:
            raise ValueError("absorption coefficient must be positive somewhere")
        self.grid = sigma.grid
        self.mu = mu
        self.sigma_faces = average_to_faces(sigma)
        constant = s.min() == s.max() and m.min() == m.max()
        self.matrix = None if constant else diffusion_matrix(s, m)
        mu_0 = m.min() or m.mean()
        self.background = ConstantDiffusionSolver(self.grid.n, float(s.min()),
                                                  float(mu_0))
        self.iterations = 0         # the last solve's PCG iterations

    def solve(self, neumann: BoundaryData,
              volumetric_source: ScalarField | None = None) -> ScalarField:
        """One right-hand side, with the guarantees of solve_forward."""
        grid, tol = self.grid, FORWARD_TOL
        _require_same_grid(self.mu, neumann)
        rhs_field = neumann_to_source(neumann)
        if volumetric_source is not None:
            _require_same_grid(self.mu, volumetric_source)
            rhs_field = rhs_field + volumetric_source
        b = rhs_field.values
        if not np.any(b):
            return ScalarField.zeros(grid)
        self.iterations = 0
        if self.matrix is None:     # a constant medium: the DCT is its inverse
            u = ScalarField(grid, self.background.solve(b.reshape(-1, 1)).reshape(b.shape))
            res = self._residual(u, b)
        else:
            # PCG's recurrence lets its residual drift from b - A x by the
            # rounding of its iterates; where mu_0 is small its start is
            # large, so that drift can pass tol.  A restart from its answer
            # recomputes the true residual and removes the drift.
            x = None
            for _ in range(2):
                x, k, converged = _pcg(self.matrix, b.reshape(-1, 1), self.background.solve,
                                       FORWARD_PCG_MAX, 1e-2 * tol, x0=x)
                self.iterations += k
                u = ScalarField(grid, x.reshape(b.shape))
                res = self._residual(u, b)
                if not converged:
                    raise ForwardSolverError(
                        f"forward PCG missed relative residual {1e-2 * tol:.1e} in "
                        f"{self.iterations} iterations (last iterate: {res:.3e})",
                        residual=res)
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


def solve_forward(sigma: ScalarField, mu: ScalarField, neumann: BoundaryData,
                  volumetric_source: ScalarField | None = None) -> ScalarField:
    """Solve the staggered discretization as _ForwardSolver does: by PCG
    on the DCT of a constant medium, or by that DCT alone for one.

    The solution is returned only if its relative residual, recomputed
    through the matrix-free operators of grid.py, is <= FORWARD_TOL.
    Raises ForwardSolverError when PCG or that check misses it, carrying
    that residual of PCG's last iterate; ValueError for sigma <= 0,
    mu < 0 or mu == 0 on every cell, and GridMismatchError for fields on
    different grids.
    """
    return _ForwardSolver(sigma, mu).solve(neumann, volumetric_source)


EXCITATION_AMPLITUDE = 200.0
# Side weights (bottom, right, top, left) of each default pattern; a
# pattern is EXCITATION_AMPLITUDE times one row.
EXCITATION_SIDES = ((0.25, -0.75, 0.25, 1.25),
                    (1.25, 0.25, -0.75, 0.25))


def default_excitations(grid: StaggeredGrid, count: int = 1) -> list[BoundaryData]:
    """Boundary flux patterns used when none are supplied, the first count
    rows of EXCITATION_SIDES.

    #1 superposes a uniform influx (weight 0.25, which keeps the interior
    field positive so absorption stays observable) on a left-to-right
    push-pull; #2 is the same pattern rotated a quarter turn.  The
    amplitude EXCITATION_AMPLITUDE sets the data term's weight against
    the regularization in the least-squares stage.
    """
    if not 1 <= count <= len(EXCITATION_SIDES):
        raise ValueError(f"between 1 and {len(EXCITATION_SIDES)} default "
                         "excitations are defined")
    return [BoundaryData.from_sides(grid, *(w * EXCITATION_AMPLITUDE for w in sides))
            for sides in EXCITATION_SIDES[:count]]


def generate_measurements(true_sigma: ScalarField, true_mu: ScalarField,
                          excitations: list[BoundaryData],
                          oversample: int = 2) -> list[MeasurementSet]:
    """Synthesize (h, f) pairs for each excitation.

    Each forward solve runs on a grid refined by `oversample`; the fine
    solution is block-averaged back before taking the trace, so the
    measured f carries genuine discretization mismatch relative to the
    inversion grid.  The fine-grid solver is set up once for the medium
    and every excitation is one solve on it, verified against
    FORWARD_TOL on its own exactly as solve_forward verifies it.  With oversample == 1
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
        u_fine = solver.solve(prolong_boundary(h_coarse, oversample))
        u_coarse = restrict_cells(u_fine, oversample)
        sets.append(MeasurementSet(h=h_coarse.copy(), f=boundary_trace(u_coarse)))
    return sets
