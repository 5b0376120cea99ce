"""Alternating minimization of the total least-squares functional.

adi_reconstruct runs a fixed number of outer iterations (max_outer),
each solving two convex subproblems:

  * state block: a linear-quadratic problem in (u, p) per excitation.
    For fixed u its flux is closed-form, which leaves an SPD system on
    the cells alone, the Schur complement of the (u, p) normal
    equations: S = h^2 A K^-1 A + h T^T T, with A the forward operator
    (operators.diffusion_matrix) and K = I + G^T G, solved by the 2-D
    DCT (operators.ConstantDiffusionSolver), so nothing of size (u, p)
    is assembled or factored.  Every half-step, the first included,
    solves it by conjugate gradients preconditioned with A_c, the
    forward operator plus a Robin shift on the boundary cells that
    keeps it definite where mu vanishes; A_c is factored pivot-free
    under a symmetric minimum-degree ordering (operators.SPD_LU) in the
    first outer iteration and kept, since the coefficients move little
    between iterations.  The excitations' right-hand sides are the
    columns of one array in one CG loop, and converged columns drop
    out.  The first half-step starts from zero; later ones start each
    column from the Galerkin projection onto the span of the last
    HISTORY half-steps' cell states, pooled over the excitations
    (Fischer 1998).  When CG overruns STATE_PCG_MAX iterations, the old
    factor is freed and A_c of the current coefficients factored in its
    place; one factor is alive at a time.  CG stops relative to the full
    (u, p) right-hand side, whose flux rows the closed-form flux
    satisfies, so the stop means what it would on the (u, p) system.
    One half-step serves solve_state_subproblem and adi_reconstruct
    alike: the residual is recomputed through the matrix-free normal
    operator from the model module, keeping the two routes independent,
    and a zero pivot or a residual above STATE_TOL raises
    SubproblemFailure.

  * coefficient block: sigma and mu decouple and each is a linear
    least-squares problem plus the L1/H1/box penalty.  Its Hessian is
    filled by value on the layer's five-point pattern once per outer
    iteration, its misfit matrix stays row scales of a fixed map of the
    layer, and the minimization runs on raw cell arrays.  The box has
    q_lo >= 0, where the L1 term is linear, so each block is a convex
    box QP with a constant Hessian H, solved by projected Newton
    (Bertsekas 1982): cells within eps of a bound that the gradient
    pushes out move onto it, the free block's Newton system is solved
    on H + rho I (rho = HESSIAN_SHIFT times the Gershgorin bound of H,
    which keeps it definite at alpha = 0), and an Armijo search on the
    projection arc keeps the subproblem value descending.  That system
    is solved by PCG preconditioned with one factor per coefficient
    (operators.factor_spd), taken in the first outer iteration and kept
    for the run; when PCG overruns COEFF_PCG_MAX iterations on it, it is
    freed and the current system factored and solved in its place.  A
    solve takes one to a few steps and stops at the fixed-point
    tolerance COEFF_TOL, or after NEWTON_MAX steps, a safety cap.

The report carries enough per-iteration bookkeeping (Bregman distances,
half-step decrement norms) to check the telescoped descent certificate
after the fact, plus each half-step's factorizations, PCG iterations
(the shared loop's count, the most over the excitations) and projected
start residual, and the state factors' LU fill; a DEBUG record on the
"medrec" logger summarizes every outer iteration.  Every term of that
certificate (J, the decrements, the misfit gradients and the Bregman
distances) is evaluated matrix-free, independently of the assembled
coefficient block.  Each per-iteration series is declared once, as a
Counts or Values field of ReconstructionReport; adi_reconstruct collects
every such field and appends to it through one record call per
half-step.  A new series is one report field plus one keyword in its
half-step's record call.
"""

import logging
import math
from dataclasses import dataclass, fields
from typing import Annotated, get_args, get_origin

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .forward import check_measurements
from .grid import (FluxField, ScalarField, StaggeredGrid, average_to_faces,
                   boundary_inner, boundary_trace, cell_inner, face_inner,
                   gradient_to_faces)
from .model import (CoefficientPair, StatePair, apply_L,
                    coefficient_misfit_gradients, eval_J,
                    sources_from_measurements, state_normal_residual)
from .operators import (SPD_LU, ConstantDiffusionSolver, _pcg, diffusion_matrix,
                        factor_spd, grid_operators, with_pattern)
from .regularization import RegConfig, box_feasible, bregman_distance, prox_l1_box

STATE_TOL = 1e-8             # verified state normal-equation residual
# State PCG stops four digits inside STATE_TOL.  The state norm weights u
# and p alike by h^2, so the relative residual PCG measures (its residual
# over the norm of the full (u, p) right-hand side) equals the matrix-free
# one that judges the solve, up to rounding.
PCG_RTOL = 1e-4 * STATE_TOL
STATE_PCG_MAX = 14           # PCG iterations on a kept factor before refactoring
HISTORY = 4                  # half-steps whose states span PCG's projected start
COEFF_TOL = 1e-8             # coefficient fixed-point residual
# The coefficient blocks' Newton systems are solved on H + rho I, rho =
# HESSIAN_SHIFT times the Gershgorin bound of H: with alpha = 0 the sigma
# Hessian is singular (a checkerboard has zero face means).
HESSIAN_SHIFT = 1e-8
NEWTON_MAX = 50              # safety cap on projected-Newton steps of one solve
COEFF_PCG_MAX = 30           # PCG iterations on a kept coefficient factor before
                             # refactoring
ACTIVE_EPS = 1e-3            # Bertsekas' eps_0, as a fraction of the box width
ARMIJO = 1e-4                # sufficient-decrease fraction on the projection arc
ARMIJO_MAX = 30              # halvings of the arc step before a gradient step

logger = logging.getLogger("medrec")

STOP_MAX_ITERATIONS = "max_iterations"
STOP_SUBPROBLEM_FAILURE = "subproblem_failure"


class SubproblemFailure(RuntimeError):
    """A block solve missed its tolerance; carries the partial report."""

    def __init__(self, message: str, residual: float | None = None, report=None):
        super().__init__(message)
        self.residual = residual
        self.report = report


@dataclass
class AdiConfig:
    """The method's parameters.

    Each coefficient's regularization (L1/H1 weights and box), the number
    of outer iterations, and whether mu is unknown; sigma always is.
    """

    reg_sigma: RegConfig
    reg_mu: RegConfig
    max_outer: int = 50
    update_mu: bool = True

    def __post_init__(self):
        if self.max_outer < 1:
            raise ValueError("max_outer must be >= 1")
        for reg in (self.reg_sigma, self.reg_mu):
            # The coefficient solve takes beta |q| as the linear beta q.
            if reg.beta > 0 and reg.q_lo < 0:
                raise ValueError("an L1 weight needs a box with q_lo >= 0")


# A per-iteration series of ReconstructionReport, with the dtype of its array.
Counts = Annotated[np.ndarray, int]
Values = Annotated[np.ndarray, float]


@dataclass
class ReconstructionReport:
    """Iterates and per-iteration diagnostics of one reconstruction.

    j_history starts with the functional at the initial pair; every other
    series holds one entry per outer iteration.
    """

    states: list
    coefficients: CoefficientPair
    j_history: Values
    j_after_state: Values
    stop_reason: str
    state_residuals: Values
    coeff_residual_sigma: Values
    coeff_residual_mu: Values
    bregman_values: Values
    state_decrement_terms: Values
    coeff_decrement_terms: Values
    coeff_inner_iterations: Counts       # projected-Newton steps, most over
                                         # sigma and mu
    state_factorizations: Counts         # 1 where the state half-step factored
    state_pcg_iterations: Counts         # iterations of the shared PCG loop,
                                         # most over excitations; where the
                                         # half-step refactored, the overrun
                                         # plus the loop on the new factor
    state_start_residuals: Values        # relative residual of PCG's projected
                                         # start, most over excitations; 0
                                         # where no history exists yet
    state_lu_fill: Counts                # entries SuperLU stores for L and U
                                         # of the shifted forward operator
                                         # A_c the half-step factored; 0
                                         # where it factored none
    coeff_factorizations: Counts         # coefficient factors the half-step took
    coeff_pcg_iterations: Counts         # PCG iterations, summed over sigma and mu

    @property
    def iterations(self) -> int:
        return len(self.j_history) - 1

    @property
    def final_state_residual(self) -> float:
        return float(self.state_residuals[-1]) if len(self.state_residuals) else math.nan

    @property
    def final_coeff_residuals(self) -> tuple[float, float]:
        s = float(self.coeff_residual_sigma[-1]) if len(self.coeff_residual_sigma) else math.nan
        m = float(self.coeff_residual_mu[-1]) if len(self.coeff_residual_mu) else math.nan
        return s, m


# Every per-iteration series of the report, by name, with its dtype.
_SERIES = {f.name: get_args(f.type)[1] for f in fields(ReconstructionReport)
           if get_origin(f.type) is Annotated}


# ---------------------------------------------------------------------------
# State subproblem: PCG on the cells alone, one kept factor
# ---------------------------------------------------------------------------

class _StateSolver:
    """The state block of one grid on the cells alone, with one kept factor.

    With A = diffusion_matrix(sigma, mu), K = I + G^T G and S_f the face
    means of sigma, the block's flux for fixed u is

      p = S_f (G u) - G K^-1 (A u - g),   and u solves
      S u = h^2 A K^-1 g + h T^T f,       S = h^2 A K^-1 A + h T^T T,

    the Schur complement of the (u, p) normal matrix; `solver @ x` is
    S x.  K^-1 is the DCT, so S x is two five-point products and one
    transform pair.  PCG on S is preconditioned by h^-2 A_c^-1 K A_c^-1,
    A_c = A + diag(T^T 1 / (2 h sigma)): at high frequencies A K^-1 is
    about sigma, so this shift stands in for the trace term.  assemble()
    takes new coefficients and keeps the factor of A_c; it is refactored
    only when PCG overruns STATE_PCG_MAX iterations or loses positive
    curvature.  Each solve writes its cell states into a history of the
    last HISTORY solves, one preallocated (n^2, HISTORY * excitations)
    array, whose span gives the next PCG its projected start.
    """

    def __init__(self, grid: StaggeredGrid):
        ops = grid_operators(grid.n)
        self.grid = grid
        self.factorizations = 0
        self.lu_fill = 0            # entries stored for L and U of the factor
        self.start_residual = 0.0   # the last projected start's relative residual
        self._lu = None
        self._k = ConstantDiffusionSolver(grid.n, 1.0, 1.0)     # K^-1
        self._k_matrix = ops.five_point(1.0, grad=(1.0, 1.0))   # K
        self._edges = ops.trace.T @ np.ones(4 * grid.n)         # diag(T^T T)
        self._history = None        # (n^2, HISTORY * excitations) recent states
        self._stored = 0            # half-steps written to the history

    def assemble(self, q: CoefficientPair) -> None:
        self._sigma, self._mu = q.sigma.values, q.mu.values
        self._forward = diffusion_matrix(self._sigma, self._mu)

    def _factor(self) -> None:
        """Factor A_c of the assembled coefficients in place of the old factor."""
        self._lu = None             # free the old factor: never two alive at once
        shift = self._edges.reshape(self._sigma.shape) / (2.0 * self.grid.h * self._sigma)
        shifted = diffusion_matrix(self._sigma, self._mu + shift)
        try:
            self._lu = splu(shifted, **SPD_LU)
        except RuntimeError as exc:     # a zero pivot: "Factor is exactly singular"
            raise SubproblemFailure(f"state factorization failed: {exc}") from exc
        self.factorizations += 1
        self.lu_fill = int(self._lu.nnz)

    def release(self) -> None:
        """Free the factor and the history; the next solve starts afresh."""
        self._lu = self._history = None
        self._stored = 0

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """S x, for x of shape (n^2,) or (n^2, k)."""
        h = self.grid.h
        a_k_a = self._forward @ self._k.solve(self._forward @ x)
        return h * h * a_k_a + h * (self._edges * x.T).T

    def _precondition(self, r: np.ndarray) -> np.ndarray:
        return self._lu.solve(self._k_matrix @ self._lu.solve(r)) / self.grid.h ** 2

    def rhs(self, g: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The cell right-hand side h^2 A K^-1 g + h T^T f of the assembled
        coefficients, and the norm of the full (u, p) one, h^2 (mu g + N f,
        G g), for sources g (n^2, k) and traces f (4n, k) in columns."""
        h = self.grid.h
        ops = grid_operators(self.grid.n)
        trace_f = ops.trace.T @ (h * f)
        norm_full = np.hypot(
            np.linalg.norm(h * h * self._mu.reshape(-1, 1) * g + trace_f, axis=0),
            np.linalg.norm(h * h * (ops.grad @ g), axis=0))
        return h * h * (self._forward @ self._k.solve(g)) + trace_f, norm_full

    def solve(self, sources, traces) -> tuple[list, int]:
        """The states of every excitation for the assembled coefficients, and
        the PCG iterations, the most over the excitations, summed over the
        loops of a refactor.  Sets start_residual: the projected start's
        relative residual, the most over the excitations, and 0 when no
        history exists yet."""
        grid = self.grid
        n, nf = grid.n, (grid.n - 1) * grid.n
        ops = grid_operators(n)
        g = np.column_stack([s.values.ravel() for s in sources])
        rhs, norm_full = self.rhs(g, np.column_stack([t.values for t in traces]))
        # PCG's residual is that of the full (u, p) normal equations, whose
        # p-rows the closed-form p satisfies: each column stops relative to
        # their right-hand side, as the matrix-free check does.
        norm_rhs = np.linalg.norm(rhs, axis=0)
        rtol = PCG_RTOL * np.divide(norm_full, norm_rhs, out=np.zeros_like(norm_rhs),
                                    where=norm_rhs > 0.0)

        k = rhs.shape[1]
        if self._history is None:
            self._history = np.empty((n * n, HISTORY * k), order="F")
        start, self.start_residual = None, 0.0
        if self._stored:
            start = _projected_start(
                self, self._history[:, :min(self._stored, HISTORY) * k], rhs)
            self.start_residual = float(np.max(
                np.linalg.norm(rhs - self @ start, axis=0)
                / np.where(norm_full > 0.0, norm_full, 1.0)))
        # On a factor of the assembled coefficients PCG runs to convergence;
        # exact arithmetic would take at most n^2 iterations.
        fresh = self._lu is None
        if fresh:
            self._factor()
        u, iterations = _pcg(self, rhs, self._precondition,
                             n * n if fresh else STATE_PCG_MAX, rtol, x0=start)
        if u is None and not fresh:
            self._factor()
            u, more = _pcg(self, rhs, self._precondition, n * n, rtol, x0=start)
            iterations += more
        if u is None:
            raise SubproblemFailure("state PCG did not converge on a fresh factor")
        slot = self._stored % HISTORY * k     # over the oldest half-step's states
        self._history[:, slot:slot + k] = u
        self._stored += 1

        # p = S_f (G u) - G K^-1 (A u - g)
        sigma = self._sigma.ravel()
        means = np.concatenate([ops.ax @ sigma, ops.ay @ sigma])
        p = means[:, None] * (ops.grad @ u) \
            - ops.grad @ self._k.solve(self._forward @ u - g)
        states = [StatePair(ScalarField(grid, uc.reshape(n, n)),
                            FluxField(grid, pc[:nf].reshape(n - 1, n),
                                      pc[nf:].reshape(n, n - 1)))
                  for uc, pc in zip(u.T, p.T)]
        return states, iterations


def _projected_start(a, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Galerkin start x0 = Q (Q^T a Q)^-1 Q^T b, Q an orthonormal basis of
    span(w), for each column of b (Fischer 1998).

    Over span(w), x0 has the least a-norm error.  Q = w C comes from the
    eigenpairs of the Gram matrix of w's columns scaled to unit length.
    Its eigenvalues carry an absolute error of a few machine epsilons
    times the largest, so those below 1e-14 times the largest belong to
    collinear states (a repeated one included): they are dropped, not
    inverted.  Q is never stored: each of its columns is formed once, to
    apply a to it, so no array as large as w is allocated besides w.
    """
    norms = np.linalg.norm(w, axis=0)
    scale = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0.0)
    lam, v = np.linalg.eigh(scale[:, None] * (w.T @ w) * scale)
    keep = lam > 1e-14 * lam.max(initial=0.0)
    c = scale[:, None] * v[:, keep] / np.sqrt(lam[keep])
    reduced = np.empty((c.shape[1],) * 2)        # Q^T a Q
    for j, column in enumerate(c.T):
        reduced[:, j] = c.T @ (w.T @ (a @ (w @ column)))
    return w @ (c @ np.linalg.solve(reduced, c.T @ (w.T @ b)))


def _state_half_step(q: CoefficientPair, sources, traces,
                     solver: _StateSolver) -> tuple[list, float, int]:
    """Solve the state block of every excitation for q on the solver.

    Returns the states, their largest verified normal-equation residual
    and the most PCG iterations an excitation took.  Raises
    SubproblemFailure when a factorization hits a zero pivot, PCG fails
    on a fresh factor or that residual misses STATE_TOL.
    """
    solver.assemble(q)
    states, pcg_iterations = solver.solve(sources, traces)
    residual = max(state_normal_residual(q, v, g, f)
                   for v, g, f in zip(states, sources, traces))
    if not residual <= STATE_TOL:
        raise SubproblemFailure(
            f"state normal equations solved to {residual:.3e} > {STATE_TOL:.1e}",
            residual=residual)
    return states, residual, pcg_iterations


def solve_state_subproblem(q: CoefficientPair, g: ScalarField, f,
                           cfg: AdiConfig) -> StatePair:
    """Minimize the state block for fixed coefficients, one excitation."""
    if not (box_feasible(q.sigma, cfg.reg_sigma) and box_feasible(q.mu, cfg.reg_mu)):
        raise ValueError("coefficients must be box-feasible")
    states, _, _ = _state_half_step(q, [g], [f], _StateSolver(q.sigma.grid))
    return states[0]


# ---------------------------------------------------------------------------
# Coefficient subproblem: projected Newton on a kept, shifted factor
# ---------------------------------------------------------------------------

class _CoefficientProblem:
    """One coefficient's subproblem on raveled (n*n,) cell arrays.

    With the states fixed the misfit is linear least squares in q, so the
    smooth part h^2 (||B q - t||^2 + alpha/2 (||G q||^2 + ||q||^2)) has the
    constant Hessian hess = 2 B^T B + alpha (G^T G + I) in the h^2-weighted
    cell product; it is filled once on the layer's five-point pattern, and
    the shift 2 B^T t is computed once, so the smooth gradient is
    hess @ q - shift.  B is never formed: it stacks diag(scale_e) P over
    the excitations e, with P a fixed map of the layer, the face average
    [Ax; Ay] for sigma and the identity for mu.
    """

    def __init__(self, hess: sp.csr_matrix, shift: np.ndarray, reg: RegConfig,
                 n: int):
        self.hess = hess
        self.shift = shift
        self.reg = reg
        self.n = n
        self.h = 1.0 / n


def _sigma_problem(states, reg: RegConfig, n: int) -> _CoefficientProblem:
    """Flux residual p - sigma_face grad u = t - B sigma on interior faces.

    B = diag(G u) [Ax; Ay] per excitation, so B^T B = Ax^T diag((Gx u)^2) Ax
    + Ay^T diag((Gy u)^2) Ay summed over the excitations.
    """
    ops = grid_operators(n)
    nf = (n - 1) * n
    scales = np.array([ops.grad @ v.u.values.ravel() for v in states])
    target = np.concatenate([np.concatenate([v.p.x_values.ravel(),
                                             v.p.y_values.ravel()]) for v in states])
    w = 2.0 * (scales * scales).sum(axis=0)
    hess = ops.five_point(reg.alpha, grad=(reg.alpha, reg.alpha),
                          avg=(w[:nf], w[nf:]))
    st = (scales * target.reshape(scales.shape)).sum(axis=0)
    shift = 2.0 * (ops.ax.T @ st[:nf] + ops.ay.T @ st[nf:])
    return _CoefficientProblem(hess, shift, reg, n)


def _mu_problem(states, sources, reg: RegConfig, n: int) -> _CoefficientProblem:
    """Divergence residual -div p + mu u - g = B mu - t, div p = -G^T p.

    B = diag(u) per excitation, so B^T B = diag(sum of u^2).
    """
    ops = grid_operators(n)
    scales = np.array([v.u.values.ravel() for v in states])
    target = np.concatenate([
        g.values.ravel() - ops.gx.T @ v.p.x_values.ravel()
        - ops.gy.T @ v.p.y_values.ravel()
        for v, g in zip(states, sources)])
    hess = ops.five_point(2.0 * (scales * scales).sum(axis=0) + reg.alpha,
                          grad=(reg.alpha, reg.alpha))
    shift = 2.0 * (scales * target.reshape(scales.shape)).sum(axis=0)
    return _CoefficientProblem(hess, shift, reg, n)


class _CoefficientFactor:
    """One coefficient's kept factor, preconditioning PCG on its Newton systems.

    The factor is of a masked shifted Hessian: H + rho I with the
    couplings to the cells held on their bounds removed.  It is taken
    when the run's first Newton system is solved and kept for the run.
    When PCG overruns COEFF_PCG_MAX iterations on a later system, the old
    factor is freed, that system's matrix factored in its place, and the
    system solved on it directly.
    """

    def __init__(self):
        self.lu = None
        self.factorizations = 0

    def _factor(self, matrix: sp.csc_matrix) -> None:
        self.lu = None              # free the old factor: never two alive at once
        try:
            self.lu = factor_spd(matrix)
        except RuntimeError as exc:     # a zero pivot: "Factor is exactly singular"
            raise SubproblemFailure(f"coefficient factorization failed: {exc}") from exc
        self.factorizations += 1

    def solve(self, masked: sp.csc_matrix, b: np.ndarray, keep: np.ndarray,
              rtol: float) -> tuple[np.ndarray, int]:
        """x with masked x = b to the relative residual rtol, and the PCG
        iterations spent; keep is 1 on the free cells and 0 on the others,
        where b and x vanish."""
        iterations = 0
        if self.lu is not None:
            x, iterations = _pcg(masked, b[:, None],
                                 lambda r: keep[:, None] * self.lu.solve(r),
                                 COEFF_PCG_MAX, rtol)
            if x is not None:
                return x[:, 0], iterations
        self._factor(masked)
        return keep * self.lu.solve(b), iterations


def _solve_one_coefficient(problem: _CoefficientProblem, warm: ScalarField,
                           factor: _CoefficientFactor):
    """Projected Newton (Bertsekas 1982) on one coefficient's box QP.

    On the box q >= q_lo >= 0 the L1 term is linear, so the block is
    min 1/2 q^T H q - (shift - beta)^T q over [q_lo, q_hi].  Each step
    takes Bertsekas' eps-active set, eps = min(ACTIVE_EPS (q_hi - q_lo),
    ||q - P(q - g/L)||) with L the Gershgorin bound of H: those cells move
    straight onto their bound.  The free block's Newton system is solved
    on H + rho I, rho = HESSIAN_SHIFT L (with alpha = 0, H is only
    semidefinite), by PCG with the kept factor, to the accuracy the
    stopping test needs; the other cells' couplings are dropped from the
    matrix.  An Armijo search on the projection arc accepts the step; if
    it finds none, the projected-gradient step 1/L is taken.  So every
    step lowers the subproblem value, from the clipped warm start.

    Returns (iterate, fixed-point residual, Newton steps, PCG iterations,
    converged); the residual h ||q - P(q - g/L)|| / (1 + h ||q||) is that
    of the projected-gradient map with step 1/L, converged once it is at
    most COEFF_TOL.
    """
    reg, hess, h, n = problem.reg, problem.hess, problem.h, problem.n
    lo, hi = reg.q_lo, reg.q_hi
    rows, diagonal = grid_operators(n).stencil_rows
    # (the floor only matters for H = 0: zero states and alpha = 0)
    bound = max(float(np.add.reduceat(np.abs(hess.data), hess.indptr[:-1]).max()), 1e-12)
    tau = 1.0 / bound
    data = hess.data.copy()
    data[diagonal] += HESSIAN_SHIFT * bound
    linear = reg.beta - problem.shift

    q = prox_l1_box(warm, 0.0, lo, hi).values.ravel()    # clip into the box
    eps_max = ACTIVE_EPS * (hi - lo)
    steps = pcg_iterations = 0
    while True:
        g = hess @ q + linear
        step = q - np.clip(q - tau * g, lo, hi)
        residual = h * float(np.linalg.norm(step)) / (1.0 + h * float(np.linalg.norm(q)))
        if residual <= COEFF_TOL or steps == NEWTON_MAX:
            break
        steps += 1
        eps = min(eps_max, float(np.linalg.norm(step)))
        lower = (q <= lo + eps) & (g > 0.0)
        upper = (q >= hi - eps) & (g < 0.0)
        keep = (~(lower | upper)).astype(float)
        d = np.where(lower, lo - q, np.where(upper, hi - q, 0.0))
        b = -keep * (g + hess @ d)
        # Inexact Newton: the free gradient left after a full step is PCG's
        # residual, so a tenth of the tolerance's worth of it suffices.
        stop = 0.1 * COEFF_TOL * (1.0 + h * float(np.linalg.norm(q))) / (h * tau)
        norm_b = float(np.linalg.norm(b))
        if norm_b > stop:
            # H + rho I without the couplings to the held cells; H is
            # symmetric, so its CSR arrays read as CSC are the same matrix.
            masked = data * (keep[rows] * keep[hess.indices])
            masked[diagonal] = data[diagonal]
            x, iterations = factor.solve(
                with_pattern(sp.csc_matrix, masked, hess.indices, hess.indptr,
                             hess.shape), b, keep, stop / norm_b)
            d += x
            pcg_iterations += iterations
        t, delta = 1.0, -step       # the gradient step unless the arc gives one
        for _ in range(ARMIJO_MAX):
            trial = np.clip(q + t * d, lo, hi) - q
            slope = g @ trial
            # the exact change of a quadratic, free of cancellation
            if slope < 0.0 and slope + 0.5 * (trial @ (hess @ trial)) <= ARMIJO * slope:
                delta = trial
                break
            t *= 0.5
        q = q + delta

    return (ScalarField(warm.grid, q.reshape(n, n)), residual, steps, pcg_iterations,
            residual <= COEFF_TOL)


@dataclass
class CoefficientUpdate:
    coefficients: CoefficientPair
    fp_residual_sigma: float
    fp_residual_mu: float
    inner_iterations: int           # projected-Newton steps, most over sigma and mu
    converged: bool
    pcg_iterations: int             # PCG iterations, summed over sigma and mu
    factorizations: int             # coefficient factorizations taken


def solve_coefficient_subproblem(states, sources, cfg: AdiConfig,
                                 warm_start: CoefficientPair,
                                 factors: dict | None = None) -> CoefficientUpdate:
    """Minimize the coefficient block for fixed states.

    sigma and mu decouple (sigma only enters the flux residual, mu only
    the divergence residual) and are solved independently; mu frozen by
    the config keeps its warm-start value and reports a NaN residual.
    factors maps "sigma" and "mu" to a run's kept factors; without it
    each block is factored afresh.
    """
    if not states:
        raise ValueError("at least one state pair is required")
    n = warm_start.sigma.grid.n
    if factors is None:
        factors = {"sigma": _CoefficientFactor(), "mu": _CoefficientFactor()}
    factored_before = sum(f.factorizations for f in factors.values())

    prob = _sigma_problem(states, cfg.reg_sigma, n)
    sigma, fp_sigma, steps, pcg_iterations, converged = _solve_one_coefficient(
        prob, warm_start.sigma, factors["sigma"])
    mu, fp_mu = warm_start.mu, math.nan
    if cfg.update_mu:
        prob = _mu_problem(states, sources, cfg.reg_mu, n)
        mu, fp_mu, more_steps, more_pcg, ok = _solve_one_coefficient(
            prob, warm_start.mu, factors["mu"])
        steps = max(steps, more_steps)
        pcg_iterations += more_pcg
        converged &= ok
    factored = sum(f.factorizations for f in factors.values()) - factored_before
    return CoefficientUpdate(CoefficientPair(sigma, mu), fp_sigma, fp_mu,
                             steps, converged, pcg_iterations, factored)


# ---------------------------------------------------------------------------
# Outer alternation
# ---------------------------------------------------------------------------

def _summed_misfit_gradients(states, coeffs, sources):
    grid = coeffs.sigma.grid
    gs = np.zeros((grid.n, grid.n))
    gm = np.zeros((grid.n, grid.n))
    for v, g in zip(states, sources):
        grad_s, grad_m = coefficient_misfit_gradients(v, coeffs, g)
        gs += grad_s.values
        gm += grad_m.values
    return ScalarField(grid, gs), ScalarField(grid, gm)


def _state_decrement(states_new, states_old, coeffs, grid) -> float:
    """Sum of ||L_q (v+ - v)||^2 + ||C (u+ - u)||^2 over excitations."""
    zero = ScalarField.zeros(grid)
    total = 0.0
    for v_new, v_old in zip(states_new, states_old):
        delta = v_new - v_old
        res = apply_L(delta, coeffs, zero)
        total += cell_inner(res.r_div, res.r_div)
        total += face_inner(res.r_flux, res.r_flux)
        tr = boundary_trace(delta.u)
        total += boundary_inner(tr, tr)
    return total


def _coeff_decrement(states, coeffs_new, coeffs_old, grid) -> float:
    """Sum of ||Phi_u (q+ - q)||^2 over excitations."""
    d_sigma = coeffs_new.sigma - coeffs_old.sigma
    d_mu = coeffs_new.mu - coeffs_old.mu
    s_face = average_to_faces(d_sigma)
    total = 0.0
    for v in states:
        gu = gradient_to_faces(v.u)
        flux_part = FluxField(grid, s_face.x_values * gu.x_values,
                              s_face.y_values * gu.y_values)
        cell_part = ScalarField(grid, d_mu.values * v.u.values)
        total += cell_inner(cell_part, cell_part) + face_inner(flux_part, flux_part)
    return total


def adi_reconstruct(measurements, initial_q: CoefficientPair,
                    cfg: AdiConfig) -> ReconstructionReport:
    """Run the two-block alternation from a feasible initial coefficient pair.

    The state starts from zero, so j_history[0] is the functional of the
    raw data against the initial coefficients.  Always runs cfg.max_outer
    alternations.  Each coefficient keeps one factor of its shifted
    Hessian for the run; these factors, the state factor and the state
    history are freed when the run returns or raises.
    """
    measurements = check_measurements(measurements)
    grid = measurements[0].grid
    if not (box_feasible(initial_q.sigma, cfg.reg_sigma)
            and box_feasible(initial_q.mu, cfg.reg_mu)):
        raise ValueError("initial coefficients violate their boxes")

    sources = sources_from_measurements(measurements)
    traces = [m.f for m in measurements]
    states = [StatePair.zeros(grid) for _ in measurements]
    coeffs = CoefficientPair(initial_q.sigma.copy(), initial_q.mu.copy())

    series = {name: [] for name in _SERIES}

    def record(**values):
        """Append each value to its series; an unknown name raises KeyError."""
        for name, value in values.items():
            series[name].append(value)

    def _partial_report(reason):
        return ReconstructionReport(
            states=states, coefficients=coeffs, stop_reason=reason,
            **{name: np.asarray(values, dtype=_SERIES[name])
               for name, values in series.items()})

    record(j_history=eval_J(states, coeffs, sources, measurements,
                            cfg.reg_sigma, cfg.reg_mu))
    solver = _StateSolver(grid)
    coeff_factors = {"sigma": _CoefficientFactor(), "mu": _CoefficientFactor()}
    try:
        for k in range(cfg.max_outer):
            # -- state half-step ---------------------------------------------
            factored_before = solver.factorizations
            new_states, residual, pcg_iterations = _state_half_step(
                coeffs, sources, traces, solver)
            factored = solver.factorizations - factored_before
            record(state_residuals=residual,
                   state_factorizations=factored,
                   state_pcg_iterations=pcg_iterations,
                   state_start_residuals=solver.start_residual,
                   state_lu_fill=solver.lu_fill if factored else 0,
                   state_decrement_terms=_state_decrement(new_states, states,
                                                          coeffs, grid),
                   j_after_state=eval_J(new_states, coeffs, sources, measurements,
                                        cfg.reg_sigma, cfg.reg_mu))
            states = new_states

            # -- coefficient half-step ---------------------------------------
            update = solve_coefficient_subproblem(states, sources, cfg, coeffs,
                                                  factors=coeff_factors)
            new_coeffs = update.coefficients
            grad_sigma, grad_mu = _summed_misfit_gradients(states, new_coeffs, sources)
            record(coeff_residual_sigma=update.fp_residual_sigma,
                   coeff_residual_mu=update.fp_residual_mu,
                   coeff_inner_iterations=update.inner_iterations,
                   coeff_factorizations=update.factorizations,
                   coeff_pcg_iterations=update.pcg_iterations,
                   coeff_decrement_terms=_coeff_decrement(states, new_coeffs,
                                                          coeffs, grid),
                   bregman_values=bregman_distance(coeffs.sigma, new_coeffs.sigma,
                                                   -1.0 * grad_sigma, cfg.reg_sigma)
                   + bregman_distance(coeffs.mu, new_coeffs.mu,
                                      -1.0 * grad_mu, cfg.reg_mu),
                   j_history=eval_J(states, new_coeffs, sources, measurements,
                                    cfg.reg_sigma, cfg.reg_mu))
            coeffs = new_coeffs
            logger.debug("outer %d: J %.9e, state residual %.2e, PCG %d, "
                         "start residual %.2e, factored %s, LU fill %d, "
                         "coefficient Newton steps %d, "
                         "coefficient PCG %d, coefficient factors %d, "
                         "decrements %.3e (state) %.3e (coefficient), E %.3e",
                         k + 1, series["j_history"][-1], residual, pcg_iterations,
                         solver.start_residual, factored == 1, solver.lu_fill,
                         update.inner_iterations, update.pcg_iterations,
                         update.factorizations, series["state_decrement_terms"][-1],
                         series["coeff_decrement_terms"][-1],
                         series["bregman_values"][-1])
    except SubproblemFailure as failure:
        failure.report = _partial_report(STOP_SUBPROBLEM_FAILURE)
        raise
    finally:
        # The traceback of a failure keeps this frame alive; the factors and
        # the state history go now.
        for factor in coeff_factors.values():
            factor.lu = None
        solver.release()

    return _partial_report(STOP_MAX_ITERATIONS)


# ---------------------------------------------------------------------------
# Descent certificate
# ---------------------------------------------------------------------------

@dataclass
class BregmanDiagnostics:
    """Per-iteration Bregman terms and the telescoped functional bound."""

    e_values: np.ndarray
    certificate_lhs: np.ndarray
    j0: float

    def nonnegative(self, tol: float = 1e-10) -> bool:
        return bool((self.e_values >= -tol).all())

    def certificate_holds(self, rtol: float = 1e-8) -> bool:
        bound = self.j0 + rtol * (1.0 + self.j0)
        return bool((self.certificate_lhs <= bound).all())


def bregman_diagnostics(report: ReconstructionReport) -> BregmanDiagnostics:
    """Assemble the telescoped descent certificate from a finished run.

    For every m the certificate value is J_m plus the accumulated Bregman
    distances and half-step decrement norms up to m; with exact
    subproblem solves it equals J_0.
    """
    e = report.bregman_values
    extra = e + report.state_decrement_terms + report.coeff_decrement_terms
    lhs = report.j_history[1:] + np.cumsum(extra)
    return BregmanDiagnostics(e_values=e.copy(), certificate_lhs=lhs,
                              j0=float(report.j_history[0]))
