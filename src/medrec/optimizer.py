"""Alternating minimization of the total least-squares functional.

adi_reconstruct runs a fixed number of outer iterations (max_outer),
each solving two convex subproblems:

  * state block: a linear-quadratic problem in (u, p) per excitation.
    For fixed u its flux is closed-form, which leaves an SPD system on
    the cells alone, the Schur complement of the (u, p) normal
    equations: S = h^2 A K^-1 A + h T^T T, with A the forward operator
    (operators.diffusion_matrix) and K = I + G^T G, solved by the 2-D
    DCT (operators.ConstantDiffusionSolver), so nothing of size (u, p)
    is assembled or factored.  One solver per run holds what every
    half-step shares, the excitations' sources and traces as the columns
    of one array; each half-step, solve(q), takes the new coefficients
    and solves S by conjugate gradients preconditioned with A_c, the
    forward operator plus a Robin shift on the boundary cells that keeps
    it definite where mu vanishes; A_c is factored pivot-free under a
    symmetric minimum-degree ordering (operators.SPD_LU), kept with the
    cap STATE_PCG_MAX.  The excitations share one CG loop, and converged
    columns drop out.  The first half-step starts from zero; later ones
    start each column from the Galerkin projection onto the span of the
    last HISTORY half-steps' cell states, pooled over the excitations
    (Fischer 1998).  CG stops relative to the full (u, p) right-hand
    side, whose flux rows the closed-form flux satisfies, so the stop
    means what it would on the (u, p) system.  solve(q) recomputes the
    residual through the matrix-free normal operator from the model
    module, keeping the two routes independent, and one above STATE_TOL
    raises SubproblemFailure.

  * coefficient block: sigma and mu decouple and each is a linear
    least-squares problem plus the L1/H1/box penalty.  One solver per
    coefficient and run holds its regularizer and box; each outer
    iteration fills the Hessian by value on the layer's five-point
    pattern, and solve(hess, shift, warm) runs on raw cell arrays.  With
    q_lo >= 0 the L1 term is linear, so each block is a convex box QP
    with a constant Hessian H, solved by projected Newton (Bertsekas
    1982): cells within eps of a bound that the gradient pushes out move
    onto it, the free block's Newton system is solved on H + rho I (rho
    = HESSIAN_SHIFT times the Gershgorin bound of H, which keeps it
    definite at alpha = 0) by PCG preconditioned with the solver's
    factor (operators.factor_spd), kept with the cap COEFF_PCG_MAX, and
    an Armijo search on the projection arc keeps the subproblem value
    descending.  A solve takes one to a few steps and stops at the
    fixed-point tolerance COEFF_TOL or after NEWTON_MAX, a safety cap.

Every block keeps its factor by one rule (_KeptFactor), since the
coefficients move little between outer iterations: PCG runs on the kept
factor up to the block's cap; without a factor, or past the cap, the old
one is freed and the current matrix factored and solved by PCG to
convergence, from the capped run's last iterate.  A zero pivot, or PCG
failing on a fresh factor, raises SubproblemFailure naming the block.
The run's three solvers are built once; release() frees each one's
factor when the run returns or raises.

The report carries enough per-iteration bookkeeping (Bregman distances,
half-step decrement norms) to check the telescoped descent certificate
after the fact, plus each half-step's factorizations, PCG iterations
(the shared loop's count, the most over the excitations) and projected
start residual, and the state factors' LU fill; a DEBUG record on the
"medrec" logger summarizes every outer iteration.  Every term of that
certificate is evaluated matrix-free, independently of the assembled
blocks, from one list of residuals r(v, q) per half-step
(model.full_residuals, one per excitation): J reads it; the half-step's
decrement is its squared distance from the last half-step's list, exact
since r is affine in v for fixed q and in q for fixed v; and after the
coefficient half-step the misfit gradients, whose negative is the
Bregman distance's subgradient, read it too.  Each per-iteration series
is declared once, as a Counts or Values field of ReconstructionReport;
adi_reconstruct collects every such field and appends to it through one
record call per half-step.  A new series is one report field plus one
keyword in its half-step's record call.
"""

import logging
import math
from dataclasses import dataclass, fields, replace
from typing import Annotated, get_args, get_origin

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .forward import check_measurements
from .grid import FluxField, ScalarField, StaggeredGrid
from .model import (CoefficientPair, StatePair, eval_J, full_residuals,
                    misfit_gradients, sources_from_measurements, squared_norm,
                    state_normal_residual)
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
    of outer iterations, and the known mu (None where mu, like sigma, is unknown).
    """

    reg_sigma: RegConfig
    reg_mu: RegConfig
    max_outer: int = 50
    known_mu: float | None = None

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
# Kept factors: PCG on a factor taken once, retaken when PCG overruns
# ---------------------------------------------------------------------------

class _KeptFactor:
    """One block's SuperLU factor lu, taken by factor(matrix) and kept as a
    PCG preconditioner; fill is the entries stored for L and U of the last."""

    def __init__(self, block: str, factor):
        self.block = block
        self._factor = factor
        self.lu = None
        self.factorizations = 0
        self.fill = 0

    def solve(self, a, b: np.ndarray, matrix, apply, cap: int, rtol,
              x0: np.ndarray | None = None) -> tuple[np.ndarray, int]:
        """x with a x = b to rtol by PCG preconditioned with apply(lu, r),
        capped at cap iterations on a kept factor, and the iterations,
        summed over a failure there and the loop on matrix()'s factor,
        which starts from the failed run's last iterate."""
        iterations = 0
        if self.lu is not None:
            x0, iterations, converged = _pcg(a, b, lambda r: apply(self.lu, r), cap,
                                             rtol, x0=x0)
            if converged:
                return x0, iterations
        self.lu = None              # free the old factor: never two alive at once
        try:
            self.lu = self._factor(matrix())
        except RuntimeError as exc:     # a zero pivot: "Factor is exactly singular"
            raise SubproblemFailure(f"{self.block} factorization failed: {exc}") from exc
        self.factorizations += 1
        self.fill = int(self.lu.nnz)
        # On a factor of the current matrix PCG runs to convergence; exact
        # arithmetic would take at most one iteration per unknown.
        x, more, converged = _pcg(a, b, lambda r: apply(self.lu, r), b.shape[0],
                                  rtol, x0=x0)
        if not converged:
            residual = float(np.linalg.norm(b - a @ x) / np.linalg.norm(b))
            raise SubproblemFailure(
                f"{self.block} PCG did not converge on a fresh factor (last "
                f"iterate: relative residual {residual:.3e})", residual=residual)
        return x, iterations + more


# ---------------------------------------------------------------------------
# State subproblem: PCG on the cells alone, one kept factor
# ---------------------------------------------------------------------------

class _StateSolver:
    """The state block of one run's data on the cells alone, one kept factor.

    With A = diffusion_matrix(sigma, mu), K = I + G^T G and S_f the face
    means of sigma, the block's flux for fixed u is

      p = S_f (G u) - G K^-1 (A u - g),   and u solves
      S u = h^2 A K^-1 g + h T^T f,       S = h^2 A K^-1 A + h T^T T,

    the Schur complement of the (u, p) normal matrix; `solver @ x` is
    S x.  K^-1 is the DCT, so S x is two five-point products and one
    transform pair.  PCG on S is preconditioned by h^-2 A_c^-1 K A_c^-1,
    A_c = A + diag(T^T 1 / (2 h sigma)): at high frequencies A K^-1 is
    about sigma, so this shift stands in for the trace term.  Built once
    from the run's sources and traces, with what depends on them alone
    (h T^T f, K^-1 g, ||h^2 G g||); solve(q) takes new coefficients, and
    `factor` keeps the factor of A_c across them.  Each solve writes its
    cell states into a history of the last HISTORY solves, one (n^2,
    HISTORY * excitations) array, whose span gives the next PCG its
    projected start.
    """

    def __init__(self, grid: StaggeredGrid, sources, traces):
        ops = grid_operators(grid.n)
        h = grid.h
        self.grid = grid
        self.sources, self.traces = sources, traces
        # splu looked up at call time, so that a patch of optimizer.splu applies
        self.factor = _KeptFactor("state", lambda a: splu(a, **SPD_LU))
        self.start_residual = 0.0   # the last projected start's relative residual
        self._k = ConstantDiffusionSolver(grid.n, 1.0, 1.0)     # K^-1
        self._k_matrix = ops.five_point(1.0, grad=(1.0, 1.0))   # K
        self._edges = ops.trace.T @ np.ones(4 * grid.n)         # diag(T^T T)
        self._g = np.column_stack([s.values.ravel() for s in sources])
        self._trace_f = ops.trace.T @ (h * np.column_stack([t.values for t in traces]))
        self._k_g = self._k.solve(self._g)
        self._norm_grad_g = np.linalg.norm(h * h * (ops.grad @ self._g), axis=0)
        # the cell states of the last HISTORY solves
        self._history = np.empty((grid.n ** 2, HISTORY * len(sources)), order="F")
        self._stored = 0            # solves written to the history

    def assemble(self, q: CoefficientPair) -> None:
        self._sigma, self._mu = q.sigma.values, q.mu.values
        self._forward = diffusion_matrix(self._sigma, self._mu)

    def _shifted(self) -> sp.csc_matrix:
        """A_c of the assembled coefficients."""
        shift = self._edges.reshape(self._sigma.shape) / (2.0 * self.grid.h * self._sigma)
        return diffusion_matrix(self._sigma, self._mu + shift)

    def release(self) -> None:
        """Free the factor and the history; the solver is not used again."""
        self.factor.lu = self._history = None

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """S x, for x of shape (n^2,) or (n^2, k)."""
        h = self.grid.h
        a_k_a = self._forward @ self._k.solve(self._forward @ x)
        return h * h * a_k_a + h * (self._edges * x.T).T

    def _precondition(self, lu, r: np.ndarray) -> np.ndarray:
        return lu.solve(self._k_matrix @ lu.solve(r)) / self.grid.h ** 2

    def rhs(self) -> tuple[np.ndarray, np.ndarray]:
        """The cell right-hand side h^2 A K^-1 g + h T^T f of the assembled
        coefficients, and the norm of the full (u, p) one, h^2 (mu g + N f,
        G g), one column per excitation."""
        h = self.grid.h
        norm_full = np.hypot(
            np.linalg.norm(h * h * self._mu.reshape(-1, 1) * self._g + self._trace_f,
                           axis=0),
            self._norm_grad_g)
        return h * h * (self._forward @ self._k_g) + self._trace_f, norm_full

    def solve(self, q: CoefficientPair) -> tuple[list, float, int]:
        """The states of every excitation for q, their largest normal-equation
        residual, verified matrix-free against STATE_TOL, and the PCG
        iterations, the most over the excitations, summed over the loops of
        a refactor.  Sets start_residual: the projected start's relative
        residual, the most over the excitations, and 0 when no history
        exists yet."""
        self.assemble(q)
        grid = self.grid
        n, nf = grid.n, (grid.n - 1) * grid.n
        ops = grid_operators(n)
        rhs, norm_full = self.rhs()
        # PCG's residual is that of the full (u, p) normal equations, whose
        # p-rows the closed-form p satisfies: each column stops relative to
        # their right-hand side, as the matrix-free check does.
        norm_rhs = np.linalg.norm(rhs, axis=0)
        rtol = PCG_RTOL * np.divide(norm_full, norm_rhs, out=np.zeros_like(norm_rhs),
                                    where=norm_rhs > 0.0)

        k = rhs.shape[1]
        start, self.start_residual = None, 0.0
        if self._stored:
            start = _projected_start(
                self, self._history[:, :min(self._stored, HISTORY) * k], rhs)
            self.start_residual = float(np.max(
                np.linalg.norm(rhs - self @ start, axis=0)
                / np.where(norm_full > 0.0, norm_full, 1.0)))
        u, iterations = self.factor.solve(self, rhs, self._shifted, self._precondition,
                                          STATE_PCG_MAX, rtol, x0=start)
        slot = self._stored % HISTORY * k     # over the oldest solve's states
        self._history[:, slot:slot + k] = u
        self._stored += 1

        # p = S_f (G u) - G K^-1 (A u - g)
        sigma = self._sigma.ravel()
        means = np.concatenate([ops.ax @ sigma, ops.ay @ sigma])
        p = means[:, None] * (ops.grad @ u) \
            - ops.grad @ self._k.solve(self._forward @ u - self._g)
        states = [StatePair(ScalarField(grid, uc.reshape(n, n)),
                            FluxField(grid, pc[:nf].reshape(n - 1, n),
                                      pc[nf:].reshape(n, n - 1)))
                  for uc, pc in zip(u.T, p.T)]
        residual = max(state_normal_residual(q, v, g, f)
                       for v, g, f in zip(states, self.sources, self.traces))
        if not residual <= STATE_TOL:
            raise SubproblemFailure(
                f"state normal equations solved to {residual:.3e} > {STATE_TOL:.1e}",
                residual=residual)
        return states, residual, iterations


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


# ---------------------------------------------------------------------------
# Coefficient subproblem: projected Newton on a kept, shifted factor
# ---------------------------------------------------------------------------

def _sigma_problem(states, reg: RegConfig, n: int) -> tuple:
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
    return hess, 2.0 * (ops.ax.T @ st[:nf] + ops.ay.T @ st[nf:])


def _mu_problem(states, sources, reg: RegConfig, n: int) -> tuple:
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
    return hess, 2.0 * (scales * target.reshape(scales.shape)).sum(axis=0)


class _CoefficientSolver:
    """One coefficient's block on raveled (n*n,) cell arrays, one kept factor.

    With the states fixed the misfit is linear least squares in q, so the
    smooth part h^2 (||B q - t||^2 + alpha/2 (||G q||^2 + ||q||^2)) has the
    constant Hessian hess = 2 B^T B + alpha (G^T G + I) in the h^2-weighted
    cell product, and its gradient is hess @ q - shift, shift = 2 B^T t.
    B stacks diag(scale_e) P over the excitations e, with P a fixed map of
    the layer; _sigma_problem and _mu_problem fill (hess, shift) without
    forming it.  Built once per run from the coefficient's regularizer and
    box; solve takes each outer iteration's (hess, shift), and `factor`
    keeps the factor of the shifted Hessian across them.
    """

    def __init__(self, reg: RegConfig, n: int):
        self.reg = reg
        self.n = n
        self.h = 1.0 / n
        # looked up at call time, so that a patch of optimizer.factor_spd applies
        self.factor = _KeptFactor("coefficient", lambda a: factor_spd(a))

    def release(self) -> None:
        """Free the factor; the solver is not used again."""
        self.factor.lu = None

    def solve(self, hess: sp.csr_matrix, shift: np.ndarray, warm: ScalarField):
        """Projected Newton (Bertsekas 1982) on the block's box QP.

        On the box q >= q_lo >= 0 the L1 term is linear, so the block is
        min 1/2 q^T H q - (shift - beta)^T q over [q_lo, q_hi].  Each step
        takes Bertsekas' eps-active set, eps = min(ACTIVE_EPS (q_hi - q_lo),
        ||q - P(q - g/L)||) with L the Gershgorin bound of H: those cells
        move straight onto their bound.  The free block's Newton system is
        solved on H + rho I, rho = HESSIAN_SHIFT L (with alpha = 0, H is
        only semidefinite), by PCG with the kept factor, to the accuracy
        the stopping test needs; the other cells' couplings are dropped
        from the matrix.  An Armijo search on the projection arc accepts
        the step; if it finds none, the projected-gradient step 1/L is
        taken.  So every step lowers the subproblem value, from the
        clipped warm start.

        Returns (iterate, fixed-point residual, Newton steps, PCG
        iterations, converged); the residual h ||q - P(q - g/L)|| / (1 + h
        ||q||) is that of the projected-gradient map with step 1/L,
        converged once it is at most COEFF_TOL.
        """
        reg, h, n = self.reg, self.h, self.n
        lo, hi = reg.q_lo, reg.q_hi
        rows, diagonal = grid_operators(n).stencil_rows
        # (the floor only matters for H = 0: zero states and alpha = 0)
        bound = max(float(np.add.reduceat(np.abs(hess.data), hess.indptr[:-1]).max()),
                    1e-12)
        tau = 1.0 / bound
        data = hess.data.copy()
        data[diagonal] += HESSIAN_SHIFT * bound
        linear = reg.beta - shift

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
            # Inexact Newton: the free gradient a full step leaves is PCG's
            # residual, so a tenth of the tolerance's worth of it suffices.
            stop = 0.1 * COEFF_TOL * (1.0 + h * float(np.linalg.norm(q))) / (h * tau)
            norm_b = float(np.linalg.norm(b))
            if norm_b > stop:
                # H + rho I without the couplings to the held cells; H is
                # symmetric, so its CSR arrays read as CSC are the same matrix.
                masked = data * (keep[rows] * keep[hess.indices])
                masked[diagonal] = data[diagonal]
                matrix = with_pattern(sp.csc_matrix, masked, hess.indices, hess.indptr,
                                      hess.shape)
                x, iterations = self.factor.solve(
                    matrix, b[:, None], lambda: matrix,
                    lambda lu, r: keep[:, None] * lu.solve(r), COEFF_PCG_MAX,
                    stop / norm_b)
                d += x[:, 0]
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
                                 solvers: tuple) -> CoefficientUpdate:
    """Minimize the coefficient block, states fixed, on the run's (sigma, mu) solvers.

    sigma and mu decouple (sigma only enters the flux residual, mu only
    the divergence residual) and are solved independently; a mu the config
    knows keeps its warm-start value and reports a NaN residual.
    """
    if not states:
        raise ValueError("at least one state pair is required")
    sigma_solver, mu_solver = solvers
    factored_before = sum(s.factor.factorizations for s in solvers)

    sigma, fp_sigma, steps, pcg_iterations, converged = sigma_solver.solve(
        *_sigma_problem(states, sigma_solver.reg, sigma_solver.n), warm_start.sigma)
    mu, fp_mu = warm_start.mu, math.nan
    if cfg.known_mu is None:
        mu, fp_mu, more_steps, more_pcg, ok = mu_solver.solve(
            *_mu_problem(states, sources, mu_solver.reg, mu_solver.n), warm_start.mu)
        steps = max(steps, more_steps)
        pcg_iterations += more_pcg
        converged &= ok
    factored = sum(s.factor.factorizations for s in solvers) - factored_before
    return CoefficientUpdate(CoefficientPair(sigma, mu), fp_sigma, fp_mu,
                             steps, converged, pcg_iterations, factored)


# ---------------------------------------------------------------------------
# Outer alternation
# ---------------------------------------------------------------------------

def adi_reconstruct(measurements, initial_q: CoefficientPair,
                    cfg: AdiConfig) -> ReconstructionReport:
    """Run the two-block alternation from a feasible initial coefficient pair.

    The state starts from zero, so j_history[0] is the functional of the
    raw data against the initial coefficients.  Always runs cfg.max_outer
    alternations; a known mu replaces initial_q.mu.  Each coefficient keeps
    one factor of its shifted Hessian for the run; these factors, the state
    factor and the state history are freed when the run returns or raises.
    """
    measurements = check_measurements(measurements)
    grid = measurements[0].grid
    if cfg.known_mu is not None:
        initial_q = replace(initial_q, mu=ScalarField.constant(grid, cfg.known_mu))
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

    def residuals(vs, q):
        """r(v, q) of every excitation: the one evaluation of a half-step."""
        return [full_residuals(v, q, g, f) for v, g, f in zip(vs, sources, traces)]

    def decrement(new, old):
        """||r_new - r_old||^2 summed over the excitations."""
        return squared_norm([a - b for a, b in zip(new, old)])

    res = residuals(states, coeffs)
    record(j_history=eval_J(res, coeffs, cfg.reg_sigma, cfg.reg_mu))
    solver = _StateSolver(grid, sources, traces)
    coeff_solvers = (_CoefficientSolver(cfg.reg_sigma, grid.n),
                     _CoefficientSolver(cfg.reg_mu, grid.n))
    try:
        for k in range(cfg.max_outer):
            # -- state half-step ---------------------------------------------
            # r is affine in v for fixed q, so r(v+, q) - r(v, q) is the
            # step's L_q (v+ - v) and C (u+ - u).
            factored_before = solver.factor.factorizations
            states, residual, pcg_iterations = solver.solve(coeffs)
            factored = solver.factor.factorizations - factored_before
            new_res = residuals(states, coeffs)
            record(state_residuals=residual,
                   state_factorizations=factored,
                   state_pcg_iterations=pcg_iterations,
                   state_start_residuals=solver.start_residual,
                   state_lu_fill=solver.factor.fill if factored else 0,
                   state_decrement_terms=decrement(new_res, res),
                   j_after_state=eval_J(new_res, coeffs, cfg.reg_sigma, cfg.reg_mu))
            res = new_res

            # -- coefficient half-step ---------------------------------------
            # r is affine in q for fixed v, so r(v, q+) - r(v, q) is the
            # step's Phi_u (q+ - q).
            update = solve_coefficient_subproblem(states, sources, cfg, coeffs,
                                                  coeff_solvers)
            new_coeffs = update.coefficients
            new_res = residuals(states, new_coeffs)
            grad_sigma, grad_mu = misfit_gradients(states, new_res)
            record(coeff_residual_sigma=update.fp_residual_sigma,
                   coeff_residual_mu=update.fp_residual_mu,
                   coeff_inner_iterations=update.inner_iterations,
                   coeff_factorizations=update.factorizations,
                   coeff_pcg_iterations=update.pcg_iterations,
                   coeff_decrement_terms=decrement(new_res, res),
                   bregman_values=bregman_distance(coeffs.sigma, new_coeffs.sigma,
                                                   -1.0 * grad_sigma, cfg.reg_sigma)
                   + bregman_distance(coeffs.mu, new_coeffs.mu,
                                      -1.0 * grad_mu, cfg.reg_mu),
                   j_history=eval_J(new_res, new_coeffs, cfg.reg_sigma, cfg.reg_mu))
            coeffs, res = new_coeffs, new_res
            logger.debug("outer %d: J %.9e, state residual %.2e, PCG %d, "
                         "start residual %.2e, factored %s, LU fill %d, "
                         "coefficient Newton steps %d, "
                         "coefficient PCG %d, coefficient factors %d, "
                         "decrements %.3e (state) %.3e (coefficient), E %.3e",
                         k + 1, series["j_history"][-1], residual, pcg_iterations,
                         solver.start_residual, factored == 1, solver.factor.fill,
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
        for block in (solver, *coeff_solvers):
            block.release()

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
