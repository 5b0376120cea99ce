"""Alternating minimization of the total least-squares functional.

adi_reconstruct runs a fixed number of outer iterations (max_outer),
each solving two convex subproblems:

  * state block: a linear-quadratic problem in (u, p) per excitation,
    solved through its normal equations.  The normal matrix M^T W M has
    a fixed sparsity pattern, built once per run from the grid's
    operator layer (operators.grid_operators); each outer iteration only
    refills its values from the current coefficients, with no
    sparse-sparse product and M never formed.  Being symmetric positive
    definite (M has full column rank), it is factorized pivot-free under
    a symmetric minimum-degree ordering (operators.SPD_LU), on a copy
    without the entries that cancel exactly, in the first outer
    iteration only.  Later iterations keep that factor and solve by
    conjugate gradients on the new matrix, preconditioned by the factor
    (the coefficients move little between iterations).  The excitations'
    right-hand sides are the columns of one array in one CG loop: each
    iteration makes one multi-column solve on the factor, and converged
    columns drop out.  Each column starts from the Galerkin projection
    onto the span of the last HISTORY half-steps' states, pooled over
    the excitations (Fischer 1998).  When CG overruns STATE_PCG_MAX
    iterations, the old factor is freed and the current matrix factored
    in its place; one factor is alive at a time.  A direct solve, on the
    first factor or right after a refactor, is one multi-column solve.
    One half-step serves solve_state_subproblem and
    adi_reconstruct alike: the residual is recomputed through the
    matrix-free normal operator from the model module, keeping the two
    routes independent, and a zero pivot or a residual above STATE_TOL
    raises SubproblemFailure.

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
"medrec" logger summarizes every outer iteration.  Every term of that certificate (J, the decrements, the
misfit gradients and the Bregman distances) is evaluated matrix-free,
independently of the assembled coefficient block.
"""

import logging
import math
from dataclasses import dataclass

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
from .operators import SPD_LU, factor_spd, grid_operators, with_pattern
from .regularization import RegConfig, box_feasible, bregman_distance, prox_l1_box

STATE_TOL = 1e-8             # verified state normal-equation residual
# PCG on a kept state factor stops four digits inside STATE_TOL.  The
# state norm weights u and p alike by h^2, so the assembled relative
# residual PCG measures equals the matrix-free one that judges the solve,
# up to rounding.
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


@dataclass
class ReconstructionReport:
    """Iterates and per-iteration diagnostics of one reconstruction."""

    states: list
    coefficients: CoefficientPair
    j_history: np.ndarray
    j_after_state: np.ndarray
    stop_reason: str
    state_residuals: np.ndarray
    coeff_residual_sigma: np.ndarray
    coeff_residual_mu: np.ndarray
    bregman_values: np.ndarray
    state_decrement_terms: np.ndarray
    coeff_decrement_terms: np.ndarray
    coeff_inner_iterations: np.ndarray   # projected-Newton steps, most over
                                         # sigma and mu
    state_factorizations: np.ndarray     # 1 where the state half-step factored
    state_pcg_iterations: np.ndarray     # iterations of the shared PCG loop,
                                         # most over excitations; 0 on a
                                         # fresh factor
    state_start_residuals: np.ndarray    # relative residual of PCG's projected
                                         # start, most over excitations; 0
                                         # where the half-step factored
    state_lu_fill: np.ndarray            # entries SuperLU stores for L and U
                                         # of the factor the half-step took;
                                         # 0 where it took none
    coeff_factorizations: np.ndarray     # coefficient factors the half-step took
    coeff_pcg_iterations: np.ndarray     # PCG iterations, summed over sigma and mu

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


# ---------------------------------------------------------------------------
# State subproblem: assembled sparse normal equations, one kept factor
# ---------------------------------------------------------------------------

def pack_state(v: StatePair) -> np.ndarray:
    return np.concatenate([v.u.values.ravel(), v.p.x_values.ravel(),
                           v.p.y_values.ravel()])


def unpack_state(x: np.ndarray, grid: StaggeredGrid) -> StatePair:
    n = grid.n
    u, px, py = np.split(x, [n * n, (2 * n - 1) * n])
    return StatePair(ScalarField(grid, u.reshape(n, n)),
                     FluxField(grid, px.reshape(n - 1, n), py.reshape(n, n - 1)))


class _NormalPattern:
    """The fixed pattern of the state block's normal matrix M^T W M on grid n.

    With the unknowns (u, px, py), M = [[D_mu, Gx^T, Gy^T], [-Sx Gx, I, 0],
    [-Sy Gy, 0, I], [T, 0, 0]] and W = h^2 on its first three block rows
    and h on the trace rows, the blocks of M^T W M are

      (u, u)   Gx^T h^2 Sx^2 Gx + Gy^T h^2 Sy^2 Gy + h^2 D_mu^2 + h T^T T,
      (u, px)  h^2 (D_mu Gx^T - Gx^T Sx): -h (mu_a - sx_f) at the cell a
               below face f, h (mu_b - sx_f) at the cell b above it,
      (px, px) h^2 (Gx Gx^T + I), (px, py) h^2 Gx Gy^T, and their
               y-counterparts.

    Only the first two change with the coefficients.  The pattern is
    built once: every stored entry is tagged with its slot in the value
    vector [(u, u) data, (u, px) couplings, (u, py) couplings, the few
    distinct (p, p) values], so fill() is one gather.
    """

    def __init__(self, n: int):
        ops = grid_operators(n)
        h = ops.h
        nf = (n - 1) * n
        self.n, self.h = n, h
        self._boundary = h * (ops.trace.T @ np.ones(4 * n))     # h diag(T^T T)
        _, five_indices, five_indptr = ops.stencil
        eye_f = sp.identity(nf, format="csr")
        const = [(h * h * (ops.gx @ ops.gx.T + eye_f)).tocsr(),
                 (h * h * (ops.gx @ ops.gy.T)).tocsr(),
                 (h * h * (ops.gy @ ops.gy.T + eye_f)).tocsr()]
        # The (p, p) blocks hold a handful of distinct values: keep those.
        self._const, slots = np.unique(np.concatenate([c.data for c in const]),
                                       return_inverse=True)
        sizes = [five_indices.size, 2 * nf, 2 * nf]
        starts = np.cumsum([0] + sizes, dtype=np.int32)
        tags = [start + np.arange(size, dtype=np.int32)
                for start, size in zip(starts, sizes)]
        tags += np.split(starts[-1] + slots.astype(np.int32),
                         np.cumsum([c.nnz for c in const[:2]]))

        cells = np.arange(n * n, dtype=np.int32).reshape(n, n)
        faces = np.tile(np.arange(nf, dtype=np.int32), 2)
        uu = sp.csc_matrix((tags[0], five_indices, five_indptr), shape=(n * n, n * n))
        ux = sp.csc_matrix((tags[1], (np.concatenate(
            [cells[:-1, :].ravel(), cells[1:, :].ravel()]), faces)), shape=(n * n, nf))
        uy = sp.csc_matrix((tags[2], (np.concatenate(
            [cells[:, :-1].ravel(), cells[:, 1:].ravel()]), faces)), shape=(n * n, nf))
        xx, xy, yy = (sp.csr_matrix((t, c.indices, c.indptr), shape=c.shape).tocsc()
                      for t, c in zip(tags[3:], const))
        del tags, slots, const
        self._take, self._indices, self._indptr = _stack_csc(
            [[uu, ux.T.tocsc(), uy.T.tocsc()], [ux, xx, xy.T.tocsc()], [uy, xy, yy]])
        self.shape = (n * n + 2 * nf,) * 2
        for a in (self._take, self._const, self._indices, self._indptr):
            a.flags.writeable = False

    def fill(self, sigma: np.ndarray, mu: np.ndarray) -> sp.csc_matrix:
        """M^T W M of raveled cell arrays sigma and mu, explicit zeros kept.

        A coupling h (mu_a - sx_f) is an exact zero wherever the face mean
        of sigma equals mu on the cell; such entries stay stored.
        """
        n, h = self.n, self.h
        ops = grid_operators(n)
        sx, sy = ops.ax @ sigma, ops.ay @ sigma
        uu = ops.five_point(h * h * mu * mu + self._boundary,
                            grad=(h * h * sx * sx, h * h * sy * sy)).data
        m = mu.reshape(n, n)
        values = np.concatenate([
            uu, -h * (m[:-1, :].ravel() - sx), h * (m[1:, :].ravel() - sx),
            -h * (m[:, :-1].ravel() - sy), h * (m[:, 1:].ravel() - sy),
            self._const])
        return with_pattern(sp.csc_matrix, values[self._take], self._indices,
                            self._indptr, self.shape)


def _stack_csc(columns: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(data, indices, indptr) of a block matrix as int32 CSC arrays.

    columns lists the block columns, each its CSC blocks from top to
    bottom, every block of a column as wide as the others.  The arrays
    are allocated once and written one block column at a time, so the
    transient memory stays that of one block: the result equals
    sp.bmat(..., format="csc") of the same blocks, without its copies.
    """
    counts = [sum(np.diff(block.indptr) for block in column) for column in columns]
    indptr = np.zeros(sum(c.size for c in counts) + 1, dtype=np.int32)
    np.cumsum(np.concatenate(counts), out=indptr[1:])
    data = np.empty(indptr[-1], dtype=np.int32)
    indices = np.empty(indptr[-1], dtype=np.int32)
    first = 0
    for column, count in zip(columns, counts):
        start = indptr[first:first + count.size].copy()     # next free slot per column
        row = 0
        for block in column:
            per_column = np.diff(block.indptr).astype(np.int32)
            slots = np.repeat(start - block.indptr[:-1], per_column) \
                + np.arange(block.nnz, dtype=np.int32)
            indices[slots] = block.indices + row
            data[slots] = block.data
            start += per_column
            row += block.shape[0]
        first += count.size
    return data, indices, indptr


def _without_zeros(m: sp.csc_matrix) -> sp.csc_matrix:
    """m without its explicit zeros (m itself when it stores none)."""
    keep = m.data != 0.0
    if keep.all():
        return m
    stored = np.concatenate([[0], np.cumsum(keep, dtype=np.int32)])
    return sp.csc_matrix((m.data[keep], m.indices[keep], stored[m.indptr]),
                         shape=m.shape)


class _StateSolver:
    """Normal equations L_q^T W L_q + C^T W C of the state block, one kept factor.

    The constructor builds the normal matrix's fixed pattern, fills it for
    q and factors it.  assemble() refills the matrix for new coefficients
    and keeps the factor, which from then on preconditions conjugate
    gradients on the new matrix, all right-hand sides in one loop.  Each
    solve writes its solutions into a history of the last HISTORY
    solves, one preallocated (N, HISTORY * excitations) array; the next
    CG starts from the Galerkin projection onto its span.  When CG
    overruns STATE_PCG_MAX iterations or loses positive curvature, the
    old factor is freed, the current matrix is factored and every
    right-hand side is solved on it directly.  The factor is taken on a
    zero-pruned copy, so exact cancellations add no fill.
    """

    def __init__(self, q: CoefficientPair):
        self.factorizations = 0
        self.lu_fill = 0            # entries stored for L and U of the factor
        self.start_residual = 0.0   # the last projected start's relative residual
        self.grid = q.sigma.grid
        self._pattern = _NormalPattern(self.grid.n)
        self._history = None        # (N, HISTORY * excitations) recent states
        self._stored = 0            # half-steps written to the history
        self.assemble(q)
        self._factor()

    def assemble(self, q: CoefficientPair) -> None:
        self._mu = q.mu.values.ravel()
        self._normal = self._pattern.fill(q.sigma.values.ravel(), self._mu)
        self._exact = False         # the factor, if any, is of an earlier q

    def _factor(self) -> None:
        self._lu = None             # free the old factor: never two alive at once
        # Only the pruned copy is kept while SuperLU works.
        pruned, self._normal = _without_zeros(self._normal), None
        try:
            self._lu = splu(pruned, **SPD_LU)
        except RuntimeError as exc:     # a zero pivot: "Factor is exactly singular"
            raise SubproblemFailure(f"state factorization failed: {exc}") from exc
        self._exact = True
        self.factorizations += 1
        self.lu_fill = int(self._lu.nnz)

    def rhs(self, g: ScalarField, f) -> np.ndarray:
        """M^T W (g, 0, 0, f) = h^2 (mu g + N f, Gx g, Gy g)."""
        ops = grid_operators(self.grid.n)
        h = self.grid.h
        hg = h * h * g.values.ravel()
        return np.concatenate([self._mu * hg + ops.trace.T @ (h * f.values),
                               ops.grad @ hg])

    def solve(self, rhs: np.ndarray) -> tuple[np.ndarray, int]:
        """X with M^T W M X = B, one column of B = rhs per excitation, and
        the PCG iterations, the most over the columns (0 when solved
        directly).  Sets start_residual: the projected start's relative
        residual, the most over the columns, and 0 when solved directly."""
        k = rhs.shape[1]
        if self._history is None:
            self._history = np.empty((rhs.shape[0], HISTORY * k), order="F")
        self.start_residual = 0.0
        iterations = 0
        if self._exact:
            x = self._lu.solve(rhs)
        else:
            start = _projected_start(
                self._normal, self._history[:, :min(self._stored, HISTORY) * k], rhs)
            norm_b = np.linalg.norm(rhs, axis=0)
            self.start_residual = float(np.max(
                np.linalg.norm(rhs - self._normal @ start, axis=0)
                / np.where(norm_b > 0.0, norm_b, 1.0)))
            x, iterations = _pcg(self._normal, rhs, self._lu.solve, STATE_PCG_MAX,
                                 x0=start)
            if x is None:
                self._factor()
                self.start_residual = 0.0
                x = self._lu.solve(rhs)
        slot = self._stored % HISTORY * k     # over the oldest half-step's states
        self._history[:, slot:slot + k] = x
        self._stored += 1
        return x, iterations


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


def _pcg(a, b: np.ndarray, precondition, cap: int, rtol: float = PCG_RTOL,
         x0: np.ndarray | None = None) -> tuple:
    """Conjugate gradients on a x = b, preconditioned by an approximate
    inverse; a is any operator with a @ x.

    b is (N, k): each column runs its own recurrence, and the columns
    still running share one precondition call per iteration on an (N, m)
    array.  A column starts from its column of x0 (zero without one)
    plus the preconditioned residual there, and stops once its residual
    is at most rtol times its norm of b; a zero column stops at the start.

    Returns (x, iterations), the iterations the most over the columns, with
    x None when cap iterations do not reach rtol or a direction has
    p^T a p <= 0.
    """
    x = precondition(b if x0 is None else b - a @ x0)
    if x0 is not None:
        x = x + x0
    r = b - a @ x
    stop = rtol * np.linalg.norm(b, axis=0)
    cols = np.flatnonzero(np.linalg.norm(r, axis=0) > stop)
    if not cols.size:
        return x, 0
    r = r[:, cols]
    z = precondition(r)
    p = z
    rz = np.einsum("ij,ij->j", r, z)
    for k in range(1, cap + 1):
        ap = a @ p
        curvature = np.einsum("ij,ij->j", p, ap)
        if not (curvature > 0.0).all():
            return None, k
        step = rz / curvature
        x[:, cols] += step * p
        r = r - step * ap
        going = np.linalg.norm(r, axis=0) > stop[cols]
        if not going.any():
            return x, k
        if not going.all():
            cols, r, p, rz = cols[going], r[:, going], p[:, going], rz[going]
        z = precondition(r)
        rz, rz_old = np.einsum("ij,ij->j", r, z), rz
        p = z + (rz / rz_old) * p
    return None, cap


def _state_half_step(q: CoefficientPair, sources, traces,
                     solver: _StateSolver) -> tuple[list, float, int]:
    """Solve the state block of every excitation on the solver's matrix of q.

    Returns the states, their largest verified normal-equation residual
    and the most PCG iterations an excitation took (0 on a factor of q's
    own matrix).  Raises SubproblemFailure when a factorization hits a
    zero pivot or that residual misses STATE_TOL.
    """
    solutions, pcg_iterations = solver.solve(
        np.column_stack([solver.rhs(g, f) for g, f in zip(sources, traces)]))
    states = [unpack_state(x, solver.grid) for x in solutions.T]
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
    states, _, _ = _state_half_step(q, [g], [f], _StateSolver(q))
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


def _fixed_point_residual(step: np.ndarray, q: np.ndarray, h: float) -> float:
    """h ||q - P(q - tau g)|| / (1 + h ||q||), from the projected-gradient step."""
    return h * float(np.linalg.norm(step)) / (1.0 + h * float(np.linalg.norm(q)))


def _solve_one_coefficient(problem: _CoefficientProblem, warm: ScalarField,
                           factor: _CoefficientFactor, tol: float):
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
    converged); the residual is that of the projected-gradient map with
    step 1/L.
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
        residual = _fixed_point_residual(step, q, h)
        if residual <= tol or steps == NEWTON_MAX:
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
        stop = 0.1 * tol * (1.0 + h * float(np.linalg.norm(q))) / (h * tau)
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
            residual <= tol)


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
        prob, warm_start.sigma, factors["sigma"], COEFF_TOL)
    mu, fp_mu = warm_start.mu, math.nan
    if cfg.update_mu:
        prob = _mu_problem(states, sources, cfg.reg_mu, n)
        mu, fp_mu, more_steps, more_pcg, ok = _solve_one_coefficient(
            prob, warm_start.mu, factors["mu"], COEFF_TOL)
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
    Hessian for the run; the factors are freed when the run returns or
    raises.
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

    j_history = [eval_J(states, coeffs, sources, measurements,
                        cfg.reg_sigma, cfg.reg_mu)]
    j_after_state = []
    state_residuals = []
    coeff_res_sigma = []
    coeff_res_mu = []
    bregman_values = []
    du_terms = []
    dq_terms = []
    inner_counts = []
    factorizations = []
    pcg_counts = []
    start_residuals = []
    lu_fills = []
    coeff_factorizations = []
    coeff_pcg_counts = []
    solver = None
    coeff_factors = {"sigma": _CoefficientFactor(), "mu": _CoefficientFactor()}

    def _partial_report(reason):
        return ReconstructionReport(
            states=states, coefficients=coeffs,
            j_history=np.asarray(j_history), j_after_state=np.asarray(j_after_state),
            stop_reason=reason,
            state_residuals=np.asarray(state_residuals),
            coeff_residual_sigma=np.asarray(coeff_res_sigma),
            coeff_residual_mu=np.asarray(coeff_res_mu),
            bregman_values=np.asarray(bregman_values),
            state_decrement_terms=np.asarray(du_terms),
            coeff_decrement_terms=np.asarray(dq_terms),
            coeff_inner_iterations=np.asarray(inner_counts, dtype=int),
            state_factorizations=np.asarray(factorizations, dtype=int),
            state_pcg_iterations=np.asarray(pcg_counts, dtype=int),
            state_start_residuals=np.asarray(start_residuals),
            state_lu_fill=np.asarray(lu_fills, dtype=int),
            coeff_factorizations=np.asarray(coeff_factorizations, dtype=int),
            coeff_pcg_iterations=np.asarray(coeff_pcg_counts, dtype=int))

    try:
        for k in range(cfg.max_outer):
            # -- state half-step ---------------------------------------------
            factored_before = 0 if solver is None else solver.factorizations
            if solver is None:
                solver = _StateSolver(coeffs)
            else:
                solver.assemble(coeffs)
            new_states, residual, pcg_iterations = _state_half_step(
                coeffs, sources, traces, solver)
            state_residuals.append(residual)
            factorizations.append(solver.factorizations - factored_before)
            pcg_counts.append(pcg_iterations)
            start_residuals.append(solver.start_residual)
            lu_fills.append(solver.lu_fill if factorizations[-1] else 0)
            du_terms.append(_state_decrement(new_states, states, coeffs, grid))
            states = new_states
            j_after_state.append(eval_J(states, coeffs, sources, measurements,
                                        cfg.reg_sigma, cfg.reg_mu))

            # -- coefficient half-step ---------------------------------------
            update = solve_coefficient_subproblem(states, sources, cfg, coeffs,
                                                  factors=coeff_factors)
            new_coeffs = update.coefficients
            coeff_res_sigma.append(update.fp_residual_sigma)
            coeff_res_mu.append(update.fp_residual_mu)
            inner_counts.append(update.inner_iterations)
            coeff_factorizations.append(update.factorizations)
            coeff_pcg_counts.append(update.pcg_iterations)
            dq_terms.append(_coeff_decrement(states, new_coeffs, coeffs, grid))

            grad_sigma, grad_mu = _summed_misfit_gradients(states, new_coeffs, sources)
            e_val = bregman_distance(coeffs.sigma, new_coeffs.sigma,
                                     -1.0 * grad_sigma, cfg.reg_sigma) \
                + bregman_distance(coeffs.mu, new_coeffs.mu,
                                   -1.0 * grad_mu, cfg.reg_mu)
            bregman_values.append(e_val)

            coeffs = new_coeffs
            j_history.append(eval_J(states, coeffs, sources, measurements,
                                    cfg.reg_sigma, cfg.reg_mu))
            logger.debug("outer %d: J %.9e, state residual %.2e, PCG %d, "
                         "start residual %.2e, factored %s, LU fill %d, "
                         "coefficient Newton steps %d, "
                         "coefficient PCG %d, coefficient factors %d, "
                         "decrements %.3e (state) %.3e (coefficient), E %.3e",
                         k + 1, j_history[-1], residual, pcg_iterations,
                         start_residuals[-1], factorizations[-1] == 1, solver.lu_fill,
                         update.inner_iterations, update.pcg_iterations,
                         update.factorizations, du_terms[-1], dq_terms[-1], e_val)
    except SubproblemFailure as failure:
        failure.report = _partial_report(STOP_SUBPROBLEM_FAILURE)
        raise
    finally:
        # The traceback of a failure keeps this frame alive; the factors go now.
        for factor in coeff_factors.values():
            factor.lu = None

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
