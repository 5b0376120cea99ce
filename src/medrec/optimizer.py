"""Alternating minimization of the total least-squares functional.

adi_reconstruct runs a fixed number of outer iterations (max_outer),
each solving two convex subproblems:

  * state block: a linear-quadratic problem in (u, p) per excitation,
    solved through its normal equations.  The normal matrix M^T W M is
    assembled sparse once per outer iteration (it depends only on the
    current coefficients) and, being symmetric positive definite (M has
    full column rank), factorized pivot-free under a symmetric
    minimum-degree ordering (operators.SPD_LU), so every excitation
    reuses the factor.  One half-step serves solve_state_subproblem and
    adi_reconstruct alike: the residual is recomputed through the
    matrix-free normal operator from the model module, keeping the two
    routes independent, and a zero pivot or a residual above STATE_TOL
    raises SubproblemFailure.

  * coefficient block: sigma and mu decouple and each is a linear
    least-squares problem plus the L1/H1/box penalty.  Its misfit matrix
    and Hessian are assembled sparse once per outer iteration, and the
    minimization runs on raw cell arrays: a proximal-gradient iteration
    (step 1/L with L from power iteration plus a 5% safety margin),
    accelerated with strong-convexity momentum and a monotone
    best-iterate safeguard so the functional can only descend.  The
    closed-form prox handles the L1 term and the box.  Each solve stops
    at the fixed-point tolerance COEFF_TOL or after COEFF_INNER_MAX
    iterations (FINAL_INNER_CAP in the last outer iteration).

The report carries enough per-iteration bookkeeping (Bregman distances,
half-step decrement norms) to check the telescoped descent certificate
after the fact.  Every term of that certificate (J, the decrements, the
misfit gradients and the Bregman distances) is evaluated matrix-free,
independently of the assembled coefficient block.
"""

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
from .operators import SPD_LU, face_average, face_gradient, trace
from .regularization import (RegConfig, box_feasible, bregman_distance,
                             prox_l1_box, prox_l1_box_array)

STATE_TOL = 1e-8             # verified state normal-equation residual
POWER_ITERATIONS = 20
POWER_SAFETY_MARGIN = 0.05
_POWER_SEED = 1234
COEFF_TOL = 1e-8             # coefficient fixed-point residual
COEFF_INNER_MAX = 200        # inner iterations of a coefficient solve
FINAL_INNER_CAP = 10000      # inner iterations of the last coefficient solve

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
    coeff_inner_iterations: np.ndarray

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
# State subproblem: assembled sparse normal equations, one factor per q
# ---------------------------------------------------------------------------

def pack_state(v: StatePair) -> np.ndarray:
    return np.concatenate([v.u.values.ravel(), v.p.x_values.ravel(),
                           v.p.y_values.ravel()])


def unpack_state(x: np.ndarray, grid: StaggeredGrid) -> StatePair:
    n = grid.n
    u, px, py = np.split(x, [n * n, (2 * n - 1) * n])
    return StatePair(ScalarField(grid, u.reshape(n, n)),
                     FluxField(grid, px.reshape(n - 1, n), py.reshape(n, n - 1)))


class _StateSolver:
    """Factorized normal equations L_q^T W L_q + C^T W C for fixed q."""

    def __init__(self, q: CoefficientPair):
        grid = q.sigma.grid
        n, h = grid.n, grid.h
        self.grid = grid
        gx, gy = face_gradient(n)
        ax, ay = face_average(n)
        sx = ax @ q.sigma.values.ravel()
        sy = ay @ q.sigma.values.ravel()
        nf = (n - 1) * n
        eye_f = sp.identity(nf, format="csr")
        m_mat = sp.bmat([[sp.diags(q.mu.values.ravel()), gx.T, gy.T],
                         [-sp.diags(sx) @ gx, eye_f, None],
                         [-sp.diags(sy) @ gy, None, eye_f],
                         [trace(n), None, None]], format="csr")

        w = np.concatenate([np.full(n * n, h * h), np.full(2 * nf, h * h),
                            np.full(4 * n, h)])
        self._m = m_mat
        self._w = w
        try:
            self._lu = splu(self.normal_matrix(), **SPD_LU)
        except RuntimeError as exc:     # a zero pivot: "Factor is exactly singular"
            raise SubproblemFailure(f"state factorization failed: {exc}") from exc

    def normal_matrix(self) -> sp.csc_matrix:
        """M^T W M, symmetric positive definite."""
        return (self._m.T @ sp.diags(self._w) @ self._m).tocsc()

    def rhs(self, g: ScalarField, f) -> np.ndarray:
        n = self.grid.n
        nf = (n - 1) * n
        d = np.concatenate([g.values.ravel(), np.zeros(2 * nf), f.values])
        return self._m.T @ (self._w * d)

    def solve(self, g: ScalarField, f) -> StatePair:
        x = self._lu.solve(self.rhs(g, f))
        return unpack_state(x, self.grid)


def _state_half_step(q: CoefficientPair, sources, traces) -> tuple[list, float]:
    """Solve the state block of every excitation on one factor of q.

    Returns the states and their largest verified normal-equation
    residual.  Raises SubproblemFailure when the factorization hits a
    zero pivot or that residual misses STATE_TOL.  The factor is freed
    on return, before the caller's next factorization.
    """
    solver = _StateSolver(q)
    states = [solver.solve(g, f) for g, f in zip(sources, traces)]
    residual = max(state_normal_residual(q, v, g, f)
                   for v, g, f in zip(states, sources, traces))
    if not residual <= STATE_TOL:
        raise SubproblemFailure(
            f"state normal equations solved to {residual:.3e} > {STATE_TOL:.1e}",
            residual=residual)
    return states, residual


def solve_state_subproblem(q: CoefficientPair, g: ScalarField, f,
                           cfg: AdiConfig) -> StatePair:
    """Minimize the state block for fixed coefficients, one excitation."""
    if not (box_feasible(q.sigma, cfg.reg_sigma) and box_feasible(q.mu, cfg.reg_mu)):
        raise ValueError("coefficients must be box-feasible")
    states, _ = _state_half_step(q, [g], [f])
    return states[0]


# ---------------------------------------------------------------------------
# Coefficient subproblem: accelerated monotone proximal gradient
# ---------------------------------------------------------------------------

class _CoefficientProblem:
    """One coefficient's subproblem on raveled (n*n,) cell arrays.

    With the states fixed the misfit is linear least squares in q, so the
    smooth part h^2 (||B q - t||^2 + alpha/2 (||G q||^2 + ||q||^2)) has the
    constant Hessian 2 B^T B + alpha (G^T G + I) in the h^2-weighted cell
    product; it is assembled once.  The L1 term and the box go to the prox.
    """

    def __init__(self, b_mat: sp.csr_matrix, target: np.ndarray,
                 reg: RegConfig, n: int):
        gx, gy = face_gradient(n)
        self.reg = reg
        self.n = n
        self.h = 1.0 / n
        self._b = b_mat
        self._t = target
        self._g = sp.vstack([gx, gy], format="csr")
        self.hess = (2.0 * (b_mat.T @ b_mat) + reg.alpha * (
            self._g.T @ self._g + sp.identity(n * n))).tocsr()
        self._shift = 2.0 * (b_mat.T @ target)

    def smooth_grad(self, q: np.ndarray) -> np.ndarray:
        return self.hess @ q - self._shift

    def total_value(self, q: np.ndarray) -> float:
        # Residual form: expanding the quadratic would cancel digits.
        r = self._b @ q - self._t
        gq = self._g @ q
        return float(self.h ** 2 * (r @ r + 0.5 * self.reg.alpha * (gq @ gq + q @ q)
                                    + self.reg.beta * np.abs(q).sum()))


def _sigma_problem(states, reg: RegConfig, n: int) -> _CoefficientProblem:
    """Flux residual p - sigma_face grad u = t - B sigma on interior faces."""
    gx, gy = face_gradient(n)
    ax, ay = face_average(n)
    blocks, targets = [], []
    for v in states:
        u = v.u.values.ravel()
        blocks += [sp.diags(gx @ u) @ ax, sp.diags(gy @ u) @ ay]
        targets += [v.p.x_values.ravel(), v.p.y_values.ravel()]
    return _CoefficientProblem(sp.vstack(blocks, format="csr"),
                               np.concatenate(targets), reg, n)


def _mu_problem(states, sources, reg: RegConfig, n: int) -> _CoefficientProblem:
    """Divergence residual -div p + mu u - g = B mu - t, div p = -G^T p."""
    gx, gy = face_gradient(n)
    b_mat = sp.vstack([sp.diags(v.u.values.ravel()) for v in states], format="csr")
    target = np.concatenate([
        g.values.ravel() - gx.T @ v.p.x_values.ravel() - gy.T @ v.p.y_values.ravel()
        for v, g in zip(states, sources)])
    return _CoefficientProblem(b_mat, target, reg, n)


def _power_iteration(hess: sp.csr_matrix) -> float:
    x = np.random.default_rng(_POWER_SEED).standard_normal(hess.shape[0])
    lam = 0.0
    for _ in range(POWER_ITERATIONS):
        y = hess @ x
        lam = (y @ x) / (x @ x)
        y_norm = np.linalg.norm(y)
        if y_norm == 0.0:
            return 0.0
        x = y / y_norm
    return float(lam)


def _fixed_point_residual(problem: _CoefficientProblem, q: np.ndarray,
                          tau: float) -> float:
    reg = problem.reg
    z = prox_l1_box_array(q - tau * problem.smooth_grad(q),
                          tau * reg.beta, reg.q_lo, reg.q_hi)
    h = problem.h
    return h * float(np.linalg.norm(q - z)) / (1.0 + h * float(np.linalg.norm(q)))


def _solve_one_coefficient(problem: _CoefficientProblem, warm: ScalarField,
                           inner_max: int, tol: float):
    """Monotone accelerated proximal gradient for one coefficient.

    Returns (best iterate, fixed-point residual, iterations, converged).
    The best iterate never has a larger subproblem value than the
    (clipped) warm start, which is what the outer descent relies on.
    """
    reg = problem.reg
    lam = _power_iteration(problem.hess)
    lam = max(lam, 1e-12)
    l_eff = (1.0 + POWER_SAFETY_MARGIN) * lam
    tau = 1.0 / l_eff

    x = prox_l1_box(warm, 0.0, reg.q_lo, reg.q_hi).values.ravel()  # clip into the box
    fx = problem.total_value(x)
    best, f_best = x, fx
    y = x
    z_prev, fz_prev = x, fx
    t = 1.0
    if reg.alpha > 0 and reg.alpha < l_eff:
        ratio = math.sqrt(reg.alpha / l_eff)
        beta_mom = (1.0 - ratio) / (1.0 + ratio)
    else:
        beta_mom = None

    iterations = 0
    converged = False
    for j in range(inner_max):
        iterations += 1
        z = prox_l1_box_array(y - tau * problem.smooth_grad(y),
                              tau * reg.beta, reg.q_lo, reg.q_hi)
        fz = problem.total_value(z)
        if fz <= f_best:
            best, f_best = z, fz
        if beta_mom is not None:
            if fz > fz_prev:       # function-value restart
                y = z
            else:
                y = z + beta_mom * (z - z_prev)
        else:
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            y = z + ((t - 1.0) / t_next) * (z - z_prev)
            t = t_next
        z_prev, fz_prev = z, fz
        if (j + 1) % 10 == 0:
            if _fixed_point_residual(problem, best, tau) <= tol:
                converged = True
                break

    residual = _fixed_point_residual(problem, best, tau)
    n = problem.n
    return (ScalarField(warm.grid, best.reshape(n, n)), residual, iterations,
            converged or residual <= tol)


@dataclass
class CoefficientUpdate:
    coefficients: CoefficientPair
    fp_residual_sigma: float
    fp_residual_mu: float
    inner_iterations: int
    converged: bool


def solve_coefficient_subproblem(states, sources, cfg: AdiConfig,
                                 warm_start: CoefficientPair,
                                 inner_max: int | None = None) -> CoefficientUpdate:
    """Minimize the coefficient block for fixed states.

    sigma and mu decouple (sigma only enters the flux residual, mu only
    the divergence residual) and are solved independently; mu frozen by
    the config keeps its warm-start value and reports a NaN residual.
    """
    if not states:
        raise ValueError("at least one state pair is required")
    n = warm_start.sigma.grid.n
    cap = COEFF_INNER_MAX if inner_max is None else inner_max

    prob = _sigma_problem(states, cfg.reg_sigma, n)
    sigma, fp_sigma, iters, converged = _solve_one_coefficient(
        prob, warm_start.sigma, cap, COEFF_TOL)
    mu, fp_mu = warm_start.mu, math.nan
    if cfg.update_mu:
        prob = _mu_problem(states, sources, cfg.reg_mu, n)
        mu, fp_mu, it, ok = _solve_one_coefficient(
            prob, warm_start.mu, cap, COEFF_TOL)
        iters = max(iters, it)
        converged &= ok
    return CoefficientUpdate(CoefficientPair(sigma, mu), fp_sigma, fp_mu,
                             iters, converged)


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
    alternations; the final coefficient solve gets the larger
    FINAL_INNER_CAP so the exit iterate satisfies its own fixed-point
    tolerance.
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
            coeff_inner_iterations=np.asarray(inner_counts, dtype=int))

    for k in range(cfg.max_outer):
        # -- state half-step -------------------------------------------------
        try:
            new_states, residual = _state_half_step(coeffs, sources, traces)
        except SubproblemFailure as failure:
            failure.report = _partial_report(STOP_SUBPROBLEM_FAILURE)
            raise
        state_residuals.append(residual)
        du_terms.append(_state_decrement(new_states, states, coeffs, grid))
        states = new_states
        j_after_state.append(eval_J(states, coeffs, sources, measurements,
                                    cfg.reg_sigma, cfg.reg_mu))

        # -- coefficient half-step -------------------------------------------
        cap = FINAL_INNER_CAP if k == cfg.max_outer - 1 else COEFF_INNER_MAX
        update = solve_coefficient_subproblem(states, sources, cfg, coeffs,
                                              inner_max=cap)
        new_coeffs = update.coefficients
        coeff_res_sigma.append(update.fp_residual_sigma)
        coeff_res_mu.append(update.fp_residual_mu)
        inner_counts.append(update.inner_iterations)
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
