"""Alternating minimization of the total least-squares functional.

Each outer iteration solves two convex subproblems:

  * state block: a linear-quadratic problem in (u, p) per excitation,
    solved through its normal equations.  The normal matrix is assembled
    sparse once per outer iteration (it depends only on the current
    coefficients) and factorized, so every excitation reuses the factor;
    the reported residual is recomputed through the matrix-free normal
    operator from the model module, keeping the two routes independent.

  * coefficient block: sigma and mu decouple and are each minimized by a
    proximal-gradient iteration (step 1/L with L from power iteration
    plus a 5% safety margin), accelerated with strong-convexity momentum
    and a monotone best-iterate safeguard so the functional can only
    descend.  The closed-form prox handles the L1 term and the box.

The report carries enough per-iteration bookkeeping (Bregman distances,
half-step decrement norms) to check the telescoped descent certificate
after the fact.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .forward import MeasurementSet
from .grid import (FluxField, ScalarField, StaggeredGrid, average_to_faces,
                   average_to_faces_adjoint, boundary_inner, boundary_trace,
                   cell_inner, cell_norm, divergence_to_cells, face_inner,
                   gradient_to_faces)
from .model import (CoefficientPair, StatePair, apply_L,
                    coefficient_misfit_gradients, eval_J,
                    sources_from_measurements, state_normal_residual)
from .operators import face_average, face_gradient, trace
from .regularization import (RegConfig, box_feasible, eval_phi_smooth,
                             prox_l1_box, bregman_distance, smooth_grad_phi)

POWER_ITERATIONS = 20
POWER_SAFETY_MARGIN = 0.05
_POWER_SEED = 1234

STOP_MAX_ITERATIONS = "max_iterations"
STOP_STAGNATION = "stagnation"
STOP_SUBPROBLEM_FAILURE = "subproblem_failure"


class SubproblemFailure(RuntimeError):
    """A block solve missed its tolerance; carries the partial report."""

    def __init__(self, message: str, residual: float | None = None, report=None):
        super().__init__(message)
        self.residual = residual
        self.report = report


@dataclass
class AdiConfig:
    """Knobs of the alternating solver."""

    reg_sigma: RegConfig
    reg_mu: RegConfig
    max_outer: int = 50
    state_tol: float = 1e-8
    coeff_inner_max: int = 200
    coeff_tol: float = 1e-8
    update_sigma: bool = True
    update_mu: bool = True
    stop_on_stagnation: bool = False
    stagnation_rtol: float = 1e-12
    final_inner_cap: int = 10000

    def __post_init__(self):
        if self.max_outer < 1:
            raise ValueError("max_outer must be >= 1")
        if self.state_tol <= 0 or self.coeff_tol <= 0:
            raise ValueError("tolerances must be positive")


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
    n = v.u.grid.n
    return np.concatenate([v.u.values.ravel(),
                           v.p.x_values[1:n, :].ravel(),
                           v.p.y_values[:, 1:n].ravel()])


def unpack_state(x: np.ndarray, grid: StaggeredGrid) -> StatePair:
    n = grid.n
    nu = n * n
    nf = (n - 1) * n
    u = ScalarField(grid, x[:nu].reshape(n, n))
    px = np.zeros((n + 1, n))
    py = np.zeros((n, n + 1))
    px[1:n, :] = x[nu:nu + nf].reshape(n - 1, n)
    py[:, 1:n] = x[nu + nf:nu + 2 * nf].reshape(n, n - 1)
    return StatePair(u, FluxField(grid, px, py))


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
        normal = (m_mat.T @ sp.diags(w) @ m_mat).tocsc()
        self._lu = splu(normal)

    def rhs(self, g: ScalarField, f) -> np.ndarray:
        n = self.grid.n
        nf = (n - 1) * n
        d = np.concatenate([g.values.ravel(), np.zeros(2 * nf), f.values])
        return self._m.T @ (self._w * d)

    def solve(self, g: ScalarField, f) -> StatePair:
        x = self._lu.solve(self.rhs(g, f))
        return unpack_state(x, self.grid)


def solve_state_subproblem(q: CoefficientPair, g: ScalarField, f,
                           cfg: AdiConfig, warm_start: StatePair | None = None
                           ) -> StatePair:
    """Minimize the state block for fixed coefficients, one excitation.

    The direct factorization makes the warm start irrelevant for the
    result; the argument stays for interface symmetry with iterative
    replacements.  Raises SubproblemFailure when the verified
    normal-equation residual misses cfg.state_tol.
    """
    if not (box_feasible(q.sigma, cfg.reg_sigma) and box_feasible(q.mu, cfg.reg_mu)):
        raise ValueError("coefficients must be box-feasible")
    v = _StateSolver(q).solve(g, f)
    residual = state_normal_residual(q, v, g, f)
    if not residual <= cfg.state_tol:
        raise SubproblemFailure(
            f"state normal equations solved to {residual:.3e} > {cfg.state_tol:.1e}",
            residual=residual)
    return v


# ---------------------------------------------------------------------------
# Coefficient subproblem: accelerated monotone proximal gradient
# ---------------------------------------------------------------------------

class _CoefficientProblem:
    """Smooth part (misfit + H1) of one coefficient's subproblem."""

    def __init__(self, grad_misfit, hess_misfit, val_misfit, reg: RegConfig,
                 grid: StaggeredGrid):
        self._grad_misfit = grad_misfit
        self._hess_misfit = hess_misfit
        self._val_misfit = val_misfit
        self.reg = reg
        self.grid = grid

    def smooth_grad(self, q: ScalarField) -> ScalarField:
        return self._grad_misfit(q) + smooth_grad_phi(q, self.reg)

    def hess_apply(self, s: ScalarField) -> ScalarField:
        lap = divergence_to_cells(gradient_to_faces(s))
        h1 = ScalarField(s.grid, self.reg.alpha * (-lap.values + s.values))
        return self._hess_misfit(s) + h1

    def total_value(self, q: ScalarField) -> float:
        l1 = self.reg.beta * self.grid.h ** 2 * float(np.abs(q.values).sum())
        return self._val_misfit(q) + eval_phi_smooth(q, self.reg) + l1


def _sigma_problem(states, reg: RegConfig, grid) -> _CoefficientProblem:
    grads_u = [gradient_to_faces(v.u) for v in states]
    fluxes = [v.p for v in states]

    def residual(sig):
        s_face = average_to_faces(sig)
        return [FluxField(grid, p.x_values - s_face.x_values * gu.x_values,
                          p.y_values - s_face.y_values * gu.y_values)
                for gu, p in zip(grads_u, fluxes)]

    def val(sig):
        return sum(face_inner(r, r) for r in residual(sig))

    def grad(sig):
        out = np.zeros((grid.n, grid.n))
        for gu, r in zip(grads_u, residual(sig)):
            weighted = FluxField(grid, gu.x_values * r.x_values,
                                 gu.y_values * r.y_values)
            out -= 2.0 * average_to_faces_adjoint(weighted).values
        return ScalarField(grid, out)

    def hess(s):
        out = np.zeros((grid.n, grid.n))
        s_face = average_to_faces(s)
        for gu in grads_u:
            weighted = FluxField(grid,
                                 gu.x_values ** 2 * s_face.x_values,
                                 gu.y_values ** 2 * s_face.y_values)
            out += 2.0 * average_to_faces_adjoint(weighted).values
        return ScalarField(grid, out)

    return _CoefficientProblem(grad, hess, val, reg, grid)


def _mu_problem(states, sources, reg: RegConfig, grid) -> _CoefficientProblem:
    us = [v.u for v in states]
    consts = [(-divergence_to_cells(v.p).values - g.values)
              for v, g in zip(states, sources)]

    def val(mu):
        total = 0.0
        for u, c in zip(us, consts):
            r = c + mu.values * u.values
            total += grid.h ** 2 * float(np.vdot(r, r))
        return total

    def grad(mu):
        out = np.zeros((grid.n, grid.n))
        for u, c in zip(us, consts):
            out += 2.0 * u.values * (c + mu.values * u.values)
        return ScalarField(grid, out)

    def hess(s):
        out = np.zeros((grid.n, grid.n))
        for u in us:
            out += 2.0 * u.values ** 2 * s.values
        return ScalarField(grid, out)

    return _CoefficientProblem(grad, hess, val, reg, grid)


def _power_iteration(problem: _CoefficientProblem, grid: StaggeredGrid) -> float:
    rng = np.random.default_rng(_POWER_SEED)
    x = ScalarField(grid, rng.standard_normal((grid.n, grid.n)))
    lam = 0.0
    for _ in range(POWER_ITERATIONS):
        y = problem.hess_apply(x)
        xx = cell_inner(x, x)
        if xx == 0.0:
            return 0.0
        lam = cell_inner(y, x) / xx
        y_norm = cell_norm(y)
        if y_norm == 0.0:
            return 0.0
        x = y * (1.0 / y_norm)
    return float(lam)


def _fixed_point_residual(problem: _CoefficientProblem, q: ScalarField,
                          tau: float) -> float:
    reg = problem.reg
    step = q - tau * problem.smooth_grad(q)
    z = prox_l1_box(step, tau * reg.beta, reg.q_lo, reg.q_hi)
    return cell_norm(q - z) / (1.0 + cell_norm(q))


def _solve_one_coefficient(problem: _CoefficientProblem, warm: ScalarField,
                           inner_max: int, tol: float):
    """Monotone accelerated proximal gradient for one coefficient.

    Returns (best iterate, fixed-point residual, iterations, converged).
    The best iterate never has a larger subproblem value than the
    (clipped) warm start, which is what the outer descent relies on.
    """
    reg = problem.reg
    lam = _power_iteration(problem, problem.grid)
    lam = max(lam, 1e-12)
    l_eff = (1.0 + POWER_SAFETY_MARGIN) * lam
    tau = 1.0 / l_eff

    x = prox_l1_box(warm, 0.0, reg.q_lo, reg.q_hi)   # clip into the box
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
        z = prox_l1_box(y - tau * problem.smooth_grad(y),
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
    return best, residual, iterations, converged or residual <= tol


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
    the divergence residual) and are solved independently; a block left
    frozen by the config keeps its warm-start value and reports a NaN
    residual.
    """
    if not states:
        raise ValueError("at least one state pair is required")
    grid = warm_start.sigma.grid
    cap = cfg.coeff_inner_max if inner_max is None else inner_max

    sigma, mu = warm_start.sigma, warm_start.mu
    fp_sigma = fp_mu = math.nan
    iters = 0
    converged = True
    if cfg.update_sigma:
        prob = _sigma_problem(states, cfg.reg_sigma, grid)
        sigma, fp_sigma, it, ok = _solve_one_coefficient(
            prob, warm_start.sigma, cap, cfg.coeff_tol)
        iters = max(iters, it)
        converged &= ok
    if cfg.update_mu:
        prob = _mu_problem(states, sources, cfg.reg_mu, grid)
        mu, fp_mu, it, ok = _solve_one_coefficient(
            prob, warm_start.mu, cap, cfg.coeff_tol)
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
    raw data against the initial coefficients.  Runs cfg.max_outer
    alternations (the final coefficient solve gets the larger
    final_inner_cap so the exit iterate satisfies its own fixed-point
    tolerance); with stop_on_stagnation the loop exits early once the
    functional is flat to stagnation_rtol * (1 + J0).
    """
    if isinstance(measurements, MeasurementSet):
        measurements = [measurements]
    measurements = list(measurements)
    if not measurements:
        raise ValueError("at least one measurement set is required")
    grid = measurements[0].grid
    if not (box_feasible(initial_q.sigma, cfg.reg_sigma)
            and box_feasible(initial_q.mu, cfg.reg_mu)):
        raise ValueError("initial coefficients violate their boxes")

    sources = sources_from_measurements(measurements)
    states = [StatePair.zeros(grid) for _ in measurements]
    coeffs = CoefficientPair(initial_q.sigma.copy(), initial_q.mu.copy())

    j0 = eval_J(states, coeffs, sources, measurements, cfg.reg_sigma, cfg.reg_mu)
    j_history = [j0]
    j_after_state = []
    state_residuals = []
    coeff_res_sigma = []
    coeff_res_mu = []
    bregman_values = []
    du_terms = []
    dq_terms = []
    inner_counts = []
    stop_reason = STOP_MAX_ITERATIONS

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
            solver = _StateSolver(coeffs)
            new_states = [solver.solve(g, m.f)
                          for g, m in zip(sources, measurements)]
            # Free this factor now, so that the next iteration's
            # factorization does not run while it is still held.
            del solver
        except RuntimeError as exc:
            failure = SubproblemFailure(f"state solve failed: {exc}")
            failure.report = _partial_report(STOP_SUBPROBLEM_FAILURE)
            raise failure from exc
        residual = max(state_normal_residual(coeffs, v, g, m.f)
                       for v, g, m in zip(new_states, sources, measurements))
        if not residual <= cfg.state_tol:
            failure = SubproblemFailure(
                f"state residual {residual:.3e} exceeds {cfg.state_tol:.1e}",
                residual=residual)
            failure.report = _partial_report(STOP_SUBPROBLEM_FAILURE)
            raise failure
        state_residuals.append(residual)
        du_terms.append(_state_decrement(new_states, states, coeffs, grid))
        states = new_states
        j_after_state.append(eval_J(states, coeffs, sources, measurements,
                                    cfg.reg_sigma, cfg.reg_mu))

        # -- coefficient half-step -------------------------------------------
        last = k == cfg.max_outer - 1
        cap = max(cfg.coeff_inner_max, cfg.final_inner_cap) if last \
            else cfg.coeff_inner_max
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
        j_new = eval_J(states, coeffs, sources, measurements,
                       cfg.reg_sigma, cfg.reg_mu)
        # Stagnation: the functional is flat across the iteration and the
        # coefficient block no longer moves.  The first iteration compares
        # against the post-state value (the zero-state J_0 is an artifact
        # of the cold start, so a restart from a minimizer stops here).
        flat_outer = abs(j_history[-1] - j_new) <= cfg.stagnation_rtol * (1.0 + j0)
        flat_inner = abs(j_after_state[-1] - j_new) <= cfg.stagnation_rtol * (1.0 + j0)
        coeff_still = dq_terms[-1] <= cfg.stagnation_rtol * (1.0 + j0)
        stagnated = flat_inner and coeff_still and (flat_outer or k == 0)
        j_history.append(j_new)
        if cfg.stop_on_stagnation and stagnated:
            stop_reason = STOP_STAGNATION
            break

    return _partial_report(stop_reason)


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
