"""Inexact semismooth Newton method for the augmented-Lagrangian subproblem.

For fixed multiplier ``y`` and penalty ``sigma`` the inner problem minimizes

    psi(x1, x2) = <x1, H x1>/2 - <b, x2>
                  + (||P_K(z)||^2 - ||y||^2) / (2 sigma),

where ``z = y + sigma (A' x2 - H x1 - c)`` and ``P_K`` is the cone
projection.  Directions come from a generalized-Hessian linear system solved
inexactly (tolerance tied to the gradient norm), globalized by an Armijo
backtracking line search.  In the linear case (H = 0) the variable ``x1``
stays identically zero; in the quadratic case the iterate is a range-space
representative: only ``H x1`` and ``<x1, H x1>`` are ever consumed.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .cone import apply_jacobian, jacobian_element, project
from .linsys import LinearSolveError, assemble_linear, solve_quadratic, solve_spd

logger = logging.getLogger(__name__)

CONVERGED = "converged"
MAX_ITERS = "max_iters"
STAGNATION = "stagnation"
LINESEARCH_FAILURE = "linesearch_failure"
LINEAR_SOLVE_FAILURE = "linear_solve_failure"

_STAGNATION_STEP = 1e-16
_STAGNATION_RUNS = 3


@dataclass(frozen=True)
class NewtonParams:
    """Parameters of the inexact semismooth Newton iteration."""

    nu_hat: float = 0.9
    tau: float = 0.5
    tau1: float = 0.1
    tau2: float = 0.1
    mu: float = 1e-4
    delta: float = 0.5
    max_newton_iters: int = 200
    max_linesearch_steps: int = 40

    def __post_init__(self):
        if not 0.0 < self.nu_hat < 1.0:
            raise ValueError("nu_hat must lie in (0, 1)")
        if not 0.0 < self.tau <= 1.0:
            raise ValueError("tau must lie in (0, 1]")
        for name in ("tau1", "tau2", "delta"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ValueError(f"{name} must lie in (0, 1)")
        if not 0.0 < self.mu < 0.5:
            raise ValueError("mu must lie in (0, 1/2)")


@dataclass
class InnerState:
    """Current inner point with its objective, gradient and cached projection.

    ``z`` is the (negatively scaled) projection argument
    ``y + sigma (A' x2 - H x1 - c)`` and ``proj`` its cone projection, which
    doubles as the candidate multiplier update.
    """

    x1: np.ndarray
    x2: np.ndarray
    y: np.ndarray
    sigma: float
    psi: float
    g1: np.ndarray
    g2: np.ndarray
    z: np.ndarray
    proj: np.ndarray
    grad_norm: float


def _projection_argument(problem, x1, x2, y, sigma):
    z = y + sigma * (problem.A.T @ x2 - problem.c)
    if problem.is_quadratic:
        z = z - sigma * problem.H.matvec(x1)
    return z


def psi_and_grad(problem, x1, x2, y, sigma):
    """Inner objective and its gradient blocks at ``(x1, x2)``.

    Returns ``(psi, g1, g2)`` with ``g1 = H x1 - H P_K(z)`` and
    ``g2 = A P_K(z) - b``.
    """
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    z = _projection_argument(problem, x1, x2, y, sigma)
    proj = project(problem.cone, z)
    psi = -float(problem.b @ x2) + (proj @ proj - y @ y) / (2.0 * sigma)
    if problem.is_quadratic:
        psi += 0.5 * problem.H.quad(x1)
        g1 = problem.H.matvec(x1) - problem.H.matvec(proj)
    else:
        g1 = np.zeros_like(x1)
    g2 = problem.A @ proj - problem.b
    return psi, g1, g2


def make_state(problem, x1, x2, y, sigma) -> InnerState:
    """Evaluate the full inner state at ``(x1, x2)`` for fixed ``(y, sigma)``."""
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    y = np.asarray(y, dtype=float)
    z = _projection_argument(problem, x1, x2, y, sigma)
    proj = project(problem.cone, z)
    psi = -float(problem.b @ x2) + (proj @ proj - y @ y) / (2.0 * sigma)
    if problem.is_quadratic:
        psi += 0.5 * problem.H.quad(x1)
        g1 = problem.H.matvec(x1) - problem.H.matvec(proj)
    else:
        g1 = np.zeros_like(x1)
    g2 = problem.A @ proj - problem.b
    gnorm = float(np.sqrt(g1 @ g1 + g2 @ g2))
    return InnerState(x1, x2, y, float(sigma), float(psi), g1, g2, z, proj, gnorm)


def _psi_only(problem, x1, x2, y, sigma, y_sq):
    z = _projection_argument(problem, x1, x2, y, sigma)
    proj = project(problem.cone, z)
    psi = -float(problem.b @ x2) + (proj @ proj - y_sq) / (2.0 * sigma)
    if problem.is_quadratic:
        psi += 0.5 * problem.H.quad(x1)
    return float(psi)


def newton_direction(problem, state: InnerState, sigma, params: NewtonParams):
    """One inexact Newton direction at ``state``.

    Returns ``(d1, d2, eps_j, nu_j, stats)`` where the direction satisfies

        || M_j (d1; d2) + eps_j (0; d2) + grad || <= nu_j

    with ``M_j`` the generalized Hessian built from the projection Jacobian at
    ``z``.  The damping ``eps_j`` grows tenfold once if the linear solver
    fails; a second failure propagates.
    """
    gnorm = state.grad_norm
    if gnorm == 0.0:
        return (np.zeros_like(state.x1), np.zeros_like(state.x2), 0.0, 0.0, None)
    eps_j = params.tau1 * min(params.tau2, gnorm)
    nu_j = min(params.nu_hat, gnorm ** (1.0 + params.tau))
    J = jacobian_element(problem.cone, state.z)
    for attempt in range(2):
        try:
            if problem.is_quadratic:
                R1 = state.proj - state.x1
                R2 = -state.g2
                d1, d2, stats = solve_quadratic(
                    problem.H, problem.A, J, sigma, eps_j, R1, R2, nu_j)
            else:
                sys_ = assemble_linear(problem.assembly, J, sigma, eps_j / sigma)
                d2, stats = solve_spd(sys_, -state.g2 / sigma, nu_j / sigma)
                d1 = np.zeros_like(state.x1)
            return d1, d2, eps_j, nu_j, stats
        except LinearSolveError:
            if attempt == 1:
                raise
            logger.warning("linear solve failed; retrying with 10x damping")
            eps_j *= 10.0
    raise AssertionError("unreachable")


def line_search(problem, state: InnerState, d1, d2, params: NewtonParams):
    """Armijo backtracking from ``state`` along ``(d1, d2)``.

    Falls back to steepest descent when the direction is not a descent
    direction.  Returns ``(alpha, new_state, info)``; ``info['warned']`` is
    set when the step budget ran out and the best trial point is returned.
    """
    if state.grad_norm == 0.0:
        return 1.0, state, {"gd": 0.0, "trials": 0, "warned": False}
    gd = float(state.g1 @ d1 + state.g2 @ d2)
    dnorm = float(np.sqrt(d1 @ d1 + d2 @ d2))
    if gd >= -1e-18 * state.grad_norm * dnorm:
        logger.debug("non-descent direction (g.d = %.3e); using steepest descent", gd)
        d1 = -state.g1
        d2 = -state.g2
        gd = -state.grad_norm ** 2
        dnorm = state.grad_norm
    # when the predicted decrease cannot be resolved in the roundoff of psi,
    # the backtracking test returns noise; fall back to requiring a plain
    # gradient-norm contraction of the full step
    psi_noise = 4.0 * np.finfo(float).eps * (1.0 + abs(state.psi))
    if params.mu * abs(gd) <= psi_noise:
        full = make_state(problem, state.x1 + d1, state.x2 + d2, state.y,
                          state.sigma)
        if full.grad_norm < state.grad_norm:
            return 1.0, full, {"gd": gd, "trials": 1, "warned": True}
    y_sq = float(state.y @ state.y)
    best = None
    alpha = 1.0
    for step in range(params.max_linesearch_steps + 1):
        psi_t = _psi_only(problem, state.x1 + alpha * d1, state.x2 + alpha * d2,
                          state.y, state.sigma, y_sq)
        if psi_t <= state.psi + params.mu * alpha * gd:
            new = make_state(problem, state.x1 + alpha * d1,
                             state.x2 + alpha * d2, state.y, state.sigma)
            return alpha, new, {"gd": gd, "trials": step + 1, "warned": False}
        if best is None or psi_t < best[1]:
            best = (alpha, psi_t)
        alpha *= params.delta
    # near the minimizer the sufficient-decrease margin drowns in the
    # roundoff of psi; prefer the full step whenever it still contracts the
    # gradient, otherwise fall back to the lowest trial value seen
    full = make_state(problem, state.x1 + d1, state.x2 + d2, state.y,
                      state.sigma)
    if full.grad_norm < state.grad_norm:
        logger.debug("line search exhausted; full step accepted on gradient "
                     "decrease (%.3e -> %.3e)", state.grad_norm, full.grad_norm)
        return 1.0, full, {"gd": gd, "trials": params.max_linesearch_steps + 1,
                           "warned": True}
    alpha = best[0]
    logger.warning("line search exhausted %d steps; returning best trial",
                   params.max_linesearch_steps)
    new = make_state(problem, state.x1 + alpha * d1, state.x2 + alpha * d2,
                     state.y, state.sigma)
    return alpha, new, {"gd": gd, "trials": params.max_linesearch_steps + 1,
                        "warned": True}


@dataclass
class InnerResult:
    x1: np.ndarray
    x2: np.ndarray
    x3: np.ndarray
    grad_norm: float
    newton_iters: int
    krylov_iters: int
    status: str
    state: InnerState
    steps: list = field(default_factory=list)


def run_inner(problem, y, sigma, start, stop_threshold, params: NewtonParams,
              collect_steps=False) -> InnerResult:
    """Drive the Newton iteration until ``||grad psi|| <= stop_threshold``.

    ``start`` is either an :class:`InnerState` or an ``(x1, x2)`` pair; the
    state is re-evaluated against the supplied ``(y, sigma)``.  On success the
    recovered ``x3`` is the projection of the subproblem argument, so it lies
    in the cone.  The objective never increases across accepted steps.
    """
    if stop_threshold <= 0.0:
        raise ValueError("stop_threshold must be positive")
    if isinstance(start, InnerState):
        x1, x2 = start.x1, start.x2
    else:
        x1, x2 = start
    state = make_state(problem, x1, x2, y, sigma)
    newton = 0
    krylov = 0
    steps = []
    tiny_run = 0
    status = MAX_ITERS
    for _ in range(params.max_newton_iters):
        if state.grad_norm <= stop_threshold:
            status = CONVERGED
            break
        try:
            d1, d2, eps_j, nu_j, lstats = newton_direction(
                problem, state, sigma, params)
        except LinearSolveError as err:
            logger.warning("inner solve aborted: %s", err)
            status = LINEAR_SOLVE_FAILURE
            break
        if lstats is not None:
            krylov += lstats.iterations
        psi_old = state.psi
        gnorm_old = state.grad_norm
        alpha, new_state, info = line_search(problem, state, d1, d2, params)
        newton += 1
        if collect_steps:
            steps.append({"psi_old": psi_old, "gd": info["gd"], "alpha": alpha,
                          "psi_new": new_state.psi, "eps_j": eps_j,
                          "nu_j": nu_j, "warned": info["warned"]})
        step_len = alpha * float(np.sqrt(d1 @ d1 + d2 @ d2))
        tiny_run = tiny_run + 1 if step_len < _STAGNATION_STEP else 0
        if info["warned"]:
            # the step budget ran out; keep going only while the best trial
            # still improves the objective or the gradient norm
            if new_state.psi >= psi_old and new_state.grad_norm >= gnorm_old:
                status = LINESEARCH_FAILURE
                break
        state = new_state
        if tiny_run >= _STAGNATION_RUNS:
            status = STAGNATION
            break
    else:
        status = MAX_ITERS
    if state.grad_norm <= stop_threshold:
        status = CONVERGED
    x3 = project(problem.cone, -state.z / sigma)
    return InnerResult(state.x1, state.x2, x3, state.grad_norm, newton, krylov,
                       status, state, steps)
