"""Inexact semismooth Newton method for the augmented-Lagrangian subproblem.

For fixed multiplier ``y`` and penalty ``sigma`` the inner problem minimizes

    psi(x1, x2) = <x1, H x1>/2 - <b, x2>
                  + (||P_K(z)||^2 - ||y||^2) / (2 sigma),

where ``z = y + sigma (A' x2 - H x1 - c)`` and ``P_K`` is the cone
projection.  :func:`make_state` is the one evaluation of psi, its gradient
and the cached projection.  Directions come from a generalized-Hessian linear
system solved inexactly (tolerance tied to the gradient norm), globalized by
an Armijo backtracking line search whose unit trial is a full evaluation and
whose shorter trials move ``z`` along the unit step's image, one projection
each.  In the linear case (H = 0) ``x1`` never moves and its gradient
block and direction are zero, so no arithmetic touches them; in the
quadratic case the iterate is a range-space representative: only ``H x1``
and ``<x1, H x1>`` are ever consumed.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .cone import jacobian_element, project, tail_norms
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
    """Parameters of the inexact semismooth Newton iteration.

    ``max_newton_iters`` bounds the steps of one :func:`run_inner` call,
    which is the whole inner solve of one outer step."""

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
        for name, least in (("max_newton_iters", 1), ("max_linesearch_steps", 0)):
            v = getattr(self, name)
            if not (isinstance(v, (int, np.integer)) and v >= least):
                raise ValueError(f"{name} must be an integer >= {least}")


@dataclass
class InnerState:
    """Current inner point with its objective, gradient and cached projection.

    ``z`` is the (negatively scaled) projection argument
    ``y + sigma (A' x2 - H x1 - c)``, ``proj`` its cone projection, which
    doubles as the candidate multiplier update, and ``norms`` the Lorentz
    tail norms of ``z`` (:func:`~socalm.cone.tail_norms`) that the
    projection and the Newton direction's Jacobian share.  ``Hx1`` and
    ``Hproj`` are the products ``H x1`` and ``H proj`` that the gradient
    took, kept for the line search, the accuracy tests and the residuals
    at the same points: on the trust-region bench (d = 400 and 800) that
    takes a solve from 0.0559 to 0.0492 s against forming them again, 83
    H products a pass against 133 (median of 10 alternating pairs, all
    won, 2-core machine).  In the linear case (H = 0) both are None,
    ``g1`` is a read-only zero vector and ``x1`` is the start's ``x1``,
    carried through every step unchanged: no arithmetic touches either.
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
    norms: tuple | None = None
    Hx1: np.ndarray | None = None
    Hproj: np.ndarray | None = None


def _zeros(n):
    """A read-only zero n-vector that holds no memory (the linear case's g1, d1)."""
    return np.broadcast_to(0.0, (n,))


def _psi(problem, x2, proj, y_sq, sigma, quad):
    """Inner objective from the projection and ``quad = <x1, H x1>``."""
    psi = -float(problem.b @ x2) + (proj @ proj - y_sq) / (2.0 * sigma)
    return float(psi + 0.5 * quad)


def make_state(problem, x1, x2, y, sigma, Hx1=None) -> InnerState:
    """Evaluate the inner objective and gradient at ``(x1, x2)`` for fixed ``(y, sigma)``.

    The gradient blocks are ``g1 = H x1 - H P_K(z)`` and ``g2 = A P_K(z) - b``.
    ``Hx1``, when the caller holds it, is ``H x1`` and is not formed again.
    In the linear case ``g1`` is a read-only zero vector that enters no
    arithmetic, and ``x1`` is kept as given.
    """
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    y = np.asarray(y, dtype=float)
    # z = y + sigma (A' x2 - c), in place on the one new vector
    z = problem.rmatvec(x2)
    z -= problem.c
    z *= sigma
    z += y
    if problem.is_quadratic:
        if Hx1 is None:
            Hx1 = problem.H.matvec(x1)
        z -= sigma * Hx1
        quad = float(x1 @ Hx1)
    else:
        Hx1 = None
        quad = 0.0
    norms = tail_norms(problem.cone, z)
    proj = project(problem.cone, z, norms=norms)
    psi = _psi(problem, x2, proj, float(y @ y), sigma, quad)
    g2 = problem.matvec(proj) - problem.b
    if problem.is_quadratic:
        Hproj = problem.H.matvec(proj)
        g1 = Hx1 - Hproj
        gnorm = float(np.sqrt(g1 @ g1 + g2 @ g2))
    else:
        Hproj = None
        g1 = _zeros(x1.size)
        gnorm = float(np.sqrt(g2 @ g2))
    return InnerState(x1, x2, y, float(sigma), psi, g1, g2, z, proj, gnorm,
                      norms, Hx1, Hproj)


def newton_direction(problem, state: InnerState, sigma, params: NewtonParams):
    """One inexact Newton direction at ``state``.

    Returns ``(d1, d2, eps_j, nu_j, stats)`` where the direction satisfies

        || M_j (d1; d2) + eps_j (0; d2) + grad || <= nu_j

    with ``M_j`` the generalized Hessian built from the projection Jacobian at
    ``z``, from one linear solve: a miss or a failed factorization raises
    :class:`~socalm.linsys.LinearSolveError`.  In the linear case ``d1`` is
    a read-only zero vector.
    """
    gnorm = state.grad_norm
    if gnorm == 0.0:
        return (np.zeros_like(state.x1), np.zeros_like(state.x2), 0.0, 0.0, None)
    eps_j = params.tau1 * min(params.tau2, gnorm)
    nu_j = min(params.nu_hat, gnorm ** (1.0 + params.tau))
    J = jacobian_element(problem.cone, state.z, norms=state.norms)
    if problem.is_quadratic:
        d1, d2, stats = solve_quadratic(
            problem.H, problem.assembly, J, sigma, eps_j,
            state.proj - state.x1, -state.g2, nu_j)
    else:
        sys_ = assemble_linear(problem.assembly, J, sigma, eps_j / sigma)
        d2, stats = solve_spd(sys_, -state.g2 / sigma, nu_j / sigma)
        d1 = _zeros(state.x1.size)
    return d1, d2, eps_j, nu_j, stats


def line_search(problem, state: InnerState, d1, d2, params: NewtonParams):
    """Armijo backtracking from ``state`` along ``(d1, d2)``.

    Falls back to steepest descent when the direction is not a descent
    direction.  The unit trial is a full :func:`make_state`, which becomes the
    new state when it is accepted.  Its projection argument gives the
    direction's image ``dz = z(1) - z``, so each shorter trial costs one
    projection of ``z + alpha dz`` and no mat-vec.  A point accepted with
    ``alpha < 1`` is evaluated again by :func:`make_state`, so the returned
    state is always exact at its own point.  Returns
    ``(alpha, new_state, info)``.  ``info['outcome']`` names how the step
    was chosen:

    - ``unit``: the full step passed the sufficient-decrease test;
    - ``backtracked``: a shorter trial passed it, the last allowed one
      included;
    - ``noise``: the full step was taken on gradient decrease alone, because
      the decrease test is below the roundoff of psi;
    - ``exhausted``: no trial passed within ``max_linesearch_steps``
      shorter trials, and the one with the lowest objective value is
      returned.

    ``info['step']`` is ``alpha`` times the norm of the direction searched,
    the gradient's after a switch to steepest descent, which
    ``info['steepest']`` reports.  ``info['trials']`` counts the objective
    values tested and ``info['gd']`` is the directional derivative.
    """
    if state.grad_norm == 0.0:
        return 1.0, state, {"gd": 0.0, "trials": 0, "outcome": "unit",
                            "step": 0.0, "steepest": False}
    quadratic = problem.is_quadratic
    gd = _dot(quadratic, state.g1, d1, state.g2, d2)
    dnorm = float(np.sqrt(_dot(quadratic, d1, d1, d2, d2)))
    steepest = gd >= -1e-18 * state.grad_norm * dnorm
    if steepest:
        logger.debug("non-descent direction (g.d = %.3e); using steepest descent", gd)
        d1 = -state.g1
        d2 = -state.g2
        gd = -state.grad_norm ** 2
        dnorm = state.grad_norm
    x1, x2, y, sigma = state.x1, state.x2, state.y, state.sigma

    def trial_state(alpha):
        # x1 does not move in the linear case
        t1 = x1 + alpha * d1 if quadratic else x1
        return make_state(problem, t1, x2 + alpha * d2, y, sigma)

    def done(alpha, new_state, trials, outcome):
        return alpha, new_state, {"gd": gd, "trials": trials,
                                  "outcome": outcome, "step": alpha * dnorm,
                                  "steepest": steepest}

    full = trial_state(1.0)
    # when the predicted decrease cannot be resolved in the roundoff of psi,
    # the backtracking test returns noise; fall back to requiring a plain
    # gradient-norm contraction of the full step
    psi_noise = 4.0 * np.finfo(float).eps * (1.0 + abs(state.psi))
    if params.mu * abs(gd) <= psi_noise and full.grad_norm < state.grad_norm:
        return done(1.0, full, 1, "noise")
    if full.psi <= state.psi + params.mu * gd:
        return done(1.0, full, 1, "unit")
    best = (1.0, full.psi)
    # z(alpha) = z + alpha dz and <x1 + alpha d1, H (x1 + alpha d1)> are
    # affine and quadratic in alpha
    dz = full.z - state.z
    q0 = q1 = q2 = 0.0
    if quadratic:
        Hd1 = problem.H.matvec(d1)
        q0, q1, q2 = (float(x1 @ state.Hx1), 2.0 * float(x1 @ Hd1),
                      float(d1 @ Hd1))
    y_sq = float(y @ y)
    alpha = 1.0
    for step in range(1, params.max_linesearch_steps + 1):
        alpha *= params.delta
        z_t = alpha * dz
        z_t += state.z
        proj = project(problem.cone, z_t)
        psi_t = _psi(problem, x2 + alpha * d2, proj, y_sq, sigma,
                     q0 + alpha * (q1 + alpha * q2))
        if psi_t <= state.psi + params.mu * alpha * gd:
            return done(alpha, trial_state(alpha), step + 1, "backtracked")
        if psi_t < best[1]:
            best = (alpha, psi_t)
    logger.warning("line search exhausted %d steps; returning best trial",
                   params.max_linesearch_steps)
    return done(best[0], trial_state(best[0]), params.max_linesearch_steps + 1,
                "exhausted")


def _dot(quadratic, u1, v1, u2, v2):
    """``<u1, v1> + <u2, v2>``; the first blocks are zero in the linear case."""
    if quadratic:
        return float(u1 @ v1 + u2 @ v2)
    return float(u2 @ v2)


@dataclass
class InnerResult:
    """Outcome of :func:`run_inner`.  ``counts`` totals its steps' linear
    solves by route (the failed one of ``LINEAR_SOLVE_FAILURE`` included),
    their refinement steps (``refine``) and the line searches that took the
    noise rule (``noise``), ran out of trials (``exhausted``) or replaced
    the direction by steepest descent (``steepest``)."""

    state: InnerState
    x3: np.ndarray
    newton_iters: int
    status: str
    counts: Counter


def run_inner(problem, y, sigma, start, done,
              params: NewtonParams) -> InnerResult:
    """Drive the Newton iteration until ``done(state)`` holds.

    ``start`` is either an :class:`InnerState` or an ``(x1, x2)`` pair.  A
    state made at this ``(y, sigma)`` is used as it is; any other start is
    evaluated at them.  ``done`` is called once on each state the loop
    reaches, the start included, and the loop ends ``CONVERGED`` at the
    first state for which it holds; ``params.max_newton_iters`` bounds the
    steps taken.  The recovered ``x3`` is the projection of the subproblem
    argument, so it lies in the cone.  Steps that pass the
    sufficient-decrease test lower the objective; a ``noise`` or
    ``exhausted`` step (see :func:`line_search`) may raise it.  Each step's
    line-search outcome is counted as it is reported, and its ``step``
    length feeds the stall rule: three steps in a row shorter than
    ``_STAGNATION_STEP`` end the loop with ``STAGNATION``.  An exhausted
    search whose best trial lowers neither the objective nor the gradient
    norm ends it with ``LINESEARCH_FAILURE``.
    """
    if (isinstance(start, InnerState) and start.sigma == sigma
            and np.array_equal(start.y, y)):
        state = start
    else:
        x1, x2 = (start.x1, start.x2) if isinstance(start, InnerState) else start
        state = make_state(problem, x1, x2, y, sigma)
    newton = 0
    tiny_run = 0
    status = CONVERGED if done(state) else MAX_ITERS
    counts = Counter()
    while status == MAX_ITERS and newton < params.max_newton_iters:
        try:
            d1, d2, _, _, stats = newton_direction(problem, state, sigma,
                                                   params)
        except LinearSolveError as err:
            logger.warning("inner solve aborted: %s", err)
            counts[err.route] += 1
            counts["refine"] += err.refine
            status = LINEAR_SOLVE_FAILURE
            break
        counts[stats.route] += 1
        counts["refine"] += stats.refine
        _, new_state, info = line_search(problem, state, d1, d2, params)
        newton += 1
        outcome = info["outcome"]
        if outcome in ("noise", "exhausted"):
            counts[outcome] += 1
        counts["steepest"] += info["steepest"]
        tiny_run = tiny_run + 1 if info["step"] < _STAGNATION_STEP else 0
        # an exhausted search goes on only while its best trial still
        # improves the objective or the gradient norm
        if (outcome == "exhausted" and new_state.psi >= state.psi
                and new_state.grad_norm >= state.grad_norm):
            status = LINESEARCH_FAILURE
            break
        state = new_state
        if done(state):
            status = CONVERGED
        elif tiny_run >= _STAGNATION_RUNS:
            status = STAGNATION
    x3 = project(problem.cone, -state.z / sigma)
    return InnerResult(state, x3, newton, status, counts)
