"""Outer inexact augmented Lagrangian loop with implementable stopping tests.

Each outer step minimizes the inner function to an accuracy driven by the
summable-sequence criteria, then updates the multiplier through the cached
cone projection; complementarity between ``x3`` and the multiplier therefore
holds exactly at every iterate.  Termination is on the maximum of four
relative KKT residuals.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import ssn
from .blas import single_thread
from .cone import ConeSpec, project
from .linsys import NewtonAssembly, SparseSymmetric
from .ssn import NewtonParams, make_state, run_inner

OPTIMAL = "Optimal"
MAX_ITERATIONS = "MaxIterations"
STAGNATION = "Stagnation"
LINEAR_SOLVE_FAILURE = "LinearSolveFailure"

# rounds of threshold tightening while the accuracy criteria are re-checked
# against the realized candidate multiplier
_MAX_FIXED_POINT_ROUNDS = 60


class ProblemData:
    """Problem instance ``(H, A, b, c, cone)``.

    ``H`` must be symmetric positive semidefinite (symmetry is enforced at
    construction; definiteness is a documented trust assumption, violations
    surface as inner line-search failures).  ``assembly`` holds the
    linear-case Newton structure of ``(A, cone)``, built at the first Newton
    step that needs it.
    """

    def __init__(self, H, A, b, c, cone: ConeSpec):
        self.cone = cone
        n = cone.total_dim
        self.A = sp.csr_matrix(A)
        self.b = np.asarray(b, dtype=float).ravel()
        self.c = np.asarray(c, dtype=float).ravel()
        if H is None:
            H = SparseSymmetric.zero(n)
        if not isinstance(H, SparseSymmetric):
            H = (SparseSymmetric.from_dense(H) if isinstance(H, np.ndarray)
                 else SparseSymmetric.from_sparse(H))
        self.H = H
        if self.A.shape != (self.b.size, n):
            raise ValueError(
                f"A has shape {self.A.shape}, expected ({self.b.size}, {n})")
        if self.c.size != n:
            raise ValueError(f"c has length {self.c.size}, cone total_dim is {n}")
        if self.H.n != n:
            raise ValueError(f"H has dimension {self.H.n}, expected {n}")
        self.m = self.A.shape[0]
        self.n = n
        self.is_quadratic = not self.H.is_zero
        self.a_fro = float(np.sqrt((self.A.data ** 2).sum())) if self.A.nnz else 0.0
        self.assembly = NewtonAssembly(self.A, cone)

    def __repr__(self):
        kind = "quadratic" if self.is_quadratic else "linear"
        return f"ProblemData(m={self.m}, n={self.n}, {kind}, {self.cone!r})"


@dataclass
class AlmOptions:
    """Solver options; the accuracy sequences are geometric, hence summable.

    The sequence decay is deliberately mild: with an aggressive ratio the
    inner accuracy demand eventually outruns what double precision can
    deliver at large penalty values, and late outer steps stall.
    """

    tol: float = 1e-8
    max_outer: int = 100
    sigma0: float | None = None
    sigma_growth: float = 3.0
    sigma_max: float = 1e8
    epshat_scale: float = 1.0
    epshat_ratio: float = 0.9
    deltahat_scale: float = 1.0
    deltahat_ratio: float = 0.9
    use_criterion_b: bool = False
    newton: NewtonParams = field(default_factory=NewtonParams)

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        for name in ("epshat_ratio", "deltahat_ratio"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ValueError(f"{name} must lie in (0, 1) for summability")
        if self.sigma_growth <= 1.0:
            raise ValueError("sigma_growth must exceed 1")


@dataclass
class Iterate:
    x1: np.ndarray
    x2: np.ndarray
    x3: np.ndarray
    y: np.ndarray
    sigma: float


@dataclass
class BlockReport:
    """Complementarity diagnostics of one cone block at the final point."""

    block_id: int
    kind: str
    x3_status: str
    y_status: str
    category: str
    strictly_complementary: bool
    margin: float
    inner_product: float


@dataclass
class SolveResult:
    x1: np.ndarray
    x2: np.ndarray
    x3: np.ndarray
    y: np.ndarray
    delta1: float
    delta2: float
    delta3: float
    delta4: float
    pobj: float
    dobj: float
    natural_map_norm: float
    status: str
    outer_iters: int
    newton_iters: int
    krylov_iters: int
    wall_time: float
    complementarity: list
    iteration_log: list

    @property
    def kkt_residual(self):
        return max(self.delta1, self.delta2, self.delta3, self.delta4)


def kkt_residuals(problem: ProblemData, x1, x2, x3, y):
    """Relative KKT residuals and the objective pair.

    Returns ``(d1, d2, d3, d4, pobj, dobj)``: dual feasibility, cone
    complementarity, primal feasibility, and the relative objective gap.
    """
    Ay_b = problem.A @ y - problem.b
    if problem.is_quadratic:
        Hx1y = problem.H.matvec(x1 - y)
        h_fro = problem.H.fro_norm()
        Hx1 = problem.H.matvec(x1)
        quad_x = 0.5 * float(x1 @ Hx1)
        quad_y = 0.5 * problem.H.quad(y)
    else:
        Hx1y = 0.0
        h_fro = 0.0
        quad_x = quad_y = 0.0
        Hx1 = 0.0
    d1 = np.sqrt(np.linalg.norm(Ay_b) ** 2 + np.linalg.norm(Hx1y) ** 2)
    d1 /= 1.0 + np.linalg.norm(problem.b) + h_fro
    d2 = np.linalg.norm(x3 - project(problem.cone, x3 - y))
    d2 /= 1.0 + np.linalg.norm(y) + np.linalg.norm(x3)
    d3 = np.linalg.norm(-Hx1 + problem.A.T @ x2 + x3 - problem.c)
    d3 /= 1.0 + np.linalg.norm(problem.c)
    pobj = quad_x - float(problem.b @ x2)
    dobj = -quad_y - float(problem.c @ y)
    d4 = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
    return float(d1), float(d2), float(d3), float(d4), pobj, dobj


def natural_map(problem: ProblemData, x1, x2, x3, y) -> np.ndarray:
    """Stacked fixed-point residual whose zeros are exactly the KKT points."""
    if problem.is_quadratic:
        Hx1 = problem.H.matvec(x1)
        top = Hx1 - problem.H.matvec(y)
    else:
        top = np.zeros(problem.n)
        Hx1 = np.zeros(problem.n)
    return np.concatenate([
        top,
        problem.A @ y - problem.b,
        x3 - project(problem.cone, x3 - y),
        Hx1 - problem.A.T @ x2 - x3 + problem.c,
    ])


@dataclass
class StepInfo:
    """Bookkeeping of one outer step (counters and the realized criteria)."""

    newton_iters: int
    krylov_iters: int
    psi: float
    grad_norm: float
    epshat: float
    deltahat: float
    criterion_a_rhs: float
    criterion_b_rhs: float | None
    y_prev: np.ndarray
    inner_status: str
    accepted: bool


def _criterion_rhs(problem, state, y_prev, sigma, ehat, dhat, use_b):
    """Right-hand sides of the accuracy tests, evaluated at the candidate.

    The rate-targeting test shrinks quadratically in the multiplier step and
    eventually drops below what double precision can certify, so it is floored
    at a roundoff-scale estimate of the attainable gradient norm; the
    summable-sequence test is never relaxed.
    """
    yplus = state.proj
    x_norm = np.sqrt(
        state.x1 @ state.x1 + state.x2 @ state.x2 + yplus @ yplus)
    ck = 1.0 + x_norm + np.linalg.norm(yplus)
    hy = np.linalg.norm(problem.H.matvec(yplus)) if problem.is_quadratic else 0.0
    dy = float(np.linalg.norm(yplus - y_prev))
    factor = min(1.0, 1.0 / (hy + dy / sigma + 1.0 / sigma))
    rhs_a = (ehat * ehat / sigma) / ck * factor
    rhs_b = None
    if use_b:
        proj_norm = float(np.linalg.norm(yplus))
        mfloor = 50 * np.finfo(float).eps * (
            1.0 + problem.a_fro * proj_norm + np.linalg.norm(problem.b)
            + problem.H.fro_norm() * proj_norm)
        rhs_b = max((dhat * dhat / sigma) * dy * dy / ck * factor, mfloor)
    return rhs_a, rhs_b


def outer_step(problem: ProblemData, iterate: Iterate, options: AlmOptions,
               k: int):
    """One multiplier update at penalty ``iterate.sigma``.

    The inner solve runs until the gradient norm clears the accuracy test
    evaluated at its own candidate multiplier; failed re-checks tighten the
    inner threshold (halving) and resume from the warm iterate.  Returns
    ``(new_iterate, StepInfo)``.
    """
    sigma = iterate.sigma
    y = iterate.y
    ehat = options.epshat_scale * options.epshat_ratio ** k
    dhat = options.deltahat_scale * options.deltahat_ratio ** k
    params = options.newton
    state = make_state(problem, iterate.x1, iterate.x2, y, sigma)
    # the inner gradient at acceptance becomes the dual-feasibility residual of
    # the next iterate, so cap the threshold at the termination scale; this
    # only ever tightens the summable-sequence tests
    floor = 0.5 * options.tol * (1.0 + np.linalg.norm(problem.b)
                                 + problem.H.fro_norm())
    rhs_a, rhs_b = _criterion_rhs(problem, state, y, sigma, ehat, dhat,
                                  options.use_criterion_b)
    threshold = min(rhs_a if rhs_b is None else min(rhs_a, rhs_b), floor)
    newton = 0
    krylov = 0
    accepted = False
    inner_status = ssn.CONVERGED
    x3 = None
    for _ in range(_MAX_FIXED_POINT_ROUNDS):
        if state.grad_norm == 0.0:
            accepted = True
            break
        res = run_inner(problem, y, sigma, state, max(threshold, 1e-300), params)
        newton += res.newton_iters
        krylov += res.krylov_iters
        state = res.state
        x3 = res.x3
        inner_status = res.status
        rhs_a, rhs_b = _criterion_rhs(problem, state, y, sigma, ehat, dhat,
                                      options.use_criterion_b)
        target = min(rhs_a if rhs_b is None else min(rhs_a, rhs_b), floor)
        if state.grad_norm <= target:
            accepted = True
            break
        if res.status != ssn.CONVERGED:
            break
        threshold = min(threshold * 0.5, target)
    if x3 is None:
        x3 = project(problem.cone, -state.z / sigma)
    new_iterate = Iterate(state.x1, state.x2, x3, state.proj, sigma)
    info = StepInfo(newton, krylov, state.psi, state.grad_norm, ehat, dhat,
                    rhs_a, rhs_b, y, inner_status, accepted)
    return new_iterate, info


LOG_HEADER = (f"{'it':>4} {'sigma':>11} {'psi':>17} {'gnorm':>10} {'nt':>5} "
              f"{'d1':>9} {'d2':>9} {'d3':>9} {'d4':>9}")


def format_log_line(k, sigma, psi, gnorm, newton, deltas) -> str:
    d1, d2, d3, d4 = deltas
    return (f"{k:4d} {sigma:11.4e} {psi:+17.9e} {gnorm:10.3e} {newton:5d} "
            f"{d1:9.2e} {d2:9.2e} {d3:9.2e} {d4:9.2e}")


def _emit(log, line):
    if log is None:
        return
    if callable(log):
        log(line)
    else:
        log.write(line + "\n")


@single_thread()
def solve(problem: ProblemData, options: AlmOptions | None = None,
          start: Iterate | None = None, log=None, callback=None) -> SolveResult:
    """Run the outer loop until the relative KKT residual drops below ``tol``.

    ``log`` may be a callable or a file-like object receiving the fixed-width
    per-iteration lines; ``callback(k, iterate, info, deltas)`` is invoked on
    the solving thread after every outer step (used by diagnostics and tests).

    The whole call runs with one BLAS thread in each loaded OpenBLAS (numpy
    and scipy bundle one each, and their two pools contend on few cores);
    the previous counts are restored when the last concurrent solve returns.
    The count is process-wide, so other BLAS work in the process is
    single-threaded too while a solve runs.  See :mod:`socalm.blas`.
    """
    if options is None:
        options = AlmOptions()
    t0 = time.perf_counter()
    if options.sigma0 is not None:
        sigma = float(options.sigma0)
    elif problem.is_quadratic:
        sigma = 1.0 / max(1.0, problem.H.lambda_max_estimate())
    else:
        sigma = 1.0
    if start is None:
        iterate = Iterate(np.zeros(problem.n), np.zeros(problem.m),
                          np.zeros(problem.n), np.zeros(problem.n), sigma)
    else:
        iterate = Iterate(np.asarray(start.x1, dtype=float),
                          np.asarray(start.x2, dtype=float),
                          np.asarray(start.x3, dtype=float),
                          np.asarray(start.y, dtype=float), sigma)

    lines = []
    newton_total = 0
    krylov_total = 0
    d = kkt_residuals(problem, iterate.x1, iterate.x2, iterate.x3, iterate.y)
    status = MAX_ITERATIONS
    outer = 0
    if max(d[:4]) < options.tol:
        status = OPTIMAL
    else:
        _emit(log, LOG_HEADER)
        for k in range(options.max_outer):
            iterate, info = outer_step(problem, iterate, options, k)
            outer = k + 1
            newton_total += info.newton_iters
            krylov_total += info.krylov_iters
            d = kkt_residuals(problem, iterate.x1, iterate.x2, iterate.x3,
                              iterate.y)
            line = format_log_line(k, iterate.sigma, info.psi, info.grad_norm,
                                   info.newton_iters, d[:4])
            lines.append(line)
            _emit(log, line)
            if callback is not None:
                callback(k, iterate, info, d)
            if max(d[:4]) < options.tol:
                status = OPTIMAL
                break
            if info.inner_status == ssn.LINEAR_SOLVE_FAILURE:
                status = LINEAR_SOLVE_FAILURE
                break
            if not info.accepted:
                status = STAGNATION
                break
            if d[2] > d[1]:
                iterate.sigma = min(options.sigma_growth * iterate.sigma,
                                    options.sigma_max)

    nat = float(np.linalg.norm(natural_map(
        problem, iterate.x1, iterate.x2, iterate.x3, iterate.y)))
    report = _complementarity_report(problem.cone, iterate.x3, iterate.y)
    return SolveResult(
        x1=iterate.x1, x2=iterate.x2, x3=iterate.x3, y=iterate.y,
        delta1=d[0], delta2=d[1], delta3=d[2], delta4=d[3],
        pobj=d[4], dobj=d[5], natural_map_norm=nat,
        status=status, outer_iters=outer, newton_iters=newton_total,
        krylov_iters=krylov_total, wall_time=time.perf_counter() - t0,
        complementarity=report, iteration_log=lines)


def _vector_status(v, tol, is_soc):
    nv = float(np.linalg.norm(v))
    if nv <= tol:
        return "zero"
    if is_soc:
        margin = v[0] - np.linalg.norm(v[1:])
    else:
        margin = float(np.min(v)) if v.size else 0.0
    return "interior" if margin > tol else "boundary"


def _complementarity_report(cone: ConeSpec, x3, y):
    tol = 1e-8 * (1.0 + np.linalg.norm(x3) + np.linalg.norm(y))
    report = []
    for i, blk in enumerate(cone.blocks):
        sl = cone.block_slice(i)
        v3 = x3[sl]
        vy = y[sl]
        is_soc = blk.kind == "soc"
        s3 = _vector_status(v3, tol, is_soc)
        sy = _vector_status(vy, tol, is_soc)
        w = v3 + vy
        if is_soc:
            margin = float(w[0] - np.linalg.norm(w[1:]))
        else:
            margin = float(np.min(w)) if w.size else 0.0
        strict = margin > tol
        if s3 == "boundary" and sy == "boundary":
            category = "both-boundary-nonzero"
        elif (s3 == "zero" and sy == "interior") or (sy == "zero" and s3 == "interior"):
            category = "one-interior-one-zero"
        else:
            category = "degenerate"
        report.append(BlockReport(
            block_id=i, kind=blk.kind, x3_status=s3, y_status=sy,
            category=category, strictly_complementary=strict, margin=margin,
            inner_product=float(v3 @ vy)))
    return report


def diagnose_strict_complementarity(problem: ProblemData, result) -> list:
    """Per-block strict-complementarity report at the solution in ``result``.

    A block is strictly complementary when the sum of its multiplier and
    ``x3`` parts lies in the interior of the block cone; the margin is that
    interior distance (minimum coordinate for the orthant block).
    """
    return _complementarity_report(problem.cone, np.asarray(result.x3, float),
                                   np.asarray(result.y, float))
