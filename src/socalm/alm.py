"""Outer inexact augmented Lagrangian loop with implementable stopping tests.

Each outer step minimizes the inner function to an accuracy driven by the
summable-sequence criteria, then updates the multiplier through the cached
cone projection; complementarity between ``x3`` and the multiplier therefore
holds exactly at every iterate.  Termination is on the maximum of four
relative KKT residuals.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import ssn
from .blas import single_thread
from .cone import ConeSpec, project
from .linsys import NewtonAssembly, SparseSymmetric, canonical_csc
from .ssn import NewtonParams, make_state, run_inner

OPTIMAL = "Optimal"
MAX_ITERATIONS = "MaxIterations"
INNER_MAX_ITERATIONS = "InnerMaxIterations"
STAGNATION = "Stagnation"
LINEAR_SOLVE_FAILURE = "LinearSolveFailure"

# The accuracy sequences epshat_k = _EPSHAT_SCALE * _EPSHAT_RATIO**k and
# deltahat_k (alike) are geometric, hence summable.  Their decay is
# deliberately mild: with an aggressive ratio the inner accuracy demand
# eventually outruns what double precision can deliver at large penalty
# values, and late outer steps stall.
_EPSHAT_SCALE = 1.0
_EPSHAT_RATIO = 0.9
_DELTAHAT_SCALE = 1.0
_DELTAHAT_RATIO = 0.9
# the penalty starts at _SIGMA0 and grows by _SIGMA_GROWTH, up to the cap,
# after an outer step that leaves primal infeasibility above complementarity
_SIGMA0 = 1.0
_SIGMA_GROWTH = 3.0
_SIGMA_MAX = 1e8
_NEWTON = NewtonParams()


class ProblemData:
    """Problem instance ``(H, A, b, c, cone)``.

    Every entry of ``H``, ``A``, ``b`` and ``c`` must be finite; a
    non-finite one raises ``ValueError`` naming its field.  ``H`` must be
    symmetric positive semidefinite (symmetry is enforced at
    construction; definiteness is a documented trust assumption, violations
    surface as inner line-search failures).  ``A`` is held once, canonical
    CSC (:func:`~socalm.linsys.canonical_csc`).  ``assembly`` shares it and
    serves :meth:`matvec` and :meth:`rmatvec`: from the one block every
    Lorentz block repeats when there is one
    (:func:`~socalm.linsys.shared_block`), else from ``A`` and its transpose
    view, skipping zero columns of a sparse ``v`` in ``A v`` and computing
    an orthant half that is the other half negated once in ``A' v``
    (:class:`~socalm.linsys.NewtonAssembly`).  It builds the linear-case
    Newton structure of ``(A, cone)`` at the first Newton step that needs
    it.
    """

    def __init__(self, H, A, b, c, cone: ConeSpec):
        self.cone = cone
        n = cone.total_dim
        self.A = canonical_csc(A)
        self.b = np.asarray(b, dtype=float).ravel()
        self.c = np.asarray(c, dtype=float).ravel()
        if H is None:
            H = SparseSymmetric(n)
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
        Hd = self.H.dense_copy()
        for name, vals in (("A", self.A.data), ("b", self.b), ("c", self.c),
                           ("H", self.H.to_csr().data if Hd is None else Hd)):
            if not np.isfinite(vals).all():
                raise ValueError(f"{name} holds a non-finite value")
        self.m = self.A.shape[0]
        self.n = n
        self.is_quadratic = not self.H.is_zero
        self.a_fro = float(np.sqrt((self.A.data ** 2).sum())) if self.A.nnz else 0.0
        self.assembly = NewtonAssembly(self.A, cone)

    def matvec(self, v) -> np.ndarray:
        """``A v`` (:meth:`NewtonAssembly.matvec`)."""
        return self.assembly.matvec(v)

    def rmatvec(self, v) -> np.ndarray:
        """``A' v``, with the bits of ``A.T @ v``
        (:meth:`NewtonAssembly.rmatvec`)."""
        return self.assembly.rmatvec(v)

    def __repr__(self):
        kind = "quadratic" if self.is_quadratic else "linear"
        return f"ProblemData(m={self.m}, n={self.n}, {kind}, {self.cone!r})"


@dataclass
class AlmOptions:
    """Solver options: the KKT tolerance, the outer step budget, and whether
    the rate-targeting accuracy test is enforced as well."""

    tol: float = 1e-8
    max_outer: int = 100
    use_criterion_b: bool = False

    def __post_init__(self):
        if not (np.isfinite(self.tol) and self.tol > 0):
            raise ValueError("tol must be positive and finite")
        if not (isinstance(self.max_outer, (int, np.integer))
                and self.max_outer >= 0):
            raise ValueError("max_outer must be a non-negative integer")


@dataclass
class Iterate:
    """An outer iterate.  ``Hx1`` and ``Hy``, when set, are ``H x1`` and
    ``H y`` as the inner solve formed them; a solve sets them on the
    iterates it makes, and leaves None where it has not formed them."""

    x1: np.ndarray
    x2: np.ndarray
    x3: np.ndarray
    y: np.ndarray
    sigma: float
    Hx1: np.ndarray | None = field(default=None, repr=False, compare=False)
    Hy: np.ndarray | None = field(default=None, repr=False, compare=False)


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
    wall_time: float
    complementarity: list
    iteration_log: list
    # what the solve did, totalled over its Newton steps (ssn.InnerResult);
    # a count never taken reads 0
    counts: Counter = field(default_factory=Counter)
    # every linear solve is direct; result-file format 1 still has the line
    krylov_iters = 0

    @property
    def kkt_residual(self):
        return max(self.delta1, self.delta2, self.delta3, self.delta4)


def kkt_residuals(problem: ProblemData, x1, x2, x3, y, Hx1=None, Hy=None):
    """Relative KKT residuals and the objective pair.

    Returns ``(d1, d2, d3, d4, pobj, dobj)``: dual feasibility, cone
    complementarity, primal feasibility, and the relative objective gap.
    ``Hx1`` and ``Hy``, when given, are ``H x1`` and ``H y`` and are not
    formed again; the linear case reads neither.
    """
    Ay_b = problem.matvec(y) - problem.b
    if problem.is_quadratic:
        Hx1y = problem.H.matvec(x1 - y)
        h_fro = problem.H.fro_norm()
        Hx1, Hy = _h_products(problem, x1, y, Hx1, Hy)
        quad_x = 0.5 * float(x1 @ Hx1)
        quad_y = 0.5 * float(y @ Hy)
    else:
        Hx1y = h_fro = quad_x = quad_y = Hx1 = 0.0
    d1 = np.sqrt(np.linalg.norm(Ay_b) ** 2 + np.linalg.norm(Hx1y) ** 2)
    d1 /= 1.0 + np.linalg.norm(problem.b) + h_fro
    d2 = np.linalg.norm(x3 - project(problem.cone, x3 - y))
    d2 /= 1.0 + np.linalg.norm(y) + np.linalg.norm(x3)
    d3 = np.linalg.norm(-Hx1 + problem.rmatvec(x2) + x3 - problem.c)
    d3 /= 1.0 + np.linalg.norm(problem.c)
    pobj = quad_x - float(problem.b @ x2)
    dobj = -quad_y - float(problem.c @ y)
    d4 = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
    return float(d1), float(d2), float(d3), float(d4), pobj, dobj


def _h_products(problem, x1, y, Hx1, Hy):
    """``(H x1, H y)``, forming only those not given."""
    return (problem.H.matvec(x1) if Hx1 is None else Hx1,
            problem.H.matvec(y) if Hy is None else Hy)


def natural_map(problem: ProblemData, x1, x2, x3, y, Hx1=None,
                Hy=None) -> np.ndarray:
    """Stacked fixed-point residual whose zeros are exactly the KKT points:
    ``(H x1 - H y, A y - b, x3 - P_K(x3 - y), H x1 - A' x2 - x3 + c)``.
    ``Hx1`` and ``Hy`` are taken as in :func:`kkt_residuals`."""
    if problem.is_quadratic:
        Hx1, Hy = _h_products(problem, x1, y, Hx1, Hy)
        top = Hx1 - Hy
    else:
        Hx1 = 0.0
        top = np.zeros(problem.n)
    return np.concatenate([
        top, problem.matvec(y) - problem.b,
        x3 - project(problem.cone, x3 - y),
        Hx1 - problem.rmatvec(x2) - x3 + problem.c])


@dataclass
class StepInfo:
    """Bookkeeping of one outer step (counters and the realized criteria),
    read at the state its one inner solve returned.  ``counts`` are that
    solve's counts (:class:`~socalm.ssn.InnerResult`)."""

    newton_iters: int
    psi: float
    grad_norm: float
    epshat: float
    deltahat: float
    criterion_b_rhs: float | None
    y_prev: np.ndarray
    inner_status: str
    accepted: bool
    counts: Counter


def _criterion_rhs(problem, state, y_prev, sigma, ehat, dhat, use_b, floor):
    """The accuracy target at the candidate and the rate-targeting test's
    right-hand side.

    Returns ``(target, rhs_b)``: ``target`` is the least of the
    summable-sequence test's right-hand side, ``rhs_b`` (None unless
    ``use_b``) and ``floor``.  The rate-targeting test shrinks quadratically
    in the multiplier step and eventually drops below what double precision
    can certify, so it is floored at a roundoff-scale estimate of the
    attainable gradient norm; the summable-sequence test is never relaxed.
    """
    yplus = state.proj
    x_norm = np.sqrt(
        state.x1 @ state.x1 + state.x2 @ state.x2 + yplus @ yplus)
    ck = 1.0 + x_norm + np.linalg.norm(yplus)
    hy = np.linalg.norm(state.Hproj) if problem.is_quadratic else 0.0
    dy = float(np.linalg.norm(yplus - y_prev))
    factor = min(1.0, 1.0 / (hy + dy / sigma + 1.0 / sigma))
    rhs_a = (ehat * ehat / sigma) / ck * factor
    if not use_b:
        return min(rhs_a, floor), None
    proj_norm = float(np.linalg.norm(yplus))
    mfloor = 50 * np.finfo(float).eps * (
        1.0 + problem.a_fro * proj_norm + np.linalg.norm(problem.b)
        + problem.H.fro_norm() * proj_norm)
    rhs_b = max((dhat * dhat / sigma) * dy * dy / ck * factor, mfloor)
    return min(rhs_a, rhs_b, floor), rhs_b


def outer_step(problem: ProblemData, iterate: Iterate, options: AlmOptions,
               k: int):
    """One multiplier update at penalty ``iterate.sigma``.

    One inner solve from the warm iterate stops at the first state whose
    gradient norm is at most both the threshold set at the start state and
    the accuracy test evaluated at that state's own candidate multiplier;
    the cheap comparison with the threshold comes first.  The step is
    accepted when the returned state passes the accuracy test, so one outer
    step takes at most ``NewtonParams.max_newton_iters`` Newton steps.
    Returns ``(new_iterate, StepInfo)``.
    """
    sigma = iterate.sigma
    y = iterate.y
    ehat = _EPSHAT_SCALE * _EPSHAT_RATIO ** k
    dhat = _DELTAHAT_SCALE * _DELTAHAT_RATIO ** k
    state = make_state(problem, iterate.x1, iterate.x2, y, sigma,
                       Hx1=iterate.Hx1)
    # the inner gradient at acceptance becomes the dual-feasibility residual of
    # the next iterate, so cap the threshold at the termination scale; this
    # only ever tightens the summable-sequence tests
    floor = 0.5 * options.tol * (1.0 + np.linalg.norm(problem.b)
                                 + problem.H.fro_norm())

    def rhs(st):
        return _criterion_rhs(problem, st, y, sigma, ehat, dhat,
                              options.use_criterion_b, floor)

    threshold = rhs(state)[0]
    res = run_inner(problem, y, sigma, state,
                    lambda st: (st.grad_norm <= threshold
                                and st.grad_norm <= rhs(st)[0]), _NEWTON)
    state = res.state
    target, rhs_b = rhs(state)
    new_iterate = Iterate(state.x1, state.x2, res.x3, state.proj, sigma,
                          state.Hx1, state.Hproj)
    info = StepInfo(res.newton_iters, state.psi, state.grad_norm, ehat, dhat,
                    rhs_b, y, res.status, state.grad_norm <= target,
                    res.counts)
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

    A cold start begins at the origin with penalty 1, a warm ``start`` at
    its own point and ``sigma``: ``sigma`` positive and finite, and
    ``x1``, ``x2``, ``x3`` and ``y`` finite vectors of lengths n, m, n and
    n; anything else raises ``ValueError`` naming the field.
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
    if start is None:
        # zero pages take no memory until written, and x1 never is if linear
        iterate = Iterate(np.zeros(problem.n), np.zeros(problem.m),
                          np.zeros(problem.n), np.zeros(problem.n), _SIGMA0)
    else:
        sigma = float(start.sigma)
        if not (np.isfinite(sigma) and sigma > 0):
            raise ValueError("start.sigma must be positive and finite")
        # copies: in the linear case x1 never moves, so the result's x1
        # would otherwise be the caller's own array
        vecs = []
        for name, size in (("x1", problem.n), ("x2", problem.m),
                           ("x3", problem.n), ("y", problem.n)):
            v = np.array(getattr(start, name), dtype=float)
            if v.shape != (size,):
                raise ValueError(
                    f"start.{name} has shape {v.shape}, expected ({size},)")
            if not np.isfinite(v).all():
                raise ValueError(f"start.{name} holds a non-finite value")
            vecs.append(v)
        iterate = Iterate(*vecs, sigma)

    lines = []
    newton_total = 0
    counts = Counter()
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
            counts.update(info.counts)
            d = kkt_residuals(problem, iterate.x1, iterate.x2, iterate.x3,
                              iterate.y, iterate.Hx1, iterate.Hy)
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
                status = (INNER_MAX_ITERATIONS
                          if info.inner_status == ssn.MAX_ITERS else STAGNATION)
                break
            if d[2] > d[1]:
                iterate.sigma = min(_SIGMA_GROWTH * iterate.sigma, _SIGMA_MAX)

    nat = float(np.linalg.norm(natural_map(
        problem, iterate.x1, iterate.x2, iterate.x3, iterate.y, iterate.Hx1,
        iterate.Hy)))
    report = _complementarity_report(problem.cone, iterate.x3, iterate.y)
    return SolveResult(
        x1=iterate.x1, x2=iterate.x2, x3=iterate.x3, y=iterate.y,
        delta1=d[0], delta2=d[1], delta3=d[2], delta4=d[3],
        pobj=d[4], dobj=d[5], natural_map_norm=nat,
        status=status, outer_iters=outer, newton_iters=newton_total,
        wall_time=time.perf_counter() - t0,
        complementarity=report, iteration_log=lines, counts=counts)


_STATUSES = ("zero", "boundary", "interior")


def _rowdot(X, Y):
    """``X[i] @ Y[i]`` for every row, with the bits of the 1-D product.

    The stacked matmul takes one BLAS dot per row, as ``@`` and
    ``np.linalg.norm`` of a vector do, so the report matches a per-block
    evaluation exactly.
    """
    return np.matmul(X[:, None, :], Y[:, :, None])[:, 0, 0]


def _soc_margins(V):
    """``v0 - ||vt||`` of every row of ``V``."""
    return V[:, 0] - np.sqrt(_rowdot(V[:, 1:], V[:, 1:]))


def _status_codes(norms, margins, tol):
    """Index into ``_STATUSES``: zero, else interior or boundary by margin."""
    return np.where(norms <= tol, 0, np.where(margins > tol, 2, 1))


def _complementarity_report(cone: ConeSpec, x3, y):
    tol = 1e-8 * (1.0 + np.linalg.norm(x3) + np.linalg.norm(y))
    w = x3 + y
    nblocks = len(cone.blocks)
    s3 = np.zeros(nblocks, dtype=np.int64)
    sy = np.zeros(nblocks, dtype=np.int64)
    margin = np.zeros(nblocks)
    inner = np.zeros(nblocks)
    for g in cone.soc_groups:
        X, Y = g.gather(x3), g.gather(y)
        ids = g.block_ids
        s3[ids] = _status_codes(np.sqrt(_rowdot(X, X)), _soc_margins(X), tol)
        sy[ids] = _status_codes(np.sqrt(_rowdot(Y, Y)), _soc_margins(Y), tol)
        margin[ids] = _soc_margins(g.gather(w))
        inner[ids] = _rowdot(X, Y)
    for i, blk in enumerate(cone.blocks):
        if blk.kind != "soc":
            sl = cone.block_slice(i)
            v3, vy, vw = x3[sl], y[sl], w[sl]
            lows = [float(np.min(v)) if v.size else 0.0 for v in (v3, vy, vw)]
            s3[i] = _status_codes(np.linalg.norm(v3), lows[0], tol)
            sy[i] = _status_codes(np.linalg.norm(vy), lows[1], tol)
            margin[i] = lows[2]
            inner[i] = v3 @ vy
    categories = np.full(nblocks, "degenerate", dtype=object)
    categories[(s3 == 1) & (sy == 1)] = "both-boundary-nonzero"
    categories[(np.minimum(s3, sy) == 0) & (np.maximum(s3, sy) == 2)] = \
        "one-interior-one-zero"
    return [BlockReport(
        block_id=i, kind=blk.kind, x3_status=_STATUSES[a],
        y_status=_STATUSES[b], category=cat, strictly_complementary=mg > tol,
        margin=mg, inner_product=ip)
        for i, (blk, a, b, cat, mg, ip) in enumerate(zip(
            cone.blocks, s3.tolist(), sy.tolist(), categories.tolist(),
            margin.tolist(), inner.tolist()))]


def diagnose_strict_complementarity(problem: ProblemData, result) -> list:
    """Per-block strict-complementarity report at the solution in ``result``.

    A block is strictly complementary when the sum of its multiplier and
    ``x3`` parts lies in the interior of the block cone; the margin is that
    interior distance (minimum coordinate for the orthant block).
    """
    return _complementarity_report(problem.cone, np.asarray(result.x3, float),
                                   np.asarray(result.y, float))
