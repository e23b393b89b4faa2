"""Builders that reduce three applications to cone-program data.

Minimal enclosing balls, trust-region subproblems (through the eigenvalue
shift that convexifies the quadratic), and square-root Lasso regression.
Includes the deterministic pseudo-random instance generator used for the
enclosing-ball benchmark family and solution extractors that map solver
output back to each application.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.special import ndtri

from .alm import OPTIMAL, ProblemData
from .blas import single_thread
from .cone import Block, ConeSpec
from .linsys import SparseSymmetric

_PRAND_MOD = 4096
_PRAND_MUL = 445
_PRAND_DIV = 40.96


def prand_next(state: int):
    """Advance the multiplicative-congruential sequence once.

    Returns ``(next_state, value)`` with ``value = next_state / 40.96``, an
    exact dyadic rational in [0, 100).
    """
    state = int(state)
    if not 0 <= state < _PRAND_MOD:
        raise ValueError(f"state must lie in [0, {_PRAND_MOD}), got {state}")
    nxt = (_PRAND_MUL * state + 1) % _PRAND_MOD
    return nxt, nxt / _PRAND_DIV


def prand_sequence(count: int, state: int = 7) -> np.ndarray:
    """First ``count`` values of the sequence started from ``state``.

    The sequence has full period 4096 (Hull-Dobell: the increment is odd and
    the multiplier is 1 mod 4), so at most one period is stepped and the
    rest repeats it.
    """
    period = np.empty(min(count, _PRAND_MOD))
    for i in range(period.size):
        state, period[i] = prand_next(state)
    return np.resize(period, count)


@dataclass(frozen=True)
class MebInstance:
    """A family of balls: centers ``(m, d)`` and nonnegative radii ``(m,)``."""

    centers: np.ndarray
    radii: np.ndarray

    def __post_init__(self):
        if self.centers.ndim != 2 or self.radii.shape != (self.centers.shape[0],):
            raise ValueError("centers must be (m, d) with radii of length m")
        if self.centers.shape[0] <= 1:
            raise ValueError("an enclosing-ball instance needs m > 1 balls")
        if np.any(self.radii < 0):
            raise ValueError("radii must be nonnegative")

    @property
    def m(self):
        return self.centers.shape[0]

    @property
    def d(self):
        return self.centers.shape[1]


def meb_problem(instance: MebInstance) -> ProblemData:
    """Cone-program data of the enclosing-ball problem.

    Variables are ``x2 = (radius, center)`` with one Lorentz block of
    dimension d+1 per input ball; the block membership of
    ``x3_i = (R - r_i, z - c_i)`` says ball i is covered.
    """
    m, d = instance.m, instance.d
    n = m * (d + 1)
    b = np.zeros(d + 1)
    b[0] = -1.0
    packed = np.concatenate(
        [instance.radii[:, None], instance.centers], axis=1).ravel()
    c = -packed
    # one entry per column: column j holds -1 in row j mod (d+1)
    rows = np.tile(np.arange(d + 1), m)
    A = sp.csc_matrix((np.full(n, -1.0), rows, np.arange(n + 1)),
                      shape=(d + 1, n))
    cone = ConeSpec([Block("soc", d + 1) for _ in range(m)])
    return ProblemData(None, A, b, c, cone)


def gen_meb(m: int, d: int):
    """Deterministic pseudo-random enclosing-ball instance.

    The congruential sequence fills, in order, ``r_1, (c_1)_1 ... (c_1)_d,
    r_2, ...``; repeated calls with equal ``(m, d)`` are bit-identical.
    Returns ``(MebInstance, ProblemData)``.
    """
    if m <= 1:
        raise ValueError("m must exceed 1")
    if d < 1:
        raise ValueError("d must be at least 1")
    vals = prand_sequence(m * (d + 1)).reshape(m, d + 1)
    instance = MebInstance(centers=vals[:, 1:].copy(), radii=vals[:, 0].copy())
    return instance, meb_problem(instance)


def extract_meb_solution(instance: MebInstance, result):
    """Center and radius of the optimal enclosing ball from a solved result."""
    if result.status != OPTIMAL:
        raise ValueError(f"result status is {result.status}, not {OPTIMAL}")
    radius = float(result.x2[0])
    center = np.asarray(result.x2[1:], dtype=float).copy()
    return center, radius


@dataclass(frozen=True)
class TrsInstance:
    """Trust-region subproblem data with its computed eigenvalue shift."""

    H: np.ndarray
    c: np.ndarray
    lam_min: float
    shift: float
    eigvec: np.ndarray

    def objective(self, y):
        y = np.asarray(y, dtype=float)
        return float(0.5 * y @ (self.H @ y) + self.c @ y)


def _smallest_eigpair(H: np.ndarray):
    d = H.shape[0]
    if d <= 500:
        w, V = np.linalg.eigh(H)
        return float(w[0]), V[:, 0].copy()
    v0 = np.ones(d) / np.sqrt(d)
    try:
        w, V = spla.eigsh(H, k=1, which="SA", tol=1e-10, maxiter=5000, v0=v0)
    except spla.ArpackNoConvergence as err:
        raise RuntimeError("smallest-eigenvalue iteration did not converge") from err
    return float(w[0]), V[:, 0].copy()


@single_thread()
def build_trs(H, c):
    """Reduce ``min 0.5 y'Hy + c'y  s.t. ||y|| <= 1`` to cone-program data.

    ``H`` is symmetric but need not be PSD: the quadratic is shifted by
    ``min(lam_min, 0)`` (which convexifies it tightly), the ball constraint
    becomes one Lorentz block of dimension d+1 whose leading coordinate is
    pinned to 1 by the single equality row.  The solution lives in the
    equality-constrained (dual) variable of the solver.  The eigenvalue
    computation runs with one BLAS thread (:func:`socalm.blas.single_thread`),
    so the shift does not depend on the thread count.  A non-finite entry of
    ``H`` or ``c`` raises ``ValueError`` before any eigenvalue work.

    Besides the caller's ``H``, the build holds at most three d x d arrays
    at once: ``0.5 (H + H')`` (kept as ``TrsInstance.H``) with either the
    two work arrays of ``eigh`` (d <= 500) or, afterwards, the lifted
    ``blockdiag(0, H - shift I)`` and the storage's gather of its nonzeros.
    The lifted array is exactly symmetric, so it is stored without
    :meth:`SparseSymmetric.from_dense`'s check and ``0.5 (M + M')``, which
    would return it bit for bit.
    Returns ``(TrsInstance, ProblemData)``.
    """
    H = np.asarray(H, dtype=float)
    c = np.asarray(c, dtype=float).ravel()
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError("H must be a square matrix")
    d = H.shape[0]
    if c.size != d:
        raise ValueError("c length does not match H")
    for name, vals in (("H", H), ("c", c)):
        if not np.isfinite(vals).all():
            raise ValueError(f"{name} holds a non-finite value")
    scale = 1.0 + np.abs(H).max(initial=0.0)
    asym = H - H.T
    np.abs(asym, out=asym)
    if asym.max(initial=0.0) > 1e-10 * scale:
        raise ValueError("H must be symmetric")
    del asym
    S = H + H.T
    S *= 0.5
    lam_min, v = _smallest_eigpair(S)
    shift = min(lam_min, 0.0)
    instance = TrsInstance(H=S, c=c, lam_min=lam_min, shift=shift, eigvec=v)

    # blockdiag(0, S - shift I) with the per-entry operations of
    # S - shift * np.eye(d): shift * 0.0 off the diagonal (a signed zero),
    # shift * 1.0 on it
    big_h = np.zeros((d + 1, d + 1))
    np.subtract(S, shift * 0.0, out=big_h[1:, 1:])
    big_h.reshape(-1)[d + 2::d + 2] = S.diagonal() - shift * 1.0
    big_c = np.concatenate(([0.0], c))
    A = sp.csc_matrix((np.ones(1), (np.zeros(1, dtype=int), np.zeros(1, dtype=int))),
                      shape=(1, d + 1))
    cone = ConeSpec([Block("soc", d + 1)])
    storage = SparseSymmetric.__new__(SparseSymmetric)._hold(big_h)
    problem = ProblemData(storage, A, np.ones(1), big_c, cone)
    return instance, problem


def extract_trs_solution(instance: TrsInstance, result):
    """Recover the trust-region minimizer and its original objective value.

    When the quadratic needed a shift and the solver's point is interior, the
    point slides to the unit sphere along the bottom eigenvector (objective
    value can only improve there), with the sign chosen against ``c``.
    """
    if result.status != OPTIMAL:
        raise ValueError(f"result status is {result.status}, not {OPTIMAL}")
    y = np.asarray(result.y[1:], dtype=float).copy()
    ny = float(np.linalg.norm(y))
    if ny > 1.0:
        y /= ny
        ny = 1.0
    if instance.lam_min < 0.0 and ny < 1.0 - 1e-6:
        v = instance.eigvec
        if float(instance.c @ v) > 0.0:
            v = -v
        yv = float(y @ v)
        t = -yv + np.sqrt(max(yv * yv + 1.0 - ny * ny, 0.0))
        y = y + t * v
    return y, instance.objective(y)


@single_thread()
def gen_trs(d: int, seed: int = 0):
    """Deterministic synthetic trust-region instance with sign-mixed spectrum.

    ``H = (P diag(g)) P'`` with P uniform entries and g standard normal,
    produced by the documented 64-bit congruential generator; ``c`` is
    standard normal.  The product and :func:`build_trs` run with one BLAS
    thread, so the instance is the same at any BLAS thread count.  ``P`` is
    dropped once the product is formed, so generation holds at most four
    d x d arrays at once (the product and :func:`build_trs`'s three).
    Returns ``(TrsInstance, ProblemData)``.
    """
    if d < 2:
        raise ValueError("d must be at least 2")
    rng = _Lcg64(seed)
    P = rng.uniforms(d * d).reshape(d, d)
    g = np.array([rng.normal() for _ in range(d)])
    c = np.array([rng.normal() for _ in range(d)])
    H = (P * g) @ P.T
    del P
    # build_trs symmetrizes the product
    return build_trs(H, c)


class _Lcg64:
    """Knuth's 64-bit linear congruential generator with Box-Muller normals.

    uniform() returns ((state >> 11) + 0.5) / 2**53; normal() consumes two
    uniforms per pair and caches the spare.  Documented in the README so the
    synthetic instances are reproducible outside this package.  uniforms(n)
    is n calls of uniform() done in blocks of BLOCK states.
    """

    MASK = (1 << 64) - 1
    MUL = 6364136223846793005
    INC = 1442695040888963407
    BLOCK = 4096

    def __init__(self, seed):
        self.state = ((int(seed) + 1) * self.MUL + self.INC) & self.MASK
        self._spare = None
        for _ in range(8):
            self._step()

    def _step(self):
        self.state = (self.state * self.MUL + self.INC) & self.MASK
        return self.state

    def uniform(self):
        return ((self._step() >> 11) + 0.5) / 9007199254740992.0

    def uniforms(self, n):
        """The next ``n`` uniforms, leaving the state where n uniform() calls
        would.  Step j of a block maps s to A_j s + C_j with A_j = MUL^j and
        C_j = INC (MUL^(j-1) + ... + 1); uint64 arithmetic, products and sums
        alike, wraps mod 2^64, so both tables come from numpy accumulations.
        The states become floats in place, through one n-sized conversion."""
        k = min(n, self.BLOCK)
        mul = np.multiply.accumulate(np.full(k, self.MUL, dtype=np.uint64))
        powers = np.concatenate((np.ones(1, dtype=np.uint64), mul[:-1]))[:k]
        inc = np.uint64(self.INC) * np.cumsum(powers, dtype=np.uint64)
        states = np.empty(n, dtype=np.uint64)
        for i in range(0, n, self.BLOCK):
            j = min(k, n - i)
            states[i:i + j] = mul[:j] * np.uint64(self.state) + inc[:j]
            self.state = int(states[i + j - 1])
        states >>= np.uint64(11)
        u = states.astype(np.float64)
        u += 0.5
        u /= 9007199254740992.0
        return u

    def normal(self):
        if self._spare is not None:
            z, self._spare = self._spare, None
            return z
        u1 = self.uniform()
        u2 = self.uniform()
        r = np.sqrt(-2.0 * np.log(u1))
        self._spare = r * np.sin(2.0 * np.pi * u2)
        return r * np.cos(2.0 * np.pi * u2)


@dataclass(frozen=True)
class SrLassoInstance:
    """Design matrix, response, and the l1 weight of a square-root Lasso fit."""

    B: np.ndarray
    w: np.ndarray
    lam: float

    def __post_init__(self):
        if self.B.ndim != 2 or self.w.shape != (self.B.shape[0],):
            raise ValueError("B must be (m, d) with w of length m")
        if self.lam <= 0:
            raise ValueError("lam must be positive")

    def objective(self, x):
        x = np.asarray(x, dtype=float)
        return float(np.linalg.norm(self.B @ x - self.w)
                     + self.lam * np.abs(x).sum())


def build_srlasso(B, w, lam):
    """Reduce ``min ||Bx - w|| + lam ||x||_1`` to cone-program data.

    Variables stack as ``(p, q, t, z)`` with ``x = p - q`` the positive/
    negative split, ``z`` the residual and ``t`` its norm bound, giving two
    orthant blocks of size d and one Lorentz block of dimension m+1.
    Returns ``(SrLassoInstance, ProblemData)``.
    """
    B = np.asarray(B, dtype=float)
    w = np.asarray(w, dtype=float).ravel()
    lam = float(lam)
    instance = SrLassoInstance(B=B, w=w, lam=lam)
    m, d = B.shape
    n = 2 * d + m + 1
    Bs = sp.csc_matrix(B)
    A = sp.hstack(
        [Bs, -Bs, sp.csc_matrix((m, 1)), -sp.identity(m, format="csc")],
        format="csc")
    c = np.concatenate([np.full(2 * d, lam), [1.0], np.zeros(m)])
    cone = ConeSpec([Block("nonneg", 2 * d), Block("soc", m + 1)])
    return instance, ProblemData(None, A, w, c, cone)


def extract_srlasso_solution(instance: SrLassoInstance, result) -> np.ndarray:
    """Regression coefficients ``x = p - q`` from a solved result."""
    if result.status != OPTIMAL:
        raise ValueError(f"result status is {result.status}, not {OPTIMAL}")
    d = instance.B.shape[1]
    y = np.asarray(result.y, dtype=float)
    return (y[:d] - y[d:2 * d]).copy()


def lambda_from_lambda_c(lam_c: float, n: int) -> float:
    """Pivotal l1 weight ``1.1 * quantile(1 - 1/(40 n)) * lam_c``.

    The standard-normal quantile comes from a rational approximation accurate
    to well below 1e-9 absolute.
    """
    if lam_c <= 0:
        raise ValueError("lam_c must be positive")
    if n < 1:
        raise ValueError("n must be at least 1")
    return 1.1 * float(ndtri(1.0 - 1.0 / (40.0 * n))) * lam_c


def load_srlasso_csv(path):
    """Read ``(B, w)`` from a plain numeric CSV, last column the response.

    A single leading header line is skipped automatically when it does not
    parse as numbers.  Blank lines are skipped; errors name the line of the
    file.
    """
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        raw = [(ln_no, ln.strip()) for ln_no, ln in enumerate(fh, start=1)]
    raw = [(ln_no, ln) for ln_no, ln in raw if ln]
    if not raw:
        raise ValueError(f"{path}: empty file")
    start = 0
    try:
        [float(tok) for tok in raw[0][1].replace(",", " ").split()]
    except ValueError:
        start = 1
        if len(raw) < 2:
            raise ValueError(f"{path}: only a header line present")
    width = None
    for ln_no, line in raw[start:]:
        toks = line.replace(",", " ").split()
        try:
            vals = [float(t) for t in toks]
        except ValueError as err:
            raise ValueError(f"{path}: line {ln_no}: non-numeric entry") from err
        if width is None:
            width = len(vals)
            if width < 2:
                raise ValueError(f"{path}: need at least one feature column")
        elif len(vals) != width:
            raise ValueError(
                f"{path}: line {ln_no}: expected {width} columns, got {len(vals)}")
        rows.append(vals)
    data = np.asarray(rows, dtype=float)
    return data[:, :-1].copy(), data[:, -1].copy()
