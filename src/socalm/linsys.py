"""Structured Newton linear systems: assembly and direct solves.

The inner Newton matrix for the linear case is ``eps*I + sum_i A_i V_i A_i'``
with V one generalized-Jacobian element of the cone projection.  Each Lorentz
block splits into a scaled ``A_i A_i'`` part plus at most two rank-one columns,
so the whole operator is a symmetric matrix ``M_sp`` plus a tall-skinny
low-rank update.

Assembly goes through a per-problem :class:`NewtonAssembly`, built on first
use.  It keeps every Lorentz block's ``A_i A_i'`` on one fixed pattern, so the
Lorentz part of ``M_sp`` is a single sparse mat-vec with the block weights,
and forms the nonneg block's Gram from its active columns only, with BLAS when
those columns are stored dense.  ``M_sp`` is stored dense (a CSR matrix that
keeps every entry) when that takes no more memory than its sparse pattern.

The linear case has one direct solve path: factor ``M_sp`` (dense Cholesky
when it is stored dense, sparse LU otherwise) and add the k low-rank columns
(k may be 0) through the Schur complement of an augmented system.  Only when
the update is at least as wide as the system is the whole matrix densified
instead.  A solve that still misses its tolerance after two refinement steps
raises :class:`LinearSolveError`.

The quadratic case solves the unsymmetric two-by-two block system, for any H.
When H is stored dense (its lazily built :meth:`SparseSymmetric.dense_copy`)
and the system has at most 2000 rows, the blocks are formed from the diagonal
and low-rank parts of V with dense products into one array and factored by
LAPACK LU in place; otherwise the assembled sparse block matrix goes to
sparse LU when it is small or sparse enough.  BiCGStab is the fallback of
both and the only route for a large, dense enough block matrix.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .cone import JacobianElement, SocCase

# low-rank eigenvalue below this is dropped from the update (rank degenerates)
_DROP_TOL = 1e-14
_TINY = 1e-300
# column-pair products held at once while the Lorentz block Grams are built
_PAIR_CHUNK = 1 << 18


class LinearSolveError(RuntimeError):
    """A linear solve did not reach its residual tolerance."""

    def __init__(self, message, x=None, residual=None, iterations=0):
        super().__init__(message)
        self.x = x
        self.residual = residual
        self.iterations = iterations


class SparseSymmetric:
    """Symmetric matrix stored as coordinate entries of its lower triangle.

    Duplicate coordinates are summed during assembly; the realized matrix is
    symmetric by construction.
    """

    def __init__(self, n, rows=(), cols=(), vals=()):
        n = int(n)
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=float)
        if not (rows.shape == cols.shape == vals.shape):
            raise ValueError("rows, cols, vals must have equal length")
        if rows.size:
            if rows.min() < 0 or rows.max() >= n or cols.min() < 0 or cols.max() >= n:
                raise ValueError("index out of range")
            if np.any(rows < cols):
                raise ValueError("entries must lie in the lower triangle (row >= col)")
        low = sp.coo_matrix((vals, (rows, cols)), shape=(n, n))
        low.sum_duplicates()
        low.eliminate_zeros()
        self.n = n
        self.rows = low.row.copy()
        self.cols = low.col.copy()
        self.vals = low.data.copy()
        strict = low.row != low.col
        upper = sp.coo_matrix(
            (low.data[strict], (low.col[strict], low.row[strict])), shape=(n, n))
        self._csr = (low.tocsr() + upper.tocsr()).tocsr()
        self._fro = None
        self._lam_max = None
        self._dense = None

    @classmethod
    def zero(cls, n):
        return cls(n)

    @classmethod
    def from_dense(cls, M, sym_tol=1e-10):
        M = np.asarray(M, dtype=float)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ValueError("matrix must be square")
        scale = 1.0 + np.abs(M).max(initial=0.0)
        if np.abs(M - M.T).max(initial=0.0) > sym_tol * scale:
            raise ValueError("matrix is not symmetric")
        S = 0.5 * (M + M.T)
        r, c = np.nonzero(np.tril(S))
        return cls(M.shape[0], r, c, S[r, c])

    @classmethod
    def from_sparse(cls, M, sym_tol=1e-10):
        M = sp.csr_matrix(M)
        if M.shape[0] != M.shape[1]:
            raise ValueError("matrix must be square")
        scale = 1.0 + (np.abs(M.data).max() if M.nnz else 0.0)
        diff = (M - M.T).tocoo()
        if diff.nnz and np.abs(diff.data).max() > sym_tol * scale:
            raise ValueError("matrix is not symmetric")
        S = (0.5 * (M + M.T)).tocoo()
        keep = S.row >= S.col
        return cls(M.shape[0], S.row[keep], S.col[keep], S.data[keep])

    @property
    def nnz_lower(self):
        return self.vals.size

    @property
    def is_zero(self):
        return self.vals.size == 0

    def to_csr(self):
        return self._csr

    def matvec(self, v):
        """``H v``, through the dense copy when :meth:`dense_copy` keeps one."""
        dense = self.dense_copy()
        return (self._csr if dense is None else dense) @ v

    def quad(self, v):
        """Quadratic form <v, H v>."""
        return float(v @ self.matvec(v))

    def fro_norm(self):
        if self._fro is None:
            self._fro = float(sp.linalg.norm(self._csr, "fro"))
        return self._fro

    def lambda_max_estimate(self):
        if self._lam_max is None:
            self._lam_max = estimate_lambda_max(self)
        return self._lam_max

    def dense_copy(self):
        """Read-only dense array of the matrix, or None when CSR is smaller.

        Built on the first call that finds dense storage no larger than the
        CSR form (see :func:`_dense_is_smaller`) and kept.
        """
        if self._dense is None and _dense_is_smaller(self.n, self.n,
                                                     self._csr.nnz):
            dense = self._csr.toarray()
            dense.flags.writeable = False
            self._dense = dense
        return self._dense

    def __repr__(self):
        return f"SparseSymmetric(n={self.n}, nnz_lower={self.nnz_lower})"


def estimate_lambda_max(H: SparseSymmetric) -> float:
    """Upper estimate of the largest eigenvalue of a PSD symmetric matrix.

    Power iteration (at most 50 steps, relative tolerance 1e-4) scaled by a
    1.2 safety factor, capped by the infinity-norm row bound.  Returns 0 for
    the zero matrix.
    """
    if H.is_zero:
        return 0.0
    Hc = H.to_csr()
    inf_bound = float(np.abs(Hc).sum(axis=1).max())
    n = H.n
    v = np.ones(n) / np.sqrt(n)
    lam = 0.0
    for _ in range(50):
        w = Hc @ v
        nw = np.linalg.norm(w)
        if nw == 0.0:
            # started in the null space; restart from the heaviest diagonal
            j = int(np.argmax(np.abs(Hc.diagonal())))
            v = np.zeros(n)
            v[j] = 1.0
            continue
        lam_new = float(v @ w)
        v = w / nw
        if abs(lam_new - lam) <= 1e-4 * max(abs(lam_new), 1e-30):
            lam = lam_new
            break
        lam = lam_new
    return float(min(1.2 * max(lam, 0.0), inf_bound))


@dataclass
class SolveStats:
    method: str
    iterations: int = 0
    residual: float = 0.0


def _jacobian_scale(J: JacobianElement) -> np.ndarray:
    """Per-coordinate weights of the diagonal part of V."""
    cone = J.cone
    s = np.zeros(cone.total_dim)
    if cone.nonneg_dim:
        a = cone.nonneg_start
        s[a:a + cone.nonneg_dim] = J.nonneg_mask
    for gj in J.soc:
        g = gj.group
        blk = 0.5 * (1.0 + gj.rho)
        g.scatter(s, np.broadcast_to(blk[:, None], (g.count, g.dim)).copy())
    return s


def _jacobian_lowrank(J: JacobianElement):
    """Low-rank remainder of V: returns ``(W, d)`` with V = diag(s) + W diag(d) W'.

    Each middle-type Lorentz block contributes the two orthonormal columns
    (e0 +- (0, w))/sqrt(2) with weights (1 - r)/2 and -(1 + r)/2; weights of
    magnitude below 1e-14 (the boundary degeneracies) are dropped.
    """
    n = J.cone.total_dim
    rows_parts, cols_parts, vals_parts, d_parts = [], [], [], []
    k = 0
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for gj in J.soc:
        g = gj.group
        sel = np.nonzero(gj.codes >= SocCase.MIDDLE)[0]
        if not sel.size:
            continue
        starts = g.starts[sel]
        rho = gj.rho[sel]
        omega = gj.omega[sel]
        for sign, lam in ((1.0, 0.5 * (1.0 - rho)), (-1.0, -0.5 * (1.0 + rho))):
            keep = np.nonzero(np.abs(lam) > _DROP_TOL)[0]
            if not keep.size:
                continue
            nb = keep.size
            rmat = starts[keep, None] + np.arange(g.dim)[None, :]
            vmat = np.empty((nb, g.dim))
            vmat[:, 0] = inv_sqrt2
            vmat[:, 1:] = sign * inv_sqrt2 * omega[keep]
            rows_parts.append(rmat.ravel())
            cols_parts.append(np.repeat(k + np.arange(nb), g.dim))
            vals_parts.append(vmat.ravel())
            d_parts.append(lam[keep])
            k += nb
    if k == 0:
        return sp.csc_matrix((n, 0)), np.zeros(0)
    W = sp.csc_matrix(
        (np.concatenate(vals_parts),
         (np.concatenate(rows_parts), np.concatenate(cols_parts))),
        shape=(n, k))
    return W, np.concatenate(d_parts)


def jacobian_sparse_matrix(J: JacobianElement) -> sp.csr_matrix:
    """Realize V as a sparse matrix (diagonal plus low-rank columns)."""
    V = sp.diags(_jacobian_scale(J), format="csr")
    W, d = _jacobian_lowrank(J)
    if d.size:
        V = (V + (W.multiply(d[None, :]) @ W.T)).tocsr()
    return V


@dataclass
class NewtonSystem:
    """The operator ``M_sp + U diag(d) U'`` of ``eps*I_m + sum_i A_i V_i A_i'``.

    ``M_sp`` is the symmetric part (a CSR matrix that stores every entry when
    it is dense), ``U`` the m x k low-rank columns and ``d`` their weights.
    """

    m: int
    M_sp: sp.csr_matrix
    U: sp.csc_matrix
    d: np.ndarray

    @property
    def k(self):
        return int(self.d.size)

    def matvec(self, v):
        out = self.M_sp @ v
        if self.k:
            out = out + self.U @ (self.d * (self.U.T @ v))
        return out

    def densify(self):
        M = self.M_sp.toarray()
        if self.k:
            Ud = self.U.toarray()
            M = M + (Ud * self.d) @ Ud.T
        return M


def _dense_is_smaller(rows, cols, nnz):
    """Whether dense storage of a matrix takes no more memory than CSR.

    Counts 8-byte values and 4-byte indices.
    """
    return 8 * rows * cols <= 12 * nnz + 4 * (rows + 1)


def _column_pairs(Ac, cols):
    """Ordered pairs of nonzeros that share a column, over the given columns.

    Returns ``(left, right, owner)``: positions in ``Ac.data`` of the two
    nonzeros of each pair and the index into ``cols`` of their column.
    """
    cnt = np.diff(Ac.indptr)[cols]
    start = Ac.indptr[cols]
    nz_col = np.repeat(np.arange(cols.size), cnt)
    nz = np.repeat(start - (np.cumsum(cnt) - cnt), cnt) + np.arange(nz_col.size)
    reps = cnt[nz_col]
    left = np.repeat(nz, reps)
    right = (np.repeat(start[nz_col] - (np.cumsum(reps) - reps), reps)
             + np.arange(left.size))
    return left, right, np.repeat(nz_col, reps)


def _block_grams(Ac, block_of_col, nblocks):
    """Every Lorentz block's ``A_b A_b'`` on one pattern that holds the diagonal.

    Returns ``(keys, G)``: the pattern as sorted row-major positions
    ``r*m + c`` and ``G[p, b] = (A_b A_b')[keys[p]]``.  Column pairs are
    expanded in chunks of at most ``_PAIR_CHUNK`` products (or one column).
    """
    m = Ac.shape[0]
    counts = np.diff(Ac.indptr)
    cols = np.flatnonzero((block_of_col >= 0) & (counts > 0))
    pairs = np.cumsum(counts[cols].astype(np.int64) ** 2)
    total = int(pairs[-1]) if pairs.size else 0
    cuts = np.searchsorted(pairs, np.arange(_PAIR_CHUNK, total, _PAIR_CHUNK),
                           side="right")
    keys, blks, vals = [], [], []
    for chunk in np.split(cols, cuts):
        if not chunk.size:
            continue
        left, right, owner = _column_pairs(Ac, chunk)
        key = Ac.indices[left].astype(np.int64) * m + Ac.indices[right]
        ukey, inv = np.unique(key, return_inverse=True)
        part = sp.coo_matrix(
            (Ac.data[left] * Ac.data[right], (inv, block_of_col[chunk][owner])),
            shape=(ukey.size, nblocks))
        part.sum_duplicates()
        keys.append(ukey[part.row])
        blks.append(part.col)
        vals.append(part.data)
    diag = np.arange(m, dtype=np.int64) * (m + 1)
    key = np.concatenate(keys + [np.zeros(0, np.int64)])
    pattern = np.union1d(key, diag)
    G = sp.coo_matrix(
        (np.concatenate(vals + [np.zeros(0)]),
         (np.searchsorted(pattern, key), np.concatenate(blks + [np.zeros(0, int)]))),
        shape=(pattern.size, nblocks)).tocsr()
    return pattern, G


@dataclass(frozen=True)
class _GramStructure:
    """What :class:`NewtonAssembly` keeps between assemblies."""

    keys: np.ndarray         # row-major positions r*m + c of the Lorentz pattern
    indptr: np.ndarray       # that pattern in CSR form
    indices: np.ndarray
    diag: np.ndarray         # positions of the diagonal among ``keys``
    G: sp.csr_matrix         # G[p, b] = (A_b A_b')[keys[p]], one column per block
    Ac: sp.csc_matrix        # A by columns, for the low-rank columns A @ W
    A0t: np.ndarray | sp.csr_matrix | None  # nonneg columns of A, transposed
    full: tuple | None       # (indptr, indices) of a full pattern when M is dense


class NewtonAssembly:
    """Per-problem structure of the linear-case Newton matrix.

    Nothing is computed at construction.  The first :meth:`assemble` builds
    the Lorentz block Grams, the storage of the nonneg columns and the
    storage decision for ``M_sp``, once, under a lock; every later call
    reuses them.  The structure is never modified once built, so threads may
    assemble concurrently.  A pickled copy starts unbuilt.
    """

    def __init__(self, A, cone):
        self.A = sp.csr_matrix(A)
        self.cone = cone
        if self.A.shape[1] != cone.total_dim:
            raise ValueError(
                f"A has {self.A.shape[1]} columns, cone total_dim is "
                f"{cone.total_dim}")
        self._structure = None
        self._lock = threading.Lock()

    def __reduce__(self):
        return NewtonAssembly, (self.A, self.cone)

    def _build(self) -> _GramStructure:
        A, cone = self.A, self.cone
        m = A.shape[0]
        Ac = A.tocsc()
        block_of_col = np.full(cone.total_dim, -1, dtype=np.int64)
        nblocks = 0
        for g in cone.soc_groups:
            ids = nblocks + np.arange(g.count)
            g.scatter(block_of_col, np.broadcast_to(ids[:, None], (g.count, g.dim)))
            nblocks += g.count
        keys, G = _block_grams(Ac, block_of_col, nblocks)
        rows, cols = np.divmod(keys, m)
        indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=m))))
        diag = np.searchsorted(keys, np.arange(m, dtype=np.int64) * (m + 1))

        # nnz of M when every block is active decides its storage
        A0t = None
        nnz_full = keys.size
        if cone.nonneg_dim:
            s = cone.nonneg_start
            A0 = Ac[:, s:s + cone.nonneg_dim]
            if _dense_is_smaller(m, A0.shape[1], A0.nnz):
                A0t = A0.T.toarray()
                used = np.any(A0t != 0.0, axis=0)
                nnz_full = (int(used.sum()) ** 2
                            + int(np.count_nonzero(~(used[rows] & used[cols]))))
            elif A0.nnz:
                A0t = A0.T.tocsr()
                P = (abs(A0) @ abs(A0t)).tocoo()
                nnz_full = np.union1d(keys, P.row.astype(np.int64) * m + P.col).size
        full = None
        if _dense_is_smaller(m, m, nnz_full):
            F = sp.csr_matrix(np.ones((m, m)))
            full = (F.indptr, F.indices)
        return _GramStructure(keys, indptr, cols, diag, G, Ac, A0t, full)

    def assemble(self, J: JacobianElement, eps) -> NewtonSystem:
        """The Newton system ``eps*I + sum_i A_i V_i A_i'`` at one element J."""
        if J.cone is not self.cone and J.cone != self.cone:
            raise ValueError("Jacobian element belongs to a different cone")
        st = self._structure
        if st is None:
            with self._lock:
                if self._structure is None:
                    self._structure = self._build()
                st = self._structure
        m = self.A.shape[0]
        w = np.concatenate([0.5 * (1.0 + gj.rho) for gj in J.soc] + [np.zeros(0)])
        lorentz = st.G @ w
        lorentz[st.diag] += eps
        gram0 = None
        if st.A0t is not None:
            X = st.A0t[np.flatnonzero(J.nonneg_mask)]
            if X.shape[0]:
                gram0 = X.T @ X
        if st.full is not None:
            M = np.zeros((m, m)) if gram0 is None else gram0
            if sp.issparse(M):
                M = M.toarray(order="C")
            M.reshape(-1)[st.keys] += lorentz
            M_sp = sp.csr_matrix((M.reshape(-1), st.full[1], st.full[0]),
                                 shape=(m, m))
        else:
            M_sp = sp.csr_matrix((lorentz, st.indices, st.indptr), shape=(m, m))
            if gram0 is not None:
                M_sp = (M_sp + sp.csr_matrix(gram0)).tocsr()
        W, d = _jacobian_lowrank(J)
        if d.size:
            # by columns the product touches only the columns W selects
            U = st.Ac @ W
            U.sort_indices()
        else:
            U = sp.csc_matrix((m, 0))
        return NewtonSystem(m=m, M_sp=M_sp, U=U, d=d)


def assemble_linear(A, J: JacobianElement, sigma, eps) -> NewtonSystem:
    """Assemble ``eps*I_m + sum_i A_i V_i A_i'`` from A and a Jacobian element.

    ``A`` is a matrix or the :class:`NewtonAssembly` of a problem
    (``ProblemData.assembly``); a plain matrix gets a structure built for this
    one call.  Lorentz blocks split into the part ``(1+r)/2 * A_i A_i'`` plus
    low-rank columns built from A_i's first column and ``A_{i,2} w_i``;
    identity blocks contribute ``A_i A_i'`` whole, zero blocks nothing, and
    the nonneg block the Gram of its active columns.  ``sigma`` is accepted
    but not used.
    """
    asm = A if isinstance(A, NewtonAssembly) else NewtonAssembly(A, J.cone)
    return asm.assemble(J, eps)


def _dense_view(M):
    """Row-major array view of a CSR matrix that stores every entry, else None."""
    m, n = M.shape
    if M.format != "csr" or M.nnz != m * n or not M.has_canonical_format:
        return None
    return M.data.reshape(m, n)


def _dense_factor(M):
    """Solve function of a dense factorization: Cholesky, LU if that fails."""
    try:
        cho = scipy.linalg.cho_factor(M, check_finite=False)
        return lambda r: scipy.linalg.cho_solve(cho, r, check_finite=False)
    except scipy.linalg.LinAlgError:
        lu = scipy.linalg.lu_factor(M, check_finite=False)
        return lambda r: scipy.linalg.lu_solve(lu, r, check_finite=False)


def _refine(solve, matvec, rhs, stop):
    """A direct solve followed by at most two steps of iterative refinement.

    Refinement stops once the residual norm is at most ``stop``.  Returns
    ``(x, residual norm)``.
    """
    x = solve(rhs)
    res = rhs - matvec(x)
    for _ in range(2):
        if np.linalg.norm(res) <= stop:
            break
        x = x + solve(res)
        res = rhs - matvec(x)
    return x, float(np.linalg.norm(res))


def _lowrank_solver(sys_, solve_M):
    """Solve function of ``M_sp + U diag(d) U'`` from one of ``M_sp``.

    The low-rank columns enter through the k x k Schur complement
    ``diag(d)^{-1} + U' M_sp^{-1} U`` of the augmented system.
    """
    k = sys_.k
    if not k:
        return solve_M
    U = sys_.U
    Ud = U.toarray()
    MiU = solve_M(Ud)
    S = MiU.T @ Ud
    S[np.diag_indices(k)] += 1.0 / sys_.d
    S_lu = scipy.linalg.lu_factor(S, check_finite=False)

    def solve(r):
        lam1 = solve_M(r)
        lam2 = scipy.linalg.lu_solve(S_lu, U.T @ lam1, check_finite=False)
        return lam1 - MiU @ lam2

    return solve


def solve_spd(sys_: NewtonSystem, rhs, tol, strategy="auto"):
    """Solve the assembled SPD operator to ``||M d - rhs|| <= tol`` (absolute).

    Routes:

    - ``"dense"``: dense Cholesky of ``M_sp`` (LU if that fails), or of the
      whole densified operator when the low-rank update is at least as wide
      as the system;
    - ``"augmented"``: sparse LU of ``M_sp``.

    Both add the k low-rank columns (k may be 0) through the Schur
    complement of an augmented system, and the solve gets at most two
    refinement steps.  ``"auto"`` takes ``"dense"`` when ``M_sp`` is stored
    dense or the update is that wide, and ``"augmented"`` otherwise.  Raises
    :class:`LinearSolveError`, carrying the iterate and its residual, when
    the solve misses the tolerance or the sparse factorization fails.
    """
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (sys_.m,):
        raise ValueError(f"rhs has shape {rhs.shape}, expected ({sys_.m},)")
    stop = max(float(tol), 1e-12 * float(np.linalg.norm(rhs)))
    if strategy == "auto":
        dense = sys_.k >= sys_.m or _dense_view(sys_.M_sp) is not None
        strategy = "dense" if dense else "augmented"
    if strategy == "dense" and sys_.k >= sys_.m:
        solve = _dense_factor(sys_.densify())
    elif strategy == "dense":
        M = _dense_view(sys_.M_sp)
        solve = _lowrank_solver(
            sys_, _dense_factor(sys_.M_sp.toarray() if M is None else M))
    elif strategy == "augmented":
        try:
            solve_M = spla.splu(sys_.M_sp.tocsc()).solve
        except RuntimeError as err:
            raise LinearSolveError(f"sparse LU of M_sp failed: {err}") from err
        solve = _lowrank_solver(sys_, solve_M)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    x, resnorm = _refine(solve, sys_.matvec, rhs, stop)
    if resnorm > stop:
        raise LinearSolveError(
            f"{strategy} solve missed the residual target "
            f"({resnorm:.3e} > {stop:.3e})", x=x, residual=resnorm)
    return x, SolveStats(strategy, residual=resnorm)


def _quadratic_dense(Hd, A, J, sigma, eps):
    """Dense quadratic-case block matrix (C-ordered) and its structured operator.

    With ``V = diag(s) + W diag(d) W'`` the blocks ``V H`` and ``V A'`` are
    formed by scaling rows of the dense ``H`` and ``A'`` and adding the
    low-rank part.  The operator applies the same matrix in structured form,
    ``(x1 + sigma V u, eps x2 - sigma A V u)`` with ``u = H x1 - A' x2``, so it
    stays valid once the array has been factored in place.
    """
    m, n = A.shape
    AT = A.T
    s = _jacobian_scale(J)
    W, d = _jacobian_lowrank(J)

    def apply_v(X):
        out = s[:, None] * X
        if d.size:
            out += W @ (d[:, None] * (W.T @ X))
        return out

    VH = apply_v(Hd)
    VAt = apply_v(AT.toarray())
    M = np.empty((n + m, n + m))
    np.multiply(VH, sigma, out=M[:n, :n])
    np.multiply(VAt, -sigma, out=M[:n, n:])
    np.multiply(A @ VH, -sigma, out=M[n:, :n])
    np.multiply(A @ VAt, sigma, out=M[n:, n:])
    diag = M.reshape(-1)[::n + m + 1]
    diag[:n] += 1.0
    diag[n:] += eps

    def matvec(x):
        x1, x2 = x[:n], x[n:]
        Vu = apply_v((Hd @ x1 - AT @ x2)[:, None])[:, 0]
        return np.concatenate([x1 + sigma * Vu, eps * x2 - sigma * (A @ Vu)])

    return M, matvec


def solve_quadratic(H: SparseSymmetric, A, J: JacobianElement, sigma, eps,
                    R1, R2, tol, max_iter=500):
    """Solve the unsymmetric Newton system of the quadratic case.

        [[I + sigma*V*H, -sigma*V*A'], [-sigma*A*V*H, eps*I + sigma*A*V*A']]

    applied to ``(d1, d2) = (R1, R2)`` with residual at most
    ``tol / max(1, lambda_max_estimate(H))``.  Only ``H @ d1`` and the
    quadratic form of ``d1`` are meaningful to callers; both agree with the
    range-space projected direction, which is never formed.

    Routes: ``"dense"`` when ``H.dense_copy()`` is not None (dense storage
    of H is no larger than CSR) and the system has at most 2000 rows: the
    blocks are built from ``V = diag(s) + W diag(d) W'`` with dense products
    and factored in place by LAPACK LU.  Otherwise ``"splu"``, sparse LU of
    the assembled block matrix, when it has density below 0.10 or at most
    2000 rows.  A direct solve gets two refinement steps; when it still
    misses the target, sparse LU fails, or no direct route applies,
    ``"bicgstab"`` with a diagonal preconditioner follows and reports its
    iteration count.
    """
    A = sp.csr_matrix(A)
    m, n = A.shape
    R1 = np.asarray(R1, dtype=float)
    R2 = np.asarray(R2, dtype=float)
    if R1.shape != (n,) or R2.shape != (m,):
        raise ValueError("right-hand side block dimensions do not match A")
    rhs_scale = np.sqrt(R1 @ R1 + R2 @ R2)
    stop = max(float(tol) / max(1.0, H.lambda_max_estimate()),
               1e-12 * rhs_scale)
    rhs = np.concatenate([R1, R2])
    N = n + m

    Hd = H.dense_copy() if N <= 2000 else None
    solve = None
    if Hd is not None:
        method = "dense"
        M, matvec = _quadratic_dense(Hd, A, J, sigma, eps)
        diag = M.diagonal().copy()
        # M' is Fortran-ordered, so LAPACK factors it in place
        lu = scipy.linalg.lu_factor(M.T, overwrite_a=True, check_finite=False)
        solve = lambda r: scipy.linalg.lu_solve(lu, r, trans=1,
                                                check_finite=False)
    else:
        method = "splu"
        V = jacobian_sparse_matrix(J)
        VH = (V @ H.to_csr()).tocsr()
        VAT = (V @ A.T).tocsr()
        Mhat = sp.bmat(
            [[sp.identity(n) + sigma * VH, -sigma * VAT],
             [-sigma * (A @ VH), eps * sp.identity(m) + sigma * (A @ VAT)]],
            format="csc")
        matvec = Mhat.__matmul__
        diag = Mhat.diagonal()
        if Mhat.nnz / (N * N) < 0.10 or N <= 2000:
            try:
                solve = spla.splu(Mhat).solve
            except RuntimeError:
                pass

    if solve is not None:
        x, resnorm = _refine(solve, matvec, rhs, stop)
        if resnorm <= stop:
            return x[:n], x[n:], SolveStats(method, residual=resnorm)

    diag = np.where(np.abs(diag) > _TINY, diag, 1.0)
    P = spla.LinearOperator((N, N), matvec=lambda v: v / diag)
    op = spla.LinearOperator((N, N), matvec=matvec, dtype=float)
    rhs_norm = float(np.linalg.norm(rhs))
    rtol = stop / rhs_norm if rhs_norm > 0 else 0.0
    # scipy reports info = 0 on success, so iterations are counted here; a
    # last half step that meets the tolerance returns before the callback
    iters = 0

    def count(_):
        nonlocal iters
        iters += 1

    x, _ = spla.bicgstab(op, rhs, rtol=max(rtol, 1e-14), atol=stop,
                         maxiter=max_iter, M=P, callback=count)
    resnorm = float(np.linalg.norm(rhs - matvec(x)))
    if resnorm > stop:
        raise LinearSolveError(
            f"BiCGStab did not reach the residual target "
            f"({resnorm:.3e} > {stop:.3e})",
            x=(x[:n], x[n:]), residual=resnorm, iterations=iters)
    return x[:n], x[n:], SolveStats("bicgstab", iterations=iters,
                                    residual=resnorm)
