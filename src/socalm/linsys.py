"""Structured Newton linear systems: assembly and direct solves.

The inner Newton matrix for the linear case is ``eps*I + sum_i A_i V_i A_i'``
with V one generalized-Jacobian element of the cone projection.  Each Lorentz
block splits into a scaled ``A_i A_i'`` part plus at most two rank-one columns,
so the whole operator is a symmetric matrix ``M_sp`` plus a tall-skinny
low-rank update.

Assembly goes through a per-problem :class:`NewtonAssembly`, built on first
use, on the problem's one CSC matrix A, which also serves ``A v`` and
``A' v``, skipping only work that cannot change a bit: ``A v`` of a vector
reads just its nonzero columns while they hold few of A's entries, and
``A' v`` writes an orthant half that is the other half negated
(:func:`negated_half`) as ``0.0 - r`` from that half's dots ``r``.  It
keeps every Lorentz block's ``A_i A_i'`` on one fixed pattern, so the
Lorentz part of ``M_sp`` is a single sparse mat-vec with the block
weights.  When every Lorentz block has the same columns ``A_g`` of A
(:func:`shared_block`), every product comes from that one m x d block: the
pattern is ``A_g A_g'`` times the block weights summed in block order, and
``U`` is the dense array of ``A_g`` times the low-rank vectors.  Only the
active nonneg columns of A enter.  When those columns are stored dense and
there are fewer of them than A has rows, the active ones become low-rank
columns of weight 1 of a dense ``U``, and ``M_sp`` holds only ``eps*I`` and
the Lorentz part; otherwise their Gram is added to ``M_sp``, with BLAS when
they are stored dense.  In every other case ``U`` is the sparse CSC product
of A with the low-rank vectors.  ``M_sp`` is stored dense (a CSR matrix
that keeps every entry) when that takes no more memory than its sparse
pattern.

The linear case has one direct solve path: factor ``M_sp`` (dense Cholesky
when it is stored dense, a division when it is diagonal, sparse LU
otherwise) and add the k low-rank columns (k may be 0) through the Schur
complement of an augmented system.  Only when the update is at least as
wide as the system is the whole matrix densified instead.  A failed
factorization, or a solve that still misses its tolerance after two
refinement steps, raises :class:`LinearSolveError`.

The quadratic case solves the unsymmetric two-by-two block system, for any H,
by a direct solve chosen by the one storage of H (:class:`SparseSymmetric`).
When H is stored dense, the solve eliminates the first block in H's
eigenbasis (:meth:`SparseSymmetric.eigen`, one ``eigh`` per problem, kept):
where V's diagonal weights are constant on H's row support,
``I + sigma V H`` is diagonal there plus the few low-rank columns that touch
H, so a step costs products of the eigenvector matrix with ``A`` and those
few columns, O(m n^2) for m rows, instead of an O(n^3) factorization.
Where they are not, or where those columns and the m rows are together at
least n, the block matrix is formed from the diagonal and low-rank parts of
V with dense products into one array and factored by LAPACK LU in place.
Both dense routes apply V's low-rank part block by block from the
Jacobian's arrays, summed in the order of the sparse products, so a step
builds no sparse matrix.  When H is
stored sparse, the assembled sparse block matrix goes to sparse LU.  Misses
and failed factorizations raise :class:`LinearSolveError` as in the linear
case.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .blas import single_thread
from .cone import JacobianElement

# low-rank eigenvalue below this is dropped from the update (rank degenerates)
_DROP_TOL = 1e-14
# column-pair products held at once while the Lorentz block Grams are built
_PAIR_CHUNK = 1 << 18
# A v reads only v's nonzero columns while they hold at most this share of
# A's entries: on both square-root Lasso bench matrices the column subset's
# product takes 0.85-0.9 of the whole one's time at a fifth of the entries
# and 1.0-1.1 at a quarter
_SUBSET_SHARE = 0.2
# the sign bit of a float64
_SIGN_BIT = np.uint64(1 << 63)


# the strategy of each factorization route: the linear case's ``dense``
# and ``augmented``, the quadratic case's ``dense`` and ``splu``
ROUTE_STRATEGY = {
    "cholesky": "dense", "densified": "dense",
    "diagonal": "augmented", "sparse_lu": "augmented",
    "eigen": "dense", "dense_lu": "dense", "splu": "splu",
}


class LinearSolveError(RuntimeError):
    """A linear solve failed to factor or did not reach its residual tolerance.

    ``route`` names the factorization tried, a key of
    :data:`ROUTE_STRATEGY`, as on :class:`SolveStats`.  A miss carries the
    iterate ``x``, its ``residual`` norm and the ``refine`` steps taken
    before it; a failed factorization leaves them None, None and 0.
    """

    def __init__(self, message, route, x=None, residual=None, refine=0):
        super().__init__(message)
        self.route = route
        self.x = x
        self.residual = residual
        self.refine = refine


class SparseSymmetric:
    """Symmetric matrix held in one storage, chosen at construction.

    A read-only dense array when that is no larger than CSR of the nonzeros
    (:func:`_dense_is_smaller`), that CSR matrix otherwise; ``row_support``
    and the Frobenius norm are computed once from it.  The constructor sums
    duplicate coordinate entries of the lower triangle.
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
        strict = low.row != low.col
        upper = sp.coo_matrix(
            (low.data[strict], (low.col[strict], low.row[strict])), shape=(n, n))
        self._hold((low.tocsr() + upper.tocsr()).tocsr())

    def _hold(self, M):
        """Keep ``M`` (square array or canonical CSR) as the rule picks."""
        n = M.shape[0]
        nnz = M.nnz if sp.issparse(M) else np.count_nonzero(M)
        if _dense_is_smaller(n, n, nnz):
            M = M.toarray() if sp.issparse(M) else M
            M.flags.writeable = False
            mask = M != 0
            nonzeros, support = M[mask], mask.any(axis=1)
        else:
            M = sp.csr_matrix(M)
            nonzeros, support = M.data, np.diff(M.indptr) > 0
        # rows (equally, columns) that hold a nonzero
        support.flags.writeable = False
        self.n, self._matrix, self.row_support = n, M, support
        # the 2-norm of the nonzeros in row order, as sparse.linalg.norm of
        # the CSR form computes it, with the bits of any BLAS thread count
        with single_thread():
            self._fro = float(np.linalg.norm(nonzeros))
        self._eigen = None
        return self

    @classmethod
    def from_dense(cls, M, sym_tol=1e-10):
        M = np.asarray(M, dtype=float)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ValueError("matrix must be square")
        scale = 1.0 + np.abs(M).max(initial=0.0)
        if np.abs(M - M.T).max(initial=0.0) > sym_tol * scale:
            raise ValueError("matrix is not symmetric")
        return cls.__new__(cls)._hold(0.5 * (M + M.T))

    @classmethod
    def from_sparse(cls, M, sym_tol=1e-10):
        M = sp.csr_matrix(M)
        if M.shape[0] != M.shape[1]:
            raise ValueError("matrix must be square")
        scale = 1.0 + (np.abs(M.data).max() if M.nnz else 0.0)
        diff = (M - M.T).tocoo()
        if diff.nnz and np.abs(diff.data).max() > sym_tol * scale:
            raise ValueError("matrix is not symmetric")
        S = sp.tril(0.5 * (M + M.T), format="coo")
        return cls(M.shape[0], S.row, S.col, S.data)

    @property
    def is_zero(self):
        return not self.row_support.any()

    def to_csr(self):
        """CSR form: the storage, or built from the dense array per call."""
        M = self._matrix
        return M if sp.issparse(M) else sp.csr_matrix(M)

    def lower(self):
        """``(rows, cols, vals)`` of the nonzeros with row >= col, row by row."""
        low = sp.tril(self._matrix, format="coo")
        return low.row, low.col, low.data

    def matvec(self, v):
        """``H v``, a product with the storage."""
        return self._matrix @ v

    def quad(self, v):
        """Quadratic form <v, H v>."""
        return float(v @ self.matvec(v))

    def fro_norm(self):
        return self._fro

    def dense_copy(self):
        """The read-only dense array when H is stored dense, else None."""
        return None if sp.issparse(self._matrix) else self._matrix

    def eigen(self):
        """Read-only ``(lam, Q)`` with ``H = Q diag(lam) Q'``, or None.

        ``np.linalg.eigh`` of the dense storage, built on the first call and
        kept; None when H is stored sparse.
        """
        if self._eigen is None and self.dense_copy() is not None:
            lam, Q = np.linalg.eigh(self._matrix)
            self._eigen = _read_only(lam), _read_only(Q)
        return self._eigen

    def __repr__(self):
        return f"SparseSymmetric(n={self.n}, {type(self._matrix).__name__})"


@dataclass
class SolveStats:
    """One direct solve: the factorization ``route`` (``cholesky``,
    ``diagonal``, ``sparse_lu`` or ``densified`` in the linear case,
    ``eigen``, ``dense_lu`` or ``splu`` in the quadratic one), the residual
    norm reached and the refinement steps taken.  ``method`` is the route's
    strategy, read from :data:`ROUTE_STRATEGY`."""

    route: str
    residual: float = 0.0
    refine: int = 0
    # every route is direct, so this stays 0; kept because solve results and
    # the result file report the total as ``krylov_iters``
    iterations = 0

    @property
    def method(self):
        return ROUTE_STRATEGY[self.route]


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


def _lowrank_parts(J: JacobianElement):
    """The low-rank columns of V, as ``(group, blocks, vals, lam)`` per group
    and sign: the blocks they sit on, their values on those blocks' rows
    (one row of ``vals`` per column) and their weights.

    Each middle-type Lorentz block contributes the two orthonormal columns
    (e0 +- (0, w))/sqrt(2) with weights (1 - r)/2 and -(1 + r)/2; weights of
    magnitude below 1e-14 (the boundary degeneracies) are dropped.
    """
    parts = []
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for gj in J.soc:
        g = gj.group
        sel = gj.rows
        if not sel.size:
            continue
        rho = gj.rho[sel]
        for sign, lam in ((1.0, 0.5 * (1.0 - rho)), (-1.0, -0.5 * (1.0 + rho))):
            keep = np.nonzero(np.abs(lam) > _DROP_TOL)[0]
            if not keep.size:
                continue
            vmat = np.empty((keep.size, g.dim))
            vmat[:, 0] = inv_sqrt2
            vmat[:, 1:] = sign * inv_sqrt2 * gj.omega[keep]
            parts.append((g, sel[keep], vmat, lam[keep]))
    return parts


def _jacobian_lowrank(J: JacobianElement):
    """Low-rank remainder of V: ``(W, d)`` with V = diag(s) + W diag(d) W',
    one CSC column of W per column of :func:`_lowrank_parts`."""
    n = J.cone.total_dim
    parts = _lowrank_parts(J)
    if not parts:
        return sp.csc_matrix((n, 0)), np.zeros(0)
    # each column is one block's contiguous, sorted row range
    rows = [(g.starts[blocks, None] + np.arange(g.dim)).ravel()
            for g, blocks, _, _ in parts]
    lens = [np.full(blocks.size, g.dim) for g, blocks, _, _ in parts]
    indptr = np.concatenate(([0], np.cumsum(np.concatenate(lens))))
    W = sp.csc_matrix(
        (np.concatenate([vmat.ravel() for _, _, vmat, _ in parts]),
         np.concatenate(rows), indptr),
        shape=(n, indptr.size - 1))
    return W, np.concatenate([lam for *_, lam in parts])


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
    ``U`` is a dense array when every Lorentz block shares one block of A,
    and when :class:`NewtonAssembly` takes a narrow dense orthant's active
    columns out of ``M_sp`` (those come first, with weight 1); it is sparse
    CSC otherwise.  ``Ut`` is the transpose view of ``U``, made once.
    """

    m: int
    M_sp: sp.csr_matrix
    U: sp.csc_matrix | np.ndarray
    d: np.ndarray
    Ut: sp.csr_matrix | np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.Ut = self.U.T

    @property
    def k(self):
        return int(self.d.size)

    def matvec(self, v):
        out = self.M_sp @ v
        if self.k:
            out = out + self.U @ (self.d * (self.Ut @ v))
        return out

    def densify(self):
        M = self.M_sp.toarray()
        if self.k:
            Ud = _as_array(self.U)
            M = M + (Ud * self.d) @ Ud.T
        return M


def _as_array(U):
    return U.toarray() if sp.issparse(U) else U


def _read_only(a):
    """``a``, marked read-only."""
    a.flags.writeable = False
    return a


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
    expanded in chunks of at most ``_PAIR_CHUNK`` products (or one column),
    which bounds the chunk's index and product arrays to a few tens of MB
    whatever the Lorentz columns' fill.  It is a memory bound only: no
    bench or census instance expands more than 80 000 pairs in all, so
    each takes one chunk.
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
    """What :class:`NewtonAssembly` keeps between assemblies.

    Two of its storage choices pay on the square-root Lasso bench (both
    instances solved once, median of 10 alternating pairs against a copy
    without the choice, 2-core machine): ``lowrank0`` takes it from 0.454
    to 0.308 s, and ``full`` (a dense ``M_sp``, factored by dense Cholesky)
    from 0.670 to 0.312 s, where the sparse ``M_sp`` also moves 200x1000's
    Newton count from 96 to 173.
    """

    keys: np.ndarray         # row-major positions r*m + c of the Lorentz pattern
    indptr: np.ndarray       # that pattern in CSR form
    indices: np.ndarray
    diag: np.ndarray         # positions of the diagonal among ``keys``
    G: sp.csr_matrix         # G[p, b] = (A_b A_b')[keys[p]], one column per block
                             # (one column in all when they share one block)
    A0t: np.ndarray | sp.csr_matrix | None  # nonneg columns of A, transposed
    lowrank0: bool           # active nonneg columns go to U, not into M_sp
    full: tuple | None       # (indptr, indices) of a full pattern when M is dense


def shared_block(A, cone):
    """The m x d block ``A_g`` that every Lorentz block repeats, or None.

    Only a cone of at least two Lorentz blocks of one dimension and no
    orthant qualifies, and then only when each block's columns of the
    canonical CSC ``A`` have the same counts, row indices and value bits,
    so ``A = [A_g, ..., A_g]``.  ``A_g`` is the first block's columns; one
    vectorized pass over ``A``'s arrays decides.  Reading only ``A_g``
    takes the enclosing ball 1000x400 solve from 0.864 to 0.548 s against
    the general path (median of 10 alternating pairs, all won, 2-core
    machine).
    """
    if cone.nonneg_dim or len(cone.soc_groups) != 1:
        return None
    g = cone.soc_groups[0]
    if g.count < 2:
        return None
    p = int(A.indptr[g.dim])
    ptr = A.indptr[:-1].reshape(g.count, g.dim)
    if not (A.nnz == g.count * p and np.array_equal(
            ptr, ptr[:1] + p * np.arange(g.count)[:, None])):
        return None
    for arr in (A.indices, A.data):
        per_block = arr[:A.nnz].view(np.uint8).reshape(g.count, -1)
        if not np.array_equal(per_block,
                              np.broadcast_to(per_block[0], per_block.shape)):
            return None
    return sp.csc_matrix((A.data[:p], A.indices[:p], A.indptr[:g.dim + 1]),
                         shape=(A.shape[0], g.dim))


def negated_half(A, cone) -> int:
    """Width h of the orthant halves when the second is the first negated,
    else 0.

    The orthant's 2h columns of the canonical CSC float64 ``A`` qualify when
    its last h columns have the counts and row indices of its first h, and
    value bits equal to theirs with the sign bit flipped, as in
    ``[B, -B]``.  One vectorized pass over ``A``'s arrays decides.
    """
    n0 = cone.nonneg_dim
    if not n0 or n0 % 2 or A.dtype != np.float64:
        return 0
    h = n0 // 2
    ptr = A.indptr[cone.nonneg_start:cone.nonneg_start + n0 + 1]
    p0, p1, p2 = ptr[0], ptr[h], ptr[-1]
    bits = A.data.view(np.uint64)
    if (np.array_equal(ptr[:h + 1] - p0, ptr[h:] - p1)
            and np.array_equal(A.indices[p0:p1], A.indices[p1:p2])
            and np.array_equal(bits[p0:p1] ^ _SIGN_BIT, bits[p1:p2])):
        return h
    return 0


def _columns_t(A, lo, hi):
    """Columns ``lo:hi`` of the CSC ``A``, transposed: a CSR matrix whose
    data and indices are views of ``A``'s arrays.

    The arrays are set on the matrix rather than passed to the constructor,
    which copies a view of less than half its base.  That bounds the memory
    of the views to their index pointers: a copy of the square-root Lasso
    200x1000 bench matrix's halves would hold 2.4 of its 4.8 MB.
    """
    p0, p1 = A.indptr[lo], A.indptr[hi]
    T = sp.csr_matrix((hi - lo, A.shape[0]), dtype=A.dtype)
    T.data, T.indices = A.data[p0:p1], A.indices[p0:p1]
    T.indptr = A.indptr[lo:hi + 1] - p0
    return T


def canonical_csc(A) -> sp.csc_matrix:
    """``A`` by columns, duplicates summed and indices sorted: ``A`` itself
    when it is so already, else a new matrix, so the caller's is unchanged.
    Then ``A @ v`` sums each row in ascending column order, as CSR does."""
    if isinstance(A, sp.csc_matrix) and A.has_canonical_format:
        return A
    Ac = sp.csc_matrix(A, copy=True)
    Ac.sum_duplicates()
    return Ac


class NewtonAssembly:
    """Per-problem structure of the linear-case Newton matrix.

    :meth:`csc` is the one canonical CSC ``A`` (:func:`canonical_csc`) and
    :meth:`at` its transpose view.  ``block`` is the block that every
    Lorentz block's columns repeat (:func:`shared_block`), or None; when it
    is set, :meth:`matvec`, :meth:`rmatvec` and :meth:`assemble` read only
    it, and :meth:`assemble` returns ``U`` as the dense product of the
    block with the low-rank vectors.  Otherwise :meth:`matvec` of a vector
    reads only its nonzero columns while they hold at most
    ``_SUBSET_SHARE`` of A's entries, :meth:`rmatvec` writes the orthant's
    second half as the first half's dots negated when :meth:`negated_half`
    finds it so, both keeping the bits of the whole product for finite A,
    and ``U = A W`` is a sparse product.  Nothing else is made at
    construction.  The first :meth:`assemble` builds the Lorentz block
    Grams, the storage of the nonneg columns and the storage decision for
    ``M_sp``, once, under a lock; every later call reuses them.  The nonneg
    columns are kept dense when that is no larger than sparse storage.
    Dense and fewer than the m rows of ``A``, the active ones become
    low-rank columns of weight 1 in a dense ``U``, so ``M_sp`` holds only
    ``eps*I`` and the Lorentz Grams; otherwise their Gram is added to
    ``M_sp``.  The quadratic case reads only :meth:`csc` and :meth:`at`.
    Nothing is modified once built, so threads may assemble concurrently.
    A pickled copy starts unbuilt.
    """

    def __init__(self, A, cone):
        self.A = canonical_csc(A)
        self.cone = cone
        if self.A.shape[1] != cone.total_dim:
            raise ValueError(
                f"A has {self.A.shape[1]} columns, cone total_dim is "
                f"{cone.total_dim}")
        self._at = self.A.T
        self.block = shared_block(self.A, cone)
        self._block_t = None if self.block is None else self.block.T
        self._halves = None
        self._structure = None
        self._lock = threading.Lock()

    def __reduce__(self):
        return NewtonAssembly, (self.A, self.cone)

    @property
    def shape(self):
        """``A``'s shape, so the assembly stands in for ``A`` where a
        caller reads it."""
        return self.A.shape

    def csc(self) -> sp.csc_matrix:
        """``A`` by columns."""
        return self.A

    def at(self) -> sp.csr_matrix:
        """``A'`` by rows, on the arrays of :meth:`csc`, so ``A' v`` is a gather."""
        return self._at

    def _once(self, name, build):
        """The attribute ``name``, set to ``build()`` on the first call that
        finds it None, under the lock."""
        value = getattr(self, name)
        if value is None:
            with self._lock:
                value = getattr(self, name)
                if value is None:
                    value = build()
                    setattr(self, name, value)
        return value

    def matvec(self, v) -> np.ndarray:
        """``A v``; with a shared block, ``A_g`` times the blocks of v summed
        in block order.

        Otherwise a vector ``v`` whose nonzero columns hold at most
        ``_SUBSET_SHARE`` of A's entries multiplies only those columns.  The
        bits are those of ``A @ v``: the kernel adds each row in column
        order from +0.0, a skipped term ``A_ij * (+-0)`` of finite ``A_ij``
        is a zero, and adding a zero to a sum that started at +0.0 leaves it
        as it is.  The subset takes the square-root Lasso bench (both
        instances solved once) from 0.415 to 0.335 s (median of 10
        alternating pairs, 9 won, 2-core machine).
        """
        if self.block is not None:
            g = self.cone.soc_groups[0]
            blocks = v.reshape((g.count, g.dim) + v.shape[1:])
            return self.block @ blocks.sum(axis=0)
        if v.ndim == 1:
            cols = np.flatnonzero(v)
            ptr = self.A.indptr
            if (ptr[cols + 1] - ptr[cols]).sum() <= _SUBSET_SHARE * self.A.nnz:
                return self.A[:, cols] @ v[cols]
        return self.A @ v

    def rmatvec(self, v) -> np.ndarray:
        """``A' v``, summed row by row of ``A'`` (the bits of ``A.T @ v``);
        with a shared block, ``A_g' v`` repeated once per block.

        Otherwise, when the orthant's second half is its first negated
        (:meth:`negated_half`), ``v`` takes the dots of the other columns
        from ``A'`` and writes ``0.0 - r`` for the second half,
        ``r`` the first half's dots.  That is the kernel's sum for a negated
        column bit for bit: each partial sum is the first half's negated,
        and a zero sum is +0.0 in both, since a sum from +0.0 never reaches
        -0.0 under round-to-nearest.  The negated half takes the square-root
        Lasso bench (both instances solved once) from 0.307 to 0.281 s
        (median of 10 alternating pairs, best of 5 passes in each, all won,
        2-core machine).
        """
        if self.block is not None:
            r = self._block_t @ v
            count = self.cone.soc_groups[0].count
            return np.broadcast_to(r, (count,) + r.shape).reshape(
                (count * r.shape[0],) + r.shape[1:])
        h, halves_t = self._once("_halves", self._split_halves)
        if not h:
            return self._at @ v
        head, tail = halves_t
        r = head @ v
        return np.concatenate([r, 0.0 - r[self.cone.nonneg_start:], tail @ v])

    def negated_half(self) -> int:
        """:func:`negated_half` of ``(A, cone)``, 0 with a shared block,
        decided on the first call."""
        return self._once("_halves", self._split_halves)[0]

    def _split_halves(self):
        """``(h, halves_t)``: :meth:`negated_half` and, when it is nonzero,
        the columns up to the orthant's second half and those after it, as
        transposed views of A's arrays (:func:`_columns_t`)."""
        h = 0 if self.block is not None else negated_half(self.A, self.cone)
        if not h:
            return 0, None
        mid = self.cone.nonneg_start + h
        return h, (_columns_t(self.A, 0, mid),
                   _columns_t(self.A, mid + h, self.A.shape[1]))

    def _build(self) -> _GramStructure:
        Ac, cone = self.A, self.cone
        m = Ac.shape[0]
        if self.block is not None:
            # one block's Gram, weighted by the sum of the block weights
            keys, G = _block_grams(
                self.block, np.zeros(self.block.shape[1], np.int64), 1)
        else:
            block_of_col = np.full(cone.total_dim, -1, dtype=np.int64)
            nblocks = 0
            for g in cone.soc_groups:
                ids = nblocks + np.arange(g.count)
                g.scatter(block_of_col,
                          np.broadcast_to(ids[:, None], (g.count, g.dim)))
                nblocks += g.count
            keys, G = _block_grams(Ac, block_of_col, nblocks)
        rows, cols = np.divmod(keys, m)
        indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=m))))
        diag = np.searchsorted(keys, np.arange(m, dtype=np.int64) * (m + 1))

        # nnz of M when every block is active decides its storage
        A0t = None
        lowrank0 = False
        nnz_full = keys.size
        if cone.nonneg_dim:
            s, n0 = cone.nonneg_start, cone.nonneg_dim
            A0 = Ac[:, s:s + n0]
            if _dense_is_smaller(m, n0, A0.nnz):
                A0t = A0.T.toarray()
                lowrank0 = n0 < m
                if not lowrank0:
                    used = np.any(A0t != 0.0, axis=0)
                    nnz_full = (int(used.sum()) ** 2 + int(
                        np.count_nonzero(~(used[rows] & used[cols]))))
            elif A0.nnz:
                A0t = A0.T.tocsr()
                P = (abs(A0) @ abs(A0t)).tocoo()
                nnz_full = np.union1d(keys, P.row.astype(np.int64) * m + P.col).size
        full = None
        if _dense_is_smaller(m, m, nnz_full):
            F = sp.csr_matrix(np.ones((m, m)))
            full = (F.indptr, F.indices)
        return _GramStructure(keys, indptr, cols, diag, G, A0t, lowrank0, full)

    def assemble(self, J: JacobianElement, eps) -> NewtonSystem:
        """The Newton system ``eps*I + sum_i A_i V_i A_i'`` at one element J."""
        if J.cone is not self.cone and J.cone != self.cone:
            raise ValueError("Jacobian element belongs to a different cone")
        st = self._once("_structure", self._build)
        m = self.A.shape[0]
        w = np.concatenate([0.5 * (1.0 + gj.rho) for gj in J.soc] + [np.zeros(0)])
        if self.block is not None:
            # summed in block order, as G @ w adds a row's equal entries
            w = np.cumsum(w)[-1:]
        lorentz = st.G @ w
        lorentz[st.diag] += eps
        gram0 = X = None
        if st.A0t is not None:
            X = st.A0t[np.flatnonzero(J.nonneg_mask)]
            if X.shape[0] and not st.lowrank0:
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
        if self.block is not None:
            parts = _lowrank_parts(J)
            d = np.concatenate([lam for *_, lam in parts] + [np.zeros(0)])
            U = self.block @ np.concatenate(
                [vmat for _, _, vmat, _ in parts]
                + [np.zeros((0, self.block.shape[1]))]).T
        else:
            W, d = _jacobian_lowrank(J)
            U = sp.csc_matrix((m, 0))
            if d.size:
                # by columns the product touches only the columns W selects
                U = self.A @ W
                U.sort_indices()
        if st.lowrank0:
            # rows of U' in C order, so U is a Fortran-ordered array
            U = np.concatenate([X, U.T.toarray()]).T
            d = np.concatenate([np.ones(X.shape[0]), d])
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
    return _assembly(A, J.cone).assemble(J, eps)


def _assembly(A, cone) -> NewtonAssembly:
    """``A`` when it is a :class:`NewtonAssembly`, else one built for ``A``."""
    return A if isinstance(A, NewtonAssembly) else NewtonAssembly(A, cone)


def _dense_view(M):
    """Row-major array view of a CSR matrix that stores every entry, else None."""
    m, n = M.shape
    if M.format != "csr" or M.nnz != m * n or not M.has_canonical_format:
        return None
    return M.data.reshape(m, n)


def _diagonal_view(M):
    """Diagonal of a CSR matrix that stores its diagonal alone, else None.

    A division by it in place of sparse LU (the ``diagonal`` route) takes
    the linear solves of one enclosing ball 1000x400 solve from 0.146 to
    0.105 s (median of 10 alternating pairs, best of 3 solves in each, all
    won, 2-core machine).
    """
    m = M.shape[0]
    if (M.format != "csr" or M.nnz != m
            or not np.array_equal(M.indptr, np.arange(m + 1))
            or not np.array_equal(M.indices, np.arange(m))):
        return None
    return M.data


def _dense_factor(M, route):
    """Solve function of a dense Cholesky factorization of ``M``; raises
    :class:`LinearSolveError` of ``route`` when ``M`` is not numerically
    positive definite."""
    try:
        cho = scipy.linalg.cho_factor(M, check_finite=False)
    except scipy.linalg.LinAlgError as err:
        raise LinearSolveError(f"dense Cholesky failed: {err}", route) from err
    return lambda r: scipy.linalg.cho_solve(cho, r, check_finite=False)


def _refine(solve, matvec, rhs, stop, route):
    """A direct solve by ``route`` followed by at most two steps of
    iterative refinement.

    Refinement stops once the residual norm is at most ``stop``.  Returns
    ``(x, SolveStats)``.  Raises :class:`LinearSolveError`, carrying the
    route, the iterate, its residual norm and the steps taken, unless that
    norm is at most ``stop``; a NaN residual is a miss.
    """
    x = solve(rhs)
    res = rhs - matvec(x)
    steps = 0
    while steps < 2 and not np.linalg.norm(res) <= stop:
        x = x + solve(res)
        res = rhs - matvec(x)
        steps += 1
    resnorm = float(np.linalg.norm(res))
    if not resnorm <= stop:
        raise LinearSolveError(
            f"{route} solve missed the residual target "
            f"({resnorm:.3e} > {stop:.3e})", route, x=x, residual=resnorm,
            refine=steps)
    return x, SolveStats(route, residual=resnorm, refine=steps)


def _lowrank_solver(sys_, solve_M):
    """Solve function of ``M_sp + U diag(d) U'`` from one of ``M_sp``.

    The low-rank columns enter through the k x k Schur complement
    ``diag(d)^{-1} + U' M_sp^{-1} U`` of the augmented system.
    """
    k = sys_.k
    if not k:
        return solve_M
    Ud = _as_array(sys_.U)
    MiU = solve_M(Ud)
    S = MiU.T @ Ud
    S[np.diag_indices(k)] += 1.0 / sys_.d
    S_lu = scipy.linalg.lu_factor(S, check_finite=False)

    def solve(r):
        lam1 = solve_M(r)
        lam2 = scipy.linalg.lu_solve(S_lu, sys_.Ut @ lam1, check_finite=False)
        return lam1 - MiU @ lam2

    return solve


def solve_spd(sys_: NewtonSystem, rhs, tol, strategy="auto"):
    """Solve the assembled SPD operator to ``||M d - rhs|| <= tol`` (absolute).

    Routes:

    - ``"dense"``: dense Cholesky of ``M_sp``, or of the whole densified
      operator when the low-rank update is at least as wide as the system;
    - ``"augmented"``: sparse LU of ``M_sp``, or a division by its diagonal
      when it stores nothing else.

    Both add the k low-rank columns (k may be 0) through the Schur
    complement of an augmented system, and the solve gets at most two
    refinement steps.  ``"auto"`` takes ``"dense"`` when ``M_sp`` is stored
    dense or the update is that wide, and ``"augmented"`` otherwise.  A
    narrow dense orthant puts its active columns in the update and leaves
    ``M_sp`` as ``eps*I`` plus the Lorentz Grams (diagonal for a
    square-root Lasso), so such a system usually goes ``"augmented"``.  Raises
    :class:`LinearSolveError` when a factorization fails (the dense Cholesky,
    the sparse LU, or a zero or non-finite diagonal), and, carrying the
    iterate and its residual, when the solve misses the tolerance.  The
    returned stats, or the error, name the factorization tried:
    ``densified``, ``cholesky``, ``sparse_lu`` or ``diagonal``.
    """
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (sys_.m,):
        raise ValueError(f"rhs has shape {rhs.shape}, expected ({sys_.m},)")
    stop = max(float(tol), 1e-12 * float(np.linalg.norm(rhs)))
    wide = sys_.k >= sys_.m
    M = None if wide or strategy == "augmented" else _dense_view(sys_.M_sp)
    if strategy == "auto":
        strategy = "dense" if wide or M is not None else "augmented"
    if strategy == "dense":
        route = "densified" if wide else "cholesky"
    elif strategy == "augmented":
        diag = _diagonal_view(sys_.M_sp)
        route = "sparse_lu" if diag is None else "diagonal"
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    if route == "densified":
        solve = _dense_factor(sys_.densify(), route)
    elif route == "cholesky":
        solve = _lowrank_solver(sys_, _dense_factor(
            sys_.M_sp.toarray() if M is None else M, route))
    elif route == "sparse_lu":
        try:
            solve_M = spla.splu(sys_.M_sp.tocsc()).solve
        except RuntimeError as err:
            raise LinearSolveError(f"sparse LU of M_sp failed: {err}",
                                   route) from err
        solve = _lowrank_solver(sys_, solve_M)
    elif not (np.isfinite(diag).all() and diag.all()):
        raise LinearSolveError("diagonal M_sp has a zero or non-finite entry",
                               route)
    else:
        solve = _lowrank_solver(sys_, lambda r: r / (
            diag[:, None] if r.ndim == 2 else diag))
    return _refine(solve, sys_.matvec, rhs, stop, route)


def _split_v(J: JacobianElement):
    """``(s, cols, apply_v)``: V = diag(s) plus the low-rank columns of
    :func:`_lowrank_parts`, and ``X -> V X``.

    ``cols`` holds ``(rows, vals, w)`` per part: the rows of each column's
    block (one row of ``rows`` per column), the column's values on them and
    its weight.  ``apply_v`` reads only those rows of X for the low-rank
    part, so no matrix is built.  It sums as the sparse products ``W (d (W' X))`` of
    the columns would: each column's dot with X in row order, and the
    columns in order from zero, so the bits are theirs.
    """
    s = _jacobian_scale(J)
    cols = [(g.starts[blocks, None] + np.arange(g.dim), vals, w)
            for g, blocks, vals, w in _lowrank_parts(J)]

    def apply_v(X):
        out = s[:, None] * X
        if cols:
            low = np.zeros(out.shape)
            for rows, vals, w in cols:
                # a cumulative sum adds in order; the blocks of one part
                # are distinct, so no row repeats
                terms = vals[:, :, None] * X[rows]
                coef = w[:, None] * np.cumsum(terms, axis=1)[:, -1]
                low[rows] += vals[:, :, None] * coef[:, None, :]
            out += low
        return out

    return s, cols, apply_v


def _quadratic_operator(Hd, asm, apply_v, sigma, eps):
    """The quadratic-case block matrix applied in structured form.

    ``(x1 + sigma V u, eps x2 - sigma A V u)`` with ``u = H x1 - A' x2``; it
    needs no factored or assembled block, so it checks every route.
    """
    n = asm.shape[1]
    A, At = asm.csc(), asm.at()

    def matvec(x):
        x1, x2 = x[:n], x[n:]
        Vu = apply_v((Hd @ x1 - At @ x2)[:, None])[:, 0]
        return np.concatenate([x1 + sigma * Vu, eps * x2 - sigma * (A @ Vu)])

    return matvec


def _quadratic_dense(Hd, asm, apply_v, sigma, eps):
    """Dense quadratic-case block matrix (C-ordered) and its structured operator.

    The blocks ``V H`` and ``V A'`` are formed by ``apply_v`` of
    :func:`_split_v`, which scales rows of the dense ``H`` and ``A'`` and
    adds the low-rank part of V block by block.  The operator
    (:func:`_quadratic_operator`) stays valid once the array has been
    factored in place.
    """
    m, n = asm.shape
    A = asm.csc()
    VH = apply_v(Hd)
    VAt = apply_v(asm.at().toarray())
    M = np.empty((n + m, n + m))
    np.multiply(VH, sigma, out=M[:n, :n])
    np.multiply(VAt, -sigma, out=M[:n, n:])
    np.multiply(A @ VH, -sigma, out=M[n:, :n])
    np.multiply(A @ VAt, sigma, out=M[n:, n:])
    diag = M.reshape(-1)[::n + m + 1]
    diag[:n] += 1.0
    diag[n:] += eps
    return M, _quadratic_operator(Hd, asm, apply_v, sigma, eps)


def _quadratic_eigen(H: SparseSymmetric, asm, split, sigma, eps):
    """Solve function and operator of the block system in H's eigenbasis.

    Eliminating ``d1 = K^{-1} (R1 + sigma V A' d2)`` with ``K = I + sigma V H``
    leaves the m x m system

        (eps I + sigma A K^{-1} V A') d2 = R2 + A R1 - A K^{-1} R1.

    When the diagonal weights s of V equal one s0 on H's row support,
    ``V H = s0 H + W_H diag(d_H) (H W_H)'`` with ``W_H`` the k_H low-rank
    columns that touch that support.  With ``H = Q diag(lam) Q'``
    (:meth:`SparseSymmetric.eigen`) the part ``I + sigma s0 H`` is diagonal
    in the eigenbasis, and ``W_H`` enters through Woodbury with a
    k_H x k_H capacitance matrix.  ``split`` is :func:`_split_v` of the
    Jacobian.  Building the solve takes one product of the m + k_H columns
    of ``[V A', W_H]`` with Q and one of A with Q, O((m + k_H) n^2) in all,
    and forms the dense ``A'``.  Keeping ``A'`` and ``A Q`` on the problem
    saved at most 4 ms of the trust-region bench's 51 ms solve, inside the
    spread of its runs.  Each solve after that takes two products of Q
    with one vector.  Returns None when s varies on H's row
    support or when ``k_H + m >= n``.
    """
    m, n = asm.shape
    s, cols, apply_v = split
    support = H.row_support
    s_h = s[support]
    if s_h.size and s_h.min() != s_h.max():
        return None
    touch = [np.flatnonzero(np.any((vals != 0.0) & support[rows], axis=1))
             for rows, vals, _ in cols]
    k = sum(t.size for t in touch)
    if k + m >= n:
        return None
    lam, Q = H.eigen()
    s0 = s_h[0] if s_h.size else 0.0
    inv = 1.0 / (1.0 + sigma * s0 * lam)
    # [V A', W_H] in one array, and the weights of W_H
    X = np.zeros((n, m + k))
    X[:, :m] = apply_v(asm.at().toarray())
    j, d_h = m, [np.zeros(0)]
    for (rows, vals, w), t in zip(cols, touch):
        X[rows[t], j + np.arange(t.size)[:, None]] = vals[t]
        d_h.append(w[t])
        j += t.size
    d_h = np.concatenate(d_h)
    # its eigen coordinates Q' X, formed as (X' Q)', which OpenBLAS runs in
    # half the time on a narrow X with the same bits; copied C-ordered, as
    # Q' X is, so the products below take the same kernels
    Y = np.ascontiguousarray((X.T @ Q).T)
    Yw = Y[:, m:]
    if k:
        # Woodbury: y -> inv*y - F C^{-1} G' y in eigen coordinates, where
        # F = Q' D0^{-1} sigma W_H D_H, G = Q' D0^{-1} H W_H, D0 = I + sigma s0 H
        U = sigma * Yw * d_h
        F = inv[:, None] * U
        G = (lam * inv)[:, None] * Yw
        C = G.T @ U
        C[np.diag_indices(k)] += 1.0
        FC = scipy.linalg.lu_solve(scipy.linalg.lu_factor(C, check_finite=False),
                                   F.T, trans=1, check_finite=False).T

    def kinv_eigen(X):
        """Q' K^{-1} Q applied to the columns of X."""
        out = inv[:, None] * X
        if k:
            out -= FC @ (G.T @ X)
        return out

    # A Q and K^{-1} V A' stay in eigen coordinates, so a solve maps back once
    A = asm.csc()
    AQ = A @ Q
    KVAt = kinv_eigen(Y[:, :m])
    S = sigma * (AQ @ KVAt)
    S[np.diag_indices(m)] += eps
    S_lu = scipy.linalg.lu_factor(S, check_finite=False)

    def solve(r):
        r1, r2 = r[:n], r[n:]
        z = kinv_eigen((Q.T @ r1)[:, None])[:, 0]
        d2 = scipy.linalg.lu_solve(S_lu, r2 + A @ r1 - AQ @ z,
                                   check_finite=False)
        return np.concatenate([Q @ (z + sigma * (KVAt @ d2)), d2])

    return solve, _quadratic_operator(H.dense_copy(), asm, apply_v, sigma, eps)


def solve_quadratic(H: SparseSymmetric, A, J: JacobianElement, sigma, eps,
                    R1, R2, tol):
    """Solve the unsymmetric Newton system of the quadratic case.

        [[I + sigma*V*H, -sigma*V*A'], [-sigma*A*V*H, eps*I + sigma*A*V*A']]

    applied to ``(d1, d2) = (R1, R2)`` with residual at most
    ``max(tol / max(1, ||H||_F), 1e-12 ||(R1; R2)||)``.  ``||H||_F`` is
    cached on H and bounds its largest eigenvalue.  Only ``H @ d1`` and the
    quadratic form of ``d1`` are meaningful to callers; both agree with the
    range-space projected direction, which is never formed.  ``A`` is a
    matrix or the :class:`NewtonAssembly` of a problem; a plain matrix gets
    an assembly built for this one call.

    The storage of H picks the route:

    - ``"dense"`` when H is stored dense (``H.dense_copy()`` is not None).
      With ``V = diag(s) + W diag(d) W'``, when s is one constant on H's
      row support and the k_H columns of W that touch that support satisfy
      ``k_H + m < n``, the solve runs in H's eigenbasis
      (:func:`_quadratic_eigen`); otherwise the blocks are built with dense
      products and factored in place by LAPACK LU.  Either way V's low-rank
      part is applied block by block from the Jacobian's arrays;
    - ``"splu"`` otherwise: sparse LU of the assembled block matrix.

    The solve gets at most two refinement steps.  Raises
    :class:`LinearSolveError`, carrying the iterate ``(d1; d2)`` of the whole
    system and its residual, when the solve misses the target or the sparse
    factorization fails.  The returned stats, or the error, name the
    factorization tried: ``eigen``, ``dense_lu`` or ``splu``.
    """
    asm = _assembly(A, J.cone)
    m, n = asm.shape
    R1 = np.asarray(R1, dtype=float)
    R2 = np.asarray(R2, dtype=float)
    if R1.shape != (n,) or R2.shape != (m,):
        raise ValueError("right-hand side block dimensions do not match A")
    rhs_scale = np.sqrt(R1 @ R1 + R2 @ R2)
    stop = max(float(tol) / max(1.0, H.fro_norm()), 1e-12 * rhs_scale)
    rhs = np.concatenate([R1, R2])

    Hd = H.dense_copy()
    # V's split serves the eigenbasis test and, when that declines, the
    # dense blocks
    split = None if Hd is None else _split_v(J)
    eigen = None if Hd is None else _quadratic_eigen(H, asm, split, sigma, eps)
    if eigen is not None:
        route = "eigen"
        solve, matvec = eigen
    elif Hd is not None:
        route = "dense_lu"
        M, matvec = _quadratic_dense(Hd, asm, split[2], sigma, eps)
        # M' is Fortran-ordered, so LAPACK factors it in place
        lu = scipy.linalg.lu_factor(M.T, overwrite_a=True, check_finite=False)
        solve = lambda r: scipy.linalg.lu_solve(lu, r, trans=1,
                                                check_finite=False)
    else:
        route = "splu"
        A = asm.csc()
        V = jacobian_sparse_matrix(J)
        VH = (V @ H.to_csr()).tocsr()
        VAT = (V @ A.T).tocsr()
        Mhat = sp.bmat(
            [[sp.identity(n) + sigma * VH, -sigma * VAT],
             [-sigma * (A @ VH), eps * sp.identity(m) + sigma * (A @ VAT)]],
            format="csc")
        matvec = Mhat.__matmul__
        try:
            solve = spla.splu(Mhat).solve
        except RuntimeError as err:
            raise LinearSolveError(
                f"sparse LU of the block system failed: {err}", route) from err
    x, stats = _refine(solve, matvec, rhs, stop, route)
    return x[:n], x[n:], stats
