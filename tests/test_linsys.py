"""Newton-system assembly and solve routes against dense factorization oracles."""

import pickle
import sys
import threading

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

import socalm
from socalm import (
    Block,
    ConeSpec,
    NewtonAssembly,
    NewtonSystem,
    SocCase,
    SparseSymmetric,
    apply_jacobian,
    assemble_linear,
    jacobian_element,
    make_jacobian,
    solve_quadratic,
    solve_spd,
)
from socalm import linsys
from socalm.linsys import LinearSolveError, jacobian_sparse_matrix
from socalm.problems import meb_problem


def rank_one_example():
    """``2 I + u u'`` with ``u = (1, 1)``."""
    return NewtonSystem(m=2, M_sp=sp.csr_matrix(2 * np.eye(2)),
                        U=sp.csc_matrix(np.ones((2, 1))), d=np.ones(1))


def diagonal_csr(diag):
    """CSR matrix that stores ``diag`` on its diagonal, zeros included."""
    m = diag.size
    return sp.csr_matrix((diag, np.arange(m), np.arange(m + 1)), shape=(m, m))


def fail_factorization(*args, **kwargs):
    raise RuntimeError("Factor is exactly singular")


def random_setup(seed, m=None, nonneg=0, soc=(3, 4, 5), scale=2.0):
    rng = np.random.default_rng(seed)
    cone = ConeSpec.make(nonneg=nonneg, soc=soc)
    n = cone.total_dim
    m = m if m is not None else max(4, n // 2)
    A = sp.csr_matrix(rng.standard_normal((m, n)))
    x = rng.standard_normal(n) * scale
    J = jacobian_element(cone, x)
    return rng, cone, A, J


def symmetric_with_zeros(n, pairs_removed, seed=7):
    """Random symmetric n x n matrix with that many off-diagonal pairs zeroed."""
    rng = np.random.default_rng(seed)
    Hd = rng.standard_normal((n, n))
    Hd = Hd + Hd.T
    lower = np.transpose(np.tril_indices(n, -1))
    for r, c in lower[rng.choice(len(lower), pairs_removed, replace=False)]:
        Hd[r, c] = Hd[c, r] = 0.0
    return Hd


def held_arrays(H):
    """Every array or sparse matrix that H keeps."""
    return [v for v in vars(H).values()
            if isinstance(v, np.ndarray) or sp.issparse(v)]


class TestSparseSymmetric:
    def test_duplicates_coalesce(self):
        H = SparseSymmetric(2, [0, 0, 1], [0, 0, 0], [1.0, 2.0, 0.5])
        M = H.to_csr().toarray()
        np.testing.assert_allclose(M, [[3.0, 0.5], [0.5, 0.0]])
        rows, cols, vals = H.lower()
        assert (rows.tolist(), cols.tolist(), vals.tolist()) == (
            [0, 1], [0, 0], [3.0, 0.5])

    @pytest.mark.parametrize("source", ["triplets", "from_dense",
                                        "from_sparse", "parse_problem"])
    @pytest.mark.parametrize("pairs_removed, dense", [(18, True), (19, False)])
    def test_one_storage_chosen_by_the_rule(self, tmp_path, source,
                                            pairs_removed, dense):
        # n = 10: dense storage (800 bytes) is no larger than CSR from 63
        # stored entries on, so 64 entries go dense and 62 stay sparse
        n = 10
        Hd = symmetric_with_zeros(n, pairs_removed)
        assert linsys._dense_is_smaller(n, n, np.count_nonzero(Hd)) == dense
        if source == "triplets":
            # every entry arrives as two halves that the constructor sums
            r, c = np.nonzero(np.tril(Hd))
            H = SparseSymmetric(n, np.tile(r, 2), np.tile(c, 2),
                                np.tile(0.5 * Hd[r, c], 2))
        elif source == "from_dense":
            H = SparseSymmetric.from_dense(Hd)
        elif source == "from_sparse":
            H = SparseSymmetric.from_sparse(sp.csr_matrix(Hd))
        else:
            rng = np.random.default_rng(8)
            f = tmp_path / "h.prob"
            socalm.write_problem(socalm.ProblemData(
                Hd, rng.standard_normal((2, n)), rng.standard_normal(2),
                rng.standard_normal(n), ConeSpec.make(nonneg=3, soc=(3, 4))), f)
            H = socalm.parse_problem(f).H
        np.testing.assert_array_equal(H.to_csr().toarray(), Hd)
        assert (H.dense_copy() is not None) == dense
        storage = H.dense_copy() if dense else H.to_csr()
        held = held_arrays(H)
        assert len(held) == 2
        assert {id(a) for a in held} == {id(storage), id(H.row_support)}
        if dense:
            assert not storage.flags.writeable
        np.testing.assert_array_equal(H.row_support, np.any(Hd != 0, axis=1))

    @pytest.mark.parametrize("pairs_removed", [0, 18, 19, 44])
    def test_frobenius_norm_is_that_of_the_csr_nonzeros(self, pairs_removed):
        H = SparseSymmetric.from_dense(symmetric_with_zeros(10, pairs_removed))
        assert (H.dense_copy() is not None) == (pairs_removed <= 18)
        norm = np.linalg.norm(H.to_csr().data)
        assert np.float64(H.fro_norm()).tobytes() == norm.tobytes()

    def test_zero_matrix(self):
        H = SparseSymmetric(4)
        assert H.is_zero and H.fro_norm() == 0.0
        assert H.dense_copy() is None and H.to_csr().nnz == 0
        assert not H.row_support.any()
        assert [a.size for a in H.lower()] == [0, 0, 0]

    def test_upper_entry_rejected(self):
        with pytest.raises(ValueError):
            SparseSymmetric(2, [0], [1], [1.0])

    def test_from_dense_requires_symmetry(self):
        with pytest.raises(ValueError):
            SparseSymmetric.from_dense(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_roundtrip_and_norm(self):
        rng = np.random.default_rng(3)
        M = rng.standard_normal((6, 6))
        M = M + M.T
        H = SparseSymmetric.from_dense(M)
        np.testing.assert_allclose(H.to_csr().toarray(), M, atol=1e-15)
        assert abs(H.fro_norm() - np.linalg.norm(M, "fro")) < 1e-12
        v = rng.standard_normal(6)
        np.testing.assert_allclose(H.matvec(v), M @ v, atol=1e-13)
        assert abs(H.quad(v) - v @ M @ v) < 1e-10

    @pytest.mark.parametrize("dense", [True, False])
    def test_products_use_the_kept_storage(self, dense):
        # a full H multiplies through its dense copy, a tridiagonal one
        # through CSR, so each product is exactly that storage's product
        rng = np.random.default_rng(5)
        n = 40
        if dense:
            G = rng.standard_normal((n, n))
            H = SparseSymmetric.from_dense(G @ G.T)
        else:
            H = SparseSymmetric.from_sparse(sp.diags(
                [np.full(n - 1, -1.0), np.full(n, 2.5), np.full(n - 1, -1.0)],
                [-1, 0, 1]))
        store = H.dense_copy() if dense else H.to_csr()
        assert (H.dense_copy() is not None) == dense
        v = rng.standard_normal(n)
        X = rng.standard_normal((n, 3))
        np.testing.assert_array_equal(H.matvec(v), store @ v)
        np.testing.assert_array_equal(H.matvec(X), store @ X)
        assert H.quad(v) == float(v @ (store @ v))


class TestAssembly:
    def test_all_zero_blocks_is_scaled_identity(self):
        cone = ConeSpec.make(soc=(3, 4))
        rng = np.random.default_rng(1)
        A = sp.csr_matrix(rng.standard_normal((5, cone.total_dim)))
        J = make_jacobian(cone, soc_cases={0: (SocCase.ZERO, None, None),
                                           1: (SocCase.ZERO, None, None)})
        sys_ = assemble_linear(A, J, 1.0, 0.5)
        rhs = rng.standard_normal(5)
        np.testing.assert_allclose(sys_.densify(), 0.5 * np.eye(5), atol=1e-15)
        d, _ = solve_spd(sys_, rhs, 1e-12)
        np.testing.assert_allclose(d, rhs / 0.5, atol=1e-12)

    def test_all_identity_blocks(self):
        cone = ConeSpec.make(soc=(3, 4))
        rng = np.random.default_rng(2)
        A = sp.csr_matrix(rng.standard_normal((5, cone.total_dim)))
        J = make_jacobian(cone, soc_cases={0: (SocCase.IDENTITY, None, None),
                                           1: (SocCase.IDENTITY, None, None)})
        eps = 0.25
        sys_ = assemble_linear(A, J, 1.0, eps)
        assert sys_.k == 0
        ref = eps * np.eye(5) + (A @ A.T).toarray()
        np.testing.assert_allclose(sys_.densify(), ref, atol=1e-12)

    def test_densify_example(self):
        sys_ = rank_one_example()
        np.testing.assert_allclose(sys_.densify(), [[3.0, 1.0], [1.0, 3.0]])

    def test_dimension_mismatch(self):
        cone = ConeSpec.make(soc=(3,))
        J = jacobian_element(cone, np.array([0.0, 1.0, 2.0]))
        with pytest.raises(ValueError):
            assemble_linear(sp.csr_matrix(np.ones((2, 4))), J, 1.0, 0.1)

    @pytest.mark.parametrize("seed", range(6))
    def test_operator_consistency_random_probes(self, seed):
        rng, cone, A, J = random_setup(seed, nonneg=3)
        eps = 0.3
        sys_ = assemble_linear(A, J, 1.0, eps)
        for _ in range(20):
            v = rng.standard_normal(A.shape[0])
            ref = eps * v + A @ apply_jacobian(J, A.T @ v)
            got = sys_.matvec(v)
            assert (np.linalg.norm(got - ref)
                    <= 1e-12 * max(1.0, np.linalg.norm(ref)))

    def test_boundary_cases_assemble(self):
        # explicit boundary elements exercise the degenerate rank-one folding
        cone = ConeSpec.make(soc=(3, 4))
        rng = np.random.default_rng(8)
        A = sp.csr_matrix(rng.standard_normal((6, cone.total_dim)))
        w3 = np.array([0.6, 0.8])
        w4 = rng.standard_normal(3)
        w4 /= np.linalg.norm(w4)
        J = make_jacobian(cone, soc_cases={
            0: (SocCase.BOUNDARY_UPPER, None, w3),
            1: (SocCase.BOUNDARY_LOWER, None, w4)})
        sys_ = assemble_linear(A, J, 1.0, 0.1)
        assert sys_.k == 2  # one column per degenerate block
        v = rng.standard_normal(6)
        ref = 0.1 * v + A @ apply_jacobian(J, A.T @ v)
        assert np.linalg.norm(sys_.matvec(v) - ref) <= 1e-12 * np.linalg.norm(ref)


def assembly_reference(A, J, eps):
    """``eps*I + A V A'`` densified, with V realized from the Jacobian element."""
    A = sp.csr_matrix(A)
    return eps * np.eye(A.shape[0]) + (A @ jacobian_sparse_matrix(J) @ A.T).toarray()


def assert_assembly_matches(asm, J, eps):
    got = asm.assemble(J, eps).densify()
    ref = assembly_reference(asm.A, J, eps)
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def unit(rng, n):
    w = rng.standard_normal(n)
    return w / np.linalg.norm(w)


def every_case_jacobian(cone, rng, mask):
    """Element with the Lorentz blocks cycling through every SocCase."""
    cases = {}
    for i, blk_id in enumerate(cone.soc_block_ids):
        case = list(SocCase)[i % len(SocCase)]
        dim = cone.blocks[blk_id].dim
        rho = rng.uniform(-0.9, 0.9) if case == SocCase.MIDDLE else None
        w = unit(rng, dim - 1) if case >= SocCase.MIDDLE else None
        cases[blk_id] = (case, rho, w)
    return make_jacobian(cone, nonneg_mask=mask, soc_cases=cases)


def lowrank_from_coordinates(J):
    """``(W, d)`` of :func:`linsys._jacobian_lowrank` through COO -> CSC."""
    rows, cols, vals, ds = [], [], [], []
    k = 0
    for gj in J.soc:
        g = gj.group
        sel = np.nonzero(gj.codes >= SocCase.MIDDLE)[0]
        np.testing.assert_array_equal(gj.rows, sel)
        for sign, lam in ((1.0, 0.5 * (1.0 - gj.rho[sel])),
                          (-1.0, -0.5 * (1.0 + gj.rho[sel]))):
            for b, weight, w in zip(sel, lam, gj.omega):
                if abs(weight) <= 1e-14:
                    continue
                inv = 1.0 / np.sqrt(2.0)
                col = np.concatenate(([inv], sign * inv * w))
                rows.append(g.starts[b] + np.arange(g.dim))
                cols.append(np.full(g.dim, k))
                vals.append(col)
                ds.append(weight)
                k += 1
    W = sp.coo_matrix((np.concatenate(vals),
                       (np.concatenate(rows), np.concatenate(cols))),
                      shape=(J.cone.total_dim, k)).tocsc()
    return W, np.array(ds)


def orthant_matrix(rng, m, cone, a0):
    """Random A whose nonneg columns follow one of the storage cases below.

    Each Lorentz column holds one entry, so the Lorentz Grams are diagonal
    and the nonneg columns alone decide how M is stored.
    """
    n0 = cone.nonneg_dim
    A = np.zeros((m, cone.total_dim))
    A[rng.integers(0, m, cone.total_dim), np.arange(cone.total_dim)] = (
        rng.standard_normal(cone.total_dim))
    A0 = rng.standard_normal((m, n0))   # a0 == "dense" keeps it whole
    if a0 == "dense_rows":
        A0[7:] = 0.0           # stored dense, but its Gram fills 7 of m rows
    elif a0 == "sparse":
        A0 *= rng.random((m, n0)) < 0.1
    elif a0 == "sparse_wide_gram":
        A0 *= rng.random((m, n0)) < 0.02
        A0[:, :2] = rng.standard_normal((m, 2))  # two dense columns
    A[:, :n0] = A0
    return sp.csr_matrix(A)


class TestNewtonAssembly:
    # (A_0 case, m, nonneg dim, whether A_0 is stored dense, whether its
    # active columns go to U, whether M is stored dense)
    STORAGE = [("dense", 12, 6, True, True, False),
               ("dense_rows", 10, 6, True, True, False),
               ("dense", 12, 12, True, False, True),
               ("dense_rows", 10, 12, True, False, False),
               ("sparse", 30, 10, False, False, False),
               ("sparse_wide_gram", 12, 30, False, False, True)]

    @pytest.mark.parametrize("a0, m, n0, a0_dense, lowrank0, m_dense", STORAGE)
    @pytest.mark.parametrize("mask", ["random", "zeros", "ones"])
    def test_matches_reference_on_both_sides_of_storage_rule(
            self, a0, m, n0, a0_dense, lowrank0, m_dense, mask):
        rng = np.random.default_rng(len(a0) + m)
        cone = ConeSpec.make(nonneg=n0, soc=(3, 4, 3, 5))
        A = orthant_matrix(rng, m, cone, a0)
        masks = {"random": (rng.random(n0) < 0.5) * 1.0,
                 "zeros": np.zeros(n0), "ones": np.ones(n0)}
        J = every_case_jacobian(cone, rng, masks[mask])
        asm = NewtonAssembly(A, cone)
        assert_assembly_matches(asm, J, 0.3)
        st = asm._structure
        assert isinstance(st.A0t, np.ndarray) == a0_dense
        assert st.lowrank0 == lowrank0
        assert (st.full is not None) == m_dense
        sys_ = asm.assemble(J, 0.3)
        assert (sys_.M_sp.nnz == m * m) == m_dense
        # the active nonneg columns are in U with weight 1, or in M_sp
        k_lorentz = linsys._jacobian_lowrank(J)[1].size
        active = int(masks[mask].sum())
        assert sys_.k == k_lorentz + (active if lowrank0 else 0)
        if lowrank0:
            # each Lorentz column of A holds one entry: M_sp is diagonal
            assert sys_.M_sp.nnz == m
            np.testing.assert_array_equal(sys_.d[:active], np.ones(active))
            np.testing.assert_array_equal(
                sys_.U[:, :active], A.toarray()[:, np.flatnonzero(masks[mask])])

    def test_no_nonneg_block(self):
        rng = np.random.default_rng(1)
        cone = ConeSpec.make(soc=(3, 3, 4, 2, 5))
        A = sp.random(7, cone.total_dim, density=0.4, random_state=1, format="csr")
        assert_assembly_matches(NewtonAssembly(A, cone),
                                every_case_jacobian(cone, rng, None), 0.2)

    def test_no_lorentz_block(self):
        rng = np.random.default_rng(2)
        cone = ConeSpec.make(nonneg=9)
        for density in (0.2, 1.0):
            A = sp.random(6, 9, density=density, random_state=2, format="csr")
            J = make_jacobian(cone, nonneg_mask=(rng.random(9) < 0.5) * 1.0)
            assert_assembly_matches(NewtonAssembly(A, cone), J, 0.1)

    def test_every_soc_case_in_equal_dimension_groups(self):
        rng = np.random.default_rng(3)
        # interleaved dimensions: the groups are not contiguous in A
        cone = ConeSpec.make(nonneg=2, soc=(3, 4, 3, 4, 3, 4, 3, 4, 3, 4, 6))
        A = sp.csr_matrix(rng.standard_normal((9, cone.total_dim)))
        J = every_case_jacobian(cone, rng, np.array([1.0, 0.0]))
        codes = np.concatenate([gj.codes for gj in J.soc])
        assert set(codes) == set(SocCase)
        assert len(cone.soc_groups) == 3
        assert_assembly_matches(NewtonAssembly(A, cone), J, 0.05)

    def test_lowrank_columns_match_coordinate_construction(self):
        # W is built column by column as CSC; the same matrix, to the bit,
        # as from coordinates, for contiguous and interleaved groups
        rng = np.random.default_rng(5)
        for cone in (ConeSpec.make(nonneg=2, soc=(3, 4, 3, 4, 3, 4, 3, 4, 6)),
                     ConeSpec.make(soc=(5,) * 12)):
            J = every_case_jacobian(cone, rng, None if not cone.nonneg_dim
                                    else np.array([1.0, 0.0]))
            W, d = linsys._jacobian_lowrank(J)
            ref, ref_d = lowrank_from_coordinates(J)
            assert W.format == "csc" and W.shape == ref.shape
            assert W.shape[1] > 0
            np.testing.assert_array_equal(d, ref_d)
            np.testing.assert_array_equal(W.indptr, ref.indptr)
            np.testing.assert_array_equal(W.indices, ref.indices)
            np.testing.assert_array_equal(W.data, ref.data)

    def test_structure_reused_across_assemblies(self):
        rng = np.random.default_rng(4)
        cone = ConeSpec.make(nonneg=5, soc=(3, 4, 4))
        A = sp.random(8, cone.total_dim, density=0.5, random_state=4, format="csr")
        asm = NewtonAssembly(A, cone)
        structure = None
        for trial in range(6):
            if trial % 2:
                J = jacobian_element(cone, rng.standard_normal(cone.total_dim))
            else:
                J = every_case_jacobian(cone, rng, (rng.random(5) < 0.5) * 1.0)
            assert_assembly_matches(asm, J, rng.uniform(0.01, 1.0))
            structure = structure or asm._structure
            assert asm._structure is structure

    def test_pair_chunks_cover_every_column(self, monkeypatch):
        import socalm.linsys as linsys
        rng = np.random.default_rng(5)
        cone = ConeSpec.make(soc=(4, 5, 4, 6))
        A = sp.random(10, cone.total_dim, density=0.6, random_state=5, format="csr")
        J = every_case_jacobian(cone, rng, None)
        monkeypatch.setattr(linsys, "_PAIR_CHUNK", 7)
        assert_assembly_matches(NewtonAssembly(A, cone), J, 0.1)

    def test_rejects_element_of_another_cone(self):
        cone = ConeSpec.make(soc=(3,))
        asm = NewtonAssembly(sp.csr_matrix(np.ones((2, 3))), cone)
        J = jacobian_element(ConeSpec.make(nonneg=3), np.ones(3))
        with pytest.raises(ValueError):
            asm.assemble(J, 0.1)

    def test_dense_storage_takes_dense_cholesky_route(self):
        # an orthant as wide as A: its Gram makes M_sp dense
        rng = np.random.default_rng(6)
        cone = ConeSpec.make(nonneg=8, soc=(5,))
        A = sp.csr_matrix(rng.standard_normal((8, cone.total_dim)))
        J = make_jacobian(cone, nonneg_mask=np.ones(8), soc_cases={
            1: (SocCase.MIDDLE, 0.3, unit(rng, 4))})
        sys_ = assemble_linear(A, J, 1.0, 0.1)
        assert sys_.M_sp.nnz == 64 and sys_.k == 2
        rhs = rng.standard_normal(8)
        d, stats = solve_spd(sys_, rhs, 1e-12)
        assert stats.method == "dense"
        np.testing.assert_allclose(d, np.linalg.solve(sys_.densify(), rhs),
                                   rtol=1e-10, atol=1e-12)


def small_srlasso(seed=0, m=30, d=12):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((m, d))
    w = B[:, :3] @ np.full(3, 2.0) + 0.1 * rng.standard_normal(m)
    return socalm.build_srlasso(B, w, socalm.lambda_from_lambda_c(1.0, d))[1]


class TestAssemblyCache:
    @pytest.fixture
    def builds(self, monkeypatch):
        """Count structure builds of every NewtonAssembly."""
        calls = []
        original = NewtonAssembly._build

        def counted(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(NewtonAssembly, "_build", counted)
        return calls

    def test_problem_construction_builds_nothing(self, builds):
        problem = small_srlasso()
        assert builds == []
        assert problem.assembly._structure is None
        # but the transpose view of the one A, which copies nothing
        At = problem.assembly.at()
        assert problem.assembly.csc() is problem.A
        assert At.format == "csr" and At.shape == problem.A.shape[::-1]
        for name in ("data", "indices", "indptr"):
            assert np.shares_memory(getattr(At, name), getattr(problem.A, name))

    def test_one_csc_copy_of_a_serves_products_and_assembly(self):
        problem = small_srlasso()
        v = np.random.default_rng(1).standard_normal(problem.m)
        # a gather through A' by rows sums as the scatter through A by rows
        Atv = problem.A.T @ v
        assert problem.rmatvec(v).tobytes() == Atv.tobytes()
        Ac, At = problem.assembly.csc(), problem.assembly.at()
        # A' by rows is the CSC copy read the other way, not a second copy
        assert At.format == "csr" and np.shares_memory(At.data, Ac.data)
        socalm.solve(problem)
        assert problem.assembly._structure is not None
        assert problem.assembly.csc() is Ac
        assert problem.assembly.at() is At

    def test_concurrent_solves_copy_no_a(self, monkeypatch):
        serial = socalm.solve(small_srlasso(seed=3))
        problem = small_srlasso(seed=3)
        A = problem.A
        calls = []

        def counted(name):
            method = getattr(A, name)

            def call(*args, **kwargs):
                calls.append(name)
                return method(*args, **kwargs)
            return call

        for name in ("tocsr", "tocsc", "tocoo", "copy", "transpose", "astype"):
            monkeypatch.setattr(A, name, counted(name))
        barrier = threading.Barrier(2)
        results = [None, None]

        def run(i):
            barrier.wait()
            results[i] = socalm.solve(problem)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
        assert calls == []
        assert problem.assembly.csc() is A
        for r in results:
            assert r.status == serial.status == "Optimal"
            assert (r.outer_iters, r.newton_iters) == (serial.outer_iters,
                                                       serial.newton_iters)
            for name in ("x1", "x2", "x3", "y"):
                assert getattr(r, name).tobytes() == getattr(serial, name).tobytes()

    def test_quadratic_solve_builds_nothing(self, builds):
        _, problem = socalm.gen_trs(6, 1)
        result = socalm.solve(problem)
        assert result.newton_iters > 0
        assert builds == []

    def test_linear_solve_builds_once(self, builds):
        problem = small_srlasso()
        result = socalm.solve(problem)
        assert result.status == "Optimal"
        assert result.newton_iters > 1
        assert builds == [problem.assembly]
        socalm.solve(problem)
        assert len(builds) == 1

    def test_concurrent_first_assemblies_build_once(self, builds):
        rng = np.random.default_rng(7)
        cone = ConeSpec.make(nonneg=20, soc=(3,) * 40)
        A = sp.random(30, cone.total_dim, density=0.3, random_state=7,
                      format="csr")
        J = jacobian_element(cone, rng.standard_normal(cone.total_dim))
        asm = NewtonAssembly(A, cone)
        barrier = threading.Barrier(6)
        results = [None] * 6

        def run(i):
            barrier.wait()
            results[i] = asm.assemble(J, 0.1).densify()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(i,)) for i in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert builds == [asm]
        for M in results:
            assert np.array_equal(M, results[0])

    def test_pickled_problem_starts_unbuilt(self):
        problem = small_srlasso()
        socalm.solve(problem)
        copy = pickle.loads(pickle.dumps(problem))
        assert problem.assembly._structure is not None
        assert copy.assembly._structure is None
        # the copy holds its A once too, with the same bits
        assert copy.assembly.csc() is copy.A
        assert np.shares_memory(copy.assembly.at().data, copy.A.data)
        for name in ("data", "indices", "indptr"):
            assert (getattr(copy.A, name).tobytes()
                    == getattr(problem.A, name).tobytes())
        assert socalm.solve(copy).status == "Optimal"

    def test_concurrent_solves_of_one_problem_agree_bitwise(self):
        problem = small_srlasso(seed=3)
        barrier = threading.Barrier(2)
        results = [None, None]

        def run(i):
            barrier.wait()
            results[i] = socalm.solve(problem)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
        serial = socalm.solve(problem)
        for r in results:
            assert r.status == serial.status == "Optimal"
            assert r.newton_iters == serial.newton_iters
            for name in ("x1", "x2", "x3", "y"):
                assert np.array_equal(getattr(r, name), getattr(serial, name))


def meb_twin(problem, change):
    """The enclosing-ball problem with its A edited by ``change`` (COO in,
    COO out)."""
    A = problem.A.tocoo()
    return socalm.ProblemData(None, change(A), problem.b, problem.c,
                              problem.cone)


def selection_block(rng, m, dim):
    """m x dim block with at most one entry, +-1, in each row."""
    rows = np.flatnonzero(rng.random(m) < 0.8)
    return sp.csc_matrix((rng.choice([-1.0, 1.0], rows.size),
                          (rows, rng.integers(0, dim, rows.size))),
                         shape=(m, dim))


def repeated(Ag, count):
    """The problem whose cone is ``count`` Lorentz blocks and whose A repeats
    ``Ag`` once per block."""
    m, dim = Ag.shape
    cone = ConeSpec.make(soc=(dim,) * count)
    return socalm.ProblemData(None, sp.hstack([Ag] * count, format="csc"),
                              np.ones(m), np.ones(count * dim), cone)


class TestSharedBlock:
    """A cone of equal Lorentz blocks whose columns of A repeat one block."""

    def test_detected_on_enclosing_ball_problems(self, tmp_path):
        instance, problem = socalm.gen_meb(40, 5)
        socalm.write_problem(problem, tmp_path / "meb.prob")
        for p in (problem, meb_problem(instance),
                  socalm.parse_problem(tmp_path / "meb.prob")):
            Ag = p.assembly.block
            assert Ag is not None and Ag.shape == (6, 6)
            np.testing.assert_array_equal(Ag.toarray(), -np.eye(6))
            first = p.A[:, :6]
            for name in ("data", "indices", "indptr"):
                assert (getattr(Ag, name).tobytes()
                        == getattr(first, name).tobytes())

    def _bump_value(A):
        A.data[A.col == 6 * 3 + 2] *= 2.0
        return A

    def _move_row(A):
        hit = A.col == 6 * 3 + 2
        A.row[hit] = (A.row[hit] + 1) % 6
        return A

    def _add_entry(A):
        return sp.coo_matrix(
            (np.append(A.data, 1.0), (np.append(A.row, 0),
                                      np.append(A.col, 6 * 3 + 2))),
            shape=A.shape)

    @pytest.mark.parametrize("change", [_bump_value, _move_row, _add_entry])
    def test_not_detected_when_one_block_differs(self, change):
        _, problem = socalm.gen_meb(40, 5)
        assert meb_twin(problem, change).assembly.block is None

    def test_not_detected_on_other_cones(self):
        assert small_srlasso().assembly.block is None
        assert socalm.gen_trs(6, 1)[1].assembly.block is None
        eye = -sp.identity(4, format="csc")
        cases = [(ConeSpec.make(nonneg=4, soc=(4, 4)), sp.hstack([eye] * 3)),
                 (ConeSpec.make(soc=(4, 4, 2, 2)),
                  sp.hstack([eye, eye, eye[:, :2], eye[:, 2:]])),
                 (ConeSpec.make(soc=(4,)), eye)]
        for cone, A in cases:
            assert NewtonAssembly(A, cone).block is None

    @pytest.mark.parametrize("seed", range(3))
    def test_selection_block_products_have_the_bits_of_a(self, seed):
        rng = np.random.default_rng(seed)
        p = repeated(selection_block(rng, 9, 5), 30)
        assert p.assembly.block is not None
        v = rng.standard_normal(p.n) * 10.0 ** rng.uniform(-8, 8, p.n)
        w = rng.standard_normal(p.m)
        assert p.matvec(v).tobytes() == (p.A @ v).tobytes()
        assert p.rmatvec(w).tobytes() == (p.A.T @ w).tobytes()

    def test_block_with_several_entries_per_row_agrees(self):
        rng = np.random.default_rng(4)
        Ag = sp.random(7, 5, density=0.7, random_state=4, format="csc")
        assert (np.diff(Ag.tocsr().indptr) > 1).any()
        p = repeated(Ag, 25)
        v, w = rng.standard_normal(p.n), rng.standard_normal(p.m)
        ref = p.A @ v
        assert np.abs(p.matvec(v) - ref).max() <= 1e-13 * np.abs(ref).max()
        # A' w keeps its bits: each column is summed as before
        assert p.rmatvec(w).tobytes() == (p.A.T @ w).tobytes()

    @staticmethod
    def general_twin(monkeypatch, make):
        """The problem ``make()`` builds, taking the general path."""
        with monkeypatch.context() as mp:
            mp.setattr(linsys, "shared_block", lambda A, cone: None)
            p = make()
        assert p.assembly.block is None
        return p

    @staticmethod
    def assert_same_system(shared, ref):
        assert shared.M_sp.format == ref.M_sp.format
        for name in ("data", "indices", "indptr"):
            got, want = getattr(shared.M_sp, name), getattr(ref.M_sp, name)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
        # the shared block's U is dense, the general path's sparse; both sum
        # over the block's columns in ascending order, so the values agree
        # bit for bit, and the zeros the sparse U drops are +0.0
        assert isinstance(shared.U, np.ndarray) and sp.issparse(ref.U)
        assert shared.U.tobytes() == ref.U.toarray().tobytes()
        assert shared.d.tobytes() == ref.d.tobytes()

    def test_assembly_has_the_bits_of_the_general_path(self, monkeypatch):
        _, problem = socalm.gen_meb(60, 6)
        general = self.general_twin(monkeypatch,
                                    lambda: socalm.gen_meb(60, 6)[1])
        assembled = []
        real = NewtonAssembly.assemble

        def both(asm, J, eps):
            shared = real(asm, J, eps)
            self.assert_same_system(shared, real(general.assembly, J, eps))
            assembled.append(shared.k)
            return shared

        monkeypatch.setattr(NewtonAssembly, "assemble", both)
        assert socalm.solve(problem).status == "Optimal"
        assert len(assembled) > 10 and min(assembled) > 0
        # every block interior: no low-rank column
        z = np.zeros(problem.n)
        z[::7] = 1.0
        problem.assembly.assemble(jacobian_element(problem.cone, z), 0.5)
        assert assembled[-1] == 0

    @pytest.mark.parametrize("seed", range(3))
    def test_selection_block_assembly_has_the_bits_of_the_general_path(
            self, monkeypatch, seed):
        # empty rows of the block give exact zeros in U
        rng = np.random.default_rng(seed)
        Ag = selection_block(rng, 9, 5)
        problem = repeated(Ag, 30)
        general = self.general_twin(monkeypatch, lambda: repeated(Ag, 30))
        for _ in range(3):
            J = jacobian_element(problem.cone, rng.standard_normal(problem.n))
            shared = problem.assembly.assemble(J, 0.1)
            assert shared.k > 0 and (shared.U == 0.0).any()
            self.assert_same_system(shared,
                                    general.assembly.assemble(J, 0.1))

    def test_solve_agrees_with_the_general_path(self, monkeypatch):
        # the products with the dense U' go through BLAS, so the iterates
        # differ in their last bits, but no count moves
        shared = socalm.solve(socalm.gen_meb(200, 20)[1])
        general = socalm.solve(
            self.general_twin(monkeypatch, lambda: socalm.gen_meb(200, 20)[1]))
        assert shared.status == general.status == "Optimal"
        assert ((shared.outer_iters, shared.newton_iters)
                == (general.outer_iters, general.newton_iters))
        for name in ("x1", "x2", "x3", "y"):
            want = getattr(general, name)
            np.testing.assert_allclose(
                getattr(shared, name), want, rtol=0.0,
                atol=1e-10 * (1.0 + np.abs(want).max(initial=0.0)))

    def test_pickled_problem_detects_its_block_again(self):
        _, problem = socalm.gen_meb(30, 4)
        copy = pickle.loads(pickle.dumps(problem))
        assert copy.assembly.block is not None
        np.testing.assert_array_equal(copy.assembly.block.toarray(),
                                      problem.assembly.block.toarray())


def split_orthant(rng, m, d, lorentz_first=False, odd=False):
    """A problem whose orthant holds ``[B, -B]`` (one more column of B when
    ``odd``), B with an empty column and values spread over 16 decades,
    before or after a Lorentz block of dimension 5 whose columns are C."""
    B = rng.standard_normal((m, d)) * 10.0 ** rng.uniform(-8, 8, (m, d))
    B[rng.random((m, d)) < 0.3] = 0.0
    B[:, 1] = 0.0
    Bs = sp.csc_matrix(B)
    parts = [Bs, -Bs] + ([Bs[:, :1]] if odd else [])
    C = sp.csc_matrix(rng.standard_normal((m, 5)))
    blocks = [Block("nonneg", 2 * d + odd), Block("soc", 5)]
    if lorentz_first:
        parts, blocks = [C] + parts, blocks[::-1]
    else:
        parts = parts + [C]
    A = sp.hstack(parts, format="csc")
    return socalm.ProblemData(None, A, np.ones(m), np.ones(A.shape[1]),
                              ConeSpec(blocks))


def signed_zeros(rng, x, share):
    """``x`` with all but ``share`` of its entries set to +0.0 or -0.0."""
    zero = np.copysign(0.0, rng.standard_normal(x.size))
    return np.where(rng.random(x.size) < share, x, zero)


def spread(rng, size):
    return rng.standard_normal(size) * 10.0 ** rng.uniform(-8, 8, size)


SKIP_CASES = {
    "srlasso": lambda rng: socalm.build_srlasso(
        np.where(np.arange(12) == 4, 0.0, rng.standard_normal((30, 12))),
        rng.standard_normal(30), 0.7)[1],
    "orthant_first": lambda rng: split_orthant(rng, 9, 7),
    "orthant_after_lorentz": lambda rng: split_orthant(rng, 9, 7,
                                                       lorentz_first=True),
    "odd_orthant": lambda rng: split_orthant(rng, 9, 7, odd=True),
}


class TestSkipRules:
    """``A v`` over v's nonzero columns and ``A' v`` with a negated orthant
    half give the bits of the CSR products."""

    @pytest.fixture
    def column_reads(self, monkeypatch):
        """Count column selections of any CSC matrix."""
        calls = []
        original = sp.csc_matrix.__getitem__

        def counted(self, key):
            calls.append(key)
            return original(self, key)

        monkeypatch.setattr(sp.csc_matrix, "__getitem__", counted)
        return calls

    @pytest.mark.parametrize("case", SKIP_CASES)
    def test_detected_on_split_orthants(self, case):
        p = SKIP_CASES[case](np.random.default_rng(0))
        assert p.A.getnnz(axis=0).min() == 0
        want = 0 if case == "odd_orthant" else p.cone.nonneg_dim // 2
        assert p.assembly.negated_half() == want
        assert linsys.negated_half(p.A, p.cone) == want

    @pytest.mark.parametrize("case", SKIP_CASES)
    @pytest.mark.parametrize("share", [-1.0, linsys._SUBSET_SHARE, 1.0])
    def test_products_have_the_bits_of_csr(self, monkeypatch, case, share):
        # share -1 never takes the column subset, 1 always does
        monkeypatch.setattr(linsys, "_SUBSET_SHARE", share)
        rng = np.random.default_rng(1)
        p = SKIP_CASES[case](rng)
        R = p.A.tocsr()
        one = np.zeros(p.n)
        one[p.n // 2] = -2.5
        for v in (signed_zeros(rng, spread(rng, p.n), 0.1),
                  signed_zeros(rng, spread(rng, p.n), 0.0),
                  np.zeros(p.n), -np.zeros(p.n), one, spread(rng, p.n)):
            assert p.matvec(v).tobytes() == (R @ v).tobytes()
        for w in (spread(rng, p.m), signed_zeros(rng, spread(rng, p.m), 0.5),
                  np.zeros(p.m), -np.zeros(p.m),
                  signed_zeros(rng, spread(rng, 3 * p.m), 0.5).reshape(-1, 3)):
            assert p.rmatvec(w).tobytes() == (R.T @ w).tobytes()

    def test_rule_picks_the_product(self, column_reads):
        rng = np.random.default_rng(2)
        p = SKIP_CASES["srlasso"](rng)
        v = np.zeros(p.n)
        v[p.cone.nonneg_dim:] = 1.0
        # the Lorentz block's columns hold 30 of A's 690 entries
        p.matvec(v)
        assert len(column_reads) == 1
        p.matvec(spread(rng, p.n))
        p.matvec(spread(rng, (p.n, 2)))
        assert len(column_reads) == 1

    def test_halves_are_views_of_a(self):
        p = SKIP_CASES["orthant_first"](np.random.default_rng(3))
        assert p.assembly.negated_half() == 7
        # B's columns, then C's
        _, (head, tail) = p.assembly._halves
        assert head.shape == (7, p.m) and tail.shape == (5, p.m)
        for part in (head, tail):
            assert np.shares_memory(part.data, p.A.data)
            assert np.shares_memory(part.indices, p.A.indices)

    def test_decided_once_and_again_after_pickling(self, monkeypatch):
        calls = []
        real = linsys.negated_half

        def counted(A, cone):
            calls.append(cone)
            return real(A, cone)

        monkeypatch.setattr(linsys, "negated_half", counted)
        p = small_srlasso()
        assert calls == []
        w = np.random.default_rng(4).standard_normal(p.m)
        for _ in range(3):
            p.rmatvec(w)
        assert len(calls) == 1
        copy = pickle.loads(pickle.dumps(p))
        assert copy.rmatvec(w).tobytes() == p.rmatvec(w).tobytes()
        assert len(calls) == 2

    def _free_row(A, at):
        """A row where the column of entry ``at`` holds no entry."""
        taken = A.row[A.col == A.col[at]]
        return np.setdiff1d(np.arange(A.shape[0]), taken)[0]

    def _move_row(A, at, free_row=_free_row):
        A.row[at] = free_row(A, at)
        return A

    def _same_sign(A, at):
        A.data[at] = -A.data[at]
        return A

    def _one_ulp(A, at):
        A.data[at] = np.nextafter(A.data[at], np.inf)
        return A

    def _one_more_entry(A, at, free_row=_free_row):
        return sp.coo_matrix(
            (np.append(A.data, 1.0), (np.append(A.row, free_row(A, at)),
                                      np.append(A.col, A.col[at]))),
            shape=A.shape)

    @pytest.mark.parametrize(
        "change", [_move_row, _same_sign, _one_ulp, _one_more_entry])
    def test_near_misses_are_not_detected(self, change):
        rng = np.random.default_rng(5)
        p = SKIP_CASES["orthant_first"](rng)
        assert p.assembly.negated_half() == 7
        A = p.A.tocoo()
        # the second half's column 12 (B's column 5, negated), which has
        # entries and empty rows
        assert 0 < np.count_nonzero(A.col == 12) < p.m
        at = int(np.flatnonzero(A.col == 12)[0])
        q = socalm.ProblemData(None, change(A, at), p.b, p.c, p.cone)
        assert q.assembly.negated_half() == 0
        w = spread(rng, p.m)
        assert q.rmatvec(w).tobytes() == (q.A.tocsr().T @ w).tobytes()

    def test_detection_needs_float64_and_no_shared_block(self):
        _, meb = socalm.gen_meb(30, 4)
        assert meb.assembly.negated_half() == 0
        assert socalm.gen_trs(6, 1)[1].assembly.negated_half() == 0
        cone = ConeSpec.make(nonneg=4)
        A = sp.csc_matrix(np.array([[1.0, 2.0, -1.0, -2.0]]))
        assert NewtonAssembly(A, cone).negated_half() == 2
        assert NewtonAssembly(A.astype(np.float32), cone).negated_half() == 0


class TestTransposesHeld:
    """Each sparse factor is transposed once, not once per product."""

    @pytest.fixture
    def transposes(self, monkeypatch):
        calls = []
        original = sp.csc_matrix.transpose

        def counted(self, *args, **kwargs):
            calls.append(self.shape)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(sp.csc_matrix, "transpose", counted)
        return calls

    def test_newton_solve_transposes_no_factor(self, transposes):
        # an enclosing ball with one block's row moved: no shared block, so
        # U is sparse
        _, meb = socalm.gen_meb(30, 4)
        problem = meb_twin(meb, TestSharedBlock._move_row)
        assert problem.assembly.block is None
        rng = np.random.default_rng(2)
        J = jacobian_element(problem.cone, rng.standard_normal(problem.n))
        sys_ = problem.assembly.assemble(J, 1e-3)
        assert sp.issparse(sys_.U) and sys_.k > 0
        transposes.clear()
        rhs = rng.standard_normal(problem.m)
        d, _ = solve_spd(sys_, rhs, 1e-10)
        for _ in range(3):
            sys_.matvec(d)
        assert transposes == []


def dense_lu_problem(seed=5):
    """A quadratic problem whose dense H spans an orthant and two Lorentz
    blocks, so V's diagonal varies on H's support: the dense LU route."""
    rng = np.random.default_rng(seed)
    cone = ConeSpec.make(nonneg=6, soc=(4, 5))
    n, m = cone.total_dim, 4
    G = rng.standard_normal((n, n))
    return socalm.ProblemData(G @ G.T / n, sp.csc_matrix(
        rng.standard_normal((m, n))), rng.standard_normal(m),
        rng.standard_normal(n), cone)


class TestQuadraticStepConstants:
    """The quadratic solve builds no sparse matrix per step, splits V once
    and forms each H product once."""

    @pytest.fixture
    def sparse_builds(self, monkeypatch):
        calls = []
        original = sp._compressed._cs_matrix.__init__

        def counted(self, *args, **kwargs):
            calls.append(type(self).__name__)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(sp._compressed._cs_matrix, "__init__", counted)
        return calls

    @pytest.mark.parametrize("route", ["eigen", "dense_lu"])
    def test_second_solve_builds_no_sparse_matrix(self, sparse_builds, route):
        problem = (socalm.gen_trs(30, 1)[1] if route == "eigen"
                   else dense_lu_problem())
        asm, n, m = problem.assembly, problem.n, problem.m
        rng = np.random.default_rng(4)
        for _ in range(2):
            J = jacobian_element(problem.cone, 2.0 * rng.standard_normal(n))
            R1, R2 = rng.standard_normal(n), rng.standard_normal(m)
            sparse_builds.clear()
            d1, d2, stats = solve_quadratic(problem.H, asm, J, 0.7, 0.05, R1,
                                            R2, 1e-12)
            built = list(sparse_builds)
            assert stats.route == route
            assert_matches_reference(problem.H, problem.A, J, 0.7, 0.05, R1,
                                     R2, np.concatenate([d1, d2]))
        assert built == []

    @pytest.mark.parametrize("route", ["eigen", "dense_lu"])
    def test_each_step_splits_v_once(self, monkeypatch, route):
        # the dense LU route follows the eigenbasis test's refusal and
        # reuses its split of V
        problem = (socalm.gen_trs(30, 1)[1] if route == "eigen"
                   else dense_lu_problem())
        n, m = problem.n, problem.m
        calls = []
        split_v = linsys._split_v

        def counted(J):
            calls.append(J)
            return split_v(J)

        monkeypatch.setattr(linsys, "_split_v", counted)
        rng = np.random.default_rng(6)
        J = jacobian_element(problem.cone, 2.0 * rng.standard_normal(n))
        R1, R2 = rng.standard_normal(n), rng.standard_normal(m)
        *_, stats = solve_quadratic(problem.H, problem.assembly, J, 0.7, 0.05,
                                    R1, R2, 1e-12)
        assert stats.route == route
        assert calls == [J]

    def test_lowrank_part_has_the_bits_of_the_sparse_products(self):
        # V X from the Jacobian's block arrays against diag(s) X plus the
        # sparse products W (d (W' X)), with blocks of several groups and
        # both low-rank columns on the middle ones
        rng = np.random.default_rng(3)
        cone = ConeSpec.make(nonneg=3, soc=(4, 4, 5, 3, 4, 6, 5, 4, 5))
        J = every_case_jacobian(cone, rng, np.array([1.0, 0.0, 1.0]))
        s, _, apply_v = linsys._split_v(J)
        W, d = linsys._jacobian_lowrank(J)
        assert d.size > 2
        for cols in (1, 7):
            X = rng.standard_normal((cone.total_dim, cols))
            ref = s[:, None] * X
            ref += W @ (d[:, None] * (W.T @ X))
            assert apply_v(X).tobytes() == ref.tobytes()

    def test_repeat_trs_solve_counts(self, sparse_builds, monkeypatch):
        # the trust-region d = 400 bench instance (workload seed 0)
        _, problem = socalm.gen_trs(400, 1)
        first = socalm.solve(problem)
        products = []
        matvec = SparseSymmetric.matvec

        def counted(self, v):
            products.append(1)
            return matvec(self, v)

        monkeypatch.setattr(SparseSymmetric, "matvec", counted)
        sparse_builds.clear()
        again = socalm.solve(problem)
        assert (again.status, again.outer_iters, again.newton_iters) == (
            "Optimal", 5, 12)
        assert again.x2.tobytes() == first.x2.tobytes()
        assert len(products) <= 41
        assert len(sparse_builds) <= 2


class TestSolveSpd:
    def test_solve_example(self):
        sys_ = rank_one_example()
        d, _ = solve_spd(sys_, np.array([4.0, 4.0]), 1e-12)
        np.testing.assert_allclose(d, [1.0, 1.0], atol=1e-12)

    @pytest.mark.parametrize("strategy", ["augmented", "dense", "auto"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_dense_oracle(self, strategy, seed):
        rng, cone, A, J = random_setup(seed, m=20, nonneg=4, soc=(3, 5, 6))
        sys_ = assemble_linear(A, J, 1.0, 0.2)
        M = sys_.densify()
        rhs = rng.standard_normal(20)
        ref = np.linalg.solve(M, rhs)
        d, stats = solve_spd(sys_, rhs, 1e-11, strategy=strategy)
        rel = np.linalg.norm(d - ref) / np.linalg.norm(ref)
        assert rel <= 1e-10, (strategy, stats.method, rel)

    @pytest.mark.parametrize("strategy", ["augmented", "dense", "auto"])
    def test_no_lowrank_columns(self, strategy):
        # k = 0 takes the same direct path as any other k; a sparse M_sp goes
        # to sparse LU under "auto"
        cone = ConeSpec.make(nonneg=40, soc=(3, 4))
        rng = np.random.default_rng(21)
        A = sp.random(60, cone.total_dim, density=0.05, random_state=rng,
                      format="csr")
        J = make_jacobian(cone, nonneg_mask=rng.integers(0, 2, 40),
                          soc_cases={1: (SocCase.IDENTITY, None, None),
                                     2: (SocCase.ZERO, None, None)})
        sys_ = assemble_linear(A, J, 1.0, 0.1)
        assert sys_.k == 0
        assert sys_.M_sp.nnz < 60 * 60
        rhs = rng.standard_normal(60)
        d, stats = solve_spd(sys_, rhs, 1e-11, strategy=strategy)
        assert stats.method == ("augmented" if strategy == "auto" else strategy)
        ref = np.linalg.solve(sys_.densify(), rhs)
        assert np.linalg.norm(d - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_refinement_takes_at_most_two_steps(self):
        # with the identity as the approximate inverse of M = I + E, each
        # step multiplies the residual by -E
        rng = np.random.default_rng(13)
        E = 0.1 * rng.standard_normal((6, 6))
        M = np.eye(6) + E
        rhs = rng.standard_normal(6)
        with pytest.raises(LinearSolveError) as exc:
            linsys._refine(lambda r: r.copy(), lambda v: M @ v, rhs, 0.0,
                           "cholesky")
        assert exc.value.residual == pytest.approx(np.linalg.norm(
            np.linalg.matrix_power(-E, 3) @ rhs), rel=1e-8)
        assert (exc.value.route, exc.value.refine) == ("cholesky", 2)
        x, stats = linsys._refine(lambda r: r.copy(), lambda v: M @ v, rhs,
                                  1.01 * np.linalg.norm(E @ rhs), "cholesky")
        assert np.array_equal(x, rhs)
        assert (stats.route, stats.method) == ("cholesky", "dense")
        assert stats.refine == 0
        x, stats = linsys._refine(lambda r: r.copy(), lambda v: M @ v, rhs,
                                  1.01 * np.linalg.norm(E @ E @ rhs),
                                  "cholesky")
        assert stats.refine == 1

    @pytest.mark.parametrize("route, M_sp, k", [
        ("densified", sp.identity(3, format="csr"), 3),
        ("cholesky", sp.csr_matrix(np.eye(3) + 0.1), 1),
        ("diagonal", sp.identity(3, format="csr"), 1),
        ("sparse_lu", sp.csr_matrix([[2.0, 1.0, 0.0], [1.0, 2.0, 0.0],
                                     [0.0, 0.0, 1.0]]), 1)])
    def test_stats_name_the_route(self, route, M_sp, k, monkeypatch):
        sys_ = NewtonSystem(m=3, M_sp=M_sp,
                            U=sp.csc_matrix(np.eye(3)[:, :k]), d=np.ones(k))
        rhs = np.arange(1.0, 4.0)
        views = []
        dense_view = linsys._dense_view
        monkeypatch.setattr(linsys, "_dense_view",
                            lambda M: views.append(1) or dense_view(M))
        d, stats = solve_spd(sys_, rhs, 1e-12)
        assert (stats.route, stats.method) == (
            route, linsys.ROUTE_STRATEGY[route])
        assert np.linalg.norm(sys_.matvec(d) - rhs) <= 1e-12
        # the storage of M_sp is read once, and not at all when the update
        # is as wide as the system
        assert len(views) == (route != "densified")

    def test_direct_miss_raises_with_iterate(self):
        # cond ~ 1e12: two refinement steps cannot reach a 1e-13 target
        from scipy.linalg import hilbert
        M = hilbert(12) + 1e-12 * np.eye(12)
        sys_ = NewtonSystem(m=12, M_sp=sp.csr_matrix(M),
                            U=sp.csc_matrix((12, 0)), d=np.zeros(0))
        rhs = np.ones(12)
        with pytest.raises(LinearSolveError) as exc:
            solve_spd(sys_, rhs, 1e-13)
        x, residual = exc.value.x, exc.value.residual
        assert (exc.value.route, exc.value.refine) == ("cholesky", 2)
        assert x.shape == (12,)
        assert residual == np.linalg.norm(rhs - sys_.matvec(x))
        assert residual > 1e-12 * np.linalg.norm(rhs)

    def test_failed_cholesky_raises(self):
        # singular: the dense Cholesky fails and raises, as a failed sparse
        # LU does
        sys_ = NewtonSystem(m=2, M_sp=sp.csr_matrix(np.ones((2, 2))),
                            U=sp.csc_matrix((2, 0)), d=np.zeros(0))
        with pytest.raises(LinearSolveError, match="dense Cholesky") as exc:
            solve_spd(sys_, np.array([1.0, 2.0]), 1e-12)
        assert (exc.value.route, exc.value.refine) == ("cholesky", 0)

    def test_failed_sparse_factorization_raises(self, monkeypatch):
        # M_sp must not be diagonal: a diagonal one is divided by, not
        # factored
        monkeypatch.setattr(linsys.spla, "splu", fail_factorization)
        sys_ = NewtonSystem(m=2, M_sp=sp.csr_matrix([[2.0, 1.0], [1.0, 2.0]]),
                            U=sp.csc_matrix(np.ones((2, 1))), d=np.ones(1))
        with pytest.raises(LinearSolveError, match="sparse LU") as exc:
            solve_spd(sys_, np.ones(2), 1e-12, strategy="augmented")
        assert exc.value.route == "sparse_lu"

    def test_diagonal_m_sp_is_divided_with_the_sparse_lu_bits(
            self, monkeypatch):
        rng = np.random.default_rng(17)
        m, k = 30, 4
        sys_ = NewtonSystem(m=m, M_sp=diagonal_csr(rng.uniform(1e-3, 1e3, m)),
                            U=sp.csc_matrix(rng.standard_normal((m, k))),
                            d=rng.uniform(0.5, 2.0, k))
        rhs = rng.standard_normal(m)
        with monkeypatch.context() as mp:
            mp.setattr(linsys, "_diagonal_view", lambda M: None)
            x_lu, stats_lu = solve_spd(sys_, rhs, 1e-10)
        monkeypatch.setattr(linsys.spla, "splu", fail_factorization)
        x, stats = solve_spd(sys_, rhs, 1e-10)
        assert stats.method == stats_lu.method == "augmented"
        assert (stats.route, stats_lu.route) == ("diagonal", "sparse_lu")
        assert x.tobytes() == x_lu.tobytes()
        assert stats.residual == stats_lu.residual

    @pytest.mark.parametrize("bad", [0.0, -0.0, np.inf, np.nan])
    def test_singular_diagonal_m_sp_raises(self, monkeypatch, bad):
        # as SuperLU's "exactly singular" does for a zero pivot
        monkeypatch.setattr(linsys.spla, "splu", fail_factorization)
        sys_ = NewtonSystem(m=3, M_sp=diagonal_csr(np.array([1.0, bad, 2.0])),
                            U=sp.csc_matrix(np.ones((3, 1))), d=np.ones(1))
        with pytest.raises(LinearSolveError, match="zero or non-finite") as exc:
            solve_spd(sys_, np.ones(3), 1e-12)
        assert exc.value.route == "diagonal"

    @pytest.mark.parametrize("pattern", ["diagonal", "full"])
    @pytest.mark.parametrize("eps", [1e-2, 1e-8, 1e-12])
    def test_orthant_columns_over_a_zero_lorentz_part(self, eps, pattern):
        # every Lorentz block is ZERO-case, so M_sp = eps*I and the m - 1
        # active orthant columns in U leave one eigenvalue eps; the Schur
        # route meets every target the densified system meets, and misses
        # only with LinearSolveError
        rng = np.random.default_rng(31)
        m, n0 = 40, 39
        cone = ConeSpec.make(nonneg=n0, soc=(3, 4, 5))
        n = cone.total_dim
        A = np.zeros((m, n))
        A[:, :n0] = rng.standard_normal((m, n0))
        if pattern == "full":
            A[:, n0:] = rng.standard_normal((m, n - n0))
        else:
            A[rng.integers(0, m, n - n0), np.arange(n0, n)] = (
                rng.standard_normal(n - n0))
        J = make_jacobian(cone, nonneg_mask=np.ones(n0), soc_cases={
            b: (SocCase.ZERO, None, None) for b in cone.soc_block_ids})
        sys_ = assemble_linear(sp.csr_matrix(A), J, 1.0, eps)
        assert sys_.k == n0
        np.testing.assert_array_equal(sys_.M_sp.toarray(), eps * np.eye(m))
        dense = NewtonSystem(m=m, M_sp=sp.csr_matrix(sys_.densify()),
                             U=sp.csc_matrix((m, 0)), d=np.zeros(0))
        rhs = rng.standard_normal(m)
        for tol in (1e-4, 1e-6, 1e-8, 1e-10):
            stop = max(tol, 1e-12 * np.linalg.norm(rhs))
            try:
                solve_spd(dense, rhs, tol)
                dense_met = True
            except LinearSolveError:
                dense_met = False
            try:
                x, stats = solve_spd(sys_, rhs, tol)
            except LinearSolveError as err:
                assert not dense_met, (tol, err)
                assert not err.residual <= stop
                continue
            assert stats.method == {"diagonal": "augmented",
                                    "full": "dense"}[pattern]
            assert stats.residual == np.linalg.norm(rhs - sys_.matvec(x))
            assert stats.residual <= stop

    def test_krylov_strategy_is_unknown(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            solve_spd(rank_one_example(), np.ones(2), 1e-12, strategy="krylov")


def quadratic_block_matrix(H, A, J, sigma, eps):
    """The unsymmetric quadratic-case block system, formed densely."""
    n, m = H.n, A.shape[0]
    V = jacobian_sparse_matrix(J).toarray()
    Hd = H.to_csr().toarray()
    Ad = A.toarray()
    return np.block([
        [np.eye(n) + sigma * V @ Hd, -sigma * V @ Ad.T],
        [-sigma * Ad @ V @ Hd, eps * np.eye(m) + sigma * Ad @ V @ Ad.T]])


def quadratic_reference(H, A, J, sigma, eps, R1, R2):
    """Solve of the unsymmetric quadratic-case block system, formed densely."""
    return np.linalg.solve(quadratic_block_matrix(H, A, J, sigma, eps),
                           np.concatenate([R1, R2]))


@pytest.fixture
def factorizations(monkeypatch):
    """Counts ``np.linalg.eigh`` calls and the orders of ``lu_factor`` calls."""
    calls = {"eigh": 0, "lu": []}
    eigh, lu_factor = np.linalg.eigh, scipy.linalg.lu_factor

    def count_eigh(a, *args, **kwargs):
        calls["eigh"] += 1
        return eigh(a, *args, **kwargs)

    def count_lu(a, *args, **kwargs):
        calls["lu"].append(np.shape(a)[0])
        return lu_factor(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", count_eigh)
    monkeypatch.setattr(scipy.linalg, "lu_factor", count_lu)
    return calls


def block_supported_h(rng, cone, blk_id):
    """Random PSD H that is nonzero only on one Lorentz block."""
    n = cone.total_dim
    blk = cone.block_slice(blk_id)
    dim = blk.stop - blk.start
    G = rng.standard_normal((dim, dim))
    Hd = np.zeros((n, n))
    Hd[blk, blk] = G @ G.T
    return SparseSymmetric.from_dense(Hd)


def assert_matches_reference(H, A, J, sigma, eps, R1, R2, got):
    ref = quadratic_reference(H, A, J, sigma, eps, R1, R2)
    assert np.linalg.norm(got - ref) <= 1e-10 * max(1.0, np.linalg.norm(ref))


class TestSolveQuadratic:
    def test_decoupled_when_h_zero(self):
        rng, cone, A, J = random_setup(4, m=8, soc=(3, 4))
        n = cone.total_dim
        H = SparseSymmetric(n)
        R1 = rng.standard_normal(n)
        R2 = rng.standard_normal(8)
        sigma, eps = 1.3, 0.05
        d1, d2, _ = solve_quadratic(H, A, J, sigma, eps, R1, R2, 1e-11)
        V = jacobian_sparse_matrix(J).toarray()
        res2 = eps * d2 + sigma * (A.toarray() @ V @ A.toarray().T) @ d2 - R2
        res1 = d1 - sigma * V @ (A.toarray().T @ d2) - R1
        assert np.linalg.norm(np.concatenate([res1, res2])) <= 1e-10

    def test_one_dimensional_example(self):
        cone = ConeSpec.make(nonneg=1)
        J = make_jacobian(cone, nonneg_mask=[1.0])
        H = SparseSymmetric.from_dense(np.array([[2.0]]))
        A = sp.csr_matrix(np.array([[1.0]]))
        d1, d2, _ = solve_quadratic(H, A, J, 1.0, 0.0, np.array([1.0]),
                                    np.array([1.0]), 1e-12)
        assert abs(d1[0] - 2.0) < 1e-10
        assert abs(d2[0] - 5.0) < 1e-10

    @pytest.mark.parametrize("seed", range(4))
    def test_residual_against_dense_unsymmetric_oracle(self, seed):
        rng = np.random.default_rng(100 + seed)
        cone = ConeSpec.make(nonneg=4, soc=(3, 5))
        n = cone.total_dim
        m = 6
        A = sp.csr_matrix(rng.standard_normal((m, n)))
        G = rng.standard_normal((n, n))
        H = SparseSymmetric.from_dense(G @ G.T / n)
        J = jacobian_element(cone, rng.standard_normal(n) * 2)
        sigma, eps = 0.7, 0.01
        R1 = rng.standard_normal(n)
        R2 = rng.standard_normal(m)
        d1, d2, _ = solve_quadratic(H, A, J, sigma, eps, R1, R2, 1e-12)
        ref = quadratic_reference(H, A, J, sigma, eps, R1, R2)
        got = np.concatenate([d1, d2])
        assert (np.linalg.norm(got - ref)
                <= 1e-10 * max(1.0, np.linalg.norm(ref)))

    @pytest.mark.parametrize("case", ["mixed", "no_lowrank", "rank_deficient"])
    def test_dense_route_against_dense_oracle(self, case):
        rng = np.random.default_rng(300)
        cone = ConeSpec.make(nonneg=5, soc=(3, 4, 6, 2, 5, 3, 4, 3))
        n = cone.total_dim
        m = 7
        A = sp.csr_matrix(rng.standard_normal((m, n)))
        G = rng.standard_normal((n, 4 if case == "rank_deficient" else n))
        H = SparseSymmetric.from_dense(G @ G.T / n)
        mask = np.array([1.0, 0.0, 1.0, 1.0, 0.0])
        if case == "no_lowrank":
            J = make_jacobian(cone, nonneg_mask=mask, soc_cases={
                b: (SocCase.IDENTITY if i % 2 else SocCase.ZERO, None, None)
                for i, b in enumerate(cone.soc_block_ids)})
        else:
            # eight blocks cycle through every case, so several are middle
            # blocks with different weights and s is not constant on a block
            J = every_case_jacobian(cone, rng, mask)
        k = linsys._jacobian_lowrank(J)[1].size
        assert (k == 0) == (case == "no_lowrank")
        sigma, eps = 0.9, 0.02
        R1 = rng.standard_normal(n)
        R2 = rng.standard_normal(m)
        d1, d2, stats = solve_quadratic(H, A, J, sigma, eps, R1, R2, 1e-12)
        assert stats.method == "dense"
        ref = quadratic_reference(H, A, J, sigma, eps, R1, R2)
        got = np.concatenate([d1, d2])
        assert (np.linalg.norm(got - ref)
                <= 1e-10 * max(1.0, np.linalg.norm(ref)))

    @pytest.mark.parametrize("route", ["eigenbasis", "dense LU", "splu"])
    def test_stop_is_scaled_by_the_frobenius_norm_of_h(self, monkeypatch,
                                                       route):
        # eigenvalues in [50, 100]: ||H||_F is about 9 times lambda_max
        rng = np.random.default_rng(11)
        n, m = 150, 3
        lam = rng.uniform(50.0, 100.0, n)
        if route == "splu":
            H = SparseSymmetric(n, np.arange(n), np.arange(n), lam)
        else:
            Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
            H = SparseSymmetric.from_dense((Q * lam) @ Q.T)
        assert (H.dense_copy() is None) == (route == "splu")
        assert H.fro_norm() > 8.0 * lam.max()
        # one Lorentz block keeps V's diagonal constant on H's support (the
        # eigenbasis solve); an orthant beside it does not
        cone = ConeSpec.make(soc=(n,)) if route == "eigenbasis" else \
            ConeSpec.make(nonneg=50, soc=(n - 50,))
        J = jacobian_element(cone, 2.0 * rng.standard_normal(n))
        A = sp.csr_matrix(rng.standard_normal((m, n)))
        sigma, eps, tol = 0.5, 0.1, 1e-6
        if route != "splu":
            eigen = linsys._quadratic_eigen(H, NewtonAssembly(A, cone),
                                            linsys._split_v(J), sigma, eps)
            assert (eigen is not None) == (route == "eigenbasis")
        R1, R2 = rng.standard_normal(n), rng.standard_normal(m)
        rhs = np.concatenate([R1, R2])
        bound = max(tol / max(1.0, H.fro_norm()), 1e-12 * np.linalg.norm(rhs))
        assert bound == tol / H.fro_norm()
        stops = []
        refine = linsys._refine

        def recording_refine(solve, matvec, rhs, stop, route):
            stops.append(stop)
            return refine(solve, matvec, rhs, stop, route)

        monkeypatch.setattr(linsys, "_refine", recording_refine)
        d1, d2, stats = solve_quadratic(H, A, J, sigma, eps, R1, R2, tol)
        assert stats.method == ("splu" if route == "splu" else "dense")
        assert stats.route == {"eigenbasis": "eigen", "dense LU": "dense_lu",
                               "splu": "splu"}[route]
        assert stops == [bound]
        M = quadratic_block_matrix(H, A, J, sigma, eps)
        assert np.linalg.norm(M @ np.concatenate([d1, d2]) - rhs) <= bound

    @pytest.mark.parametrize("pairs_removed, route", [(18, "dense"),
                                                      (19, "splu")])
    def test_route_follows_the_storage_rule_of_h(self, pairs_removed, route):
        # n = 10: dense storage (800 bytes) is no larger than CSR from 63
        # stored entries on, so 64 entries go dense and 62 stay sparse
        rng = np.random.default_rng(7)
        cone = ConeSpec.make(nonneg=3, soc=(3, 4))
        n = cone.total_dim
        m = 4
        Hd = rng.standard_normal((n, n))
        Hd = Hd + Hd.T
        lower = np.transpose(np.tril_indices(n, -1))
        for r, c in lower[rng.choice(len(lower), pairs_removed, replace=False)]:
            Hd[r, c] = Hd[c, r] = 0.0
        H = SparseSymmetric.from_dense(Hd)
        assert H.to_csr().nnz == 100 - 2 * pairs_removed
        assert (H.dense_copy() is not None) == (route == "dense")
        A = sp.csr_matrix(rng.standard_normal((m, n)))
        J = jacobian_element(cone, rng.standard_normal(n) * 2)
        R1 = rng.standard_normal(n)
        R2 = rng.standard_normal(m)
        d1, d2, stats = solve_quadratic(H, A, J, 0.5, 0.1, R1, R2, 1e-12)
        assert stats.method == route
        ref = quadratic_reference(H, A, J, 0.5, 0.1, R1, R2)
        assert (np.linalg.norm(np.concatenate([d1, d2]) - ref)
                <= 1e-10 * max(1.0, np.linalg.norm(ref)))

    def test_dense_copy_of_h_is_built_once(self, monkeypatch):
        # the dense storage is built at construction; every solve multiplies
        # by that same array
        rng, cone, A, J = random_setup(9, m=5, nonneg=2, soc=(3, 4))
        n = cone.total_dim
        G = rng.standard_normal((n, n))
        H = SparseSymmetric.from_dense(G @ G.T)
        stored = H.dense_copy()
        used = []
        operator = linsys._quadratic_operator

        def recording_operator(Hd, *args):
            used.append(Hd)
            return operator(Hd, *args)

        monkeypatch.setattr(linsys, "_quadratic_operator", recording_operator)
        for _ in range(3):
            _, _, stats = solve_quadratic(H, A, J, 1.0, 0.1,
                                          rng.standard_normal(n),
                                          rng.standard_normal(5), 1e-10)
            assert stats.method == "dense"
            assert H.dense_copy() is stored
        assert len(used) == 3 and all(Hd is stored for Hd in used)
        assert not stored.flags.writeable
        np.testing.assert_array_equal(stored, G @ G.T)

    @pytest.mark.parametrize("case, m", [
        ("interior", 3), ("zero", 3), ("middle", 3), ("one_block_of_many", 3),
        ("wide_off_the_support", 9)])
    def test_eigenbasis_route_against_reference(self, case, m,
                                                factorizations):
        # s is constant on H's row support, so K = I + sigma V H is diagonal
        # in H's eigenbasis plus at most two Woodbury columns
        rng = np.random.default_rng(41)
        if case in ("one_block_of_many", "wide_off_the_support"):
            # H lives on one middle block that covers enough of the cone for
            # H to be stored dense; the other blocks' low-rank columns miss
            # H's support and do not count towards the width rule
            nonneg, soc = ((3, (2, 40, 2)) if case == "one_block_of_many"
                           else (0, (2, 10)))
            cone = ConeSpec.make(nonneg=nonneg, soc=soc)
            H = block_supported_h(rng, cone, cone.soc_block_ids[1])
            cases = {b: (SocCase.MIDDLE, rng.uniform(-0.9, 0.9),
                         unit(rng, cone.blocks[b].dim - 1))
                     for b in cone.soc_block_ids}
            J = make_jacobian(cone, nonneg_mask=[1.0, 0.0, 1.0][:nonneg],
                              soc_cases=cases)
            k, k_h = 2 * len(soc), 2
        else:
            cone = ConeSpec.make(soc=(8,))
            G = rng.standard_normal((8, 8))
            H = SparseSymmetric.from_dense(G @ G.T)
            soc_case = {"interior": (SocCase.IDENTITY, None, None),
                        "zero": (SocCase.ZERO, None, None),
                        "middle": (SocCase.MIDDLE, 0.3, unit(rng, 7))}[case]
            J = make_jacobian(cone, soc_cases={0: soc_case})
            k = k_h = 2 if case == "middle" else 0
        n = cone.total_dim
        A = sp.csr_matrix(rng.standard_normal((m, n)))
        assert assemble_linear(A, J, 1.0, 0.0).k == k
        assert k_h + m < n
        assert (k + m >= n) == (case == "wide_off_the_support")
        R1, R2 = rng.standard_normal(n), rng.standard_normal(m)
        d1, d2, stats = solve_quadratic(H, A, J, 0.7, 0.05, R1, R2, 1e-12)
        assert stats.method == "dense"
        assert factorizations["eigh"] == 1
        assert n + m not in factorizations["lu"]
        assert_matches_reference(H, A, J, 0.7, 0.05, R1, R2,
                                 np.concatenate([d1, d2]))

    def test_lu_fallback_when_s_varies_on_the_support(self, factorizations):
        # H couples an identity block (s = 1) and a zero block (s = 0)
        rng = np.random.default_rng(42)
        cone = ConeSpec.make(soc=(4, 5))
        n, m = cone.total_dim, 2
        G = rng.standard_normal((n, n))
        H = SparseSymmetric.from_dense(G @ G.T)
        J = make_jacobian(cone, soc_cases={0: (SocCase.IDENTITY, None, None),
                                           1: (SocCase.ZERO, None, None)})
        A = sp.csr_matrix(rng.standard_normal((m, n)))
        R1, R2 = rng.standard_normal(n), rng.standard_normal(m)
        d1, d2, stats = solve_quadratic(H, A, J, 0.7, 0.05, R1, R2, 1e-12)
        assert stats.method == "dense"
        assert factorizations == {"eigh": 0, "lu": [n + m]}
        assert_matches_reference(H, A, J, 0.7, 0.05, R1, R2,
                                 np.concatenate([d1, d2]))

    @pytest.mark.parametrize("m, eigenbasis", [(1, True), (2, False),
                                               (3, False)])
    def test_lu_fallback_when_the_update_is_as_wide_as_the_system(
            self, m, eigenbasis, factorizations):
        # one middle Lorentz block of dimension 4 gives k_H = 2
        rng = np.random.default_rng(43)
        cone = ConeSpec.make(soc=(4,))
        n = cone.total_dim
        G = rng.standard_normal((n, n))
        H = SparseSymmetric.from_dense(G @ G.T)
        J = make_jacobian(cone, soc_cases={0: (SocCase.MIDDLE, -0.2,
                                               unit(rng, 3))})
        A = sp.csr_matrix(rng.standard_normal((m, n)))
        R1, R2 = rng.standard_normal(n), rng.standard_normal(m)
        d1, d2, stats = solve_quadratic(H, A, J, 0.7, 0.05, R1, R2, 1e-12)
        assert stats.method == "dense"
        assert factorizations["eigh"] == int(eigenbasis)
        assert (n + m in factorizations["lu"]) != eigenbasis
        assert_matches_reference(H, A, J, 0.7, 0.05, R1, R2,
                                 np.concatenate([d1, d2]))

    def test_eigendecomposition_of_h_is_built_once(self, factorizations):
        rng = np.random.default_rng(44)
        cone = ConeSpec.make(soc=(9,))
        n, m = cone.total_dim, 2
        G = rng.standard_normal((n, n))
        H = SparseSymmetric.from_dense(G @ G.T)
        A = sp.csr_matrix(rng.standard_normal((m, n)))
        copies = set()
        for _ in range(3):
            J = jacobian_element(cone, rng.standard_normal(n))
            _, _, stats = solve_quadratic(H, A, J, 1.0, 0.1,
                                          rng.standard_normal(n),
                                          rng.standard_normal(m), 1e-10)
            assert stats.method == "dense"
            copies.add(tuple(map(id, H.eigen())))
        assert factorizations["eigh"] == 1 and len(copies) == 1
        lam, Q = H.eigen()
        assert not lam.flags.writeable and not Q.flags.writeable
        assert not H.row_support.flags.writeable
        np.testing.assert_allclose((Q * lam) @ Q.T, G @ G.T, atol=1e-10)

    def test_h_without_a_dense_copy_has_no_eigendecomposition(self):
        H = SparseSymmetric.from_sparse(sp.identity(40))
        assert H.dense_copy() is None and H.eigen() is None
        assert H.row_support.all()

    def test_dense_route_past_2000_rows(self):
        # the trust-region shape: one Lorentz block and one row of A
        rng = np.random.default_rng(17)
        cone = ConeSpec.make(soc=(2001,))
        n = cone.total_dim
        G = rng.standard_normal((n, 20))
        H = SparseSymmetric.from_dense(G @ G.T + np.eye(n))
        A = sp.csr_matrix(rng.standard_normal((1, n)))
        J = jacobian_element(cone, rng.standard_normal(n))
        assert assemble_linear(A, J, 1.0, 0.0).k > 0
        R1 = rng.standard_normal(n)
        R2 = rng.standard_normal(1)
        d1, d2, stats = solve_quadratic(H, A, J, 0.5, 0.1, R1, R2, 1e-12)
        assert stats.method == "dense"
        ref = quadratic_reference(H, A, J, 0.5, 0.1, R1, R2)
        assert (np.linalg.norm(np.concatenate([d1, d2]) - ref)
                <= 1e-10 * max(1.0, np.linalg.norm(ref)))

    def test_failed_sparse_factorization_raises(self, monkeypatch):
        # tridiagonal H is stored sparse, so "splu" is the route
        rng, cone, A, J = random_setup(11, m=5, nonneg=3, soc=(3, 4, 5))
        n = cone.total_dim
        H = SparseSymmetric.from_sparse(
            sp.diags([np.full(n - 1, -1.0), np.full(n, 2.5),
                      np.full(n - 1, -1.0)], [-1, 0, 1]))
        assert H.dense_copy() is None
        monkeypatch.setattr(linsys.spla, "splu", fail_factorization)
        with pytest.raises(LinearSolveError, match="sparse LU") as exc:
            solve_quadratic(H, A, J, 0.8, 0.05, rng.standard_normal(n),
                            rng.standard_normal(5), 1e-12)
        assert (exc.value.route, exc.value.refine) == ("splu", 0)

    def test_direct_miss_raises_with_iterate(self):
        # A = hilbert(12) and eps = 1e-12 make the block system so badly
        # conditioned that two refinement steps cannot reach 1e-12 * ||rhs||
        n = m = 12
        cone = ConeSpec.make(nonneg=n)
        J = make_jacobian(cone, nonneg_mask=np.ones(n))
        H = SparseSymmetric.from_dense(0.1 * np.ones((n, n)))
        A = sp.csr_matrix(scipy.linalg.hilbert(n))
        R1, R2 = np.ones(n), np.ones(m)
        with pytest.raises(LinearSolveError, match="dense_lu solve") as exc:
            solve_quadratic(H, A, J, 1.0, 1e-12, R1, R2, 1e-13)
        x, residual = exc.value.x, exc.value.residual
        assert (exc.value.route, exc.value.refine) == ("dense_lu", 2)
        rhs = np.concatenate([R1, R2])
        assert x.shape == (n + m,)
        _, matvec = linsys._quadratic_dense(
            H.dense_copy(), NewtonAssembly(A, cone), linsys._split_v(J)[2],
            1.0, 1e-12)
        assert residual == np.linalg.norm(rhs - matvec(x))
        assert residual > 1e-12 * np.linalg.norm(rhs)

    def test_nan_residual_is_a_miss(self):
        # V = 0 and eps = 0 leave the (2, 2) block zero: the dense LU solve
        # returns NaN, which no tolerance accepts
        n, m = 3, 2
        cone = ConeSpec.make(nonneg=n)
        J = make_jacobian(cone, nonneg_mask=np.zeros(n))
        H = SparseSymmetric.from_dense(np.ones((n, n)) + np.eye(n))
        A = sp.csr_matrix(np.ones((m, n)))
        with pytest.warns(scipy.linalg.LinAlgWarning), \
                pytest.raises(LinearSolveError, match="eigen solve") as exc:
            solve_quadratic(H, A, J, 1.0, 0.0, np.ones(n), np.ones(m), 1e-12)
        assert np.isnan(exc.value.residual)

    @pytest.mark.parametrize("seed", range(4))
    def test_consistency_with_symmetric_system_on_range(self, seed):
        # H d1 and d2 must match the dense solve of the symmetric Newton
        # system restricted to Ran(H)
        rng = np.random.default_rng(200 + seed)
        cone = ConeSpec.make(soc=(3, 4))
        n = cone.total_dim
        m = 5
        A = sp.csr_matrix(rng.standard_normal((m, n)))
        G = rng.standard_normal((n, 3))  # rank-deficient PSD
        Hd = G @ G.T
        H = SparseSymmetric.from_dense(Hd)
        J = jacobian_element(cone, rng.standard_normal(n))
        sigma, eps = 1.1, 0.05
        R1 = rng.standard_normal(n)
        R2 = rng.standard_normal(m)
        d1h, d2h, _ = solve_quadratic(H, A, J, sigma, eps, R1, R2, 1e-10)
        V = jacobian_sparse_matrix(J).toarray()
        Ad = A.toarray()
        Msym = np.block([
            [Hd + sigma * Hd @ V @ Hd, -sigma * Hd @ V @ Ad.T],
            [-sigma * Ad @ V @ Hd, eps * np.eye(m) + sigma * Ad @ V @ Ad.T]])
        rhs = np.concatenate([Hd @ R1, R2])
        sol, *_ = np.linalg.lstsq(Msym, rhs, rcond=None)
        d1_ref, d2_ref = sol[:n], sol[n:]
        np.testing.assert_allclose(H.matvec(d1h), Hd @ d1_ref, atol=1e-8,
                                   rtol=1e-8)
        np.testing.assert_allclose(d2h, d2_ref, atol=1e-8, rtol=1e-8)
