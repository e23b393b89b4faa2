"""Newton-system assembly and solve routes against dense factorization oracles."""

import pickle
import sys
import threading

import numpy as np
import pytest
import scipy.sparse as sp

import socalm
from socalm import (
    ConeSpec,
    NewtonAssembly,
    NewtonSystem,
    SocCase,
    SparseSymmetric,
    apply_jacobian,
    assemble_linear,
    estimate_lambda_max,
    jacobian_element,
    make_jacobian,
    solve_quadratic,
    solve_spd,
)
from socalm import linsys
from socalm.linsys import LinearSolveError, jacobian_sparse_matrix


def rank_one_example():
    """``2 I + u u'`` with ``u = (1, 1)``."""
    return NewtonSystem(m=2, M_sp=sp.csr_matrix(2 * np.eye(2)),
                        U=sp.csc_matrix(np.ones((2, 1))), d=np.ones(1))


def random_setup(seed, m=None, nonneg=0, soc=(3, 4, 5), scale=2.0):
    rng = np.random.default_rng(seed)
    cone = ConeSpec.make(nonneg=nonneg, soc=soc)
    n = cone.total_dim
    m = m if m is not None else max(4, n // 2)
    A = sp.csr_matrix(rng.standard_normal((m, n)))
    x = rng.standard_normal(n) * scale
    J = jacobian_element(cone, x)
    return rng, cone, A, J


class TestSparseSymmetric:
    def test_duplicates_coalesce(self):
        H = SparseSymmetric(2, [0, 0, 1], [0, 0, 0], [1.0, 2.0, 0.5])
        M = H.to_csr().toarray()
        np.testing.assert_allclose(M, [[3.0, 0.5], [0.5, 0.0]])
        assert H.nnz_lower == 2

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


class TestLambdaMax:
    def test_zero_matrix(self):
        assert estimate_lambda_max(SparseSymmetric.zero(4)) == 0.0

    def test_diagonal(self):
        H = SparseSymmetric.from_dense(np.diag([1.0, 5.0]))
        lam = estimate_lambda_max(H)
        assert 5.0 <= lam <= 6.0

    def test_random_psd_within_bound(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            G = rng.standard_normal((30, 30))
            M = G @ G.T
            lam_true = np.linalg.eigvalsh(M)[-1]
            lam = estimate_lambda_max(SparseSymmetric.from_dense(M))
            assert lam_true * (1 - 1e-8) <= lam <= 1.2 * lam_true + 1e-8


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
    # (A_0 case, m, nonneg dim, whether A_0 is stored dense, whether M is)
    STORAGE = [("dense", 12, 6, True, True),
               ("dense_rows", 10, 6, True, False),
               ("sparse", 30, 10, False, False),
               ("sparse_wide_gram", 12, 30, False, True)]

    @pytest.mark.parametrize("a0, m, n0, a0_dense, m_dense", STORAGE)
    @pytest.mark.parametrize("mask", ["random", "zeros", "ones"])
    def test_matches_reference_on_both_sides_of_storage_rule(
            self, a0, m, n0, a0_dense, m_dense, mask):
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
        assert (st.full is not None) == m_dense
        M_sp = asm.assemble(J, 0.3).M_sp
        assert (M_sp.nnz == m * m) == m_dense

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
        rng = np.random.default_rng(6)
        cone = ConeSpec.make(nonneg=6, soc=(5,))
        A = sp.csr_matrix(rng.standard_normal((8, cone.total_dim)))
        J = make_jacobian(cone, nonneg_mask=np.ones(6), soc_cases={
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
        small_srlasso()
        assert builds == []

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
        x, res = linsys._refine(lambda r: r.copy(), lambda v: M @ v, rhs, 0.0)
        assert res == pytest.approx(np.linalg.norm(
            np.linalg.matrix_power(-E, 3) @ rhs), rel=1e-8)
        x, res = linsys._refine(lambda r: r.copy(), lambda v: M @ v, rhs,
                                1.01 * np.linalg.norm(E @ rhs))
        assert np.array_equal(x, rhs)

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
        assert x.shape == (12,)
        assert residual == np.linalg.norm(rhs - sys_.matvec(x))
        assert residual > 1e-12 * np.linalg.norm(rhs)

    def test_failed_sparse_factorization_raises(self, monkeypatch):
        def fail(*args, **kwargs):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(linsys.spla, "splu", fail)
        with pytest.raises(LinearSolveError, match="sparse LU"):
            solve_spd(rank_one_example(), np.ones(2), 1e-12,
                      strategy="augmented")

    def test_krylov_strategy_is_unknown(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            solve_spd(rank_one_example(), np.ones(2), 1e-12, strategy="krylov")


def quadratic_reference(H, A, J, sigma, eps, R1, R2):
    """Solve of the unsymmetric quadratic-case block system, formed densely."""
    n, m = R1.size, R2.size
    V = jacobian_sparse_matrix(J).toarray()
    Hd = H.to_csr().toarray()
    Ad = A.toarray()
    Mhat = np.block([
        [np.eye(n) + sigma * V @ Hd, -sigma * V @ Ad.T],
        [-sigma * Ad @ V @ Hd, eps * np.eye(m) + sigma * Ad @ V @ Ad.T]])
    return np.linalg.solve(Mhat, np.concatenate([R1, R2]))


class TestSolveQuadratic:
    def test_decoupled_when_h_zero(self):
        rng, cone, A, J = random_setup(4, m=8, soc=(3, 4))
        n = cone.total_dim
        H = SparseSymmetric.zero(n)
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
        k = assemble_linear(A, J, 1.0, 0.0).k
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
        rng, cone, A, J = random_setup(9, m=5, nonneg=2, soc=(3, 4))
        n = cone.total_dim
        G = rng.standard_normal((n, n))
        H = SparseSymmetric.from_dense(G @ G.T)
        calls = []
        toarray = H.to_csr().toarray
        monkeypatch.setattr(H.to_csr(), "toarray",
                            lambda *a, **k: calls.append(1) or toarray(*a, **k))
        copies = set()
        for _ in range(3):
            _, _, stats = solve_quadratic(H, A, J, 1.0, 0.1,
                                          rng.standard_normal(n),
                                          rng.standard_normal(5), 1e-10)
            assert stats.method == "dense"
            copies.add(id(H.dense_copy()))
        assert len(calls) == 1 and len(copies) == 1
        assert not H.dense_copy().flags.writeable
        np.testing.assert_array_equal(H.dense_copy(), G @ G.T)

    def test_bicgstab_counts_its_iterations(self, monkeypatch):
        # tridiagonal H is stored sparse, so "splu" is the direct route; with
        # it failing, BiCGStab solves the system and reports its work
        rng, cone, A, J = random_setup(11, m=5, nonneg=3, soc=(3, 4, 5))
        n = cone.total_dim
        H = SparseSymmetric.from_sparse(
            sp.diags([np.full(n - 1, -1.0), np.full(n, 2.5),
                      np.full(n - 1, -1.0)], [-1, 0, 1]))
        assert H.dense_copy() is None

        def fail(*args, **kwargs):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(linsys.spla, "splu", fail)
        R1 = rng.standard_normal(n)
        R2 = rng.standard_normal(5)
        d1, d2, stats = solve_quadratic(H, A, J, 0.8, 0.05, R1, R2, 1e-12)
        assert stats.method == "bicgstab"
        assert stats.iterations > 0
        ref = quadratic_reference(H, A, J, 0.8, 0.05, R1, R2)
        assert (np.linalg.norm(np.concatenate([d1, d2]) - ref)
                <= 1e-8 * max(1.0, np.linalg.norm(ref)))

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
