"""Instance builders, the pseudo-random generator, and solution extractors."""

import warnings

import numpy as np
import pytest

from oracles import solve_trs_oracle, srlasso_certificate_gap, \
    srlasso_grid_minimum
from socalm import (
    AlmOptions,
    MebInstance,
    build_srlasso,
    build_trs,
    extract_meb_solution,
    extract_srlasso_solution,
    extract_trs_solution,
    gen_meb,
    gen_trs,
    lambda_from_lambda_c,
    load_srlasso_csv,
    prand_next,
    prand_sequence,
    solve,
)
from socalm import problems
from socalm.blas import single_thread
from socalm.linsys import SparseSymmetric
from socalm.problems import _Lcg64, _smallest_eigpair, meb_problem


class TestPrand:
    def test_first_two_values_exact(self):
        s1, v1 = prand_next(7)
        assert s1 == 3116
        assert v1 == 76.07421875
        s2, v2 = prand_next(s1)
        assert s2 == 2173
        assert v2 == 53.0517578125

    def test_range(self):
        vals = prand_sequence(5000)
        assert np.all(vals >= 0.0)
        assert np.all(vals < 100.0)

    def test_state_validation(self):
        with pytest.raises(ValueError):
            prand_next(4096)
        with pytest.raises(ValueError):
            prand_next(-1)
        with pytest.raises(ValueError):
            prand_sequence(3, state=4096)

    @pytest.mark.parametrize("state", [0, 7, 1234, 4095])
    def test_sequence_matches_iterated_next(self, state):
        ref = []
        s = state
        for _ in range(9000):
            s, v = prand_next(s)
            ref.append(v)
        np.testing.assert_array_equal(prand_sequence(9000, state), ref)
        np.testing.assert_array_equal(prand_sequence(5, state), ref[:5])


class TestGenMeb:
    def test_small_instance_layout(self):
        inst, p = gen_meb(2, 1)
        assert p.n == 4
        assert p.A.shape == (2, 4)
        assert inst.radii[0] == 76.07421875
        assert inst.centers[0, 0] == 53.0517578125
        np.testing.assert_array_equal(p.b, [-1.0, 0.0])
        seq = prand_sequence(4)
        np.testing.assert_array_equal(p.c, -seq)
        # A = -(I I)
        np.testing.assert_array_equal(p.A.toarray(),
                                      -np.hstack([np.eye(2), np.eye(2)]))

    def test_block_structure_scales(self):
        _, p = gen_meb(50, 7)
        assert p.n == 50 * 8
        assert p.cone.num_soc == 50
        assert all(b.dim == 8 for b in p.cone.blocks)

    def test_benchmark_dimensions(self):
        _, p = gen_meb(1000, 400)
        assert p.n == 401000
        assert p.m == 401
        assert p.cone.num_soc == 1000
        assert all(b.dim == 401 for b in p.cone.blocks)

    def test_determinism_bit_identical(self):
        i1, p1 = gen_meb(20, 5)
        i2, p2 = gen_meb(20, 5)
        assert np.array_equal(p1.c, p2.c)
        assert np.array_equal(p1.b, p2.b)
        assert (p1.A != p2.A).nnz == 0
        assert np.array_equal(i1.centers, i2.centers)

    def test_m_must_exceed_one(self):
        with pytest.raises(ValueError):
            gen_meb(1, 4)


class TestMebSolutions:
    def test_two_point_balls(self):
        e1 = np.array([1.0, 0.0])
        inst = MebInstance(centers=np.stack([e1, -e1]), radii=np.zeros(2))
        res = solve(meb_problem(inst), AlmOptions())
        assert res.status == "Optimal"
        center, radius = extract_meb_solution(inst, res)
        np.testing.assert_allclose(center, [0.0, 0.0], atol=1e-7)
        assert abs(radius - 1.0) < 1e-7

    def test_ball_inside_ball(self):
        inst = MebInstance(centers=np.array([[0.0, 0.0], [0.5, 0.0]]),
                           radii=np.array([3.0, 1.0]))
        res = solve(meb_problem(inst), AlmOptions())
        center, radius = extract_meb_solution(inst, res)
        np.testing.assert_allclose(center, [0.0, 0.0], atol=1e-7)
        assert abs(radius - 3.0) < 1e-7

    def test_generated_instance_covering(self):
        inst, p = gen_meb(100, 10)
        res = solve(p, AlmOptions())
        assert res.status == "Optimal"
        center, radius = extract_meb_solution(inst, res)
        needed = np.linalg.norm(inst.centers - center, axis=1) + inst.radii
        assert radius >= needed.max() - 1e-6 * (1.0 + radius)

    def test_extract_requires_optimal(self):
        inst, p = gen_meb(4, 2)
        res = solve(p, AlmOptions(max_outer=0))

        with pytest.raises(ValueError):
            extract_meb_solution(inst, res)


class TestBuildTrs:
    def test_indefinite_shift(self):
        inst, p = build_trs(np.diag([1.0, -1.0]), np.zeros(2))
        assert inst.lam_min == -1.0
        shifted = p.H.to_csr().toarray()
        np.testing.assert_allclose(shifted[1:, 1:], np.diag([2.0, 0.0]))
        assert np.all(shifted[0, :] == 0.0)

    def test_psd_no_shift(self):
        H = np.diag([0.5, 2.0])
        inst, p = build_trs(H, np.ones(2))
        assert inst.shift == 0.0
        np.testing.assert_allclose(p.H.to_csr().toarray()[1:, 1:], H)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_shifted_quadratic_is_psd(self, seed):
        inst, p = gen_trs(30, seed=seed)
        shifted = inst.H - min(inst.lam_min, 0.0) * np.eye(30)
        w = np.linalg.eigvalsh(shifted)
        assert w.min() >= -1e-10 * max(1.0, np.abs(inst.H).max())

    def test_hand_example_value(self):
        inst, p = build_trs(np.diag([1.0, -1.0]), np.zeros(2))
        res = solve(p, AlmOptions())
        assert res.status == "Optimal"
        y, val = extract_trs_solution(inst, res)
        assert abs(val - (-0.5)) < 1e-6
        assert abs(np.linalg.norm(y) - 1.0) < 1e-6
        assert abs(y[0]) < 1e-5

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="^H must be symmetric$"):
            build_trs(np.array([[1.0, 2.0], [0.0, 1.0]]), np.zeros(2))

    def test_psd_case_extraction_is_identity(self):
        rng = np.random.default_rng(2)
        G = rng.standard_normal((6, 6))
        H = G @ G.T + np.eye(6)
        c = rng.standard_normal(6)
        inst, p = build_trs(H, c)
        res = solve(p, AlmOptions())
        y, val = extract_trs_solution(inst, res)
        ref_y, ref_val = solve_trs_oracle(H, c)
        assert abs(val - ref_val) <= 1e-6 * max(1.0, abs(ref_val))


class TestTrsOracleAgreement:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_d50_matches_oracle(self, seed):
        inst, p = gen_trs(50, seed=seed)
        assert inst.lam_min < 0
        res = solve(p, AlmOptions())
        assert res.status == "Optimal"
        y, val = extract_trs_solution(inst, res)
        assert np.linalg.norm(y) <= 1.0 + 1e-8
        _, ref = solve_trs_oracle(inst.H, inst.c)
        assert abs(val - ref) <= 1e-6 * max(1.0, abs(ref))

    def test_oracle_hard_case(self):
        # c orthogonal to the bottom eigenspace triggers the hard case
        H = np.diag([-2.0, 1.0, 3.0])
        c = np.array([0.0, 0.1, 0.1])
        y, val = solve_trs_oracle(H, c)
        assert abs(np.linalg.norm(y) - 1.0) < 1e-10
        # compare against a dense sweep over the sphere
        rng = np.random.default_rng(0)
        Z = rng.standard_normal((200000, 3))
        Z /= np.linalg.norm(Z, axis=1)[:, None]
        sweep = 0.5 * np.einsum("ij,jk,ik->i", Z, H, Z) + Z @ c
        assert val <= sweep.min() + 1e-4


class TestGenTrs:
    def test_deterministic(self):
        i1, p1 = gen_trs(8, seed=4)
        i2, p2 = gen_trs(8, seed=4)
        assert np.array_equal(i1.H, i2.H)
        assert np.array_equal(i1.c, i2.c)

    def test_seed_changes_instance(self):
        i1, _ = gen_trs(8, seed=4)
        i2, _ = gen_trs(8, seed=5)
        assert not np.array_equal(i1.H, i2.H)

    def test_block_uniforms_match_scalar_generator(self):
        d, seed = 70, 3  # d * d = 4900 is not a multiple of the block
        assert (d * d) % _Lcg64.BLOCK
        scalar, blocked = _Lcg64(seed), _Lcg64(seed)
        P = np.array([scalar.uniform() for _ in range(d * d)])
        np.testing.assert_array_equal(blocked.uniforms(d * d), P)
        assert blocked.state == scalar.state
        g = np.array([scalar.normal() for _ in range(d)])
        c = np.array([scalar.normal() for _ in range(d)])
        H = (P.reshape(d, d) * g) @ P.reshape(d, d).T
        inst, _ = gen_trs(d, seed)
        np.testing.assert_array_equal(inst.H, 0.5 * (H + H.T))
        np.testing.assert_array_equal(inst.c, c)
        # empty, one state, either side of a block edge, and many blocks;
        # the next draw checks the state as well
        for n in (0, 1, 4095, 4096, 4097, 160000, 640000):
            scalar, blocked = _Lcg64(seed), _Lcg64(seed)
            ref = np.array([scalar.uniform() for _ in range(n + 1)])
            got = np.append(blocked.uniforms(n), blocked.uniform())
            np.testing.assert_array_equal(got.view(np.uint64), ref.view(np.uint64))
            assert blocked.state == scalar.state

    def test_sign_mixed_spectrum(self):
        inst, _ = gen_trs(20, seed=1)
        w = np.linalg.eigvalsh(inst.H)
        assert w[0] < 0 < w[-1]


def _bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


def _uniforms_reference(rng, n):
    """``_Lcg64.uniforms`` as first written: Python-int step tables."""
    k = min(n, rng.BLOCK)
    mul = np.empty(k, dtype=np.uint64)
    inc = np.empty(k, dtype=np.uint64)
    a, c = 1, 0
    for j in range(k):
        a = (a * rng.MUL) & rng.MASK
        c = (c * rng.MUL + rng.INC) & rng.MASK
        mul[j], inc[j] = a, c
    states = np.empty(n, dtype=np.uint64)
    for i in range(0, n, rng.BLOCK):
        j = min(k, n - i)
        states[i:i + j] = mul[:j] * np.uint64(rng.state) + inc[:j]
        rng.state = int(states[i + j - 1])
    return ((states >> np.uint64(11)) + 0.5) / 9007199254740992.0


def _build_trs_reference(H, c):
    """``build_trs`` as first written: 0.5 (H + H'), ``np.eye`` and
    ``SparseSymmetric.from_dense``.  Returns the instance's fields and the
    storage."""
    H = np.asarray(H, dtype=float)
    c = np.asarray(c, dtype=float).ravel()
    d = H.shape[0]
    if np.abs(H - H.T).max(initial=0.0) > 1e-10 * (1.0 + np.abs(H).max(initial=0.0)):
        raise ValueError("H must be symmetric")
    H = 0.5 * (H + H.T)
    with single_thread():
        lam_min, v = _smallest_eigpair(H)
    shift = min(lam_min, 0.0)
    big_h = np.zeros((d + 1, d + 1))
    big_h[1:, 1:] = H - shift * np.eye(d)
    return H, c, lam_min, shift, v, SparseSymmetric.from_dense(big_h)


def _gen_trs_reference(d, seed):
    rng = _Lcg64(seed)
    P = _uniforms_reference(rng, d * d).reshape(d, d)
    g = np.array([rng.normal() for _ in range(d)])
    c = np.array([rng.normal() for _ in range(d)])
    with single_thread():
        H = (P * g) @ P.T
    return _build_trs_reference(H, c)


def _assert_trs_bits(got, ref):
    inst, problem = got
    H, c, lam_min, shift, v, storage = ref
    for name, want in (("H", H), ("c", c), ("lam_min", lam_min),
                       ("shift", shift), ("eigvec", v)):
        np.testing.assert_array_equal(_bits(getattr(inst, name)), _bits(want),
                                      err_msg=name)
    stored, want = problem.H.dense_copy(), storage.dense_copy()
    assert (stored is None) == (want is None)
    if want is None:
        got_csr, want_csr = problem.H.to_csr(), storage.to_csr()
        np.testing.assert_array_equal(got_csr.indptr, want_csr.indptr)
        np.testing.assert_array_equal(got_csr.indices, want_csr.indices)
        np.testing.assert_array_equal(_bits(got_csr.data), _bits(want_csr.data))
    else:
        assert not stored.flags.writeable
        np.testing.assert_array_equal(_bits(stored), _bits(want))
    np.testing.assert_array_equal(_bits(problem.H.fro_norm()),
                                  _bits(storage.fro_norm()))
    np.testing.assert_array_equal(problem.H.row_support, storage.row_support)


def _signed_zero_h():
    """Indefinite H whose off-diagonal holds exact +0.0 and -0.0 entries,
    some mirrored with the other sign."""
    rng = np.random.default_rng(5)
    G = rng.standard_normal((8, 8))
    H = G + G.T
    H[0, 1] = H[1, 0] = -0.0
    H[2, 5] = H[5, 2] = 0.0
    H[3, 6], H[6, 3] = -0.0, 0.0
    return H


def _near_symmetric_h():
    """Symmetric H plus an asymmetric part inside build_trs's tolerance."""
    rng = np.random.default_rng(6)
    G = rng.standard_normal((30, 30))
    return G + G.T + 1e-12 * rng.standard_normal((30, 30))


class TestTrsBuildBits:
    """The build holds fewer arrays than its first form and keeps its bits."""

    @pytest.mark.parametrize("d, seed", [(40, 1), (520, 1)])
    def test_gen_trs_matches_first_form(self, d, seed):
        # d = 40 takes eigh, d = 520 ARPACK
        _assert_trs_bits(gen_trs(d, seed), _gen_trs_reference(d, seed))

    @pytest.mark.parametrize("case", ["psd", "signed_zeros", "near_symmetric", "zero"])
    def test_build_trs_matches_first_form(self, case):
        H = {"psd": lambda: np.diag([0.5, 2.0, 1.0]) + 0.1,
             "signed_zeros": _signed_zero_h,
             "near_symmetric": _near_symmetric_h,
             "zero": lambda: np.zeros((3, 3))}[case]()
        c = np.linspace(-1.0, 1.0, H.shape[0])
        ref = _build_trs_reference(H, c)
        got = build_trs(H, c)
        _assert_trs_bits(got, ref)
        lam_min, shift = ref[2], ref[3]
        if case == "psd":
            assert lam_min > 0.0 and shift == 0.0 and not np.signbit(shift)
        if case == "signed_zeros":
            # with shift < 0, H - shift I subtracts shift * 0.0 = -0.0 off the
            # diagonal, which turns each -0.0 of H into +0.0 in the store
            assert lam_min < 0.0
            zeros = got[0].H == 0.0
            assert np.signbit(got[0].H[zeros]).any()
            stored = got[1].H.dense_copy()[1:, 1:]
            assert not np.signbit(stored[zeros]).any()
        if case == "near_symmetric":
            assert not np.array_equal(H, H.T)

    @pytest.mark.parametrize("d", [2, 600])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_refused_quietly(self, d, bad, capfd, monkeypatch):
        # refused before the eigenvalue computation, which printed LAPACK
        # errors (eigh) or raised ArpackError (d > 500) on such input
        def no_eigpair(H):
            raise AssertionError("eigenvalue computation reached")

        monkeypatch.setattr(problems, "_smallest_eigpair", no_eigpair)
        H = np.eye(d)
        H[0, 1] = H[1, 0] = bad
        c = np.ones(d)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^H holds a non-finite value$"):
                build_trs(H, c)
            c[d - 1] = bad
            with pytest.raises(ValueError, match="^c holds a non-finite value$"):
                build_trs(np.eye(d), c)
        out, err = capfd.readouterr()
        assert err == ""

    def test_peaks_in_dxd_arrays(self):
        # gen_trs holds the product and build_trs's three arrays; build_trs
        # holds 0.5 (H + H'), and eigh's two arrays or the lifted block
        tracemalloc = pytest.importorskip("tracemalloc")
        d = 300
        unit = 8.0 * d * d
        tracemalloc.start()
        try:
            inst, problem = gen_trs(d, 1)
            gen_peak = tracemalloc.get_traced_memory()[1]
            H, c = inst.H.copy(), inst.c.copy()
            del inst, problem
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            build_trs(H, c)
            build_peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert gen_peak <= 4.5 * unit, gen_peak / unit
        assert build_peak <= 3.5 * unit, build_peak / unit


class TestBuildSrlasso:
    def test_dimension_bookkeeping(self):
        B = np.ones((2, 3))
        inst, p = build_srlasso(B, np.ones(2), 0.5)
        assert p.A.shape == (2, 9)
        assert p.n == 9
        kinds = [(b.kind, b.dim) for b in p.cone.blocks]
        assert kinds == [("nonneg", 6), ("soc", 3)]
        np.testing.assert_array_equal(
            p.c, [0.5] * 6 + [1.0, 0.0, 0.0])

    def test_feasible_point_objective(self):
        rng = np.random.default_rng(1)
        B = rng.standard_normal((3, 4))
        w = rng.standard_normal(3)
        inst, p = build_srlasso(B, w, 1.0)
        # p = q = 0, z = -w, t = ||w||: objective value is t = ||w||
        t = np.linalg.norm(w)
        yfeas = np.concatenate([np.zeros(8), [t], -w])
        assert np.linalg.norm(p.A @ yfeas - p.b) < 1e-12
        assert abs(p.c @ yfeas - t) < 1e-12
        assert abs(inst.objective(np.zeros(4)) - t) < 1e-12

    def test_lambda_positive_required(self):
        with pytest.raises(ValueError):
            build_srlasso(np.ones((2, 2)), np.ones(2), 0.0)

    def test_huge_lambda_gives_zero(self):
        rng = np.random.default_rng(5)
        B = rng.standard_normal((6, 4))
        w = rng.standard_normal(6)
        inst, p = build_srlasso(B, w, 50.0)
        res = solve(p, AlmOptions())
        x = extract_srlasso_solution(inst, res)
        assert np.abs(x).max() < 1e-7

    def test_identity_design_shrinks_toward_response(self):
        # lam above the interpolation threshold: x follows w with the small
        # coordinate killed and the large one shrunk; closed form from the
        # stationarity condition gives x1 = 1 - 0.2 * lam / sqrt(1 - lam^2)
        lam = 0.9
        inst, p = build_srlasso(np.eye(2), np.array([1.0, 0.2]), lam)
        res = solve(p, AlmOptions())
        x = extract_srlasso_solution(inst, res)
        assert abs(x[1]) < 1e-7
        expected = 1.0 - 0.2 * lam / np.sqrt(1.0 - lam * lam)
        assert abs(x[0] - expected) < 1e-6
        stat, excess = srlasso_certificate_gap(inst.B, inst.w, inst.lam, x)
        assert stat <= 1e-6
        assert excess <= 1e-6

    def test_objectives_match_between_model_and_socp(self):
        rng = np.random.default_rng(8)
        for _ in range(3):
            B = rng.standard_normal((5, 7))
            w = rng.standard_normal(5)
            inst, p = build_srlasso(B, w, 0.8)
            res = solve(p, AlmOptions())
            assert res.status == "Optimal"
            x = extract_srlasso_solution(inst, res)
            socp_obj = float(p.c @ res.y)
            assert abs(inst.objective(x) - socp_obj) <= 1e-6 * (
                1.0 + abs(socp_obj))

    def test_two_dimensional_grid_oracle(self):
        rng = np.random.default_rng(21)
        B = rng.standard_normal((2, 2))
        w = rng.standard_normal(2)
        # square designs interpolate except in a thin window below the
        # all-zero threshold; place lam inside that window so the residual
        # (and hence the closed-form subgradient) is nonzero
        xstar = np.linalg.solve(B, w)
        lam_interp = 1.0 / np.linalg.norm(
            np.linalg.solve(B.T, np.sign(xstar)))
        lam_max = np.abs(B.T @ (w / np.linalg.norm(w))).max()
        assert lam_interp < lam_max
        lam = 0.5 * (lam_interp + lam_max)
        inst, p = build_srlasso(B, w, lam)
        res = solve(p, AlmOptions())
        x = extract_srlasso_solution(inst, res)
        assert np.linalg.norm(B @ x - w) > 1e-6
        _, grid_val = srlasso_grid_minimum(B, w, lam,
                                           radius=np.abs(x).max() + 2.0)
        assert inst.objective(x) <= grid_val + 1e-6
        stat, excess = srlasso_certificate_gap(B, w, lam, x)
        assert stat <= 1e-6 and excess <= 1e-6


class TestLambdaRule:
    def test_median_is_zero(self):
        from scipy.special import ndtri
        assert abs(ndtri(0.5)) < 1e-15

    def test_reference_value(self):
        # quantile at 0.975 is 1.959964...
        lam = lambda_from_lambda_c(1.0, 1)
        assert abs(lam - 2.155960) < 1e-5

    def test_linear_scaling(self):
        base = lambda_from_lambda_c(1.0, 30)
        assert abs(lambda_from_lambda_c(2.5, 30) - 2.5 * base) < 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            lambda_from_lambda_c(0.0, 5)
        with pytest.raises(ValueError):
            lambda_from_lambda_c(1.0, 0)


class TestCsvLoading:
    def test_plain_numeric(self, tmp_path):
        f = tmp_path / "data.csv"
        f.write_text("1,2,3\n4,5,6\n")
        B, w = load_srlasso_csv(f)
        np.testing.assert_array_equal(B, [[1.0, 2.0], [4.0, 5.0]])
        np.testing.assert_array_equal(w, [3.0, 6.0])

    def test_header_autodetected(self, tmp_path):
        f = tmp_path / "data.csv"
        f.write_text("f1,f2,target\n1,2,3\n4,5,6\n")
        B, w = load_srlasso_csv(f)
        assert B.shape == (2, 2)

    def test_ragged_rejected(self, tmp_path):
        f = tmp_path / "data.csv"
        f.write_text("1,2,3\n4,5\n")
        with pytest.raises(ValueError, match="line 2"):
            load_srlasso_csv(f)

    def test_non_numeric_rejected(self, tmp_path):
        f = tmp_path / "data.csv"
        f.write_text("1,2,3\n4,x,6\n")
        with pytest.raises(ValueError):
            load_srlasso_csv(f)

    @pytest.mark.parametrize("text, message", [
        ("a,b,y\n\n1,2,3\n\n4,x,6\n", "line 5: non-numeric entry"),
        ("\n1,2,3\n\n\n4,5\n", "line 5: expected 3 columns, got 2"),
    ])
    def test_errors_name_the_file_line(self, tmp_path, text, message):
        # blank lines count: the bad row is line 5 of the file
        f = tmp_path / "data.csv"
        f.write_text(text)
        with pytest.raises(ValueError, match=message):
            load_srlasso_csv(f)
