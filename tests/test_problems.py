"""Instance builders, the pseudo-random generator, and solution extractors."""

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
from socalm.problems import _Lcg64, meb_problem


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
        with pytest.raises(ValueError):
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

    def test_sign_mixed_spectrum(self):
        inst, _ = gen_trs(20, seed=1)
        w = np.linalg.eigvalsh(inst.H)
        assert w[0] < 0 < w[-1]


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
