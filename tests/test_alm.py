"""Outer-loop residuals, multiplier updates, termination, and diagnostics."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from invariants import solve_with_invariants
from oracles import solve_trs_oracle, srlasso_certificate_gap
from socalm import (
    AlmOptions,
    ConeSpec,
    Iterate,
    ProblemData,
    SparseSymmetric,
    build_srlasso,
    build_trs,
    diagnose_strict_complementarity,
    dist_to_cone,
    extract_srlasso_solution,
    extract_trs_solution,
    gen_meb,
    gen_trs,
    kkt_residuals,
    lambda_from_lambda_c,
    natural_map,
    outer_step,
    project,
    solve,
)
from socalm import alm, linsys, ssn
from socalm.alm import (
    INNER_MAX_ITERATIONS,
    LOG_HEADER,
    OPTIMAL,
    STAGNATION,
    BlockReport,
    _complementarity_report,
    format_log_line,
)
from socalm.cone import Block


def _bench_srlasso(m, d):
    """The benchmark's square-root Lasso at default_rng(0): ten coefficients
    equal to 3, unit noise, lambda_c = 1."""
    rng = np.random.default_rng(0)
    B = rng.standard_normal((m, d))
    x_true = np.zeros(d)
    x_true[:10] = 3.0
    w = B @ x_true + rng.standard_normal(m)
    return build_srlasso(B, w, lambda_from_lambda_c(1.0, d))


def linear_1d():
    cone = ConeSpec.make(nonneg=1)
    A = sp.csr_matrix(np.array([[1.0]]))
    return ProblemData(None, A, np.array([1.0]), np.array([0.0]), cone)


def _assert_trs_matches_oracle(instance, res):
    y, val = extract_trs_solution(instance, res)
    assert np.linalg.norm(y) <= 1.0 + 1e-8
    _, ref = solve_trs_oracle(instance.H, instance.c)
    assert abs(val - ref) <= 1e-6 * max(1.0, abs(ref))


def _zero_start(p):
    """The fields of a warm start at the origin, by name."""
    return {"x1": np.zeros(p.n), "x2": np.zeros(p.m), "x3": np.zeros(p.n),
            "y": np.zeros(p.n)}


def infeasible_toy():
    # the two equality rows force y = 1 and y = -1 simultaneously
    cone = ConeSpec.make(nonneg=1)
    A = sp.csr_matrix(np.array([[1.0], [-1.0]]))
    return ProblemData(None, A, np.array([1.0, 1.0]), np.array([0.0]), cone)


class TestKktResiduals:
    def test_hand_checked_kkt_point(self):
        p = linear_1d()
        d = kkt_residuals(p, np.zeros(1), np.zeros(1), np.zeros(1),
                          np.array([1.0]))
        assert max(d[:4]) == 0.0

    def test_delta2_hand_evaluation(self):
        p = linear_1d()
        d = kkt_residuals(p, np.zeros(1), np.zeros(1), np.zeros(1),
                          np.array([-1.0]))
        assert abs(d[1] - 0.5) < 1e-15

    def test_exact_solution_of_random_meb(self):
        _, p = gen_meb(5, 2)
        opts = AlmOptions(tol=1e-10)
        res = solve(p, opts)
        assert res.status == OPTIMAL
        d = kkt_residuals(p, res.x1, res.x2, res.x3, res.y)
        assert max(d[:4]) < 1e-10


class TestNaturalMap:
    def test_zero_at_kkt_point(self):
        p = linear_1d()
        r = natural_map(p, np.zeros(1), np.zeros(1), np.zeros(1),
                        np.array([1.0]))
        assert np.all(r == 0.0)

    def test_hand_evaluation_blocks(self):
        p = linear_1d()
        r = natural_map(p, np.zeros(1), np.zeros(1), np.zeros(1),
                        np.array([-1.0]))
        # layout: (n, m, n, n) = (1, 1, 1, 1)
        assert r[1] == -2.0  # -b + A y
        assert r[2] == -1.0  # x3 - proj(x3 - y)

    def test_quadratic_blocks_against_dense_formula(self):
        rng = np.random.default_rng(8)
        cone = ConeSpec.make(nonneg=2, soc=(3, 4))
        n, m = cone.total_dim, 4
        G = rng.standard_normal((n, n))
        Hd = G @ G.T
        A = rng.standard_normal((m, n))
        b, c = rng.standard_normal(m), rng.standard_normal(n)
        p = ProblemData(Hd, A, b, c, cone)
        x1, x3, y = (rng.standard_normal(n) for _ in range(3))
        x2 = rng.standard_normal(m)
        r = natural_map(p, x1, x2, x3, y)
        ref = np.concatenate([
            Hd @ (x1 - y), A @ y - b, x3 - project(cone, x3 - y),
            Hd @ x1 - A.T @ x2 - x3 + c])
        np.testing.assert_allclose(r, ref, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("make", [
        lambda: gen_meb(40, 5)[1], lambda: _bench_srlasso(60, 20)[1],
        lambda: gen_trs(30, 2)[1]])
    @pytest.mark.parametrize("max_outer", [0, 2, 100])
    def test_solve_reports_its_norm(self, make, max_outer):
        # solve forms the map from the last residuals' vectors
        p = make()
        res = solve(p, AlmOptions(max_outer=max_outer))
        with alm.single_thread():
            ref = np.linalg.norm(natural_map(p, res.x1, res.x2, res.x3, res.y))
        assert res.natural_map_norm == ref


class TestOuterStep:
    def test_fixed_point_at_kkt(self):
        p = linear_1d()
        it = Iterate(np.zeros(1), np.zeros(1), np.zeros(1), np.array([1.0]),
                     sigma=2.0)
        new, info = outer_step(p, it, AlmOptions(), k=0)
        assert np.allclose(new.y, it.y, atol=1e-12)
        assert np.allclose(new.x3, it.x3, atol=1e-12)
        assert info.newton_iters == 0

    def test_moreau_consistency_on_random_starts(self):
        _, p = gen_meb(6, 3)
        rng = np.random.default_rng(3)
        for trial in range(5):
            it = Iterate(np.zeros(p.n), rng.standard_normal(p.m),
                         np.zeros(p.n), rng.standard_normal(p.n), sigma=1.5)
            new, info = outer_step(p, it, AlmOptions(), k=0)
            scale = 1e-12 * (1 + np.linalg.norm(new.x3)) * (
                1 + np.linalg.norm(new.y))
            assert dist_to_cone(p.cone, new.x3) <= 1e-9
            assert dist_to_cone(p.cone, new.y) <= 1e-9
            assert abs(float(new.x3 @ new.y)) <= scale

    def test_linear_1d_converges_within_three_steps(self):
        p = linear_1d()
        it = Iterate(np.zeros(1), np.zeros(1), np.zeros(1), np.zeros(1),
                     sigma=1.0)
        opts = AlmOptions()
        for k in range(3):
            it, info = outer_step(p, it, opts, k)
            if (abs(it.x2[0]) < 1e-8 and abs(it.x3[0]) < 1e-8
                    and abs(it.y[0] - 1.0) < 1e-8):
                break
            it.sigma *= 3.0
        assert abs(it.x2[0]) < 1e-8
        assert abs(it.x3[0]) < 1e-8
        assert abs(it.y[0] - 1.0) < 1e-8


class TestSolve:
    def test_linear_1d_optimal(self):
        res = solve_with_invariants(linear_1d(), AlmOptions())
        assert res.status == OPTIMAL
        assert abs(res.y[0] - 1.0) < 1e-7
        assert res.kkt_residual < 1e-8

    def test_already_solved_start(self):
        p = linear_1d()
        start = Iterate(np.zeros(1), np.zeros(1), np.zeros(1),
                        np.array([1.0]), 1.0)
        res = solve(p, AlmOptions(), start=start)
        assert res.status == OPTIMAL
        assert res.outer_iters <= 1

    def test_warm_start_arrays_are_not_shared(self):
        # in the linear case x1 never moves; the result must still own it
        _, p = gen_meb(8, 3)
        cold = solve(p, AlmOptions())
        start = Iterate(cold.x1.copy(), cold.x2.copy(), cold.x3.copy(),
                        cold.y.copy(), 1.0)
        res = solve(p, AlmOptions(), start=start)
        for name in ("x1", "x2", "x3", "y"):
            assert not np.shares_memory(getattr(res, name),
                                        getattr(start, name))

    def test_warm_start_runs_at_its_own_sigma(self):
        _, p = gen_meb(8, 3)
        n, m = p.n, p.m
        steps = []
        start = Iterate(np.zeros(n), np.zeros(m), np.zeros(n), np.zeros(n),
                        7.5)
        solve(p, AlmOptions(max_outer=1), start=start,
              callback=lambda k, it, info, d: steps.append(it.sigma))
        assert steps == [7.5]

    @pytest.mark.parametrize("name", ["x1", "x2", "x3", "y"])
    def test_warm_start_vectors_must_have_their_lengths(self, name):
        # x1, x2, x3 and y have lengths n, m, n and n; one element short is
        # refused by name before any arithmetic
        _, p = gen_meb(8, 3)
        vecs = _zero_start(p)
        vecs[name] = vecs[name][1:]
        with pytest.raises(ValueError, match=f"^start.{name} has shape"):
            solve(p, AlmOptions(), start=Iterate(**vecs, sigma=1.0))

    @pytest.mark.parametrize("name", ["x1", "x2", "x3", "y"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_warm_start_vectors_must_be_finite(self, name, bad):
        _, p = gen_meb(8, 3)
        vecs = _zero_start(p)
        vecs[name][1] = bad
        with pytest.raises(ValueError,
                           match=f"^start.{name} holds a non-finite value$"):
            solve(p, AlmOptions(), start=Iterate(**vecs, sigma=1.0))

    @pytest.mark.parametrize("sigma", [0.0, -1.0, np.nan, np.inf])
    def test_warm_start_sigma_must_be_positive_and_finite(self, sigma):
        p = linear_1d()
        start = Iterate(np.zeros(1), np.zeros(1), np.zeros(1), np.zeros(1),
                        sigma)
        with pytest.raises(ValueError, match="sigma"):
            solve(p, AlmOptions(), start=start)

    def test_inner_iteration_limit_is_named(self, monkeypatch):
        monkeypatch.setattr(alm, "_NEWTON", ssn.NewtonParams(max_newton_iters=1))
        _, p = gen_trs(50, 1)
        res = solve(p, AlmOptions())
        assert res.status == INNER_MAX_ITERATIONS
        assert (res.outer_iters, res.newton_iters) == (1, 1)

    @pytest.mark.parametrize("inner", [ssn.STAGNATION, ssn.LINESEARCH_FAILURE])
    def test_other_inner_stops_are_stagnation(self, monkeypatch, inner):
        # the same unconverged inner solve, reported with another cause
        run_inner = alm.run_inner

        def relabelled(*args):
            res = run_inner(*args)
            assert res.status == ssn.MAX_ITERS
            res.status = inner
            return res

        monkeypatch.setattr(alm, "run_inner", relabelled)
        monkeypatch.setattr(alm, "_NEWTON", ssn.NewtonParams(max_newton_iters=1))
        _, p = gen_trs(50, 1)
        res = solve(p, AlmOptions())
        assert res.status == STAGNATION

    def test_infeasible_never_optimal(self):
        res = solve(infeasible_toy(), AlmOptions(max_outer=15))
        assert res.status != OPTIMAL

    def test_meb_with_invariants(self):
        _, p = gen_meb(8, 3)
        res = solve_with_invariants(p, AlmOptions())
        assert res.status == OPTIMAL

    def test_trs_with_invariants(self):
        _, p = gen_trs(12, seed=5)
        res = solve_with_invariants(p, AlmOptions())
        assert res.status == OPTIMAL

    def test_trs_at_benchmark_size_matches_oracle(self):
        # the d = 400 instance of the benchmark's trs workload, whose Newton
        # systems are solved in H's eigenbasis; the counts pin the start at
        # sigma0 = 1
        instance, p = gen_trs(400, seed=1)
        res = solve_with_invariants(p, AlmOptions())
        assert res.status == OPTIMAL
        assert (res.outer_iters, res.newton_iters) == (5, 12)
        assert res.kkt_residual <= 1e-8
        _assert_trs_matches_oracle(instance, res)

    @pytest.mark.parametrize("d, seed", [(800, 1), (800, 2), (800, 3),
                                         (400, 5), (1200, 1)])
    def test_trs_that_stagnated_at_small_sigma0(self, d, seed):
        # each of these ended in Stagnation after 200 Newton steps in its
        # first inner solve when sigma0 was 1/lambda_max(H)
        instance, p = gen_trs(d, seed)
        res = solve_with_invariants(p, AlmOptions())
        assert res.status == OPTIMAL
        assert res.kkt_residual <= 1e-8
        assert res.newton_iters <= 20
        _assert_trs_matches_oracle(instance, res)

    @pytest.mark.parametrize("h_scale, c_scale", [(1e3, 1.0), (1.0, 1e3),
                                                  (1.0, 1e-3)])
    def test_trs_under_data_scaling(self, h_scale, c_scale):
        # the default start must not depend on the scale of H or c
        for seed in range(1, 6):
            base, _ = gen_trs(200, seed)
            instance, p = build_trs(h_scale * base.H, c_scale * base.c)
            res = solve_with_invariants(p, AlmOptions())
            assert res.status == OPTIMAL, seed
            _assert_trs_matches_oracle(instance, res)

    def test_meb_at_benchmark_size_counts(self):
        # the benchmark's meb_cli instance: a thousand Lorentz blocks of
        # dimension 401; the counts pin the cone kernels' and the linear
        # Newton step's iterates
        _, p = gen_meb(1000, 400)
        res = solve_with_invariants(p, AlmOptions())
        assert res.status == OPTIMAL
        assert (res.outer_iters, res.newton_iters) == (3, 73)
        assert res.kkt_residual <= 1e-8

    def test_srlasso_at_benchmark_size_counts(self):
        # the benchmark's square-root Lasso 500x150 at default_rng(0): an
        # orthant and one Lorentz block of dimension 501
        _, p = _bench_srlasso(500, 150)
        res = solve_with_invariants(p, AlmOptions())
        assert res.status == OPTIMAL
        assert (res.outer_iters, res.newton_iters) == (10, 36)
        assert res.kkt_residual <= 1e-8

    def test_tall_srlasso_through_the_lowrank_orthant(self):
        # m = 2000 rows against 600 orthant columns: the active columns of
        # the orthant enter every Newton step as low-rank columns, not as a
        # dense 2000 x 2000 Gram
        instance, p = _bench_srlasso(2000, 300)
        res = solve_with_invariants(p, AlmOptions())
        assert res.status == OPTIMAL
        assert (res.outer_iters, res.newton_iters) == (9, 37)
        assert res.kkt_residual <= 1e-8
        B, w = instance.B, instance.w
        x = extract_srlasso_solution(instance, res)
        stat, excess = srlasso_certificate_gap(B, w, instance.lam, x)
        # x is accurate to about tol * ||x||, and x -> B'(Bx - w)/||Bx - w||
        # is ||B||^2 / ||Bx - w|| Lipschitz: at m = 2000 that allows about
        # 8e-6, where the solve reaches 1.9e-6
        bound = (1e-8 * np.linalg.norm(x) * np.linalg.norm(B, 2) ** 2
                 / np.linalg.norm(B @ x - w))
        assert stat <= bound and excess <= bound

    def test_trs_past_2000_rows_matches_oracle(self):
        # d = 2000 gives Newton systems of 2002 rows, solved in H's eigenbasis
        instance, p = gen_trs(2000, seed=1)
        res = solve_with_invariants(p, AlmOptions())
        assert res.status == OPTIMAL
        assert res.kkt_residual <= 1e-8
        _assert_trs_matches_oracle(instance, res)

    def test_srlasso_with_invariants_and_criterion_b(self):
        rng = np.random.default_rng(11)
        B = rng.standard_normal((8, 15))
        w = rng.standard_normal(8)
        _, p = build_srlasso(B, w, 0.7)
        res = solve_with_invariants(p, AlmOptions(use_criterion_b=True))
        assert res.status == OPTIMAL

    def test_natural_map_not_worse_than_start(self):
        _, p = gen_meb(6, 2)
        start_norm = np.linalg.norm(natural_map(
            p, np.zeros(p.n), np.zeros(p.m), np.zeros(p.n), np.zeros(p.n)))
        res = solve(p, AlmOptions())
        assert res.status == OPTIMAL
        assert res.natural_map_norm <= start_norm

    def test_log_lines_fixed_width_and_parsable(self):
        _, p = gen_meb(5, 2)
        lines = []
        res = solve(p, AlmOptions(), log=lines.append)
        assert lines[0] == LOG_HEADER
        assert res.iteration_log == lines[1:]
        for line in res.iteration_log:
            toks = line.split()
            assert len(toks) == 9
            int(toks[0])
            int(toks[4])
            for t in toks[1:4] + toks[5:]:
                float(t)
        # fixed width: all data lines have equal length
        widths = {len(line) for line in res.iteration_log}
        assert len(widths) == 1

    def test_format_log_line_stable(self):
        line = format_log_line(3, 1.0, -0.5, 1e-9, 7,
                               (1e-9, 0.0, 1e-5, 1e-6))
        assert line.split() == ["3", "1.0000e+00", "-5.000000000e-01",
                                "1.000e-09", "7", "1.00e-09", "0.00e+00",
                                "1.00e-05", "1.00e-06"]


class TestCarriedProducts:
    """Inner states and outer iterates carry the H products they were made
    with, so no product is formed twice at one point."""

    @staticmethod
    def record_states(monkeypatch):
        states = []
        make_state = ssn.make_state

        def recorded(*args, **kwargs):
            states.append(make_state(*args, **kwargs))
            return states[-1]

        monkeypatch.setattr(ssn, "make_state", recorded)
        monkeypatch.setattr(alm, "make_state", recorded)
        return states

    def test_quadratic_products_are_those_of_their_points(self, monkeypatch):
        _, p = gen_trs(200, 1)
        states = self.record_states(monkeypatch)
        iterates = []
        res = solve(p, callback=lambda k, it, info, d: iterates.append(it))
        assert res.status == OPTIMAL
        assert len(states) > res.newton_iters and len(iterates) == res.outer_iters
        for st in states:
            assert st.Hx1.tobytes() == p.H.matvec(st.x1).tobytes()
            assert st.Hproj.tobytes() == p.H.matvec(st.proj).tobytes()
        for it in iterates:
            assert it.Hx1.tobytes() == p.H.matvec(it.x1).tobytes()
            assert it.Hy.tobytes() == p.H.matvec(it.y).tobytes()

    def test_linear_states_carry_none(self, monkeypatch):
        _, p = gen_meb(8, 3)
        states = self.record_states(monkeypatch)
        assert solve(p).status == OPTIMAL
        assert states
        assert all(st.Hx1 is None and st.Hproj is None for st in states)


class TestDiagnostics:
    def test_zero_x3_interior_y_is_strict(self):
        _, p = gen_meb(4, 2)

        class FakeResult:
            pass

        r = FakeResult()
        r.x3 = np.zeros(p.n)
        r.y = np.concatenate([[2.0, 0.1, 0.1]] * 4)
        report = diagnose_strict_complementarity(p, r)
        for rep in report:
            assert rep.x3_status == "zero"
            assert rep.y_status == "interior"
            assert rep.category == "one-interior-one-zero"
            assert rep.strictly_complementary

    def test_both_zero_is_degenerate(self):
        _, p = gen_meb(4, 2)

        class FakeResult:
            pass

        r = FakeResult()
        r.x3 = np.zeros(p.n)
        r.y = np.zeros(p.n)
        report = diagnose_strict_complementarity(p, r)
        for rep in report:
            assert rep.category == "degenerate"
            assert not rep.strictly_complementary

    def test_meb_solve_block_classification(self):
        inst, p = gen_meb(12, 4)
        res = solve(p, AlmOptions())
        assert res.status == OPTIMAL
        report = diagnose_strict_complementarity(p, res)
        assert len(report) == 12
        scale = 1e-8 * (1 + np.linalg.norm(res.x3) * np.linalg.norm(res.y))
        for rep in report:
            assert rep.kind == "soc"
            assert abs(rep.inner_product) <= scale
        # result carries the same report
        assert [r.category for r in res.complementarity] == [
            r.category for r in report]


    def test_vectorized_report_equals_block_loop(self):
        # random cones (the orthant anywhere, or absent, or empty) at points
        # whose blocks are zero, on the boundary or interior
        rng = np.random.default_rng(3)
        categories = set()
        for _ in range(100):
            blocks = [Block("soc", int(d))
                      for d in rng.integers(2, 9, rng.integers(1, 12))]
            if rng.random() < 0.7:
                blocks.insert(int(rng.integers(0, len(blocks) + 1)),
                              Block("nonneg", int(rng.integers(0, 5))))
            cone = ConeSpec(blocks)
            x3, y = (_random_block_point(cone, rng) for _ in range(2))
            # equal to the bit: both take one BLAS dot per block vector
            got = _complementarity_report(cone, x3, y)
            assert got == _report_by_block(cone, x3, y)
            categories.update(r.category for r in got)
        assert categories == {"both-boundary-nonzero", "one-interior-one-zero",
                              "degenerate"}


def _random_block_point(cone, rng):
    """Each block at random zero, on the cone's boundary, or interior."""
    x = np.zeros(cone.total_dim)
    for i, blk in enumerate(cone.blocks):
        sl = cone.block_slice(i)
        kind = rng.integers(0, 3)
        if kind == 0:
            continue
        u = rng.standard_normal(sl.stop - sl.start)
        if blk.kind == "soc":
            u[0] = np.linalg.norm(u[1:]) * (1.0 if kind == 1 else 2.0)
        else:
            u = np.abs(u) + (kind == 2)
            if kind == 1 and u.size:
                u[0] = 0.0
        x[sl] = u
    return x


def _report_by_block(cone, x3, y):
    """The complementarity report evaluated one block at a time."""
    tol = 1e-8 * (1.0 + np.linalg.norm(x3) + np.linalg.norm(y))

    def margin(v, is_soc):
        if is_soc:
            return float(v[0] - np.linalg.norm(v[1:]))
        return float(np.min(v)) if v.size else 0.0

    def status(v, is_soc):
        if np.linalg.norm(v) <= tol:
            return "zero"
        return "interior" if margin(v, is_soc) > tol else "boundary"

    report = []
    for i, blk in enumerate(cone.blocks):
        sl = cone.block_slice(i)
        v3, vy = x3[sl], y[sl]
        is_soc = blk.kind == "soc"
        s3, sy = status(v3, is_soc), status(vy, is_soc)
        if s3 == sy == "boundary":
            category = "both-boundary-nonzero"
        elif {s3, sy} == {"zero", "interior"}:
            category = "one-interior-one-zero"
        else:
            category = "degenerate"
        mg = margin(v3 + vy, is_soc)
        report.append(BlockReport(i, blk.kind, s3, sy, category, mg > tol, mg,
                                  float(v3 @ vy)))
    return report


class TestProblemDataValidation:
    def test_dim_mismatch_rejected(self):
        cone = ConeSpec.make(nonneg=2)
        with pytest.raises(ValueError):
            ProblemData(None, np.ones((2, 3)), np.ones(2), np.ones(2), cone)

    def test_h_dim_mismatch_rejected(self):
        cone = ConeSpec.make(nonneg=2)
        with pytest.raises(ValueError):
            ProblemData(SparseSymmetric(3), np.ones((1, 2)), np.ones(1),
                        np.ones(2), cone)

    def test_asymmetric_h_rejected(self):
        cone = ConeSpec.make(nonneg=2)
        with pytest.raises(ValueError):
            ProblemData(np.array([[1.0, 2.0], [0.0, 1.0]]), np.ones((1, 2)),
                        np.ones(1), np.ones(2), cone)

    @pytest.mark.parametrize("field", ["A", "b", "c", "H", "H_dense"])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_data_rejected(self, field, bad):
        _, trs = gen_trs(6, 1)
        data = {"H": trs.H, "A": trs.A.copy(), "b": trs.b.copy(),
                "c": trs.c.copy()}
        if field == "A":
            data["A"].data[-1] = bad
        elif field == "H":
            data["H"] = SparseSymmetric(trs.n, [0, 3], [0, 3], [1.0, bad])
            assert data["H"].dense_copy() is None
        elif field == "H_dense":
            rows, cols = np.tril_indices(trs.n)
            vals = np.ones(rows.size)
            vals[2] = bad
            data["H"] = SparseSymmetric(trs.n, rows, cols, vals)
            assert data["H"].dense_copy() is not None
        else:
            data[field][-1] = bad
        name = field[0]
        with pytest.raises(ValueError, match=f"^{name} holds a non-finite"):
            ProblemData(data["H"], data["A"], data["b"], data["c"], trs.cone)


def _split_entries(A):
    """CSR twin of ``A`` that stores each entry as two halves, the entries of
    every row in descending column order: duplicates and unsorted indices."""
    R = sp.csr_matrix(A)
    R.sort_indices()
    indices = np.empty(2 * R.nnz, dtype=R.indices.dtype)
    data = np.empty(2 * R.nnz)
    for i in range(R.shape[0]):
        lo, hi = R.indptr[i], R.indptr[i + 1]
        indices[2 * lo:2 * hi] = np.repeat(R.indices[lo:hi][::-1], 2)
        data[2 * lo:2 * hi] = np.repeat(R.data[lo:hi][::-1] / 2, 2)
    return sp.csr_matrix((data, indices, 2 * R.indptr), shape=R.shape)


def _same_bits(got, ref):
    assert got.dtype == ref.dtype and got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()


class TestCanonicalA:
    """``ProblemData`` holds A once, as a canonical CSC matrix."""

    @staticmethod
    def _problem(A):
        cone = ConeSpec.make(nonneg=A.shape[1])
        return ProblemData(None, A, np.ones(A.shape[0]), np.ones(A.shape[1]),
                           cone)

    def test_duplicates_count_once_in_a_fro(self):
        # [[1, 0, 2], [0, 3, 0]] with the 1 stored as two entries of 0.5
        A = sp.csr_matrix((np.array([0.5, 0.5, 2.0, 3.0]), np.array([0, 0, 2, 1]),
                           np.array([0, 3, 4])), shape=(2, 3))
        p = self._problem(A)
        assert p.a_fro == np.linalg.norm(A.toarray())
        assert p.A.format == "csc" and p.A.has_canonical_format
        assert p.A.nnz == 3

    @pytest.mark.parametrize("fmt", ["csr", "csc"])
    def test_caller_arrays_are_unchanged(self, fmt):
        _, ref = _bench_srlasso(30, 12)
        A = _split_entries(ref.A)
        if fmt == "csc":
            A = _split_entries(ref.A.T).T
        assert A.format == fmt and not A.has_canonical_format
        saved = [a.copy() for a in (A.data, A.indices, A.indptr)]
        p = self._problem(A)
        assert not np.shares_memory(p.A.data, A.data)
        for got, old in zip((A.data, A.indices, A.indptr), saved):
            _same_bits(got, old)

    def test_solve_equals_that_of_the_canonical_twin(self):
        _, ref = _bench_srlasso(30, 12)
        twin = ProblemData(None, _split_entries(ref.A), ref.b, ref.c, ref.cone)
        for got, old in ((twin.A.data, ref.A.data), (twin.A.indices, ref.A.indices),
                         (twin.A.indptr, ref.A.indptr)):
            _same_bits(got, old)
        r, s = solve(ref), solve(twin)
        assert r.status == s.status == OPTIMAL
        assert (r.outer_iters, r.newton_iters) == (s.outer_iters, s.newton_iters)
        for name in ("x1", "x2", "x3", "y"):
            _same_bits(getattr(s, name), getattr(r, name))

    def test_canonical_csc_input_is_held_as_it_is(self):
        _, ref = _bench_srlasso(30, 12)
        p = ProblemData(None, ref.A, ref.b, ref.c, ref.cone)
        assert p.A is ref.A
        assert p.assembly.csc() is p.A


def _random_canonical(rng, m, n):
    """Random CSR matrix of values spread over 16 decades, with empty rows
    and empty columns."""
    A = sp.random(m, n, density=0.3, random_state=rng, format="lil")
    A[rng.choice(m, m // 4, replace=False), :] = 0
    A[:, rng.choice(n, n // 4, replace=False)] = 0
    A = A.tocsr()
    A.eliminate_zeros()
    A.data = rng.standard_normal(A.nnz) * 10.0 ** rng.uniform(-8, 8, A.nnz)
    return A


def _exactness_cases():
    rng = np.random.default_rng(11)
    B = rng.standard_normal((40, 15))
    yield "gen_meb", gen_meb(60, 7)[1]
    yield "build_srlasso", build_srlasso(B, B[:, 0], 0.3)[1]
    yield "gen_trs", gen_trs(30, 2)[1]
    for i, (m, n) in enumerate(((25, 40), (60, 30))):
        A = _random_canonical(rng, m, n)
        assert (np.diff(A.indptr) == 0).any() and (A.getnnz(axis=0) == 0).any()
        yield f"random{i}", ProblemData(None, A, np.ones(m), np.ones(n),
                                        ConeSpec.make(nonneg=n))


@pytest.mark.parametrize("name, p", list(_exactness_cases()),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_held_csc_products_have_the_bits_of_csr(name, p):
    """``A @ v``, ``A @ X`` and ``A' w`` through the one held CSC matrix are
    byte-equal to the products of its CSR form."""
    rng = np.random.default_rng(5)
    R = p.A.tocsr()
    v = rng.standard_normal(p.n) * 10.0 ** rng.uniform(-8, 8, p.n)
    # nine in ten entries +0.0 or -0.0: A v reads only the other columns
    zeros = np.where(rng.random(p.n) < 0.1, v,
                     np.copysign(0.0, rng.standard_normal(p.n)))
    X = rng.standard_normal((p.n, 3)) * 10.0 ** rng.uniform(-8, 8, (p.n, 3))
    w = rng.standard_normal(p.m) * 10.0 ** rng.uniform(-8, 8, p.m)
    _same_bits(p.A @ v, R @ v)
    _same_bits(p.A @ X, R @ X)
    _same_bits(p.rmatvec(w), R.T @ w)
    # through the shared block of gen_meb, through A for the others
    assert (p.assembly.block is not None) == (name == "gen_meb")
    _same_bits(p.matvec(v), R @ v)
    _same_bits(p.matvec(zeros), R @ zeros)
    _same_bits(p.matvec(X), R @ X)
    Y = rng.standard_normal((p.m, 2))
    _same_bits(p.rmatvec(Y), R.T @ Y)
    Ac, At = p.assembly.csc(), p.assembly.at()
    assert Ac is p.A
    assert np.shares_memory(At.data, p.A.data)
    assert np.shares_memory(At.indices, p.A.indices)


@pytest.mark.parametrize("m, d", [(500, 150), (200, 1000)])
def test_srlasso_solve_has_the_bits_of_the_whole_products(monkeypatch, m, d):
    """The bench square-root Lasso solves bit for bit as it does with A v
    over every column and A' v over both orthant halves."""
    p = _bench_srlasso(m, d)[1]
    got = solve(p)
    assert p.assembly.negated_half() == d
    with monkeypatch.context() as mp:
        mp.setattr(linsys, "_SUBSET_SHARE", -1.0)
        mp.setattr(linsys, "negated_half", lambda A, cone: 0)
        q = _bench_srlasso(m, d)[1]
        ref = solve(q)
        assert q.assembly.negated_half() == 0
    assert got.status == ref.status
    assert ((got.outer_iters, got.newton_iters)
            == (ref.outer_iters, ref.newton_iters))
    for name in ("x2", "y", "x3"):
        _same_bits(getattr(got, name), getattr(ref, name))


class _Unread:
    """Stands in for A's arrays: any product with it fails."""

    shape = property(lambda self: pytest.fail("A was read"))

    def __matmul__(self, other):
        pytest.fail("A was read")


def test_meb_state_and_residuals_read_only_the_shared_block():
    """make_state, kkt_residuals and natural_map of an enclosing-ball problem
    take every product with A from its m x (d+1) block: with the whole A and
    its transpose view taken away they give the bits they gave before."""
    p = gen_meb(60, 7)[1]
    rng = np.random.default_rng(3)
    x2, y = rng.standard_normal(p.m), rng.standard_normal(p.n)
    x3 = project(p.cone, rng.standard_normal(p.n))
    x1 = np.zeros(p.n)

    def evaluate():
        st = ssn.make_state(p, x1, x2, y, 2.5)
        return ([st.z, st.proj, st.g2, np.array([st.psi, st.grad_norm])]
                + [np.array(kkt_residuals(p, x1, x2, x3, y)),
                   natural_map(p, x1, x2, x3, y)])

    before = evaluate()
    p.A = p.assembly.A = p.assembly._at = _Unread()
    for got, ref in zip(evaluate(), before):
        _same_bits(got, ref)


class TestAlmOptionsValidation:
    def test_fields(self):
        assert [f.name for f in dataclasses.fields(AlmOptions)] == [
            "tol", "max_outer", "use_criterion_b"]

    @pytest.mark.parametrize("tol", [0.0, -1e-8, np.nan, np.inf])
    def test_tol_must_be_positive_and_finite(self, tol):
        with pytest.raises(ValueError, match="tol"):
            AlmOptions(tol=tol)

    @pytest.mark.parametrize("max_outer", [-3, 2.5])
    def test_max_outer_must_be_a_non_negative_integer(self, max_outer):
        with pytest.raises(ValueError, match="max_outer"):
            AlmOptions(max_outer=max_outer)
