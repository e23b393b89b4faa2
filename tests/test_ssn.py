"""Inner objective, gradient, Newton directions, line search, and the loop."""

import numpy as np
import pytest
import scipy.sparse as sp

from socalm import (
    ConeSpec,
    ProblemData,
    SparseSymmetric,
    apply_jacobian,
    gen_meb,
    gen_trs,
    jacobian_element,
    line_search,
    make_state,
    newton_direction,
    project,
    run_inner,
    solve,
)
from socalm import ssn
from socalm.linsys import LinearSolveError, SolveStats
from socalm.ssn import CONVERGED, LINEAR_SOLVE_FAILURE, MAX_ITERS, NewtonParams


def toy_quadratic_problem():
    """psi(x1, x2) = x1^2 for x1, x2 near the origin: H=[2], projection part
    vanishes because the projection argument stays in the polar cone."""
    cone = ConeSpec.make(nonneg=1)
    A = sp.csr_matrix(np.array([[1.0]]))
    H = SparseSymmetric.from_dense(np.array([[2.0]]))
    return ProblemData(H, A, np.zeros(1), np.array([100.0]), cone)


def below(threshold):
    """The stop test ``||grad psi|| <= threshold`` for :func:`run_inner`."""
    return lambda state: state.grad_norm <= threshold


def linear_1d_problem():
    cone = ConeSpec.make(nonneg=1)
    A = sp.csr_matrix(np.array([[1.0]]))
    return ProblemData(None, A, np.array([1.0]), np.array([0.0]), cone)


def fd_gradient(problem, x1, x2, y, sigma, h=1e-6):
    n, m = len(x1), len(x2)
    g1 = np.zeros(n)
    g2 = np.zeros(m)
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        fp = make_state(problem, x1 + e, x2, y, sigma).psi
        fm = make_state(problem, x1 - e, x2, y, sigma).psi
        g1[i] = (fp - fm) / (2 * h)
    for i in range(m):
        e = np.zeros(m)
        e[i] = h
        fp = make_state(problem, x1, x2 + e, y, sigma).psi
        fm = make_state(problem, x1, x2 - e, y, sigma).psi
        g2[i] = (fp - fm) / (2 * h)
    return g1, g2


class TestPsiAndGrad:
    def test_polar_projection_vanishes(self):
        # z lands strictly inside the polar cone, so the projection is zero
        cone = ConeSpec.make(soc=[3])
        A = sp.csr_matrix(np.eye(3))
        c = np.array([50.0, 1.0, 1.0])
        H = SparseSymmetric.from_dense(0.1 * np.eye(3))
        problem = ProblemData(H, A, np.array([1.0, 2.0, 3.0]), c, cone)
        x1 = np.array([0.5, -0.2, 0.1])
        x2 = np.array([0.3, 0.1, -0.4])
        y = np.zeros(3)
        sigma = 1.0
        state = make_state(problem, x1, x2, y, sigma)
        psi, g1, g2 = state.psi, state.g1, state.g2
        np.testing.assert_allclose(g1, H.matvec(x1), atol=1e-14)
        np.testing.assert_allclose(g2, -problem.b, atol=1e-14)
        expected = 0.5 * H.quad(x1) - problem.b @ x2 - (y @ y) / (2 * sigma)
        assert abs(psi - expected) < 1e-14

    def test_linear_case_reduction(self):
        inst, problem = gen_meb(4, 2)
        rng = np.random.default_rng(0)
        x2 = rng.standard_normal(problem.m)
        y = rng.standard_normal(problem.n)
        sigma = 2.0
        x1 = np.zeros(problem.n)
        state = make_state(problem, x1, x2, y, sigma)
        psi, g1, g2 = state.psi, state.g1, state.g2
        assert np.all(g1 == 0.0)
        proj = project(problem.cone, y + sigma * (problem.A.T @ x2 - problem.c))
        expected = (-problem.b @ x2
                    + (proj @ proj - y @ y) / (2 * sigma))
        assert abs(psi - expected) < 1e-12 * max(1.0, abs(expected))
        np.testing.assert_allclose(g2, problem.A @ proj - problem.b, atol=1e-12)

    def test_sigma_must_be_positive(self):
        problem = linear_1d_problem()
        with pytest.raises(ValueError):
            make_state(problem, np.zeros(1), np.zeros(1), np.zeros(1), 0.0)

    @pytest.mark.parametrize("seed", range(2))
    def test_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        cone = ConeSpec.make(nonneg=2, soc=[3])
        n = cone.total_dim
        m = 3
        A = sp.csr_matrix(rng.standard_normal((m, n)))
        G = rng.standard_normal((n, n))
        problem = ProblemData(SparseSymmetric.from_dense(G @ G.T / n), A,
                              rng.standard_normal(m), rng.standard_normal(n),
                              cone)
        y = rng.standard_normal(n)
        sigma = 1.5
        checked = 0
        while checked < 100:
            x1 = rng.standard_normal(n)
            x2 = rng.standard_normal(m)
            state = make_state(problem, x1, x2, y, sigma)
            if _near_kink(cone, state.z):
                continue
            g1, g2 = fd_gradient(problem, x1, x2, y, sigma)
            scale = max(1.0, np.linalg.norm(np.concatenate([g1, g2])))
            assert np.linalg.norm(state.g1 - g1) <= 1e-6 * scale
            assert np.linalg.norm(state.g2 - g2) <= 1e-6 * scale
            checked += 1


def _near_kink(cone, z, margin=1e-3):
    if cone.nonneg_dim:
        s = cone.nonneg_start
        if np.abs(z[s:s + cone.nonneg_dim]).min() < margin:
            return True
    for i, blk in enumerate(cone.blocks):
        if blk.kind != "soc":
            continue
        v = z[cone.block_slice(i)]
        nt = np.linalg.norm(v[1:])
        if abs(v[0] - nt) < margin or abs(v[0] + nt) < margin:
            return True
    return False


class TestErrorVectorIdentity:
    @pytest.mark.parametrize("seed", range(5))
    def test_error_vector_equals_padded_gradient(self, seed):
        # the implementable-criterion error vector coincides with the inner
        # gradient padded by a zero block
        rng = np.random.default_rng(40 + seed)
        cone = ConeSpec.make(nonneg=2, soc=[3, 4])
        n = cone.total_dim
        m = 4
        A = sp.csr_matrix(rng.standard_normal((m, n)))
        G = rng.standard_normal((n, n))
        problem = ProblemData(SparseSymmetric.from_dense(G @ G.T / n), A,
                              rng.standard_normal(m), rng.standard_normal(n),
                              cone)
        x1 = rng.standard_normal(n)
        x2 = rng.standard_normal(m)
        y = rng.standard_normal(n)
        sigma = 2.5
        state = make_state(problem, x1, x2, y, sigma)
        ytil = project(problem.cone,
                       y + sigma * (-problem.H.matvec(x1)
                                    + problem.A.T @ x2 - problem.c))
        e = np.concatenate([
            problem.H.matvec(x1) - problem.H.matvec(ytil),
            -problem.b + problem.A @ ytil,
            np.zeros(n)])
        padded = np.concatenate([state.g1, state.g2, np.zeros(n)])
        assert np.abs(e - padded).max() <= 1e-14 * max(1.0, np.abs(e).max())


class TestNewtonDirection:
    def test_zero_gradient_gives_zero_direction(self):
        problem = toy_quadratic_problem()
        state = make_state(problem, np.zeros(1), np.zeros(1), np.zeros(1), 1.0)
        assert state.grad_norm == 0.0
        d1, d2, eps_j, nu_j, _ = newton_direction(problem, state, 1.0,
                                                  NewtonParams())
        assert np.all(d1 == 0.0) and np.all(d2 == 0.0)

    def test_closed_form_identity_case(self):
        # all-identity Jacobian with A = I and sigma = 1: the direction solves
        # (eps_j + 1) d2 = -g2
        cone = ConeSpec.make(soc=[3])
        A = sp.csr_matrix(np.eye(3))
        b = np.array([0.5, 0.1, 0.2])
        c = np.array([-9.0, 1.0, 1.0])  # z = -c strictly inside the cone
        problem = ProblemData(None, A, b, c, cone)
        params = NewtonParams()
        state = make_state(problem, np.zeros(3), np.zeros(3), np.zeros(3), 1.0)
        assert jacobian_element(cone, state.z).soc_case(0)[0].name == "IDENTITY"
        d1, d2, eps_j, nu_j, _ = newton_direction(problem, state, 1.0, params)
        np.testing.assert_allclose(d2, -state.g2 / (1.0 + eps_j), atol=1e-12)

    @pytest.mark.parametrize("sigma", [1.0, 3.0])
    def test_meb_inner_direction_satisfies_inexactness_bound(self, sigma):
        inst, problem = gen_meb(10, 3)
        rng = np.random.default_rng(17)
        params = NewtonParams()
        y = np.abs(rng.standard_normal(problem.n))
        state = make_state(problem, np.zeros(problem.n),
                           rng.standard_normal(problem.m), y, sigma)
        d1, d2, eps_j, nu_j, _ = newton_direction(problem, state, sigma, params)
        res = _newton_residual(problem, state, d1, d2, eps_j, sigma)
        assert res <= nu_j * (1 + 1e-9)

    def test_quadratic_direction_satisfies_inexactness_bound(self):
        rng = np.random.default_rng(3)
        cone = ConeSpec.make(soc=[4])
        n, m = 4, 2
        A = sp.csr_matrix(rng.standard_normal((m, n)))
        G = rng.standard_normal((n, n))
        problem = ProblemData(SparseSymmetric.from_dense(G @ G.T / n), A,
                              rng.standard_normal(m), rng.standard_normal(n),
                              cone)
        sigma = 1.4
        params = NewtonParams()
        state = make_state(problem, rng.standard_normal(n),
                           rng.standard_normal(m), rng.standard_normal(n),
                           sigma)
        d1, d2, eps_j, nu_j, _ = newton_direction(problem, state, sigma, params)
        res = _newton_residual(problem, state, d1, d2, eps_j, sigma)
        assert res <= nu_j * (1 + 1e-9)


def _newton_residual(problem, state, d1, d2, eps_j, sigma):
    """|| M_j (d1; d2) + eps_j (0; d2) + grad || by explicit multiplication."""
    J = jacobian_element(problem.cone, state.z)
    Hd1 = problem.H.matvec(d1) if problem.is_quadratic else np.zeros_like(d1)
    t = Hd1 - problem.A.T @ d2
    Vt = apply_jacobian(J, t)
    if problem.is_quadratic:
        r1 = Hd1 + sigma * problem.H.matvec(Vt) + state.g1
    else:
        r1 = np.zeros_like(d1)
    r2 = -sigma * (problem.A @ Vt) + eps_j * d2 + state.g2
    return float(np.sqrt(r1 @ r1 + r2 @ r2))


class TestLineSearch:
    def test_full_step_accepted_on_easy_problem(self):
        problem = linear_1d_problem()
        state = make_state(problem, np.zeros(1), np.zeros(1), np.zeros(1), 1.0)
        # Newton direction for psi(x2) = -x2 + max(x2,0)^2/2 at x2=0 is +1
        alpha, new, info = line_search(problem, state, np.zeros(1),
                                       np.array([1.0]), NewtonParams())
        assert alpha == 1.0
        assert new.psi < state.psi
        assert (info["outcome"], info["step"], info["trials"]) == ("unit", 1.0, 1)

    def test_toy_quadratic_backtracks_once(self):
        # psi(x1) = x1^2, start at 1 with the doubled Newton step d = -2:
        # alpha 1 fails the sufficient-decrease test with mu = 1/4, alpha 1/2
        # lands at the minimizer
        problem = toy_quadratic_problem()
        params = NewtonParams(mu=0.25, delta=0.5)
        state = make_state(problem, np.array([1.0]), np.zeros(1), np.zeros(1),
                           1.0)
        assert abs(state.psi - 1.0) < 1e-14
        assert abs(state.g1[0] - 2.0) < 1e-14
        alpha, new, info = line_search(problem, state, np.array([-2.0]),
                                       np.zeros(1), params)
        assert alpha == 0.5
        assert abs(new.psi) < 1e-14
        assert (info["outcome"], info["step"], info["trials"]) == (
            "backtracked", 1.0, 2)

    def test_zero_gradient_returns_unchanged(self):
        problem = toy_quadratic_problem()
        state = make_state(problem, np.zeros(1), np.zeros(1), np.zeros(1), 1.0)
        alpha, new, info = line_search(problem, state, np.array([1.0]),
                                       np.zeros(1), NewtonParams())
        assert alpha == 1.0
        assert new is state
        assert not info["steepest"]

    def test_non_descent_direction_falls_back(self):
        problem = toy_quadratic_problem()
        state = make_state(problem, np.array([1.0]), np.zeros(1), np.zeros(1),
                           1.0)
        alpha, new, info = line_search(problem, state, np.array([5.0]),
                                       np.zeros(1), NewtonParams())
        assert new.psi < state.psi  # steepest-descent fallback still decreases
        assert info["steepest"]

    def test_steepest_step_is_measured_along_the_gradient(self):
        # d1 = 5 ascends from x1 = 1, so the search runs along -g1 = -2: the
        # step taken is alpha * ||g||, not alpha * ||d|| = 5 alpha
        problem = toy_quadratic_problem()
        state = make_state(problem, np.array([1.0]), np.zeros(1), np.zeros(1),
                           1.0)
        alpha, new, info = line_search(problem, state, np.array([5.0]),
                                       np.zeros(1), NewtonParams())
        assert info["steepest"] and state.grad_norm == 2.0
        assert info["step"] == alpha * state.grad_norm
        assert np.linalg.norm(new.x1 - state.x1) == info["step"]

    def test_exhausted_search_returns_best_trial(self):
        # psi = -b'x2 + |A'x2 - c|^2 / 2 while A'x2 - c stays in the orthant,
        # with AA' = diag(1, 0.01) and the gradient (1, 0) at the origin.
        # The full step along (-1, -50) zeroes the stiff component and turns
        # the soft one to -0.5: the gradient norm falls from 1 to 0.5 while
        # psi rises by 12.  Trials at 1/2 and 1/4 also fail the decrease
        # test, so the two-trial budget runs out with psi lowest at 1/4.
        problem, d2 = _stiff_orthant_problem()
        state = make_state(problem, np.zeros(2), np.zeros(2), np.zeros(2), 1.0)
        assert state.grad_norm == pytest.approx(1.0, abs=1e-12)
        full = make_state(problem, np.zeros(2), d2, np.zeros(2), 1.0)
        assert full.grad_norm < 0.51 and full.psi > state.psi + 11.0
        params = NewtonParams(max_linesearch_steps=2)
        alpha, new, info = line_search(problem, state, np.zeros(2), d2, params)
        assert alpha == 0.25
        assert (info["outcome"], info["trials"]) == ("exhausted", 3)
        assert info["step"] == 0.25 * np.linalg.norm(d2)
        assert not info["steepest"]
        _assert_exact_state(problem, new)
        assert new.psi < make_state(problem, np.zeros(2), 0.5 * d2,
                                    np.zeros(2), 1.0).psi < full.psi

    @pytest.mark.parametrize("budget, outcome", [(3, "exhausted"),
                                                 (4, "backtracked")])
    def test_success_on_the_last_trial_is_not_exhausted(
            self, monkeypatch, budget, outcome):
        # the problem above passes the decrease test first at alpha = 1/16,
        # the fourth shorter trial: a budget of four accepts it on the last
        # allowed trial, with as many trials as an exhausted search reports
        problem, d2 = _stiff_orthant_problem()
        state = make_state(problem, np.zeros(2), np.zeros(2), np.zeros(2), 1.0)
        params = NewtonParams(max_newton_iters=1, max_linesearch_steps=budget)
        alpha, _, info = line_search(problem, state, np.zeros(2), d2, params)
        assert (alpha, info["trials"], info["outcome"]) == (
            1.0 / 2 ** budget, budget + 1, outcome)
        # one Newton step along d2, counted by the outcome the search named
        monkeypatch.setattr(ssn, "newton_direction", lambda *args: (
            np.zeros(2), d2, 0.0, 0.0, SolveStats("diagonal")))
        res = run_inner(problem, np.zeros(2), 1.0, state, below(1e-12), params)
        assert res.newton_iters == 1
        assert res.status == MAX_ITERS
        assert res.counts["exhausted"] == (outcome == "exhausted")


def _stiff_orthant_problem():
    """The problem of ``test_exhausted_search_returns_best_trial`` and its
    direction ``d2`` from the origin."""
    A = sp.csr_matrix(np.diag([1.0, 0.1]))
    c = np.array([-100.0, -100.0])
    b = A @ -c - np.array([1.0, 0.0])
    return (ProblemData(None, A, b, c, ConeSpec.make(nonneg=2)),
            np.array([-1.0, -50.0]))


def _line_search_case(kind):
    """A state a few Newton steps from the origin and its Newton direction."""
    if kind == "linear":
        _, problem = gen_meb(12, 3)
    else:
        _, problem = gen_trs(6, 2)
    params = NewtonParams()
    state = run_inner(problem, np.zeros(problem.n), 1.0,
                      (np.zeros(problem.n), np.zeros(problem.m)), below(0.1),
                      params).state
    d1, d2, _, _, _ = newton_direction(problem, state, 1.0, params)
    return problem, state, d1, d2


def _assert_exact_state(problem, new):
    ref = make_state(problem, new.x1, new.x2, new.y, new.sigma)
    for name in ("z", "proj", "g1", "g2"):
        assert np.array_equal(getattr(new, name), getattr(ref, name)), name
    assert new.psi == ref.psi
    assert new.grad_norm == ref.grad_norm


class TestLineSearchExactness:
    """Accepted states equal a fresh evaluation at their own point, bit for bit.

    Shorter trials move ``z`` along the unit step's image, which drifts from
    the exact ``z`` by roundoff; that drift must not reach an accepted state.
    """

    @pytest.mark.parametrize("kind", ["linear", "quadratic"])
    @pytest.mark.parametrize("scale", [1.0, 64.0])
    def test_accepted_state_is_exact(self, kind, scale):
        problem, state, d1, d2 = _line_search_case(kind)
        alpha, new, info = line_search(problem, state, scale * d1, scale * d2,
                                       NewtonParams())
        assert (alpha == 1.0) == (scale == 1.0)
        assert info["outcome"] == ("unit" if scale == 1.0 else "backtracked")
        _assert_exact_state(problem, new)

    @pytest.mark.parametrize("kind", ["linear", "quadratic"])
    def test_trial_objective_matches_evaluation(self, kind, monkeypatch):
        problem, state, d1, d2 = _line_search_case(kind)
        d1, d2 = 64.0 * d1, 64.0 * d2
        params = NewtonParams()
        seen = []
        psi = ssn._psi

        def recording_psi(*args):
            seen.append(psi(*args))
            return seen[-1]

        monkeypatch.setattr(ssn, "_psi", recording_psi)
        alpha, _, info = line_search(problem, state, d1, d2, params)
        monkeypatch.undo()
        assert info["trials"] > 2
        # the unit trial, then one objective value per shorter trial
        for i, psi_t in enumerate(seen[:info["trials"]]):
            a = params.delta ** i
            exact = make_state(problem, state.x1 + a * d1, state.x2 + a * d2,
                               state.y, state.sigma).psi
            assert abs(psi_t - exact) <= 1e-12 * abs(exact), (i, psi_t, exact)
        assert alpha == params.delta ** (info["trials"] - 1)


class TestRunInner:
    def test_starting_at_minimizer_takes_no_steps(self):
        problem = linear_1d_problem()
        y = np.array([0.0])
        sigma = 1.0
        # closed form: the gradient vanishes at x2 = (1 - y)/sigma; the stop
        # test is called once, on the start
        seen = []

        def done(state):
            seen.append(state)
            return state.grad_norm <= 1e-12

        res = run_inner(problem, y, sigma, (np.zeros(1), np.array([1.0])),
                        done, NewtonParams())
        assert res.newton_iters == 0
        assert res.status == CONVERGED
        assert len(seen) == 1 and seen[0] is res.state

    def test_linear_1d_closed_form(self):
        problem = linear_1d_problem()
        for y0, sigma in ((0.4, 1.0), (-0.3, 2.5), (0.0, 1.0)):
            y = np.array([y0])
            res = run_inner(problem, y, sigma, (np.zeros(1), np.zeros(1)),
                            below(1e-12), NewtonParams())
            assert res.state.grad_norm <= 1e-12
            assert abs(res.state.x2[0] - (1.0 - y0) / sigma) <= 1e-10

    def test_meb_inner_solve(self, monkeypatch):
        inst, problem = gen_meb(10, 3)
        steps = []

        def recording_line_search(problem, state, d1, d2, params):
            out = line_search(problem, state, d1, d2, params)
            steps.append((state.psi, out))
            return out

        monkeypatch.setattr(ssn, "line_search", recording_line_search)
        params = NewtonParams()
        res = run_inner(problem, np.zeros(problem.n), 1.0,
                        (np.zeros(problem.n), np.zeros(problem.m)),
                        below(1e-10), params)
        assert res.status == CONVERGED
        assert res.state.grad_norm <= 1e-10
        assert len(steps) == res.newton_iters > 0
        from socalm import dist_to_cone
        assert dist_to_cone(problem.cone, res.x3) <= 1e-10 * (
            1 + np.linalg.norm(res.x3))
        # every step accepted through the sufficient-decrease test honours the
        # inequality as evaluated (noise and exhausted steps are the
        # documented fallbacks)
        for psi_old, (alpha, new, info) in steps:
            if info["outcome"] in ("noise", "exhausted"):
                continue
            assert new.psi <= psi_old + params.mu * alpha * info["gd"]

    def test_start_state_is_evaluated_at_the_given_multiplier(self):
        # a state made at another (y, sigma) is re-evaluated, and one made at
        # these is used as it is
        inst, problem = gen_meb(10, 3)
        rng = np.random.default_rng(5)
        x2 = rng.standard_normal(problem.m)
        y = project(problem.cone, rng.standard_normal(problem.n))
        x1 = np.zeros(problem.n)
        params = NewtonParams()
        ref = run_inner(problem, y, 2.0, (x1, x2), below(1e-10), params)
        for y0, sigma0 in ((np.zeros(problem.n), 2.0), (y, 1.0), (y, 2.0)):
            start = make_state(problem, x1, x2, y0, sigma0)
            res = run_inner(problem, y, 2.0, start, below(1e-10), params)
            assert res.newton_iters == ref.newton_iters
            assert np.array_equal(res.state.x2, ref.state.x2)
            assert np.array_equal(res.state.proj, ref.state.proj)

    @pytest.mark.parametrize("budget", [3, 200])
    def test_done_is_called_once_per_state(self, monkeypatch, budget):
        # the start, then each state a line search returned, each once and
        # in order; the loop ends at the first state that passes, or after
        # the step budget with the last state tested
        inst, problem = gen_meb(10, 3)
        reached = []

        def recording_line_search(*args):
            out = line_search(*args)
            reached.append(out[1])
            return out

        monkeypatch.setattr(ssn, "line_search", recording_line_search)
        start = make_state(problem, np.zeros(problem.n), np.zeros(problem.m),
                           np.zeros(problem.n), 1.0)
        seen = []

        def done(state):
            seen.append(state)
            return state.grad_norm <= 1e-10

        res = run_inner(problem, np.zeros(problem.n), 1.0, start, done,
                        NewtonParams(max_newton_iters=budget))
        assert [id(st) for st in seen] == [id(st) for st in [start] + reached]
        assert len(seen) == res.newton_iters + 1
        assert res.state is seen[-1]
        passed = [st.grad_norm <= 1e-10 for st in seen]
        assert passed.count(True) == (res.status == CONVERGED)
        assert res.status == (CONVERGED if budget == 200 else MAX_ITERS)


def _failing(monkeypatch, name, failures):
    """Make ``ssn.<name>`` raise LinearSolveError on its first ``failures``
    calls; returns the list of the calls' arguments."""
    original = getattr(ssn, name)
    calls = []

    def wrapped(*args, **kwargs):
        calls.append(args)
        if len(calls) <= failures:
            raise LinearSolveError("forced miss", "cholesky", residual=1.0)
        return original(*args, **kwargs)

    monkeypatch.setattr(ssn, name, wrapped)
    return calls


class TestLinearSolveFailure:
    @pytest.mark.parametrize("name", ["solve_spd", "solve_quadratic"])
    def test_first_failure_propagates(self, monkeypatch, name):
        problem = (gen_meb(10, 3) if name == "solve_spd" else gen_trs(6, 1))[1]
        state = make_state(problem, np.zeros(problem.n), np.ones(problem.m),
                           np.zeros(problem.n), 1.0)
        calls = _failing(monkeypatch, name, 1)
        with pytest.raises(LinearSolveError):
            newton_direction(problem, state, 1.0, NewtonParams())
        assert len(calls) == 1

    def test_run_inner_reports_the_failure(self, monkeypatch):
        inst, problem = gen_meb(10, 3)
        _failing(monkeypatch, "solve_spd", 2)
        res = run_inner(problem, np.zeros(problem.n), 1.0,
                        (np.zeros(problem.n), np.zeros(problem.m)),
                        below(1e-10), NewtonParams())
        assert res.status == LINEAR_SOLVE_FAILURE
        assert res.newton_iters == 0

    @pytest.mark.parametrize("gen", [gen_meb, gen_trs])
    def test_solve_reports_the_failure(self, monkeypatch, gen):
        problem = gen(8, 2)[1]
        for name in ("solve_spd", "solve_quadratic"):
            _failing(monkeypatch, name, 10 ** 6)
        result = solve(problem)
        assert result.status == "LinearSolveFailure"
        assert result.outer_iters == 1 and result.newton_iters == 0


class TestNewtonParamsValidation:
    def test_ranges_enforced(self):
        with pytest.raises(ValueError):
            NewtonParams(nu_hat=1.5)
        with pytest.raises(ValueError):
            NewtonParams(mu=0.7)
        with pytest.raises(ValueError):
            NewtonParams(delta=0.0)
        with pytest.raises(ValueError):
            NewtonParams(tau=1.5)

    @pytest.mark.parametrize("field, value", [
        ("max_newton_iters", 0), ("max_newton_iters", -3),
        ("max_newton_iters", 2.5), ("max_newton_iters", 1.0),
        ("max_linesearch_steps", -1), ("max_linesearch_steps", 0.5)])
    def test_step_budgets_must_be_integers(self, field, value):
        with pytest.raises(ValueError, match=field):
            NewtonParams(**{field: value})

    def test_smallest_step_budgets(self):
        params = NewtonParams(max_newton_iters=1, max_linesearch_steps=0)
        assert (params.max_newton_iters, params.max_linesearch_steps) == (1, 0)
        assert NewtonParams(max_newton_iters=np.int64(5)).max_newton_iters == 5
