"""Structural checks applied to every monitored solve.

Verifies, per outer iteration: exact cone membership and complementarity of
the updated pair, the multiplier-update identity, the literal accuracy-test
inequality re-evaluated at the realized candidate, and the equality between
the criterion error vector and the padded inner gradient.
"""

import numpy as np

from socalm import dist_to_cone, kkt_residuals, project, solve


class AlmInvariantChecker:
    def __init__(self, problem, options):
        self.problem = problem
        self.options = options
        self.failures = []
        self.iterations = 0

    def __call__(self, k, iterate, info, deltas):
        p = self.problem
        self.iterations += 1
        x1, x2, x3, y = iterate.x1, iterate.x2, iterate.x3, iterate.y
        sigma = iterate.sigma
        n3 = np.linalg.norm(x3)
        ny = np.linalg.norm(y)

        def check(name, ok, extra=""):
            if not ok:
                self.failures.append(f"k={k}: {name} {extra}")

        # exact complementarity by construction
        scale = 1e-12 * (1.0 + n3) * (1.0 + ny)
        check("x3 in cone", dist_to_cone(p.cone, x3) <= 1e-10 * (1.0 + n3))
        check("y in cone", dist_to_cone(p.cone, y) <= 1e-10 * (1.0 + ny))
        check("complementarity", abs(float(x3 @ y)) <= scale,
              f"<x3,y>={float(x3 @ y):.3e}")

        # multiplier-update identity
        Hx1 = p.H.matvec(x1) if p.is_quadratic else 0.0
        update = info.y_prev + sigma * (-Hx1 + p.A.T @ x2 + x3 - p.c)
        gap = np.linalg.norm(y - update)
        check("update identity", gap <= 1e-12 * (1.0 + ny + sigma * (1.0 + n3)),
              f"gap={gap:.3e}")

        # the accepted point satisfies the accuracy criterion as written,
        # re-derived from the realized candidate multiplier
        if info.accepted:
            e_norm = self._error_norm(x1, x2, info.y_prev, sigma, y)
            rhs_a = self._criterion_rhs(x1, x2, y, info.y_prev, sigma,
                                        info.epshat)
            check("criterion A'", e_norm <= rhs_a * (1.0 + 1e-9),
                  f"e={e_norm:.3e} rhs={rhs_a:.3e}")
            if info.criterion_b_rhs is not None:
                # the rate-targeting test is enforced down to the documented
                # roundoff floor
                rhs_b = self._criterion_rhs(x1, x2, y, info.y_prev, sigma,
                                            info.deltahat,
                                            extra=np.linalg.norm(
                                                y - info.y_prev) ** 2)
                mfloor = 50 * np.finfo(float).eps * (
                    1.0 + p.a_fro * ny + np.linalg.norm(p.b)
                    + p.H.fro_norm() * ny)
                check("criterion B'", e_norm <= max(rhs_b, mfloor) * (1.0 + 1e-9),
                      f"e={e_norm:.3e} rhs={rhs_b:.3e}")

        # error vector equals the padded inner gradient
        pad_gap = abs(self._error_norm(x1, x2, info.y_prev, sigma, y)
                      - info.grad_norm)
        check("error = padded gradient", pad_gap <= 1e-12 * (1.0 + info.grad_norm),
              f"gap={pad_gap:.3e}")

    def _error_norm(self, x1, x2, y_prev, sigma, y_new):
        p = self.problem
        Hx1 = p.H.matvec(x1) if p.is_quadratic else np.zeros(p.n)
        # summed in the order of ssn.make_state, so that the comparison with
        # the reported gradient is exact and not bounded by the roundoff of
        # sigma * H x1, which grows with ||H||
        z = y_prev + sigma * (p.A.T @ x2 - p.c) - sigma * Hx1
        ytil = project(p.cone, z)
        e1 = Hx1 - (p.H.matvec(ytil) if p.is_quadratic else np.zeros(p.n))
        e2 = -p.b + p.A @ ytil
        return float(np.sqrt(e1 @ e1 + e2 @ e2))

    def _criterion_rhs(self, x1, x2, y_new, y_prev, sigma, seq_val, extra=None):
        p = self.problem
        ck = 1.0 + np.sqrt(x1 @ x1 + x2 @ x2 + y_new @ y_new) \
            + np.linalg.norm(y_new)
        hy = (np.linalg.norm(p.H.matvec(y_new)) if p.is_quadratic else 0.0)
        dy = np.linalg.norm(y_new - y_prev)
        factor = min(1.0, 1.0 / (hy + dy / sigma + 1.0 / sigma))
        rhs = (seq_val * seq_val / sigma) / ck * factor
        if extra is not None:
            rhs *= extra
        return rhs


def solve_with_invariants(problem, options, **kw):
    """Solve while checking structural invariants each outer iteration."""
    checker = AlmInvariantChecker(problem, options)
    result = solve(problem, options, callback=checker, **kw)
    assert not checker.failures, "; ".join(checker.failures[:10])
    # termination soundness, re-evaluated independently
    d = kkt_residuals(problem, result.x1, result.x2, result.x3, result.y)
    if result.status == "Optimal":
        assert max(d[:4]) < options.tol
    else:
        assert not max(d[:4]) < options.tol
    return result
