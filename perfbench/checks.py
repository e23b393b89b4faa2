"""Independent output checks, one per problem family.

Each check recomputes optimality from the instance data with its own
arithmetic; none of them calls the solver or its solution extractors.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import brentq

TOL = 1e-6


def check_meb(instance, radius, center):
    """Covering inequality ``||c_i - z|| + r_i <= R`` to 1e-6 (1 + R).

    The ball must also be tight: some input ball touches its boundary, so
    ``R`` is the smallest radius that covers every ball around ``z``.
    """
    reach = np.linalg.norm(instance.centers - center, axis=1) + instance.radii
    slack = TOL * (1.0 + abs(radius))
    over = float(reach.max() - radius)
    return {"ok": bool(over <= slack and -over <= slack),
            "covering_excess": over, "slack": slack}


def trs_reference(H, c):
    """Trust-region minimum over the unit ball from an eigendecomposition.

    Solves the secular equation ``||(H + lam I)^{-1} c|| = 1`` on the
    eigenbasis, with the interior and hard cases handled explicitly.
    """
    w, Q = np.linalg.eigh(H)
    g = Q.T @ c

    def value(coef):
        return float(0.5 * np.sum(w * coef * coef) + g @ coef)

    if w[0] > 0.0:
        coef = -g / w
        if np.linalg.norm(coef) <= 1.0:
            return value(coef)
    lam_lo = max(0.0, -w[0])
    bottom = w - w[0] <= 1e-10 * max(1.0, abs(w[0]))
    if lam_lo > 0.0 and np.all(np.abs(g[bottom]) <= 1e-12 * (1.0 + np.linalg.norm(c))):
        coef = np.zeros_like(g)
        coef[~bottom] = -g[~bottom] / (w[~bottom] + lam_lo)
        nrm = np.linalg.norm(coef)
        if nrm <= 1.0:
            coef[np.argmax(bottom)] = np.sqrt(1.0 - nrm * nrm)
            return value(coef)

    def excess(lam):
        return float(np.linalg.norm(g / (w + lam))) - 1.0

    lo = lam_lo
    step = 1e-12 * max(1.0, lam_lo)
    while excess(lo + step) <= 0.0:
        step *= 0.5
        if step < 1e-300:
            raise ArithmeticError("secular equation has no root above lam_lo")
    hi = lam_lo + np.linalg.norm(c) + 1.0
    lam = brentq(excess, lo + step, hi, xtol=1e-15, rtol=4 * np.finfo(float).eps)
    return value(-g / (w + lam))


def check_trs(instance, y):
    """Objective of the solver's point against the secular reference, to 1e-6."""
    y = np.asarray(y, dtype=float)
    norm = float(np.linalg.norm(y))
    if norm > 1.0:
        y = y / norm
    val = float(0.5 * y @ (instance.H @ y) + instance.c @ y)
    ref = trs_reference(instance.H, instance.c)
    gap = abs(val - ref)
    return {"ok": bool(norm <= 1.0 + TOL and gap <= TOL * max(1.0, abs(ref))),
            "objective": val, "reference": ref, "gap": gap, "norm": norm}


def check_srlasso(instance, x, support_tol=1e-5):
    """Subgradient certificate of ``||Bx - w|| + lam ||x||_1`` at ``x``.

    ``stationarity`` is the worst ``|B'g + lam sign(x_i)|`` on the support
    and ``excess`` how far ``|B'g|`` exceeds ``lam`` anywhere, with
    ``g = (Bx - w) / ||Bx - w||``; both must be at most 1e-6.
    """
    B, w, lam = instance.B, instance.w, instance.lam
    resid = B @ x - w
    nrm = float(np.linalg.norm(resid))
    if nrm == 0.0:
        return {"ok": False, "reason": "zero residual"}
    btg = B.T @ (resid / nrm)
    support = np.abs(x) > support_tol
    stat = float(np.abs(btg[support] + lam * np.sign(x[support])).max()) \
        if support.any() else 0.0
    excess = max(float(np.abs(btg).max()) - lam, 0.0)
    return {"ok": bool(stat <= TOL and excess <= TOL),
            "stationarity": stat, "excess": excess,
            "support": int(support.sum())}
