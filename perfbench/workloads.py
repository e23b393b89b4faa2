"""Instance sets of the three benchmark workloads.

Every instance is generated from the workload seed alone, so a seed gives the
same inputs on every run.  Seed 0 reproduces the instances the project's
roadmap names: the enclosing-ball start state 7 of ``gen_meb``, ``gen_trs``
seed 1, and ``numpy.random.default_rng(0)`` for square-root Lasso.

An instance whose outcome changes with the seed stays pinned to the seed
named above, so that ``ok_frac`` does not depend on the workload seed:

- square-root Lasso 200x1000 is the known non-converging case
  (``Stagnation`` at ``default_rng(0)``) and converges at seeds 1 to 4;
- trust-region d = 400 reaches ``Optimal`` at ``gen_trs`` seed 1 but stagnates
  at some seeds (5, 28, 302 and 310 among the first few hundred).  The same
  failure, outer step 0 stalling at 200 Newton steps, shows on every seed at
  d = 800, which stays seeded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import socalm
from socalm.problems import MebInstance, meb_problem

MEB_DEFAULT_STATE = 7
TRS_DEFAULT_SEED = 1
PRAND_PERIOD = 4096


@dataclass(frozen=True)
class Spec:
    """One instance of a workload: family, label and size parameters.

    ``pinned_seed``, when set, replaces the workload seed for this instance.
    """

    family: str
    label: str
    size: tuple
    pinned_seed: int | None = None


# Full instance sets, and the tiny ones the smoke mode runs.
WORKLOADS = {
    "meb_cli": [Spec("meb", "meb_1000x400", (1000, 400))],
    "srlasso": [Spec("srlasso", "srlasso_500x150", (500, 150)),
                Spec("srlasso", "srlasso_200x1000", (200, 1000), pinned_seed=0)],
    "trs": [Spec("trs", "trs_d400", (400,), pinned_seed=0),
            Spec("trs", "trs_d800", (800,))],
}
SMOKE = {
    "meb_cli": [Spec("meb", "meb_50x5", (50, 5))],
    "srlasso": [Spec("srlasso", "srlasso_20x50", (20, 50))],
    "trs": [Spec("trs", "trs_d10", (10,))],
}
# Tiny instance of each family, solved once before any timing.
WARMUP = {"meb": (20, 3), "srlasso": (10, 15), "trs": (5,)}


def gen_meb(m, d, seed):
    """Enclosing-ball instance from the congruential sequence at state 7+seed."""
    state = (MEB_DEFAULT_STATE + seed) % PRAND_PERIOD
    vals = socalm.prand_sequence(m * (d + 1), state=state).reshape(m, d + 1)
    instance = MebInstance(centers=vals[:, 1:].copy(), radii=vals[:, 0].copy())
    return instance, meb_problem(instance)


def gen_trs(d, seed):
    return socalm.gen_trs(d, TRS_DEFAULT_SEED + seed)


def gen_srlasso(m, d, seed):
    """Gaussian design, ten coefficients equal to 3, unit noise, lambda_c = 1."""
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((m, d))
    x_true = np.zeros(d)
    x_true[:10] = 3.0
    w = B @ x_true + rng.standard_normal(m)
    lam = socalm.lambda_from_lambda_c(1.0, d)
    return socalm.build_srlasso(B, w, lam)


GENERATORS = {"meb": gen_meb, "trs": gen_trs, "srlasso": gen_srlasso}


def generate(spec: Spec, seed: int):
    """Return ``(instance, ProblemData)`` for one spec."""
    if spec.pinned_seed is not None:
        seed = spec.pinned_seed
    return GENERATORS[spec.family](*spec.size, seed)
