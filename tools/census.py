#!/usr/bin/env python3
"""Census of solves over the shipped families: outcome, counts and safeguards.

Every instance is solved once by ``socalm.solve`` at default options.  Each
record holds the status, the outer and Newton counts, the seconds, the final
KKT residual, the md5 of the bytes of ``(x2, y)`` and the verdict of
``perfbench/checks.py`` on the original data, together with how often the
solver's surviving safeguards fired:

- ``noise``: line searches that took the full step on gradient decrease
  alone, because the decrease test is below the roundoff of psi;
- ``exhausted``: line searches in which no trial passed the decrease test
  within the step budget (one that passes on its last trial is not);
- ``refine``: iterative refinement steps of the direct linear solves;
- ``steepest``: non-descent Newton directions replaced by steepest descent.

Each record also counts the linear solves by route.  A solve is counted
when it is attempted, so a Newton step's solve that fails (status
``LinearSolveFailure``) counts besides the steps that were taken:

- ``cholesky``: dense Cholesky of ``M_sp`` plus the low-rank update;
- ``diagonal``: division by a diagonal ``M_sp`` plus the update;
- ``sparse_lu``: sparse LU of ``M_sp`` plus the update;
- ``densified``: dense Cholesky of the whole densified matrix (k >= m);
- ``eigen``: the quadratic block system in H's eigenbasis;
- ``dense_lu``: dense LU of the quadratic block system;
- ``splu``: sparse LU of the quadratic block system.

Both are read from the solve's own ``SolveResult.counts``, where the
routes are named by ``socalm.linsys``.

Grids:

- ``base``: the three benchmark families at the benchmark's and the
  README's sizes over several seeds, and one step beyond them (square-root
  Lasso 400x2000, enclosing ball 2000x400, trust-region d = 1200);
- ``unit``: enclosing ball 1000x50, square-root Lasso 500x150 and
  trust-region d = 200 at seeds 0-2, as generated and with one of b, c, A
  (and H) scaled by 1e3 or 1e-3.  A linear result is mapped back before its
  check (b*f: y/f; c*f: x2/f; A*f: x2*f and y*f); a scaled trust-region
  result is not checked;
- ``extra``: a random sparse-H quadratic cone program with H scaled by 1
  and 1e3, seeds 0-3, a random dense-H one (the dense LU route), seeds
  0-2, and planted infeasible programs of both kinds, seeds 0-1 (no
  checks);
- ``tiny``: one small instance of each kind, for the test suite.

Instances come from ``perfbench/workloads.py`` (a trust-region instance of
seed s is ``gen_trs(d, 1 + s)``) and the two generators below.  Run it from a
checkout; it imports ``socalm`` from the checkout's ``src``:

    python3 tools/census.py --grid base [--grid unit ...] [--json FILE]
        [--against CENSUS_<n>.json]

``--against`` prints, after the run, every record whose status, outer or
Newton count, safeguards, routes, check verdict or md5 differs from the
record of the same label in that file, and a one-line tally.  Safeguard
and route counts are compared with their zero entries left out, so a
count that one of the two files does not hold reads as zero.  Md5s and
roundoff-sensitive counts differ across machines, so this is for two runs
on one machine; it does not change the exit code.

It exits 0 whatever the statuses are.  It exits 1 when a record's route
total is not its Newton count plus the failed solve of a
``LinearSolveFailure``, and an error in a solve or in the script itself
makes it fail.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import platform
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.sparse as sp  # noqa: E402

import socalm  # noqa: E402


def _load(name):
    """A perfbench module by file, without putting perfbench on the path."""
    spec = importlib.util.spec_from_file_location(
        f"census_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
checks = _load("checks")

SCALES = (1e3, 1e-3)


@dataclass(frozen=True)
class Case:
    """One census instance; ``scaled`` names the datum multiplied by
    ``factor`` (None for the instance as generated)."""

    grid: str
    family: str
    size: tuple
    seed: int
    scaled: str | None = None
    factor: float = 1.0

    @property
    def label(self):
        name = f"{self.family}_{'x'.join(map(str, self.size))}_s{self.seed}"
        return name if self.scaled is None else f"{name}_{self.scaled}*{self.factor:g}"


def _interior(rng, cone):
    """A point in the interior of ``cone``: positive orthant entries and
    Lorentz heads above their tails' norms."""
    v = np.empty(cone.total_dim)
    for i, blk in enumerate(cone.blocks):
        sl = cone.block_slice(i)
        if blk.kind == "soc":
            tail = rng.standard_normal(blk.dim - 1)
            v[sl] = np.concatenate([[np.linalg.norm(tail) + 1.0], tail])
        else:
            v[sl] = 1.0 + rng.random(blk.dim)
    return v


def gen_qsocp(orthant, nsoc, socdim, m, seed, dense_h=False):
    """Random quadratic cone program.

    An orthant and ``nsoc`` Lorentz blocks of dimension ``socdim``;
    ``H = B'B + 1e-3 I`` with B square, 2 % dense and standard normal, so H
    is stored sparse, or with ``dense_h`` ``H = B'B/n + 1e-3 I`` with B an
    (n/2) x n standard normal matrix, stored dense; A 10 % dense,
    ``b = A y0`` for an interior ``y0`` and c standard normal.
    """
    rng = np.random.default_rng(seed)
    cone = socalm.ConeSpec.make(nonneg=orthant, soc=(socdim,) * nsoc)
    n = cone.total_dim
    if dense_h:
        B = rng.standard_normal((n // 2, n))
        H = B.T @ B / n + 1e-3 * np.eye(n)
    else:
        B = sp.csr_matrix(np.where(rng.random((n, n)) < 0.02,
                                   rng.standard_normal((n, n)), 0.0))
        H = (B.T @ B + 1e-3 * sp.identity(n)).tocsr()
    A = np.where(rng.random((m, n)) < 0.1, rng.standard_normal((m, n)), 0.0)
    b = A @ _interior(rng, cone)
    return None, socalm.ProblemData(H, sp.csc_matrix(A), b,
                                    rng.standard_normal(n), cone)


def gen_infeasible(kind, m, orthant, nsoc, socdim, seed):
    """Random linear cone program planted infeasible, as ``kind`` says.

    ``"y"``: no y in K has ``A y = b``.  A u with ``-A'u = k`` for an
    interior k and ``b'u = 1`` certifies it, since then ``u'A y = -k'y <= 0``
    for every y in K.  ``"x"``: no ``(x2, x3)`` has ``A'x2 + x3 = c`` with x3
    in K.  An interior w with ``A w = 0`` and ``c'w = -1`` certifies it: the
    y-problem is feasible and unbounded along w.
    """
    rng = np.random.default_rng(seed)
    cone = socalm.ConeSpec.make(nonneg=orthant, soc=(socdim,) * nsoc)
    n = cone.total_dim
    A = rng.standard_normal((m, n))
    k = _interior(rng, cone)
    c = rng.standard_normal(n)
    if kind == "y":
        u = rng.standard_normal(m)
        A -= np.outer(u, A.T @ u + k) / (u @ u)
        b = rng.standard_normal(m)
        b += (1.0 - b @ u) * u / (u @ u)
    elif kind == "x":
        A -= np.outer(A @ k, k) / (k @ k)
        b = A @ _interior(rng, cone)
        c -= (c @ k + 1.0) * k / (k @ k)
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return None, socalm.ProblemData(None, sp.csc_matrix(A), b, c, cone)


GENERATORS = {
    **workloads.GENERATORS,
    "qsocp": gen_qsocp,
    "qsocp_dense": lambda *size: gen_qsocp(*size, dense_h=True),
    "infeasible_y": lambda *size: gen_infeasible("y", *size),
    "infeasible_x": lambda *size: gen_infeasible("x", *size),
}


def _unit_axis(family, size, seeds, data):
    cases = []
    for seed in seeds:
        cases.append(Case("unit", family, size, seed))
        cases += [Case("unit", family, size, seed, datum, f)
                  for datum in data for f in SCALES]
    return cases


def _cases(grid, family, sizes_seeds):
    return [Case(grid, family, size, seed)
            for size, seeds in sizes_seeds for seed in seeds]


GRIDS = {
    "base": (
        _cases("base", "srlasso", [((200, 1000), range(10)),
                                   ((500, 150), range(5)),
                                   ((2000, 300), range(2)),
                                   ((400, 2000), range(3))])
        + _cases("base", "meb", [((1000, 400), range(2)),
                                 ((2000, 50), range(2)),
                                 ((8000, 100), range(1)),
                                 ((2000, 400), range(2))])
        + _cases("base", "trs", [((400,), range(5)), ((800,), range(3)),
                                 ((1200,), range(2))])),
    "unit": (
        _unit_axis("meb", (1000, 50), range(3), "bcA")
        + _unit_axis("srlasso", (500, 150), range(3), "bcA")
        + _unit_axis("trs", (200,), range(3), "bcAH")),
    "extra": (
        [Case("extra", "qsocp", (20, 30, 10, 60), seed, scaled, f)
         for seed in range(4) for scaled, f in ((None, 1.0), ("H", 1e3))]
        + _cases("extra", "qsocp_dense", [((20, 10, 10, 40), range(3))])
        + _cases("extra", "infeasible_y", [((40, 30, 5, 10), range(2))])
        + _cases("extra", "infeasible_x", [((40, 30, 5, 10), range(2))])),
    "tiny": [
        Case("tiny", "meb", (40, 4), 0),
        Case("tiny", "srlasso", (200, 30), 0, "A", 1e-3),
        Case("tiny", "trs", (12,), 0, "H", 1e3),
        Case("tiny", "qsocp", (4, 3, 3, 6), 0),
        Case("tiny", "infeasible_x", (6, 4, 2, 3), 0),
    ],
}


def scaled_problem(problem, datum, f):
    """``problem`` with one of b, c, A and H multiplied by ``f``."""
    data = {"H": problem.H.to_csr() if problem.is_quadratic else None,
            "A": problem.A, "b": problem.b, "c": problem.c}
    data[datum] = data[datum] * f
    return socalm.ProblemData(data["H"], data["A"], data["b"], data["c"],
                              problem.cone)


def unscale(case, x2, y):
    """``(x2, y)`` of the original problem from those of the scaled one."""
    f = case.factor
    if case.scaled == "b":
        return x2, y / f
    if case.scaled == "c":
        return x2 / f, y
    if case.scaled == "A":
        return x2 * f, y * f
    return x2, y


def check(case, instance, x2, y):
    """Verdict of ``perfbench/checks.py`` on the original data, or None."""
    if case.family == "meb":
        return checks.check_meb(instance, float(x2[0]), x2[1:])
    if case.family == "srlasso":
        d = instance.B.shape[1]
        return checks.check_srlasso(instance, y[:d] - y[d:2 * d])
    if case.family == "trs" and case.scaled is None:
        return checks.check_trs(instance, y[1:])
    return None


# the linear-solve routes and their column heads
ROUTES = {"cholesky": "chol", "diagonal": "diag", "sparse_lu": "slu",
          "densified": "dnsf", "eigen": "eig", "dense_lu": "dlu",
          "splu": "splu"}


def run_case(case):
    """Solve one census instance and return its record."""
    instance, problem = GENERATORS[case.family](*case.size, case.seed)
    if case.scaled is not None:
        problem = scaled_problem(problem, case.scaled, case.factor)
    t0 = time.perf_counter()
    result = socalm.solve(problem)
    seconds = time.perf_counter() - t0
    counts = result.counts
    x2, y = unscale(case, result.x2, result.y)
    return {
        **asdict(case), "label": case.label, "status": result.status,
        "outer": result.outer_iters, "newton": result.newton_iters,
        "seconds": seconds, "kkt": result.kkt_residual,
        "md5": hashlib.md5(result.x2.tobytes() + result.y.tobytes()).hexdigest(),
        "check": check(case, instance, x2, y),
        "safeguards": {k: counts[k] for k in ("noise", "exhausted", "refine",
                                              "steepest")},
        "routes": {r: counts[r] for r in ROUTES}}


def miscounted(rec):
    """Whether ``rec``'s route total is not one solve per Newton step plus
    the failed solve that ends a ``LinearSolveFailure``."""
    failed = rec["status"] == "LinearSolveFailure"
    return sum(rec["routes"].values()) != rec["newton"] + failed


HEADER = (f"{'instance':32s} {'status':18s} {'outer/newton':>12s} {'s':>6s} "
          f"{'kkt':>8s} {'check':>5s} {'noise':>5s} {'exh':>4s} "
          f"{'refn':>4s} {'stp':>4s} "
          + " ".join(f"{h:>4s}" for h in ROUTES.values()) + " md5")


def format_row(rec):
    verdict = rec["check"]
    ok = "-" if verdict is None else ("ok" if verdict["ok"] else "FAIL")
    g = rec["safeguards"]
    return (f"{rec['label']:32s} {rec['status']:18s} "
            f"{rec['outer']:>5d}/{rec['newton']:<6d} {rec['seconds']:6.2f} "
            f"{rec['kkt']:8.1e} {ok:>5s} {g['noise']:5d} {g['exhausted']:4d} "
            f"{g['refine']:4d} {g['steepest']:4d} "
            + "".join(f"{rec['routes'][r]:4d} " for r in ROUTES)
            + rec["md5"][:12])


# the fields --against compares; "check" is the verdict alone, and the
# safeguard and route counts leave their zero entries out
COMPARED = ("status", "outer", "newton", "safeguards", "routes", "check",
            "md5")


def _compared(rec, name):
    if name == "check":
        return None if rec["check"] is None else rec["check"]["ok"]
    if name in ("safeguards", "routes"):
        return {k: v for k, v in rec[name].items() if v}
    return rec[name]


def compare(records, path):
    """Print each record that differs in a :data:`COMPARED` field from the
    record of its label in the census file ``path``, as that record's row
    (``-``) over its own (``+``, with the fields that differ), then a
    one-line tally.  Labels not in the file are only counted."""
    old = {r["label"]: r for r in json.loads(Path(path).read_text())["records"]}
    tally = dict.fromkeys(COMPARED, 0)
    differ = missing = 0
    for rec in records:
        was = old.get(rec["label"])
        if was is None:
            missing += 1
            continue
        fields = [f for f in COMPARED if _compared(rec, f) != _compared(was, f)]
        if fields:
            differ += 1
            for f in fields:
                tally[f] += 1
            print("- " + format_row(was))
            print("+ " + format_row(rec) + " " + ",".join(fields))
    print(f"against {path}: {differ} of {len(records) - missing} records "
          "differ (" + ", ".join(f"{f} {n}" for f, n in tally.items())
          + f"); {missing} not in the file")


def run(grids):
    """Census records of ``grids``, printing one table row per instance."""
    print(HEADER, flush=True)
    records = []
    for grid in grids:
        for case in GRIDS[grid]:
            records.append(run_case(case))
            print(format_row(records[-1]), flush=True)
    return records


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--grid", action="append", choices=GRIDS,
                   help="grid to run, repeatable (default: base)")
    p.add_argument("--json", help="write the records and versions here")
    p.add_argument("--against", metavar="CENSUS_JSON",
                   help="after the run, print the records that differ from "
                        "this census file's")
    args = p.parse_args(argv)
    grids = args.grid or ["base"]
    t0 = time.perf_counter()
    records = run(grids)
    seconds = time.perf_counter() - t0
    statuses = {}
    for rec in records:
        statuses[rec["status"]] = statuses.get(rec["status"], 0) + 1
    print(f"{len(records)} instances in {seconds:.1f} s: "
          + ", ".join(f"{k} {v}" for k, v in sorted(statuses.items())))
    if args.json:
        doc = {"grids": grids, "seconds": seconds,
               "python": platform.python_version(),
               "numpy": np.__version__, "scipy": scipy.__version__,
               "machine": platform.machine(), "records": records}
        Path(args.json).write_text(json.dumps(doc, indent=1) + "\n")
    if args.against:
        compare(records, args.against)
    bad = [rec["label"] for rec in records if miscounted(rec)]
    if bad:
        print("route totals differ from the Newton counts: " + ", ".join(bad))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
