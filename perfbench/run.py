"""Benchmark of socalm: time to a 1e-8 solution, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload meb_cli --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Workloads (instance sets in ``workloads.py``):

``meb_cli``  enclosing ball 1000x400 through ``socalm solve --solution``:
             a thousand Lorentz blocks, dense Newton route, text I/O.
``srlasso``  square-root Lasso 500x150 (m > d) and 200x1000 (d > m): one
             orthant and one large Lorentz block, augmented route.
``trs``      trust-region subproblems d = 400 and d = 800: the quadratic
             path, ``splu`` on the block system, no assembly and no I/O.

The load is a closed loop: one client, one solve at a time.  Each run starts
fresh worker processes (``worker.py``); imports and a tiny warm-up solve stay
outside every timed region, and a worker that overruns the wall-clock cap is
killed and its unfinished solve counted as failed.

``--trace 0`` prints ``setup_s``, ``solve_s``, ``ok_frac`` and
``peak_rss_mb`` (medians over set-up repetitions and solve passes).
``--trace 1`` runs a traced pass at the default BLAS thread count, then one
with a single BLAS thread (``blas1.*``), and prints the per-layer metrics;
spans go to ``.perfbench_out/``.  ``--smoke`` runs both
modes on tiny instances and checks that every metric in ``BENCHMARK.json``
is emitted with its unit.

Every answer is checked independently (``checks.py``).  ``ok_frac`` counts
solves that return ``Optimal`` and pass their check; a known non-converging
instance lowers it.  ``failed`` counts wrong answers, crashes and solves
killed at the cap; ``correct`` is true when there are none and, in a traced
run, the span tree is consistent.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("meb_cli", "srlasso", "trs")

# Wall-clock cap on all worker processes of one run, in seconds.
CAP_S = 174.0
# The traced span tree must account for this share of the traced solve time.
MIN_COVERAGE = 0.9
# Metrics of the single-threaded traced pass, reported as "blas1.<name>".
SINGLE_THREAD = ("trace.solve_s", "linsys.spd_s", "linsys.quad_s",
                 "linsys.assemble_s", "ssn.newton_steps", "blas.threads")
ONE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}

UNIT_BY_SUFFIX = (("_s", "s"), ("_mb", "MB"), ("_frac", "frac"),
                  ("coverage", "frac"), ("density", "frac"),
                  ("threads", "threads"), ("_per_step", "ratio"),
                  ("_per_outer", "ratio"), ("kkt_final", "ratio"))


def unit_of(name):
    for suffix, unit in UNIT_BY_SUFFIX:
        if name.endswith(suffix):
            return unit
    return "count"


def spawn(workload, seed, seconds, mode, smoke, deadline, extra_env=None):
    """Run one worker; return its events and whether it was killed."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    env.update(extra_env or {})
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
           "--out-dir", str(OUT_DIR)] + (["--smoke"] if smoke else [])
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    killed = False
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        killed = True
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(OUT_DIR / f"work-{proc.pid}", ignore_errors=True)
    events = [json.loads(ln) for ln in out.splitlines() if ln.startswith("{")]
    if not killed and proc.returncode != 0:
        raise RuntimeError(f"worker {mode} exited with code {proc.returncode}")
    return events, killed


def solve_records(events, killed):
    """Per-solve records; a solve begun but unfinished when killed failed."""
    recs = [e for e in events if e["event"] == "solve"]
    begun = [e for e in events if e["event"] == "begin"]
    if killed and len(begun) > len(recs):
        last = begun[-1]
        recs.append({"instance": last["instance"], "index": last["index"],
                     "seconds": 0.0, "error": f"killed at the {CAP_S:.0f} s cap"})
    return recs


def is_ok(rec):
    return rec.get("status") == "Optimal" and rec["check"]["ok"]


def is_failed(rec):
    """A wrong answer, a crash or a kill; a reported non-convergence is not."""
    return "error" in rec or (rec.get("status") == "Optimal"
                              and not rec["check"]["ok"])


def show(recs):
    """One line per solve of the first pass of each kind, and every failure."""
    first = {}
    for r in recs:
        first.setdefault((r.get("traced"), r["instance"]), r["index"])
    for r in recs:
        if r["index"] != first[(r.get("traced"), r["instance"])] and not is_failed(r):
            continue
        if "error" in r:
            print(f"  {r['instance']:18s} pass {r['index']}  ERROR {r['error']}")
            continue
        if r["check"]["ok"]:
            verdict = "ok"
        elif r["status"] == "Optimal":
            verdict = f"FAILED {r['check']}"
        else:
            verdict = "fails, as expected of a result that is not Optimal"
        print(f"  {r['instance']:18s} pass {r['index']}  {r['status']:12s} "
              f"outer {r['outer']:3d} newton {r['newton']:4d} "
              f"kkt {r['kkt']:.2e}  {r['seconds']:8.3f} s  check {verdict}")


def run_e2e(workload, seed, seconds, smoke):
    deadline = time.monotonic() + CAP_S
    events, killed = spawn(workload, seed, seconds, "e2e", smoke, deadline)
    recs = solve_records(events, killed)
    show(recs)
    passes = [e["seconds"] for e in events if e["event"] == "pass"]
    setups = [e["seconds"] for e in events if e["event"] == "setup"]
    if not passes:
        passes = [CAP_S]
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    metrics = {
        "setup_s": statistics.median(setups) if setups else CAP_S,
        "solve_s": statistics.median(passes),
        "ok_frac": sum(map(is_ok, recs)) / max(len(recs), 1),
        "peak_rss_mb": rss_mb,
    }
    failed = sum(map(is_failed, recs)) + (0 if recs else 1)
    return not killed and failed == 0, recs, failed, metrics


def run_traced(workload, seed, seconds, smoke):
    deadline = time.monotonic() + CAP_S
    events, killed = spawn(workload, seed, seconds, "traced", smoke, deadline)
    recs = solve_records(events, killed)
    errors = []
    metrics = {}
    if not killed:
        single, killed = spawn(workload, seed, seconds, "traced", smoke,
                               deadline, ONE_THREAD_ENV)
        recs += solve_records(single, killed)
        for ev, prefix in ((events, ""), (single, "blas1.")):
            layers = [e for e in ev if e["event"] == "layers"]
            if not layers:
                errors.append(f"no layer metrics from the {prefix or 'default'} pass")
                continue
            errors += layers[0]["errors"]
            for name, value in layers[0]["metrics"].items():
                if not prefix:
                    metrics[name] = value
                elif name in SINGLE_THREAD:
                    metrics[prefix + name.removeprefix("blas.")] = value
    show(recs)
    if not smoke and metrics.get("trace.coverage", 0.0) < MIN_COVERAGE:
        errors.append(f"trace.coverage {metrics.get('trace.coverage', 0.0):.3f}"
                      f" < {MIN_COVERAGE}")
    for err in errors:
        print(f"  trace check: {err}")
    failed = sum(map(is_failed, recs)) + (0 if recs else 1)
    return not killed and failed == 0 and not errors, recs, failed, metrics


def run(workload, seed, seconds, trace, smoke=False):
    """The result object, and the per-solve records behind it."""
    runner = run_traced if trace else run_e2e
    correct, recs, failed, metrics = runner(workload, seed, seconds, smoke)
    result = {"correct": correct, "attempted": max(len(recs), 1),
              "failed": failed,
              "metrics": {k: {"value": v, "unit": unit_of(k)}
                          for k, v in sorted(metrics.items())}}
    return result, recs


def smoke():
    """Both modes on tiny instances; every declared metric must appear."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            print(f"smoke: {workload} --trace {trace}")
            res, _ = run(workload, 0, 1, trace, smoke=True)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            tag = f"{workload} --trace {trace}"
            if not res["correct"]:
                problems.append(f"{tag}: not correct")
            for name in sorted(set(declared[trace]) - set(got)):
                problems.append(f"{tag}: metric {name} missing")
            for name in sorted(set(got) - set(declared[trace])):
                problems.append(f"{tag}: metric {name} not declared")
            for name in sorted(set(got) & set(declared[trace])):
                if got[name] != declared[trace][name]:
                    problems.append(f"{tag}: {name} in {got[name]}, declared "
                                    f"{declared[trace][name]}")
    for p in problems:
        print(f"smoke problem: {p}")
    print(json.dumps({"smoke_ok": not problems, "problems": len(problems)}))
    return 1 if problems else 0


def main(argv=None):
    p = argparse.ArgumentParser(
        description="Benchmark of socalm (see the module docstring).")
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="run every workload on tiny instances, both modes")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "socalm" / "__init__.py").is_file():
        print(f"error: no socalm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    if args.smoke:
        return smoke()
    if args.workload is None:
        p.error("--workload is required unless --smoke is given")
    result, recs = run(args.workload, args.seed, args.seconds, args.trace)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps({"result": result, "solves": recs},
                                           indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
