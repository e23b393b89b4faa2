"""One workload process: warm up, set up, solve, check.

``run.py`` starts this script in a fresh interpreter with ``PYTHONPATH``
pointing at the checkout's ``src/``.  It writes one JSON object per line on
standard output, flushed as it goes, so that the parent keeps every record
made before it had to kill a process that overran its wall-clock cap.

Modes:

``e2e``     set up several times, then solve the instance set in passes for
            about ``--seconds`` seconds, with no tracing;
``traced``  set up once, then solve one traced pass.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import socalm

import checks
import tracing
import workloads

# Set-up is repeated at least this often, and further while the repetitions
# together take less than SETUP_BUDGET_S seconds, up to SETUP_MAX_REPS.
SETUP_MIN_REPS = 3
SETUP_BUDGET_S = 2.0
SETUP_MAX_REPS = 15

ROOT_SPAN = "bench.solve"


def emit(event, **fields):
    print(json.dumps({"event": event, **fields}), flush=True)


def blas_threads():
    """Largest thread count among the OpenBLAS libraries this process loaded."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln})
    except OSError:
        return 0
    counts = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                counts.append(int(fn()))
                break
    return max(counts, default=0)


@dataclass
class Case:
    """One generated instance, ready to solve; ``path`` is its problem file."""

    spec: workloads.Spec
    instance: object
    problem: socalm.ProblemData
    path: Path | None = None


def set_up(specs, seed, workdir, cli, tracer):
    cases = []
    for spec in specs:
        with tracer.span("bench.gen", instance=spec.label):
            instance, problem = workloads.generate(spec, seed)
        path = None
        if cli:
            path = workdir / f"{spec.label}.prob"
            with tracer.span("bench.write_problem", instance=spec.label) as ex:
                socalm.write_problem(problem, path)
                ex["mb"] = path.stat().st_size / 1e6
        cases.append(Case(spec, instance, problem, path))
    return cases


def check(case, y):
    """Independent check of a library result's multiplier vector ``y``."""
    family = case.spec.family
    if family == "trs":
        return checks.check_trs(case.instance, y[1:])
    if family == "srlasso":
        d = case.instance.B.shape[1]
        return checks.check_srlasso(case.instance, y[:d] - y[d:2 * d])
    raise ValueError(f"no library check for family {family!r}")


def solve_cli(case, workdir, tracer):
    """``socalm solve --solution`` on the problem file; the result is parsed
    and the covering checked outside the timed region."""
    out = workdir / f"{case.spec.label}.result"
    argv = ["solve", str(case.path), "--out", str(out), "--solution"]
    t0 = time.perf_counter()
    with tracer.span(ROOT_SPAN), contextlib.redirect_stdout(io.StringIO()):
        code = socalm.cli_main(argv)
    seconds = time.perf_counter() - t0
    if code not in (0, 3):
        return {"seconds": seconds, "error": f"exit code {code}"}
    with tracer.span("bench.parse_result") as ex:
        res = socalm.parse_result(out)
        ex["mb"] = out.stat().st_size / 1e6
    kkt = max(res.delta1, res.delta2, res.delta3, res.delta4)
    verdict = checks.check_meb(case.instance, float(res.x2[0]), res.x2[1:])
    return {"seconds": seconds, "status": res.status, "outer": res.outer_iters,
            "newton": res.newton_iters, "krylov": res.krylov_iters,
            "kkt": kkt, "check": verdict}


def solve_library(case, tracer):
    t0 = time.perf_counter()
    with tracer.span(ROOT_SPAN):
        r = socalm.solve(case.problem)
    seconds = time.perf_counter() - t0
    return {"seconds": seconds, "status": r.status, "outer": r.outer_iters,
            "newton": r.newton_iters, "krylov": r.krylov_iters,
            "kkt": r.kkt_residual, "check": check(case, r.y)}


def solve_case(case, workdir, cli, tracer):
    try:
        rec = solve_cli(case, workdir, tracer) if cli else solve_library(case, tracer)
    except Exception as err:  # a crash is a failed solve, not a lost run
        traceback.print_exc()
        return {"seconds": 0.0, "error": f"{type(err).__name__}: {err}"}
    return rec


def run_pass(cases, workdir, cli, tracer, index, traced):
    total = 0.0
    records = []
    for case in cases:
        emit("begin", instance=case.spec.label, index=index)
        tracer.instance = f"{case.spec.label}#{index}"
        rec = solve_case(case, workdir, cli, tracer)
        rec.update(instance=case.spec.label, index=index, traced=traced)
        emit("solve", **rec)
        records.append(rec)
        total += rec["seconds"]
    emit("pass", index=index, traced=traced, seconds=total)
    return total, records


def warm_up(specs, workdir, cli):
    """Solve one tiny instance per family so lazy imports happen untimed."""
    for family in sorted({s.family for s in specs}):
        spec = workloads.Spec(family, f"warmup_{family}", workloads.WARMUP[family])
        case = set_up([spec], 0, workdir, cli, tracing.Tracer())[0]
        solve_case(case, workdir, cli, tracing.Tracer())


def traced_layers(tracer, setup_tracer, records):
    spans = tracer.spans
    roots = {i for i, s in enumerate(spans) if s[tracing.NAME] == ROOT_SPAN}
    m = tracing.layer_metrics(spans, roots)
    errors = tracing.tree_errors(spans) + tracing.tree_errors(setup_tracer.spans)
    errors += [f"span {name} not found" for name in tracer.missing]

    def total(spans_, name, key=None):
        return sum((s[tracing.EXTRA][key] if key else s[tracing.END] - s[tracing.START])
                   for s in spans_ if s[tracing.NAME] == name)

    m["problems.gen_s"] = total(setup_tracer.spans, "bench.gen")
    m["io.write_problem_s"] = total(setup_tracer.spans, "bench.write_problem")
    m["io.problem_mb"] = total(setup_tracer.spans, "bench.write_problem", "mb")
    m["io.parse_result_s"] = total(spans, "bench.parse_result")
    m["io.result_mb"] = total(spans, "bench.parse_result", "mb")
    m["alm.kkt_final"] = max((r.get("kkt", 0.0) for r in records), default=0.0)
    m["blas.threads"] = blas_threads()
    # traced over untraced solve_s, minus 1, with the untraced time taken as
    # the traced time less the calibrated cost of every span: a second,
    # untraced pass would cost a full pass and differ from this one by
    # run-to-run noise some thousand times larger than the wrappers' cost
    cost = len(spans) * tracing.span_cost()
    m["trace.overhead_frac"] = cost / (m["trace.solve_s"] - cost)
    # the trace must account for what the solver reports
    done = [r for r in records if "error" not in r]
    for key, metric in (("outer", "alm.outer_steps"),
                        ("newton", "ssn.newton_steps"),
                        ("krylov", "linsys.krylov_iters")):
        if sum(r[key] for r in done) != m[metric]:
            errors.append(f"{metric} = {m[metric]} but the results report "
                          f"{sum(r[key] for r in done)}")
    routes = sum(v for k, v in m.items() if k.startswith("linsys.route."))
    if routes != m["ssn.newton_steps"]:
        errors.append(f"{routes} linear-solve routes for "
                      f"{m['ssn.newton_steps']} Newton steps")
    return m, errors


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", required=True, choices=("e2e", "traced"))
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--out-dir", required=True, type=Path)
    args = p.parse_args(argv)

    specs = (workloads.SMOKE if args.smoke else workloads.WORKLOADS)[args.workload]
    cli = args.workload == "meb_cli"
    # run.py removes this directory once the process has ended
    workdir = args.out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    warm_up(specs, workdir, cli)
    if args.mode == "e2e":
        run_e2e(args, specs, workdir, cli)
    else:
        run_traced(args, specs, workdir, cli)
    return 0


def run_e2e(args, specs, workdir, cli):
    spent = 0.0
    reps = 0
    while reps < SETUP_MIN_REPS or (spent < SETUP_BUDGET_S and reps < SETUP_MAX_REPS):
        t0 = time.perf_counter()
        cases = set_up(specs, args.seed, workdir, cli, tracing.Tracer())
        seconds = time.perf_counter() - t0
        emit("setup", seconds=seconds)
        spent += seconds
        reps += 1
    tracer = tracing.Tracer()
    start = time.perf_counter()
    index = 0
    last = 0.0
    # whole passes only: start another while it should end within --seconds
    while index == 0 or time.perf_counter() - start + last <= args.seconds:
        last, _ = run_pass(cases, workdir, cli, tracer, index, False)
        tracer.spans.clear()
        index += 1


def run_traced(args, specs, workdir, cli):
    setup_tracer = tracing.Tracer()
    cases = set_up(specs, args.seed, workdir, cli, setup_tracer)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        _, records = run_pass(cases, workdir, cli, tracer, 0, True)
    finally:
        tracer.uninstall()
    metrics, errors = traced_layers(tracer, setup_tracer, records)
    name = (f"spans-{args.workload}-seed{args.seed}"
            f"-blas{metrics['blas.threads']}.jsonl")
    tracing.write_spans(args.out_dir / name, setup_tracer.spans, tracer.spans)
    emit("layers", metrics=metrics, errors=errors, spans_file=name)


if __name__ == "__main__":
    sys.exit(main())
