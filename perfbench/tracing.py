"""Spans around socalm's public functions, and the per-layer metrics they give.

The tracer replaces functions at the module names where their callers look
them up (``socalm.alm.project`` and ``socalm.ssn.project`` are the same
function reached from two modules, so each gets its own span name).  Every
call records a span ``[name, start, end, parent, instance, extra]``; spans
stay in memory until :func:`write_spans`.  Nothing under ``src/`` changes:
:meth:`Tracer.uninstall` puts the original functions back.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time

# module -> names wrapped there; the span name is "<short module>.<name>"
WRAPPED = {
    "socalm.io": ("parse_problem", "solve", "write_result"),
    "socalm.alm": ("outer_step", "run_inner", "kkt_residuals", "make_state",
                   "project"),
    "socalm.ssn": ("newton_direction", "line_search", "make_state", "project",
                   "jacobian_element", "assemble_linear", "solve_spd",
                   "solve_quadratic"),
}

NAME, START, END, PARENT, INSTANCE, EXTRA = range(6)

# Spans whose own body is control flow: the time they do not pass to a child
# is not attributed to any phase of the solve.
CONTROL = {"io.solve", "alm.outer_step", "alm.run_inner", "ssn.newton_direction"}

ROUTES = {
    "sparse": "sparse", "dense": "dense", "augmented": "augmented",
    "augmented+psqmr": "augmented_psqmr", "psqmr-diag": "psqmr_diag",
    "splu": "splu", "bicgstab": "bicgstab",
}


def _solve_spd_extra(args, kwargs, out):
    stats = out[1]
    return {"method": stats.method, "iters": int(stats.iterations)}


def _solve_quadratic_extra(args, kwargs, out):
    stats = out[2]
    H, A = args[0], args[1]
    return {"method": stats.method, "iters": int(stats.iterations),
            "dim": int(H.n + A.shape[0])}


def _assemble_extra(args, kwargs, out):
    return {"k": int(out.k), "m": int(out.m), "nnz": int(out.M_sp.nnz)}


def _line_search_extra(args, kwargs, out):
    alpha, _, info = out
    params = args[4] if len(args) > 4 else kwargs["params"]
    return {"alpha": float(alpha), "trials": int(info["trials"]),
            "exhausted": bool(info["trials"] > params.max_linesearch_steps)}


EXTRACTORS = {
    "ssn.solve_spd": _solve_spd_extra,
    "ssn.solve_quadratic": _solve_quadratic_extra,
    "ssn.assemble_linear": _assemble_extra,
    "ssn.line_search": _line_search_extra,
}


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans = []
        self.instance = None
        self._stack = []
        self._saved = []
        self.missing = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, parent, self.instance, None])
        self._stack.append(idx)
        self.spans[idx][START] = time.perf_counter()
        return idx

    def _close(self, idx, extra):
        span = self.spans[idx]
        span[END] = time.perf_counter()
        span[EXTRA] = extra
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name, **extra):
        """A span recorded by the benchmark itself (roots, set-up, I/O)."""
        idx = self._open(name)
        try:
            yield extra
        except BaseException as err:
            extra["error"] = type(err).__name__
            self._close(idx, extra)
            raise
        self._close(idx, extra)

    def _wrap(self, name, fn):
        extract = EXTRACTORS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException as err:
                self._close(idx, {"error": type(err).__name__})
                raise
            self._close(idx, extract(args, kwargs, out) if extract else None)
            return out

        return traced

    def install(self):
        for modname, names in WRAPPED.items():
            module = importlib.import_module(modname)
            short = modname.rsplit(".", 1)[1]
            for name in names:
                fn = getattr(module, name, None)
                if fn is None:
                    self.missing.append(f"{short}.{name}")
                    continue
                self._saved.append((module, name, fn))
                setattr(module, name, self._wrap(f"{short}.{name}", fn))

    def uninstall(self):
        while self._saved:
            module, name, fn = self._saved.pop()
            setattr(module, name, fn)


def span_cost(calls=20000):
    """Seconds a traced call adds over a plain one, timed on a no-op."""
    def noop():
        return None

    traced = Tracer()._wrap("calibrate", noop)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    t1 = time.perf_counter()
    for _ in range(calls):
        traced()
    t2 = time.perf_counter()
    return max((t2 - t1) - (t1 - t0), 0.0) / calls


def write_spans(path, *groups):
    """Write span lists as JSON lines, numbering spans across the groups."""
    with open(path, "w", encoding="utf-8") as fh:
        base = 0
        for spans in groups:
            for i, s in enumerate(spans):
                parent = s[PARENT] + base if s[PARENT] >= 0 else -1
                fh.write(json.dumps({
                    "id": base + i, "name": s[NAME], "start": s[START],
                    "end": s[END], "parent": parent, "instance": s[INSTANCE],
                    "extra": s[EXTRA]}) + "\n")
            base += len(spans)


def self_times(spans):
    """Duration of each span minus the time its direct children cover."""
    own = [s[END] - s[START] for s in spans]
    children = [0] * len(spans)
    for s in spans:
        p = s[PARENT]
        if p >= 0:
            own[p] -= s[END] - s[START]
            children[p] += 1
    return own, children


def tree_errors(spans):
    """Problems with the span tree: nesting, negative self time, no root."""
    errors = []
    own, _ = self_times(spans)
    for i, s in enumerate(spans):
        p = s[PARENT]
        if p >= 0 and not (spans[p][START] <= s[START] <= s[END] <= spans[p][END]):
            errors.append(f"span {i} {s[NAME]} is not inside its parent {p}")
        if own[i] < -1e-9:
            errors.append(f"span {i} {s[NAME]} has self time {own[i]:.3e}")
        if p < 0 and not s[NAME].startswith("bench."):
            errors.append(f"span {i} {s[NAME]} has no benchmark root")
    return errors


def layer_metrics(spans, root_ids):
    """Per-layer counts and times from the spans under the given roots.

    The roots are the benchmark's own spans around each solve; their total
    duration is the traced ``solve_s``.  ``trace.coverage`` is the share of
    it spent in work phases, that is everywhere except in the self time of
    the roots and of the ``CONTROL`` spans; ``trace.leaf_coverage`` is the
    share that spans without children cover.
    """
    own, children = self_times(spans)
    inside = [False] * len(spans)
    for i, s in enumerate(spans):
        inside[i] = i in root_ids or (s[PARENT] >= 0 and inside[s[PARENT]])
    sel = [i for i in range(len(spans)) if inside[i]]
    count, total, selft = {}, {}, {}
    for i in sel:
        name = spans[i][NAME]
        count[name] = count.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + spans[i][END] - spans[i][START]
        selft[name] = selft.get(name, 0.0) + own[i]

    def extras(name):
        return [spans[i][EXTRA] for i in sel if spans[i][NAME] == name
                and spans[i][EXTRA] and "error" not in spans[i][EXTRA]]

    def errors(name):
        return sum(1 for i in sel if spans[i][NAME] == name and spans[i][EXTRA]
                   and spans[i][EXTRA].get("error") == "LinearSolveError")

    def mean(vals):
        return sum(vals) / len(vals) if vals else 0.0

    root_s = sum(spans[i][END] - spans[i][START] for i in root_ids)
    leaf_s = sum(spans[i][END] - spans[i][START] for i in sel
                 if children[i] == 0 and i not in root_ids)
    control_s = sum(own[i] for i in sel
                    if i in root_ids or spans[i][NAME] in CONTROL)
    steps = count.get("ssn.line_search", 0)
    searches = extras("ssn.line_search")
    assembles = extras("ssn.assemble_linear")
    solves = extras("ssn.solve_spd") + extras("ssn.solve_quadratic")
    quads = extras("ssn.solve_quadratic")
    failures = errors("ssn.newton_direction")
    retries = errors("ssn.solve_spd") + errors("ssn.solve_quadratic") - failures
    outer = count.get("alm.outer_step", 0)
    rounds = count.get("alm.run_inner", 0)
    trials = sum(e["trials"] for e in searches)
    out = {
        "io.parse_problem_s": total.get("io.parse_problem", 0.0),
        "io.write_result_s": total.get("io.write_result", 0.0),
        "alm.outer_steps": outer,
        "alm.inner_rounds": rounds,
        "alm.rounds_per_outer": rounds / outer if outer else 0.0,
        "alm.kkt_s": total.get("alm.kkt_residuals", 0.0),
        "alm.outer_self_s": selft.get("alm.outer_step", 0.0),
        "ssn.newton_steps": steps,
        "ssn.direction_self_s": selft.get("ssn.newton_direction", 0.0),
        "ssn.line_search_s": total.get("ssn.line_search", 0.0),
        "ssn.trials": trials,
        "ssn.trials_per_step": trials / steps if steps else 0.0,
        "ssn.unit_step_frac": (sum(e["alpha"] == 1.0 for e in searches) / steps
                               if steps else 0.0),
        "ssn.evals_per_step": (count.get("ssn.project", 0) / steps
                               if steps else 0.0),
        "ssn.linesearch_exhausted": sum(e["exhausted"] for e in searches),
        "cone.project_calls": (count.get("alm.project", 0)
                               + count.get("ssn.project", 0)),
        "cone.project_s": (total.get("alm.project", 0.0)
                           + total.get("ssn.project", 0.0)),
        "cone.jacobian_calls": count.get("ssn.jacobian_element", 0),
        "cone.jacobian_s": total.get("ssn.jacobian_element", 0.0),
        "linsys.assemble_calls": count.get("ssn.assemble_linear", 0),
        "linsys.assemble_s": total.get("ssn.assemble_linear", 0.0),
        "linsys.lowrank_cols_mean": mean([e["k"] for e in assembles]),
        "linsys.system_dim": mean([e["m"] for e in assembles]),
        "linsys.msp_density": mean([e["nnz"] / (e["m"] * e["m"])
                                    for e in assembles]),
        "linsys.spd_s": total.get("ssn.solve_spd", 0.0),
        "linsys.quad_s": total.get("ssn.solve_quadratic", 0.0),
        "linsys.quad_dim": mean([e["dim"] for e in quads]),
        "linsys.krylov_iters": sum(e["iters"] for e in solves),
        "linsys.solve_retries": retries,
        "linsys.solve_failures": failures,
        "trace.solve_s": root_s,
        "trace.coverage": 1.0 - control_s / root_s if root_s > 0 else 0.0,
        "trace.leaf_coverage": leaf_s / root_s if root_s > 0 else 0.0,
    }
    for route in ROUTES.values():
        out[f"linsys.route.{route}"] = 0
    out["linsys.route.other"] = 0
    for e in solves:
        key = ROUTES.get(e["method"], "other")
        out[f"linsys.route.{key}"] += 1
    return out

