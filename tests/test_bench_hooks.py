"""The names and call shapes the benchmark's tracer relies on.

``perfbench/tracing.py`` wraps functions by module and name and reads fields
of their results.  A refactor that renames or reshapes one of them should
fail here, not only in the benchmark's ``correct`` flag.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import scipy.sparse as sp

import socalm
from socalm import (
    ConeSpec,
    SparseSymmetric,
    assemble_linear,
    gen_meb,
    gen_trs,
    jacobian_element,
    line_search,
    make_state,
    solve,
    solve_quadratic,
    solve_spd,
)
from socalm.ssn import NewtonParams

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves():
    tracing = _tracing()
    missing = [f"{modname}.{name}"
               for modname, names in tracing.WRAPPED.items()
               for name in names
               if not callable(getattr(importlib.import_module(modname), name,
                                       None))]
    assert all(m.startswith("socalm.") for m in tracing.WRAPPED)
    assert missing == []


def test_line_search_call_shape():
    assert list(inspect.signature(socalm.ssn.line_search).parameters)[4] == "params"
    _, problem = gen_meb(6, 2)
    state = make_state(problem, np.zeros(problem.n), np.zeros(problem.m),
                       np.zeros(problem.n), 1.0)
    out = line_search(problem, state, np.zeros(problem.n), -state.g2,
                      NewtonParams())
    assert len(out) == 3
    assert out[2]["trials"] >= 1


def test_traced_solves_record_every_extra():
    # a linear and a quadratic solve under the tracer: every wrapped call
    # resolves and every result has the fields the extractors read
    tracing = _tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for problem in (gen_meb(8, 2)[1], gen_trs(5, 1)[1]):
            assert solve(problem).status == "Optimal"
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    names = {s[tracing.NAME] for s in tracer.spans}
    for name in ("ssn.line_search", "ssn.solve_spd", "ssn.solve_quadratic",
                 "ssn.assemble_linear", "ssn.make_state", "ssn.project"):
        assert name in names, name
    for s in tracer.spans:
        if s[tracing.NAME] in tracing.EXTRACTORS:
            assert s[tracing.EXTRA] and "error" not in s[tracing.EXTRA], s


def test_traced_trs_solve_reports_every_quadratic_route():
    # every quadratic Newton solve carries a route name the benchmark knows
    tracing = _tracing()
    _, problem = gen_trs(30, 2)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.span("bench.solve"):
            result = solve(problem)
    finally:
        tracer.uninstall()
    assert result.status == "Optimal"
    metrics = tracing.layer_metrics(tracer.spans, {0})
    assert metrics["ssn.newton_steps"] == result.newton_iters > 0
    assert metrics["linsys.route.dense"] == result.newton_iters
    assert metrics["linsys.route.splu"] == 0
    assert metrics["linsys.route.other"] == 0


def test_every_solve_route_is_a_known_route():
    # one solve per route linsys can emit; a name missing from ROUTES would
    # be counted as linsys.route.other
    tracing = _tracing()
    rng = np.random.default_rng(3)
    # an orthant as wide as A keeps its Gram in M_sp, stored dense for the
    # dense A and sparse for the sparse one
    cone = ConeSpec.make(nonneg=6, soc=(3, 5))
    n, m = cone.total_dim, 6
    J = jacobian_element(cone, 2.0 * rng.standard_normal(n))
    dense_a = sp.csr_matrix(rng.standard_normal((m, n)))
    sparse_a = sp.csr_matrix(np.eye(m, n))
    methods = {}
    for A, route in ((dense_a, "dense"), (sparse_a, "augmented")):
        sys_ = assemble_linear(A, J, 1.0, 0.1)
        methods[route] = solve_spd(sys_, rng.standard_normal(m), 1e-10)[1].method
    G = rng.standard_normal((n, n))
    H_dense = SparseSymmetric.from_dense(G @ G.T)
    H_sparse = SparseSymmetric.from_sparse(sp.identity(n))
    R1, R2 = rng.standard_normal(n), rng.standard_normal(m)
    for H, route in ((H_dense, "dense"), (H_sparse, "splu")):
        methods["quadratic " + route] = solve_quadratic(
            H, dense_a, J, 1.0, 0.1, R1, R2, 1e-10)[2].method
    # one Lorentz block, so s is constant on H's support: the eigenbasis
    # solve, which reports the dense route
    trs_cone = ConeSpec.make(soc=(n,))
    J_trs = jacobian_element(trs_cone, 2.0 * rng.standard_normal(n))
    methods["quadratic eigenbasis"] = solve_quadratic(
        H_dense, dense_a[:1], J_trs, 1.0, 0.1, R1, R2[:1], 1e-10)[2].method
    assert methods == {"dense": "dense", "augmented": "augmented",
                       "quadratic dense": "dense", "quadratic splu": "splu",
                       "quadratic eigenbasis": "dense"}
    assert set(methods.values()) <= set(tracing.ROUTES)
