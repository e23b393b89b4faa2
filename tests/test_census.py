"""The census script: its tiny grid and its records, and the counts of
``SolveResult.counts`` that it reads."""

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
import time
from pathlib import Path

import pytest
from invariants import solve_with_invariants

import socalm
from socalm import linsys, ssn

CENSUS = Path(__file__).resolve().parents[1] / "tools" / "census.py"
TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
STATUSES = {"Optimal", "MaxIterations", "InnerMaxIterations", "Stagnation",
            "LinearSolveFailure"}
SAFEGUARDS = {"noise", "exhausted", "refine", "steepest"}
ROUTES = {"cholesky", "diagonal", "sparse_lu", "densified", "eigen",
          "dense_lu", "splu"}


@pytest.fixture(scope="module")
def census():
    spec = importlib.util.spec_from_file_location("census", CENSUS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    yield module
    del sys.modules[spec.name]


@pytest.fixture(scope="module")
def tiny(census, tmp_path_factory):
    out = tmp_path_factory.mktemp("census") / "tiny.json"
    table = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(table):
        assert census.main(["--grid", "tiny", "--json", str(out)]) == 0
    return json.loads(out.read_text()), table.getvalue(), time.perf_counter() - t0


def test_tiny_grid_runs_quickly(census, tiny):
    doc, table, seconds = tiny
    assert seconds < 10.0
    assert doc["grids"] == ["tiny"]
    for key in ("python", "numpy", "scipy"):
        assert isinstance(doc[key], str) and doc[key]
    assert [r["label"] for r in doc["records"]] == [
        c.label for c in census.GRIDS["tiny"]]
    # a header, one row per instance and the summary line
    assert len(table.splitlines()) == len(doc["records"]) + 2


def test_records_hold_every_field(tiny):
    for rec in tiny[0]["records"]:
        assert rec["status"] in STATUSES
        assert rec["outer"] >= 1 and rec["newton"] >= 1
        assert rec["seconds"] > 0.0 and rec["kkt"] >= 0.0
        assert len(rec["md5"]) == 32 and int(rec["md5"], 16) >= 0
        assert set(rec["safeguards"]) == SAFEGUARDS
        assert all(v >= 0 for v in rec["safeguards"].values()), rec
        # one linear solve per Newton step, each on one route, and the
        # failed solve that ends a LinearSolveFailure
        assert set(rec["routes"]) == ROUTES
        assert all(v >= 0 for v in rec["routes"].values()), rec
        failed = rec["status"] == "LinearSolveFailure"
        assert sum(rec["routes"].values()) == rec["newton"] + failed, rec
        verdict = rec["check"]
        checked = rec["family"] in ("meb", "srlasso") or (
            rec["family"] == "trs" and rec["scaled"] is None)
        assert (verdict is not None) == checked
        if checked:
            assert isinstance(verdict["ok"], bool)


def test_tiny_grid_takes_five_routes(tiny):
    # the Cholesky of M_sp once, at the planted infeasible program
    taken = {r for rec in tiny[0]["records"] for r, v in rec["routes"].items()
             if v}
    assert taken == {"cholesky", "diagonal", "densified", "eigen", "splu"}


def test_counting_leaves_the_solve_alone(census):
    # the wrapped solve gives the bits and counts of a plain one
    case = census.Case("tiny", "meb", (40, 4), 0)
    rec = census.run_case(case)
    _, problem = census.GENERATORS["meb"](40, 4, 0)
    plain = socalm.solve(problem)
    md5 = hashlib.md5(plain.x2.tobytes() + plain.y.tobytes()).hexdigest()
    assert (rec["status"], rec["outer"], rec["newton"], rec["md5"]) == (
        plain.status, plain.outer_iters, plain.newton_iters, md5)
    assert rec["check"]["ok"]


@pytest.mark.parametrize("family, size, datum", [
    ("meb", (40, 4), "c"), ("meb", (40, 4), "A"),
    ("srlasso", (200, 30), "b"), ("srlasso", (200, 30), "A")])
def test_scaled_result_is_checked_on_the_original_data(census, family, size,
                                                       datum):
    # the enclosing-ball check reads x2 and the square-root Lasso one y, so
    # a result not mapped back fails it
    rec = census.run_case(census.Case("tiny", family, size, 0, datum, 4.0))
    assert rec["status"] == "Optimal"
    assert rec["check"]["ok"], rec["check"]


def test_a_solve_that_raises_propagates(census, monkeypatch):
    solve_spd = ssn.solve_spd
    calls = []

    def failing(*args, **kwargs):
        # one good Newton step, then an error that is not a linear-solve miss
        calls.append(1)
        if len(calls) > 1:
            raise RuntimeError("forced")
        return solve_spd(*args, **kwargs)

    monkeypatch.setattr(ssn, "solve_spd", failing)
    with pytest.raises(RuntimeError, match="forced"):
        census.run_case(census.Case("tiny", "meb", (40, 4), 0))
    assert len(calls) == 2


def test_miscounted_record_fails_the_run(census, monkeypatch, capsys):
    record = census.run_case

    def dropped_route(case):
        rec = record(case)
        rec["newton"] += 1
        return rec

    monkeypatch.setattr(census, "run_case", dropped_route)
    assert census.main(["--grid", "tiny"]) == 1
    assert "route totals differ" in capsys.readouterr().out


def test_route_vocabulary_is_shared(census):
    # linsys names each route once, with its strategy; the census counts
    # exactly those routes, and the benchmark's tracer knows every strategy
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert set(linsys.ROUTE_STRATEGY) == set(census.ROUTES) == ROUTES
    assert set(linsys.ROUTE_STRATEGY.values()) <= set(tracing.ROUTES)


def route_total(counts):
    return sum(counts[r] for r in ROUTES)


@pytest.mark.parametrize("family, size, datum", [
    ("meb", (40, 4), None), ("srlasso", (200, 30), None),
    ("trs", (12,), "H"), ("qsocp", (4, 3, 3, 6), None),
    ("infeasible_x", (6, 4, 2, 3), None)])
def test_route_total_is_the_newton_count(census, family, size, datum):
    # a plain solve: one linear solve per Newton step, each on one route
    _, problem = census.GENERATORS[family](*size, 0)
    if datum is not None:
        problem = census.scaled_problem(problem, datum, 1e3)
    result = socalm.solve(problem)
    assert result.newton_iters > 0
    assert route_total(result.counts) == result.newton_iters
    assert set(result.counts) <= ROUTES | SAFEGUARDS


def test_failed_solve_is_counted_on_its_route():
    # trust-region d = 200 with b*1e3 at seed 1 ends LinearSolveFailure
    # 4/10: its eleventh eigenbasis solve misses after two refinement steps
    _, problem = socalm.gen_trs(200, 1)
    problem = socalm.ProblemData(problem.H, problem.A, problem.b * 1e3,
                                 problem.c, problem.cone)
    result = socalm.solve(problem)
    assert (result.status, result.outer_iters, result.newton_iters) == (
        "LinearSolveFailure", 4, 10)
    assert route_total(result.counts) == result.newton_iters + 1
    assert {k: v for k, v in result.counts.items() if v} == {
        "eigen": 11, "refine": 2, "noise": 1}


def test_scaled_trs_counts_its_safeguards():
    # trust-region d = 200 with b*1e3 at seed 2 (census unit grid, seed 1)
    # ends Stagnation 4/43 after 33 steepest-descent switches and 8
    # exhausted line searches; a ninth search that passed on its last
    # allowed trial is not one of them
    _, problem = socalm.gen_trs(200, 2)
    problem = socalm.ProblemData(problem.H, problem.A, problem.b * 1e3,
                                 problem.c, problem.cone)
    result = socalm.solve(problem)
    assert (result.status, result.outer_iters, result.newton_iters) == (
        "Stagnation", 4, 43)
    assert {k: v for k, v in result.counts.items() if v} == {
        "eigen": 43, "steepest": 33, "exhausted": 8, "noise": 1}


def test_dense_h_qsocp_takes_the_dense_lu_route(census):
    # the extra grid's dense-H mixed-cone program: V's diagonal differs
    # between the orthant and the Lorentz blocks on H's support, so every
    # Newton step factors the block system by dense LU
    _, problem = census.GENERATORS["qsocp_dense"](20, 10, 10, 40, 0)
    assert problem.H.dense_copy() is not None
    result = solve_with_invariants(problem, socalm.AlmOptions())
    assert result.status == "Optimal"
    assert result.newton_iters > 0
    assert result.counts["dense_lu"] == route_total(result.counts) == (
        result.newton_iters)
    assert result.kkt_residual <= 1e-8


def write_census(doc, path):
    path.write_text(json.dumps(doc))
    return str(path)


def test_self_comparison_prints_no_record(census, tiny, tmp_path, capsys):
    doc = tiny[0]
    path = write_census(doc, tmp_path / "self.json")
    census.compare(doc["records"], path)
    out = capsys.readouterr().out.splitlines()
    assert out == [f"against {path}: 0 of 5 records differ (status 0, "
                   "outer 0, newton 0, safeguards 0, routes 0, check 0, "
                   "md5 0); 0 not in the file"]


def test_against_prints_the_doctored_record(census, tiny, tmp_path, capsys):
    # a second run of the tiny grid, against the first with one record's
    # Newton count and md5 changed: only that record is printed
    doc = json.loads(json.dumps(tiny[0]))
    doctored = doc["records"][2]
    doctored["newton"] += 1
    doctored["md5"] = "0" * 32
    path = write_census(doc, tmp_path / "doctored.json")
    assert census.main(["--grid", "tiny", "--against", path]) == 0
    out = capsys.readouterr().out.splitlines()
    rows = [line for line in out if line[:2] in ("- ", "+ ")]
    assert [r.split()[1] for r in rows] == [doctored["label"]] * 2
    assert rows[1].endswith(" newton,md5")
    assert out[-1] == (
        f"against {path}: 1 of 5 records differ (status 0, outer 0, "
        "newton 1, safeguards 0, routes 0, check 0, md5 1); 0 not in the file")


def test_against_leaves_zero_counts_out(census, tiny, tmp_path, capsys):
    # a count that a file holds as zero, or does not hold, is the same
    # count: a record from before a safeguard was retired still matches,
    # unless the retired safeguard fired there
    doc = json.loads(json.dumps(tiny[0]))
    first, second = doc["records"][:2]
    first["safeguards"]["retired"] = 0
    del second["routes"]["sparse_lu"]
    path = write_census(doc, tmp_path / "zeros.json")
    census.compare(tiny[0]["records"], path)
    assert capsys.readouterr().out.startswith(
        f"against {path}: 0 of 5 records differ")
    first["safeguards"]["retired"] = 1
    path = write_census(doc, tmp_path / "fired.json")
    census.compare(tiny[0]["records"], path)
    out = capsys.readouterr().out.splitlines()
    assert out[1].split()[1] == first["label"]
    assert out[1].endswith(" safeguards")


def test_one_inner_solve_per_outer_step(census):
    # square-root Lasso 500x150 with b*1e3 at seed 0 (census unit grid):
    # the first outer step's inner solve runs out of its Newton budget, and
    # that budget bounds the whole outer step
    rec = census.run_case(census.Case("unit", "srlasso", (500, 150), 0, "b",
                                      1e3))
    assert socalm.NewtonParams().max_newton_iters == 200
    assert (rec["status"], rec["outer"], rec["newton"]) == (
        "InnerMaxIterations", 1, 200)
