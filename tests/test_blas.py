"""The one-BLAS-thread guard around ``solve``, and thread-count independence."""

import ctypes.util
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from socalm import blas, gen_meb, solve

SRC = Path(__file__).resolve().parents[1] / "src"


def counts(pools):
    return [get() for get, _ in pools]


@pytest.fixture
def two_threads():
    """Every loaded OpenBLAS at two threads; the previous counts afterwards."""
    pools = blas.libraries()
    if not pools:
        pytest.skip("no OpenBLAS with a thread-count entry point is loaded")
    before = counts(pools)
    for _, set_ in pools:
        set_(2)
    yield pools
    for (_, set_), n in zip(pools, before):
        set_(n)


@pytest.fixture
def meb():
    return gen_meb(6, 2)[1]


def test_solve_restores_the_previous_counts(two_threads, meb):
    solve(meb)
    assert counts(two_threads) == [2] * len(two_threads)


def test_callback_sees_one_thread_in_every_library(two_threads, meb):
    seen = []
    res = solve(meb, callback=lambda *_: seen.append(counts(two_threads)))
    assert res.outer_iters >= 1
    assert seen == [[1] * len(two_threads)] * res.outer_iters


def test_raising_callback_restores_the_counts(two_threads, meb):
    def callback(*_):
        raise RuntimeError("stop")

    with pytest.raises(RuntimeError, match="stop"):
        solve(meb, callback=callback)
    assert counts(two_threads) == [2] * len(two_threads)


def test_concurrent_solves_keep_one_thread_until_the_last_ends(two_threads,
                                                               meb):
    # the second solve records its counts only after the first has returned,
    # so a guard that restored on the first exit would show up here
    barrier = threading.Barrier(2, timeout=30)
    first_done = threading.Event()

    def run(wait_for_first):
        seen = []

        def callback(k, *_):
            if k == 0:
                barrier.wait()
                if wait_for_first and not first_done.wait(30):
                    raise TimeoutError("first solve did not return")
                seen.append(counts(two_threads))

        solve(meb, callback=callback)
        if not wait_for_first:
            first_done.set()
        return seen

    with ThreadPoolExecutor(2) as pool:
        futures = [pool.submit(run, False), pool.submit(run, True)]
        seen = [f.result(timeout=60) for f in futures]
    assert seen == [[[1] * len(two_threads)]] * 2
    assert counts(two_threads) == [2] * len(two_threads)


def test_without_libraries_the_guard_does_nothing(two_threads, meb,
                                                  monkeypatch):
    ref = solve(meb)
    monkeypatch.setattr(blas, "libraries", lambda: ())
    seen = []
    res = solve(meb, callback=lambda *_: seen.append(counts(two_threads)))
    assert seen == [[2] * len(two_threads)] * res.outer_iters
    assert (res.status, res.outer_iters, res.newton_iters) == (
        ref.status, ref.outer_iters, ref.newton_iters)
    for name in ("x1", "x2", "x3", "y"):
        assert np.array_equal(getattr(res, name), getattr(ref, name))


def test_overlapping_guards_under_thread_stress(monkeypatch):
    # a fake pool, so six threads can switch every microsecond without
    # touching a real BLAS; setting the count yields, as a call into a real
    # BLAS may, and a race on the open-block count shows as a block that
    # sees the count restored while it is still inside
    pool = {"threads": 4}

    def set_threads(n):
        pool["threads"] = n
        time.sleep(0)

    monkeypatch.setattr(blas, "libraries",
                        lambda: ((lambda: pool["threads"], set_threads),))
    bad = []

    def work():
        for _ in range(2000):
            with blas.single_thread():
                if pool["threads"] != 1:
                    bad.append(pool["threads"])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(6) as ex:
            for future in [ex.submit(work) for _ in range(6)]:
                future.result(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert bad == []
    assert pool["threads"] == 4


def test_library_without_the_entry_points_is_skipped():
    path = ctypes.util.find_library("m")
    if path is None:
        pytest.skip("no C math library to load")
    assert blas._thread_controls(path) is None


# The square-root Lasso 200x1000 instance of the benchmark's srlasso workload,
# built as perfbench/workloads.gen_srlasso builds it at seed 0.
SRLASSO_SCRIPT = """
import sys
import numpy as np
import socalm

rng = np.random.default_rng(0)
B = rng.standard_normal((200, 1000))
x_true = np.zeros(1000)
x_true[:10] = 3.0
w = B @ x_true + rng.standard_normal(200)
_, problem = socalm.build_srlasso(B, w, socalm.lambda_from_lambda_c(1.0, 1000))
res = socalm.solve(problem)
np.savez(sys.argv[1], x1=res.x1, x2=res.x2, x3=res.x3, y=res.y,
         status=res.status, counts=[res.outer_iters, res.newton_iters])
"""


def test_result_does_not_depend_on_the_blas_thread_count(tmp_path):
    results = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}.npz"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        subprocess.run([sys.executable, "-c", SRLASSO_SCRIPT, str(out)],
                       env=env, check=True, timeout=300)
        with np.load(out) as saved:
            results.append(dict(saved))
    one, two = results
    assert str(one["status"]) == str(two["status"])
    assert one["counts"].tolist() == two["counts"].tolist()
    for name in ("x1", "x2", "x3", "y"):
        assert np.array_equal(one[name], two[name]), name
