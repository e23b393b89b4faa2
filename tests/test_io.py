"""File-format round trips, validation diagnostics, and the CLI."""

import io

import numpy as np
import pytest
import scipy.sparse as sp

from socalm import (
    AlmOptions,
    ConeSpec,
    ProblemData,
    ProblemFormatError,
    SolveResult,
    SparseSymmetric,
    build_srlasso,
    cli_main,
    gen_meb,
    gen_trs,
    parse_problem,
    parse_result,
    solve,
    write_problem,
    write_result,
)
from socalm import io as socalm_io
from socalm.alm import BlockReport


def random_problem(seed=0, quadratic=True):
    rng = np.random.default_rng(seed)
    cone = ConeSpec.make(nonneg=3, soc=[3, 4])
    n = cone.total_dim
    m = 4
    A = sp.random(m, n, density=0.6, random_state=rng.integers(1 << 31))
    A = sp.csr_matrix(A)
    H = None
    if quadratic:
        G = rng.standard_normal((n, n)) * 0.3
        H = SparseSymmetric.from_dense(G @ G.T)
    return ProblemData(H, A, rng.standard_normal(m), rng.standard_normal(n),
                       cone)


class TestProblemRoundTrip:
    @pytest.mark.parametrize("quadratic", [False, True])
    def test_bit_exact(self, tmp_path, quadratic):
        p = random_problem(3, quadratic)
        f = tmp_path / "prob.txt"
        write_problem(p, f)
        q = parse_problem(f)
        assert np.array_equal(p.b, q.b)
        assert np.array_equal(p.c, q.c)
        assert (p.A != q.A).nnz == 0
        assert p.cone == q.cone
        if quadratic:
            assert np.array_equal(p.H.to_csr().toarray(),
                                  q.H.to_csr().toarray())
        else:
            assert not q.is_quadratic

    def test_generated_meb_round_trip(self, tmp_path):
        _, p = gen_meb(5, 3)
        f = tmp_path / "meb.txt"
        write_problem(p, f)
        q = parse_problem(f)
        assert np.array_equal(p.c, q.c)
        assert (p.A != q.A).nnz == 0


class TestProblemValidation:
    def _write_and_patch(self, tmp_path, pattern, replacement):
        p = random_problem(1, quadratic=True)
        f = tmp_path / "prob.txt"
        write_problem(p, f)
        text = f.read_text().replace(pattern, replacement, 1)
        g = tmp_path / "bad.txt"
        g.write_text(text)
        return g

    def test_cone_sum_mismatch_names_cone(self, tmp_path):
        g = self._write_and_patch(tmp_path, "nonneg 3", "nonneg 2")
        with pytest.raises(ProblemFormatError, match="cone"):
            parse_problem(g)

    def test_h_upper_triangle_rejected(self, tmp_path):
        p = random_problem(2, quadratic=True)
        f = tmp_path / "prob.txt"
        write_problem(p, f)
        lines = f.read_text().splitlines()
        idx = next(i for i, ln in enumerate(lines) if ln.startswith("H "))
        first = lines[idx + 1].split()
        # swap row/col of a strictly lower entry to force row < col
        j = idx + 1
        while True:
            r, c, v = lines[j].split()
            if r != c:
                lines[j] = f"{c} {r} {v}"
                break
            j += 1
        g = tmp_path / "bad.txt"
        g.write_text("\n".join(lines) + "\n")
        with pytest.raises(ProblemFormatError, match="row >= col"):
            parse_problem(g)

    def test_truncated_file(self, tmp_path):
        p = random_problem(4, quadratic=False)
        f = tmp_path / "prob.txt"
        write_problem(p, f)
        text = f.read_text()
        g = tmp_path / "trunc.txt"
        g.write_text(text[: len(text) // 2])
        with pytest.raises(ProblemFormatError):
            parse_problem(g)

    def test_index_out_of_range(self, tmp_path):
        cone = ConeSpec.make(nonneg=2)
        p = ProblemData(None, sp.csr_matrix(np.eye(2)), np.ones(2),
                        np.ones(2), cone)
        f = tmp_path / "prob.txt"
        write_problem(p, f)
        text = f.read_text().replace("A 2", "A 2").replace("1 1 1", "1 5 1")
        g = tmp_path / "bad.txt"
        g.write_text(text)
        with pytest.raises(ProblemFormatError, match="range"):
            parse_problem(g)


class TestResultRoundTrip:
    def test_result_file(self, tmp_path):
        _, p = gen_meb(4, 2)
        res = solve(p, AlmOptions())
        f = tmp_path / "out.res"
        write_result(res, f, include_solution=True)
        r = parse_result(f)
        assert r.status == res.status
        assert r.delta3 == res.delta3
        assert r.outer_iters == res.outer_iters
        assert r.iteration_log == res.iteration_log
        assert np.array_equal(r.y, res.y)
        assert np.array_equal(r.x2, res.x2)
        assert len(r.complementarity) == len(res.complementarity)

    def test_without_solution(self, tmp_path):
        _, p = gen_meb(4, 2)
        res = solve(p, AlmOptions())
        f = tmp_path / "out.res"
        write_result(res, f, include_solution=False)
        r = parse_result(f)
        assert not r.has_solution


class TestCli:
    def test_gen_check_solve_diag_pipeline(self, tmp_path, capsys):
        prob = str(tmp_path / "m.prob")
        out = str(tmp_path / "m.res")
        assert cli_main(["gen", "meb", "--m", "6", "--d", "3", "-o", prob]) == 0
        assert cli_main(["check", prob]) == 0
        assert cli_main(["solve", prob, "--out", out, "--solution"]) == 0
        assert cli_main(["diag", prob, out]) == 0
        captured = capsys.readouterr()
        assert "MISMATCH" not in captured.out

    def test_diag_mismatch_exits_2(self, tmp_path, capsys):
        prob = str(tmp_path / "m.prob")
        out = tmp_path / "m.res"
        assert cli_main(["gen", "meb", "--m", "6", "--d", "3", "-o", prob]) == 0
        assert cli_main(["solve", prob, "--out", str(out), "--solution"]) == 0
        lines = out.read_text().splitlines()
        i = next(i for i, ln in enumerate(lines) if ln.startswith("delta2 "))
        lines[i] = "delta2 0.5"
        out.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert cli_main(["diag", prob, str(out)]) == 2
        captured = capsys.readouterr()
        rows = [ln for ln in captured.out.splitlines() if "MISMATCH" in ln]
        assert len(rows) == 1 and rows[0].startswith("delta2 ")
        assert "5.00000000e-01" in rows[0]
        assert "disagree" in captured.err

    def test_gen_trs_and_solve(self, tmp_path):
        prob = str(tmp_path / "t.prob")
        assert cli_main(["gen", "trs", "--d", "10", "--seed", "2",
                         "-o", prob]) == 0
        assert cli_main(["solve", prob, "--tol", "1e-8"]) == 0

    def test_gen_srlasso_from_csv(self, tmp_path):
        csv = tmp_path / "data.csv"
        rng = np.random.default_rng(0)
        B = rng.standard_normal((10, 4))
        w = B @ np.array([1.0, -2.0, 0.0, 0.0]) + 0.1 * rng.standard_normal(10)
        rows = ["a,b,c,d,target"]
        for i in range(10):
            rows.append(",".join(str(v) for v in np.append(B[i], w[i])))
        csv.write_text("\n".join(rows) + "\n")
        prob = str(tmp_path / "l.prob")
        assert cli_main(["gen", "srlasso", "--csv", str(csv),
                         "--lambda-c", "0.5", "-o", prob]) == 0
        assert cli_main(["solve", prob]) == 0

    def test_check_on_truncated_file_exits_2(self, tmp_path):
        prob = tmp_path / "m.prob"
        assert cli_main(["gen", "meb", "--m", "4", "--d", "2",
                         "-o", str(prob)]) == 0
        text = prob.read_text()
        prob.write_text(text[: len(text) // 3])
        assert cli_main(["check", str(prob)]) == 2

    def test_missing_file_exits_2(self):
        assert cli_main(["check", "/nonexistent/file.prob"]) == 2

    def test_directory_in_place_of_a_file_exits_2(self, tmp_path, capsys):
        prob = str(tmp_path / "m.prob")
        assert cli_main(["gen", "meb", "--m", "4", "--d", "2", "-o", prob]) == 0
        for argv in (["solve", str(tmp_path)], ["check", str(tmp_path)],
                     ["diag", prob, str(tmp_path)],
                     ["solve", prob, "--out", str(tmp_path)],
                     ["gen", "meb", "--m", "4", "--d", "2", "-o",
                      str(tmp_path)]):
            assert cli_main(argv) == 2, argv
            assert "internal error" not in capsys.readouterr().err

    def test_unwritable_result_path_exits_2_before_solving(
            self, tmp_path, monkeypatch, capsys):
        prob = str(tmp_path / "m.prob")
        assert cli_main(["gen", "meb", "--m", "4", "--d", "2", "-o", prob]) == 0

        def refuse(*args, **kwargs):
            raise RuntimeError("reached")

        # a parse or solve would end in an internal error, exit 4
        monkeypatch.setattr(socalm_io, "parse_problem", refuse)
        monkeypatch.setattr(socalm_io, "solve", refuse)
        a_dir = tmp_path / "a_dir"
        a_dir.mkdir()
        for out, message in ((a_dir, "is a directory"),
                             (tmp_path / "missing" / "m.res",
                              "no such directory")):
            assert cli_main(["solve", prob, "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert message in err and "internal error" not in err
        # a problem in a missing directory is named as the missing file
        monkeypatch.undo()
        missing = str(tmp_path / "missing" / "m.prob")
        assert cli_main(["solve", missing]) == 2
        err = capsys.readouterr().err
        assert missing in err and "result path" not in err

    def test_diag_without_solution_exits_2(self, tmp_path):
        prob = str(tmp_path / "m.prob")
        out = str(tmp_path / "m.res")
        cli_main(["gen", "meb", "--m", "4", "--d", "2", "-o", prob])
        cli_main(["solve", prob, "--out", out])  # no --solution
        assert cli_main(["diag", prob, out]) == 2

    def test_nonconvergence_exits_3(self, tmp_path):
        # dual-infeasible system cannot reach Optimal
        cone = ConeSpec.make(nonneg=1)
        p = ProblemData(None, sp.csr_matrix(np.array([[1.0], [-1.0]])),
                        np.array([1.0, 1.0]), np.array([0.0]), cone)
        f = str(tmp_path / "bad.prob")
        write_problem(p, f)
        assert cli_main(["solve", f, "--max-iter", "5"]) == 3

    def test_bad_arguments_exit_2(self):
        assert cli_main(["gen", "meb", "--m", "6"]) == 2
        assert cli_main(["frobnicate"]) == 2

    @pytest.mark.parametrize("flag, value, field", [
        ("--tol", "inf", "tol"), ("--tol", "nan", "tol"), ("--tol", "0", "tol"),
        ("--max-iter", "-3", "max_outer"),
    ])
    def test_invalid_stopping_options_exit_2(self, tmp_path, capsys, flag,
                                             value, field):
        prob = str(tmp_path / "b.prob")
        assert cli_main(["gen", "meb", "--m", "4", "--d", "2", "-o", prob]) == 0
        assert cli_main(["solve", prob, flag, value]) == 2
        assert field in capsys.readouterr().err


class TestDeterminism:
    def test_repeated_pipeline_identical_modulo_timing(self, tmp_path):
        files = []
        for tag in ("a", "b"):
            prob = tmp_path / f"{tag}.prob"
            out = tmp_path / f"{tag}.res"
            assert cli_main(["gen", "meb", "--m", "8", "--d", "3",
                             "-o", str(prob)]) == 0
            assert cli_main(["solve", str(prob), "--out", str(out),
                             "--solution"]) == 0
            files.append((prob.read_text(), out.read_text()))
        assert files[0][0] == files[1][0]
        strip = lambda text: "\n".join(
            ln for ln in text.splitlines() if not ln.startswith("wall_time"))
        assert strip(files[0][1]) == strip(files[1][1])


def fixed_quadratic_problem():
    """Small quadratic problem whose values stress the 17-digit format."""
    cone = ConeSpec.make(nonneg=3, soc=[5])
    A = sp.csr_matrix(np.array([
        [1.0, 0.0, -2.5, 0.0, 1e-300, 0.0, 3.0, 0.0],
        [0.0, 1.0 / 3.0, 0.0, -0.0, 0.0, 2.0 ** 60, 0.0, -7e22],
    ]))
    H = SparseSymmetric(8, np.array([0, 3, 4, 7, 7]), np.array([0, 1, 4, 2, 7]),
                        np.array([2.0, -0.1, 5e-324, 1e16 + 2.0, 0.7]))
    b = np.array([0.1, -1.0 / 3.0])
    c = np.array([1.0, -0.0, 1e-300, 2.5e10, 7.0, np.pi, -np.e, 123456789.0])
    return ProblemData(H, A, b, c, cone)


def fixed_result(x=None, y=None):
    """Hand-built solve result with x1 = x, x2 = -x, x3 = x / 2 and y."""
    if x is None:
        x = np.array([-0.0, 5e-324, 1.7976931348623157e308, 0.1, -2.0 / 3.0,
                      1e-5, 6.02214076e23, 42.0])
        y = np.array([np.sqrt(2.0), -1e-200])
    reports = [BlockReport(0, "nonneg", "boundary", "interior", "strict",
                           True, 0.25, -1e-17),
               BlockReport(1, "soc", "zero", "zero", "degenerate", False,
                           0.0, 1.0 / 3.0)]
    return SolveResult(x, -x, x / 2, y, delta1=1e-9, delta2=0.0,
                       delta3=2.5e-10, delta4=1.0 / 7.0, pobj=-12.5,
                       dobj=-12.500000001, natural_map_norm=3e-11,
                       status="Optimal", outer_iters=3, newton_iters=17,
                       wall_time=0.125,
                       complementarity=reports,
                       iteration_log=["iter 1  sigma 1.0", "iter 2  sigma 3.0"])


FIXED_PROBLEM_TEXT = """\
socalm problem 1
m 2
n 8
cone 2
nonneg 3
soc 5
b
0.10000000000000001 -0.33333333333333331
c
1 -0 1e-300 25000000000 7 3.1415926535897931
-2.7182818284590451 123456789
A 7
0 0 1
0 2 -2.5
0 4 1e-300
0 6 3
1 1 0.33333333333333331
1 5 1.152921504606847e+18
1 7 -7.0000000000000004e+22
H 5
0 0 2
3 1 -0.10000000000000001
4 4 4.9406564584124654e-324
7 2 10000000000000002
7 7 0.69999999999999996
end
"""

FIXED_RESULT_TEXT = """\
socalm result 1
status Optimal
pobj -12.5
dobj -12.500000001
delta1 1.0000000000000001e-09
delta2 0
delta3 2.5000000000000002e-10
delta4 0.14285714285714285
natural_map_norm 3e-11
outer_iters 3
newton_iters 17
krylov_iters 0
wall_time 0.125
complementarity 2
0 nonneg boundary interior strict 1 0.25 -1.0000000000000001e-17
1 soc zero zero degenerate 0 0 0.33333333333333331
iterlog 2
iter 1  sigma 1.0
iter 2  sigma 3.0
solution 1
x1 8
-0 4.9406564584124654e-324 1.7976931348623157e+308 0.10000000000000001 \
-0.66666666666666663 1.0000000000000001e-05
6.0221407599999999e+23 42
x2 8
0 -4.9406564584124654e-324 -1.7976931348623157e+308 -0.10000000000000001 \
0.66666666666666663 -1.0000000000000001e-05
-6.0221407599999999e+23 -42
x3 8
-0 0 8.9884656743115785e+307 0.050000000000000003 -0.33333333333333331 \
5.0000000000000004e-06
3.0110703799999999e+23 21
y 2
1.4142135623730951 -9.9999999999999998e-201
end
"""


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


class TestExactBytes:
    def test_write_problem(self, tmp_path):
        f = tmp_path / "p.txt"
        write_problem(fixed_quadratic_problem(), f)
        assert f.read_bytes() == FIXED_PROBLEM_TEXT.encode()

    def test_write_result(self, tmp_path):
        f = tmp_path / "r.txt"
        res = fixed_result()
        write_result(res, f, include_solution=True)
        assert f.read_bytes() == FIXED_RESULT_TEXT.encode()
        r = parse_result(f)
        for name in ("x1", "x2", "x3", "y"):
            assert same_bits(getattr(r, name), getattr(res, name))


TRIDIAGONAL_PROBLEM_TEXT = """\
socalm problem 1
m 1
n 5
cone 1
nonneg 5
b
1
c
1 2 3 4 5
A 5
0 0 1
0 1 1
0 2 1
0 3 1
0 4 1
H 9
0 0 2.5
1 0 -0.33333333333333331
1 1 2.5
2 1 -0.33333333333333331
2 2 2.5
3 2 -0.33333333333333331
3 3 2.5
4 3 -0.33333333333333331
4 4 2.5
end
"""


class TestHSectionBytes:
    """The H section lists the lower triangle row by row, whichever storage
    H holds, and parsing and writing again gives the same bytes."""

    def test_sparse_tridiagonal(self, tmp_path):
        n = 5
        H = SparseSymmetric.from_sparse(sp.diags(
            [np.full(n - 1, -1 / 3), np.full(n, 2.5), np.full(n - 1, -1 / 3)],
            [-1, 0, 1]))
        assert H.dense_copy() is None
        p = ProblemData(H, np.ones((1, n)), np.ones(1), np.arange(1.0, n + 1),
                        ConeSpec.make(nonneg=n))
        f, g = tmp_path / "p.prob", tmp_path / "q.prob"
        write_problem(p, f)
        assert f.read_bytes() == TRIDIAGONAL_PROBLEM_TEXT.encode()
        write_problem(parse_problem(f), g)
        assert g.read_bytes() == f.read_bytes()

    def test_dense_trust_region(self, tmp_path):
        inst, p = gen_trs(30, 2)
        assert p.H.dense_copy() is not None
        # the lifted H of build_trs, and its lower-triangle nonzeros in
        # row-major order
        d = inst.H.shape[0]
        big = np.zeros((d + 1, d + 1))
        big[1:, 1:] = inst.H - inst.shift * np.eye(d)
        S = 0.5 * (big + big.T)
        rows, cols = np.nonzero(np.tril(S))
        expected = [f"H {rows.size}"] + [
            f"{r} {c} {format(S[r, c], '.17g')}" for r, c in zip(rows, cols)]
        f, g = tmp_path / "p.prob", tmp_path / "q.prob"
        write_problem(p, f)
        lines = f.read_text().splitlines()
        start = lines.index(expected[0])
        assert lines[start:] == expected + ["end"]
        write_problem(parse_problem(f), g)
        assert g.read_bytes() == f.read_bytes()


def big_problem():
    """Linear problem whose A section (9000 lines) and c (5000 lines) each
    span more than one block of lines."""
    rng = np.random.default_rng(5)
    m, n = 3, 30000
    A = sp.random(m, n, density=0.1, random_state=7, format="csr")
    A.data *= 10.0 ** rng.integers(-30, 30, A.nnz)
    return ProblemData(None, A, rng.standard_normal(m),
                       rng.standard_normal(n) * 1e-3,
                       ConeSpec.make(nonneg=n))


def section_start(lines, header):
    """1-based number of the first line after the ``header`` line."""
    return lines.index(header) + 2


class TestMultiBlock:
    def test_problem_round_trip(self, tmp_path):
        p = big_problem()
        f = tmp_path / "big.prob"
        write_problem(p, f)
        q = parse_problem(f)
        assert same_bits(q.b, p.b)
        assert same_bits(q.c, p.c)
        assert same_bits(q.A.toarray(), p.A.toarray())

    def test_result_round_trip(self, tmp_path):
        x = np.random.default_rng(2).standard_normal(30000)
        x[[0, 4096 * 6, 29999]] = [-0.0, 5e-324, -1e300]
        res = fixed_result(x, x[:7] * 3.0)
        f = tmp_path / "big.res"
        write_result(res, f, include_solution=True)
        r = parse_result(f)
        for name in ("x1", "x2", "x3", "y"):
            assert same_bits(getattr(r, name), getattr(res, name))

    def test_bad_triplet_in_second_block(self, tmp_path):
        p = big_problem()
        f = tmp_path / "big.prob"
        write_problem(p, f)
        lines = f.read_text().splitlines()
        start = section_start(lines, f"A {p.A.nnz}")
        row, col, _ = lines[start - 1 + 5000].split()
        lines[start - 1 + 5000] = f"{row} {col} 1.5x"
        f.write_text("\n".join(lines) + "\n")
        with pytest.raises(ProblemFormatError,
                           match=f"line {start}: section 'A': non-numeric "
                                 "entry$"):
            parse_problem(f)

    def test_bad_value_in_second_block(self, tmp_path):
        # 10000 lines of x3: the bad token sits in the second of three blocks
        res = fixed_result(np.arange(60000.0), np.ones(2))
        f = tmp_path / "big.res"
        write_result(res, f, include_solution=True)
        lines = f.read_text().splitlines()
        start = section_start(lines, "x3 60000")
        lines[start - 1 + 4500] = lines[start - 1 + 4500].replace(" ", " ?", 1)
        f.write_text("\n".join(lines) + "\n")
        with pytest.raises(ProblemFormatError,
                           match=f"line {start}: section 'x3': non-numeric "
                                 "value$"):
            parse_result(f)

    def test_extra_value_in_second_block(self, tmp_path):
        f = tmp_path / "big.prob"
        write_problem(big_problem(), f)
        lines = f.read_text().splitlines()
        start = section_start(lines, "c")
        lines[start - 1 + 4500] += " 1"
        f.write_text("\n".join(lines) + "\n")
        with pytest.raises(ProblemFormatError,
                           match=f"line {start}: section 'c': expected 30000 "
                                 "values, got 30001$"):
            parse_problem(f)

    def test_truncated_in_second_block(self, tmp_path):
        f = tmp_path / "big.prob"
        write_problem(big_problem(), f)
        lines = f.read_text().splitlines()
        start = section_start(lines, "c")
        f.write_text("\n".join(lines[:start - 1 + 4500]) + "\n")
        with pytest.raises(ProblemFormatError,
                           match=f"line {start - 1 + 4500}: unexpected end "
                                 "of file$"):
            parse_problem(f)


def rewrap(tokens, widths):
    """Lines of ``tokens`` whose lengths cycle through ``widths``; a width
    of 0 is an empty line and -1 a line of spaces."""
    lines, i, k = [], 0, 0
    while i < len(tokens):
        w = widths[k % len(widths)]
        k += 1
        if w <= 0:
            lines.append("" if w == 0 else "   ")
            continue
        lines.append("  " + " ".join(tokens[i:i + w]) + " ")
        i += w
    return lines


class TestIrregularLayout:
    def test_wrapping_and_blank_lines_parse_as_regular(self, tmp_path):
        p = big_problem()
        f = tmp_path / "regular.prob"
        write_problem(p, f)
        lines = f.read_text().splitlines()
        b_at, c_at = lines.index("b"), lines.index("c")
        a_at = lines.index(f"A {p.A.nnz}")
        b_toks = " ".join(lines[b_at + 1:c_at]).split()
        c_toks = " ".join(lines[c_at + 1:a_at]).split()
        spaced = []
        for i, ln in enumerate(lines[a_at + 1:-1]):
            spaced += ["", " \t", ln] if i % 5 == 0 else [ln]
        out = (lines[:b_at + 1] + rewrap(b_toks, [0, 1, -1, 2]) + ["c"]
               + rewrap(c_toks, [1, 13, 0, 7, -1, 25, 40])
               + [lines[a_at]] + spaced + ["", "end"])
        g = tmp_path / "irregular.prob"
        g.write_text("\n".join(out) + "\n")
        q = parse_problem(g)
        assert same_bits(q.b, p.b)
        assert same_bits(q.c, p.c)
        assert same_bits(q.A.toarray(), p.A.toarray())


class TestWriterRefusesNonFinite:
    @pytest.mark.parametrize("section", ["b", "c", "A", "H"])
    def test_problem(self, tmp_path, section):
        # ProblemData refuses the value, naming its field; the writer still
        # refuses a problem whose arrays were changed after construction
        p = fixed_quadratic_problem()
        b, c, A = p.b.copy(), p.c.copy(), p.A.copy()
        H = p.H
        if section == "b":
            b[1] = np.nan
        elif section == "c":
            c[7] = np.inf
        elif section == "A":
            A.data[3] = -np.inf
        else:
            rows, cols, vals = H.lower()
            H = SparseSymmetric(8, rows, cols, np.append(vals[:-1], np.nan))
        with pytest.raises(ValueError, match=f"^{section} holds a non-finite"):
            ProblemData(H, A, b, c, p.cone)
        changed = fixed_quadratic_problem()
        setattr(changed, section, {"b": b, "c": c, "A": A, "H": H}[section])
        with pytest.raises(ValueError, match="cannot serialize non-finite"):
            write_problem(changed, tmp_path / "p.txt")

    @pytest.mark.parametrize("vector", ["x1", "y"])
    def test_result(self, tmp_path, vector):
        res = fixed_result()
        getattr(res, vector)[1] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            write_result(res, tmp_path / "r.txt", include_solution=True)

    def test_result_scalar(self, tmp_path):
        res = fixed_result()
        res.pobj = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            write_result(res, tmp_path / "r.txt")


class TestParserErrorContract:
    def _fixed_file(self, tmp_path, old, new):
        text = FIXED_PROBLEM_TEXT.replace(old, new, 1)
        assert text != FIXED_PROBLEM_TEXT
        f = tmp_path / "bad.prob"
        f.write_text(text)
        return f

    @pytest.mark.parametrize("old, new, message", [
        ("H 5\n", "H\n", "line 20: field 'H' needs exactly one integer$"),
        ("H 5\n", "H x\n", "line 20: field 'H': 'x' is not an integer$"),
        ("soc 5\n", "soc 5.0\n",
         "line 6: cone block dim: '5.0' is not an integer$"),
    ])
    def test_malformed_integer_field(self, tmp_path, capsys, old, new,
                                     message):
        f = self._fixed_file(tmp_path, old, new)
        with pytest.raises(ProblemFormatError, match=message):
            parse_problem(f)
        assert cli_main(["check", str(f)]) == 2
        assert "internal error" not in capsys.readouterr().err

    @pytest.mark.parametrize("old, new, message", [
        ("-0.33333333333333331\n", "nan\n", "line 8: section 'b': non-finite value$"),
        ("\n-2.7182818284590451 ", "\n-inf ", "line 10: section 'c': non-finite value$"),
        ("0 2 -2.5\n", "0 2 inf\n", "line 13: section 'A': non-finite entry$"),
        ("7 7 0.69999999999999996\n", "7 7 NaN\n",
         "line 21: section 'H': non-finite entry$"),
    ])
    def test_non_finite_values_rejected(self, tmp_path, old, new, message):
        f = self._fixed_file(tmp_path, old, new)
        with pytest.raises(ProblemFormatError, match=message):
            parse_problem(f)
        assert cli_main(["check", str(f)]) == 2

    @pytest.mark.parametrize("line", ["status", "status Optimal extra"])
    def test_result_status_needs_one_value(self, tmp_path, capsys, line):
        res = tmp_path / "bad.res"
        res.write_text(FIXED_RESULT_TEXT.replace("status Optimal\n",
                                                 line + "\n", 1))
        with pytest.raises(ProblemFormatError,
                           match="line 2: field 'status' needs exactly one "
                                 "value$"):
            parse_result(res)
        prob = tmp_path / "p.prob"
        prob.write_text(FIXED_PROBLEM_TEXT)
        assert cli_main(["diag", str(prob), str(res)]) == 2
        assert "internal error" not in capsys.readouterr().err

    @pytest.mark.parametrize("old, new, message", [
        ("socalm result 1\n", "socalm result 7\n",
         "line 1: unsupported format version 7$"),
        ("pobj -12.5\n", "pobj nan\n", "line 3: field 'pobj': 'nan' is not "
                                       "finite$"),
        ("delta2 0\n", "delta2 inf\n", "line 6: field 'delta2': 'inf' is not "
                                       "finite$"),
        ("wall_time 0.125\n", "wall_time -inf\n",
         "line 13: field 'wall_time': '-inf' is not finite$"),
        ("strict 1 0.25 ", "strict 1 NaN ",
         "line 15: complementarity margin: 'NaN' is not finite$"),
        ("degenerate 0 0 0.33333333333333331\n", "degenerate 0 0 inf\n",
         "line 16: complementarity inner product: 'inf' is not finite$"),
        ("strict 1 0.25 ", "strict 1 x ",
         "line 15: complementarity margin: 'x' is not a number$"),
        ("0 nonneg boundary", "0.5 nonneg boundary",
         "line 15: complementarity block id: '0.5' is not an integer$"),
        ("1 soc zero", "b1 soc zero",
         "line 16: complementarity block id: 'b1' is not an integer$"),
        ("strict 1 0.25 ", "strict yes 0.25 ",
         "line 15: complementarity flag: 'yes' is not an integer$"),
    ])
    def test_result_parser_refuses_what_the_writer_refuses(
            self, tmp_path, capsys, old, new, message):
        text = FIXED_RESULT_TEXT.replace(old, new, 1)
        assert text != FIXED_RESULT_TEXT
        res = tmp_path / "bad.res"
        res.write_text(text)
        with pytest.raises(ProblemFormatError, match=message):
            parse_result(res)
        prob = tmp_path / "p.prob"
        prob.write_text(FIXED_PROBLEM_TEXT)
        assert cli_main(["diag", str(prob), str(res)]) == 2
        assert "internal error" not in capsys.readouterr().err


def outcome(parse, path):
    """What ``parse`` returns for ``path``, or its ProblemFormatError text."""
    try:
        return parse(path)
    except ProblemFormatError as err:
        return str(err)


def parse_both(parse, path, monkeypatch):
    """``(fast, general, tables)``: the outcome of ``parse`` with numpy's
    reader taking the sections it can, the outcome with the general reader
    alone, and how many sections numpy's reader took."""
    real, tables = socalm_io._Reader.table, []

    def spy(self, k, width):
        rows = real(self, k, width)
        tables.append(rows is not None)
        return rows

    with monkeypatch.context() as mp:
        mp.setattr(socalm_io._Reader, "table", spy)
        fast = outcome(parse, path)
    with monkeypatch.context() as mp:
        mp.setattr(socalm_io._Reader, "table", lambda self, k, width: None)
        general = outcome(parse, path)
    return fast, general, sum(tables)


def parsed_fields(parsed):
    """Everything a parse returns, arrays as (dtype, shape, bytes), so that
    equal fields mean equal bits and the same sign of every zero."""
    if isinstance(parsed, str):
        return parsed
    if isinstance(parsed, ProblemData):
        A = parsed.A.tocsr()
        arrays = [parsed.b, parsed.c, A.indptr, A.indices, A.data]
        arrays += list(parsed.H.lower()) if parsed.is_quadratic else []
        fields = [parsed.m, parsed.n, parsed.cone]
    else:
        arrays = [getattr(parsed, k) for k in ("x1", "x2", "x3", "y")
                  if parsed.has_solution]
        fields = sorted((k, v) for k, v in vars(parsed).items()
                        if k not in ("x1", "x2", "x3", "y"))
    return fields + [(a.dtype, a.shape, a.tobytes()) for a in arrays]


def srlasso_problem():
    rng = np.random.default_rng(4)
    B = rng.standard_normal((25, 8))
    return build_srlasso(B, B[:, 0] + rng.standard_normal(25), 0.3)[1]


SOURCE_PROBLEMS = {
    # b: one full line and a tail of 2, c: 26 full lines and a tail of 4
    "meb": lambda: gen_meb(20, 7)[1],
    "trs": lambda: gen_trs(30, 2)[1],
    "srlasso": srlasso_problem,
}


def header_index(lines, word):
    return next(i for i, ln in enumerate(lines) if ln.split()[:1] == [word])


def rewrap_section(lines, name, width):
    """Lines with the values of section ``name`` (b or c) at ``width`` a
    line."""
    lo = header_index(lines, name) + 1
    hi = next(i for i in range(lo, len(lines)) if lines[i][:1].isalpha())
    toks = " ".join(lines[lo:hi]).split()
    return lines[:lo] + [" ".join(toks[i:i + width])
                         for i in range(0, len(toks), width)] + lines[hi:]


def edit_token(lines, name, row, col, token):
    """Lines with token ``col`` of line ``row`` of section ``name`` set."""
    at = header_index(lines, name) + 1 + row
    toks = lines[at].split()
    toks[col] = token
    return lines[:at] + [" ".join(toks)] + lines[at + 1:]


def split_line(lines, name, row, sep):
    """Lines with the first space of line ``row`` of section ``name``
    replaced by ``sep``."""
    at = header_index(lines, name) + 1 + row
    return lines[:at] + [lines[at].replace(" ", sep, 1)] + lines[at + 1:]


def insert_line(lines, name, row, line):
    at = header_index(lines, name) + 1 + row
    return lines[:at] + [line] + lines[at:]


PROBLEM_VARIANTS = {
    "as_written": lambda ls: ls,
    "blank_in_b": lambda ls: insert_line(ls, "b", 1, ""),
    "spaces_in_b": lambda ls: insert_line(ls, "b", 1, " \t "),
    "blank_in_c": lambda ls: insert_line(ls, "c", 3, ""),
    "blank_in_A": lambda ls: insert_line(ls, "A", 3, ""),
    "wrap_1": lambda ls: rewrap_section(rewrap_section(ls, "b", 1), "c", 1),
    "wrap_5": lambda ls: rewrap_section(rewrap_section(ls, "b", 5), "c", 5),
    "wrap_7": lambda ls: rewrap_section(rewrap_section(ls, "b", 7), "c", 7),
    "underscore": lambda ls: edit_token(ls, "c", 2, 3, "1_0"),
    "exponent_underscore": lambda ls: edit_token(ls, "c", 2, 3, "1e-5_0"),
    "arabic_indic_digit": lambda ls: edit_token(ls, "c", 2, 3, "\u0661"),
    "underscore_in_A": lambda ls: edit_token(ls, "A", 4, 2, "2_5"),
    "inf": lambda ls: edit_token(ls, "c", 2, 3, "inf"),
    "nan_in_A": lambda ls: edit_token(ls, "A", 4, 2, "nan"),
    "word": lambda ls: edit_token(ls, "c", 1, 0, "x"),
    "hash": lambda ls: edit_token(ls, "c", 1, 5, "7 #"),
    "fractional_index": lambda ls: edit_token(ls, "A", 2, 1, "0.5"),
    "four_token_triplet": lambda ls: edit_token(ls, "A", 2, 2, "1 2"),
    "two_token_triplet": lambda ls: edit_token(ls, "A", 2, 2, ""),
    "extra_value": lambda ls: edit_token(ls, "c", 1, 0, "1 2"),
    "missing_value": lambda ls: edit_token(ls, "c", 1, 0, ""),
    "form_feed_in_c": lambda ls: split_line(ls, "c", 1, "\f"),
    "vertical_tab_in_A": lambda ls: split_line(ls, "A", 2, "\v"),
    "line_separator_in_b": lambda ls: split_line(ls, "b", 0, "\u2028"),
    "next_line_in_c": lambda ls: split_line(ls, "c", 0, "\x85"),
    "truncated_c": lambda ls: ls[:header_index(ls, "c") + 4],
    "truncated_A": lambda ls: ls[:header_index(ls, "A") + 5],
    "unterminated_A": lambda ls: ls[:-1],
}


class TestFastReaderMatchesGeneral:
    """Sections laid out as the writer lays them out go to numpy's C reader;
    every other layout falls back to the general reader, and both give the
    same values and the same error texts and line numbers."""

    @pytest.mark.parametrize("variant", sorted(PROBLEM_VARIANTS))
    @pytest.mark.parametrize("family", sorted(SOURCE_PROBLEMS))
    def test_problem_files(self, tmp_path, monkeypatch, family, variant):
        f = tmp_path / "p.prob"
        write_problem(SOURCE_PROBLEMS[family](), f)
        lines = PROBLEM_VARIANTS[variant](f.read_text().splitlines())
        f.write_text("\n".join(lines) + ("" if variant == "unterminated_A"
                                         else "\n"), encoding="utf-8")
        fast, general, tables = parse_both(parse_problem, f, monkeypatch)
        assert parsed_fields(fast) == parsed_fields(general)
        if variant == "as_written":
            # c and A, and b when it has a full line
            assert tables >= 2 and not isinstance(fast, str)

    @pytest.mark.parametrize("sep", ["\f", "\v", "\x1c", "\x1e", "\r",
                                     "\x85", "\u2028"])
    def test_line_numbers_are_those_of_splitlines(self, tmp_path, sep):
        f = tmp_path / "p.prob"
        write_problem(SOURCE_PROBLEMS["meb"](), f)
        lines = split_line(f.read_text().splitlines(), "c", 1, sep)
        text = "\n".join(edit_token(lines, "A", 4, 2, "x")) + "\n"
        f.write_text(text, encoding="utf-8")
        start = header_index(text.splitlines(), "A") + 2
        with pytest.raises(ProblemFormatError, match=f"line {start}: section "
                                                     "'A': non-numeric entry$"):
            parse_problem(f)

    def test_crlf_file_is_the_file(self, tmp_path, monkeypatch):
        f = tmp_path / "p.prob"
        write_problem(SOURCE_PROBLEMS["meb"](), f)
        expected = parse_problem(f)
        f.write_bytes(f.read_bytes().replace(b"\n", b"\r\n"))
        fast, general, tables = parse_both(parse_problem, f, monkeypatch)
        assert tables >= 2
        assert parsed_fields(fast) == parsed_fields(general) \
            == parsed_fields(expected)

    @pytest.mark.parametrize("variant", [
        "as_written", "blank_in_x3", "wrap_5", "underscore_in_y", "inf_in_x1",
        "truncated_x2"])
    def test_result_files(self, tmp_path, monkeypatch, variant):
        x = np.random.default_rng(9).standard_normal(50)
        x[[0, 7, 8, 9, 10, 11, 49]] = [-0.0, 0.0, -0.0, 0.0, 0.0, 0.0, 5e-324]
        f = tmp_path / "r.res"
        write_result(fixed_result(x, np.zeros(13)), f, include_solution=True)
        lines = f.read_text().splitlines()
        lines = {
            "as_written": lambda ls: ls,
            "blank_in_x3": lambda ls: insert_line(ls, "x3", 2, ""),
            "wrap_5": lambda ls: rewrap_section(ls, "x2", 5),
            "underscore_in_y": lambda ls: edit_token(ls, "y", 0, 1, "0_0"),
            "inf_in_x1": lambda ls: edit_token(ls, "x1", 3, 5, "-inf"),
            "truncated_x2": lambda ls: ls[:header_index(ls, "x2") + 3],
        }[variant](lines)
        f.write_text("\n".join(lines) + "\n")
        fast, general, tables = parse_both(parse_result, f, monkeypatch)
        assert parsed_fields(fast) == parsed_fields(general)
        if variant == "as_written":
            assert tables == 4


def reference_write_array(fh, values):
    """Six values a line, each through ``format(v, ".17g")``."""
    values = np.asarray(values, dtype=float).ravel()
    for i in range(0, values.size, 6):
        fh.write(" ".join(format(v, ".17g") for v in values[i:i + 6]) + "\n")


def zero_rows_alternating(rows):
    values = np.zeros((rows, 6))
    values[::2] = np.arange(1.0, 6 * len(values[::2]) + 1).reshape(-1, 6)
    return values.ravel()


class TestWriteArrayBytes:
    """Runs of rows of +0.0 are written as one constant line and every other
    row through the ``%.17g`` template: the bytes are the per-value ones."""

    @pytest.mark.parametrize("values", [
        np.zeros(0), np.zeros(60), np.full(60, -0.0),
        np.array([0.0, -0.0, 0.0, 0.0, 0.0, 0.0] * 3 + [-0.0]),
        zero_rows_alternating(9), zero_rows_alternating(10),
        np.concatenate([np.zeros(6 * 5000), np.ones(7), np.zeros(6 * 4200)]),
        np.concatenate([np.ones(3), np.zeros(9), [5e-324, 0.0]]),
    ], ids=["empty", "zeros", "negative_zeros", "mixed_zero_signs",
            "alternating_odd", "alternating_even", "long_runs",
            "zero_row_then_tail"])
    def test_layouts(self, values):
        got, want = io.StringIO(), io.StringIO()
        socalm_io._write_array(got, values)
        reference_write_array(want, values)
        assert got.getvalue() == want.getvalue()

    @pytest.mark.parametrize("size", range(1, 14))
    @pytest.mark.parametrize("fill", ["zeros", "values", "mixed"])
    def test_sizes(self, size, fill):
        values = {"zeros": np.zeros(size),
                  "values": np.arange(1.0, size + 1) / 3,
                  "mixed": np.where(np.arange(size) < 6, 0.0, -1.5)}[fill]
        got, want = io.StringIO(), io.StringIO()
        socalm_io._write_array(got, values)
        reference_write_array(want, values)
        assert got.getvalue() == want.getvalue()


def assert_same_text(got, want):
    """Equal texts; a mismatch names the first line that differs, since
    pytest's diff of two texts of thousands of lines runs for minutes."""
    if got != want:
        g, w = got.splitlines(), want.splitlines()
        i = next((i for i, (a, b) in enumerate(zip(g, w)) if a != b),
                 min(len(g), len(w)))
        pytest.fail(f"texts differ at line {i + 1} of {len(g)} and "
                    f"{len(w)}: {g[i:i + 1]} != {w[i:i + 1]}")


def reference_write_triplets(fh, rows, cols, vals):
    """One 'row col value' line an entry, the value through
    ``format(v, ".17g")``."""
    for r, c, v in zip(np.asarray(rows).tolist(), np.asarray(cols).tolist(),
                       np.asarray(vals, dtype=float).tolist()):
        fh.write(f"{r} {c} {format(v, '.17g')}\n")


def reference_problem_text(problem):
    """The problem file with every value formatted on its own."""
    fh = io.StringIO()
    fh.write(f"socalm problem 1\nm {problem.m}\nn {problem.n}\n"
             f"cone {len(problem.cone.blocks)}\n")
    for blk in problem.cone.blocks:
        fh.write(f"{blk.kind} {blk.dim}\n")
    fh.write("b\n")
    reference_write_array(fh, problem.b)
    fh.write("c\n")
    reference_write_array(fh, problem.c)
    A = problem.A.tocsr()
    fh.write(f"A {A.nnz}\n")
    reference_write_triplets(
        fh, np.repeat(np.arange(problem.m), np.diff(A.indptr)), A.indices,
        A.data)
    if problem.is_quadratic:
        rows, cols, vals = problem.H.lower()
        fh.write(f"H {vals.size}\n")
        reference_write_triplets(fh, rows, cols, vals)
    fh.write("end\n")
    return fh.getvalue()


def incidence_problem():
    """Shortest path on a 40-node ring with chords: A is the +-1 node-arc
    incidence matrix, c the arc costs 1 to 4 with one -0.0."""
    nodes = 40
    tails = np.concatenate([np.arange(nodes), np.arange(0, nodes, 3)])
    heads = np.concatenate([(tails[:nodes] + 1) % nodes,
                            (tails[nodes:] + 7) % nodes])
    arcs = tails.size
    A = sp.csc_matrix((np.concatenate([np.ones(arcs), -np.ones(arcs)]),
                       (np.concatenate([tails, heads]),
                        np.tile(np.arange(arcs), 2))), shape=(nodes, arcs))
    b = np.zeros(nodes)
    b[[0, nodes // 2]] = [1.0, -1.0]
    c = 1.0 + np.arange(arcs) % 4
    c[5] = -0.0
    return ProblemData(None, A, b, c, ConeSpec.make(nonneg=arcs))


def spy_tables(monkeypatch):
    """Record, for each value table asked for, whether it was built."""
    built, make = [], socalm_io._value_table

    def spy(values):
        text = make(values)
        built.append(text is not None)
        return text

    monkeypatch.setattr(socalm_io, "_value_table", spy)
    return built


def repeated(distinct, size, seed=0):
    return np.random.default_rng(seed).choice(np.asarray(distinct), size)


SIGNED_ZEROS = [0.0, -0.0, 5e-324, -5e-324, 1.5]
EXTREMES = [1e300, -1e300, 1e-300, -1e-300, 1.7976931348623157e308,
            2.2250738585072014e-308, -2.2250738585072014e-308, 1e-5, 0.1]
# (values, whether at most half of them are distinct)
TABLE_SECTIONS = {
    "signed_zeros_subnormal": (repeated(SIGNED_ZEROS, 300), True),
    "extremes": (repeated(EXTREMES, 90, seed=1), True),
    "half_distinct": (np.repeat(np.arange(1.0, 7.0) / 3, 2), True),
    "half_plus_one": (np.append(np.repeat(np.arange(1.0, 6.0) / 3, 2),
                                [7.0, 8.0]), False),
    "short_tail": (repeated([-2.5, 1 / 7, 0.0], 6 * 11 + 4, seed=2), True),
    "zero_rows_between": (np.concatenate([
        np.tile([2.0, -0.0, 1e-300], 4), np.zeros(18),
        np.tile([2.0, -0.0, 1e-300], 2), np.zeros(6), [5e-324]]), True),
    "several_blocks": (repeated(EXTREMES + SIGNED_ZEROS, 6 * 9000 + 5,
                                seed=3), True),
    "all_distinct": (np.arange(1.0, 40.0) / 7, False),
    "empty": (np.zeros(0), False),
}


class TestValueTableBytes:
    """A problem section in which at most half of the values are distinct
    is written from a table of their texts, each formatted once; on both
    sides of that rule the bytes are the per-value ones."""

    @pytest.mark.parametrize("name", sorted(TABLE_SECTIONS))
    def test_arrays(self, monkeypatch, name):
        values, table = TABLE_SECTIONS[name]
        built = spy_tables(monkeypatch)
        got, want = io.StringIO(), io.StringIO()
        socalm_io._write_array(got, values, table=True)
        reference_write_array(want, values)
        assert built == [table]
        assert_same_text(got.getvalue(), want.getvalue())

    @pytest.mark.parametrize("name", sorted(TABLE_SECTIONS))
    def test_triplets(self, monkeypatch, name):
        values, table = TABLE_SECTIONS[name]
        # indices as scipy holds them, one past int32 in the last row
        rows = (np.arange(values.size) // 5).astype(np.int32)
        cols = (np.arange(values.size) * 7919) % 100003
        rows64 = rows.astype(np.int64)
        rows64[-1:] = 2 ** 31
        built = spy_tables(monkeypatch)
        for r in (rows, rows64):
            got, want = io.StringIO(), io.StringIO()
            socalm_io._write_triplets(got, r, cols, values)
            reference_write_triplets(want, r, cols, values)
            assert_same_text(got.getvalue(), want.getvalue())
        assert built == [table, table]

    @pytest.mark.parametrize("make", [
        lambda: gen_trs(30, 2)[1], srlasso_problem, incidence_problem],
        ids=["trs", "srlasso", "incidence"])
    def test_write_problem(self, tmp_path, monkeypatch, make):
        p = make()
        built = spy_tables(monkeypatch)
        f = tmp_path / "p.prob"
        write_problem(p, f)
        assert_same_text(f.read_text(), reference_problem_text(p))
        assert len(built) == 3 + p.is_quadratic

    @pytest.mark.parametrize("m", [0, 3])
    def test_empty_sections(self, tmp_path, m):
        # no constraint rows, or rows with no entries: A (and at m = 0 also
        # b) is an empty section, written and read back like any other
        c = np.array([1.0, -0.0, 2.0, 1.0])
        p = ProblemData(None, sp.csc_matrix((m, c.size)), np.zeros(m), c,
                        ConeSpec.make(nonneg=c.size))
        f = tmp_path / "p.prob"
        write_problem(p, f)
        assert_same_text(f.read_text(), reference_problem_text(p))
        q = parse_problem(f)
        assert q.A.shape == (m, c.size) and q.A.nnz == 0
        assert np.array_equal(q.b, p.b)
        assert np.array_equal(q.c.view(np.uint64), c.view(np.uint64))

    @pytest.mark.parametrize("m, c_table", [(700, False), (2000, True)])
    def test_meb_sections(self, tmp_path, monkeypatch, m, c_table):
        # c holds m * 7 values of a sequence of period 4096: at m = 700,
        # 4096 of its 4900 values are distinct; b is (-1, 0, ...) and all of
        # A is -1
        p = gen_meb(m, 6)[1]
        built = spy_tables(monkeypatch)
        f = tmp_path / "p.prob"
        write_problem(p, f)
        assert built == [True, c_table, True]
        assert_same_text(f.read_text(), reference_problem_text(p))

    def test_write_result_keeps_the_template(self, tmp_path, monkeypatch):
        def refuse(values):
            raise AssertionError("a result file built a value table")

        monkeypatch.setattr(socalm_io, "_value_table", refuse)
        x = repeated(SIGNED_ZEROS, 61)
        f = tmp_path / "r.res"
        write_result(fixed_result(x, np.ones(13)), f, include_solution=True)
        lines = f.read_text().splitlines()
        start = lines.index("x1 61") + 1
        want = io.StringIO()
        reference_write_array(want, x)
        assert lines[start:start + 11] == want.getvalue().splitlines()


class TestComplementarityBytes:
    def test_rows_match_per_row_formatting(self, tmp_path):
        rng = np.random.default_rng(2)
        reps = [BlockReport(i, ("nonneg", "soc")[i % 2], "interior", "zero",
                            "strict", bool(i % 3), float(v), float(w))
                for i, (v, w) in enumerate(zip(
                    rng.standard_normal(50) * 10.0 ** rng.integers(-300, 300,
                                                                   50),
                    np.append(rng.standard_normal(49), -0.0)))]
        res = fixed_result()
        res.complementarity = reps
        f = tmp_path / "r.res"
        write_result(res, f)
        lines = f.read_text().splitlines()
        start = lines.index("complementarity 50") + 1
        assert lines[start:start + 50] == [
            f"{r.block_id} {r.kind} {r.x3_status} {r.y_status} {r.category} "
            f"{int(r.strictly_complementary)} {format(r.margin, '.17g')} "
            f"{format(r.inner_product, '.17g')}" for r in reps]
        assert parse_result(f).complementarity == reps

    @pytest.mark.parametrize("field", ["margin", "inner_product"])
    def test_non_finite_refused(self, tmp_path, field):
        res = fixed_result()
        rep = res.complementarity[1]
        setattr(rep, field, np.inf)
        with pytest.raises(ValueError, match="non-finite"):
            write_result(res, tmp_path / "r.txt")
