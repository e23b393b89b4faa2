"""Problem/result text formats and the command-line front end.

The formats are line-oriented: keyword lines in a fixed order, numeric
payloads wrapped at a few values per line, everything serialized with 17
significant digits so writing and re-parsing reproduces doubles bit-exactly.
Non-finite values are refused both ways.  The writer formats a numeric
section in blocks of ``_BLOCK_LINES`` lines, checks it for non-finite values
at once and writes each run of rows of +0.0 as one repeated constant line.
A problem section in which at most half of the values are distinct (the
``c`` and ``A`` of a large enclosing ball) has each distinct value
formatted once, with one ``%.17g`` template, and its blocks written from
that table of texts.  Other problem sections, and the vectors of a result
file, format each block with one ``%.17g`` template.  Either way each value
prints as ``format(v, ".17g")`` does, so the bytes do not depend on the
path.  The parser finds every line feed of the file once.  A section laid
out as the writer lays it out has its full lines of six values, or its
``row col value`` triplets, one a line, read by numpy's C text reader in one
slice of the text.  The rest (a vector's shorter tail line), any other
layout, or a token that reader refuses goes to the general reader, which
reads a line at a time and converts the section's tokens at once.  Both
give the same values, and errors name the section and the line where it
starts.

Exit codes: 0 success, 2 malformed input, 3 non-convergence, 4 internal
error.
"""

from __future__ import annotations

import argparse
import io
import os
import sys

import numpy as np
import scipy.sparse as sp

from . import alm
from .alm import AlmOptions, ProblemData, SolveResult, kkt_residuals, solve
from .cone import Block, ConeSpec
from .linsys import SparseSymmetric
from .problems import build_srlasso, gen_meb, gen_trs, lambda_from_lambda_c, \
    load_srlasso_csv

FORMAT_VERSION = 1
_VALUES_PER_LINE = 6
# Lines formatted per step of a numeric section.
_BLOCK_LINES = 4096
# A problem section is written through a table of its distinct values, each
# formatted once, when at most this share of its values are distinct.  The
# table costs a sort and a lookup per value besides formatting the distinct
# ones: timed on 400 000 values, it matches the per-block template at about
# half distinct in a section of six values a line and at 0.85 to 1 in a
# triplet section, and is up to 1.2 times slower on the all-distinct A and H
# of srlasso and trs.
_TABLE_MAX_DISTINCT = 0.5
# A row of +0.0 as "%.17g" prints it (-0.0 prints as "-0").
_ZERO_ROW = " ".join(["0"] * _VALUES_PER_LINE) + "\n"
# Character codes that str.splitlines() breaks a line at besides "\n"
# ("\r" stays only in text not read in text mode).
_OTHER_BREAKS = (0x0b, 0x0c, 0x0d, 0x1c, 0x1d, 0x1e)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NO_CONVERGENCE = 3
EXIT_INTERNAL = 4


class ProblemFormatError(ValueError):
    """Malformed problem or result file; message carries line context."""


def _finite(values):
    values = np.asarray(values, dtype=float)
    if not np.isfinite(values).all():
        raise ValueError("cannot serialize non-finite value")
    return values


def _fmt(v: float) -> str:
    return format(float(_finite(v)), ".17g")


def _value_table(values):
    """The ``%.17g`` texts of the distinct values of the 1-D ``values``,
    each formatted once, and for each value the index of its text; None
    when ``values`` is empty or more than ``_TABLE_MAX_DISTINCT`` of them
    are distinct.

    Values are told apart by their bits, so +0.0 and -0.0 keep their texts.
    The table takes the write of the enclosing ball 1000x400 problem file
    from 0.382 to 0.162 s (median of 10 alternating pairs, all won, 2-core
    machine).
    """
    if not values.size:
        return None
    # one sort of the bits gives the distinct values and, through its
    # order, each value's index among them (np.unique hashes integers, and
    # np.searchsorted on uint64 keys is several times slower than the sort)
    order = np.argsort(values.view(np.uint64))
    bits = values.view(np.uint64)[order]
    first = np.empty(bits.size, dtype=bool)
    first[0] = True
    np.not_equal(bits[1:], bits[:-1], out=first[1:])
    distinct = bits[first]
    if distinct.size > _TABLE_MAX_DISTINCT * values.size:
        return None
    rank = np.cumsum(first)
    rank -= 1
    codes = np.empty(values.size, dtype=np.intp)
    codes[order] = rank
    texts = np.array((" ".join(["%.17g"] * distinct.size)
                      % tuple(distinct.view(np.float64).tolist())).split(" "),
                     dtype=object)
    return texts, codes


def _write_rows(fh, line, table, texts=None):
    """Write each row of the 2-D ``table`` through the %-template ``line``,
    one format call per block of lines.  With ``texts`` the table holds
    indices into it, and each value goes in as its text, through "%s" in
    place of "%.17g"."""
    if texts is not None:
        line = line.replace("%.17g", "%s")
    for i in range(0, len(table), _BLOCK_LINES):
        block = table[i:i + _BLOCK_LINES]
        cells = block if texts is None else texts[block]
        fh.write(line * len(block) % tuple(cells.ravel().tolist()))


def _write_array(fh, values, table=False):
    """Six values a line; with ``table`` set, through a value table when
    the section repeats its values enough for one to pay.

    A run of rows of +0.0 is written as one repeated constant line: the
    enclosing ball 1000x400 result file, whose x1 is all zero, is written
    in 0.266 s against 0.352 s when every row is formatted (median of 10
    alternating pairs, all won, 2-core machine).
    """
    values = _finite(values).ravel()
    texts, cells = (table and _value_table(values)) or (None, values)
    full = values.size - values.size % _VALUES_PER_LINE
    # +0.0 is the one double whose bits are all zero
    zero = ~values[:full].reshape(-1, _VALUES_PER_LINE).view(
        np.uint64).any(axis=1)
    rows = cells[:full].reshape(-1, _VALUES_PER_LINE)
    cuts = (np.flatnonzero(zero[1:] != zero[:-1]) + 1).tolist()
    row = " ".join(["%.17g"] * _VALUES_PER_LINE) + "\n"
    for lo, hi in zip([0, *cuts], [*cuts, len(rows)]):
        if lo < hi and zero[lo]:
            fh.write(_ZERO_ROW * (hi - lo))
        else:
            _write_rows(fh, row, rows[lo:hi], texts)
    if values.size > full:
        _write_rows(fh, " ".join(["%.17g"] * (values.size - full)) + "\n",
                    cells[full:].reshape(1, -1), texts)


def _write_triplets(fh, rows, cols, vals):
    vals = _finite(vals)
    table = _value_table(vals)
    if table is None:
        # indices travel as exact float64 integers; "%d" prints them unchanged
        _write_rows(fh, "%d %d %.17g\n", np.column_stack((rows, cols, vals)))
        return
    texts, codes = table
    for i in range(0, vals.size, _BLOCK_LINES):
        part = slice(i, i + _BLOCK_LINES)
        cells = np.empty((codes[part].size, 3), dtype=object)
        # the indices go in as Python ints
        cells[:, 0], cells[:, 1], cells[:, 2] = (rows[part], cols[part],
                                                 texts[codes[part]])
        fh.write("%d %d %s\n" * len(cells) % tuple(cells.ravel().tolist()))


def _line_bounds(text):
    """``(text, bounds)`` with every line break of ``text`` a "\\n" and
    line ``i`` equal to ``text[bounds[i]:bounds[i + 1] - 1]``.

    The lines are those of ``str.splitlines``.  ASCII text that breaks lines
    at "\\n" alone is kept as it is and scanned once with numpy; any other
    text is rebuilt from its ``splitlines`` first.  The scan takes the parse
    of the enclosing ball 1000x400 problem file from 0.346 to 0.233 s
    (median of 10 alternating pairs, all won, 2-core machine).
    """
    if text.isascii():
        codes = np.frombuffer(text.encode("ascii"), np.uint8)
        controls = np.flatnonzero(codes < 0x20)
        kinds = codes[controls]
        if not np.isin(kinds, _OTHER_BREAKS).any():
            ends = controls[kinds == 0x0a]
            if text and not text.endswith("\n"):
                ends = np.append(ends, len(text))
            return text, np.concatenate(([0], ends + 1))
    lines = text.splitlines()
    lengths = np.fromiter(map(len, lines), np.int64, len(lines))
    return ("".join(line + "\n" for line in lines),
            np.concatenate(([0], np.cumsum(lengths + 1))))


class _Reader:
    """The lines of a file, read in order; ``pos`` counts the lines read."""

    def __init__(self, text, name):
        self.text, self.bounds = _line_bounds(text)
        self.nlines = len(self.bounds) - 1
        self.name = name
        self.pos = 0

    def error(self, msg, line=None):
        line = self.pos if line is None else line
        raise ProblemFormatError(f"{self.name}: line {line}: {msg}")

    def span(self, k):
        """The text of the next ``k`` lines, without the last line break."""
        return self.text[self.bounds[self.pos]:self.bounds[self.pos + k] - 1]

    def next_line(self):
        while True:
            line = self.next_raw_line().strip()
            if line:
                return line

    def next_raw_line(self):
        if self.pos >= self.nlines:
            self.error("unexpected end of file")
        line = self.span(1)
        self.pos += 1
        return line

    def keyword(self, *expected):
        line = self.next_line()
        toks = line.split()
        if toks[0] not in expected:
            self.error(f"expected {' or '.join(expected)!r}, found {toks[0]!r}")
        return toks

    def header(self, kind):
        head = self.keyword("socalm")
        if len(head) != 3 or head[1] != kind:
            self.error(f"expected header 'socalm {kind} <version>'")
        if head[2] != str(FORMAT_VERSION):
            self.error(f"unsupported format version {head[2]}")

    def keyword_int(self, name):
        return self.int_field(self.keyword(name))

    def int_field(self, toks):
        name = toks[0]
        if len(toks) != 2:
            self.error(f"field {name!r} needs exactly one integer")
        return self.integer(toks[1], f"field {name!r}")

    def integer(self, tok, what):
        try:
            return int(tok)
        except ValueError:
            self.error(f"{what}: {tok!r} is not an integer")

    def keyword_float(self, name):
        toks = self.keyword(name)
        if len(toks) != 2:
            self.error(f"field {name!r} needs exactly one number")
        return self.finite(toks[1], f"field {name!r}")

    def finite(self, tok, what):
        try:
            value = float(tok)
        except ValueError:
            self.error(f"{what}: {tok!r} is not a number")
        if not np.isfinite(value):
            self.error(f"{what}: {tok!r} is not finite")
        return value

    def table(self, k, width):
        """The next ``k`` lines as a ``k x width`` array when each of them
        holds ``width`` numbers that numpy's C reader parses, else None."""
        if not 0 < k <= self.nlines - self.pos:
            return None
        text = self.span(k)
        if not text or text.isspace():  # no rows, which loadtxt warns of
            return None
        try:
            # a non-ASCII character fails the encoding, and an empty line
            # or a token the reader refuses fails the parse or the shape
            rows = np.loadtxt(io.BytesIO(text.encode("ascii")), ndmin=2,
                              comments=None)
        except ValueError:
            return None
        if rows.shape != (k, width):
            return None
        self.pos += k
        return rows

    def read_floats(self, count, what):
        """``count`` values on as many lines as they take; reading stops
        after the line that completes the count.  The full lines of the
        writer's layout go through :meth:`table` at once; the rest is read a
        line at a time."""
        start, got, toks = self.pos, 0, []
        out = np.empty(max(count, 0))
        rows = self.table(out.size // _VALUES_PER_LINE, _VALUES_PER_LINE)
        if rows is not None:
            got = rows.size
            out[:got] = rows.reshape(-1)
        while got + len(toks) < count:
            toks += self.next_raw_line().split()
        got += len(toks)
        if got != count:
            self.error(f"section {what!r}: expected {count} values, got "
                       f"{got}", line=start + 1)
        self._numbers(out, toks, what, "value", start)
        return out

    def read_triplets(self, count, what):
        """``count`` non-blank 'row col value' lines."""
        start, toks = self.pos, []
        out = self.table(count, 3)
        if out is None:
            out, nlines = np.empty((max(count, 0), 3)), 0
            while nlines < count:
                line = self.next_raw_line().split()
                nlines += bool(line)
                toks += line
            if len(toks) != 3 * count:
                self.error(f"section {what!r}: expected {count} 'row col "
                           f"value' lines", line=start + 1)
        self._numbers(out.reshape(-1), toks, what, "entry", start)
        idx = out[:, :2]
        if np.any(idx != np.floor(idx)):
            self.error(f"section {what!r}: fractional index", line=start + 1)
        return idx[:, 0].astype(np.int64), idx[:, 1].astype(np.int64), out[:, 2]

    def _numbers(self, out, toks, what, noun, start):
        """Parse ``toks`` into the last entries of the 1-D ``out``, then
        check that every entry of ``out`` is a finite number."""
        try:
            out[out.size - len(toks):] = np.asarray(toks, dtype=float)
        except ValueError:
            self.error(f"section {what!r}: non-numeric {noun}", line=start + 1)
        if not np.isfinite(out).all():
            self.error(f"section {what!r}: non-finite {noun}", line=start + 1)


def write_problem(problem: ProblemData, path):
    """Serialize a problem instance; round-trips bit-exactly for finite data."""
    # triplets row by row, whatever the storage of A
    A = problem.A.tocsr().tocoo()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"socalm problem {FORMAT_VERSION}\n")
        fh.write(f"m {problem.m}\n")
        fh.write(f"n {problem.n}\n")
        fh.write(f"cone {len(problem.cone.blocks)}\n")
        for blk in problem.cone.blocks:
            fh.write(f"{blk.kind} {blk.dim}\n")
        fh.write("b\n")
        _write_array(fh, problem.b, table=True)
        fh.write("c\n")
        _write_array(fh, problem.c, table=True)
        fh.write(f"A {A.nnz}\n")
        _write_triplets(fh, A.row, A.col, A.data)
        if problem.is_quadratic:
            rows, cols, vals = problem.H.lower()
            fh.write(f"H {vals.size}\n")
            _write_triplets(fh, rows, cols, vals)
        fh.write("end\n")


def parse_problem(path) -> ProblemData:
    """Read and validate a problem file, with line-level diagnostics."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    r = _Reader(text, str(path))
    r.header("problem")
    m = r.keyword_int("m")
    n = r.keyword_int("n")
    nblocks = r.keyword_int("cone")
    blocks = []
    for _ in range(nblocks):
        toks = r.keyword("nonneg", "soc")
        if len(toks) != 2:
            r.error("cone block line must be '<kind> <dim>'")
        blocks.append(Block(toks[0], r.integer(toks[1], "cone block dim")))
    total = sum(blk.dim for blk in blocks)
    if total != n:
        r.error(f"cone dims sum to {total}, expected n = {n}")
    try:
        cone = ConeSpec(blocks)
    except ValueError as err:
        r.error(f"cone: {err}")
    r.keyword("b")
    b = r.read_floats(m, "b")
    r.keyword("c")
    c = r.read_floats(n, "c")
    nnz = r.keyword_int("A")
    ar, ac, av = r.read_triplets(nnz, "A")
    if nnz and (ar.min() < 0 or ar.max() >= m or ac.min() < 0 or ac.max() >= n):
        r.error("section 'A': index out of range")
    A = sp.csc_matrix((av, (ar, ac)), shape=(m, n))
    toks = r.keyword("H", "end")
    H = None
    if toks[0] == "H":
        hnnz = r.int_field(toks)
        hr, hc, hv = r.read_triplets(hnnz, "H")
        try:
            H = SparseSymmetric(n, hr, hc, hv)
        except ValueError as err:
            r.error(f"section 'H': {err}")
        r.keyword("end")
    try:
        return ProblemData(H, A, b, c, cone)
    except ValueError as err:
        r.error(f"inconsistent data: {err}")


def write_result(result: SolveResult, path, include_solution=False):
    """Serialize a solve result; timings sit on their own line so outputs
    are otherwise deterministic."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"socalm result {FORMAT_VERSION}\n")
        fh.write(f"status {result.status}\n")
        fh.write(f"pobj {_fmt(result.pobj)}\n")
        fh.write(f"dobj {_fmt(result.dobj)}\n")
        for i, v in enumerate(
                (result.delta1, result.delta2, result.delta3, result.delta4), 1):
            fh.write(f"delta{i} {_fmt(v)}\n")
        fh.write(f"natural_map_norm {_fmt(result.natural_map_norm)}\n")
        fh.write(f"outer_iters {result.outer_iters}\n")
        fh.write(f"newton_iters {result.newton_iters}\n")
        fh.write(f"krylov_iters {result.krylov_iters}\n")
        fh.write(f"wall_time {_fmt(result.wall_time)}\n")
        reps = result.complementarity
        fh.write(f"complementarity {len(reps)}\n")
        numbers = _finite([(rep.margin, rep.inner_product) for rep in reps])
        fh.write("%s %s %s %s %s %d %.17g %.17g\n" * len(reps) % tuple(
            cell for rep, (margin, inner) in zip(reps, numbers.tolist())
            for cell in (rep.block_id, rep.kind, rep.x3_status, rep.y_status,
                         rep.category, rep.strictly_complementary, margin,
                         inner)))
        fh.write(f"iterlog {len(result.iteration_log)}\n")
        for line in result.iteration_log:
            fh.write(line + "\n")
        fh.write(f"solution {int(bool(include_solution))}\n")
        if include_solution:
            for name, vec in (("x1", result.x1), ("x2", result.x2),
                              ("x3", result.x3), ("y", result.y)):
                fh.write(f"{name} {len(vec)}\n")
                _write_array(fh, vec)
        fh.write("end\n")


class ResultData:
    """Parsed result file (mirror of the solver result, vectors optional)."""

    def __init__(self, **kw):
        self.__dict__.update(kw)


def parse_result(path) -> ResultData:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    r = _Reader(text, str(path))
    r.header("result")
    toks = r.keyword("status")
    if len(toks) != 2:
        r.error("field 'status' needs exactly one value")
    fields = {"status": toks[1]}
    for name in ("pobj", "dobj", "delta1", "delta2", "delta3", "delta4",
                 "natural_map_norm"):
        fields[name] = r.keyword_float(name)
    for name in ("outer_iters", "newton_iters", "krylov_iters"):
        fields[name] = r.keyword_int(name)
    fields["wall_time"] = r.keyword_float("wall_time")
    ncomp = r.keyword_int("complementarity")
    comp = []
    for _ in range(ncomp):
        toks = r.next_line().split()
        if len(toks) != 8:
            r.error("complementarity row needs 8 fields")
        comp.append(alm.BlockReport(
            block_id=r.integer(toks[0], "complementarity block id"),
            kind=toks[1], x3_status=toks[2], y_status=toks[3],
            category=toks[4],
            strictly_complementary=bool(r.integer(
                toks[5], "complementarity flag")),
            margin=r.finite(toks[6], "complementarity margin"),
            inner_product=r.finite(toks[7], "complementarity inner product")))
    fields["complementarity"] = comp
    nlog = r.keyword_int("iterlog")
    log = []
    for _ in range(nlog):
        log.append(r.next_raw_line())
    fields["iteration_log"] = log
    has_solution = r.keyword_int("solution")
    fields["has_solution"] = bool(has_solution)
    if has_solution:
        for name in ("x1", "x2", "x3", "y"):
            cnt = r.keyword_int(name)
            fields[name] = r.read_floats(cnt, name)
    r.keyword("end")
    return ResultData(**fields)


def _build_parser():
    p = argparse.ArgumentParser(
        prog="socalm",
        description="Cone-program solver (augmented Lagrangian with a "
                    "semismooth Newton inner loop)")
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="solve a problem file")
    ps.add_argument("problem")
    ps.add_argument("--tol", type=float, default=1e-8)
    ps.add_argument("--max-iter", type=int, default=100)
    ps.add_argument("--criterion-b", action="store_true",
                    help="also enforce the rate-targeting accuracy test")
    ps.add_argument("--out", default=None, help="result file path "
                    "(default: <problem>.result)")
    ps.add_argument("--solution", action="store_true",
                    help="store solution vectors in the result file")

    pg = sub.add_parser("gen", help="generate a problem file")
    gsub = pg.add_subparsers(dest="family", required=True)
    gm = gsub.add_parser("meb", help="pseudo-random enclosing-ball instance")
    gm.add_argument("--m", type=int, required=True)
    gm.add_argument("--d", type=int, required=True)
    gm.add_argument("-o", "--out", required=True)
    gt = gsub.add_parser("trs", help="synthetic trust-region instance")
    gt.add_argument("--d", type=int, required=True)
    gt.add_argument("--seed", type=int, default=0)
    gt.add_argument("-o", "--out", required=True)
    gl = gsub.add_parser("srlasso", help="square-root Lasso from CSV data")
    gl.add_argument("--csv", required=True)
    gl.add_argument("--lambda-c", type=float, required=True, dest="lambda_c")
    gl.add_argument("-o", "--out", required=True)

    pc = sub.add_parser("check", help="validate a problem file")
    pc.add_argument("problem")

    pd = sub.add_parser("diag", help="recompute residuals for a solved result")
    pd.add_argument("problem")
    pd.add_argument("result")
    return p


def _cmd_solve(args):
    options = AlmOptions(tol=args.tol, max_outer=args.max_iter,
                         use_criterion_b=args.criterion_b)
    out = args.out if args.out else args.problem + ".result"
    # a result that cannot be written is refused before the solve; the
    # default one lies beside the problem, whose own read names a missing
    # directory
    if os.path.isdir(out):
        raise IsADirectoryError(f"result path {out!r} is a directory")
    if args.out and not os.path.isdir(os.path.dirname(out) or "."):
        raise FileNotFoundError(f"result path {out!r}: no such directory")
    problem = parse_problem(args.problem)
    result = solve(problem, options, log=sys.stdout)
    write_result(result, out, include_solution=args.solution)
    print(f"status {result.status}  kkt {result.kkt_residual:.3e}  "
          f"outer {result.outer_iters}  newton {result.newton_iters}  "
          f"time {result.wall_time:.2f}s")
    print(f"result written to {out}")
    return EXIT_OK if result.status == alm.OPTIMAL else EXIT_NO_CONVERGENCE


def _cmd_gen(args):
    if args.family == "meb":
        _, problem = gen_meb(args.m, args.d)
    elif args.family == "trs":
        _, problem = gen_trs(args.d, args.seed)
    else:
        B, w = load_srlasso_csv(args.csv)
        lam = lambda_from_lambda_c(args.lambda_c, B.shape[1])
        _, problem = build_srlasso(B, w, lam)
    write_problem(problem, args.out)
    print(f"wrote {args.family} instance: m={problem.m} n={problem.n} "
          f"-> {args.out}")
    return EXIT_OK


def _cmd_check(args):
    problem = parse_problem(args.problem)
    kinds = {}
    for blk in problem.cone.blocks:
        kinds.setdefault(blk.kind, []).append(blk.dim)
    print(f"valid problem: m={problem.m} n={problem.n} "
          f"{'quadratic' if problem.is_quadratic else 'linear'}")
    for kind, dims in kinds.items():
        if len(dims) > 4:
            print(f"  {kind}: {len(dims)} blocks, dims "
                  f"{min(dims)}..{max(dims)}")
        else:
            print(f"  {kind}: dims {dims}")
    return EXIT_OK


def _cmd_diag(args):
    problem = parse_problem(args.problem)
    res = parse_result(args.result)
    if not res.has_solution:
        raise ProblemFormatError(
            f"{args.result}: no solution vectors stored; re-run solve with "
            "--solution")
    d1, d2, d3, d4, pobj, dobj = kkt_residuals(problem, res.x1, res.x2,
                                               res.x3, res.y)
    stored = (res.delta1, res.delta2, res.delta3, res.delta4)
    print("residual   recomputed       stored")
    agree = True
    for name, rec, st in zip(("delta1", "delta2", "delta3", "delta4"),
                             (d1, d2, d3, d4), stored):
        flag = ""
        if abs(rec - st) > 1e-12 * max(1.0, abs(st)):
            flag = "  MISMATCH"
            agree = False
        print(f"{name:8s} {rec:14.8e} {st:14.8e}{flag}")
    print(f"gap        pobj {pobj:.10e}  dobj {dobj:.10e}")
    report = alm.diagnose_strict_complementarity(problem, res)
    strict = sum(r.strictly_complementary for r in report)
    print(f"strict complementarity: {strict}/{len(report)} blocks")
    for rep in report:
        print(f"  block {rep.block_id:4d} [{rep.kind}] x3={rep.x3_status} "
              f"y={rep.y_status} {rep.category} margin={rep.margin:.3e}")
    if agree:
        return EXIT_OK
    # a result that does not belong to its problem is bad input
    print("error: stored residuals disagree with recomputation",
          file=sys.stderr)
    return EXIT_INPUT


def cli_main(argv) -> int:
    """Entry point used by the console script; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return EXIT_INPUT if err.code not in (0, None) else EXIT_OK
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "diag":
            return _cmd_diag(args)
        return EXIT_INPUT
    except (ProblemFormatError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as err:  # internal failure: keep the exit-code contract
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_INTERNAL


def main():
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
