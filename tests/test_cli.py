import os
import re
import shlex
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

from conftest import coprime_triples
from plumbcalc import (
    DEFAULT_SCAN_PARAMS,
    BrieskornTriple,
    Move,
    MoveTrace,
    PlumbingGraph,
    ReductionVerdict,
    Verdict,
    apply_move,
    candidate_triple,
    canonical_form,
    format_trace,
    parse_graph,
    parse_trace,
    reduce_to_s3,
    scan_range,
    surgery_coefficient,
)
from plumbcalc.cli import _surgery_witness, main
from plumbcalc.fixtures import FIXTURE_NAMES, fixture_graph, fixture_text
from plumbcalc.lattice import _graph_walk
from plumbcalc.errors import GraphFormatError, ParityError


NEEDS_DIGIT_LIMIT = pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="this interpreter has no int/str digit limit",
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- expand ----------------------------------------------------------------------


def test_expand(capsys):
    code, out, _ = run(capsys, "expand", "-9", "4")
    assert code == 0 and out == "-3 -2 -2 -2\n"
    code, out, _ = run(capsys, "expand", "-2", "1")
    assert code == 0 and out == "-2\n"
    code, out, _ = run(capsys, "expand", "-5", "3")
    assert code == 0 and out == "-2 -3\n"  # -2 - 1/(-3) = -5/3


def test_expand_domain_error(capsys):
    code, _, err = run(capsys, "expand", "-1", "2")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "expand", "3", "0")
    assert code == 2


# -- seifert / plumb ---------------------------------------------------------------


def test_seifert_output(capsys):
    code, out, _ = run(capsys, "seifert", "5", "9", "13")
    assert code == 0
    assert out == "b -1\narm 5 2\narm 9 4\narm 13 2\neuler -1/585\n"


def test_seifert_invalid_triple(capsys):
    code, _, err = run(capsys, "seifert", "3", "9", "5")
    assert code == 2 and "coprime" in err


def test_plumb_round_trips(capsys):
    code, out, _ = run(capsys, "plumb", "3", "13", "23")
    assert code == 0
    assert parse_graph(out) == fixture_graph("sigma-3-13-23")


# -- invariants ---------------------------------------------------------------------


def test_invariants_d2(capsys):
    code, out, _ = run(capsys, "invariants", "d2")
    assert code == 0
    assert out == (
        "vertices 9\nedges 8\ncomponents 1\ndet -1\nsignature -9\n"
        "wu c\nmu-bar -8\nrohlin 1\n"
    )


def test_invariants_e8_and_even_det(capsys, tmp_path):
    code, out, _ = run(capsys, "invariants", "e8")
    assert code == 0
    assert "det 1\n" in out and "wu -\n" in out and "rohlin 1\n" in out
    # even determinant: wu/mu-bar/rohlin lines are omitted
    f = tmp_path / "zero.graph"
    f.write_text("vertex a 0\n")
    code, out, _ = run(capsys, "invariants", str(f))
    assert code == 0
    assert out == "vertices 1\nedges 0\ncomponents 1\ndet 0\nsignature 0\n"


def test_invariants_long_path(capsys, tmp_path):
    # one linear walk: a dense cubic route would not finish
    f = tmp_path / "path.graph"
    f.write_text(
        "".join(f"vertex p{i:04d} -2\n" for i in range(3000))
        + "".join(f"edge p{i:04d} p{i + 1:04d}\n" for i in range(2999))
    )
    code, out, _ = run(capsys, "invariants", str(f))
    assert code == 0
    assert out == (
        "vertices 3000\nedges 2999\ncomponents 1\ndet 3001\nsignature -3000\n"
        "wu -\nmu-bar -3000\n"
    )


def test_invariants_and_reduce_print_big_integers(capsys, tmp_path):
    # |det| of this path has ~5000 digits, past Python's default int/str
    # digit limit; the CLI lifts it while it runs and restores it after
    f = tmp_path / "fat.graph"
    f.write_text(
        "".join(f"vertex p{i:04d} -100\n" for i in range(2500))
        + "".join(f"edge p{i:04d} p{i + 1:04d}\n" for i in range(2499))
    )
    det = _graph_walk(parse_graph(f.read_text()))[1]
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    code, out, err = run(capsys, "invariants", str(f))
    assert code == 0 and err == ""
    # Decimal reads the line with no digit limit
    assert Decimal(out.splitlines()[3].removeprefix("det ")) == det
    code, out, err = run(capsys, "reduce", str(f))
    assert code == 1 and err == ""
    assert Decimal(out.removeprefix("NOT-HS(").removesuffix(")\n")) == abs(det)
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit
    # and a weight too long for int() under the limit
    f.write_text(f"vertex a -{'9' * 5000}\n")
    code, out, err = run(capsys, "invariants", str(f))
    assert code == 0 and err == ""
    assert out.splitlines()[3] == f"det -{'9' * 5000}"


def test_invariants_omits_mu_bar_not_divisible_by_8(capsys, tmp_path):
    # boundary L(3, 1): odd det, so a Wu class, but mu-bar -2 is no multiple
    # of 8 and has no Rohlin meaning
    f = tmp_path / "l31.graph"
    f.write_text("vertex a -2\nvertex b -2\nedge a b\n")
    code, out, err = run(capsys, "invariants", str(f))
    assert code == 0 and err == ""
    assert out == "vertices 2\nedges 1\ncomponents 1\ndet 3\nsignature -2\nwu -\n"


# -- mu ---------------------------------------------------------------------------


def test_mu_both_methods(capsys):
    # all indices odd: "<lattice> <plumbing>"
    code, out, _ = run(capsys, "mu", "5", "9", "13")
    assert code == 0 and out == "1 1\n"
    code, out, _ = run(capsys, "mu", "3", "13", "23")
    assert code == 0 and out == "1 1\n"
    code, out, _ = run(capsys, "mu", "3", "5", "7")
    assert code == 0 and out == "0 0\n"


def test_mu_single_methods(capsys):
    # an even index leaves only the plumbing route; the lattice value is "-"
    code, out, err = run(capsys, "mu", "2", "3", "5")
    assert (code, out, err) == (0, "- 1\n", "")
    code, out, err = run(capsys, "mu", "2", "5", "7")
    assert (code, out, err) == (0, "- 0\n", "")


def test_mu_lattice_needs_all_odd(capsys, monkeypatch):
    # the signature route is not even tried on an even index
    import plumbcalc.cli as cli

    def refuse(t):
        raise AssertionError(f"lattice route called on {t.indices}")

    monkeypatch.setattr(cli, "rohlin_from_signature", refuse)
    code, out, _ = run(capsys, "mu", "2", "3", "5")
    assert code == 0 and out == "- 1\n"
    code, out, _ = run(capsys, "check", "2", "3", "5")
    assert "criterion rohlin-invariant-1: PASS (plumbing 1, lattice n/a: even index)" in out


def test_mu_invalid_triple(capsys):
    code, _, _ = run(capsys, "mu", "4", "6", "9")
    assert code == 2


def test_mu_signature_parity_error_exits_2(capsys, monkeypatch):
    # 8 divides the signature of every all-odd triple; a signature it does
    # not divide is a ParityError naming it, raised before mu prints a line
    import plumbcalc.seifert as seifert

    monkeypatch.setattr(seifert, "brieskorn_signature_fast", lambda t: 4)
    with pytest.raises(ParityError, match=r"^signature 4 of \(3, 5, 7\) is not divisible by 8$"):
        seifert.rohlin_from_signature(BrieskornTriple(3, 5, 7))
    code, out, err = run(capsys, "mu", "3", "5", "7")
    assert (code, out) == (2, "")
    assert err == "error: signature 4 of (3, 5, 7) is not divisible by 8\n"


def test_check_parity_error_prints_no_report_lines(capsys, monkeypatch):
    # check computes its triple and surgery lines before the mu routes; an
    # error there still leaves stdout empty, as every exit 2 does
    import plumbcalc.seifert as seifert

    monkeypatch.setattr(seifert, "brieskorn_signature_fast", lambda t: 4)
    code, out, err = run(capsys, "check", "3", "5", "7")
    assert (code, out) == (2, "")
    assert err == "error: signature 4 of (3, 5, 7) is not divisible by 8\n"


def test_invariants_parity_error_prints_no_report_lines(capsys, monkeypatch):
    # d3 has |det| = 1, so a mu-bar that 8 does not divide is an error, raised
    # after invariants has computed its first six lines
    import plumbcalc.cli as cli

    def refuse(g, sig, wu):
        raise ParityError("mu-bar 4 is not divisible by 8")

    monkeypatch.setattr(cli, "_mu_bar", refuse)
    code, out, err = run(capsys, "invariants", "d3")
    assert (code, out) == (2, "")
    assert err == "error: mu-bar 4 is not divisible by 8\n"


# -- reduce / replay ----------------------------------------------------------------


def test_reduce_d4(capsys):
    code, out, _ = run(capsys, "reduce", "d4")
    assert code == 0 and out == "S3\n"


def test_reduce_d3_with_trace(capsys, tmp_path):
    trace_file = tmp_path / "d3.trace"
    code, out, _ = run(capsys, "reduce", "d3", "--trace", str(trace_file))
    assert code == 0 and out == "S3\n"
    start, moves = parse_trace(trace_file.read_text(), source="d3.trace")
    assert start == fixture_graph("d3")
    assert len(moves) == 7
    # replay through the CLI as well
    code, out, _ = run(capsys, "replay-trace", str(trace_file))
    assert code == 0
    assert out.startswith("replay ok: 7 moves, end graph has 0 vertices")


def test_reduce_trace_comment_cannot_inject_graph_lines(capsys, tmp_path):
    # the graph's path goes into a trace comment; a line break in it must
    # stay inside the comment
    f = tmp_path / "g\nvertex q0 -1 #"
    f.write_text(fixture_text("d3"))
    trace_file = tmp_path / "t.trace"
    code, out, _ = run(capsys, "reduce", str(f), "--trace", str(trace_file))
    assert code == 0 and out == "S3\n"
    assert parse_trace(trace_file.read_text())[0] == fixture_graph("d3")
    code, out, _ = run(capsys, "replay-trace", str(trace_file))
    assert code == 0 and out == "replay ok: 7 moves, end graph has 0 vertices\n"


def test_reduce_e8_unknown(capsys):
    code, out, _ = run(capsys, "reduce", "e8")
    assert code == 1 and out == "UNKNOWN\n"


def test_reduce_not_hs(capsys, tmp_path):
    f = tmp_path / "m3.graph"
    f.write_text("vertex a -3\n")
    code, out, _ = run(capsys, "reduce", str(f))
    assert code == 1 and out == "NOT-HS(3)\n"


def test_reduce_budget(capsys):
    # the step budget is the library's only: the CLI knob is a usage error
    code, out, err = run(capsys, "reduce", "d3", "--budget", "2")
    assert code == 2 and out == "" and "--budget" in err


def test_reduce_parse_error(capsys, tmp_path):
    f = tmp_path / "bad.graph"
    f.write_text("vertex a -2\nedge a b\n")
    code, _, err = run(capsys, "reduce", str(f))
    assert code == 2 and "bad.graph:2" in err


INVALID_MOVES = [
    ("blowdown a", "cannot blow down 'a'"),
    # a move naming a missing vertex is a failed replay, whatever its kind
    ("blowdown zz", "no vertex 'zz'"),
    ("absorb zz", "no vertex 'zz'"),
    ("split zz", "no vertex 'zz'"),
    ("cancel a zz", "no vertex 'zz'"),
    ("blowup -1 zz qq", "no vertex 'qq'"),
]


@pytest.mark.parametrize("move, message", INVALID_MOVES, ids=[m for m, _ in INVALID_MOVES])
def test_replay_trace_rejects_invalid_moves(capsys, tmp_path, move, message):
    f = tmp_path / "bad.trace"
    f.write_text(f"vertex a -2\nvertex b 0\nedge a b\n{move}\n")
    code, out, err = run(capsys, "replay-trace", str(f))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def test_replay_trace_malformed_move_line_exits_2(capsys, tmp_path):
    # a move that fails without looking at a diagram is a malformed line
    f = tmp_path / "bad.trace"
    f.write_text("vertex a -2\nblowup 5 z a\n")
    expected_err = f"error: {f}:2: blow-up weight must be +-1, got 5\n"
    assert run(capsys, "replay-trace", str(f)) == (2, "", expected_err)


def test_replay_trace_missing_file(capsys):
    code, _, _ = run(capsys, "replay-trace", "/nonexistent/x.trace")
    assert code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["invariants", "/nonexistent/x.graph"], "/nonexistent/x.graph: no such file or fixture"),
        (["replay-trace", "/nonexistent/x.trace"], "/nonexistent/x.trace: no such file"),
        (["replay-trace", "x\0.trace"], "x\0.trace: no such file"),  # only main() can get a NUL
    ],
    ids=["graph", "trace", "trace-with-nul"],
)
def test_missing_path_messages(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("command", ["invariants", "reduce", "export-dot", "replay-trace"])
def test_directory_argument_exits_2(capsys, tmp_path, command):
    code, out, err = run(capsys, command, str(tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def run_process(*argv, input=None, stdout=subprocess.PIPE, **env):
    """The CLI as a fresh process, with src on PYTHONPATH, env added,
    input, if given, on its stdin and stdout, if given, as its stdout."""
    src = str(Path(__file__).parent.parent / "src")
    env = {**os.environ, **env, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, "-m", "plumbcalc.cli", *argv],
        input=input, stdout=stdout, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
    )


def test_cli_import_loads_no_resource_or_path_modules():
    # fixtures are files next to their module, read with open(), and
    # _diagonalize imports heapq when it runs; -S keeps the interpreter's
    # site hooks from importing any of these modules first
    code = ("import sys, plumbcalc.cli; "
            "print({'importlib.resources', 'pathlib', 'heapq'} & set(sys.modules))")
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")},
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "set()\n", "")


NEEDS_DEV_STDIN = pytest.mark.skipif(
    not os.path.exists("/dev/stdin"), reason="this system has no /dev/stdin"
)


@NEEDS_DEV_STDIN
def test_invariants_reads_a_pipe(capsys):
    # a pipe is not a regular file; it is read like one
    proc = run_process("invariants", "/dev/stdin", input=fixture_text("d2"))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, *run(capsys, "invariants", "d2")[1:])


@NEEDS_DEV_STDIN
def test_replay_trace_reads_a_pipe():
    text = (Path(__file__).parent / "data" / "d3.trace").read_text(encoding="utf-8")
    proc = run_process("replay-trace", "/dev/stdin", input=text)
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout == "replay ok: 7 moves, end graph has 0 vertices\n"


@pytest.mark.parametrize("argv", [["fixtures", "d2"], ["scan", "--format", "records"]])
def test_closed_stdout_exits_141_and_prints_nothing(argv):
    # the reader is gone before the child writes, so its first write fails:
    # a reader that stops early, like `| head -1`, is not a usage error
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = run_process(*argv, stdout=write_end)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, "")


@pytest.mark.parametrize("command", ["invariants", "reduce", "export-dot", "replay-trace"])
def test_undecodable_file_exits_2(tmp_path, command):
    # a file that is not UTF-8 is a format error with one line, not a traceback
    f = tmp_path / "latin1.graph"
    f.write_bytes(b"# caf\xe9\nvertex a -2\n")
    proc = run_process(command, str(f))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: {f}: not UTF-8 text (byte 5: invalid continuation byte)\n"


def test_trace_is_utf8_under_an_ascii_locale(capsys, tmp_path):
    # the graph's path goes into the trace's comment line; under an ASCII
    # locale its non-ASCII bytes reach the CLI undecoded, and the trace is
    # still written, as UTF-8 with those bytes escaped
    f = tmp_path / "dé3.graph"
    f.write_text(fixture_text("d3"), encoding="utf-8")
    trace_file = tmp_path / "t.trace"
    proc = run_process(
        "reduce", str(f), "--trace", str(trace_file),
        LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "S3\n", "")
    assert "d\\udcc3\\udca93.graph" in trace_file.read_text(encoding="utf-8")
    code, out, _ = run(capsys, "replay-trace", str(trace_file))
    assert code == 0 and out == "replay ok: 7 moves, end graph has 0 vertices\n"


def test_replay_trace_nonempty_end(capsys, tmp_path):
    f = tmp_path / "one.trace"
    f.write_text("vertex a -2\nvertex b -1\nedge a b\nblowdown b\n")
    code, out, _ = run(capsys, "replay-trace", str(f))
    assert code == 0
    assert out == "replay ok: 1 moves, end graph has 1 vertices\nvertex a -1\n"


# -- graph file diagnostics -----------------------------------------------------------


@pytest.mark.parametrize(
    "text,lineno,fragment",
    [
        ("vertex a -2\nvertex a -3\n", 2, "duplicate"),
        ("vertex a -2\nedge a a\n", 2, "loop"),
        ("vertex a -2\nvertex b 1\nedge a b\nedge b a\n", 4, "parallel"),
        ("vertex a -2\nedge a z\n", 2, "unknown vertex"),
        ("vertex a -2\nedge a b$\n", 2, "bad vertex id 'b$'"),
        ("vertex a x\n", 1, "not an integer"),
        ("vertx a -2\n", 1, "unknown directive"),
        ("vertex a -2\nvertex b -2\nvertex c -2\nedge a b\nedge b c\nedge a c\n", 6, "cycle"),
        ("vertex a\n", 1, "vertex line needs"),
        ("vertex a -2\nblowdown a\n", 2, "move line"),
        # weights are ASCII [+-]?[0-9]+, as format_graph writes them
        ("vertex a 1_0\n", 1, "weight '1_0' is not an integer"),
        pytest.param("vertex a \u0663\n", 1, "not an integer", id="non-ascii-digit"),
        # id errors come before weight errors
        ("vertex a$ x\n", 1, "bad vertex id 'a$'"),
        ("vertex a -2\nvertex a x\n", 2, "duplicate"),
        pytest.param(
            f"vertex a -{'9' * 5000}\n", 1, "sys.set_int_max_str_digits",
            id="weight-past-the-digit-limit", marks=NEEDS_DIGIT_LIMIT,
        ),
    ],
)
def test_graph_parse_diagnostics(text, lineno, fragment):
    with pytest.raises(GraphFormatError) as excinfo:
        parse_graph(text, source="doc")
    message = str(excinfo.value)
    assert message.startswith(f"doc:{lineno}:")
    assert fragment in message


def test_graph_file_comments_and_blanks_ok():
    g = parse_graph("# header\n\nvertex a -2   # trailing\nvertex b 0\nedge a b\n")
    assert len(g) == 2 and g.has_edge("a", "b")


LINE_BREAK_DOCUMENTS = [
    # only a line feed ends a line, so the form feed and U+2028 stay in their comments
    pytest.param("# note\x0cvertex a 5\nvertex b -1\n", id="form-feed-in-comment"),
    pytest.param("# note\u2028vertex a 5\nvertex b -1\n", id="line-separator-in-comment"),
    pytest.param("\ufeffvertex b -1\n", id="byte-order-mark"),
    pytest.param("# note\r\nvertex b -1\r\n", id="crlf"),
]


@pytest.mark.parametrize("text", LINE_BREAK_DOCUMENTS)
def test_graph_file_lines_end_at_line_feeds(text):
    assert parse_graph(text) == PlumbingGraph.build({"b": -1})


def test_graph_file_line_numbers_count_line_feeds():
    with pytest.raises(GraphFormatError, match="^doc:2: duplicate"):
        parse_graph("vertex a -2\u2028\nvertex a -3\n", source="doc")
    # a lone carriage return ends no line of a string
    with pytest.raises(GraphFormatError, match="^doc:1: vertex line needs"):
        parse_graph("vertex a -2\rvertex b -1\r", source="doc")


@pytest.mark.parametrize(
    "text", [*LINE_BREAK_DOCUMENTS, pytest.param("# note\rvertex b -1\r", id="cr")]
)
def test_cli_reads_line_breaks_in_files(capsys, tmp_path, text):
    # the CLI reads files with universal newlines, so there a lone \r ends a line
    f = tmp_path / "g.graph"
    f.write_bytes(text.encode("utf-8"))
    plain = tmp_path / "plain.graph"
    plain.write_text("vertex b -1\n")
    assert run(capsys, "invariants", str(f)) == run(capsys, "invariants", str(plain))


# -- scan ------------------------------------------------------------------------------


def test_scan_text_summary(capsys):
    code, out, _ = run(
        capsys, "scan", "--p-bound", "30", "--q-bound", "30",
        "--r-range", "1", "5", "--s-range", "1", "1",
    )
    assert code == 0
    assert "all-odd-mu1-triples 1\n" in out
    assert "hit 3 13 23\n" in out


def test_scan_records_format(capsys):
    code, out, _ = run(
        capsys, "scan", "--p-bound", "30", "--q-bound", "30",
        "--r-range", "1", "5", "--s-range", "1", "1", "--format", "records",
    )
    assert code == 0
    assert "p=-13 q=23 r=3 s=1 coefficient=1 triple=3,13,23 all_odd=true mu=1\n" in out
    assert out.startswith("# coefficient = r*s*(p+q)^2 + p*q\n")
    assert "extraction hypothesis" in out  # flagged in every report


def test_scan_records_determinism(capsys):
    args = ["scan", "--p-bound", "20", "--q-bound", "20", "--r-range", "-4", "4",
            "--s-range", "-4", "4", "--format", "records"]
    code, out1, _ = run(capsys, *args)
    assert code == 0
    code, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_scan_tiny_bounds_zero_hits(capsys):
    code, out, _ = run(capsys, "scan", "--p-bound", "5", "--q-bound", "5")
    assert code == 0
    assert "all-odd-mu1-triples 0\n" in out
    assert "hit" not in out


def test_scan_billion_box(capsys):
    code, out, _ = run(capsys, "scan", "--p-bound", "1000000000", "--q-bound", "1000000000")
    assert code == 0
    assert out.startswith("records 7616\n")


def test_scan_empty_range_usage_error(capsys):
    code, _, err = run(capsys, "scan", "--s-range", "0", "0")
    assert code == 2 and "empty" in err
    code, _, _ = run(capsys, "scan", "--r-range", "5", "3")
    assert code == 2


# -- export-dot ---------------------------------------------------------------------


DOT_NODE = re.compile(r'^  "([A-Za-z0-9_.\-]+)" \[label="([^"]*)"\];$')
DOT_EDGE = re.compile(r'^  "([A-Za-z0-9_.\-]+)" -- "([A-Za-z0-9_.\-]+)";$')


def parse_dot_subset(text):
    """Strict reader for the DOT subset the exporter emits; returns the
    node label map and edge list."""
    lines = text.splitlines()
    assert lines[0].startswith("graph ") and lines[0].endswith("{")
    assert lines[-1] == "}"
    nodes, edges = {}, []
    for line in lines[1:-1]:
        m = DOT_NODE.match(line)
        if m:
            nodes[m.group(1)] = m.group(2)
            continue
        m = DOT_EDGE.match(line)
        assert m, f"unparsable DOT line: {line!r}"
        edges.append((m.group(1), m.group(2)))
    return nodes, edges


def test_export_dot_round_trip(capsys):
    code, out, _ = run(capsys, "export-dot", "d2")
    assert code == 0
    nodes, edges = parse_dot_subset(out)
    g = fixture_graph("d2")
    assert set(nodes) == set(g.ids)
    for v, w in g.vertices:
        assert nodes[v] == f"{v}: {w}"
    assert sorted(tuple(sorted(e)) for e in edges) == list(g.edges)


def test_export_dot_empty(capsys, tmp_path):
    f = tmp_path / "empty.graph"
    f.write_text("# nothing\n")
    code, out, _ = run(capsys, "export-dot", str(f))
    assert code == 0
    assert out == "graph plumbing {\n}\n"


# -- check -------------------------------------------------------------------------


def test_check_3_13_23(capsys):
    code, out, _ = run(capsys, "check", "3", "13", "23")
    assert code == 0
    assert out.splitlines() == [
        "triple 3 13 23",
        "criterion surgery-coefficient-pm1: PASS (scan witness p=13 q=-23 r=1 s=3, coefficient 1)",
        "criterion rohlin-invariant-1: PASS (lattice 1, plumbing 1)",
        "criterion free-involution: PASS (all indices odd)",
        "result PASS",
    ]


def test_check_5_9_13(capsys, monkeypatch):
    code, out, _ = run(capsys, "check", "5", "9", "13")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "triple 5 9 13"
    assert lines[1].startswith("criterion surgery-coefficient-pm1: PASS (fixture d3")
    assert "7 moves" in lines[1]
    assert lines[2] == "criterion rohlin-invariant-1: PASS (lattice 1, plumbing 1)"
    assert lines[3] == "criterion free-involution: PASS (all indices odd)"
    assert lines[4] == "result PASS"
    # the fixture evidence counts only when the fixture reduces to S3
    import plumbcalc.cli as cli

    monkeypatch.setattr(cli, "reduce_to_s3", lambda g: (ReductionVerdict(Verdict.UNKNOWN), None))
    code, out, _ = run(capsys, "check", "5", "9", "13")
    assert code == 1
    lines = out.splitlines()
    assert lines[1] == "criterion surgery-coefficient-pm1: FAIL (fixture d3: UNKNOWN)"
    assert lines[4] == "result FAIL (1 of 3 criteria unmet)"


def test_check_witness_for_every_scanned_triple():
    # scan_range and _surgery_witness rest on the same lemma (opposite-signed
    # p, q and r*s >= 1); every triple the default scan extracts must get a
    # witness that extracts it back
    triples = {rec.triple for rec in scan_range(DEFAULT_SCAN_PARAMS) if rec.triple}
    assert len(triples) == 51
    for t in triples:
        witness = _surgery_witness(t)
        assert witness is not None
        assert abs(surgery_coefficient(*witness)) == 1
        assert candidate_triple(*witness) == t


def four_sign_witness(t):
    """The search over (p, q) in {(+-a, -+b)}, b-a orders and each index as
    r*s that the witness reduces to: the oracle for it."""
    idx = t.indices
    for rs_pos in range(3):
        rest = [idx[i] for i in range(3) if i != rs_pos]
        for pv, qv in (rest, rest[::-1]):
            for p in (pv, -pv):
                for q in (qv, -qv):
                    square = (p + q) ** 2
                    for target in (1, -1):
                        num = target - p * q
                        if num % square == 0 and abs(num // square) == idx[rs_pos]:
                            product = num // square
                            return (p, q, 1, product) if product > 0 else (p, q, -1, -product)
    return None


def test_witness_matches_four_sign_search():
    triples = coprime_triples(2, 40)
    found = 0
    for a1, a2, a3 in triples:
        t = BrieskornTriple(a1, a2, a3)
        witness = _surgery_witness(t)
        assert witness == four_sign_witness(t)
        found += witness is not None
    assert found > 0


def test_check_fails_on_even_triple(capsys):
    code, out, _ = run(capsys, "check", "2", "3", "5")
    assert code == 1
    assert "criterion free-involution: FAIL (even index 2)" in out
    assert "result FAIL" in out


# -- fixtures ----------------------------------------------------------------------


def test_fixtures_list_and_print(capsys):
    import plumbcalc.fixtures

    code, out, _ = run(capsys, "fixtures")
    assert code == 0
    assert out == "".join(f"{name}\n" for name in FIXTURE_NAMES)
    shipped = Path(plumbcalc.fixtures.__file__).parent
    for name in FIXTURE_NAMES:
        code, out, _ = run(capsys, "fixtures", name)
        assert code == 0
        assert out == (shipped / f"{name}.graph").read_text(encoding="utf-8")
        assert parse_graph(out) == fixture_graph(name)
    code, out, err = run(capsys, "fixtures", "d5")
    assert (code, out) == (2, "")
    assert err.startswith("error: no fixture 'd5'") and err.count("\n") == 1


def test_graph_argument_accepts_path_and_fixture_name(capsys, tmp_path):
    f = tmp_path / "g.graph"
    f.write_text("vertex a -2\nvertex b 0\nedge a b\n")
    code, out1, _ = run(capsys, "export-dot", str(f))
    assert code == 0
    code, _, err = run(capsys, "export-dot", "no-such-thing")
    assert code == 2 and "no such file or fixture" in err
    # fixture name with suffix also resolves
    code, out_a, _ = run(capsys, "export-dot", "d4")
    code, out_b, _ = run(capsys, "export-dot", "d4.graph")
    assert out_a == out_b
    code, _, err = run(capsys, "export-dot", "d4.graph.graph")  # one suffix only
    assert code == 2 and "no such file or fixture" in err


def test_usage_errors_exit_2(capsys):
    assert main(["expand", "-9"]) == 2  # missing positional
    assert main(["unknown-subcommand"]) == 2
    capsys.readouterr()


def test_canonical_reduction_outputs_are_stable(capsys):
    # byte-identical stdout across runs for a representative command set
    for argv in (["invariants", "d2"], ["reduce", "d3"], ["check", "5", "9", "13"]):
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert (code1, out1) == (code2, out2)


def test_trace_files_end_with_canonical_d4_state(capsys, tmp_path):
    trace_file = tmp_path / "t.trace"
    run(capsys, "reduce", "d3", "--trace", str(trace_file))
    start, moves = parse_trace(trace_file.read_text())
    from plumbcalc import apply_move

    g = start
    forms = [canonical_form(g)]
    for m in moves:
        g = apply_move(g, m)
        forms.append(canonical_form(g))
    assert canonical_form(fixture_graph("d4")) in forms
    assert g.is_empty


@pytest.mark.parametrize(
    "argv",
    [
        ["reduce", "d3", "--trace", "{missing}/t"],
        ["reduce", "d3", "--trace", "{dir}"],
        ["reduce", "d3", "--trace", "{dir}/t\0"],  # only main() can get a NUL
        ["reduce", "d3", "--trace", ""],  # a path no file can have, not "no trace"
    ],
    ids=["reduce", "reduce-onto-directory", "reduce-to-nul-path", "reduce-to-empty-path"],
)
def test_unwritable_output_file_exits_2(capsys, tmp_path, argv):
    # the trace is the one file the CLI writes
    missing = tmp_path / "no-such-dir"
    code, out, err = run(capsys, *(arg.format(missing=missing, dir=tmp_path) for arg in argv))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_mu_disagreement_exits_3(capsys, monkeypatch):
    # the two routes genuinely agree everywhere, so force a fake mismatch to
    # pin the exit-code contract
    import plumbcalc.cli as cli

    monkeypatch.setattr(cli, "rohlin_from_signature", lambda t: 0)
    code, out, err = run(capsys, "mu", "5", "9", "13")
    assert code == 3
    assert out == "0 1\n"
    assert "disagree" in err
    code, out, err = run(capsys, "check", "3", "13", "23")
    assert code == 3
    assert out.endswith("criterion rohlin-invariant-1: FAIL (lattice 0, plumbing 1)\n")
    assert "disagree" in err


def test_internal_error_exits_70_with_one_line(capsys, monkeypatch):
    import plumbcalc.cli as cli

    def boom(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_seifert", boom)
    code, out, err = run(capsys, "seifert", "5", "9", "13")
    assert code == 70
    assert out == ""
    assert err == "internal error: RuntimeError: boom\n"


def test_check_triple_without_witness_or_fixture(capsys):
    # (3,5,7): no +-1 coefficient assignment exists and no fixture evidence
    # is shipped, and its mu is 0; two criteria fail
    code, out, _ = run(capsys, "check", "3", "5", "7")
    assert code == 1
    assert "criterion surgery-coefficient-pm1: FAIL (no witness found)" in out
    assert "criterion rohlin-invariant-1: FAIL (lattice 0, plumbing 0)" in out
    assert "criterion free-involution: PASS" in out
    assert "result FAIL (2 of 3 criteria unmet)" in out


@pytest.mark.parametrize(
    "move_line,fragment",
    [
        ("absorb", "malformed move: absorb with 0 vertex id(s)"),
        ("absorb b c", "malformed move: absorb with 2 vertex id(s)"),
        ("split", "malformed move: split with 0 vertex id(s)"),
        ("split b c", "malformed move: split with 2 vertex id(s)"),
        ("absorb b$", "bad vertex id 'b$'"),
        ("split b!", "bad vertex id 'b!'"),
        ("blowup -1", "malformed move: blowup with 0 vertex id(s)"),
        ("blowup x z0 a", "blow-up weight 'x' is not an integer"),
        ("blowup 1_0 z0 a", "blow-up weight '1_0' is not an integer"),
        ("blowup x z$ a", "bad vertex id 'z$'"),
        ("blowup 5 z0 a", "blow-up weight must be +-1, got 5"),
        ("blowup 0 z0", "blow-up weight must be +-1, got 0"),
        ("blowup -1 z0 a a", "blow-up attaches to at most 2 distinct vertices"),
        pytest.param(
            f"blowup -{'9' * 5000} z0 a", "sys.set_int_max_str_digits",
            id="blow-up-weight-past-the-digit-limit", marks=NEEDS_DIGIT_LIMIT,
        ),
    ],
)
def test_trace_parse_move_diagnostics(move_line, fragment):
    text = f"vertex a -2\nvertex b 0\nvertex c 3\nedge a b\nedge b c\n{move_line}\n"
    with pytest.raises(GraphFormatError) as excinfo:
        parse_trace(text, source="t")
    assert str(excinfo.value).startswith("t:6:")
    assert fragment in str(excinfo.value)


def test_trace_round_trip_absorb_and_split():
    start = parse_graph(
        "vertex a -2\nvertex b 0\nvertex c 3\nvertex d -1\nvertex e 0\n"
        "edge a b\nedge b c\nedge c d\nedge c e\n"
    )
    moves = (Move("absorb", ("b",)), Move("split", ("e",)))
    g = start
    for m in moves:
        g = apply_move(g, m)
    assert dict(g.vertices) == {"d": -1}
    text = format_trace(MoveTrace(start, moves, g))
    assert text.endswith("absorb b\nsplit e\n")
    parsed_start, parsed = parse_trace(text)
    assert parsed_start == start and parsed == list(moves)
    assert MoveTrace(parsed_start, tuple(parsed), g).replay() == g


def test_breadth_first_d3_trace_still_replays(capsys):
    # the d3 trace as the breadth-first reducer wrote it
    trace = Path(__file__).parent / "data" / "d3.trace"
    start, moves = parse_trace(trace.read_text(), source=str(trace))
    assert start == fixture_graph("d3") and len(moves) == 7
    code, out, _ = run(capsys, "replay-trace", str(trace))
    assert code == 0
    assert out == "replay ok: 7 moves, end graph has 0 vertices\n"


BLOWUP300 = Path(__file__).parent / "data" / "blowup300.trace"


def test_blowup300_trace_pins_the_pass():
    # 300 random blow-ups of the empty diagram (random.Random(300)), reduced
    # by `plumbcalc reduce blowup300 --trace blowup300.trace`
    start, moves = parse_trace(BLOWUP300.read_text())
    verdict, trace = reduce_to_s3(start)
    assert verdict.status is Verdict.S3
    assert len(start) == 300 and len(moves) == 283
    text = format_trace(trace, comments=["reduction of blowup300 to the empty diagram"])
    assert text == BLOWUP300.read_text()


def test_reduce_and_replay_build_few_graphs(capsys, monkeypatch):
    # moves edit one private diagram; only the graph it ends as is built
    start, _ = parse_trace(BLOWUP300.read_text())
    e8 = fixture_graph("e8")
    build = PlumbingGraph.build.__func__
    calls = []

    def counted(cls, *args, **kwargs):
        calls.append(cls)
        return build(cls, *args, **kwargs)

    monkeypatch.setattr(PlumbingGraph, "build", classmethod(counted))
    assert reduce_to_s3(start)[0].status is Verdict.S3
    assert 1 <= len(calls) <= 3
    calls.clear()
    # and the search that follows a pass that stops short builds no graph per state
    verdict, _ = reduce_to_s3(e8, budget=20000, blow_up_depth=2)
    assert verdict.status is Verdict.UNKNOWN and verdict.budget_exhausted is False
    assert 1 <= len(calls) <= 3
    calls.clear()
    code, out, _ = run(capsys, "replay-trace", str(BLOWUP300))
    assert code == 0 and out == "replay ok: 283 moves, end graph has 0 vertices\n"
    assert 1 <= len(calls) <= 3


def test_trace_parser_rejects_graph_lines_after_moves():
    with pytest.raises(GraphFormatError) as excinfo:
        parse_trace("vertex a -1\nblowdown a\nvertex b -2\n")
    assert "doc" not in str(excinfo.value)
    assert ":3:" in str(excinfo.value)


# -- README tour ------------------------------------------------------------------

README = Path(__file__).parent.parent / "README.md"


def readme_tour():
    """(argv, shown stdout) for each "$ plumbcalc ..." line of the README's
    console block; a command's output is the non-blank lines up to the next
    command."""
    block = README.read_text().split("```console\n", 1)[1].split("```", 1)[0]
    tour = []
    for line in block.splitlines():
        if line.startswith("$ "):
            tour.append((shlex.split(line[2:], comments=True)[1:], []))
        elif line and tour:
            tour[-1][1].append(line + "\n")
    return [(argv, "".join(shown)) for argv, shown in tour]


def test_readme_tour_stdout(capsys, tmp_path, monkeypatch):
    # in order and in one directory: the reduce --trace file feeds replay-trace
    monkeypatch.chdir(tmp_path)
    tour = readme_tour()
    assert len(tour) == 10
    for argv, shown in tour:
        code, out, err = run(capsys, *argv)
        assert code in (0, 1) and err == "", argv
        assert out == shown, argv
