"""The CLI's exit-code contract under seeded random input.

Every invocation ends with exit code 0, 1, 2 or 3, never with an exception
escaping ``cli.main`` (a traceback at the shell), and a usage or domain
error (exit 2) prints nothing to stdout.  The cases are drawn from one
seeded generator:

- argv follows the subcommand table that ``tests/test_api.py`` pins, with
  each argument filled from a pool of tokens: small, huge, negative and
  zero ints, non-ASCII digits, floats, empty strings, fixture names;
  options and positionals are sometimes dropped, and a stray token is
  sometimes added;
- graph and trace arguments name generated files, mutated line by line
  (lines dropped, duplicated, swapped or cut, a token replaced, bad bytes
  inserted), or fixtures, missing paths, paths holding a NUL byte and a
  directory.

Known gaps, inputs whose cost grows with a value rather than its digits, so
the generator keeps that value small:

- ``mu``, ``check`` and ``plumb`` with a large index: each builds the star
  plumbing, whose arms grow with the index; indices stay <= 10^4;
- ``scan`` with a huge ``--r-range`` or ``--s-range``: its cost grows with
  K = max r*s by design; ranges stay within +-60;
- ``expand`` of a fraction just below -1: -(n+1)/n has n terms, so a
  denominator stays <= 10^4.
"""

import random
from pathlib import Path

import pytest

from conftest import coprime_triples, random_forest
from test_api import CLI
from plumbcalc import format_graph, format_trace, reduce_to_s3
from plumbcalc.cli import main
from plumbcalc.fixtures import FIXTURE_NAMES, fixture_graph, fixture_text

CASES = 400
S3_FIXTURES = ("d3", "d4")  # the fixtures that reduce_to_s3 takes to S3
SMALL = 10**4
DATA = Path(__file__).parent / "data"


def _int_token(rng: random.Random, limit: int | None = None) -> str:
    """An argument meant as an int, or something that only looks like one;
    the magnitude stays <= limit when a limit is given."""
    kind = rng.randrange(9)
    if kind == 0:
        return "0"
    if kind == 1:
        return str(rng.randint(-limit if limit else -(10**40), limit or 10**40))
    if kind == 2:
        n = rng.randint(2, 60)
        return "".join(chr(0x0660 + int(d)) for d in str(n))  # Arabic-Indic digits
    if kind == 3:
        return rng.choice(["2.5", "1e3", "-7.0", "nan", "", " ", "0x1f", "5_000", "+13", "-"])
    if kind == 4:
        return rng.choice(FIXTURE_NAMES)
    return str(rng.randint(-5, 60))


def _mutated(rng: random.Random, text: str) -> bytes:
    lines = text.splitlines(keepends=True) or ["\n"]
    for _ in range(rng.randint(0, 3)):
        i = rng.randrange(len(lines))
        op = rng.randrange(6)
        if op == 0 and len(lines) > 1:
            del lines[i]
        elif op == 1:
            lines.insert(i, lines[i])
        elif op == 2:
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == 3:
            lines[i] = lines[i][: rng.randrange(len(lines[i]) + 1)]
        elif op == 4:
            words = lines[i].split()
            if words:
                words[rng.randrange(len(words))] = _int_token(rng)
            lines[i] = " ".join(words) + "\n"
        else:
            cut = rng.randrange(len(lines[i]) + 1)
            bad = rng.choice(["\udcff", "\x00", "\r", "\t", "\u0663", "\u00e9", "\ufeff"])
            lines[i] = lines[i][:cut] + bad + lines[i][cut:]
    return "".join(lines).encode("utf-8", "surrogateescape")


def _graph_texts(rng: random.Random):
    texts = [fixture_text(name) for name in FIXTURE_NAMES]
    texts += [format_graph(random_forest(rng, max_vertices=8)) for _ in range(20)]
    return texts


def _trace_texts(rng: random.Random):
    texts = [(DATA / "d3.trace").read_text(encoding="utf-8")]
    for name in ("d3", "d4"):
        texts.append(format_trace(reduce_to_s3(fixture_graph(name))[1]))
    return texts


class _Argv:
    """Fills each argument of the pinned CLI table with a random token."""

    def __init__(self, rng, tmp_path):
        self.rng = rng
        self.tmp = tmp_path
        self.graphs = _graph_texts(rng)
        self.traces = _trace_texts(rng)
        self.triples = list(coprime_triples(2, 30))
        self.files = 0
        self.valid = {}

    def _file(self, texts) -> str:
        self.files += 1
        path = self.tmp / f"case{self.files}"
        path.write_bytes(_mutated(self.rng, self.rng.choice(texts)))
        return str(path)

    def _path(self, texts, other) -> str:
        kind = self.rng.randrange(10)
        if kind == 0:
            return str(self.tmp / self.rng.choice(["missing/x", "nul\0x"]))
        if kind == 1:
            return str(self.tmp)
        if kind == 2:
            return self.rng.choice(FIXTURE_NAMES)
        if kind == 3:
            return self._file(other)  # the other kind of document
        return self._file(texts)

    def fill(self, command: str, arg: str) -> list[str]:
        rng = self.rng
        small = command in ("mu", "check", "plumb")
        if arg in self.valid:
            return [str(self.valid[arg])]
        if arg == "-h --help":
            return ["--help"] if rng.random() < 0.02 else []
        if arg in ("a1", "a2", "a3", "num"):
            return [_int_token(rng, SMALL if small else None)]
        if arg == "den":
            return [_int_token(rng, SMALL)]
        if arg == "graph":
            return [self._path(self.graphs, self.traces)]
        if arg == "trace":
            return [self._path(self.traces, self.graphs)]
        if arg == "name":
            return rng.choice([[], [rng.choice(FIXTURE_NAMES)], [_int_token(rng)]])
        if arg == "--trace":
            target = rng.choice([self.tmp / "out.trace", self.tmp, self.tmp / "missing" / "t",
                                 self.tmp / "nul\0t"])
            return rng.choice([[], ["--trace", str(target)]])
        if arg in ("--p-bound", "--q-bound"):
            return rng.choice([[], [arg, _int_token(rng, SMALL)]])
        if arg in ("--r-range", "--s-range"):
            return rng.choice([[], [arg, _int_token(rng, 60), _int_token(rng, 60)]])
        if arg == "--format":
            return rng.choice([[], [arg, rng.choice(["text", "records", "json"])]])
        raise AssertionError(f"no generator for {command} {arg}: extend this test")

    def argv(self) -> list[str]:
        rng = self.rng
        command = rng.choice(sorted(CLI))
        # half the cases give the numeric positionals a valid value, so that
        # the commands behind argparse run too
        self.valid = {}
        if rng.random() < 0.5:
            den = rng.randint(1, SMALL)
            self.valid = dict(zip(("a1", "a2", "a3"), rng.choice(self.triples)))
            self.valid.update(num=-rng.randint(den + 1, 10**40), den=den)
        # a missing argument is a usage error
        parts = {arg: self.fill(command, arg) for arg in CLI[command] if rng.random() >= 0.05}
        if "graph" in parts and parts.get("--trace") and rng.random() < 0.5:
            # reduce writes its trace only on S3, so give it a graph that gets S3
            parts["graph"] = [rng.choice(S3_FIXTURES)]
        argv = [command, *(token for tokens in parts.values() for token in tokens)]
        if rng.random() < 0.05:
            argv.insert(rng.randrange(1, len(argv) + 1), _int_token(rng))
        return argv


def test_exit_code_contract(capsys, tmp_path):
    gen = _Argv(random.Random(8128), tmp_path)
    codes = []
    nul_trace_writes = 0
    for _ in range(CASES):
        argv = gen.argv()
        if (len(argv) == 4 and argv[0] == "reduce" and argv[1] in S3_FIXTURES
                and argv[2] == "--trace" and "\0" in argv[3]):
            nul_trace_writes += 1
        try:
            code = main(argv)
        except Exception as exc:  # a traceback at the shell
            pytest.fail(f"{argv!r}: {exc!r} escaped cli.main")
        out, err = capsys.readouterr()
        assert code in (0, 1, 2, 3), argv
        assert "Traceback" not in err, argv
        if code == 2:
            assert out == "", argv
        codes.append(code)
    # the generator reaches both sides of the contract
    assert codes.count(0) >= CASES // 10 and codes.count(2) >= CASES // 10
    # and the trace write of an S3 verdict, with a path no file can have
    assert nul_trace_writes >= 1, nul_trace_writes
