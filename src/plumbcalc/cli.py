"""Command-line front end.

Subcommands: expand, seifert, plumb, invariants, mu, reduce, scan,
export-dot, replay-trace, check, fixtures.

Exit codes are fixed so shell scripts need no output parsing:
  0  success / positive verdict
  1  negative verdict (reduce did not reach S3, replay failed, check failed)
  2  usage or domain error (bad flags, unparsable file, invalid triple,
     unwritable trace file)
  3  cross-check failure (the two mu routes disagree)
  141  stdout closed early, as by ``| head`` (what a shell reports for SIGPIPE)

Reports go to stdout; the one file written is the ``reduce --trace`` file.
Every command is deterministic: identical invocations produce byte-identical
stdout and trace files.  Graph and trace arguments accept any readable path,
a pipe or /dev/stdin included; a graph argument that names no existing path
is looked up as a shipped fixture (d2, d3, d4, e8, sigma-3-13-23).
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from .calculus import Verdict, _replay, reduce_to_s3
from .errors import (
    DomainError,
    GraphFormatError,
    MoveError,
    ParityError,
    PlumbcalcError,
)
from .fixtures import FIXTURE_NAMES, fixture_graph, fixture_text
from .graphio import format_graph, format_trace, parse_graph, parse_trace, to_dot
from .graphs import PlumbingGraph
from .lattice import _graph_walk, _mu_bar, rohlin_mu_bar
from .scan import (
    DEFAULT_SCAN_PARAMS,
    ScanParams,
    all_odd_mu1_triples,
    surgery_coefficient,
    scan_range,
)
from .seifert import (
    BrieskornTriple,
    all_odd,
    brieskorn_seifert,
    rohlin_from_signature,
    star_plumbing,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_DISAGREE = 3

# Evidence for the +-1-surgery criterion when no scan witness exists: these
# diagrams realize "the sphere plus one added handle is S^3", which exhibits
# the sphere as integer surgery on a knot.
_FIXTURE_SURGERY_EVIDENCE = {(5, 9, 13): "d3"}


def _read_text(path: str) -> str:
    """The text at path, read as UTF-8; GraphFormatError, not a traceback,
    when there is no such file or it is not UTF-8."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError as exc:
        raise GraphFormatError(
            f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})"
        ) from None
    except (FileNotFoundError, ValueError):  # ValueError: a NUL byte, which no path holds
        raise GraphFormatError(f"{path}: no such file") from None


def _load_graph(arg: str) -> PlumbingGraph:
    if os.path.exists(arg):
        return parse_graph(_read_text(arg), source=arg)
    try:
        return fixture_graph(arg)
    except DomainError:
        raise GraphFormatError(f"{arg}: no such file or fixture") from None


def _triple(args) -> BrieskornTriple:
    return BrieskornTriple(args.a1, args.a2, args.a3)


# -- subcommands ---------------------------------------------------------------


def cmd_expand(args) -> int:
    try:
        x = Fraction(args.num, args.den)
    except ZeroDivisionError:
        raise DomainError("denominator must be nonzero") from None
    from .arith import neg_cont_frac

    print(" ".join(str(c) for c in neg_cont_frac(x)))
    return EXIT_OK


def cmd_seifert(args) -> int:
    data = brieskorn_seifert(_triple(args))
    print(f"b {data.b}")
    for alpha, beta in data.arms:
        print(f"arm {alpha} {beta}")
    print(f"euler {data.euler_number()}")
    return EXIT_OK


def cmd_plumb(args) -> int:
    t = _triple(args)
    g = star_plumbing(brieskorn_seifert(t))
    sys.stdout.write(format_graph(g, comments=[f"star plumbing with boundary Sigma{t.indices}"]))
    return EXIT_OK


def cmd_invariants(args) -> int:
    g = _load_graph(args.graph)
    sig, det, wu = _graph_walk(g)
    print(f"vertices {len(g)}")
    print(f"edges {len(g.edges)}")
    print(f"components {len(g.components())}")
    print(f"det {det}")
    print(f"signature {sig}")
    if det % 2:
        print(f"wu {','.join(sorted(wu)) or '-'}")
        try:
            mu = _mu_bar(g, sig, wu)
        except ParityError:
            if abs(det) == 1:  # 8 divides mu-bar of every homology sphere
                raise
            return EXIT_OK
        print(f"mu-bar {mu}")
        if abs(det) == 1:
            print(f"rohlin {mu // 8 % 2}")
    return EXIT_OK


def _mu_routes(t: BrieskornTriple):
    """(lattice, plumbing): the Rohlin invariant of Sigma(t) from the
    Milnor-fiber signature (None when an index is even: the fiber is not
    spin) and from the star plumbing's mu-bar.  Both present and unequal
    is a cross-check failure, EXIT_DISAGREE; this prints its error line."""
    lattice = rohlin_from_signature(t) if all_odd(t) else None
    plumbing = rohlin_mu_bar(star_plumbing(brieskorn_seifert(t)))
    if lattice not in (None, plumbing):
        print("mu methods disagree", file=sys.stderr)
    return lattice, plumbing


def cmd_mu(args) -> int:
    lattice, plumbing = _mu_routes(_triple(args))
    print(f"{'-' if lattice is None else lattice} {plumbing}")
    return EXIT_OK if lattice in (None, plumbing) else EXIT_DISAGREE


def cmd_reduce(args) -> int:
    g = _load_graph(args.graph)
    verdict, trace = reduce_to_s3(g)
    if verdict.status is Verdict.S3 and args.trace:
        # UTF-8, as _read_text reads it; a path byte the locale could not
        # decode is escaped in the comment instead of failing the write
        text = format_trace(trace, comments=[f"reduction of {args.graph} to the empty diagram"])
        try:
            with open(args.trace, "w", encoding="utf-8", errors="backslashreplace") as f:
                f.write(text)
        except ValueError:  # a NUL byte, which no path holds
            raise DomainError(f"{args.trace}: no such file") from None
    print(str(verdict))
    return EXIT_OK if verdict.status is Verdict.S3 else EXIT_NEGATIVE


def _record_lines(records):
    yield "# coefficient = r*s*(p+q)^2 + p*q"
    yield "# triple = sorted(|r*s|, |p|, |q|): extraction hypothesis, not derived"
    for rec in records:
        if rec.triple is None:
            triple = odd = mu = "-"
        else:
            triple = ",".join(str(a) for a in rec.triple.indices)
            odd = "true" if rec.all_odd else "false"
            mu = str(rec.mu) if rec.mu is not None else "-"
        yield (
            f"p={rec.p} q={rec.q} r={rec.r} s={rec.s} "
            f"coefficient={rec.coefficient} triple={triple} all_odd={odd} mu={mu}"
        )


def _scan_summary_lines(records):
    triples = {rec.triple for rec in records if rec.triple is not None}
    odd_triples = {rec.triple for rec in records if rec.all_odd}
    mu1_records = sum(1 for rec in records if rec.all_odd and rec.mu == 1)
    hits = all_odd_mu1_triples(records)
    yield f"records {len(records)}"
    yield f"triples {len(triples)}"
    yield f"all-odd-triples {len(odd_triples)}"
    yield f"all-odd-mu1-records {mu1_records}"
    yield f"all-odd-mu1-triples {len(hits)}"
    for t in hits:
        yield f"hit {t.a1} {t.a2} {t.a3}"


def cmd_scan(args) -> int:
    records = scan_range(
        ScanParams(args.p_bound, args.q_bound, tuple(args.r_range), tuple(args.s_range))
    )
    lines = _record_lines(records) if args.format == "records" else _scan_summary_lines(records)
    for line in lines:
        print(line)
    return EXIT_OK


def cmd_export_dot(args) -> int:
    g = _load_graph(args.graph)
    sys.stdout.write(to_dot(g))
    return EXIT_OK


def cmd_replay_trace(args) -> int:
    start, moves = parse_trace(_read_text(args.trace), source=args.trace)
    g = _replay(start, moves)
    print(f"replay ok: {len(moves)} moves, end graph has {len(g)} vertices")
    end_text = format_graph(g)
    if end_text:
        sys.stdout.write(end_text)
    return EXIT_OK


def _surgery_witness(t: BrieskornTriple):
    """Find (p, q, r, s) with coefficient +-1 whose extracted triple is t.
    A +-1 tuple has p, q of opposite signs and r*s >= 1 (see ``scan``), so
    its coefficient is r*s*(|p|-|q|)^2 - |p|*|q| whatever the signs and order,
    and it is enough to try (a, -b, 1, k) for each index k of t in order,
    with (a, b) the other two."""
    idx = t.indices
    for i, k in enumerate(idx):
        a, b = idx[:i] + idx[i + 1 :]
        if abs(surgery_coefficient(a, -b, 1, k)) == 1:
            return a, -b, 1, k
    return None


def cmd_check(args) -> int:
    """Report the three checkable construction criteria for a triple:
    attainability as +-1 surgery on a knot, Rohlin invariant 1, and the
    all-indices-odd condition that makes the circle-action involution free."""
    t = _triple(args)
    print(f"triple {t.a1} {t.a2} {t.a3}")
    ok = 0

    witness = _surgery_witness(t)
    if witness is not None:
        p, q, r, s = witness
        coeff = surgery_coefficient(p, q, r, s)
        print(
            "criterion surgery-coefficient-pm1: PASS "
            f"(scan witness p={p} q={q} r={r} s={s}, coefficient {coeff})"
        )
        ok += 1
    elif t.indices in _FIXTURE_SURGERY_EVIDENCE:
        name = _FIXTURE_SURGERY_EVIDENCE[t.indices]
        verdict, trace = reduce_to_s3(fixture_graph(name))
        if verdict.status is Verdict.S3:
            print(
                "criterion surgery-coefficient-pm1: PASS "
                f"(fixture {name}: sphere plus one -1-framed handle reduces to S3 "
                f"in {len(trace.moves)} moves)"
            )
            ok += 1
        else:
            print(f"criterion surgery-coefficient-pm1: FAIL (fixture {name}: {verdict})")
    else:
        print("criterion surgery-coefficient-pm1: FAIL (no witness found)")

    lattice, plumbing = _mu_routes(t)
    status = "PASS" if plumbing == 1 and lattice in (None, 1) else "FAIL"
    routes = (
        f"plumbing {plumbing}, lattice n/a: even index" if lattice is None
        else f"lattice {lattice}, plumbing {plumbing}"
    )
    print(f"criterion rohlin-invariant-1: {status} ({routes})")
    if lattice not in (None, plumbing):
        return EXIT_DISAGREE
    ok += status == "PASS"

    if all_odd(t):
        print("criterion free-involution: PASS (all indices odd)")
        ok += 1
    else:
        evens = [a for a in t.indices if a % 2 == 0]
        print(f"criterion free-involution: FAIL (even index {evens[0]})")

    if ok == 3:
        print("result PASS")
        return EXIT_OK
    print(f"result FAIL ({3 - ok} of 3 criteria unmet)")
    return EXIT_NEGATIVE


def cmd_fixtures(args) -> int:
    if args.name is not None:
        sys.stdout.write(fixture_text(args.name))
    else:
        for name in FIXTURE_NAMES:
            print(name)
    return EXIT_OK


# -- parser / dispatch ----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plumbcalc",
        description="Exact invariants and calculus for plumbed 3-manifolds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="negative continued fraction of num/den < -1")
    p.add_argument("num", type=int)
    p.add_argument("den", type=int)
    p.set_defaults(func=cmd_expand)

    def add_triple(p):
        p.add_argument("a1", type=int)
        p.add_argument("a2", type=int)
        p.add_argument("a3", type=int)

    p = sub.add_parser("seifert", help="Seifert data of a Brieskorn triple")
    add_triple(p)
    p.set_defaults(func=cmd_seifert)

    p = sub.add_parser("plumb", help="star plumbing graph file of a Brieskorn triple")
    add_triple(p)
    p.set_defaults(func=cmd_plumb)

    p = sub.add_parser("invariants", help="det, signature, Wu class, mu-bar of a graph")
    p.add_argument("graph", help="graph file path or fixture name")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("mu", help="Rohlin invariant: signature ('-': even index), mu-bar")
    add_triple(p)
    p.set_defaults(func=cmd_mu)

    p = sub.add_parser("reduce", help="certify a diagram as S3 by plumbing moves")
    p.add_argument("graph", help="graph file path or fixture name")
    p.add_argument("--trace", metavar="FILE", help="write the move trace on S3")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("scan", help="enumerate +-1 surgery coefficients")
    p.add_argument("--p-bound", type=int, default=DEFAULT_SCAN_PARAMS.p_bound)
    p.add_argument("--q-bound", type=int, default=DEFAULT_SCAN_PARAMS.q_bound)
    p.add_argument(
        "--r-range", type=int, nargs=2, metavar=("LO", "HI"),
        default=list(DEFAULT_SCAN_PARAMS.r_range),
    )
    p.add_argument(
        "--s-range", type=int, nargs=2, metavar=("LO", "HI"),
        default=list(DEFAULT_SCAN_PARAMS.s_range),
    )
    p.add_argument("--format", choices=("text", "records"), default="text")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("export-dot", help="DOT rendering of a graph")
    p.add_argument("graph", help="graph file path or fixture name")
    p.set_defaults(func=cmd_export_dot)

    p = sub.add_parser("replay-trace", help="replay and verify a move trace file")
    p.add_argument("trace")
    p.set_defaults(func=cmd_replay_trace)

    p = sub.add_parser("check", help="construction-criteria report for a triple")
    add_triple(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("fixtures", help="list the shipped fixtures, or print one")
    p.add_argument("name", nargs="?", help="print this fixture's graph file")
    p.set_defaults(func=cmd_fixtures)

    return parser


def main(argv=None) -> int:
    # Integers are exact at any size: lift Python's int/str digit limit
    # (3.10.7+), a guard against quadratic parsing, while a command runs.
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if digit_limit:
        sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except BrokenPipeError:  # the reader left: the rest goes to devnull, and no error line
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, what a shell reports for a process SIGPIPE ended
    except MoveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    except (PlumbcalcError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if digit_limit:
            sys.set_int_max_str_digits(digit_limit)


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
