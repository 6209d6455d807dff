"""The public surface, pinned: a change here is an API change, and the
change that makes it edits this file on purpose and says so."""

import argparse
import enum
import importlib
import inspect

import plumbcalc
from plumbcalc.cli import build_parser

MODULE_ALL = {
    "plumbcalc": [
        "BrieskornTriple", "DEFAULT_BUDGET", "DEFAULT_SCAN_PARAMS", "DomainError",
        "GraphFormatError", "HypothesisError", "LinkingMatrix", "Move", "MoveError",
        "MoveTrace", "ParityError", "PlumbcalcError", "PlumbingGraph",
        "ReductionVerdict", "ScanParams", "ScanRecord", "SeifertData", "SingularError",
        "VERTEX_ID_RE", "Verdict", "__version__", "all_odd", "all_odd_mu1_triples",
        "applicable_moves", "apply_move", "blow_up", "blow_up_moves",
        "brieskorn_seifert", "brieskorn_signature_fast", "candidate_triple",
        "canonical_form", "determinant", "format_graph", "format_trace",
        "linking_matrix", "mu_bar", "neg_cont_frac", "parse_graph", "parse_trace",
        "reduce_to_s3", "rohlin_from_signature", "rohlin_mu_bar", "scan_range",
        "signature", "star_plumbing", "surgery_coefficient", "to_dot", "wu_class",
    ],
    "plumbcalc.arith": ["neg_cont_frac"],
    "plumbcalc.calculus": [
        "DEFAULT_BUDGET", "Move", "MoveTrace", "ReductionVerdict", "Verdict",
        "applicable_moves", "apply_move", "blow_up", "blow_up_moves",
        "canonical_form", "reduce_to_s3",
    ],
    "plumbcalc.errors": [
        "DomainError", "GraphFormatError", "HypothesisError", "MoveError",
        "ParityError", "PlumbcalcError", "SingularError",
    ],
    "plumbcalc.fixtures": ["FIXTURE_NAMES", "fixture_graph", "fixture_text"],
    "plumbcalc.graphio": [
        "format_graph", "format_trace", "parse_graph", "parse_trace", "to_dot",
    ],
    "plumbcalc.graphs": ["PlumbingGraph", "VERTEX_ID_RE"],
    "plumbcalc.lattice": [
        "LinkingMatrix", "determinant", "linking_matrix", "mu_bar", "rohlin_mu_bar",
        "signature", "wu_class",
    ],
    "plumbcalc.scan": [
        "DEFAULT_SCAN_PARAMS", "ScanParams", "ScanRecord", "all_odd_mu1_triples",
        "candidate_triple", "scan_range", "surgery_coefficient",
    ],
    "plumbcalc.seifert": [
        "BrieskornTriple", "SeifertData", "all_odd", "brieskorn_seifert",
        "brieskorn_signature_fast", "rohlin_from_signature", "star_plumbing",
    ],
}

# Public callable -> str(inspect.signature(...)): the functions and the
# dataclasses.  The exception classes and the Verdict enum are left out:
# their constructors are Python's, not this package's.
SIGNATURES = {
    "BrieskornTriple": "(a1: 'int', a2: 'int', a3: 'int') -> None",
    "LinkingMatrix": (
        "(index: 'tuple[str, ...]', weights: 'tuple[int, ...]', "
        "edges: 'tuple[tuple[int, int, int], ...]') -> None"
    ),
    "Move": (
        "(kind: 'str', ids: 'tuple[str, ...]', weight: 'int | None' = None, "
        "pre: 'tuple[tuple[str, int], ...] | None' = None) -> None"
    ),
    "MoveTrace": (
        "(start: 'PlumbingGraph', moves: 'tuple[Move, ...]', end: 'PlumbingGraph') -> None"
    ),
    "PlumbingGraph": (
        "(vertices: 'tuple[tuple[str, int], ...]', "
        "edges: 'tuple[tuple[str, str], ...]') -> None"
    ),
    "ReductionVerdict": (
        "(status: 'Verdict', det_abs: 'int | None' = None, "
        "budget_exhausted: 'bool | None' = None) -> None"
    ),
    "ScanParams": (
        "(p_bound: 'int', q_bound: 'int', r_range: 'tuple[int, int]', "
        "s_range: 'tuple[int, int]') -> None"
    ),
    "ScanRecord": (
        "(p: 'int', q: 'int', r: 'int', s: 'int', triple: 'BrieskornTriple | None', "
        "all_odd: 'bool | None', mu: 'int | None') -> None"
    ),
    "SeifertData": "(b: 'int', arms: 'tuple[tuple[int, int], ...]') -> None",
    "all_odd": "(t: 'BrieskornTriple') -> 'bool'",
    "all_odd_mu1_triples": "(records) -> 'list[BrieskornTriple]'",
    "applicable_moves": "(g: 'PlumbingGraph') -> 'list[Move]'",
    "apply_move": "(g: 'PlumbingGraph', move: 'Move') -> 'PlumbingGraph'",
    "blow_up": (
        "(g: 'PlumbingGraph', new_id: 'str', weight: 'int', "
        "attach: 'tuple[str, ...]' = ()) -> 'PlumbingGraph'"
    ),
    "blow_up_moves": "(g: 'PlumbingGraph') -> 'list[Move]'",
    "brieskorn_seifert": "(t: 'BrieskornTriple') -> 'SeifertData'",
    "brieskorn_signature_fast": "(t: 'BrieskornTriple') -> 'int'",
    "candidate_triple": "(p: 'int', q: 'int', r: 'int', s: 'int') -> 'BrieskornTriple'",
    "canonical_form": "(g: 'PlumbingGraph') -> 'str'",
    "determinant": "(m) -> 'int'",
    "fixture_graph": "(name: str) -> plumbcalc.graphs.PlumbingGraph",
    "fixture_text": "(name: str) -> str",
    "format_graph": "(g: 'PlumbingGraph', comments=()) -> 'str'",
    "format_trace": "(trace: 'MoveTrace', comments=()) -> 'str'",
    "linking_matrix": "(g: 'PlumbingGraph') -> 'LinkingMatrix'",
    "mu_bar": "(g: 'PlumbingGraph') -> 'int'",
    "neg_cont_frac": "(x: 'Fraction | int') -> 'tuple[int, ...]'",
    "parse_graph": "(text: 'str', source: 'str' = '<graph>') -> 'PlumbingGraph'",
    "parse_trace": (
        "(text: 'str', source: 'str' = '<trace>') -> 'tuple[PlumbingGraph, list[Move]]'"
    ),
    "reduce_to_s3": (
        "(g: 'PlumbingGraph', budget: 'int' = 100000, "
        "blow_up_depth: 'int' = 0) -> 'tuple[ReductionVerdict, MoveTrace | None]'"
    ),
    "rohlin_from_signature": "(t: 'BrieskornTriple') -> 'int'",
    "rohlin_mu_bar": "(g: 'PlumbingGraph') -> 'int'",
    "scan_range": "(params: 'ScanParams') -> 'list[ScanRecord]'",
    "signature": "(m) -> 'int'",
    "star_plumbing": "(s: 'SeifertData') -> 'PlumbingGraph'",
    "surgery_coefficient": "(p: 'int', q: 'int', r: 'int', s: 'int') -> 'int'",
    "to_dot": "(g: 'PlumbingGraph') -> 'str'",
    "wu_class": "(g: 'PlumbingGraph') -> 'frozenset[str]'",
}

# Subcommand -> its arguments in order: option strings, or a positional's name.
CLI = {
    "check": ["-h --help", "a1", "a2", "a3"],
    "expand": ["-h --help", "num", "den"],
    "export-dot": ["-h --help", "graph"],
    "fixtures": ["-h --help", "name"],
    "invariants": ["-h --help", "graph"],
    "mu": ["-h --help", "a1", "a2", "a3"],
    "plumb": ["-h --help", "a1", "a2", "a3"],
    "reduce": ["-h --help", "graph", "--trace"],
    "replay-trace": ["-h --help", "trace"],
    "scan": [
        "-h --help", "--p-bound", "--q-bound", "--r-range", "--s-range", "--format",
    ],
    "seifert": ["-h --help", "a1", "a2", "a3"],
}


def test_module_all_is_pinned():
    for name, expected in MODULE_ALL.items():
        module = importlib.import_module(name)
        assert sorted(module.__all__) == expected, name
        assert all(hasattr(module, attr) for attr in expected), name


def test_package_exports_its_core_modules_names():
    # each public name is declared once, in its module, and re-exported as is
    core = ["errors", "arith", "graphs", "graphio", "lattice", "seifert", "calculus", "scan"]
    modules = [importlib.import_module(f"plumbcalc.{name}") for name in core]
    names = [name for module in modules for name in module.__all__]
    assert len(set(names)) == len(names)
    assert sorted(plumbcalc.__all__) == sorted(["__version__", *names])
    for module in modules:
        for name in module.__all__:
            assert getattr(plumbcalc, name) is getattr(module, name), name


def test_public_signatures_are_pinned():
    signatures = {}
    for name, expected in MODULE_ALL.items():
        module = importlib.import_module(name)
        for attr in expected:
            obj = getattr(module, attr)
            if isinstance(obj, type) and issubclass(obj, (BaseException, enum.Enum)):
                continue
            if callable(obj):
                signatures[attr] = str(inspect.signature(obj))
    assert signatures == SIGNATURES


def test_cli_subcommands_and_options_are_pinned():
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    surface = {
        command: [" ".join(a.option_strings) or a.dest for a in p._actions]
        for command, p in sub.choices.items()
    }
    assert surface == CLI
