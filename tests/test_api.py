"""The public surface, pinned: a change here is an API change, and the
change that makes it edits this file on purpose and says so."""

import argparse
import importlib

import plumbcalc
from plumbcalc.cli import build_parser

MODULE_ALL = {
    "plumbcalc": [
        "BrieskornTriple", "DEFAULT_BUDGET", "DEFAULT_SCAN_PARAMS", "DomainError",
        "GraphFormatError", "HypothesisError", "LinkingMatrix", "Move", "MoveError",
        "MoveTrace", "ParityError", "PlumbcalcError", "PlumbingGraph",
        "ReductionVerdict", "ScanParams", "ScanRecord", "SeifertData",
        "SingularError", "Verdict", "__version__", "absorb_zero", "all_odd",
        "all_odd_mu1_triples", "applicable_moves", "apply_move", "bezout",
        "blow_down", "blow_up", "brieskorn_seifert", "brieskorn_signature_fast",
        "cancel_zero_pair", "candidate_triple", "canonical_form", "determinant",
        "eval_neg_cont_frac", "format_graph", "format_trace", "linking_matrix",
        "mu_bar", "neg_cont_frac", "parse_graph", "parse_trace", "reduce_to_s3",
        "rohlin_from_signature", "rohlin_mu_bar", "scan_range", "signature",
        "split_zero", "star_plumbing", "surgery_coefficient", "to_dot", "wu_class",
    ],
    "plumbcalc.arith": ["bezout", "eval_neg_cont_frac", "neg_cont_frac"],
    "plumbcalc.calculus": [
        "DEFAULT_BUDGET", "Move", "MoveTrace", "ReductionVerdict", "Verdict",
        "absorb_zero", "applicable_moves", "apply_move", "blow_down", "blow_up",
        "blow_up_moves", "cancel_zero_pair", "canonical_form", "reduce_to_s3",
        "split_zero",
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

# Subcommand -> its arguments in order: option strings, or a positional's name.
CLI = {
    "check": ["-h --help", "a1", "a2", "a3"],
    "expand": ["-h --help", "num", "den"],
    "export-dot": ["-h --help", "graph"],
    "fixtures": ["-h --help", "--copy-to"],
    "invariants": ["-h --help", "graph"],
    "mu": ["-h --help", "a1", "a2", "a3", "--method"],
    "plumb": ["-h --help", "a1", "a2", "a3", "--out"],
    "reduce": ["-h --help", "graph", "--budget", "--blow-up-depth", "--trace"],
    "replay-trace": ["-h --help", "trace"],
    "scan": [
        "-h --help", "--p-bound", "--q-bound", "--r-range", "--s-range", "--out",
        "--format",
    ],
    "seifert": ["-h --help", "a1", "a2", "a3"],
}


def test_module_all_is_pinned():
    for name, expected in MODULE_ALL.items():
        module = importlib.import_module(name)
        assert sorted(module.__all__) == expected, name
        assert all(hasattr(module, attr) for attr in expected), name


def test_cli_subcommands_and_options_are_pinned():
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    surface = {
        command: [" ".join(a.option_strings) or a.dest for a in p._actions]
        for command, p in sub.choices.items()
    }
    assert surface == CLI
