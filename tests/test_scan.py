import random
from math import gcd

import pytest

from plumbcalc import (
    DEFAULT_SCAN_PARAMS,
    BrieskornTriple,
    ScanRecord,
    DomainError,
    HypothesisError,
    ScanParams,
    all_odd,
    all_odd_mu1_triples,
    candidate_triple,
    surgery_coefficient,
    rohlin_from_signature,
    scan_range,
)
from plumbcalc import seifert
from plumbcalc.scan import _unit_solutions


def coefficient_oracle(p, q, r, s):
    # same value computed without the squared binomial
    return r * s * (p * p + 2 * p * q + q * q) + p * q


def naive_scan(params):
    """Brute-force quadruple loop with no filtering optimizations."""
    hits = []
    for p in range(-params.p_bound, params.p_bound + 1):
        if abs(p) < 2:
            continue
        for q in range(-params.q_bound, params.q_bound + 1):
            if abs(q) < 2 or gcd(p, q) != 1:
                continue
            for r in range(params.r_range[0], params.r_range[1] + 1):
                if r == 0:
                    continue
                for s in range(params.s_range[0], params.s_range[1] + 1):
                    if s == 0:
                        continue
                    if abs(surgery_coefficient(p, q, r, s)) == 1:
                        hits.append((p, q, r, s))
    hits.sort(key=lambda t: (abs(t[0]), abs(t[1]), t[2], t[3], t[0], t[1]))
    return hits


def pair_scan(params):
    """The (p, q) pair loop: for each coprime p, q in the box and each target
    +-1, r*s = (target - p*q) / (p+q)^2 when that divides, then every r in
    its range.  Cost grows with the area of the box; the oracle for boxes the
    quadruple loop cannot afford."""
    def signed(bound):
        return [x for m in range(2, bound + 1) for x in (-m, m)]

    r_lo, r_hi = params.r_range
    s_lo, s_hi = params.s_range
    mu_cache = {}
    records = []
    for p in signed(params.p_bound):
        for q in signed(params.q_bound):
            if gcd(p, q) != 1:
                continue
            square = (p + q) ** 2
            for target in (1, -1):
                num = target - p * q
                if num % square:
                    continue
                product = num // square
                for r in range(r_lo, r_hi + 1):
                    if r == 0 or product % r:
                        continue
                    s = product // r
                    if s == 0 or not s_lo <= s <= s_hi:
                        continue
                    if abs(r * s) < 2:
                        records.append(ScanRecord(p, q, r, s, None, None, None))
                        continue
                    t = candidate_triple(p, q, r, s)
                    mu = None
                    if all_odd(t):
                        if t not in mu_cache:
                            mu_cache[t] = rohlin_from_signature(t)
                        mu = mu_cache[t]
                    records.append(ScanRecord(p, q, r, s, t, all_odd(t), mu))
    records.sort(key=lambda rec: rec.sort_key)
    return records


def test_coefficient_examples():
    assert surgery_coefficient(-13, 23, 3, 1) == 1
    assert surgery_coefficient(1, 1, 0, 0) == 1
    rng = random.Random(8)
    for _ in range(500):
        p, q, r, s = (rng.randint(-200, 200) for _ in range(4))
        assert surgery_coefficient(p, q, r, s) == coefficient_oracle(p, q, r, s)


def test_candidate_triple_examples():
    assert candidate_triple(-13, 23, 3, 1).indices == (3, 13, 23)
    with pytest.raises(HypothesisError):
        candidate_triple(2, -5, 1, 1)  # coefficient -1 but |r*s| = 1
    with pytest.raises(DomainError):
        candidate_triple(2, 2, 1, 1)  # violates |coefficient| = 1 / gcd
    with pytest.raises(DomainError):
        candidate_triple(-13, 23, 3, 2)  # coefficient 301
    with pytest.raises(DomainError, match="coprime"):
        candidate_triple(1, -1, 2, 3)  # coefficient -1 but |p| = 1


def test_candidate_triples_always_coprime():
    # every |coefficient| = 1 tuple on a small grid extracts a pairwise
    # coprime triple (or raises HypothesisError); coprimality is forced by
    # the coefficient identity
    params = ScanParams(p_bound=12, q_bound=12, r_range=(-6, 6), s_range=(-6, 6))
    for p, q, r, s in naive_scan(params):
        try:
            t = candidate_triple(p, q, r, s)
        except HypothesisError:
            assert abs(r * s) < 2
            continue
        a1, a2, a3 = t.indices
        assert gcd(a1, a2) == gcd(a1, a3) == gcd(a2, a3) == 1
        assert {a1, a2, a3} == {abs(r * s), abs(p), abs(q)}


def test_scan_params_validation():
    with pytest.raises(DomainError):
        ScanParams(p_bound=0, q_bound=5, r_range=(1, 2), s_range=(1, 2))
    with pytest.raises(DomainError):
        ScanParams(p_bound=5, q_bound=5, r_range=(3, 1), s_range=(1, 2))
    with pytest.raises(DomainError):
        ScanParams(p_bound=5, q_bound=5, r_range=(1, 2), s_range=(0, 0))
    # a range like (-1, 1) is fine: it means {-1, 1}
    ScanParams(p_bound=5, q_bound=5, r_range=(-1, 1), s_range=(1, 1))
    # bounds and range ends are ints, and ranges are (lo, hi) pairs
    for bad in [
        dict(p_bound=10.0), dict(q_bound="10"), dict(p_bound=True),
        dict(r_range=(-2.5, 2)), dict(s_range=(-2, "2")), dict(r_range=(False, 1)),
        dict(r_range=(1,)), dict(s_range=(1, 2, 3)), dict(r_range=[1, 2]), dict(s_range=None),
    ]:
        fields = dict(p_bound=10, q_bound=10, r_range=(-2, 2), s_range=(-2, 2)) | bad
        with pytest.raises(DomainError, match="not an integer|not a .lo, hi. pair"):
            ScanParams(**fields)


def test_scan_matches_naive_quadruple_loop():
    params = ScanParams(p_bound=12, q_bound=12, r_range=(-6, 6), s_range=(-6, 6))
    records = scan_range(params)
    assert [(rec.p, rec.q, rec.r, rec.s) for rec in records] == naive_scan(params)


def test_scan_matches_naive_on_asymmetric_ranges():
    params = ScanParams(p_bound=9, q_bound=14, r_range=(1, 7), s_range=(-3, 2))
    records = scan_range(params)
    assert [(rec.p, rec.q, rec.r, rec.s) for rec in records] == naive_scan(params)


def test_scan_record_fields_are_consistent():
    params = ScanParams(p_bound=30, q_bound=30, r_range=(-5, 5), s_range=(-5, 5))
    for rec in scan_range(params):
        assert abs(rec.coefficient) == 1
        if rec.triple is None:
            assert abs(rec.r * rec.s) < 2
            assert rec.all_odd is None and rec.mu is None
        else:
            assert rec.triple == candidate_triple(rec.p, rec.q, rec.r, rec.s)
            assert rec.all_odd == all_odd(rec.triple)
            if rec.all_odd:
                assert rec.mu == rohlin_from_signature(rec.triple)
            else:
                assert rec.mu is None


def test_scan_contains_sigma_3_13_23_point():
    params = ScanParams(p_bound=30, q_bound=30, r_range=(1, 5), s_range=(1, 1))
    records = scan_range(params)
    matches = [rec for rec in records if (rec.p, rec.q, rec.r, rec.s) == (-13, 23, 3, 1)]
    assert len(matches) == 1
    rec = matches[0]
    assert rec.coefficient == 1
    assert rec.triple == BrieskornTriple(3, 13, 23)
    assert rec.all_odd is True
    assert rec.mu == 1


def test_scan_deterministic_and_sorted():
    params = ScanParams(p_bound=20, q_bound=20, r_range=(-4, 4), s_range=(-4, 4))
    a = scan_range(params)
    b = scan_range(params)
    assert a == b
    keys = [rec.sort_key for rec in a]
    assert keys == sorted(keys)


def test_all_odd_mu1_triples_helper():
    params = ScanParams(p_bound=30, q_bound=30, r_range=(1, 5), s_range=(1, 1))
    hits = all_odd_mu1_triples(scan_range(params))
    assert hits == [BrieskornTriple(3, 13, 23)]


def test_tiny_bounds_have_no_all_odd_hits():
    # with |p|, |q| <= 5 every extracted triple contains an even index
    params = ScanParams(p_bound=5, q_bound=5, r_range=(-20, 20), s_range=(-20, 20))
    records = scan_range(params)
    assert records  # there are coefficient +-1 hits...
    assert all_odd_mu1_triples(records) == []  # ...but none all-odd
    assert all(not rec.all_odd for rec in records if rec.triple is not None)


def test_scan_computes_one_signature_per_solution(monkeypatch):
    # the four sign choices of one (k, x, y) solution share one mu, computed
    # once through the public signature name
    signatures = []
    fast = seifert.brieskorn_signature_fast
    monkeypatch.setattr(seifert, "brieskorn_signature_fast",
                        lambda t: signatures.append(t) or fast(t))
    records = scan_range(DEFAULT_SCAN_PARAMS)
    solutions = {(abs(rec.r * rec.s), min(abs(rec.p), abs(rec.q)), max(abs(rec.p), abs(rec.q)))
                 for rec in records if rec.all_odd}
    assert solutions and len(signatures) == len(solutions)


@pytest.mark.parametrize(
    "params",
    [
        ScanParams(p_bound=60, q_bound=57, r_range=(-1000, 1000), s_range=(-1000, 1000)),
        ScanParams(p_bound=250, q_bound=247, r_range=(-20, 20), s_range=(-20, 20)),
        ScanParams(p_bound=17, q_bound=90, r_range=(-7, 30), s_range=(-12, 3)),
        ScanParams(p_bound=90, q_bound=8, r_range=(2, 9), s_range=(-4, 40)),
        # r*s = 13*12 + 1 = p_bound*q_bound + 1, the largest k that can hit
        ScanParams(p_bound=13, q_bound=12, r_range=(-200, 200), s_range=(-200, 200)),
    ],
    ids=["narrow", "wide", "asymmetric-q", "asymmetric-p", "largest-k"],
)
def test_scan_matches_pair_scan(params):
    records = scan_range(params)
    assert records
    assert records == pair_scan(params)


def test_scan_one_signed_ranges():
    # opposite-signed r and s give r*s < 0, which never yields +-1
    params = ScanParams(p_bound=60, q_bound=60, r_range=(1, 40), s_range=(-40, -1))
    assert scan_range(params) == pair_scan(params) == []
    params = ScanParams(p_bound=60, q_bound=60, r_range=(-30, -1), s_range=(-30, -1))
    records = scan_range(params)
    assert records and all(rec.r < 0 and rec.s < 0 for rec in records)
    assert records == pair_scan(params)


def test_unit_solutions_match_brute_force():
    bound = 300
    expected = {}
    for x in range(3, bound + 1):
        for y in range(2, x):
            if gcd(x, y) != 1:
                continue
            square = (x - y) ** 2
            for target in (1, -1):
                if (x * y + target) % square == 0:
                    expected.setdefault((x * y + target) // square, set()).add((x, y))
    assert len(expected) > 900
    for k in range(1, max(expected) + 2):
        got = list(_unit_solutions(k, bound))
        assert len(got) == len(set(got))
        assert set(got) == expected.get(k, set()), k


def test_large_box_scan():
    # |p|, |q| <= 10^9: out of reach of any loop over the (p, q) box
    records = scan_range(ScanParams(10**9, 10**9, (-20, 20), (-20, 20)))
    assert all(abs(rec.coefficient) == 1 for rec in records)
    keys = [rec.sort_key for rec in records]
    assert keys == sorted(keys)
    assert len(records) == 7616
    assert len({rec.triple for rec in records if rec.all_odd}) == 111
    small = ScanParams(600, 600, (-20, 20), (-20, 20))
    restricted = [rec for rec in records if abs(rec.p) <= 600 and abs(rec.q) <= 600]
    assert restricted == scan_range(small)
