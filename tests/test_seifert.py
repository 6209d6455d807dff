import random
from fractions import Fraction
from math import gcd

import pytest

from conftest import (
    brieskorn_signature,
    coprime_triples,
    lattice_signature,
    reciprocity_dedekind_sum,
)
from plumbcalc import (
    BrieskornTriple,
    DomainError,
    SeifertData,
    all_odd,
    brieskorn_seifert,
    brieskorn_signature_fast,
    canonical_form,
    determinant,
    linking_matrix,
    rohlin_from_signature,
    rohlin_mu_bar,
    star_plumbing,
)
from plumbcalc.fixtures import fixture_graph
from plumbcalc.seifert import _dedekind12


def brute_signature_fractions(a1, a2, a3):
    """Independent oracle: the same lattice count, written with Fractions
    and interval tests instead of modular integer arithmetic."""
    sig = 0
    for i in range(1, a1):
        for j in range(1, a2):
            for k in range(1, a3):
                s = (Fraction(i, a1) + Fraction(j, a2) + Fraction(k, a3)) % 2
                assert 0 < s < 2 and s != 1
                sig += 1 if s < 1 else -1
    return sig


def test_triple_validation():
    t = BrieskornTriple(13, 5, 9)
    assert t.indices == (5, 9, 13)  # stored sorted ascending
    with pytest.raises(DomainError):
        BrieskornTriple(3, 9, 5)  # gcd(3, 9) = 3
    with pytest.raises(DomainError):
        BrieskornTriple(1, 2, 3)
    with pytest.raises(DomainError):
        BrieskornTriple(3, 3, 5)
    for bad in (3.9, True, "3"):  # never truncated or coerced to an int
        with pytest.raises(DomainError, match="is not an integer"):
            BrieskornTriple(bad, 5, 7)


def test_seifert_data_validation():
    with pytest.raises(DomainError):
        SeifertData(b=-1, arms=((4, 2),))  # not coprime
    with pytest.raises(DomainError):
        SeifertData(b=-1, arms=((4, 5),))  # beta out of range
    for b, arms in [(-1.9, ((2, 1),)), (True, ((2, 1),)), ("-1", ((2, 1),)),
                    (-1, ((3.0, 1),)), (-1, ((3, True),)), (-1, (("3", 1),))]:
        with pytest.raises(DomainError, match="is not an integer"):
            SeifertData(b=b, arms=arms)


@pytest.mark.parametrize(
    "arms, fragment",
    [
        (((2,),), r"arms must be pairs, got \(2,\)"),
        (((3, 1, 1),), r"arms must be pairs, got \(3, 1, 1\)"),
        (("31",), "arms must be pairs, got '31'"),
        (None, "arms must be pairs, got None"),
    ],
)
def test_seifert_data_rejects_malformed_arms(arms, fragment):
    with pytest.raises(DomainError, match=fragment):
        SeifertData(b=-1, arms=arms)


def test_brieskorn_seifert_5_9_13():
    data = brieskorn_seifert(BrieskornTriple(5, 9, 13))
    assert data.b == -1
    assert data.arms == ((5, 2), (9, 4), (13, 2))
    assert data.euler_number() == Fraction(-1, 585)


def test_brieskorn_seifert_2_3_5():
    data = brieskorn_seifert(BrieskornTriple(2, 3, 5))
    assert data.b == -2
    assert data.arms == ((2, 1), (3, 2), (5, 4))


def test_homology_sphere_identity_random():
    rng = random.Random(7)
    triples = coprime_triples(2, 40)
    for a1, a2, a3 in rng.sample(triples, 60):
        t = BrieskornTriple(a1, a2, a3)
        data = brieskorn_seifert(t)
        a = t.product
        # integer form of e = -1/a
        assert a * data.b + sum(beta * (a // alpha) for alpha, beta in data.arms) == -1
        assert data.euler_number() == Fraction(-1, a)


def test_star_plumbing_5_9_13():
    g = star_plumbing(brieskorn_seifert(BrieskornTriple(5, 9, 13)))
    assert len(g) == 9
    assert g.weight("c") == -1
    # isomorphic to the hand-written d2 fixture, which orders the arms
    # differently
    assert canonical_form(g) == canonical_form(fixture_graph("d2"))


def test_star_plumbing_e8():
    g = star_plumbing(brieskorn_seifert(BrieskornTriple(2, 3, 5)))
    assert len(g) == 8
    assert all(w == -2 for _, w in g.vertices)
    assert g == fixture_graph("e8")


def test_star_plumbing_single_arm_is_chain():
    g = star_plumbing(SeifertData(b=-2, arms=((5, 2),)))
    # center plus the chain of -5/2: a path, every valence <= 2
    assert len(g) == 3
    assert all(g.valence(v) <= 2 for v in g.ids)
    with pytest.raises(DomainError, match="more than six arms"):
        star_plumbing(SeifertData(b=-1, arms=((2, 1),) * 7))


def test_all_odd():
    assert all_odd(BrieskornTriple(5, 9, 13))
    assert all_odd(BrieskornTriple(3, 13, 23))
    assert not all_odd(BrieskornTriple(2, 3, 5))


def test_signature_2_3_5():
    t = BrieskornTriple(2, 3, 5)
    assert brieskorn_signature(t) == -8
    assert brute_signature_fractions(2, 3, 5) == -8


def test_signature_matches_fraction_oracle():
    rng = random.Random(11)
    for a1, a2, a3 in rng.sample(coprime_triples(2, 14), 12):
        assert brieskorn_signature(BrieskornTriple(a1, a2, a3)) == brute_signature_fractions(
            a1, a2, a3
        )


def test_fast_signature_equals_brute():
    for a1, a2, a3 in coprime_triples(2, 12):
        t = BrieskornTriple(a1, a2, a3)
        assert brieskorn_signature_fast(t) == brieskorn_signature(t)
    rng = random.Random(13)
    triples = coprime_triples(2, 45)
    for a1, a2, a3 in rng.sample(triples, 40):
        t = BrieskornTriple(a1, a2, a3)
        assert brieskorn_signature_fast(t) == brieskorn_signature(t)


def test_mu_values_from_the_reduction_examples():
    # sigma = 8 (mod 16), i.e. sigma/8 odd, for both headline spheres
    assert brieskorn_signature(BrieskornTriple(5, 9, 13)) % 16 == 8
    assert brieskorn_signature(BrieskornTriple(3, 13, 23)) % 16 == 8
    assert rohlin_from_signature(BrieskornTriple(5, 9, 13)) == 1
    assert rohlin_from_signature(BrieskornTriple(3, 13, 23)) == 1


def test_mu_3_5_7_fixed_by_lattice_count():
    t = BrieskornTriple(3, 5, 7)
    sig = brieskorn_signature(t)
    assert sig == brute_signature_fractions(3, 5, 7) == -32
    mu = rohlin_from_signature(t)
    assert mu == (sig // 8) % 2 == 0
    assert mu == rohlin_mu_bar(star_plumbing(brieskorn_seifert(t)))


def test_rohlin_requires_all_odd():
    with pytest.raises(DomainError):
        rohlin_from_signature(BrieskornTriple(2, 3, 5))


def test_sigma_divisible_by_8_all_odd_sweep():
    for a1, a2, a3 in coprime_triples(3, 21, odd_only=True):
        assert brieskorn_signature(BrieskornTriple(a1, a2, a3)) % 8 == 0


def test_cross_method_mu_agreement_small_sweep():
    # the full <= 33 sweep is acceptance criterion 4; keep a faster one here
    for a1, a2, a3 in coprime_triples(3, 21, odd_only=True):
        t = BrieskornTriple(a1, a2, a3)
        g = star_plumbing(brieskorn_seifert(t))
        assert abs(determinant(linking_matrix(g))) == 1
        assert rohlin_from_signature(t) == rohlin_mu_bar(g)


def test_dedekind_sum_matches_definition():
    def saw(x):
        return Fraction(0) if x.denominator == 1 else x - x.numerator // x.denominator - Fraction(1, 2)

    for k in range(1, 30):
        for h in range(-k, 2 * k):
            if gcd(h, k) == 1:
                direct = sum(saw(Fraction(i, k)) * saw(Fraction(h * i, k)) for i in range(1, k))
                assert Fraction(_dedekind12(h, k), 12 * k) == direct, (h, k)


def test_dedekind_sum_matches_reciprocity():
    for k in range(1, 200):
        for h in range(k):
            if gcd(h, k) == 1:
                assert Fraction(_dedekind12(h, k), 12 * k) == reciprocity_dedekind_sum(h, k), (h, k)
    rng = random.Random(24)
    pairs = 0
    while pairs < 50:
        h, k = rng.randrange(10**99, 10**100), rng.randrange(10**99, 10**100)
        if gcd(h, k) == 1:
            assert Fraction(_dedekind12(h, k), 12 * k) == reciprocity_dedekind_sum(h, k), (h, k)
            pairs += 1


def test_casson_signature_equals_lattice_counts():
    # even indices included: the formula needs no parity
    for a1, a2, a3 in coprime_triples(2, 40):
        t = BrieskornTriple(a1, a2, a3)
        assert brieskorn_signature_fast(t) == lattice_signature(t), t.indices
    for a1, a2, a3 in coprime_triples(2, 15):
        t = BrieskornTriple(a1, a2, a3)
        assert brieskorn_signature_fast(t) == brieskorn_signature(t), t.indices


def test_casson_signature_large_triple():
    # the value of the O(a1*a2) lattice count at (1009, 1013, 1019)
    assert brieskorn_signature_fast(BrieskornTriple(1009, 1013, 1019)) == -347178080


def test_casson_signature_of_a_300_digit_triple():
    # the Casson formula over Fractions, with reciprocity Dedekind sums
    rng = random.Random(300)
    indices = [rng.randrange(10**299, 10**300) for _ in range(3)]
    while gcd(indices[0] * indices[1], indices[2]) != 1 or gcd(*indices[:2]) != 1:
        indices = [rng.randrange(10**299, 10**300) for _ in range(3)]
    t = BrieskornTriple(*indices)
    p, q, r = t.indices
    a = t.product
    oracle = (
        -1
        + Fraction(1 - a * a + (p * q) ** 2 + (q * r) ** 2 + (p * r) ** 2, 3 * a)
        - 4 * sum(reciprocity_dedekind_sum(a // m, m) for m in (p, q, r))
    )
    assert oracle.denominator == 1
    assert brieskorn_signature_fast(t) == oracle
