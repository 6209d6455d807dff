import random
from fractions import Fraction

import pytest

from conftest import eval_neg_cont_frac
from plumbcalc import DomainError, neg_cont_frac


def test_arm_weight_expansions():
    assert neg_cont_frac(Fraction(-5, 2)) == (-3, -2)
    assert neg_cont_frac(Fraction(-13, 2)) == (-7, -2)
    assert neg_cont_frac(Fraction(-9, 4)) == (-3, -2, -2, -2)
    assert neg_cont_frac(Fraction(-2, 1)) == (-2,)
    n = 10**5  # -(n+1)/n = -2 - 1/(-n/(n-1)) unrolls to n terms of -2
    assert neg_cont_frac(Fraction(-(n + 1), n)) == (-2,) * n


def test_expansion_of_sigma_3_13_23_arms():
    assert neg_cont_frac(Fraction(-3, 1)) == (-3,)
    assert neg_cont_frac(Fraction(-13, 3)) == (-5, -2, -2)
    assert neg_cont_frac(Fraction(-23, 10)) == (-3, -2, -2, -4)


def test_eval_examples():
    assert eval_neg_cont_frac([-3, -2]) == Fraction(-5, 2)
    assert eval_neg_cont_frac([-2]) == Fraction(-2)
    assert eval_neg_cont_frac([-3, -2, -2, -2]) == Fraction(-9, 4)


def test_round_trip_random():
    rng = random.Random(20260809)
    for _ in range(200):
        den = rng.randint(1, 400)
        num = -rng.randint(den + 1, 12 * den)  # x = num/den < -1
        x = Fraction(num, den)
        terms = neg_cont_frac(x)
        assert all(c <= -2 for c in terms)
        # at most |numerator| terms: each step strictly shrinks the denominator
        assert 1 <= len(terms) <= abs(x.numerator)
        assert eval_neg_cont_frac(terms) == x


def test_domain_errors():
    for bad in (Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(3, 2), Fraction(-2, 2),
                -1.5, "-9/4", True):
        with pytest.raises(DomainError):
            neg_cont_frac(bad)


def test_big_integer_exactness():
    # the scan can reach coefficients past 64 bits at extreme bounds; keep
    # the denominator small (expansion length is governed by the
    # denominator chain, e.g. -n/(n-1) expands to n-1 copies of -2)
    x = Fraction(-(2**80) - 1, 7)
    terms = neg_cont_frac(x)
    assert eval_neg_cont_frac(terms) == x
