"""Exact rational arithmetic helpers: negative continued fractions and
extended gcd.

Rationals are plain ``fractions.Fraction`` values, which already enforce the
canonical form we rely on (gcd(|num|, den) = 1, den >= 1, zero is 0/1).

A negative continued fraction is an expansion

    x = c1 - 1/(c2 - 1/(... - 1/ck))

with every term ci <= -2.  Such an expansion exists and is unique exactly for
rationals x < -1, and it is how a rational arm weight -alpha/beta unrolls
into the integer weights of a plumbing chain: the chain vertex adjacent to
the central vertex carries c1, the free end carries ck.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError

__all__ = ["bezout", "neg_cont_frac", "eval_neg_cont_frac"]


def bezout(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclid: return (g, u, v) with g = gcd(a, b) > 0 and
    u*a + v*b = g.  Raises DomainError on (0, 0) and on non-int arguments."""
    for n in (a, b):
        if type(n) is not int:  # a float would run inexactly, a bool silently
            raise DomainError(f"bezout argument {n!r} is not an integer")
    if a == 0 and b == 0:
        raise DomainError("bezout(0, 0) is undefined")
    # Invariants: u*a + v*b == g and nu*a + nv*b == ng throughout.
    u, nu = 1, 0
    v, nv = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        u, nu = nu, u - q * nu
        v, nv = nv, v - q * nv
        g, ng = ng, g - q * ng
    if g < 0:
        g, u, v = -g, -u, -v
    return g, u, v


def _check_chain(terms) -> tuple[int, ...]:
    terms = tuple(terms)
    if not terms:
        raise DomainError("continued-fraction term list must be nonempty")
    for c in terms:
        if type(c) is not int:
            raise DomainError(f"continued-fraction term {c!r} is not an integer")
        if c > -2:
            raise DomainError(f"continued-fraction term {c} exceeds -2")
    return terms


def neg_cont_frac(x: Fraction | int) -> tuple[int, ...]:
    """Expand a rational x < -1 as the unique negative continued fraction
    with all terms <= -2.

    The step rule is c = -ceil(a/b) for x = -a/b (equivalently c = floor(x)),
    recursing on the exact remainder; each step strictly decreases the
    denominator, so the expansion of -a/b has at most a terms.  Only an
    int or a Fraction is exact: a float's binary value can expand to ~10^14
    terms, so any other type raises DomainError.
    """
    if type(x) not in (int, Fraction):
        raise DomainError(f"neg_cont_frac takes an int or a Fraction, got {x!r}")
    x = Fraction(x)
    if x >= -1:
        raise DomainError(f"neg_cont_frac requires x < -1, got {x}")
    terms = []
    while True:
        c = x.numerator // x.denominator  # floor; equals x when integral
        terms.append(c)
        rem = c - x  # in (-1, 0]
        if rem == 0:
            return tuple(terms)
        x = 1 / rem  # again < -1, with strictly smaller denominator


def eval_neg_cont_frac(terms) -> Fraction:
    """Exactly evaluate c1 - 1/(c2 - 1/(...)); inverse of neg_cont_frac."""
    terms = _check_chain(terms)
    acc = Fraction(terms[-1])
    for c in reversed(terms[:-1]):
        acc = c - 1 / acc
    return acc
