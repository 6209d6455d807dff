"""Negative continued fractions of exact rationals.

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

__all__ = ["neg_cont_frac"]


def neg_cont_frac(x: Fraction | int) -> tuple[int, ...]:
    """Expand a rational x < -1 as the unique negative continued fraction
    with all terms <= -2.

    With x = n/d (d >= 1) each step takes c, r = divmod(n, d), so c = floor(x)
    and the remainder c - x is -r/d; it stops at r = 0 and otherwise goes on
    with x = -d/r, again < -1.  The denominator strictly decreases, so the
    expansion of -a/b has at most b terms.  Only an int or a Fraction is
    exact: a float's binary value can expand to ~10^14 terms, so any other
    type raises DomainError.
    """
    if type(x) not in (int, Fraction):
        raise DomainError(f"neg_cont_frac takes an int or a Fraction, got {x!r}")
    n, d = x.numerator, x.denominator
    if n >= -d:
        raise DomainError(f"neg_cont_frac requires x < -1, got {x}")
    terms = []
    while True:
        c, r = divmod(n, d)
        terms.append(c)
        if not r:
            return tuple(terms)
        n, d = -d, r
