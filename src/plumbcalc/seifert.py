"""Brieskorn homology spheres as Seifert data and star-shaped plumbings.

Conventions.  For a pairwise coprime triple (a1, a2, a3) with each index
>= 2 the Seifert data is normalized on the negative-definite side: writing
a = a1*a2*a3, each arm residue beta_i is the unique solution of

    (a / alpha_i) * beta_i = -1  (mod alpha_i),   0 < beta_i < alpha_i,

and the central weight b = (-1 - sum beta_i * a/alpha_i) / a is an integer.
This pins the Euler number e = b + sum beta_i/alpha_i to exactly -1/a (the
homology-sphere condition).  Arm i of the star plumbing is the negative
continued fraction chain of -alpha_i/beta_i, attached to the center at the
chain's first term.  The orientation convention is fixed once and for all;
the Rohlin invariant mod 2 does not depend on it.

The signature of the Milnor fiber is eight times the Casson invariant, from
the Fukuhara-Matsumoto-Sakamoto / Neumann-Wahl formula in Dedekind sums
(``brieskorn_signature_fast``).  Each Dedekind sum is evaluated in integers
from one continued-fraction pass, O(log a) steps.  Its oracles, in the
tests, are lattice-point counts: over 1 <= i < a1, 1 <= j < a2,
1 <= k < a3, reduce s = i/a1 + j/a2 + k/a3 into (0, 2) mod 2; points with
s in (0, 1) count +1, points with s in (1, 2) count -1 (s is never an
integer by coprimality).

For an all-odd triple the Milnor fiber is spin and sigma/8 mod 2 is the
Rohlin invariant; this is one of the two independent routes to mu (the
other goes through the plumbing mu-bar in the lattice module).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .arith import neg_cont_frac
from .errors import DomainError, ParityError
from .graphs import PlumbingGraph, _pairs

__all__ = [
    "BrieskornTriple",
    "SeifertData",
    "brieskorn_seifert",
    "star_plumbing",
    "all_odd",
    "brieskorn_signature_fast",
    "rohlin_from_signature",
]


@dataclass(frozen=True)
class BrieskornTriple:
    """Pairwise coprime multiplicities, each >= 2, stored sorted ascending."""

    a1: int
    a2: int
    a3: int

    def __post_init__(self):
        for a in (self.a1, self.a2, self.a3):
            if type(a) is not int:
                raise DomainError(f"index {a!r} is not an integer")
        a1, a2, a3 = sorted((self.a1, self.a2, self.a3))
        if a1 < 2:
            raise DomainError(f"indices must be >= 2, got {a1}")
        if gcd(a1, a2) != 1 or gcd(a1, a3) != 1 or gcd(a2, a3) != 1:
            raise DomainError(f"indices ({a1}, {a2}, {a3}) are not pairwise coprime")
        object.__setattr__(self, "a1", a1)
        object.__setattr__(self, "a2", a2)
        object.__setattr__(self, "a3", a3)

    @property
    def indices(self) -> tuple[int, int, int]:
        return (self.a1, self.a2, self.a3)

    @property
    def product(self) -> int:
        return self.a1 * self.a2 * self.a3


@dataclass(frozen=True)
class SeifertData:
    """Central weight b plus (alpha, beta) arm pairs, 0 < beta < alpha."""

    b: int
    arms: tuple[tuple[int, int], ...]

    def __post_init__(self):
        arms = tuple((a, b) for a, b in _pairs(self.arms, "arms"))
        for x in (self.b, *(x for arm in arms for x in arm)):
            if type(x) is not int:
                raise DomainError(f"Seifert invariant {x!r} is not an integer")
        for alpha, beta in arms:
            if alpha < 2 or not 0 < beta < alpha:
                raise DomainError(f"bad arm ({alpha}, {beta})")
            if gcd(alpha, beta) != 1:
                raise DomainError(f"arm ({alpha}, {beta}) not coprime")
        object.__setattr__(self, "arms", arms)

    def euler_number(self) -> Fraction:
        return self.b + sum(Fraction(beta, alpha) for alpha, beta in self.arms)


def all_odd(t: BrieskornTriple) -> bool:
    """True iff all three indices are odd, the criterion under which the
    circle-action involution (multiplication by -1) is free."""
    return all(a % 2 == 1 for a in t.indices)


def brieskorn_seifert(t: BrieskornTriple) -> SeifertData:
    """Seifert data of the Brieskorn sphere with e = -1/(a1*a2*a3)."""
    a = t.product
    arms = []
    acc = 0
    for alpha in t.indices:
        co = a // alpha
        beta = -pow(co, -1, alpha) % alpha  # co is invertible mod alpha by coprimality
        assert 0 < beta < alpha and (co * beta) % alpha == alpha - 1
        arms.append((alpha, beta))
        acc += beta * co
    b, rem = divmod(-1 - acc, a)
    assert rem == 0, "central weight must be integral"
    data = SeifertData(b=b, arms=tuple(arms))
    assert data.euler_number() == Fraction(-1, a)
    return data


def star_plumbing(s: SeifertData) -> PlumbingGraph:
    """Star-shaped plumbing tree of the Seifert data: central vertex ``c``
    of weight b; arm i is the chain neg_cont_frac(-alpha_i/beta_i) with its
    first term adjacent to the center.  Arm vertices are named by an arm
    letter (u, v, w, ...) plus a 1-based position, zero-padded so sorted id
    order walks each chain outward."""
    letters = "uvwxyz"
    if len(s.arms) > len(letters):
        raise DomainError("more than six arms are not supported")
    weights = {"c": s.b}
    edges = []
    for letter, (alpha, beta) in zip(letters, s.arms):
        chain = neg_cont_frac(Fraction(-alpha, beta))
        width = len(str(len(chain)))
        prev = "c"
        for pos, w in enumerate(chain, start=1):
            vid = f"{letter}{pos:0{width}d}"
            weights[vid] = w
            edges.append((prev, vid))
            prev = vid
    return PlumbingGraph.build(weights, edges)


def _dedekind12(h: int, k: int) -> int:
    """12k * s(h, k), an integer, for coprime h and k >= 1, where s is the
    Dedekind sum.  With h mod k = [0; a1, ..., at] and h' = h^-1 mod k,

        12 s(h, k) = a1 - a2 + ... +- at + (h + h')/k - (3 if t is odd else 1)

    (D. Hickerson, J. reine angew. Math. 290, 1977; Knuth, TAOCP vol. 2,
    3.3.3): one continued-fraction pass and one modular inverse."""
    h %= k
    if not h:  # k = 1
        return 0
    alt, sign, n, d = 0, 1, k, h
    while d:
        a, r = divmod(n, d)
        alt += sign * a
        sign, n, d = -sign, d, r
    return k * alt + h + pow(h, -1, k) - k * (2 - sign)


def brieskorn_signature_fast(t: BrieskornTriple) -> int:
    """Milnor-fiber signature of Sigma(p, q, r) as 8 times the Casson
    invariant (Fukuhara-Matsumoto-Sakamoto 1990, Neumann-Wahl 1990):

        sigma = -1 + (1 - a^2 + p^2 q^2 + q^2 r^2 + p^2 r^2) / (3a)
                - 4 (s(qr, p) + s(pr, q) + s(pq, r)),   a = pqr,

    in integers: 3a * sigma = 1 - 3a - a^2 + sum of c (c - 12m s(c, m)) over
    m in (p, q, r), c = a/m.  Holds for every pairwise coprime triple, even
    indices included; the lattice counts are its oracles in the tests."""
    a = t.product
    sigma3a = 1 - 3 * a - a * a
    for m in t.indices:
        c = a // m
        sigma3a += c * (c - _dedekind12(c, m))
    sigma, rem = divmod(sigma3a, 3 * a)
    assert rem == 0
    return sigma


def rohlin_from_signature(t: BrieskornTriple) -> int:
    """Rohlin invariant (sigma/8 mod 2) from the Milnor-fiber signature.

    Only valid for all-odd triples (spin Milnor fiber); the divisibility
    sigma = 0 (mod 8) is checked rather than assumed.  The signature comes
    from the Casson/Dedekind-sum formula in O(log a); the tests hold it equal
    to both lattice-point counts.
    """
    if not all_odd(t):
        raise DomainError(
            f"signature route to the Rohlin invariant needs all indices odd, got {t.indices}"
        )
    sig = brieskorn_signature_fast(t)
    if sig % 8:
        raise ParityError(f"signature {sig} of {t.indices} is not divisible by 8")
    return (sig // 8) % 2
