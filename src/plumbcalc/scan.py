"""Search of the two-parameter surgery family for homology spheres.

The family: integer surgery with coefficient r*s*(p+q)^2 + p*q on the knot
indexed by (p, q, r, s).  Coefficient +-1 gives a homology sphere, and the
working extraction hypothesis is that it is the Brieskorn sphere on the
sorted triple (|r*s|, |p|, |q|).  The single published data point
(p, q, r, s) = (-13, 23, 3, 1) -> Sigma(3, 13, 23) fits this rule, and
pairwise coprimality of the extracted triple is forced by the coefficient
identity (any common divisor of two entries divides the +-1 coefficient);
it is asserted, not assumed.  The hypothesis is confined to
``candidate_triple`` and flagged in every emitted report.

A scan enumerates all (p, q, r, s) with |p| <= pBound, |q| <= qBound,
r and s in their ranges (0 excluded), gcd(p, q) = 1 and |p|, |q| >= 2, and
records every coefficient +-1 hit.  Hits with |r*s| < 2 have fewer than
three exceptional fibers, so the extraction rule does not apply; they are
kept in the report without a triple so nothing is silently dropped.

Which tuples can hit.  Write c = r*s*(p+q)^2 + p*q = +-1.  Same-sign p, q
never hit: (p+q)^2 >= 4|pq| > |pq| + 1 >= |c - pq| > 0, so (p+q)^2 cannot
divide c - pq.  So p = e*x and q = -e*y with e = +-1 and x, y >= 2, and with
d = |x - y| and k = r*s the condition reads x*y = k*d^2 - c.  This forces
k >= 1 (r and s share a sign) and k <= x*y + 1 <= pBound*qBound + 1.

The solver.  With h = max(x, y) and g = d the condition is the unit norm
h^2 - h*g - k*g^2 = -c, and every solution is a convergent h/g of
(1 + sqrt(4k+1))/2.  ``_unit_solutions`` walks that continued fraction while
h stays within the bounds, so ``scan_range`` loops k = 1..K with
K = min(max r*s, pBound*qBound + 1), splits each k that has a solution into
its (r, s) factor pairs within the ranges, and emits the <= 4 sign and
orientation variants of each solution times those pairs.  The cost is
O(K log B + records) with B = max(pBound, qBound): it does not grow with the
area of the (p, q) box, so bounds like |p|, |q| <= 10^9 are cheap.  The tests
hold the scan equal to the (p, q) pair loop and, on small grids, to the
naive quadruple loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt

from .errors import DomainError, HypothesisError
from .seifert import BrieskornTriple, all_odd, rohlin_from_signature

__all__ = [
    "ScanParams",
    "ScanRecord",
    "DEFAULT_SCAN_PARAMS",
    "surgery_coefficient",
    "candidate_triple",
    "scan_range",
    "all_odd_mu1_triples",
]


def surgery_coefficient(p: int, q: int, r: int, s: int) -> int:
    """Exact surgery coefficient r*s*(p+q)^2 + p*q."""
    return r * s * (p + q) ** 2 + p * q


@dataclass(frozen=True)
class ScanParams:
    """Bounds on |p| and |q| plus inclusive (lo, hi) ranges for r and s;
    0 is excluded from the ranges during enumeration."""

    p_bound: int
    q_bound: int
    r_range: tuple[int, int]
    s_range: tuple[int, int]

    def __post_init__(self):
        for name, bound in (("p", self.p_bound), ("q", self.q_bound)):
            if type(bound) is not int:  # a float or bool bound would scan silently
                raise DomainError(f"{name} bound {bound!r} is not an integer")
        if self.p_bound < 1 or self.q_bound < 1:
            raise DomainError("p and q bounds must be positive")
        for name, pair in (("r", self.r_range), ("s", self.s_range)):
            if type(pair) is not tuple or len(pair) != 2 or any(type(x) is not int for x in pair):
                raise DomainError(f"{name} range {pair!r} is not a (lo, hi) pair of integers")
            lo, hi = pair
            if lo > hi or (lo == 0 and hi == 0):
                raise DomainError(f"{name} range [{lo}, {hi}] is empty (0 is excluded)")


DEFAULT_SCAN_PARAMS = ScanParams(p_bound=100, q_bound=100, r_range=(-20, 20), s_range=(-20, 20))


@dataclass(frozen=True)
class ScanRecord:
    """One coefficient +-1 hit.  ``triple`` is None when |r*s| < 2 (the
    extraction hypothesis does not apply); ``all_odd`` is set when a triple
    is present; ``mu`` is set only for all-odd triples (the signature route
    to the Rohlin invariant needs odd indices)."""

    p: int
    q: int
    r: int
    s: int
    triple: BrieskornTriple | None
    all_odd: bool | None
    mu: int | None

    @property
    def coefficient(self) -> int:
        return surgery_coefficient(self.p, self.q, self.r, self.s)

    @property
    def sort_key(self) -> tuple[int, int, int, int, int, int]:
        # (|p|, |q|, r, s) is the documented order; (p, q) break the
        # sign ties so the full order is total and output byte-stable.
        return (abs(self.p), abs(self.q), self.r, self.s, self.p, self.q)


def candidate_triple(p: int, q: int, r: int, s: int) -> BrieskornTriple:
    """Extract the candidate Brieskorn triple sorted(|r*s|, |p|, |q|) from a
    coefficient +-1 tuple.  Raises HypothesisError when |r*s| < 2, and
    DomainError when the tuple is outside the scan's precondition."""
    if abs(surgery_coefficient(p, q, r, s)) != 1:
        raise DomainError("candidate_triple needs a +-1 surgery coefficient")
    if abs(p) < 2 or abs(q) < 2 or gcd(p, q) != 1:
        raise DomainError("candidate_triple needs coprime |p|, |q| >= 2")
    rs = abs(r * s)
    if rs < 2:
        raise HypothesisError(
            f"|r*s| = {rs} < 2: no third exceptional fiber, extraction rule inapplicable"
        )
    # BrieskornTriple construction re-checks pairwise coprimality, which the
    # coefficient identity guarantees.
    return BrieskornTriple(rs, abs(p), abs(q))


def _unit_solutions(k: int, bound: int):
    """Yield every coprime pair (x, y) with bound >= x > y >= 2 and
    x*y = k*(x-y)^2 - c for some c in {+1, -1}, in increasing x.

    With h = x and g = x - y the equation reads h^2 - h*g - k*g^2 = -c, a
    norm of h - g*w for w = (1 + sqrt(4k+1))/2, and every such h/g is a
    convergent of w.  So the walk follows the continued fraction of w, with
    complete quotients (P + sqrt(4k+1))/Q from (1, 2), while the convergent
    numerator stays within the bound.  When 4k+1 is a square the norm
    factors and has no solution with y >= 2."""
    disc = 4 * k + 1
    root = isqrt(disc)
    if root * root == disc:
        return
    quot_p, quot_q = 1, 2
    h_prev, h = 0, 1
    g_prev, g = 1, 0
    while True:
        a = (quot_p + root) // quot_q
        h_prev, h = h, a * h + h_prev
        g_prev, g = g, a * g + g_prev
        if h > bound:
            return
        if h - g >= 2 and abs(h * h - h * g - k * g * g) == 1:
            yield h, h - g
        quot_p = a * quot_q - quot_p
        quot_q = (disc - quot_p * quot_p) // quot_q


def _factor_pairs(k: int, r_range, s_range) -> list[tuple[int, int]]:
    """All (r, s) with r*s = k >= 1, r in r_range and s in s_range, by trial
    division up to sqrt(k)."""
    r_lo, r_hi = r_range
    s_lo, s_hi = s_range
    pairs = []
    for d in range(1, isqrt(k) + 1):
        if k % d:
            continue
        e = k // d
        for r in {d, e, -d, -e}:
            s = k // r
            if r_lo <= r <= r_hi and s_lo <= s <= s_hi:
                pairs.append((r, s))
    return pairs


def scan_range(params: ScanParams) -> list[ScanRecord]:
    """All coefficient +-1 records in the parameter box, sorted by
    (|p|, |q|, r, s, p, q).  Deterministic: identical params give an
    identical list."""
    p_bound, q_bound = params.p_bound, params.q_bound
    # the largest positive r*s sits at a corner of the (r, s) box
    k_max = min(
        max(params.r_range[0] * params.s_range[0], params.r_range[1] * params.s_range[1]),
        p_bound * q_bound + 1,
    )
    bound = max(p_bound, q_bound)
    records = []
    for k in range(1, k_max + 1):
        pairs = None
        for x, y in _unit_solutions(k, bound):
            signs = [
                (p, q)
                for a, b in ((x, y), (y, x))
                if a <= p_bound and b <= q_bound
                for p, q in ((a, -b), (-a, b))
            ]
            if not signs:
                continue
            if pairs is None:
                pairs = _factor_pairs(k, params.r_range, params.s_range)
            if not pairs:
                break
            # triple, all_odd and mu depend only on {k, x, y}: every sign
            # and (r, s) pair of this solution shares one mu computation
            try:
                triple = candidate_triple(*signs[0], *pairs[0])
            except HypothesisError:
                triple = odd = mu = None
            else:
                odd = all_odd(triple)
                mu = rohlin_from_signature(triple) if odd else None
            for p, q in signs:
                for r, s in pairs:
                    rec = ScanRecord(p, q, r, s, triple, odd, mu)
                    assert abs(rec.coefficient) == 1
                    records.append(rec)
    records.sort(key=lambda rec: rec.sort_key)
    return records


def all_odd_mu1_triples(records) -> list[BrieskornTriple]:
    """Distinct triples among the records with all indices odd and mu = 1,
    sorted by indices: the hits satisfying every checkable criterion."""
    hits = {rec.triple for rec in records if rec.all_odd and rec.mu == 1}
    return sorted(hits, key=lambda t: t.indices)
