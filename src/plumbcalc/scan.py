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

The coefficient +-1 equation r*s = (target - p*q) / (p+q)^2 is solved in
one place, ``_pm1_solutions``, which serves both the scan and the CLI's
``check`` witness search.  The scan factors each solution over the r range
rather than looping the full 4-dimensional grid; the tests hold it equal to
the naive quadruple loop on small grids.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

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
        if self.p_bound < 1 or self.q_bound < 1:
            raise DomainError("p and q bounds must be positive")
        for name, (lo, hi) in (("r", self.r_range), ("s", self.s_range)):
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


def _signed(bound: int):
    mags = range(2, bound + 1)
    return [x for m in mags for x in (-m, m)]


def _pm1_solutions(p_values, q_values):
    """Yield (p, q, r*s) for each coprime p, q (|p|, |q| >= 2) from the two
    sequences and each target +1, -1 with r*s*(p+q)^2 + p*q = target solvable
    in integers.  It owns the (p, q) loops so the scan pays no call per pair."""
    for p in p_values:
        for q in q_values:
            if gcd(p, q) != 1:
                continue
            square = (p + q) ** 2  # p+q != 0: q = -p would share the factor p
            pq = p * q
            for target in (1, -1):
                num = target - pq
                if not num % square:
                    yield p, q, num // square  # nonzero since |pq| >= 4


def _make_record(p, q, r, s, mu_cache) -> ScanRecord:
    try:
        triple = candidate_triple(p, q, r, s)
    except HypothesisError:
        return ScanRecord(p, q, r, s, triple=None, all_odd=None, mu=None)
    odd = all_odd(triple)
    mu = None
    if odd:
        if triple not in mu_cache:
            mu_cache[triple] = rohlin_from_signature(triple)
        mu = mu_cache[triple]
    return ScanRecord(p, q, r, s, triple=triple, all_odd=odd, mu=mu)


def scan_range(params: ScanParams) -> list[ScanRecord]:
    """All coefficient +-1 records in the parameter box, sorted by
    (|p|, |q|, r, s, p, q).  Deterministic: identical params give an
    identical list."""
    r_lo, r_hi = params.r_range
    s_lo, s_hi = params.s_range
    mu_cache: dict[BrieskornTriple, int] = {}
    records = []
    for p, q, product in _pm1_solutions(_signed(params.p_bound), _signed(params.q_bound)):
        for r in range(r_lo, r_hi + 1):
            if r == 0 or product % r:
                continue
            s = product // r
            if s == 0 or not s_lo <= s <= s_hi:
                continue
            rec = _make_record(p, q, r, s, mu_cache)
            assert abs(rec.coefficient) == 1
            records.append(rec)
    records.sort(key=lambda rec: rec.sort_key)
    return records


def all_odd_mu1_triples(records) -> list[BrieskornTriple]:
    """Distinct triples among the records with all indices odd and mu = 1,
    sorted by indices: the hits satisfying every checkable criterion."""
    hits = {rec.triple for rec in records if rec.all_odd and rec.mu == 1}
    return sorted(hits, key=lambda t: t.indices)
