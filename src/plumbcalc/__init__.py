"""plumbcalc: exact arithmetic for plumbed 3-manifolds.

Negative continued fractions, Brieskorn/Seifert star plumbings, linking
matrix invariants (determinant, signature, Wu class, mu-bar, Rohlin),
a plumbing-calculus reducer certifying diagrams as S^3, and a
surgery-coefficient scan.  Everything is exact; no floating point.
"""

from .arith import bezout, eval_neg_cont_frac, neg_cont_frac
from .calculus import (
    DEFAULT_BUDGET,
    Move,
    MoveTrace,
    ReductionVerdict,
    Verdict,
    absorb_zero,
    applicable_moves,
    apply_move,
    blow_down,
    blow_up,
    cancel_zero_pair,
    canonical_form,
    reduce_to_s3,
    split_zero,
)
from .errors import (
    DomainError,
    GraphFormatError,
    HypothesisError,
    MoveError,
    ParityError,
    PlumbcalcError,
    SingularError,
)
from .graphio import format_graph, format_trace, parse_graph, parse_trace, to_dot
from .graphs import PlumbingGraph
from .lattice import (
    LinkingMatrix,
    determinant,
    linking_matrix,
    mu_bar,
    rohlin_mu_bar,
    signature,
    wu_class,
)
from .scan import (
    DEFAULT_SCAN_PARAMS,
    ScanParams,
    ScanRecord,
    all_odd_mu1_triples,
    candidate_triple,
    surgery_coefficient,
    scan_range,
)
from .seifert import (
    BrieskornTriple,
    SeifertData,
    all_odd,
    brieskorn_seifert,
    brieskorn_signature_fast,
    rohlin_from_signature,
    star_plumbing,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "PlumbcalcError",
    "DomainError",
    "MoveError",
    "ParityError",
    "SingularError",
    "HypothesisError",
    "GraphFormatError",
    # arith
    "bezout",
    "neg_cont_frac",
    "eval_neg_cont_frac",
    # graphs / io
    "PlumbingGraph",
    "parse_graph",
    "parse_trace",
    "format_graph",
    "format_trace",
    "to_dot",
    # lattice
    "LinkingMatrix",
    "linking_matrix",
    "determinant",
    "signature",
    "wu_class",
    "mu_bar",
    "rohlin_mu_bar",
    # seifert
    "BrieskornTriple",
    "SeifertData",
    "brieskorn_seifert",
    "star_plumbing",
    "all_odd",
    "brieskorn_signature_fast",
    "rohlin_from_signature",
    # calculus
    "Move",
    "MoveTrace",
    "Verdict",
    "ReductionVerdict",
    "DEFAULT_BUDGET",
    "blow_down",
    "blow_up",
    "cancel_zero_pair",
    "absorb_zero",
    "split_zero",
    "applicable_moves",
    "apply_move",
    "reduce_to_s3",
    "canonical_form",
    # scan
    "ScanParams",
    "ScanRecord",
    "DEFAULT_SCAN_PARAMS",
    "surgery_coefficient",
    "candidate_triple",
    "scan_range",
    "all_odd_mu1_triples",
]
