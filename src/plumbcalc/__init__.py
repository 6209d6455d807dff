"""plumbcalc: exact arithmetic for plumbed 3-manifolds.

Negative continued fractions, Brieskorn/Seifert star plumbings, linking
matrix invariants (determinant, signature, Wu class, mu-bar, Rohlin),
a plumbing-calculus reducer certifying diagrams as S^3, and a
surgery-coefficient scan.  Everything is exact; no floating point.

The package exports exactly the public names of its core modules: each
name is declared once, in its module's ``__all__``.
"""

from . import arith, calculus, errors, graphio, graphs, lattice, scan, seifert
from .arith import *
from .calculus import *
from .errors import *
from .graphio import *
from .graphs import *
from .lattice import *
from .scan import *
from .seifert import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *errors.__all__,
    *arith.__all__,
    *graphs.__all__,
    *graphio.__all__,
    *lattice.__all__,
    *seifert.__all__,
    *calculus.__all__,
    *scan.__all__,
]
