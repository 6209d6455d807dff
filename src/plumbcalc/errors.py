"""Exception hierarchy shared by every plumbcalc module."""

__all__ = [
    "PlumbcalcError",
    "DomainError",
    "MoveError",
    "ParityError",
    "SingularError",
    "HypothesisError",
    "GraphFormatError",
]


class PlumbcalcError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(PlumbcalcError):
    """An argument lies outside the mathematical domain of the operation."""


class MoveError(PlumbcalcError):
    """A calculus move was attempted whose preconditions fail on this graph."""


class SingularError(PlumbcalcError):
    """The linking matrix is singular mod 2 (even determinant), so the
    characteristic subset is not unique."""


class ParityError(PlumbcalcError):
    """A signature-style quantity violated a divisibility that holds for all
    valid inputs; indicates a precondition breach or an implementation bug."""


class HypothesisError(PlumbcalcError):
    """A scan hit has |r*s| < 2, so the Seifert-triple extraction rule does
    not apply (fewer than three exceptional fibers)."""


class GraphFormatError(PlumbcalcError):
    """A graph or trace document failed to parse; message carries the
    offending source location."""
