"""Shipped example diagrams, usable by name from the CLI and the tests."""

from importlib import resources

from ..errors import DomainError
from ..graphio import parse_graph
from ..graphs import PlumbingGraph

FIXTURE_NAMES = ("d2", "d3", "d4", "e8", "sigma-3-13-23")

__all__ = ["FIXTURE_NAMES", "fixture_text", "fixture_graph"]


def _normalize(name: str) -> str:
    return name[:-6] if name.endswith(".graph") else name


def fixture_text(name: str) -> str:
    """Raw file contents of a shipped fixture (name with or without the
    .graph suffix)."""
    name = _normalize(name)
    if name not in FIXTURE_NAMES:
        raise DomainError(f"no fixture {name!r}; have {', '.join(FIXTURE_NAMES)}")
    return resources.files(__package__).joinpath(f"{name}.graph").read_text()


def fixture_graph(name: str) -> PlumbingGraph:
    return parse_graph(fixture_text(name), source=f"{_normalize(name)}.graph")
