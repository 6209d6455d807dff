"""The library stays exact: no float or complex constant, no ``float`` or
``complex`` name, and from ``math`` only its integer functions, anywhere in
src/plumbcalc.  Equality assertions would not notice a float that leaks in
(1.0 == 1), so the rule is checked on the source itself."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src" / "plumbcalc"
INTEGER_MATH = {"gcd", "isqrt"}


def inexact_uses(source):
    """(line, what) for each construct of ``source`` that breaks the rule."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            yield node.lineno, f"{type(node.value).__name__} constant {node.value!r}"
        elif isinstance(node, ast.Name) and node.id in ("float", "complex"):
            yield node.lineno, f"name {node.id}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in ("math", "cmath"):
                    yield node.lineno, f"import {alias.name}"
        elif isinstance(node, ast.ImportFrom) and node.module in ("math", "cmath"):
            for alias in node.names:
                if node.module == "cmath" or alias.name not in INTEGER_MATH:
                    yield node.lineno, f"from {node.module} import {alias.name}"


def test_source_has_no_floats():
    files = sorted(SRC.rglob("*.py"))
    assert len(files) > 5
    found = [
        f"{path.relative_to(SRC)}:{line}: {what}"
        for path in files
        for line, what in inexact_uses(path.read_text(encoding="utf-8"))
    ]
    assert found == []


@pytest.mark.parametrize(
    "source",
    ["x = 0.5", "x = 2j", "x = 1e3", "x = float(y)", "x = complex", "import math",
     "from math import sqrt", "from math import gcd, log", "from cmath import phase",
     "from math import *"],
)
def test_checker_flags(source):
    assert len(list(inexact_uses(source))) == 1


def test_checker_allows_integer_code():
    source = "from math import gcd, isqrt\nfrom fractions import Fraction\nx = 7 // 2\n"
    assert list(inexact_uses(source)) == []
