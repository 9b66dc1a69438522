"""Exactness lint: no float enters a computation in the library.

Walks the syntax tree of every module of the package and fails on float
or complex literals, on calls to float or complex, and on the inexact
names of the math module.  The exact integer helpers (ceil, floor, isqrt,
gcd, lcm, factorial, comb, prod) stay allowed.
"""

import ast
import math
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "shintani"
MODULES = sorted(SRC.glob("*.py"))

INEXACT_MATH = {
    "sqrt", "cbrt", "exp", "exp2", "expm1", "log", "log2", "log10", "log1p",
    "pow", "fsum", "isclose", "hypot", "dist",
    "sin", "cos", "tan", "asin", "acos", "atan", "atan2",
    "sinh", "cosh", "tanh", "asinh", "acosh", "atanh",
    "degrees", "radians", "erf", "erfc", "gamma", "lgamma",
    "pi", "e", "tau", "inf", "nan",
}


def _violations(tree):
    out = []
    for node in ast.walk(tree):
        where = getattr(node, "lineno", "?")
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            out.append(f"line {where}: literal {node.value!r}")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("float", "complex")):
            out.append(f"line {where}: call to {node.func.id}")
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "math" and node.attr in INEXACT_MATH):
            out.append(f"line {where}: math.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            out.extend(f"line {where}: from math import {a.name}"
                       for a in node.names if a.name in INEXACT_MATH | {"*"})
    return out


def test_modules_found():
    assert {p.name for p in MODULES} >= {"exactnum.py", "lvalues.py", "solomon_hu.py"}


def test_inexact_names_exist_in_math():
    # a misspelt name would guard nothing
    assert all(hasattr(math, name) for name in INEXACT_MATH - {"cbrt", "exp2"})


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_is_exact(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _violations(tree) == []


@pytest.mark.parametrize("source", [
    "x = 0.5",
    "x = 2j",
    "y = float(3)",
    "y = complex(1, 2)",
    "import math\ny = math.sqrt(2)",
    "from math import log\n",
    "from math import *\n",
])
def test_lint_catches(source):
    assert _violations(ast.parse(source))


def test_lint_allows_exact_helpers():
    source = ("from math import ceil, floor, isqrt, gcd\n"
              "import math\nx = math.floor(3) + isinstance(1, float)\n")
    assert _violations(ast.parse(source)) == []
