"""Exactness lint: no float enters a computation in the library or in the
reference implementations the tests compare it against.

Walks the syntax tree of every module of the package and of
``tests/reference.py`` and fails on float or complex literals, on calls
to float or complex, and on the inexact names of the math module.  The
exact integer helpers (ceil, floor, isqrt, gcd, lcm, factorial, comb,
prod) stay allowed.

Import lint: the ordered-field stack (``ordered_field`` and
``exactnum.MPoly``) is a reference the tests use; no other module of the
package imports it or names ``MPoly``, except ``__init__``, which
re-exports it.
"""

import ast
import math
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "shintani"
PACKAGE = sorted(SRC.glob("*.py"))
MODULES = PACKAGE + [TESTS / "reference.py"]
# the reference stack itself, and the re-exports of the package
STACK_OWNERS = {"__init__.py", "ordered_field.py"}

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


def _reference_stack_uses(tree):
    """Imports of ordered_field, and every use of the name MPoly outside
    the module that defines it."""
    defines = any(isinstance(node, ast.ClassDef) and node.name == "MPoly"
                  for node in ast.walk(tree))
    out = []
    for node in ast.walk(tree):
        where = getattr(node, "lineno", "?")
        if isinstance(node, ast.ImportFrom):
            if (node.module or "").rpartition(".")[2] == "ordered_field":
                out.append(f"line {where}: from {node.module} import")
            out.extend(f"line {where}: import {a.name}" for a in node.names
                       if a.name in ("ordered_field", "MPoly"))
        elif isinstance(node, ast.Import):
            out.extend(f"line {where}: import {a.name}" for a in node.names
                       if a.name.rpartition(".")[2] == "ordered_field")
        elif (isinstance(node, ast.Name) and node.id == "MPoly" and not defines
              or isinstance(node, ast.Attribute) and node.attr == "MPoly"):
            out.append(f"line {where}: MPoly")
    return out


def test_modules_found():
    assert {p.name for p in MODULES} >= {"exactnum.py", "lvalues.py", "solomon_hu.py",
                                         "reference.py"}


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


@pytest.mark.parametrize("path", [p for p in PACKAGE if p.name not in STACK_OWNERS],
                         ids=lambda p: p.name)
def test_module_skips_reference_stack(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _reference_stack_uses(tree) == []


@pytest.mark.parametrize("source", [
    "from .ordered_field import sign_mpoly",
    "from shintani.ordered_field import as_elem",
    "from . import ordered_field",
    "import shintani.ordered_field",
    "from .exactnum import MPoly",
    "x = shintani.exactnum.MPoly",
    "def f(p: MPoly): return p",
])
def test_import_lint_catches(source):
    assert _reference_stack_uses(ast.parse(source))


def test_import_lint_allows_the_defining_module():
    source = "class MPoly:\n    def f(self):\n        return MPoly()\n"
    assert _reference_stack_uses(ast.parse(source)) == []
