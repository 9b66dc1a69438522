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

Error lint: every class of ``shintani/errors.py`` is raised by some
module of the package or is the base of one that is, so error classes
only the tests raise live with the tests.

Form check: a quotient series' denominator forms are plain int vectors;
a float, bool, Fraction or ring element entry raises TypeError.
"""

import ast
import math
from fractions import Fraction
from pathlib import Path

import pytest

from shintani.errors import ZeroForm
from shintani.exactnum import QQ
from shintani.solomon_hu import MSeries, QuotSeries

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


def _raised_names(tree):
    """Names of the classes a module raises, as raise X or raise X(...)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                out.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                out.add(exc.attr)
    return out


def _dead_error_classes(errors_tree, raised):
    """Classes of the errors module that are neither raised nor a base,
    directly or further up, of a raised one."""
    bases = {node.name: [b.id for b in node.bases if isinstance(b, ast.Name)]
             for node in errors_tree.body if isinstance(node, ast.ClassDef)}
    live = set()
    todo = [name for name in bases if name in raised]
    while todo:
        name = todo.pop()
        if name not in live:
            live.add(name)
            todo.extend(bases.get(name, ()))
    return sorted(bases.keys() - live)


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


def test_every_error_class_is_raised_by_the_package():
    raised = set().union(*(_raised_names(ast.parse(p.read_text(encoding="utf-8")))
                           for p in PACKAGE))
    errors = ast.parse((SRC / "errors.py").read_text(encoding="utf-8"))
    assert sum(isinstance(node, ast.ClassDef) for node in errors.body) >= 2
    assert _dead_error_classes(errors, raised) == []


def test_error_lint_catches_an_unraised_class():
    errors = ast.parse("class Base(Exception): pass\n"
                       "class Used(Base): pass\n"
                       "class Dead(Base): pass\n")
    raised = _raised_names(ast.parse("def f():\n    raise Used('x')\n"))
    assert _dead_error_classes(errors, raised) == ["Dead"]
    assert _dead_error_classes(errors, raised | {"Dead"}) == []


@pytest.mark.parametrize("entry", [1.0, True, Fraction(1), QQ.one()])
def test_quot_series_refuses_non_int_form_entries(entry):
    num = MSeries(QQ, 2, 3, {(1, 1): QQ.one()})
    with pytest.raises(TypeError, match="denominator entries must be ints"):
        QuotSeries(num, ((2, -1), (1, entry)))


def test_quot_series_keeps_int_forms_sorted_zero_entries_first():
    num = MSeries(QQ, 2, 5, {(1, 1): QQ.one()})
    q = QuotSeries(num, ((4, -2), (-2, -2), (-2, 0)))
    assert q.denoms == ((-2, 0), (-2, -2), (4, -2))
    assert all(type(x) is int for form in q.denoms for x in form)
    with pytest.raises(ZeroForm):
        QuotSeries(num, ((0, 0),))
