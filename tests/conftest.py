"""Shared helpers for the test suite: seeded random rational data and
the hypothesis strategy for cocycle tuples."""

import os
from fractions import Fraction

from hypothesis import assume, strategies as st

import shintani
from reference import mat_det
from shintani.cli import random_nonzero_vector
from shintani.errors import SingularMatrix
from shintani.solomon_hu import parallelotope_points

# `python -m shintani` subprocesses import the package from the tree the
# suite imports; pytest's `pythonpath` setting reaches only this process.
_SRC = os.path.dirname(os.path.dirname(shintani.__file__))
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)


def random_rat(rng, lo=-5, hi=5, den=3):
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def random_vector(rng, n, lo=-5, hi=5, den=3):
    return tuple(random_rat(rng, lo, hi, den) for _ in range(n))


def in_general_position(vectors, n):
    """All n-element subsets linearly independent (and hence all smaller)."""
    from itertools import combinations
    for subset in combinations(vectors, n):
        m = tuple(tuple(v[i] for v in subset) for i in range(n))
        if mat_det(m) == 0:
            return False
    return True


def random_general_position(rng, n, count, lo=-5, hi=5):
    while True:
        vecs = [random_nonzero_vector(rng, n, lo, hi, den=1) for _ in range(count)]
        if in_general_position(vecs, n):
            return vecs


def outcome(solve, *args):
    """Result of solve(*args), or the SingularMatrix class if it raised it."""
    try:
        return solve(*args)
    except SingularMatrix:
        return SingularMatrix


def rational_points(gens, d, f):
    """The points k / d of the parallelotope, from the integer vectors k
    that parallelotope_points yields."""
    return [tuple(Fraction(x, d) for x in k) for k in parallelotope_points(gens, d, f)]


# Hypothesis: (n+1)-tuples of invertible matrices from explicit families

_ENTRY = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def _nonzero_vectors(draw, n):
    v = tuple(draw(st.lists(_ENTRY, min_size=n, max_size=n)))
    assume(any(v))
    return v


@st.composite
def _invertible(draw, n, first=None):
    """An invertible n x n matrix, with the given first column if any."""
    rows = [draw(st.lists(_ENTRY, min_size=n, max_size=n)) for _ in range(n)]
    if first is not None:
        for row, x in zip(rows, first):
            row[0] = x
    m = tuple(tuple(row) for row in rows)
    assume(mat_det(m) != 0)
    return m


@st.composite
def cocycle_cases(draw, sizes=(2, 3)):
    """An (n+1)-tuple from one explicit family, n drawn from sizes, and a
    nonzero point, at times a first column of the tuple."""
    n = draw(st.sampled_from(sizes))
    family = draw(st.sampled_from(["generic", "repeated", "parallel", "plane"]))
    if family in ("generic", "repeated"):
        alphas = [draw(_invertible(n)) for _ in range(n + 1)]
        if family == "repeated":
            i = draw(st.integers(0, n - 1))
            alphas[i + 1] = alphas[i]
    elif family == "parallel":
        v = draw(_nonzero_vectors(n))
        scales = st.sampled_from([-3, -2, -1, 1, 2, 3])
        alphas = [draw(_invertible(n, tuple(draw(scales) * x for x in v)))
                  for _ in range(n + 1)]
    else:
        u1, u2 = draw(_nonzero_vectors(n)), draw(_nonzero_vectors(n))
        alphas = []
        for _ in range(n + 1):
            a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
            col = tuple(a * x + b * y for x, y in zip(u1, u2))
            alphas.append(draw(_invertible(n, col if any(col) else u1)))
    if draw(st.booleans()):
        k = draw(st.integers(0, n))
        w = tuple(row[0] for row in alphas[k])
    else:
        w = draw(_nonzero_vectors(n))
    return alphas, w
