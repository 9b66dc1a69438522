"""Shared helpers for the test suite: seeded random rational data."""

import os
from fractions import Fraction

import shintani
from shintani.cli import random_nonzero_vector
from shintani.linalg import mat_det

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
