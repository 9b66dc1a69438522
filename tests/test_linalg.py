import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from shintani.cli import random_invertible
from shintani.errors import SingularMatrix
from shintani.linalg import cofactor_form, identity, idot, int_det, mat_det, mat_inv, mat_mul


ENTRY = st.integers(-9, 9)


def _square(size):
    row = st.lists(ENTRY, min_size=size, max_size=size)
    return st.lists(row, min_size=size, max_size=size)


@st.composite
def insertion_cases(draw):
    """n - 1 integer columns of length n, a slot and a point w."""
    n = draw(st.integers(1, 4))
    vec = st.tuples(*[ENTRY] * n)
    cols = draw(st.lists(vec, min_size=n - 1, max_size=n - 1))
    return cols, draw(st.integers(0, n - 1)), draw(vec)


@settings(deadline=None, derandomize=True, max_examples=200)
@given(m=st.integers(0, 4).flatmap(_square))
def test_int_det_matches_fraction_elimination(m):
    assert int_det(m) == mat_det([[Fraction(x) for x in row] for row in m])


@settings(deadline=None, derandomize=True, max_examples=200)
@given(case=insertion_cases())
def test_cofactor_form_reads_det_with_w_inserted(case):
    cols, slot, w = case
    full = list(cols[:slot]) + [w] + list(cols[slot:])
    assert idot(cofactor_form(cols, slot), w) == int_det(list(zip(*full)))


def test_mat_inv_is_two_sided_inverse():
    rng = random.Random(5)
    for n in range(1, 5):
        for _ in range(10):
            m = random_invertible(rng, n)
            inv = mat_inv(m)
            assert mat_mul(inv, m) == identity(n)
            assert mat_mul(m, inv) == identity(n)


def test_mat_inv_rejects_singular():
    rng = random.Random(6)
    for n in range(1, 5):
        m = [list(row) for row in random_invertible(rng, n)]
        m[-1] = [Fraction(2) * x for x in m[0]] if n > 1 else [Fraction(0)]
        with pytest.raises(SingularMatrix):
            mat_inv(m)
