import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import outcome
from reference import (
    cofactor_form_reference,
    gauss_jordan_oracle,
    identity,
    mat_det,
    mat_inv,
    mat_mul,
)
from shintani.cli import random_invertible
from shintani import linalg
from shintani.errors import SingularMatrix
from shintani.linalg import (
    cofactor_form,
    coordinate_rows,
    first_nonzero_sign,
    idot,
    int_det,
    int_rows,
    int_scale_point,
    primitive,
    sign,
    solve_columns,
)


ENTRY = st.integers(-9, 9)


def _square(size):
    row = st.lists(ENTRY, min_size=size, max_size=size)
    return st.lists(row, min_size=size, max_size=size)


@st.composite
def insertion_cases(draw):
    """n - 1 integer columns of length n (n <= 5), a slot and a point w;
    at times one column is a copy of another with one entry set to 0."""
    n = draw(st.integers(1, 5))
    vec = st.tuples(*[ENTRY] * n)
    cols = draw(st.lists(vec, min_size=n - 1, max_size=n - 1))
    if cols and draw(st.booleans()):
        i, j = draw(st.integers(0, n - 2)), draw(st.integers(0, n - 2))
        k = draw(st.integers(0, n - 1))
        cols[i] = cols[j][:k] + (0,) + cols[j][k + 1:]
    return cols, draw(st.integers(0, n - 1)), draw(vec)


@st.composite
def square_cases(draw):
    """A square integer matrix of size 0..6, the closed forms (n <= 3) and
    the elimination beyond; one in four has a row set to a copy of another
    row or to zero, so singular matrices of every size are drawn."""
    n = draw(st.integers(0, 6))
    m = draw(_square(n))
    if n and draw(st.integers(0, 3)) == 0:
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        m[i] = list(m[j]) if i != j else [0] * n
    return m


@settings(deadline=None, derandomize=True, max_examples=300)
@given(m=square_cases())
def test_int_det_matches_fraction_elimination(m):
    assert int_det(m) == mat_det([[Fraction(x) for x in row] for row in m])


def test_int_rows_clears_by_one_scale_and_refuses_other_shapes():
    assert int_rows(((Fraction(1, 2), 1), (0, "2/3"))) == ((3, 6), (0, 4))
    assert int_rows(((2, -4), (6, 0))) == ((2, -4), (6, 0))
    assert int_rows(()) == ()
    for bad in (((1, 0, 0), (0, 1, 0)), ((1, 0), (0,)), ((1, 2),)):
        with pytest.raises(ValueError, match="matrix must be square"):
            int_rows(bad)
    for bad in (((1, 0.5), (0, 1)), ((True, 0), (0, 1))):
        with pytest.raises(TypeError, match="inexact or boolean"):
            int_rows(bad)


@settings(deadline=None, derandomize=True, max_examples=300)
@given(case=insertion_cases())
def test_cofactor_form_reads_det_with_w_inserted(case):
    # the closed forms (n = 1, 2, 3) and the elimination (n = 4, 5)
    # against the determinant of the matrix with w inserted at the slot
    cols, slot, w = case
    full = list(cols[:slot]) + [w] + list(cols[slot:])
    assert idot(cofactor_form(cols, slot), w) == int_det(list(zip(*full)))


@st.composite
def large_insertion_cases(draw):
    """n - 1 integer columns of length n = 4..7 and a slot; at times one
    column repeats another, so the columns are dependent."""
    n = draw(st.integers(4, 7))
    vec = st.tuples(*[st.integers(-5, 5)] * n)
    cols = draw(st.lists(vec, min_size=n - 1, max_size=n - 1))
    if draw(st.booleans()):
        i, j = draw(st.integers(0, n - 2)), draw(st.integers(0, n - 2))
        cols[i] = cols[j]
    return cols, draw(st.integers(0, n - 1))


@example(case=([(1, 2, 3, 4, 5), (0, 1, 0, 2, 0), (1, 2, 3, 4, 5), (7, 0, 1, 1, 3)], 2))
@settings(deadline=None, derandomize=True, max_examples=200)
@given(case=large_insertion_cases())
def test_cofactor_form_by_elimination_matches_laplace_expansion(case):
    cols, slot = case
    form = cofactor_form(cols, slot)
    assert form == cofactor_form_reference(cols, slot)
    if len(set(cols)) < len(cols):
        assert not any(form)


@st.composite
def lex_sign_cases(draw):
    """One to three nonzero integer generators and one to three integer
    forms in dimension 2 or 3, with strictly positive integer weights for
    a few combinations of the generators."""
    n = draw(st.sampled_from([2, 3]))
    small = st.tuples(*[st.integers(-3, 3)] * n)
    gens = draw(st.lists(small.filter(any), min_size=1, max_size=3))
    forms = draw(st.lists(small, min_size=1, max_size=3))
    weights = draw(st.lists(st.tuples(*[st.integers(1, 4)] * len(gens)), min_size=1, max_size=6))
    return gens, forms, weights


@settings(deadline=None, derandomize=True, max_examples=300)
@given(case=lex_sign_cases())
def test_first_nonzero_sign_on_cones(case):
    # a returned sign is the first nonzero sign at every strictly positive
    # combination of the generators; None comes only with a form that takes
    # both signs on them; every form before the returned one vanishes on the
    # cone; and on a one-generator cone it is the sign of the point
    gens, forms, weights = case
    s, form = first_nonzero_sign(forms, gens)
    k = len(forms) if form is None else forms.index(form)
    assert all(idot(f, g) == 0 for f in forms[:k] for g in gens)
    if s is None:
        vals = [idot(form, g) for g in gens]
        assert min(vals) < 0 < max(vals)
    else:
        assert (s == 0) == (form is None)
        for ws in weights:
            p = tuple(sum(c * x for c, x in zip(ws, col)) for col in zip(*gens))
            assert first_nonzero_sign(forms, (p,))[0] == s
    for w in gens:
        point = next(((sign(idot(f, w)), f) for f in forms if idot(f, w)), (0, None))
        assert first_nonzero_sign(forms, (w,)) == point


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


def test_integer_input_gives_fractions():
    inv = mat_inv(((2, 0), (0, 3)))
    assert inv == ((Fraction(1, 2), 0), (0, Fraction(1, 3)))
    assert all(type(c) is Fraction for row in inv for c in row)
    det = mat_det(((2, 1), (1, 3)))
    assert det == 5 and type(det) is Fraction
    with pytest.raises(TypeError):
        mat_det(((2.0, 1), (1, 3)))


def test_mat_inv_refuses_floats_and_bools():
    for bad in (0.5, True, False):
        for m in (((2, 0), (0, bad)), ((Fraction(1, 2), 0), (bad, 1))):
            with pytest.raises(TypeError, match="inexact or boolean"):
                mat_inv(m)


def test_integer_points_keep_their_entries_and_refuse_floats_and_bools():
    ints = (3, -6, 0)
    assert int_scale_point(ints) is ints
    assert int_scale_point([3, -6]) == (3, -6)
    assert int_scale_point((Fraction(1, 2), 3)) == (1, 6)
    mixed = int_scale_point((2, Fraction(-1, 4), "5/6", "3", Fraction(4, 2)))
    assert mixed == (24, -3, 10, 36, 24) and all(type(x) is int for x in mixed)
    assert int_scale_point(()) == ()
    assert primitive((3, -6, 0)) == (1, -2, 0)
    assert all(type(x) is int for x in primitive((Fraction(2, 3), 4)))
    prim = (1, -2, 0)
    assert primitive(prim) is prim
    assert primitive([1, -2]) == (1, -2) and type(primitive([1, -2])) is tuple
    for bad in ((True, 2), (1, 0.5), [False, 1], (Fraction(1, 2), 0.5), ("1/2", True)):
        with pytest.raises(TypeError, match="inexact or boolean"):
            int_scale_point(bad)
        with pytest.raises(TypeError, match="inexact or boolean"):
            primitive(bad)


def _fresh_clear(w):
    """A point cleared by definition: each entry times the lcm of the
    entries' denominators."""
    fs = [Fraction(x) for x in w]
    den = lcm(*(f.denominator for f in fs))
    return tuple(int(f * den) for f in fs)


def test_int_scale_point_remembers_only_the_last_tuple(monkeypatch):
    # the last tuple of ints and Fractions cleared is read back by
    # identity; every other input is cleared again, and every read gives
    # exactly what a fresh clear gives
    clears = []
    real_lcm = linalg.lcm
    monkeypatch.setattr(linalg, "lcm", lambda *ds: clears.append(ds) or real_lcm(*ds))

    def read(point, cleared):
        del clears[:]
        out = int_scale_point(point)
        assert out == _fresh_clear(point) and type(out) is tuple
        assert all(type(x) is int for x in out)
        assert len(clears) == cleared

    w = (Fraction(1, 2), Fraction(-2, 3), 5)
    read(w, 1)
    read(w, 0)
    twin = tuple(list(w))
    assert twin == w and twin is not w
    read(twin, 1)
    for point in ([Fraction(1, 2), 7], ("1/2", Fraction(-2, 3), "5/4")):
        read(point, 1)
        read(point, 1)
    read(twin, 0)  # neither the list nor the str tuple took its place
    other = (Fraction(3, 7), 1, Fraction(-1, 2))
    for _ in range(3):
        read(other, 1)
        read(twin, 1)
    for k in range(1, 40):  # new tuples, often at the address of a freed one
        read((Fraction(1, k), Fraction(k, 3)), 1)


def test_solve_columns_answers_in_integers_over_a_positive_denominator():
    assert solve_columns([(3,)], (1,)) == (3, [1])
    assert solve_columns([(-3,)], (1,)) == (3, [-1])
    assert solve_columns([(0, 1), (1, 0)], (2, 5)) == (1, [5, 2])  # det -1
    assert solve_columns([(2, 0, 0), (0, 0, -3)], (1, 0, 1)) == (6, [3, -2])
    assert solve_columns([(1, 2)], (1, 3)) is None
    assert solve_columns([], (0, 0)) == (1, [])
    assert solve_columns([], (0, 1)) is None
    # dependent columns are refused before w is tested against the span
    for cols, w in (([(1, 2), (2, 4)], (1, 3)), ([(1, 0), (0, 1), (1, 1)], (0, 7)),
                    ([(0, 0, 0)], (1, 0, 0)), ([(1,)] * 2, (1,))):
        with pytest.raises(SingularMatrix):
            solve_columns(cols, w)


@st.composite
def solve_cases(draw):
    """Integer columns and right-hand side for solve_columns: n <= 5 and
    r <= n + 1, so both routes (two columns of length 2, and elimination)
    are drawn.  A column may be forced into the span of the others (a
    zero column when it is the only one or its coefficients vanish), and
    w is a combination of the columns or drawn freely (off the span for
    most r < n)."""
    n = draw(st.integers(0, 5))
    r = draw(st.integers(0, n + 1))
    vec = st.lists(ENTRY, min_size=n, max_size=n)
    cols = draw(st.lists(vec, min_size=r, max_size=r))
    if r and draw(st.booleans()):
        j = draw(st.integers(0, r - 1))
        cols[j] = draw(_combinations(cols[:j] + cols[j + 1:], n))
    w = draw(_combinations(cols, n) if draw(st.booleans()) else vec)
    return cols, w


def _combinations(cols, n):
    """Integer combinations of the columns (the zero vector if there are
    no columns)."""
    return st.lists(ENTRY, min_size=len(cols), max_size=len(cols)).map(
        lambda coeffs: [sum(c * col[i] for c, col in zip(coeffs, cols)) for i in range(n)]
    )


@example(case=([(1, 2), (3, 4)], [5, 6]))
@example(case=([(1, 2), (2, 4)], [1, 3]))
@example(case=([(1, 0, 2), (0, 1, 1)], [1, 1, 9]))
@settings(deadline=None, derandomize=True, max_examples=800)
@given(case=solve_cases())
def test_solve_columns_matches_rational_gauss_jordan(case):
    cols, w = case
    got = outcome(solve_columns, cols, w)
    want = outcome(gauss_jordan_oracle, cols, w)
    if not isinstance(got, tuple):
        assert got == want
        return
    den, ys = got
    assert type(den) is int and den > 0 and all(type(y) is int for y in ys)
    assert [Fraction(y, den) for y in ys] == want
    combination = [sum(y * col[i] for y, col in zip(ys, cols)) for i in range(len(w))]
    assert combination == [den * x for x in w]


@st.composite
def square_cases(draw):
    """n integer columns of length n <= 5 and a point w; at times one
    column is a copy of another with one entry set to 0."""
    n = draw(st.integers(1, 5))
    vec = st.lists(ENTRY, min_size=n, max_size=n)
    cols = draw(st.lists(vec, min_size=n, max_size=n))
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.permutations(range(n)))[:2]
        cols[i] = list(cols[j])
        cols[i][draw(st.integers(0, n - 1))] = 0
    return cols, draw(vec)


@settings(deadline=None, derandomize=True, max_examples=200)
@given(case=square_cases())
def test_square_solve_reads_the_coordinate_rows(case):
    # den is |det| on both routes, and ys are the coordinate rows at w
    cols, w = case
    try:
        den, rows, _ = coordinate_rows(cols)
    except ValueError:
        with pytest.raises(SingularMatrix):
            solve_columns(cols, w)
        return
    assert den == abs(int_det(list(zip(*cols))))
    assert solve_columns(cols, w) == (den, [idot(row, w) for row in rows])
