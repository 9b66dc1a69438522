import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import cocycle_cases, random_general_position, random_nonzero_vector
from reference import (
    GeneralPositionViolation,
    SingularBasis,
    closed_form_sigma_n2,
    coboundary_tau_half,
    cramer_forms_reference,
    cvalue,
    dvalue,
    identity,
    mat_det,
    mat_inv,
    mat_mul,
    mat_vec,
    moment_vector,
    solomon_s,
    tau_transport,
)
from shintani.cli import random_degenerate_tuple, random_invertible
from shintani.cocycle_core import (
    CocycleChecker,
    SigmaKernel,
    _cramer_walk,
    _faces,
    _lazy_sign,
    sigma_eval,
    tau_cocycle,
)
from shintani.cone_algebra import sigma_decompose
from shintani.errors import SingularMatrix, ZeroVector
from shintani.exactnum import MPoly
from shintani.linalg import first_nonzero_sign, int_scale_point, sign
from shintani.ordered_field import OrderedElem, iota


I2 = identity(2)


def _perm_sign(perm):
    s = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                s = -s
    return s


# ---------------------------------------------------------------------------
# The d invariant
# ---------------------------------------------------------------------------

def test_dvalue_dimension_one():
    assert dvalue([(1,), (-1,)]) == -1
    assert dvalue([(-1,), (1,)]) == 1
    assert dvalue([(1,), (1,)]) == 0


def test_dvalue_examples_dimension_two():
    assert dvalue([(1, 0), (0, 1), (-1, -1)]) == 1
    assert dvalue([(1, 0), (0, 1), (1, -1)]) == 0


def test_dvalue_general_position_checked():
    with pytest.raises(GeneralPositionViolation):
        dvalue([(1, 0), (2, 0), (0, 1)])


def test_dvalue_kernel_sign_oracle():
    # independent check: solve for the kernel vector by Cramer and compare
    rng = random.Random(23)
    for _ in range(100):
        n = rng.randint(1, 3)
        vecs = random_general_position(rng, n, n + 1)
        cols = [tuple(v[i] for v in vecs) for i in range(n)]  # rows
        dets = []
        for i in range(n + 1):
            sub = [v for j, v in enumerate(vecs) if j != i]
            m = tuple(tuple(v[k] for v in sub) for k in range(n))
            dets.append(mat_det(m))
        lam = [(-1) ** i * d for i, d in enumerate(dets)]
        expected = sign(lam[0]) if all(
            sign(x) == sign(lam[0]) for x in lam
        ) else 0
        assert dvalue(vecs) == expected


def test_dvalue_permutation_rule():
    rng = random.Random(29)
    for _ in range(40):
        n = rng.randint(1, 3)
        vecs = random_general_position(rng, n, n + 1)
        base = dvalue(vecs)
        perm = list(range(n + 1))
        rng.shuffle(perm)
        assert dvalue([vecs[i] for i in perm]) == _perm_sign(perm) * base


def test_dvalue_positive_scaling():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(1, 3)
        vecs = random_general_position(rng, n, n + 1)
        scaled = []
        for v in vecs:
            lam = Fraction(rng.randint(1, 5), rng.randint(1, 3))
            scaled.append(tuple(lam * x for x in v))
        assert dvalue(scaled) == dvalue(vecs)


def test_dvalue_matrix_equivariance():
    rng = random.Random(37)
    for _ in range(40):
        n = rng.randint(1, 3)
        vecs = random_general_position(rng, n, n + 1)
        a = random_invertible(rng, n)
        moved = [mat_vec(a, v) for v in vecs]
        assert dvalue(moved) == sign(mat_det(a)) * dvalue(vecs)


def test_dvalue_alternating_sum_vanishes():
    rng = random.Random(41)
    for _ in range(60):
        n = rng.randint(1, 3)
        vecs = random_general_position(rng, n, n + 2)
        total = 0
        for i in range(n + 2):
            sub = vecs[:i] + vecs[i + 1:]
            total += (-1) ** i * dvalue(sub)
        assert total == 0


def test_dvalue_embedding_invariance():
    # order-preserving embeddings leave the invariant unchanged
    rng = random.Random(43)
    for _ in range(30):
        vecs = random_general_position(rng, 2, 3)
        lifted = [
            tuple(OrderedElem.from_rat(2, x) for x in v) for v in vecs
        ]
        embedded = [tuple(iota(1, x) for x in v) for v in lifted]
        assert dvalue(embedded) == dvalue(vecs)


# ---------------------------------------------------------------------------
# The c function
# ---------------------------------------------------------------------------

def test_cvalue_examples():
    e1, e2 = (1, 0), (0, 1)
    assert cvalue([e1, e2], (1, 1)) == 1
    assert cvalue([e2, e1], (1, 1)) == -1
    assert cvalue([e1, e2], (-1, 1)) == 0


def test_cvalue_singular_basis():
    with pytest.raises(SingularBasis):
        cvalue([(1, 0), (2, 0)], (1, 1))


def test_cvalue_dvalue_relation():
    # c(v_1..v_n)(w) = (-1)^n d(v_1..v_n, -w) in general position
    rng = random.Random(47)
    for _ in range(60):
        n = rng.randint(1, 3)
        vecs = random_general_position(rng, n, n + 1)
        basis, w = vecs[:n], vecs[n]
        neg_w = tuple(-x for x in w)
        assert cvalue(basis, w) == (-1) ** n * dvalue(list(basis) + [neg_w])


def test_cvalue_cocycle_relation():
    # sum_i (-1)^i c(omit v_i)(w) = d(v_0..v_n)
    rng = random.Random(53)
    for _ in range(60):
        n = rng.randint(2, 3)
        vecs = random_general_position(rng, n, n + 2)
        tup, w = vecs[: n + 1], vecs[n + 1]
        total = 0
        for i in range(n + 1):
            sub = tup[:i] + tup[i + 1:]
            total += (-1) ** i * cvalue(sub, w)
        assert total == dvalue(tup)


# ---------------------------------------------------------------------------
# Cocycle evaluation
# ---------------------------------------------------------------------------

def test_moment_vector_entries():
    b = moment_vector(1, 3, 3)
    assert b[0] == MPoly.const(3, 1)
    assert b[1] == MPoly.var(3, 1)
    assert b[2] == MPoly.var(3, 1) * MPoly.var(3, 1)


def test_sigma_examples_from_closed_form_table():
    assert sigma_eval([I2, ((-1, 0), (0, 1))], (3, 2)) == 1
    assert sigma_eval([I2, ((1, 0), (0, -1))], (3, 0)) == -1
    assert sigma_eval([I2, ((-1, 0), (0, -1))], (-2, 0)) == 1


def test_sigma_rejects_bad_input():
    with pytest.raises(SingularMatrix):
        sigma_eval([I2, ((1, 0), (2, 0))], (1, 1))
    with pytest.raises(ZeroVector):
        sigma_eval([I2, I2], (0, 0))


def test_sigma_function_is_reusable():
    f = SigmaKernel([I2, ((-1, 0), (0, 1))]).eval
    assert f((3, 2)) == 1
    assert f((3, -2)) == 0


def test_tau_equals_alternating_sigma_sum():
    rng = random.Random(59)
    for _ in range(25):
        n = rng.randint(2, 3)
        alphas = [random_invertible(rng, n) for _ in range(n + 1)]
        checker = CocycleChecker(alphas)
        assert checker.tau == dvalue(_moment_columns(alphas, n + 1))
        for _ in range(10):
            w = random_nonzero_vector(rng, n)
            assert checker.alternating_sum(w) == checker.tau


def test_tau_with_repeated_matrices():
    rng = random.Random(61)
    for _ in range(15):
        n = rng.randint(2, 3)
        alphas = [random_invertible(rng, n) for _ in range(n + 1)]
        alphas[1] = alphas[0]
        checker = CocycleChecker(alphas)
        for _ in range(10):
            w = random_nonzero_vector(rng, n)
            assert checker.alternating_sum(w) == checker.tau


def test_tau_gl_equivariance():
    rng = random.Random(67)
    for _ in range(20):
        n = rng.randint(2, 3)
        alphas = [random_invertible(rng, n) for _ in range(n + 1)]
        beta = random_invertible(rng, n)
        moved = [mat_mul(beta, a) for a in alphas]
        assert tau_cocycle(moved) == sign(mat_det(beta)) * tau_cocycle(alphas)


def _moment_columns(alphas, nvars):
    """The perturbed columns alpha_i (1, e_i, ..., e_i^(n-1)) as polynomial
    vectors over ``nvars`` infinitesimals, slot i carrying the i-th."""
    n = len(alphas[0])
    cols = []
    for i, a in enumerate(alphas):
        b = moment_vector(i, n, nvars)
        col = []
        for row in range(n):
            acc = MPoly.zero(nvars)
            for k in range(n):
                acc = acc + b[k] * a[row][k]
            col.append(acc)
        cols.append(col)
    return cols


def _oracle_tuples(rng, sizes, extra):
    """Random and engineered degenerate tuples of n + extra matrices of
    size n; the degenerate families make leading forms vanish, so the lex
    order past the first term decides the sign."""
    for n in sizes:
        for degenerate in (False, True) if n >= 2 else (False,):
            for _ in range(3):
                if degenerate:
                    yield n, random_degenerate_tuple(rng, n, n + extra)
                else:
                    yield n, [random_invertible(rng, n) for _ in range(n + extra)]


def test_sigma_matches_cone_indicator_on_moment_columns():
    # the integer kernel against the signed cone indicator evaluated on the
    # perturbed columns over the ordered field, at random points and at
    # the first columns of the matrices, where leading forms vanish
    rng = random.Random(97)
    for n, alphas in _oracle_tuples(rng, (1, 2, 3, 4), 0):
        cols = _moment_columns(alphas, n)
        ws = [random_nonzero_vector(rng, n) for _ in range(6)]
        ws += [tuple(row[0] for row in a) for a in alphas]
        for w in ws:
            wcol = [MPoly.const(n, x) for x in w]
            assert sigma_eval(alphas, w) == cvalue(cols, wcol)


def test_tau_matches_dvalue_on_moment_columns():
    # tau_cocycle reads the alternating sign of the faces' determinants
    # from their last slots; the ordered-field d-invariant is its
    # independent reference
    rng = random.Random(101)
    for n, alphas in _oracle_tuples(rng, (2, 3), 1):
        assert tau_cocycle(alphas) == dvalue(_moment_columns(alphas, n + 1))


def test_checker_setup_matches_standalone_kernels():
    # the checker clears each matrix once and reads tau from its face
    # kernels; tau must equal the ordered-field oracle and every face kernel
    # the kernel built from the face matrices alone
    rng = random.Random(103)
    for n in (1, 2, 3, 4):
        for degenerate in (False, True):
            for _ in range(4 if n < 4 else 2):
                if degenerate:
                    alphas = random_degenerate_tuple(rng, n, n + 1)
                else:
                    alphas = [random_invertible(rng, n) for _ in range(n + 1)]
                checker = CocycleChecker(alphas)
                assert checker.tau == dvalue(_moment_columns(alphas, n + 1))
                assert len(checker.kernels) == n + 1
                for i, kernel in enumerate(checker.kernels):
                    face = SigmaKernel(alphas[:i] + alphas[i + 1:])
                    assert kernel.n == face.n == n
                    assert kernel.forms == face.forms
                    assert kernel.det_sign == face.det_sign


@st.composite
def cramer_cases(draw):
    """Integer columns cols[j][k] of n matrices (n = 1..4) and a slot.
    Entries are small, so zero entries and zero forms are common; half the
    cases draw every column from a pool of two, so columns repeat within
    and across the matrices."""
    n = draw(st.integers(1, 4))
    vec = st.tuples(*[st.integers(-2, 2)] * n)
    if draw(st.booleans()):
        vec = st.sampled_from(draw(st.lists(vec, min_size=2, max_size=2)))
    cols = draw(st.lists(st.tuples(*[vec] * n), min_size=n, max_size=n))
    return cols, draw(st.integers(0, n - 1))


@settings(deadline=None, derandomize=True, max_examples=300)
@given(case=cramer_cases())
def test_cramer_forms_match_the_sorted_reference(case):
    # the kernel walks the columns in exponent order and uses closed-form
    # cofactors; the reference builds each form from unit-vector
    # determinants, keyed by exponent and sorted
    cols, slot = case
    assert tuple(_cramer_walk(cols, slot)) == cramer_forms_reference(cols, slot)


def _vanishing_points(form, count=2):
    """The first nonzero integer points f_j e_i - f_i e_j (i < j) on the
    hyperplane of a form."""
    n = len(form)
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            if form[i] or form[j]:
                w = [0] * n
                w[i], w[j] = form[j], -form[i]
                out.append(tuple(w))
    return out[:count]


def _check_lazy_kernel(alphas, w, face, seed):
    # a kernel builds a slot's forms only while every form built so far
    # vanishes at the point read; its signs must be those of the full
    # lists, at seeded points, first columns and points on which form 0 of
    # a slot vanishes, and once read in full its lists are the reference's
    n = len(alphas) - 1
    checker = CocycleChecker(alphas)
    assert tau_cocycle(alphas) == checker.tau
    cols = _faces(alphas)[face % (n + 1)]
    kernel = checker.kernels[face % (n + 1)]
    full = [tuple(_cramer_walk(cols, i)) for i in range(n)]
    det = next(s for col in cols[-1] if (s := first_nonzero_sign(full[-1], (col,))[0]))
    assert kernel.det_sign == det
    rng = random.Random(seed)
    points = [w] + [random_nonzero_vector(rng, n) for _ in range(3)]
    points += [tuple(row[0] for row in a) for a in alphas]
    for forms in full:
        points += _vanishing_points(forms[0])
    for p in points:
        q = (int_scale_point(p),)
        want = det if all(first_nonzero_sign(f, q)[0] == det for f in full) else 0
        assert kernel.eval(p) == want
    assert kernel.forms == tuple(cramer_forms_reference(cols, i) for i in range(n))


@settings(deadline=None, derandomize=True, max_examples=60)
@given(case=cocycle_cases(sizes=(1, 2, 3, 4)), face=st.integers(0, 4),
       seed=st.integers(0, 2 ** 16))
def test_lazy_kernel_matches_the_full_form_lists(case, face, seed):
    _check_lazy_kernel(*case, face, seed)


@settings(deadline=None, derandomize=True, max_examples=5)
@given(case=cocycle_cases(sizes=(5,)), face=st.integers(0, 5), seed=st.integers(0, 2 ** 16))
def test_lazy_kernel_matches_the_full_form_lists_at_n5(case, face, seed):
    # one n = 5 kernel's reference lists take about 0.7 s, so fewer examples
    _check_lazy_kernel(*case, face, seed)


def test_lazy_sign_stops_at_a_form_of_mixed_sign():
    # on a cone of several generators a form taking both signs ends the
    # read as first_nonzero_sign does: no later form is built or read
    gens = ((1, 0, 0), (0, 1, 0))
    built, rest = [], iter([(0, 0, 1), (1, -1, 0), (1, 1, 0)])
    assert _lazy_sign(built, rest, gens) == (None, (1, -1, 0))
    assert built == [(0, 0, 1), (1, -1, 0)]
    assert _lazy_sign(built, rest, gens) == (None, (1, -1, 0))
    assert list(rest) == [(1, 1, 0)]


_SING = ((1, 0), (2, 0))
_WIDE = ((1, 2, 3), (4, 5, 6))
_RAGGED = ((1, 0), (0,))
_FLOAT = ((1.5, 0), (0, 1))
_I3 = identity(3)
_SQUARE = (ValueError, "matrices must all be square of one size")
_SINGULAR = (SingularMatrix, "matrix argument is singular")
_NO_MATRIX = (ValueError, "need at least one matrix")
_FLOAT_ERR = (TypeError, "inexact or boolean value 1.5")

# Bad matrices at various positions; the first bad matrix in order wins,
# after every entry has been coerced.
_BAD_FACES = [
    ([_SING, I2], _SINGULAR),
    ([I2, _SING], _SINGULAR),
    ([I2, _WIDE], _SQUARE),
    ([_WIDE, _SING], _SQUARE),
    ([_SING, _WIDE], _SINGULAR),
    ([I2, _RAGGED], _SQUARE),
    ([I2, _I3], _SQUARE),
    ([_I3, I2], _SQUARE),
    ([_SING, _I3], _SINGULAR),
    ([_SING, _FLOAT], _FLOAT_ERR),
    ([], _NO_MATRIX),
    ([I2], (ValueError, "need n matrices of size n x n")),
    ([_I3, _I3], (ValueError, "need n matrices of size n x n")),
]
_BAD_TUPLES = [
    ([I2, I2, _SING], _SINGULAR),
    ([_SING, I2, I2], _SINGULAR),
    ([I2, _WIDE, _SING], _SQUARE),
    ([I2, _SING, _WIDE], _SINGULAR),
    ([I2, _I3, I2], _SQUARE),
    ([I2, I2, _RAGGED], _SQUARE),
    ([_SING, I2, _FLOAT], _FLOAT_ERR),
    ([], _NO_MATRIX),
    ([I2], (ValueError, "need n+1 matrices of size n x n")),
    ([I2, I2], (ValueError, "need n+1 matrices of size n x n")),
    ([I2] * 4, (ValueError, "need n+1 matrices of size n x n")),
]


def _raises(fn, alphas, expected):
    cls, message = expected
    with pytest.raises(Exception) as info:
        fn(alphas)
    assert type(info.value) is cls
    assert str(info.value) == message


@pytest.mark.parametrize("alphas,expected", _BAD_FACES)
@pytest.mark.parametrize("fn", [SigmaKernel, sigma_decompose])
def test_face_setup_errors(fn, alphas, expected):
    _raises(fn, alphas, expected)


@pytest.mark.parametrize("alphas,expected", _BAD_TUPLES)
@pytest.mark.parametrize("fn", [tau_cocycle, CocycleChecker])
def test_tuple_setup_errors(fn, alphas, expected):
    _raises(fn, alphas, expected)


def test_sigma_gl_equivariance():
    rng = random.Random(71)
    for _ in range(25):
        n = rng.randint(2, 3)
        alphas = [random_invertible(rng, n) for _ in range(n)]
        beta = random_invertible(rng, n)
        w = random_nonzero_vector(rng, n)
        lhs = sigma_eval([mat_mul(beta, a) for a in alphas], w)
        rhs = sign(mat_det(beta)) * sigma_eval(alphas, mat_vec(mat_inv(beta), w))
        assert lhs == rhs


# ---------------------------------------------------------------------------
# Dimension 2: reference cocycle, half-ray coboundary, closed forms
# ---------------------------------------------------------------------------

def test_solomon_s_examples():
    rot = ((0, -1), (1, 0))
    assert solomon_s(I2, rot, (1, 1)) == 1
    assert solomon_s(I2, rot, (1, 0)) == Fraction(1, 2)
    assert solomon_s(I2, I2, (1, 1)) == 0


def test_coboundary_tau_half_examples():
    assert coboundary_tau_half((3, 0)) == Fraction(1, 2)
    assert coboundary_tau_half((-3, 0)) == 0
    assert coboundary_tau_half((0, 1)) == 0
    with pytest.raises(ZeroVector):
        coboundary_tau_half((0, 0))


def _solomon_gap(a, b, w, orientation):
    lhs = Fraction(sigma_eval([a, b], w)) - solomon_s(a, b, w)
    rhs = tau_transport(a, w) - tau_transport(b, w)
    return lhs - orientation * rhs


def _first_columns_independent(a, b):
    return a[0][0] * b[1][0] - a[1][0] * b[0][0] != 0


def test_solomon_comparison_constant_with_derived_orientation():
    # (sigma - s)(a, b) differs from b*tau - a*tau by a constant function
    # whenever the two first columns are independent; derived directly from
    # the definitions (homogeneous coboundary of the half-ray function).
    rng = random.Random(73)
    done = 0
    while done < 30:
        a = random_invertible(rng, 2)
        b = random_invertible(rng, 2)
        if not _first_columns_independent(a, b):
            continue
        done += 1
        vals = set()
        ws = [random_nonzero_vector(rng, 2) for _ in range(25)]
        ws += [(1, 0), (-1, 0), (0, 1), (0, -1),
               (a[0][0], a[1][0]), (b[0][0], b[1][0])]
        for w in ws:
            if any(x != 0 for x in w):
                vals.add(_solomon_gap(a, b, w, -1))
        assert len(vals) == 1


def test_solomon_comparison_opposite_orientation_not_constant():
    # with the opposite transport orientation the difference genuinely
    # depends on w, so the derived orientation above is forced
    rot = ((0, -1), (1, 0))
    vals = {_solomon_gap(I2, rot, w, +1) for w in [(1, 1), (1, 0), (0, 1), (-1, 0)]}
    assert len(vals) > 1


def test_solomon_comparison_parallel_columns_only_mod_kernel():
    # when the first columns are parallel the reference cocycle is set to 0
    # and no constant shift can reconcile the two sides: the relation only
    # survives modulo functions the pairing kills, so pairs like this stay
    # out of the constancy suite
    a, b = I2, ((-1, 0), (0, -1))
    vals = {_solomon_gap(a, b, w, -1) for w in [(1, 1), (1, 0), (-1, 0), (0, -1)]}
    assert len(vals) > 1


def _random_case_ii_matrix(rng, sa, sc):
    # lower-left nonzero with prescribed signs of the factorization data
    while True:
        a = Fraction(rng.randint(1, 6), rng.randint(1, 3)) * sa
        c = Fraction(rng.randint(1, 6), rng.randint(1, 3)) * sc
        b = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        d = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        alpha = ((b, a + b * d), (c, c * d))
        if mat_det(alpha) != 0:
            return alpha


def test_closed_form_triangular_cases():
    rng = random.Random(79)
    for sa in (1, -1):
        for sc in (1, -1):
            for _ in range(30):
                a = Fraction(rng.randint(1, 6), rng.randint(1, 3)) * sa
                c = Fraction(rng.randint(1, 6), rng.randint(1, 3)) * sc
                b = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                alpha = ((a, b), (0, c))
                for _ in range(10):
                    w = random_nonzero_vector(rng, 2)
                    assert closed_form_sigma_n2(alpha, w) == sigma_eval([I2, alpha], w)
                for w in [(1, 0), (-1, 0), (0, 1), (0, -1)]:
                    assert closed_form_sigma_n2(alpha, w) == sigma_eval([I2, alpha], w)


def test_closed_form_swap_cases():
    rng = random.Random(83)
    for sa in (1, -1):
        for sc in (1, -1):
            for _ in range(30):
                alpha = _random_case_ii_matrix(rng, sa, sc)
                b, c = alpha[0][0], alpha[1][0]
                boundary = [(1, 0), (-1, 0), (b, c), (-b, -c)]
                ws = [random_nonzero_vector(rng, 2) for _ in range(10)]
                for w in ws + boundary:
                    if any(Fraction(x) != 0 for x in w):
                        assert closed_form_sigma_n2(alpha, w) == sigma_eval([I2, alpha], w)


def test_closed_form_identity_is_zero():
    for w in [(1, 0), (0, 1), (-2, 3), (5, 5)]:
        assert closed_form_sigma_n2(I2, w) == 0


# ---------------------------------------------------------------------------
# Hypothesis: the cocycle relation on generic and degenerate tuples
# ---------------------------------------------------------------------------

@settings(deadline=None, derandomize=True, max_examples=150)
@given(case=cocycle_cases())
def test_cocycle_properties_on_drawn_families(case):
    alphas, w = case
    checker = CocycleChecker(alphas)
    assert checker.holds_at(w)
    assert checker.tau == dvalue(_moment_columns(alphas, len(alphas)))
    assert sigma_decompose(alphas[1:]).eval(w) == checker.kernels[0].eval(w)


def test_alternating_sum_on_fraction_points_matches_face_kernels():
    # alternating_sum clears the point to integers once and hands the int
    # tuple to every face kernel; the result must equal the signed sum of
    # the kernels evaluated on the original Fraction point
    rng = random.Random(71)
    for _ in range(20):
        n = rng.randint(2, 3)
        alphas = [random_invertible(rng, n) for _ in range(n + 1)]
        checker = CocycleChecker(alphas)
        for _ in range(8):
            w = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(n))
            if not any(w):
                continue
            signed = sum((-1) ** i * k.eval(w) for i, k in enumerate(checker.kernels))
            assert checker.alternating_sum(w) == signed == checker.tau
            assert checker.alternating_sum(tuple(3 * x for x in w)) == signed


def test_alternating_sum_clears_each_point_once(monkeypatch):
    import shintani.cocycle_core as core
    cleared = []
    real = core.int_scale_point

    def counting(w):
        if not (type(w) is tuple and all(type(x) is int for x in w)):
            cleared.append(w)
        return real(w)

    rng = random.Random(73)
    checker = CocycleChecker([random_invertible(rng, 3) for _ in range(4)])
    monkeypatch.setattr(core, "int_scale_point", counting)
    w = (Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4))
    checker.alternating_sum(w)
    assert cleared == [w]


def test_face_kernels_clear_a_point_once(monkeypatch):
    # the n+1 face kernels of a checker read one tuple of Fractions in
    # turn and clear it once, with the values of the cleared point
    import shintani.linalg as linalg
    rng = random.Random(79)
    checker = CocycleChecker([random_invertible(rng, 3) for _ in range(4)])
    clears = []
    real_lcm = linalg.lcm
    monkeypatch.setattr(linalg, "lcm", lambda *ds: clears.append(ds) or real_lcm(*ds))
    for _ in range(5):
        w = tuple(Fraction(rng.randint(1, 6) * rng.choice((-1, 1)), rng.randint(2, 5))
                  for _ in range(3))
        del clears[:]
        values = [k.eval(w) for k in checker.kernels]
        assert len(clears) == 1
        assert values == [k.eval(tuple(int(60 * x) for x in w)) for k in checker.kernels]
