import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import product
from math import ceil, floor, gcd

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import outcome, rational_points
from reference import (
    exp_series,
    g_series,
    gauss_jordan_oracle,
    mat_inv,
    mat_mul,
    one_minus_exp,
    phi_map,
    quot_equal_as_laurent,
    reduce_to_power_series_reference,
    series_add,
    series_mul_linear,
    series_product,
    series_scale,
    symmetric_laurent_coeff_reference,
    translate,
)
from shintani.cone_algebra import ConeCombo, OpenSimplicialCone, sigma_decompose
from shintani.errors import (
    ConstantAgainstNonVanishing,
    NotDivisible,
    SingularMatrix,
    TruncationTooSmall,
    ZeroForm,
)
from shintani.exactnum import CoeffElem, CoeffRing, QQ, bernoulli_poly
from shintani.linalg import idot, int_det, reduce_rows
from shintani.lvalues import build_real_quad, s_coeffs, trivial_quad_schwartz
from shintani.solomon_hu import (
    MSeries,
    QuotSeries,
    SchwartzFn,
    _combo_laurent_1var,
    _combo_symmetric_laurent,
    _cone_points,
    _numerator,
    _ray_points,
    laurent_coeff_1var,
    pair_cone,
    pair_combo,
    parallelotope_points,
    reduce_to_power_series,
    symmetric_laurent_coeff,
)


def fr(x):
    return Fraction(x)


# ---------------------------------------------------------------------------
# The exponential generating map
# ---------------------------------------------------------------------------

def test_phi_map_single_delta():
    q = phi_map({(fr(1),): 1}, 4, QQ, 1)
    assert q.denoms == ()
    assert q.num.coeff((0,)) == QQ.one()
    assert q.num.coeff((1,)) == QQ.one()
    assert q.num.coeff((2,)) == QQ.from_rat(Fraction(1, 2))
    assert q.num.coeff((3,)) == QQ.from_rat(Fraction(1, 6))


def test_phi_map_even_symmetrization():
    v = (fr(2), fr(-1))
    neg = tuple(-x for x in v)
    q = phi_map({v: 1, neg: 1}, 5, QQ, 2)
    for e, c in q.num.terms.items():
        assert sum(e) % 2 == 0


def test_phi_map_translation_compatibility():
    rng = random.Random(2)
    for _ in range(15):
        A = {}
        for _ in range(4):
            w = (Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3)))
            A[w] = A.get(w, 0) + rng.randint(-2, 2)
        v = (Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2)))
        lhs = phi_map(translate(A, v), 6, QQ, 2)
        rhs = series_product(phi_map(A, 6, QQ, 2).num, exp_series(QQ, 2, 6, v))
        assert lhs.num == rhs


# ---------------------------------------------------------------------------
# Parallelotope enumeration
# ---------------------------------------------------------------------------

def test_parallelotope_interval():
    pts = rational_points([(2,)], 1, 1)
    assert pts == [(Fraction(1),), (Fraction(2),)]


def test_parallelotope_unit_box():
    pts = rational_points([(1, 0), (0, 1)], 1, 1)
    assert pts == [(Fraction(1), Fraction(1))]


def test_parallelotope_sheared():
    # frozen oracle from an independent scan over the bounding box
    pts = rational_points([(1, 0), (1, 2)], 1, 1)
    assert pts == [(Fraction(1), Fraction(1)), (Fraction(2), Fraction(2))]


def test_parallelotope_fine_support():
    # the points come as their integer vectors k = d p
    ks = parallelotope_points([(1,)], 2, 1)
    assert ks == [(1,), (2,)] and all(type(x) is int for k in ks for x in k)
    pts = rational_points([(1,)], 2, 1)
    assert pts == [(Fraction(1, 2),), (Fraction(1),)]


def test_parallelotope_requires_period_lattice():
    for gens, d, f in (
        ([(3,)], 1, 2),
        ([(2, 1)], 1, 2),
        ([(3, 0), (0, -4)], 2, 3),
    ):
        with pytest.raises(ValueError, match="period lattice"):
            parallelotope_points(gens, d, f)


def test_parallelotope_refuses_entries_that_are_not_ints():
    # Fractions (integral ones too), floats and bools: generators are
    # plain ints, checked once per cone before the scan
    for bad in (Fraction(1, 2), Fraction(2), 2.0, 0.5, True, False):
        for gens in ([(bad,)], [(1, 0), (0, bad)], [(bad, 1), (1, 2)], [(1, 0, bad)]):
            with pytest.raises(TypeError, match="must be ints"):
                parallelotope_points(gens, 1, 1)


def _box_scan_oracle(gens, d):
    """Rational box scan: every point p = k/d of the bounding box, one
    rational Gauss-Jordan solve each, kept when every coordinate lies in
    (0, 1]; the oracle for the integer scan of parallelotope_points."""
    n = len(gens[0])
    lo = [sum(min(Fraction(0), g[j]) for g in gens) for j in range(n)]
    hi = [sum(max(Fraction(0), g[j]) for g in gens) for j in range(n)]
    out = []
    for k in product(*(range(ceil(a * d), floor(b * d) + 1) for a, b in zip(lo, hi))):
        p = tuple(Fraction(x, d) for x in k)
        x = gauss_jordan_oracle(gens, p)
        if x is not None and all(0 < c <= 1 for c in x):
            out.append(p)
    out.sort()
    return out


@st.composite
def parallelotope_cases(draw):
    """r <= n generators in f Z^n with zero and negative entries, n <= 3,
    support scale d and period f in 1..3 (smaller entries at n = 3 keep
    the box small)."""
    n = draw(st.integers(1, 3))
    r = draw(st.integers(1, n))
    d = draw(st.integers(1, 3))
    f = draw(st.integers(1, 3))
    entry = st.integers(-2, 2) if n < 3 else st.integers(-1, 1)
    gens = draw(st.lists(st.tuples(*[entry] * n), min_size=r, max_size=r))
    return [tuple(f * x for x in g) for g in gens], d, f


@settings(deadline=None, derandomize=True, max_examples=150)
@given(case=parallelotope_cases())
def test_parallelotope_matches_rational_box_scan(case):
    gens, d, f = case
    assert outcome(rational_points, gens, d, f) == outcome(_box_scan_oracle, gens, d)


def test_parallelotope_brute_force_cross_check():
    # against a direct scan over fractional coordinates; lattice points of
    # the parallelotope have basis coordinates with denominator dividing
    # the determinant, so a grid at that resolution is exhaustive
    rng = random.Random(4)
    for _ in range(10):
        g1 = (rng.randint(1, 3), rng.randint(0, 2))
        g2 = (rng.randint(-2, 2), rng.randint(1, 3))
        det = g1[0] * g2[1] - g1[1] * g2[0]
        if det == 0:
            continue
        pts = set(rational_points([g1, g2], 1, 1))
        expected = set()
        steps = abs(det)
        for i in range(1, steps + 1):
            for j in range(1, steps + 1):
                x1 = Fraction(i, steps)
                x2 = Fraction(j, steps)
                p = (x1 * g1[0] + x2 * g2[0], x1 * g1[1] + x2 * g2[1])
                if p[0].denominator == 1 and p[1].denominator == 1:
                    expected.add(p)
        assert pts == expected


def _box(gens, d):
    """Number of integer points in the bounding box of the parallelotope
    scaled by d."""
    out = 1
    for col in zip(*gens):
        out *= d * sum(map(abs, col)) + 1
    return out


def _coordinate_grid_points(gens, d):
    """Points of (1/d)Z^n in the half-open parallelotope, by a scan over
    coordinates instead of the box: a lattice point sum y_i g_i has
    d y_i = a_i / m with m the gcd of the r x r minors (Cramer's rule on
    any r coordinates), so a_i in 1..d m is exhaustive."""
    r = len(gens)
    m = 0
    for rows in product(zip(*gens), repeat=r):
        m = gcd(m, int_det(rows))
    out = set()
    for a in product(range(1, d * m + 1), repeat=r):
        k = [sum(c * g[j] for c, g in zip(a, gens)) for j in range(len(gens[0]))]
        if all(x % m == 0 for x in k):
            out.add(tuple(Fraction(x // m, d) for x in k))
    return out


@st.composite
def reduction_cases(draw):
    """Generators f U B for n <= 2: B a small basis of rank r <= n, U a
    product of up to three shears with factors up to 10, so the entries
    reach ~10^3 while the parallelotope keeps few points; d, f in 1..3."""
    n = draw(st.integers(1, 2))
    r = draw(st.integers(1, n))
    d = draw(st.integers(1, 3))
    f = draw(st.integers(1, 3))
    if n == 1:
        return [(f * draw(st.integers(-1000, 1000).filter(bool)),)], d, f
    vec = st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(any)
    base = draw(st.lists(vec, min_size=r, max_size=r)
                .filter(lambda b: len(b) == 1 or int_det(b)))
    u = [[1, 0], [0, 1]]
    for step, q in enumerate(draw(st.lists(st.integers(-10, 10), max_size=3))):
        i = step % 2
        u[i] = [a + q * b for a, b in zip(u[i], u[1 - i])]
    return [tuple(f * idot(row, b) for row in u) for b in base], d, f


@example(case=([(181, 40)], 1, 1))
@example(case=([(1729, 640)], 1, 1))
@example(case=([(1729, 640)], 2, 1))
@example(case=([(12,)], 2, 3))
@example(case=([(1, 0), (100, 99)], 1, 1))
@settings(deadline=None, derandomize=True, max_examples=120)
@given(case=reduction_cases())
def test_reduce_rows_keeps_the_parallelotope_points(case):
    gens, d, f = case
    n = len(gens[0])
    rows, back = reduce_rows(gens)
    if back is None:
        assert rows == gens
        back = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    # back is an integer matrix of determinant +-1 whose inverse U is integer
    assert all(type(x) is int for row in back for x in row)
    assert int_det(back) in (1, -1)
    u = mat_inv(back)
    assert all(x.denominator == 1 for row in u for x in row)
    assert mat_mul(back, u) == tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    # the reduced generators are U g, and their box never exceeds the old one
    assert rows == [tuple(idot(row, g) for row in u) for g in gens]
    assert all(type(x) is int for g in rows for x in g)
    assert _box(rows, d) <= _box(gens, d)
    # scanning the reduced generators and mapping back finds the same points
    mapped = {tuple(Fraction(idot(b, k), d) for b in back)
              for k in parallelotope_points(rows, d, f)}
    assert mapped == _coordinate_grid_points(gens, d)
    if _box(gens, d) <= 20000:
        assert mapped == set(rational_points(gens, d, f))


def test_reduce_rows_shortens_the_long_ray():
    # the boundary ray of Q(sqrt 41): a 1.1 M point box becomes two points
    rows, back = reduce_rows([(1729, 640)])
    assert _box(rows, 1) == 2
    assert [tuple(idot(b, k) for b in back)
            for k in parallelotope_points(rows, 1, 1)] == [(1729, 640)]


# ---------------------------------------------------------------------------
# Pairing with a single cone
# ---------------------------------------------------------------------------

def test_pair_cone_full_lattice_bernoulli_coefficients():
    cone = OpenSimplicialCone(((1,),))
    phi = SchwartzFn(1, 1, 1, {(0,): 1})
    q = pair_cone(cone, phi, 6)
    assert laurent_coeff_1var(q, -1) == QQ.from_rat(-1)
    for k in range(6):
        expected = -bernoulli_poly(k + 1, 1) * Fraction(1, _fact(k + 1))
        assert laurent_coeff_1var(q, k) == QQ.from_rat(expected)


def _fact(n):
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


def test_pair_cone_quadratic_character_no_pole():
    cone = OpenSimplicialCone(((1,),))
    phi = SchwartzFn(1, 1, 3, {(1,): 1, (2,): -1})
    q = pair_cone(cone, phi, 5)
    assert laurent_coeff_1var(q, -1) == QQ.zero()
    assert laurent_coeff_1var(q, 0) == QQ.from_rat(Fraction(1, 3))
    series = reduce_to_power_series(q)
    assert series.coeff((0,)) == QQ.from_rat(Fraction(1, 3))


def test_pair_cone_bilinear_in_phi():
    cone = OpenSimplicialCone(((1, 0), (1, 2)))
    phi1 = SchwartzFn(2, 1, 2, {(1, 0): 1, (0, 1): -1})
    phi2 = SchwartzFn(2, 1, 2, {(1, 1): Fraction(3, 2), (0, 1): 2})
    q1 = pair_cone(cone, phi1, 4)
    q2 = pair_cone(cone, phi2, 4)
    qsum = pair_cone(cone, phi1.add(phi2), 4)
    combined = q1 + q2
    assert quot_equal_as_laurent(qsum, combined)


@st.composite
def ray_cases(draw):
    """A primitive integer generator in ambient 1..3 with entries in
    -3..3, of either lexicographic sign, and lattice data d, f in 1..3."""
    n = draw(st.integers(1, 3))
    g = draw(st.tuples(*[st.integers(-3, 3)] * n).filter(lambda g: gcd(*g) == 1))
    return g, draw(st.integers(1, 3)), draw(st.integers(1, 3))


@example(case=((1,), 3, 3))
@example(case=((-1,), 2, 3))
@example(case=((0, -2, 1), 3, 2))
@example(case=((3, -1, 0), 3, 3))
@example(case=((-1, 3, -3), 2, 3))
@settings(deadline=None, derandomize=True, max_examples=120)
@given(case=ray_cases())
def test_ray_points_match_the_parallelotope_scan(case):
    # the closed form gives the scan's points of the scaled ray, in its order
    g, d, f = case
    points = _ray_points(g, d * f)
    assert points == parallelotope_points([tuple(f * x for x in g)], d, f)
    assert len({tuple(x % (d * f) for x in k) for k in points}) == d * f


def _assert_defining_identity(cone, phi, dmax):
    """Multiplying the pairing back by prod(1 - exp(v.z)) recovers the
    exponential sum over the parallelotope points of the scan."""
    n = phi.n
    q = pair_cone(cone, phi, dmax)
    lhs = q.num
    for vec in q.denoms:
        lhs = series_product(lhs, one_minus_exp(q.ring, n, q.num.trunc, vec))
    rhs = MSeries(q.ring, n, q.num.trunc)
    for p in rational_points(q.denoms, phi.d, phi.f):
        v = phi.value_at(p)
        if v:
            rhs = series_add(rhs, series_scale(exp_series(q.ring, n, q.num.trunc, p), v))
    for vec in q.denoms:
        rhs = series_mul_linear(rhs, vec)
    assert lhs == rhs


def test_pair_cone_defining_identity_on_rays():
    # rays in ambient 1..3 with d = 3 and f = 2 or 3, generators of both signs
    rng = random.Random(25)
    for n, f, g in ((1, 2, (1,)), (1, 3, (-1,)), (2, 2, (2, -3)), (2, 3, (-1, 1)),
                    (3, 2, (1, 0, -2)), (3, 3, (0, -1, 2)), (3, 2, (-2, 1, 1))):
        d = 3
        table = {k: Fraction(rng.randint(-2, 2))
                 for k in product(range(d * f), repeat=n) if rng.randrange(3)}
        _assert_defining_identity(OpenSimplicialCone((g,)), SchwartzFn(n, d, f, table), 2)


def test_pair_cone_defining_identity():
    # multiplying back by prod(1 - exp(v.z)) recovers the parallelotope sum
    rng = random.Random(6)
    for _ in range(12):
        g1 = (rng.randint(1, 3), rng.randint(0, 2))
        g2 = (rng.randint(-2, 2), rng.randint(1, 3))
        if g1[0] * g2[1] - g1[1] * g2[0] == 0:
            continue
        cone = OpenSimplicialCone((g1, g2))
        d = rng.choice([1, 2])
        f = rng.choice([1, 2])
        table = {}
        for i in range(d * f):
            for j in range(d * f):
                if rng.randrange(3):
                    table[(i, j)] = Fraction(rng.randint(-2, 2))
        _assert_defining_identity(cone, SchwartzFn(2, d, f, table), 3)


def test_pair_cone_scaling_robustness():
    # deliberately over-scaled generators give the same Laurent expansion
    phi = SchwartzFn(2, 1, 1, {(0, 0): 1})
    base = OpenSimplicialCone(((1, 0), (1, 2)))
    q1 = pair_cone(base, phi, 4)
    for s1, s2 in ((2, 1), (1, 3), (2, 3)):
        scaled = OpenSimplicialCone(((s1, 0), (s2, 2 * s2)))
        q2 = pair_cone(scaled, phi, 4)
        assert quot_equal_as_laurent(q1, q2)


def test_pair_cone_fractional_generators_scaled_in():
    phi = SchwartzFn(1, 1, 3, {(1,): 1, (2,): -1})
    q1 = pair_cone(OpenSimplicialCone(((Fraction(1, 2),),)), phi, 4)
    q2 = pair_cone(OpenSimplicialCone(((1,),)), phi, 4)
    assert quot_equal_as_laurent(q1, q2)


# ---------------------------------------------------------------------------
# The power-sum numerator against one exp_series per point
# ---------------------------------------------------------------------------

RINGS = ([QQ] + [CoeffRing(m) for m in range(2, 13)]
         + [CoeffRing(1, D) for D in (2, 3, 5)] + [CoeffRing(4, 5), CoeffRing(3, 2)])


@st.composite
def palette_values(draw, ring, size):
    """size values drawn from {0, +-v1, +-v2}, so that values repeat and
    their exponential sums can cancel; the basis coefficients of v1 and v2
    are rationals with denominators up to 6."""
    coeff = st.builds(Fraction, st.integers(-2, 2), st.integers(1, 6))
    base = [ring.elem({b: draw(coeff) for b in ring.basis()})
            for _ in range(draw(st.integers(1, 2)))]
    palette = [ring.zero()] + base + [-v for v in base]
    return [palette[draw(st.integers(0, len(palette) - 1))] for _ in range(size)]


@st.composite
def pairing_cases(draw, ambient=(1, 1, 1, 2, 2, 2, 2, 3)):
    """A cone, a test function and dmax: n <= 2 with d, f <= 3 and
    dmax <= 3, and one case in eight n = 3 with entries in {-1, 0, 1},
    d = 1, f <= 2 and dmax <= 1 to keep the box and the oracle small; n
    is drawn from ambient."""
    n = draw(st.sampled_from(ambient))
    small = n == 3
    d = 1 if small else draw(st.integers(1, 3))
    f = draw(st.integers(1, 2 if small else 3))
    ring = draw(st.sampled_from(RINGS))
    vec = st.tuples(*[st.integers(-1, 1) if small else st.integers(-2, 2)] * n).filter(any)
    gens = draw(st.lists(vec, min_size=1, max_size=n))
    cols = [tuple(map(Fraction, g)) for g in gens]
    assume(outcome(gauss_jordan_oracle, cols, (Fraction(0),) * n) is not SingularMatrix)
    residues = list(product(range(d * f), repeat=n))
    values = draw(palette_values(ring, len(residues)))
    phi = SchwartzFn(n, d, f, dict(zip(residues, values)), ring)
    return OpenSimplicialCone(tuple(gens)), phi, draw(st.integers(0, 1 if small else 3))


def _exp_series_oracle(ring, nvars, trunc, weighted):
    acc = MSeries(ring, nvars, trunc)
    for p, v in weighted:
        acc = series_add(acc, series_scale(exp_series(ring, nvars, trunc, p), v))
    return acc


# the ray hits only the classes (1, 0) and (0, 0), both absent from the
# table: every point of the parallelotope has value zero
@example(case=(OpenSimplicialCone(((1, 0),)), SchwartzFn(2, 1, 2, {(0, 1): 1}), 2))
# the value 1 on every point of this cone: the moments sum p_2 and sum p_2^3
# vanish although single points have p_2 != 0
@example(case=(OpenSimplicialCone(((-1, -1), (0, 1))),
               SchwartzFn(2, 2, 1, {(i, j): 1 for i in range(2) for j in range(2)}), 3))
# values 1 and -1 on the points 1 and 2: the constant terms cancel
@example(case=(OpenSimplicialCone(((1,),)), SchwartzFn(1, 1, 2, {(1,): 1, (0,): -1}), 2))
@settings(deadline=None, derandomize=True, max_examples=100)
@given(case=pairing_cases())
def test_pair_cone_numerator_matches_exp_series_oracle(case):
    cone, phi, dmax = case
    q = pair_cone(cone, phi, dmax)
    scaled = [tuple(phi.f * x for x in g) for g in cone.generators]
    trunc = dmax + cone.dim
    points = rational_points(scaled, phi.d, phi.f)
    num = _exp_series_oracle(phi.ring, phi.n, trunc,
                             [(p, phi.value_at(p)) for p in points])
    for g in scaled:
        num = series_product(num, g_series(phi.ring, phi.n, trunc, g))
    if cone.dim % 2:
        num = series_scale(num, -1)
    assert q.num.trunc == num.trunc
    assert q.num.terms == num.terms


@settings(deadline=None, derandomize=True, max_examples=60)
@given(case=pairing_cases())
def test_pair_cone_numerator_coefficients_are_fractions(case):
    cone, phi, dmax = case
    for c in pair_cone(cone, phi, dmax).num.terms.values():
        assert c.coeffs and all(type(x) is Fraction for x in c.coeffs.values())


@example(case=(OpenSimplicialCone(((1, 0),)), SchwartzFn(2, 1, 2, {(0, 1): 1}), 2))
@example(case=(OpenSimplicialCone(((1, 0), (1, 1))), SchwartzFn(2, 1, 1, {(0, 0): 1}), 0))
# d f = 4 at dmax 6, past the drawn dmax: a top component of nine
# entries, each a sum over nine pairs of degrees, from 22 valued points
@example(case=(OpenSimplicialCone(((1, 0), (1, 2))),
               SchwartzFn(2, 2, 2, {(i, j): (i + 2 * j) % 3 - 1
                                    for i in range(4) for j in range(4)}),
               6))
@settings(deadline=None, derandomize=True, max_examples=150)
@given(case=pairing_cases(ambient=(1, 2)))
def test_top_degree_numerator_is_the_top_of_the_full_series(case):
    # the component the L-value routes build alone, degree dmax + rank, is
    # the degree-trunc part of the series pair_cone builds from every degree
    cone, phi, dmax = case
    trunc = dmax + cone.dim
    forms, groups = _cone_points(cone, phi)
    den, terms = _numerator(phi.ring, phi.n, trunc, phi.d, groups, forms, low=trunc)
    assert all(sum(e) == trunc and any(ints.values()) for e, ints in terms.items())
    top = {e: phi.ring.from_ints(ints, den) for e, ints in terms.items()}
    full = pair_cone(cone, phi, dmax).num
    assert top == {e: c for e, c in full.terms.items() if sum(e) == trunc}
    den, terms = _numerator(phi.ring, phi.n, trunc, phi.d, groups, forms)
    assert full == MSeries(phi.ring, phi.n, trunc,
                           {e: phi.ring.from_ints(ints, den) for e, ints in terms.items()})
    # and the combo routes read what the public readers read off pair_combo
    combo = ConeCombo([(Fraction(-2, 3), cone)])
    if phi.n == 1:
        assert (_combo_laurent_1var(combo, phi, dmax)
                == laurent_coeff_1var(pair_combo(combo, phi, dmax), dmax))
    else:
        images, m1 = ((1, 2), (-1, 3)), dmax // 2
        assert (_combo_symmetric_laurent(combo, phi, m1, dmax - m1, images)
                == symmetric_laurent_coeff(pair_combo(combo, phi, dmax), m1, dmax - m1, images))


_R5 = CoeffRing(5)
_V5 = _R5.elem({(0, 0): Fraction(1, 3), (1, 0): Fraction(-2, 5)})


@st.composite
def supports(draw):
    n = draw(st.integers(1, 2))
    ring = draw(st.sampled_from(RINGS))
    coord = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))
    points = draw(st.lists(st.tuples(*[coord] * n), max_size=5))
    A = dict(zip(points, draw(palette_values(ring, len(points)))))
    if draw(st.booleans()):
        # the same value at -p: odd moments cancel inside a value group
        A.update({tuple(-x for x in p): v for p, v in list(A.items())})
    return A, ring, n, draw(st.integers(0, 4))


@example(case=({(Fraction(1, 2),): 1, (Fraction(-1, 2),): 1, (Fraction(2, 3),): -1},
               QQ, 1, 4))
# one non-integral value on two points and its negative on two others: the
# coefficients of both value groups meet on the same basis keys, and the
# constant and odd terms cancel
@example(case=({(Fraction(1, 2),): _V5, (Fraction(-1, 2),): _V5,
                (Fraction(2, 3),): -_V5, (Fraction(-2, 3),): -_V5}, _R5, 1, 4))
@settings(deadline=None, derandomize=True, max_examples=100)
@given(case=supports())
def test_phi_map_matches_exp_series_oracle(case):
    A, ring, n, dmax = case
    q = phi_map(A, dmax, ring, n)
    oracle = _exp_series_oracle(ring, n, dmax, A.items())
    assert q.denoms == ()
    assert q.num.trunc == oracle.trunc
    assert q.num.terms == oracle.terms


# ---------------------------------------------------------------------------
# Pairing with combos
# ---------------------------------------------------------------------------

def _constant_one_decomposition():
    quads = [
        OpenSimplicialCone(((1, 0), (0, 1))),
        OpenSimplicialCone(((0, 1), (-1, 0))),
        OpenSimplicialCone(((-1, 0), (0, -1))),
        OpenSimplicialCone(((0, -1), (1, 0))),
    ]
    rays = [
        OpenSimplicialCone(((1, 0),)),
        OpenSimplicialCone(((0, 1),)),
        OpenSimplicialCone(((-1, 0),)),
        OpenSimplicialCone(((0, -1),)),
    ]
    return ConeCombo([(1, c) for c in quads + rays])


def test_pair_combo_constant_orthogonality():
    rng = random.Random(8)
    combo = _constant_one_decomposition()
    for _ in range(10):
        f = rng.choice([1, 2, 3])
        table = {}
        for i in range(f):
            for j in range(f):
                if (i, j) != (0, 0) and rng.randrange(3):
                    table[(i, j)] = Fraction(rng.randint(-2, 2))
        phi = SchwartzFn(2, 1, f, table)
        assert phi.vanishes_near_zero
        q = pair_combo(combo, phi, 3)
        assert q.is_zero_series()


def test_pair_combo_scalar_linearity():
    phi = SchwartzFn(2, 1, 2, {(1, 0): 1, (1, 1): -1})
    ray = OpenSimplicialCone(((1, 0),))
    q_half = pair_combo(ConeCombo([(Fraction(1, 2), ray)]), phi, 4)
    q_full = pair_cone(ray, phi, 4)
    assert quot_equal_as_laurent(q_half, q_full.scale(Fraction(1, 2)))


def test_pair_combo_constant_against_nonvanishing_raises():
    phi = SchwartzFn(2, 1, 1, {(0, 0): 1})
    combo = ConeCombo([(1, OpenSimplicialCone(((1, 0),)))], constant=1)
    with pytest.raises(ConstantAgainstNonVanishing):
        pair_combo(combo, phi, 3)


def test_pair_combo_constant_contributes_zero():
    phi = SchwartzFn(2, 1, 2, {(1, 0): 1})
    ray = OpenSimplicialCone(((1, 0),))
    with_const = pair_combo(ConeCombo([(1, ray)], constant=5), phi, 4)
    without = pair_combo(ConeCombo([(1, ray)]), phi, 4)
    assert quot_equal_as_laurent(with_const, without)


def test_pair_combo_cocycle_faces_pair_to_zero():
    # the alternating sum over faces is a constant function, which a
    # vanishing-near-zero test function kills
    rng = random.Random(12)
    from shintani.cli import random_invertible
    for _ in range(4):
        alphas = [random_invertible(rng, 2) for _ in range(3)]
        phi = SchwartzFn(2, 1, 2, {(1, 0): 1, (0, 1): Fraction(1, 2), (1, 1): -2})
        assert phi.vanishes_near_zero
        total = None
        for i in range(3):
            combo = sigma_decompose(alphas[:i] + alphas[i + 1:])
            q = pair_combo(combo, phi, 3).scale((-1) ** i)
            total = q if total is None else total + q
        assert total.is_zero_series()


def _multi_cone_cases():
    """(combo, test function) pairs with several cones: n = 1 and 2, forms
    shared and repeated across cones, one zero and one 1/2 coefficient."""
    ring = CoeffRing(3)
    rays1 = [((1,),), ((-1,),), ((2,),)]
    cones2 = [((1, 0), (0, 1)), ((1, 0), (1, 1)), ((1, 1),), ((0, 1), (-1, 1)),
              ((2, 0), (0, 3)), ((1, 0),)]
    coeffs = [1, Fraction(1, 2), 0, -2, 3, -1]
    one = [(c, OpenSimplicialCone(g)) for c, g in zip(coeffs, rays1)]
    two = [(c, OpenSimplicialCone(g)) for c, g in zip(coeffs, cones2)]
    return [
        (ConeCombo(one), SchwartzFn(1, 1, 3, {(1,): 1, (2,): -1})),
        (ConeCombo(one), SchwartzFn(1, 2, 1, {(0,): 1, (1,): Fraction(1, 2)})),
        (ConeCombo(two), SchwartzFn(2, 1, 2, {(1, 0): 1, (1, 1): -1, (0, 1): 3})),
        (ConeCombo(two), SchwartzFn(2, 1, 1, {(0, 0): 1})),
        (ConeCombo(two), SchwartzFn(2, 1, 3, {(1, 2): ring.zeta(1), (2, 0): 1}, ring)),
    ]


def _denom_counts(q):
    return Counter(tuple(map(str, form)) for form in q.to_json()["denoms"])


@pytest.mark.parametrize("case", range(5))
def test_pair_combo_is_sum_of_cone_pairings(case):
    combo, phi = _multi_cone_cases()[case]
    for dmax in (0, 2):
        q = pair_combo(combo, phi, dmax)
        assert q.dmax == dmax
        total = None
        union = Counter()  # | keeps the larger multiplicity of each form
        for c, cone in combo.terms:
            term = pair_cone(cone, phi, dmax)
            total = term.scale(c) if total is None else total + term.scale(c)
            union |= _denom_counts(term)
        assert quot_equal_as_laurent(q, total)
        assert _denom_counts(q) == union


def test_pair_combo_starts_from_its_first_cone():
    # one cone of coefficient 1 pairs to that cone's series, unchanged; a
    # combo without cones pairs to the zero series at dmax
    ring = CoeffRing(3)
    phi = SchwartzFn(2, 1, 3, {(1, 2): ring.zeta(1), (2, 0): 1, (1, 1): -1}, ring)
    for gens in (((1, 0), (1, 1)), ((2, 0), (0, 3)), ((1, 1),)):
        cone = OpenSimplicialCone(gens)
        for dmax in (0, 3):
            q, ref = pair_combo(ConeCombo([(1, cone)]), phi, dmax), pair_cone(cone, phi, dmax)
            assert (q.num.trunc, q.denoms, q.num.terms) == (ref.num.trunc, ref.denoms, ref.num.terms)
    for constant in (0, 2):
        q = pair_combo(ConeCombo([], constant=constant), phi, 4)
        assert (q.dmax, q.denoms, q.num.terms, q.ring) == (4, (), {}, ring)


# ---------------------------------------------------------------------------
# Reduction and coefficient extraction
# ---------------------------------------------------------------------------

def test_reduce_exact_quotient():
    A = MSeries(QQ, 1, 4, {(0,): QQ.one(), (1,): QQ.from_rat(Fraction(1, 2)),
                           (3,): QQ.from_rat(2)})
    zA = series_mul_linear(A, (1,))
    q = QuotSeries(zA, ((1,),))
    assert reduce_to_power_series(q) == A


def test_reduce_trivial_character_pole():
    cone = OpenSimplicialCone(((1,),))
    phi = SchwartzFn(1, 1, 1, {(0,): 1})
    with pytest.raises(NotDivisible):
        reduce_to_power_series(pair_cone(cone, phi, 4))


def test_laurent_coefficient_beyond_truncation():
    cone = OpenSimplicialCone(((1,),))
    phi = SchwartzFn(1, 1, 1, {(0,): 1})
    q = pair_cone(cone, phi, 3)
    with pytest.raises(TruncationTooSmall):
        laurent_coeff_1var(q, 4)


_IDENTITY = ((1, 0), (0, 1))


def test_symmetric_coeff_matches_plain_coefficient_for_honest_series():
    # multiply an honest series by denominator forms and check the
    # extraction recovers its coefficients
    rng = random.Random(14)
    ring = QQ
    for _ in range(10):
        terms = {}
        for _ in range(6):
            e = (rng.randint(0, 3), rng.randint(0, 3))
            terms[e] = ring.from_rat(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
        series = MSeries(ring, 2, 6, terms)
        forms = []
        for _ in range(rng.randint(1, 2)):
            a, b = rng.randint(-2, 2), rng.randint(-2, 2)
            if (a, b) == (0, 0):
                a = 1
            forms.append((a, b))
        num = MSeries(ring, 2, 6 + len(forms), series.terms)
        for fm in forms:
            num = series_mul_linear(num, fm)
        q = QuotSeries(num, tuple(forms))
        for m1 in range(3):
            for m2 in range(3):
                value = symmetric_laurent_coeff(q, m1, m2, _IDENTITY)
                assert value == series.coeff((m1, m2))


def test_symmetric_coeff_pole_average():
    # 1/(z1 - z2): the two iterated expansions put the pole on opposite
    # sides, so the symmetric coefficient of any diagonal monomial is the
    # average of 0 and 0 except at (-1-ish) degrees; check a simple case:
    # z1/(z1 - z2) has [z1^0 z2^0] = 1 in one order, 0 in the other.
    ring = QQ
    num = MSeries(ring, 2, 3, {(1, 0): ring.one()})
    q = QuotSeries(num, ((1, -1),))
    assert symmetric_laurent_coeff(q, 0, 0, _IDENTITY) == ring.from_rat(Fraction(1, 2))


_LAURENT_RINGS = [QQ, CoeffRing(4)] + [CoeffRing(m, D) for m in (1, 3, 4) for D in (2, 5, 13)]


@st.composite
def laurent_cases(draw):
    """A two-variable quotient series over QQ, CoeffRing(4) or
    CoeffRing(m, D), m in {1, 3, 4} and D in {2, 5, 13}: zero to three
    integer denominator forms, each with a zero first entry, a zero
    second entry or neither; a numerator with zeta parts, either any terms
    up to its truncation (poles survive) or an honest series times the
    forms; images a + b sqrt(D) of the two variables that are linearly
    independent, drawn freely or among the identity and
    ((1, 1), (0, s)), which keep forms whose image has a zero entry; and
    (m1, m2) with m1 + m2 <= dmax, an exponent -1 included, and m1 + m2
    reaching -len(forms): the polar degrees, down to the numerator's
    constant term."""
    ring = draw(st.sampled_from(_LAURENT_RINGS))
    rat = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))
    elem = st.lists(rat, min_size=len(ring.basis()), max_size=len(ring.basis())).map(
        lambda cs: ring.elem(dict(zip(ring.basis(), cs))))
    sqrt = ring.sqrtD() if ring.D else ring.from_rat(2)
    real = st.tuples(rat, rat).map(lambda ab: ring.from_rat(ab[0]) + sqrt * ab[1])
    one, zero = ring.one(), ring.zero()
    images = draw(st.one_of(
        st.sampled_from([((one, zero), (zero, one)), ((one, one), (zero, sqrt))]),
        st.tuples(st.tuples(real, real), st.tuples(real, real)),
    ).filter(lambda im: im[0][0] * im[1][1] != im[0][1] * im[1][0]))
    nonzero = st.integers(-3, 3).filter(bool)
    forms = draw(st.lists(st.one_of(
        st.tuples(nonzero, st.integers(-3, 3)),
        st.tuples(st.just(0), nonzero),
        st.tuples(nonzero, st.just(0)),
    ), max_size=3))
    dmax = draw(st.integers(0, 4))
    m1 = draw(st.integers(-1 - len(forms), dmax))
    m2 = draw(st.integers(min(-1, -len(forms) - m1), dmax - m1))
    honest = draw(st.booleans())
    trunc = dmax if honest else dmax + len(forms)
    exps = [(i, m - i) for m in range(trunc + 1) for i in range(m + 1)]
    series = MSeries(ring, 2, trunc, draw(st.dictionaries(st.sampled_from(exps), elem, max_size=8)))
    num = series
    if honest:
        for form in forms:
            num = series_mul_linear(num, form)
    return QuotSeries(num, forms), m1, m2, images, series if honest else None


# a negative power of s: the polar coefficient [t_1^-1] of 1 / z_1, which is 1
@example(case=(QuotSeries(MSeries(QQ, 2, 1, {(0, 0): QQ.one()}), ((1, 0),)),
               -1, 0, _IDENTITY, None))
@settings(deadline=None, derandomize=True, max_examples=150)
@given(case=laurent_cases())
def test_symmetric_laurent_coeff_matches_ring_reference(case):
    # the Z[sqrt D] integer extraction against the CoeffElem extraction,
    # on surviving poles and honest series alike
    q, m1, m2, images, honest = case
    value = symmetric_laurent_coeff(q, m1, m2, images)
    assert value == symmetric_laurent_coeff_reference(q, m1, m2, images)
    if honest is not None:
        assert value == honest.substitute_linear(images).coeff((m1, m2))


def _reduction(q):
    """reduce_to_power_series(q), or the message of its NotDivisible."""
    try:
        return reduce_to_power_series(q)
    except NotDivisible as exc:
        return str(exc)


def _assert_reduction_matches_reference(q):
    # the division scaled by |pivot|^trunc against the division over the
    # rationals: the same series, or NotDivisible at the same monomial
    try:
        expected = reduce_to_power_series_reference(q)
    except NotDivisible as exc:
        expected = str(exc)
    assert _reduction(q) == expected


@settings(deadline=None, derandomize=True, max_examples=150)
@given(case=laurent_cases())
def test_integer_reduction_matches_the_fraction_pivot_reference(case):
    _assert_reduction_matches_reference(case[0])


def test_mseries_coerces_its_values():
    # an int coefficient is stored as the ring element, so an int series
    # reads like the same series of ring elements
    num = MSeries(QQ, 2, 1, {(0, 0): 1, (1, 0): Fraction(1, 2), (0, 1): 0})
    assert num.terms == {(0, 0): QQ.one(), (1, 0): QQ.from_rat(Fraction(1, 2))}
    q = QuotSeries(MSeries(QQ, 2, 1, {(0, 0): 1}), ((1, 0),))
    ref = QuotSeries(MSeries(QQ, 2, 1, {(0, 0): QQ.one()}), ((1, 0),))
    for m1, m2 in ((-1, 0), (0, 0), (-1, 1)):
        assert (symmetric_laurent_coeff(q, m1, m2, _IDENTITY)
                == symmetric_laurent_coeff(ref, m1, m2, _IDENTITY))
    for bad in (1.0, True):
        with pytest.raises(TypeError):
            MSeries(QQ, 1, 2, {(0,): bad})


def _assert_integer_form(q):
    assert type(q.den) is int and q.den > 0
    for e, ints in q.terms.items():
        assert sum(e) <= q.trunc and ints
        assert all(type(x) is int and x for x in ints.values())


@pytest.mark.parametrize("case", range(5))
def test_quot_series_keeps_one_integer_form(case):
    # pairing, scaling and adding keep the ints over one positive den, the
    # MSeries view clears back to the same series, and combos reduce as
    # the rational division does
    combo, phi = _multi_cone_cases()[case]
    for dmax in (0, 2):
        q = pair_combo(combo, phi, dmax)
        _assert_reduction_matches_reference(q)
        for r in (q, q.scale(Fraction(-3, 4)), q + q.scale(-1), q.scale(0),
                  *(pair_cone(cone, phi, dmax) for _, cone in combo.terms)):
            _assert_integer_form(r)
            back = QuotSeries(r.num, r.denoms)
            assert (back.to_json(), back.num) == (r.to_json(), r.num)
        assert (q + q.scale(-1)).is_zero_series() and q.scale(0).is_zero_series()


_RING_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__")


def _spy_jobs():
    """Seeded pair jobs of ranks 1 to 3 over rings with zeta and sqrt D,
    rational coefficients that are not units included."""
    rng = random.Random(31)
    ring = CoeffRing(3, 5)
    table = {k: ring.elem({b: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for b in ring.basis()})
             for k in product(range(2), repeat=3) if any(k)}
    three = ConeCombo([(Fraction(-2, 3), OpenSimplicialCone(((1, 0, 0), (1, 1, 0), (1, 0, 1)))),
                       (3, OpenSimplicialCone(((1, 0, 0), (0, 1, 1)))),
                       (Fraction(5, 2), OpenSimplicialCone(((0, 1, 1),)))])
    return _multi_cone_cases() + [(three, SchwartzFn(3, 1, 2, table, ring))]


def _edge_reads(K, characters):
    """What every public reader of the integer series gives on the spy
    jobs: the JSON, the reduction (or its NotDivisible message), the
    Laurent coefficients and the s-coefficient tables."""
    out = []
    for combo, phi in _spy_jobs():
        q = pair_combo(combo, phi, 2)
        out += [q.to_json(), _reduction(q)]
        if phi.n == 1:
            out += [laurent_coeff_1var(q, k) for k in range(-2, 3)]
        if phi.n == 2:
            out += [symmetric_laurent_coeff(q, m1, m2, _IDENTITY)
                    for m1 in range(-2, 3) for m2 in range(-2, 3 - m1)]
    for phi in characters:
        try:
            out.append(s_coeffs(K, phi, 2).table)
        except NotDivisible as exc:
            out.append(str(exc))
    return out


def test_no_ring_arithmetic_between_the_kernel_and_the_edge(monkeypatch):
    # with CoeffElem arithmetic made to raise, every reader of a paired
    # series still gives what it gave: ring elements are only read going
    # into _numerator and built by from_ints coming out
    K = build_real_quad(13)
    ring = CoeffRing(1, 13)
    characters = [trivial_quad_schwartz(K), SchwartzFn(2, 1, 3, {
        (0, 1): 1, (0, 2): -1, (1, 0): 1, (1, 1): -1, (2, 0): -1, (2, 2): 1}, ring)]
    expected = _edge_reads(K, characters)

    def refuse(*args):
        raise AssertionError("CoeffElem arithmetic between the kernel and the edge")
    for name in _RING_OPS:
        monkeypatch.setattr(CoeffElem, name, refuse)
    assert _edge_reads(K, characters) == expected


def test_pair_cone_memory_at_det_10_4():
    # a scale guard: this cone pairs 10^4 points; its traced peak read
    # 3.96 MiB when the bound was set (11.5 MiB at det 3 10^4, linear in
    # |det|, since every point is listed before the moments are summed)
    cone = OpenSimplicialCone(((1, 0), (1, 10 ** 4)))
    phi = SchwartzFn(2, 1, 1, {(0, 0): 1})
    tracemalloc.start()
    try:
        q = pair_cone(cone, phi, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert q.dmax == 2 and q.denoms == ((1, 0), (1, 10 ** 4))
    assert peak < 6 * 2 ** 20


def test_symmetric_laurent_coeff_reads_a_polar_degree_of_the_unit_combo():
    # D = 5's unit combo against the trivial function, read at t_1^-2 in
    # embedding coordinates, whose images are cleared over s = 2
    K = build_real_quad(5)
    phi = SchwartzFn(2, 1, 1, {(0, 0): K.ring.one()}, K.ring)
    q = pair_combo(sigma_decompose([_IDENTITY, K.u_matrix]), phi, 4)
    value = symmetric_laurent_coeff(q, -2, 0, K.transition_images())
    assert value == K.ring.from_rat(Fraction(3, 4)) - K.ring.sqrtD() * Fraction(1, 4)
    assert value == symmetric_laurent_coeff_reference(q, -2, 0, K.transition_images())


def test_z_sqrt_d_layers_refuse_zeta_components():
    ring = CoeffRing(4, 5)
    images = [(ring.zeta(1), ring.one()), (ring.one(), ring.sqrtD())]
    series = MSeries(ring, 2, 2, {(1, 1): ring.one()})
    with pytest.raises(ValueError, match="zeta component"):
        series.substitute_linear(images)
    q = QuotSeries(MSeries(ring, 2, 3, {(2, 1): ring.one()}), ((1, 2),))
    with pytest.raises(ValueError, match="zeta component"):
        symmetric_laurent_coeff(q, 1, 1, images)


def test_symmetric_laurent_coeff_refuses_a_vanishing_form_image():
    # on singular images some integer form can map to zero
    q = QuotSeries(MSeries(QQ, 2, 3, {(2, 1): QQ.one()}), ((1, -1),))
    with pytest.raises(ZeroForm):
        symmetric_laurent_coeff(q, 1, 1, ((1, 1), (1, 1)))


# ---------------------------------------------------------------------------
# Linear change of variables
# ---------------------------------------------------------------------------

_K5 = build_real_quad(5)


@st.composite
def substitution_cases(draw):
    """A series in two variables over CoeffRing(m, D), m in {1, 3, 4} and
    D in {2, 5, 13}, with any terms up to its truncation (possibly none),
    two images a + b sqrt(D) per variable with rational a, b (zero
    included) and a rational point t."""
    ring = CoeffRing(draw(st.sampled_from([1, 3, 4])), draw(st.sampled_from([2, 5, 13])))
    rat = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))
    elem = st.lists(rat, min_size=len(ring.basis()), max_size=len(ring.basis())).map(
        lambda cs: ring.elem(dict(zip(ring.basis(), cs))))
    real = st.tuples(rat, rat).map(lambda ab: ring.from_rat(ab[0]) + ring.sqrtD() * ab[1])
    trunc = draw(st.integers(0, 5))
    exps = [(i, m - i) for m in range(trunc + 1) for i in range(m + 1)]
    terms = draw(st.dictionaries(st.sampled_from(exps), elem, max_size=8))
    images = draw(st.lists(st.tuples(real, real), min_size=2, max_size=2))
    return MSeries(ring, 2, trunc, terms), images, draw(st.tuples(rat, rat))


def _power(x, k, ring):
    out = ring.one()
    for _ in range(k):
        out = out * x
    return out


@example(case=(MSeries(_K5.ring, 2, 4, {(2, 2): _K5.ring.one(), (3, 0): _K5.ring.sqrtD(),
                                        (0, 1): _K5.ring.from_rat(Fraction(-1, 2))}),
               _K5.transition_images(), (Fraction(1, 2), Fraction(-3))))
@settings(deadline=None, derandomize=True, max_examples=100)
@given(case=substitution_cases())
def test_substitute_linear_matches_direct_evaluation(case):
    # each homogeneous component, evaluated at t after the substitution,
    # equals sum c_e prod_j (img_j . t)^(e_j) computed directly
    series, images, t = case
    ring = series.ring
    out = series.substitute_linear(images)
    assert (out.nvars, out.trunc) == (2, series.trunc)
    assert all(type(e) is tuple and len(e) == 2 for e in out.terms)
    zs = [img[0] * t[0] + img[1] * t[1] for img in images]
    for m in range(series.trunc + 1):
        direct = sum((c * _power(zs[0], e[0], ring) * _power(zs[1], e[1], ring)
                      for e, c in series.terms.items() if sum(e) == m), ring.zero())
        value = sum((c * (t[0] ** e[0] * t[1] ** e[1])
                     for e, c in out.terms.items() if sum(e) == m), ring.zero())
        assert value == direct


def test_substitute_linear_refuses_non_binary_input():
    images = _K5.transition_images()
    ternary = MSeries(QQ, 3, 2, {(1, 0, 1): QQ.one()})
    with pytest.raises(ValueError):
        ternary.substitute_linear(images + [(QQ.one(), QQ.one())])
    binary = MSeries(QQ, 2, 2, {(1, 1): QQ.one()})
    with pytest.raises(ValueError):
        binary.substitute_linear([(1, 0, 0), (0, 1, 0)])
    with pytest.raises(ValueError):
        binary.substitute_linear(images[:1])


def test_quot_addition_tracks_reliable_degree():
    ring = QQ
    a = QuotSeries(MSeries(ring, 1, 5, {(0,): ring.one()}), ((1,),))
    b = QuotSeries(MSeries(ring, 1, 3, {(0,): ring.one()}))
    s = a + b
    assert s.dmax == min(a.dmax, b.dmax)
    assert len(s.denoms) == 1


def test_quot_series_golden_dump():
    # frozen JSON of the pairing of the positive ray with the quadratic
    # character mod 3, truncated low enough to read by hand
    cone = OpenSimplicialCone(((1,),))
    phi = SchwartzFn(1, 1, 3, {(1,): 1, (2,): -1})
    q = pair_cone(cone, phi, 1)
    # numerator -(exp(z) - exp(2z)) g(3z) = z + 0 z^2 + ...; the absent
    # degree-2 term reflects the vanishing value at -1
    assert q.to_json() == {
        "nvars": 1,
        "dmax": 1,
        "zeta_order": 1,
        "sqrt": None,
        "denoms": [["3"]],
        "coeffs": [
            {"deg": [1], "value": "1"},
        ],
    }


def test_schwartz_json_round_trip():
    ring = CoeffRing(4, 5)
    phi = SchwartzFn(2, 2, 3, {(1, 0): ring.zeta(1), (0, 5): ring.sqrtD()}, ring)
    doc = phi.to_json()
    back = SchwartzFn.from_json(doc)
    assert back.to_json() == doc
    assert back.value_at((Fraction(1, 2), Fraction(0))) == ring.zeta(1)


def test_schwartz_value_lookup():
    phi = SchwartzFn(1, 2, 3, {(1,): 5})
    assert phi.value_at((Fraction(1, 2),)) == QQ.from_rat(5)
    assert phi.value_at((Fraction(1, 2) + 3,)) == QQ.from_rat(5)
    assert phi.value_at((Fraction(1, 3),)) == QQ.zero()
    assert phi.value_at((Fraction(1),)) == QQ.zero()


def test_schwartz_value_refuses_a_point_of_another_dimension():
    phi = SchwartzFn(2, 1, 2, {(1, 0): 1})
    assert phi.value_at((1, 0)) == QQ.from_rat(1)
    for w in ((1,), (1, 0, 0)):
        with pytest.raises(ValueError, match="point dimension mismatch"):
            phi.value_at(w)


def test_schwartz_refuses_residue_keys_that_are_not_ints():
    # int(x) used to truncate such keys: {(1.5,): 1} read as {(1,): 1}
    assert SchwartzFn(1, 1, 2, {(3,): 1, (-2,): 4}).table == {(1,): QQ.one(), (0,): 4}
    for bad in (1.5, Fraction(3, 2), True, "3", None):
        with pytest.raises(TypeError, match="expected an integer"):
            SchwartzFn(1, 1, 2, {(bad,): 1})
        with pytest.raises(TypeError, match="expected an integer"):
            SchwartzFn(2, 1, 2, {(0, bad): 1})
