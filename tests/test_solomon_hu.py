import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from shintani.cone_algebra import ConeCombo, OpenSimplicialCone
from shintani.errors import ConstantAgainstNonVanishing, NotDivisible, TruncationTooSmall
from shintani.exactnum import CoeffRing, QQ, bernoulli_poly
from shintani.solomon_hu import (
    MSeries,
    QuotSeries,
    SchwartzFn,
    exp_series,
    g_series,
    laurent_coeff_1var,
    one_minus_exp,
    pair_cone,
    pair_combo,
    parallelotope_points,
    phi_map,
    quot_equal_as_laurent,
    reduce_to_power_series,
    symmetric_laurent_coeff,
    translate,
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
        rhs = phi_map(A, 6, QQ, 2).num * exp_series(QQ, 2, 6, v)
        assert lhs.num == rhs


# ---------------------------------------------------------------------------
# Parallelotope enumeration
# ---------------------------------------------------------------------------

def test_parallelotope_interval():
    pts = parallelotope_points([(fr(2),)], 1, 1)
    assert pts == [(Fraction(1),), (Fraction(2),)]


def test_parallelotope_unit_box():
    pts = parallelotope_points([(fr(1), fr(0)), (fr(0), fr(1))], 1, 1)
    assert pts == [(Fraction(1), Fraction(1))]


def test_parallelotope_sheared():
    # frozen oracle from an independent scan over the bounding box
    pts = parallelotope_points([(fr(1), fr(0)), (fr(1), fr(2))], 1, 1)
    assert pts == [(Fraction(1), Fraction(1)), (Fraction(2), Fraction(2))]


def test_parallelotope_fine_support():
    pts = parallelotope_points([(fr(1),)], 2, 1)
    assert pts == [(Fraction(1, 2),), (Fraction(1),)]


def test_parallelotope_requires_period_lattice():
    with pytest.raises(ValueError):
        parallelotope_points([(Fraction(1, 2),)], 1, 1)


def test_parallelotope_brute_force_cross_check():
    # against a direct scan over fractional coordinates; lattice points of
    # the parallelotope have basis coordinates with denominator dividing
    # the determinant, so a grid at that resolution is exhaustive
    rng = random.Random(4)
    for _ in range(10):
        g1 = (Fraction(rng.randint(1, 3)), Fraction(rng.randint(0, 2)))
        g2 = (Fraction(rng.randint(-2, 2)), Fraction(rng.randint(1, 3)))
        det = g1[0] * g2[1] - g1[1] * g2[0]
        if det == 0:
            continue
        pts = set(parallelotope_points([g1, g2], 1, 1))
        expected = set()
        steps = abs(int(det))
        for i in range(1, steps + 1):
            for j in range(1, steps + 1):
                x1 = Fraction(i, steps)
                x2 = Fraction(j, steps)
                p = (x1 * g1[0] + x2 * g2[0], x1 * g1[1] + x2 * g2[1])
                if p[0].denominator == 1 and p[1].denominator == 1:
                    expected.add(p)
        assert pts == expected


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


def test_pair_cone_defining_identity():
    # multiplying back by prod(1 - exp(v.z)) recovers the parallelotope sum
    rng = random.Random(6)
    for _ in range(12):
        g1 = (Fraction(rng.randint(1, 3)), Fraction(rng.randint(0, 2)))
        g2 = (Fraction(rng.randint(-2, 2)), Fraction(rng.randint(1, 3)))
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
        phi = SchwartzFn(2, d, f, table)
        q = pair_cone(cone, phi, 3)
        lhs = q.num
        rat_forms = [tuple(c.rational_part() for c in form) for form in q.denoms]
        for vec in rat_forms:
            lhs = lhs * one_minus_exp(q.ring, 2, q.num.trunc, vec)
        rhs = MSeries.zero(q.ring, 2, q.num.trunc)
        for p in parallelotope_points(rat_forms, d, f):
            v = phi.value_at(p)
            if v:
                rhs = rhs + exp_series(q.ring, 2, q.num.trunc, p).scale(v)
        for vec in rat_forms:
            rhs = rhs.mul_exact_linear(vec)
        assert lhs == rhs


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
         + [CoeffRing(1, D) for D in (2, 3, 5)])


@st.composite
def palette_values(draw, ring, size):
    """size values drawn from {0, +-v1, +-v2}, so that values repeat and
    their exponential sums can cancel."""
    base = [ring.elem({b: draw(st.integers(-2, 2)) for b in ring.basis()})
            for _ in range(draw(st.integers(1, 2)))]
    palette = [ring.zero()] + base + [-v for v in base]
    return [palette[draw(st.integers(0, len(palette) - 1))] for _ in range(size)]


@st.composite
def pairing_cases(draw):
    n = draw(st.integers(1, 2))
    d = draw(st.integers(1, 3))
    f = draw(st.integers(1, 3))
    ring = draw(st.sampled_from(RINGS))
    vec = st.tuples(*[st.integers(-2, 2)] * n).filter(any)
    gens = draw(st.lists(vec, min_size=1, max_size=n))
    assume(len(gens) == 1 or gens[0][0] * gens[1][1] != gens[0][1] * gens[1][0])
    residues = list(product(range(d * f), repeat=n))
    values = draw(palette_values(ring, len(residues)))
    phi = SchwartzFn(n, d, f, dict(zip(residues, values)), ring)
    return OpenSimplicialCone(tuple(gens)), phi, draw(st.integers(0, 3))


def _exp_series_oracle(ring, nvars, trunc, weighted):
    acc = MSeries.zero(ring, nvars, trunc)
    for p, v in weighted:
        acc = acc + exp_series(ring, nvars, trunc, p).scale(v)
    return acc


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
    points = parallelotope_points(scaled, phi.d, phi.f)
    num = _exp_series_oracle(phi.ring, phi.n, trunc,
                             [(p, phi.value_at(p)) for p in points])
    for g in scaled:
        num = num * g_series(phi.ring, phi.n, trunc, g)
    if cone.dim % 2:
        num = -num
    assert q.num.trunc == num.trunc
    assert q.num.terms == num.terms


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
    from shintani.cone_algebra import sigma_decompose
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


# ---------------------------------------------------------------------------
# Reduction and coefficient extraction
# ---------------------------------------------------------------------------

def test_reduce_exact_quotient():
    A = MSeries(QQ, 1, 4, {(0,): QQ.one(), (1,): QQ.from_rat(Fraction(1, 2)),
                           (3,): QQ.from_rat(2)})
    zA = A.mul_exact_linear((QQ.one(),)).copy_trunc(5)
    q = QuotSeries(zA, ((QQ.one(),),))
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
            forms.append((ring.from_rat(a), ring.from_rat(b)))
        num = series.copy_trunc(6 + len(forms))
        for fm in forms:
            num = num.mul_exact_linear(fm)
        q = QuotSeries(num, tuple(forms))
        for m1 in range(3):
            for m2 in range(3):
                assert symmetric_laurent_coeff(q, m1, m2) == series.coeff((m1, m2))


def test_symmetric_coeff_pole_average():
    # 1/(z1 - z2): the two iterated expansions put the pole on opposite
    # sides, so the symmetric coefficient of any diagonal monomial is the
    # average of 0 and 0 except at (-1-ish) degrees; check a simple case:
    # z1/(z1 - z2) has [z1^0 z2^0] = 1 in one order, 0 in the other.
    ring = QQ
    num = MSeries(ring, 2, 3, {(1, 0): ring.one()})
    q = QuotSeries(num, ((ring.one(), ring.from_rat(-1)),))
    assert symmetric_laurent_coeff(q, 0, 0) == ring.from_rat(Fraction(1, 2))


def test_quot_addition_tracks_reliable_degree():
    ring = QQ
    a = QuotSeries(MSeries(ring, 1, 5, {(0,): ring.one()}), ((ring.one(),),))
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
