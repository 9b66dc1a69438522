import json
import random
from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from reference import (
    bernoulli_numbers_reference,
    coeff_inv,
    coeff_pow,
    cyclotomic_poly_reference,
    mat_det,
    zeta_powers_reference,
)
from shintani import exactnum
from shintani.exactnum import (
    MAX_ZETA_ENTRIES,
    MAX_ZETA_ORDER,
    CoeffRing,
    MPoly,
    bernoulli_number,
    bernoulli_poly,
    cyclotomic_poly,
)
from shintani.errors import BudgetExceeded, ShintaniError
from shintani.solomon_hu import QQ, SchwartzFn


# ---------------------------------------------------------------------------
# Bernoulli numbers and polynomials
# ---------------------------------------------------------------------------

def test_bernoulli_base_values():
    assert bernoulli_number(0) == 1
    assert bernoulli_number(1) == Fraction(-1, 2)


def test_bernoulli_twelve_against_independent_recurrence():
    # independent re-derivation of the table, written without reference to
    # the library internals
    vals = [Fraction(1)]
    for m in range(1, 13):
        acc = sum(comb(m + 1, j) * vals[j] for j in range(m))
        vals.append(Fraction(-acc, m + 1))
    assert vals[12] == Fraction(-691, 2730)
    assert bernoulli_number(12) == Fraction(-691, 2730)


def test_bernoulli_defining_recurrence_to_30():
    for m in range(1, 31):
        total = sum(comb(m + 1, j) * bernoulli_number(j) for j in range(m + 1))
        assert total == 0


def test_bernoulli_odd_vanish():
    for m in range(3, 31, 2):
        assert bernoulli_number(m) == 0


def test_bernoulli_from_tangent_numbers_matches_the_recurrence_to_300():
    assert [bernoulli_number(m) for m in range(301)] == bernoulli_numbers_reference(300)
    # an odd index above 1 is read without extending the table
    known = len(exactnum._EVEN_BERNOULLI)
    assert bernoulli_number(10 ** 9 + 1) == 0
    assert len(exactnum._EVEN_BERNOULLI) == known


def test_bernoulli_poly_examples():
    assert bernoulli_poly(1, 0) == Fraction(-1, 2)
    assert bernoulli_poly(2, 1) == Fraction(1, 6)


def test_bernoulli_poly_difference_equation():
    rng = random.Random(1)
    for _ in range(40):
        m = rng.randint(1, 8)
        x = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        assert bernoulli_poly(m, x + 1) - bernoulli_poly(m, x) == m * x ** (m - 1)


def test_bernoulli_poly_endpoint_difference():
    assert bernoulli_poly(1, 1) - bernoulli_poly(1, 0) == 1
    for m in range(2, 9):
        assert bernoulli_poly(m, 1) == bernoulli_poly(m, 0)


# ---------------------------------------------------------------------------
# Sparse polynomials
# ---------------------------------------------------------------------------

def test_mpoly_product_example():
    e1 = MPoly.var(1, 0)
    one = MPoly.const(1, 1)
    assert (e1 + one) * (e1 - one) == e1 * e1 - one


def test_mpoly_additive_identity():
    p = MPoly(2, {(1, 0): Fraction(2), (0, 3): Fraction(-1, 2)})
    assert p + MPoly.zero(2) == p


def test_mpoly_monomial_product():
    e1 = MPoly.var(2, 0)
    e2 = MPoly.var(2, 1)
    assert (e1 * e2) * e2 == MPoly(2, {(1, 2): Fraction(1)})


def test_mpoly_no_zero_terms_stored():
    p = MPoly.var(1, 0)
    q = p - p
    assert q.terms == {}
    assert (p * 0).terms == {}


def test_mpoly_scalar_division():
    p = MPoly(1, {(2,): Fraction(3)})
    assert p.scalar_div(3) == MPoly(1, {(2,): Fraction(1)})
    with pytest.raises(ZeroDivisionError):
        p.scalar_div(0)


def test_mpoly_variable_count_mismatch():
    with pytest.raises(ValueError):
        MPoly.var(1, 0) + MPoly.var(2, 0)


def _random_poly(rng, nvars, nterms=4, deg=3):
    p = MPoly.zero(nvars)
    for _ in range(nterms):
        e = tuple(rng.randint(0, deg) for _ in range(nvars))
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        p = p + MPoly(nvars, {e: c})
    return p


def test_mpoly_ring_axioms_random():
    rng = random.Random(7)
    for _ in range(30):
        a = _random_poly(rng, 2)
        b = _random_poly(rng, 2)
        c = _random_poly(rng, 2)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a


# ---------------------------------------------------------------------------
# Cyclotomic polynomials and the coefficient ring
# ---------------------------------------------------------------------------

def test_cyclotomic_small():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(3) == (1, 1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_moebius_product_matches_division():
    for m in range(1, 401):
        assert cyclotomic_poly(m) == cyclotomic_poly_reference(m)


def test_cyclotomic_order_bound():
    # an order above MAX_ZETA_ORDER is refused before any trial division,
    # here also a 21-digit prime whose factorization would not finish
    for m in (MAX_ZETA_ORDER + 1, 100000000000000000039):
        with pytest.raises(ValueError):
            cyclotomic_poly(m)
        with pytest.raises(ValueError):
            CoeffRing(m)


def test_zeta_table_entry_bound():
    # the largest order admitted (a prime, 2(p - 1) entries) and the group
    # exponent of the units mod 30011 build; the powers of an order with
    # several odd prime factors are dense (15015 would hold 48 million
    # entries), and the table is refused as soon as it passes the bound
    for m in (MAX_ZETA_ORDER, 30010):
        ring = CoeffRing(m)
        assert sum(len(ring.zeta(k).coeffs) for k in range(m)) <= MAX_ZETA_ENTRIES
    with pytest.raises(BudgetExceeded, match=f"order 15015 passes {MAX_ZETA_ENTRIES} "):
        CoeffRing(15015)


def test_coeff_ring_root_of_unity():
    for m in (1, 2, 3, 4, 5, 8, 10, 12):
        ring = CoeffRing(m)
        z = ring.zeta(1)
        assert coeff_pow(z, m) == ring.one()
        if m > 1:
            assert coeff_pow(z, m - 1) != ring.one() or m == 1


def _x_power_mod(k, phi):
    """Remainder of x^k modulo the monic integer polynomial phi, by long
    division (little-endian coefficients)."""
    deg = len(phi) - 1
    rem = [0] * max(k + 1, deg)
    rem[k] = 1
    for top in range(k, deg - 1, -1):
        c = rem[top]
        for i, p in enumerate(phi):
            rem[top - deg + i] -= c * p
    return rem[:deg]


def test_coeff_ring_zeta_is_x_power_mod_cyclotomic():
    for m in range(1, 31):
        ring = CoeffRing(m)
        phi = cyclotomic_poly(m)
        for k in range(-m, 3 * m + 1):
            z = ring.zeta(k)
            rem = _x_power_mod(k if k >= 0 else k + m, phi)
            assert z == ring.elem({(i, 0): c for i, c in enumerate(rem)}), (m, k)
            assert all(c.denominator == 1 for c in z.coeffs.values())
            assert z * ring.zeta(1) == ring.zeta(k + 1), (m, k)


@pytest.mark.parametrize("orders,orders_with_sqrt5", [
    ([*range(1, 301), 2002, 4006], (1, 2, 3, 4, 5, 12, 20)),
    ([10006], ()),
], ids=["m<=300,2002,4006", "m=10006"])
def test_zeta_table_matches_the_dense_recurrence(orders, orders_with_sqrt5):
    # the sparse reduction gives the dense recurrence's entries, as
    # Fractions, in its key order; the sqrt generator leaves them alone
    rings = [CoeffRing(m) for m in orders] + [CoeffRing(m, 5) for m in orders_with_sqrt5]
    for ring in rings:
        want = zeta_powers_reference(ring.m)
        got = [z.coeffs for z in ring._powers]
        assert got == want, ring
        assert [list(z) for z in got] == [list(z) for z in want], ring
        assert all(type(c) is Fraction for z in got for c in z.values())


def test_zeta_table_builds_one_fraction_per_distinct_coefficient(monkeypatch):
    # the dense table built one Fraction per nonzero entry, 20008 at
    # m = 10006 (2 * 5003); the sparse one shares one per distinct value
    made = []

    def counted(*args):
        made.append(args)
        return Fraction(*args)

    monkeypatch.setattr(exactnum, "Fraction", counted)
    ring = CoeffRing(10006)
    distinct = {c for z in ring._powers for c in z.coeffs.values()}
    assert len(made) == len(distinct) <= 2


def test_coeff_ring_sqrt():
    ring = CoeffRing(1, 5)
    s = ring.sqrtD()
    assert s * s == ring.from_rat(5)


def test_coeff_ring_mixed_generators():
    ring = CoeffRing(4, 2)
    i = ring.zeta(1)
    s = ring.sqrtD()
    x = (ring.one() + i * s) * (ring.one() - i * s)
    # (1 + i sqrt2)(1 - i sqrt2) = 1 + 2 = 3
    assert x == ring.from_rat(3)


def test_coeff_ring_reduction_idempotent():
    ring = CoeffRing(5, 2)
    rng = random.Random(3)
    for _ in range(20):
        coeffs = {
            (rng.randint(0, ring.deg - 1), rng.randint(0, 1)):
                Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            for _ in range(3)
        }
        x = ring.elem(coeffs)
        assert x * ring.one() == x


def test_coeff_ring_axioms_random():
    ring = CoeffRing(5, 2)
    rng = random.Random(9)

    def rand():
        return ring.elem({
            (rng.randint(0, ring.deg - 1), rng.randint(0, 1)):
                Fraction(rng.randint(-3, 3))
            for _ in range(3)
        })

    for _ in range(25):
        a, b, c = rand(), rand(), rand()
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_coeff_ring_inverse():
    ring = CoeffRing(5, 2)
    rng = random.Random(4)
    found = 0
    while found < 10:
        x = ring.elem({
            (rng.randint(0, ring.deg - 1), rng.randint(0, 1)):
                Fraction(rng.randint(-3, 3))
            for _ in range(2)
        })
        if x.is_zero():
            continue
        assert x * coeff_inv(x) == ring.one()
        found += 1


def test_coeff_ring_inverse_of_rationals_and_zero():
    for ring in (CoeffRing(1), CoeffRing(5), CoeffRing(12), CoeffRing(20),
                 CoeffRing(1, 5), CoeffRing(6, 2)):
        for c in (Fraction(3), Fraction(-2, 7), Fraction(25), Fraction(1)):
            x = ring.from_rat(c)
            assert coeff_inv(x) == ring.from_rat(1 / c)
            assert x * coeff_inv(x) == ring.one()
        with pytest.raises(ZeroDivisionError):
            coeff_inv(ring.zero())
    ring = CoeffRing(5)
    assert coeff_inv(ring.zeta(1)) == ring.zeta(4)


@st.composite
def ring_elements(draw):
    """A ring CoeffRing(m, D) and a random nonzero element of it."""
    ring = CoeffRing(draw(st.integers(1, 12)), draw(st.sampled_from([None, 2, 3, 5])))
    coeff = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    x = ring.elem({b: draw(coeff) for b in ring.basis()})
    assume(not x.is_zero())
    return ring, x


@settings(deadline=None, derandomize=True, max_examples=200)
@given(case=ring_elements())
def test_coeff_inverse_against_multiplication_determinant(case):
    # x is a unit exactly when multiplication by x is invertible on the
    # rational basis; Q(zeta_m)[sqrt D] is not a field when sqrt D lies in
    # Q(zeta_m) (m = 8, 12 for D = 2, 3; 5 | m for D = 5)
    ring, x = case
    basis = ring.basis()
    mult = [[(x * ring.elem({b: 1})).coeffs.get(k, Fraction(0)) for b in basis]
            for k in basis]
    if mat_det(mult) == 0:
        with pytest.raises(ZeroDivisionError):
            coeff_inv(x)
    else:
        assert x * coeff_inv(x) == ring.one()


def _full_product(x, y):
    """x * y expanded over the basis monomials g1^i g2^j of both factors,
    reading g1^(i1 + i2) from zeta and g2^2 = D: the oracle for the
    scalar short cut of a rational factor."""
    ring = x.ring
    acc = ring.zero()
    for (i1, j1), c1 in x.coeffs.items():
        for (i2, j2), c2 in y.coeffs.items():
            term = ring.zeta(i1 + i2) * (c1 * c2)
            if j1 + j2 == 1:
                term = term * ring.sqrtD()
            elif j1 + j2 == 2:
                term = term * ring.D
            acc = acc + term
    return acc


@settings(deadline=None, derandomize=True, max_examples=200)
@given(case=ring_elements(),
       q=st.fractions(min_value=-4, max_value=4, max_denominator=5))
def test_rational_factor_matches_full_product(case, q):
    ring, x = case
    full = _full_product(x, ring.from_rat(q))
    assert full == _full_product(ring.from_rat(q), x)
    for c in (ring.from_rat(q), q):
        assert x * c == full
        assert c * x == full
        assert all(type(v) is Fraction and v for v in (x * c).coeffs.values())


def test_rational_factor_from_another_ring_is_refused():
    with pytest.raises(ShintaniError):
        CoeffRing(3).zeta(1) * CoeffRing(5).from_rat(2)


def test_ring_arithmetic_refuses_floats_and_bools():
    ring = CoeffRing(5)
    z = ring.zeta(1)
    for bad in (0.5, -0.25, True, False):
        for op in (lambda: z * bad, lambda: bad * z, lambda: z + bad,
                   lambda: bad + z, lambda: z - bad, lambda: ring.from_rat(bad),
                   lambda: ring.coerce(bad), lambda: ring.elem({(1, 0): bad}),
                   lambda: SchwartzFn(1, 1, 2, {(1,): bad}, QQ)):
            with pytest.raises(TypeError, match="inexact or boolean"):
                op()
    assert z * 2 == z + z and z * Fraction(1, 2) == ring.elem({(1, 0): Fraction(1, 2)})


def test_polynomials_and_bernoulli_poly_refuse_floats_and_bools():
    p = MPoly.var(2, 0)
    for bad in (0.5, -0.25, True, False):
        for op in (lambda: MPoly(1, {(0,): bad}), lambda: MPoly.const(1, bad),
                   lambda: MPoly.monomial(2, (1, 0), bad), lambda: p.scalar_div(bad),
                   lambda: p * bad, lambda: bad * p, lambda: p + bad, lambda: p - bad,
                   lambda: bernoulli_poly(2, bad)):
            with pytest.raises(TypeError, match="inexact or boolean"):
                op()
    # ints, Fractions and 'p/q' strings are kept exact, stored as Fractions
    assert MPoly.const(1, "1/2").terms == {(0,): Fraction(1, 2)}
    assert all(type(c) is Fraction for c in MPoly(2, {(1, 0): 3, (0, 1): 0}).terms.values())
    assert MPoly(2, {(1, 0): 3, (0, 1): 0}) == MPoly.monomial(2, (1, 0), 3)
    assert (p * 2).scalar_div(4) == MPoly.monomial(2, (1, 0), Fraction(1, 2))
    assert bernoulli_poly(2, Fraction(1, 2)) == Fraction(-1, 12)


def test_coeff_inverse_of_zero_divisor_raises():
    # in Q(zeta_8)[sqrt 2], sqrt 2 = zeta_8 - zeta_8^3, so g2 - g1 + g1^3
    # is a nonzero zero divisor
    ring = CoeffRing(8, 2)
    x = ring.sqrtD() - ring.zeta(1) + ring.zeta(3)
    assert not x.is_zero()
    assert x * (ring.sqrtD() + ring.zeta(1) - ring.zeta(3)) == ring.zero()
    with pytest.raises(ZeroDivisionError):
        coeff_inv(x)


def test_coeff_ring_rejects_non_square_free_root():
    for D in (4, 8, 12, 18, 50):
        with pytest.raises(ValueError):
            CoeffRing(1, D)


def test_coeff_ring_coerce_cross_order():
    small = CoeffRing(3)
    big = CoeffRing(12)
    z3_in_big = big.coerce(small.zeta(1))
    assert z3_in_big == big.zeta(4)


def test_coeff_elem_rationality():
    ring = CoeffRing(4, 3)
    assert ring.from_rat(Fraction(7, 2)).is_rational()
    assert not ring.zeta(1).is_rational()
    assert not ring.sqrtD().is_rational()
    assert ring.from_rat(Fraction(7, 2)).rational_part() == Fraction(7, 2)


# ---------------------------------------------------------------------------
# Integer views: clear, from_ints and to_json
# ---------------------------------------------------------------------------

_COEFF = st.one_of(st.just(Fraction(0)),
                   st.fractions(min_value=-9, max_value=9, max_denominator=12))


@st.composite
def element_lists(draw):
    """A ring among Q, Q(zeta_m), Q(sqrt D) and Q(zeta_m, sqrt D), and a
    possibly empty list of its elements, zeros among them."""
    ring = CoeffRing(draw(st.sampled_from([1, 3, 4, 12])), draw(st.sampled_from([None, 2, 5])))
    return ring, [ring.elem({b: draw(_COEFF) for b in ring.basis()})
                  for _ in range(draw(st.integers(0, 4)))]


@settings(deadline=None, derandomize=True, max_examples=100)
@given(case=element_lists())
def test_clear_round_trips_through_from_ints(case):
    ring, elems = case
    den, ints = ring.clear(iter(elems))
    assert type(den) is int and den > 0 and len(ints) == len(elems)
    assert all(type(x) is int for c in ints for x in c.values())
    assert [ring.from_ints(c, den) for c in ints] == elems
    # den is the least common denominator: no divisor of it clears them all
    assert gcd(den, *(x for c in ints for x in c.values())) == 1


def test_clear_of_no_elements_and_of_zeros():
    ring = CoeffRing(4, 5)
    assert ring.clear([]) == (1, [])
    assert ring.clear([ring.zero(), ring.zero()]) == (1, [{}, {}])
    assert ring.from_ints({(0, 0): 0, (1, 1): 0}, 7) == ring.zero()
    x = ring.elem({(0, 0): Fraction(1, 6), (1, 1): Fraction(-3, 4)})
    assert ring.clear([x, ring.one()]) == (12, [{(0, 0): 2, (1, 1): -9}, {(0, 0): 12}])
    assert ring.from_ints({(0, 0): 2, (1, 1): -9}, -12) == -x


def test_to_json_keeps_the_cli_bytes():
    ring = CoeffRing(4, 5)
    assert json.dumps(ring.from_rat(Fraction(-7, 3)).to_json()) == '"-7/3"'
    assert json.dumps(ring.zero().to_json()) == '"0"'
    x = ring.elem({(1, 1): Fraction(-3, 4), (0, 1): 2, (1, 0): Fraction(1, 6)})
    assert json.dumps(x.to_json()) == '[[0, 1, "2"], [1, 0, "1/6"], [1, 1, "-3/4"]]'
