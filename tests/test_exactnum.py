import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import assume, given, settings, strategies as st

from shintani.exactnum import (
    CoeffRing,
    MPoly,
    bernoulli_number,
    bernoulli_poly,
    cyclotomic_poly,
)
from shintani.linalg import mat_det


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


def test_coeff_ring_root_of_unity():
    for m in (1, 2, 3, 4, 5, 8, 10, 12):
        ring = CoeffRing(m)
        z = ring.zeta(1)
        assert z ** m == ring.one()
        if m > 1:
            assert z ** (m - 1) != ring.one() or m == 1


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
        assert x * x.inv() == ring.one()
        found += 1


def test_coeff_ring_inverse_of_rationals_and_zero():
    for ring in (CoeffRing(1), CoeffRing(5), CoeffRing(12), CoeffRing(20),
                 CoeffRing(1, 5), CoeffRing(6, 2)):
        for c in (Fraction(3), Fraction(-2, 7), Fraction(25), Fraction(1)):
            x = ring.from_rat(c)
            assert x.inv() == ring.from_rat(1 / c)
            assert x * x.inv() == ring.one()
        with pytest.raises(ZeroDivisionError):
            ring.zero().inv()
    ring = CoeffRing(5)
    assert ring.zeta(1).inv() == ring.zeta(4)


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
            x.inv()
    else:
        assert x * x.inv() == ring.one()


def test_coeff_inverse_of_zero_divisor_raises():
    # in Q(zeta_8)[sqrt 2], sqrt 2 = zeta_8 - zeta_8^3, so g2 - g1 + g1^3
    # is a nonzero zero divisor
    ring = CoeffRing(8, 2)
    x = ring.sqrtD() - ring.zeta(1) + ring.zeta(3)
    assert not x.is_zero()
    assert x * (ring.sqrtD() + ring.zeta(1) - ring.zeta(3)) == ring.zero()
    with pytest.raises(ZeroDivisionError):
        x.inv()


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
