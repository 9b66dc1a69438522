import random
from fractions import Fraction

import pytest

from shintani.errors import ZeroPolynomial
from shintani.exactnum import MPoly
from shintani.ordered_field import OrderedElem, compare, iota, leading_monomial


def eps(i, nvars):
    return OrderedElem.var(nvars, i)


def const(c, nvars):
    return OrderedElem.from_rat(nvars, c)


# ---------------------------------------------------------------------------
# Leading terms under the highest-index-first exponent order
# ---------------------------------------------------------------------------

def test_leading_constant_dominates():
    p = MPoly.const(1, 1) - MPoly.var(1, 0)  # 1 - e1
    assert leading_monomial(p) == ((0,), Fraction(1))


def test_leading_lower_index_power_beats_higher_index():
    e1 = MPoly.var(2, 0)
    e2 = MPoly.var(2, 1)
    p = e1 * e1 * e1 * e1 * e1 - e2  # e1^5 - e2
    assert leading_monomial(p) == ((5, 0), Fraction(1))


def test_leading_single_term():
    p = MPoly(2, {(1, 1): Fraction(3)})
    assert leading_monomial(p) == ((1, 1), Fraction(3))


def test_leading_of_zero_raises():
    with pytest.raises(ZeroPolynomial):
        leading_monomial(MPoly.zero(2))


# ---------------------------------------------------------------------------
# The worked order checks: each variable is positive, smaller than every
# positive rational, and each later variable is smaller than every power
# of the previous one.  This pins the scan direction of the exponent
# comparison (highest differing index decides).
# ---------------------------------------------------------------------------

def test_first_variable_positive_but_infinitesimal():
    e1 = eps(0, 2)
    assert e1.sign() == 1
    for q in (Fraction(1), Fraction(1, 1000), Fraction(3, 7)):
        assert compare(e1, const(q, 2)) == -1
        assert compare(const(q, 2), e1) == 1


def test_next_variable_smaller_than_every_power():
    e1, e2 = eps(0, 2), eps(1, 2)
    assert e2.sign() == 1
    power = const(1, 2)
    for k in range(1, 6):
        power = power * e1
        assert compare(e2, power) == -1


def test_sign_examples():
    e1, e2 = eps(0, 2), eps(1, 2)
    assert (e2 - e1).sign() == -1
    one = const(1, 2)
    assert ((one - e1) / (one + e1)).sign() == 1
    assert const(0, 2).sign() == 0


def test_compare_via_difference():
    e1, e2 = eps(0, 2), eps(1, 2)
    x = e1 + e2
    assert compare(x, x) == 0
    assert (x + (-x)).is_zero()


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        const(1, 1) / const(0, 1)


# ---------------------------------------------------------------------------
# Total order and ordered-field axioms on random elements
# ---------------------------------------------------------------------------

def _random_elem(rng, nvars):
    def poly():
        p = MPoly.zero(nvars)
        for _ in range(rng.randint(1, 3)):
            e = tuple(rng.randint(0, 2) for _ in range(nvars))
            p = p + MPoly(nvars, {e: Fraction(rng.randint(-3, 3), rng.randint(1, 2))})
        return p

    num = poly()
    den = poly()
    while den.is_zero():
        den = poly()
    return OrderedElem(num, den)


def test_trichotomy_and_transitivity():
    rng = random.Random(11)
    for _ in range(60):
        x = _random_elem(rng, 2)
        y = _random_elem(rng, 2)
        z = _random_elem(rng, 2)
        assert (x < y) + (x == y) + (x > y) == 1
        if x < y and y < z:
            assert x < z


def test_order_axioms():
    rng = random.Random(13)
    for _ in range(60):
        x = _random_elem(rng, 2)
        y = _random_elem(rng, 2)
        z = _random_elem(rng, 2)
        if x > y:
            assert x + z > y + z
            if z.sign() > 0:
                assert x * z > y * z


def test_sign_representation_independence():
    rng = random.Random(17)
    for _ in range(60):
        x = _random_elem(rng, 2)
        d = _random_elem(rng, 2)
        while d.is_zero():
            d = _random_elem(rng, 2)
        y = OrderedElem(x.num * d.num, x.den * d.num)
        assert y.sign() == x.sign()
        assert y == x


# ---------------------------------------------------------------------------
# Re-indexing embeddings
# ---------------------------------------------------------------------------

def test_iota_slot_zero_keeps_first_variable():
    # removing index 0 from the target list sends source slot 0 to e1
    x = eps(0, 2)
    assert iota(0, x) == eps(1, 3)


def test_iota_slot_one_sends_first_to_e0():
    x = eps(0, 2)
    assert iota(1, x) == eps(0, 3)


def test_iota_out_of_range():
    with pytest.raises(ValueError):
        iota(5, eps(0, 2))


def test_det_columns_matrix_of_fractions():
    from shintani.ordered_field import det_columns
    one = const(1, 2)
    e1, e2 = eps(0, 2), eps(1, 2)
    a = (one - e1) / (one + e1)
    # det [[a, 1], [e2, 1]] = a - e2
    d = det_columns([[a, e2], [one, one]])
    assert d == a - e2
    assert d.sign() == 1


def test_det_columns_rational_agrees_with_elimination():
    from reference import mat_det
    from shintani.ordered_field import det_columns
    rng = random.Random(23)
    for _ in range(20):
        n = rng.randint(1, 4)
        cols = [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
            for _ in range(n)
        ]
        m = tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))
        d = det_columns(cols)
        assert d.num.terms.get((), Fraction(0)) / d.den.terms[()] == mat_det(m)


def test_iota_ring_homomorphism_and_order_preserving():
    rng = random.Random(19)
    for _ in range(200):
        x = _random_elem(rng, 2)
        y = _random_elem(rng, 2)
        i = rng.randint(0, 2)
        assert iota(i, x) + iota(i, y) == iota(i, x + y)
        assert iota(i, x) * iota(i, y) == iota(i, x * y)
        assert iota(i, x).sign() == x.sign()
