from fractions import Fraction

import pytest

from shintani.errors import (
    NarrowClassNumberNotOne,
    NotDivisible,
    NotSquareFree,
    TruncationTooSmall,
)
from shintani.exactnum import CoeffRing
from shintani.lvalues import (
    DirichletChar,
    build_real_quad,
    dirichlet_L_closed,
    dirichlet_L_via_cocycle,
    fundamental_unit,
    l_value_from_s_coeffs,
    quad_L_value,
    s_coeffs,
    trivial_quad_schwartz,
    unit_group_generators,
)
from shintani.solomon_hu import SchwartzFn


# ---------------------------------------------------------------------------
# Characters
# ---------------------------------------------------------------------------

def test_unit_group_sizes():
    from math import prod
    for f in range(1, 30):
        gens, orders = unit_group_generators(f)
        count = prod(orders) if orders else 1
        phi = sum(1 for n in range(1, f + 1) if _gcd(n, f) == 1)
        assert count == phi


def _gcd(a, b):
    from math import gcd
    return gcd(a, b)


def test_character_counts_and_multiplicativity():
    for f in (3, 4, 5, 7, 8, 9, 12):
        chars = DirichletChar.enumerate(f)
        phi = sum(1 for n in range(1, f + 1) if _gcd(n, f) == 1)
        assert len(chars) == phi
        for chi in chars:
            # revalidate through the public constructor
            DirichletChar(f, chi.values, chi.ring)


def test_character_flags():
    chars = DirichletChar.enumerate(4)
    trivial = [c for c in chars if c.is_trivial]
    odd = [c for c in chars if not c.is_trivial]
    assert len(trivial) == 1 and len(odd) == 1
    assert odd[0].is_odd and odd[0].is_real
    assert odd[0].is_primitive
    assert trivial[0].conductor() == 1


def test_character_orthogonality():
    for f in (5, 8, 12):
        for chi in DirichletChar.enumerate(f):
            total = chi.ring.zero()
            for n in range(f):
                total = total + chi(n)
            if chi.is_trivial:
                assert total.rational_part() > 0
            else:
                assert total.is_zero()


def test_character_index_is_mixed_radix_over_generators():
    # character i sends generator g_j to zeta^(c_j * expo / o_j), where c is
    # the digit vector of i with radices o_j, first generator most significant
    from math import lcm, prod
    for f in range(1, 61):
        gens, orders = unit_group_generators(f)
        chars = DirichletChar.enumerate(f)
        assert len(chars) == prod(orders)
        expo = lcm(*orders)
        for i, chi in enumerate(chars):
            digits, rest = [], i
            for o in reversed(orders):
                rest, c = divmod(rest, o)
                digits.append(c)
            for g, o, c in zip(gens, orders, reversed(digits)):
                assert chi(g) == chi.ring.zeta(c * expo // o)


# ---------------------------------------------------------------------------
# Dirichlet L-values over Q
# ---------------------------------------------------------------------------

def test_zeta_values_closed_form():
    t = DirichletChar.trivial(1)
    assert dirichlet_L_closed(t, 1).rational_part() == Fraction(-1, 2)
    assert dirichlet_L_closed(t, 2).rational_part() == Fraction(-1, 12)
    assert dirichlet_L_closed(t, 3).rational_part() == 0
    assert dirichlet_L_closed(t, 4).rational_part() == Fraction(1, 120)


def test_quadratic_character_values_closed_form():
    chi3 = next(c for c in DirichletChar.enumerate(3) if not c.is_trivial)
    assert dirichlet_L_closed(chi3, 1).rational_part() == Fraction(1, 3)
    chi4 = next(c for c in DirichletChar.enumerate(4) if not c.is_trivial)
    assert dirichlet_L_closed(chi4, 1).rational_part() == Fraction(1, 2)


def test_weighted_sum_oracle():
    # independent first-moment formula: L(chi, 0) = -(1/f) sum chi(n) n
    for f in (3, 4, 5, 7, 8):
        for chi in DirichletChar.enumerate(f):
            if chi.is_trivial:
                continue
            acc = chi.ring.zero()
            for n in range(1, f + 1):
                acc = acc + chi(n) * n
            assert dirichlet_L_closed(chi, 1) == acc * Fraction(-1, f)


def test_cocycle_route_examples():
    t = DirichletChar.trivial(1)
    assert dirichlet_L_via_cocycle(t, 2).rational_part() == Fraction(-1, 12)
    chi3 = next(c for c in DirichletChar.enumerate(3) if not c.is_trivial)
    assert dirichlet_L_via_cocycle(chi3, 1).rational_part() == Fraction(1, 3)
    chi4 = next(c for c in DirichletChar.enumerate(4) if not c.is_trivial)
    assert dirichlet_L_via_cocycle(chi4, 1).rational_part() == Fraction(1, 2)


def test_route_equality_small_moduli():
    for f in (1, 3, 4, 6):
        for chi in DirichletChar.enumerate(f):
            for r in (1, 2, 3):
                assert dirichlet_L_closed(chi, r) == dirichlet_L_via_cocycle(chi, r)


def test_imprimitive_euler_factor():
    # declaring a conductor-3 character modulo 6 multiplies the value by
    # the missing factor (1 - chi(2) 2^(r-1))
    chi3 = next(c for c in DirichletChar.enumerate(3) if not c.is_trivial)
    vals6 = {n: chi3(n % 3) for n in range(6) if _gcd(n, 6) == 1}
    chi6 = DirichletChar(6, vals6, chi3.ring)
    assert chi6.conductor() == 3
    assert not chi6.is_primitive
    for r in (1, 2, 3, 4):
        lhs = dirichlet_L_closed(chi6, r)
        rhs = dirichlet_L_closed(chi3, r) * (
            chi3.ring.one() - chi3(2) * Fraction(2 ** (r - 1))
        )
        assert lhs == rhs
        assert dirichlet_L_via_cocycle(chi6, r) == lhs


def test_truncation_guard():
    t = DirichletChar.trivial(1)
    with pytest.raises(TruncationTooSmall):
        dirichlet_L_via_cocycle(t, 3, dmax=1)


# ---------------------------------------------------------------------------
# Real quadratic fields
# ---------------------------------------------------------------------------

def test_fundamental_units():
    assert fundamental_unit(2) == ((1, 1), -1)    # 1 + sqrt2
    assert fundamental_unit(3) == ((2, 1), 1)     # 2 + sqrt3
    assert fundamental_unit(5) == ((0, 1), -1)    # (1+sqrt5)/2
    assert fundamental_unit(13) == ((1, 1), -1)   # (3+sqrt13)/2
    assert fundamental_unit(7) == ((8, 3), 1)     # 8 + 3 sqrt7
    # long continued-fraction periods: the first convergent of norm +-1
    assert fundamental_unit(139) == ((77563250, 6578829), 1)
    assert fundamental_unit(151) == ((1728148040, 140634693), 1)
    assert fundamental_unit(166) == ((1700902565, 132015642), 1)
    assert fundamental_unit(199) == ((16266196520, 1153080099), 1)
    assert fundamental_unit(331) == ((2785589801443970, 153109862634573), 1)


def test_build_real_quad_d5():
    K = build_real_quad(5)
    assert K.half and K.disc == 5
    assert K.eps == (0, 1) and K.eps_norm == -1
    assert K.u == (1, 1)
    assert K.u_matrix == ((1, 1), (1, 2))
    # determinant one, trace matches twice the rational part of u
    assert K.u_matrix[0][0] * K.u_matrix[1][1] - K.u_matrix[0][1] * K.u_matrix[1][0] == 1
    assert K.u_matrix[0][0] + K.u_matrix[1][1] == 3


def test_build_real_quad_d2():
    K = build_real_quad(2)
    assert not K.half and K.disc == 8
    assert K.eps == (1, 1) and K.eps_norm == -1
    assert K.u == (3, 2)   # 3 + 2 sqrt2
    assert K.u_matrix == ((3, 4), (2, 3))


def test_u_totally_positive():
    for D in (2, 5, 13):
        K = build_real_quad(D)
        for which in (0, 1):
            emb = K.embed(K.u, which)
            # exact positivity of a + b sqrt(D)
            a = emb.coeffs.get((0, 0), Fraction(0))
            b = emb.coeffs.get((0, 1), Fraction(0))
            assert a > 0 and a * a > b * b * D or (b > 0 and b * b * D > a * a)


def test_build_real_quad_rejects_bad_d():
    with pytest.raises(NotSquareFree):
        build_real_quad(12)
    with pytest.raises(NotSquareFree):
        build_real_quad(1)


def test_narrow_class_number_flag():
    with pytest.raises(NarrowClassNumberNotOne):
        build_real_quad(3)
    with pytest.raises(NarrowClassNumberNotOne):
        build_real_quad(331)
    K = build_real_quad(3, allow_narrow_failure=True)
    assert not K.narrow_h1
    assert K.eps == (2, 1) and K.eps_norm == 1


def _siegel_zeta_minus_one(D):
    """Independent oracle: zeta_K(-1) = (1/60) sum sigma_1((disc - b^2)/4)
    over b with b^2 < disc and b^2 = disc mod 4."""
    disc = D if D % 4 == 1 else 4 * D
    total = 0
    for b in range(-disc, disc + 1):
        if b * b < disc and (disc - b * b) % 4 == 0:
            m = (disc - b * b) // 4
            total += sum(d for d in range(1, m + 1) if m % d == 0)
    return Fraction(total, 60)


def test_quad_zeta_values_match_divisor_sum_oracle():
    for D in (2, 5, 13):
        K = build_real_quad(D)
        phi = trivial_quad_schwartz(K)
        assert quad_L_value(K, phi, 1) == _siegel_zeta_minus_one(D)


def test_quad_zeta_frozen_values():
    assert quad_L_value(build_real_quad(2), trivial_quad_schwartz(build_real_quad(2)), 1) == Fraction(1, 12)
    assert quad_L_value(build_real_quad(5), trivial_quad_schwartz(build_real_quad(5)), 1) == Fraction(1, 30)
    assert quad_L_value(build_real_quad(13), trivial_quad_schwartz(build_real_quad(13)), 1) == Fraction(1, 6)


def test_quad_zeta_values_beyond_acceptance_set():
    for D in (17, 29):
        K = build_real_quad(D)
        assert quad_L_value(K, trivial_quad_schwartz(K), 1) == _siegel_zeta_minus_one(D)


def _siegel_zeta_minus_three(D):
    """Independent cubic divisor-sum oracle for the value at -3."""
    disc = D if D % 4 == 1 else 4 * D
    total = 0
    for b in range(-disc, disc + 1):
        if b * b < disc and (disc - b * b) % 4 == 0:
            m = (disc - b * b) // 4
            total += sum(d ** 3 for d in range(1, m + 1) if m % d == 0)
    return Fraction(total, 120)


def test_quad_zeta_higher_weight_and_trivial_zeros():
    # the value at -3 matches the cubic divisor-sum oracle, and the
    # values at the negative even integers vanish identically
    for D in (2, 5, 13):
        K = build_real_quad(D)
        phi = trivial_quad_schwartz(K)
        assert quad_L_value(K, phi, 3) == _siegel_zeta_minus_three(D)
        assert quad_L_value(K, phi, 2) == 0
        assert quad_L_value(K, phi, 4) == 0


def test_narrow_flag_catches_class_number_two():
    # fundamental unit of norm -1 but class number 2: the bounded norm
    # search cannot certify and the flag must raise
    with pytest.raises(NarrowClassNumberNotOne):
        build_real_quad(10)


def test_quad_value_truncation_guard():
    K = build_real_quad(5)
    with pytest.raises(TruncationTooSmall):
        quad_L_value(K, trivial_quad_schwartz(K), 2, dmax=3)


# ---------------------------------------------------------------------------
# Coefficient tables
# ---------------------------------------------------------------------------

def _pullback_character(K, f, values, direction):
    """Test function chi(a x + b y) on the residue classes, pulled back
    along a linear form; full-period sums make every pole cancel when the
    direction pairs invertibly with the cone data."""
    ring = CoeffRing(1, K.D)
    a, b = direction
    table = {}
    for x in range(f):
        for y in range(f):
            v = values[(a * x + b * y) % f]
            if v:
                table[(x, y)] = Fraction(v)
    return SchwartzFn(2, 1, f, table, ring)


def test_s_coeffs_golden_table():
    # captured from the first verified run: D=5, the quadratic character
    # mod 3 pulled back along x + y
    K = build_real_quad(5)
    phi = _pullback_character(K, 3, {0: 0, 1: 1, 2: -1}, (1, 1))
    sc = s_coeffs(K, phi, 1)
    got = {k: v.rational_part() for k, v in sorted(sc.table.items())}
    assert got == {
        (0, 0): Fraction(-1, 3),
        (0, 1): Fraction(-1, 9),
        (0, 2): Fraction(1, 9),
        (1, 1): Fraction(1, 9),
        (2, 0): Fraction(2, 9),
    }


def test_s_coeffs_route_consistency():
    K = build_real_quad(5)
    phi = _pullback_character(K, 3, {0: 0, 1: 1, 2: -1}, (1, 1))
    sc = s_coeffs(K, phi, 2)
    for r in (1, 2):
        direct = quad_L_value(K, phi, r)
        via = l_value_from_s_coeffs(K, sc, r)
        assert via.is_rational()
        assert via.rational_part() == direct
    assert quad_L_value(K, phi, 1) == Fraction(2, 9)
    assert quad_L_value(K, phi, 2) == Fraction(-2, 3)


def test_s_coeffs_linearity():
    K = build_real_quad(5)
    phi1 = _pullback_character(K, 3, {0: 0, 1: 1, 2: -1}, (1, 1))
    phi2 = phi1.scale(Fraction(3, 2))
    sa = s_coeffs(K, phi1.add(phi2), 1)
    sb = s_coeffs(K, phi1, 1)
    sc = s_coeffs(K, phi2, 1)
    keys = set(sa.table) | set(sb.table) | set(sc.table)
    for k in keys:
        assert sa.get(*k) == sb.get(*k) + sc.get(*k)


def test_s_coeffs_surviving_pole_raises():
    # the multiplicative character of the residue field extended by zero
    # does not cancel the poles; the error names the offending form
    K = build_real_quad(5)
    ring = CoeffRing(3, 5)
    phi = SchwartzFn(2, 1, 2, {(1, 0): ring.one(), (0, 1): ring.zeta(1),
                               (1, 1): ring.zeta(2)}, ring)
    with pytest.raises(NotDivisible) as info:
        s_coeffs(K, phi, 1)
    assert info.value.form is not None


def test_quad_value_nontrivial_character_matches_series_route():
    # for a pole-cancelling test function the symmetric extraction is just
    # the plain power series coefficient, checked via the table route
    K = build_real_quad(2)
    phi = _pullback_character(K, 3, {0: 0, 1: 1, 2: -1}, (1, 1))
    sc = s_coeffs(K, phi, 1)
    value = quad_L_value(K, phi, 1)
    assert l_value_from_s_coeffs(K, sc, 1).rational_part() == value
    assert value == Fraction(2, 9)


def test_quad_value_complex_character_in_joint_ring():
    # quartic character mod 5 pulled back along the first coordinate, on
    # the sqrt(2) field: values live in the joint ring of a fourth root
    # of unity and sqrt(2); both routes agree and the answer is not real
    K = build_real_quad(2)
    ring = CoeffRing(4, 2)
    logs = {1: 0, 2: 1, 4: 2, 3: 3}  # discrete log base 2 mod 5
    table = {}
    for x in range(5):
        for y in range(5):
            if x % 5 in logs:
                table[(x, y)] = ring.zeta(logs[x % 5])
    phi = SchwartzFn(2, 1, 5, table, ring)
    sc = s_coeffs(K, phi, 1)
    direct = quad_L_value(K, phi, 1)
    assert direct == l_value_from_s_coeffs(K, sc, 1)
    assert not direct.is_rational()
    assert direct == ring.from_rat(Fraction(1, 5)) + ring.zeta(1) * Fraction(3, 5)


def test_quad_value_independent_of_truncation():
    for D in (2, 5):
        K = build_real_quad(D)
        phi = trivial_quad_schwartz(K)
        base = quad_L_value(K, phi, 1)
        assert quad_L_value(K, phi, 1, dmax=8) == base
        assert quad_L_value(K, phi, 1, dmax=11) == base
