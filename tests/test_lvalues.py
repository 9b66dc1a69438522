import gc
import tracemalloc
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import example, given, settings, strategies as st

from reference import (
    base_change_L,
    coeff_pow,
    norm_character_schwartz,
    symmetric_laurent_coeff_reference,
)
from shintani import lvalues
from shintani.cone_algebra import sigma_decompose
from shintani.errors import (
    NarrowClassNumberNotOne,
    NotDivisible,
    NotSquareFree,
)
from shintani.exactnum import MAX_D, CoeffElem, CoeffRing, _factorize, bernoulli_poly
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
from shintani.solomon_hu import SchwartzFn, pair_combo, symmetric_laurent_coeff


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
    for f in (1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 16, 29):
        chars = DirichletChar.enumerate(f)
        phi = sum(1 for n in range(1, f + 1) if _gcd(n, f) == 1)
        assert len(chars) == phi
        for chi in chars:
            # revalidate through the public constructor
            DirichletChar(f, chi.values, chi.ring)


def test_validated_table_must_cover_exactly_the_units():
    ring = CoeffRing(2)
    for f, values in ((5, {1: 1, 4: 1}), (5, {0: 1, 1: 1, 2: -1, 3: -1, 4: 1}),
                      (4, {1: 1, 2: 1, 3: -1})):
        with pytest.raises(ValueError, match="cover exactly the units"):
            DirichletChar(f, values, ring)


def test_validation_multiplies_each_unit_by_each_generator(monkeypatch):
    # chi(a g) = chi(a) chi(g) for every unit a and generator g: phi(f)
    # ring products per generator, not phi(f)^2
    calls = []
    mul = CoeffElem.__mul__
    monkeypatch.setattr(CoeffElem, "__mul__", lambda x, y: calls.append(1) or mul(x, y))
    for f in (1, 2, 8, 24, 105, 131):
        chi = DirichletChar.enumerate(f)[-1]
        units = sum(1 for n in range(f) if _gcd(n, f) == 1)
        del calls[:]
        DirichletChar(f, chi.values, chi.ring)
        assert len(calls) <= units * len(unit_group_generators(f)[0])


def test_validation_refuses_every_single_changed_value():
    # a character with one value negated at a unit u != 1 (a generator or
    # not) is refused by the generator check
    for f in (5, 7, 8, 9, 12, 15, 16, 21, 24):
        gens = unit_group_generators(f)[0]
        chars = DirichletChar.enumerate(f)
        for chi in (chars[1], chars[len(chars) - 1]):
            changed = 0
            for u, v in chi.values.items():
                if u == 1:
                    continue
                changed += u not in gens
                with pytest.raises(ValueError, match="^character table is not multiplicative$"):
                    DirichletChar(f, {**chi.values, u: -v}, chi.ring)
            assert changed  # some changed unit was not a generator


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


def test_character_table_reads_like_a_list():
    # the table builds characters on demand; iteration, negative indices
    # and the ends behave as on the list of all characters, slices are refused
    for f in (1, 2, 7, 12, 15, 16, 29):
        chars = DirichletChar.enumerate(f)
        phi = len(chars)
        listed = list(chars)
        assert [c.values for c in listed] == [chars[i].values for i in range(phi)]
        for i in range(-phi, 0):
            assert chars[i].values == listed[i].values
        for i in (phi, -phi - 1):
            with pytest.raises(IndexError):
                chars[i]
        with pytest.raises(TypeError):
            chars[0:1]
    for f in (1, 2):
        (chi,) = DirichletChar.enumerate(f)
        assert chi.is_trivial and chi.values == DirichletChar.trivial(f).values


def test_lvalue_q_job_builds_one_character(monkeypatch):
    from shintani import cli
    built = []
    init = DirichletChar.__init__

    def counting_init(self, f, *args, **kwargs):
        built.append(f)
        init(self, f, *args, **kwargs)

    monkeypatch.setattr(DirichletChar, "__init__", counting_init)
    out = cli.run("lvalue-q", {"char": {"modulus": 29, "index": 5}, "r": 2})
    assert built == [29]
    assert out["agrees"] is True


def test_character_is_its_residue_function(monkeypatch):
    # a character mod f is the test function on Z of period f that the
    # cone route pairs, with the one table {(n,): chi(n)}
    from math import gcd
    for f in (1, 2, 5, 12):
        for chi in DirichletChar.enumerate(f):
            assert isinstance(chi, SchwartzFn) and (chi.n, chi.d, chi.f) == (1, 1, f)
            assert chi.table == {(u,): chi(u) for u in range(f) if gcd(u, f) == 1}
            assert chi.values == {u: v for (u,), v in chi.table.items()}
            for w in range(-f, 2 * f):
                assert chi.value_at((w,)) == chi(w)
            assert chi.vanishes_near_zero == (f > 1)
    chi = DirichletChar.enumerate(5)[1]
    for phi in (SchwartzFn.from_json(chi.to_json()), DirichletChar.from_json(chi.to_json()),
                chi.add(chi), chi.scale(2)):
        assert type(phi) is SchwartzFn and (phi.n, phi.d, phi.f) == (1, 1, 5)
    paired = []
    pair = lvalues._combo_laurent_1var
    monkeypatch.setattr("shintani.lvalues._combo_laurent_1var",
                        lambda combo, phi, k: paired.append(phi) or pair(combo, phi, k))
    dirichlet_L_via_cocycle(chi, 2)
    assert paired == [chi] and paired[0] is chi


def _conductor_by_pairs(chi):
    """Reference conductor: the least divisor f0 of the modulus such that
    chi(a) == chi(b) for every pair of units a = b (mod f0)."""
    for f0 in sorted(d for d in range(1, chi.f + 1) if chi.f % d == 0):
        ok = True
        for a in range(chi.f):
            if _gcd(a, chi.f) != 1:
                continue
            for b in range(chi.f):
                if _gcd(b, chi.f) != 1 or a % f0 != b % f0:
                    continue
                if chi(a) != chi(b):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return f0
    return chi.f


def test_conductor_matches_pairwise_definition():
    count = 0
    for f in range(1, 41):
        for chi in DirichletChar.enumerate(f):
            assert chi.conductor() == _conductor_by_pairs(chi), (f, chi.values)
            count += 1
    assert count == 490


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


def _per_residue_bernoulli(chi, r, b):
    """-(f^(r-1)/r) sum_{n=1}^{f} chi(n) B_r(n/f), with b[n - 1] = B_r(n/f):
    the formula the closed form's integer accumulation expands."""
    acc = chi.ring.zero()
    for n in range(1, chi.f + 1):
        acc = acc + chi(n) * b[n - 1]
    return acc * Fraction(-(chi.f ** (r - 1)), r)


def test_closed_form_matches_per_residue_bernoulli_sum():
    count = 0
    for f in range(1, 41):
        chars = DirichletChar.enumerate(f)
        for r in range(1, 7):
            b = [bernoulli_poly(r, Fraction(n, f)) for n in range(1, f + 1)]
            for chi in chars:
                assert dirichlet_L_closed(chi, r) == _per_residue_bernoulli(chi, r, b)
                count += 1
    assert count == 490 * 6


def test_closed_form_clears_fractional_values():
    # unvalidated tables with rational and zeta coefficients over several
    # denominators, including values that cancel and a zero value
    ring = CoeffRing(4)
    i = ring.zeta(1)
    tables = [
        (1, {0: Fraction(7, 3)}),
        (5, {1: Fraction(1, 2), 2: i * Fraction(-2, 3), 3: i * Fraction(2, 3),
             4: ring.one() + i * Fraction(1, 6)}),
        (8, {1: Fraction(3, 4), 3: Fraction(-3, 4), 5: i * Fraction(5, 9), 7: 0}),
        (12, {1: i + Fraction(1, 10), 5: Fraction(-1, 10), 7: -i, 11: Fraction(2, 7)}),
    ]
    for f, values in tables:
        chi = DirichletChar(f, values, ring, validate=False)
        for r in range(1, 7):
            b = [bernoulli_poly(r, Fraction(n, f)) for n in range(1, f + 1)]
            value = dirichlet_L_closed(chi, r)
            assert value == _per_residue_bernoulli(chi, r, b)
            assert all(type(c) is Fraction and c for c in value.coeffs.values())


def test_character_table_builds_a_fresh_character_per_index():
    for f in (1, 5, 12, 29):
        chars = DirichletChar.enumerate(f)
        assert chars[0] is not chars[0]
        first = chars[len(chars) - 1]
        before = dict(first.table)
        first.table[(1,)] = chars.ring.zero()
        first.table.pop((1 % f,))
        again = chars[len(chars) - 1]
        assert again.table == before and again.table is not first.table


def test_unchecked_character_tables_equal_the_validated_ones():
    # trivial and CharacterTable build their residue tables directly; the
    # validated constructor, with SchwartzFn's checks, builds the same ones
    for f in range(1, 31):
        for chi in list(DirichletChar.enumerate(f)) + [DirichletChar.trivial(f)]:
            checked = DirichletChar(f, chi.values, chi.ring)
            assert (chi.n, chi.d, chi.f) == (checked.n, checked.d, checked.f)
            assert chi.ring is checked.ring and chi.table == checked.table
            assert list(chi.table) == list(checked.table)


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
    assert (K.t, K.n) == (1, -1) and K.disc == 5
    assert K.eps == (0, 1) and K.eps_norm == -1
    assert K.u == (1, 1)
    assert K.u_matrix == ((1, 1), (1, 2))
    # determinant one, trace matches twice the rational part of u
    assert K.u_matrix[0][0] * K.u_matrix[1][1] - K.u_matrix[0][1] * K.u_matrix[1][0] == 1
    assert K.u_matrix[0][0] + K.u_matrix[1][1] == 3


def test_build_real_quad_d2():
    K = build_real_quad(2)
    assert (K.t, K.n) == (0, -2) and K.disc == 8
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


def test_square_root_generator_bound():
    # D above MAX_D is refused before any trial division
    for D in (MAX_D + 1, 100000000000000000039):
        with pytest.raises(ValueError):
            CoeffRing(1, D)
        with pytest.raises(ValueError):
            build_real_quad(D)
    assert CoeffRing(1, 999999999989).D == 999999999989  # largest prime <= 10^12


def test_narrow_class_number_flag():
    with pytest.raises(NarrowClassNumberNotOne):
        build_real_quad(3)
    with pytest.raises(NarrowClassNumberNotOne):
        build_real_quad(331)
    K = build_real_quad(3, allow_narrow_failure=True)
    assert not K.narrow_h1
    assert K.eps == (2, 1) and K.eps_norm == 1


def test_prime_three_mod_four_refused_before_unit_search(monkeypatch):
    # 21 = 3 * 7: the refusal needs only the factorization of D
    def no_unit(D):
        raise AssertionError("fundamental_unit must not be reached")
    monkeypatch.setattr("shintani.lvalues.fundamental_unit", no_unit)
    with pytest.raises(NarrowClassNumberNotOne):
        build_real_quad(21)


def test_prime_three_mod_four_forces_unit_norm_plus_one():
    checked = 0
    for D in range(2, 300):
        factors = _factorize(D)
        if any(e > 1 for e in factors.values()) or all(p % 4 != 3 for p in factors):
            continue
        assert fundamental_unit(D)[1] == 1, D
        checked += 1
    assert checked > 100


def test_order_is_theta_squared_equals_t_theta_minus_n():
    # read in the ring of Q(sqrt D) from the two embeddings alone: theta
    # has trace t and norm n, eps has norm eps_norm, and u_matrix has
    # determinant one and trace u_1 + u_2
    checked = 0
    for D in range(2, 500):
        if any(e > 1 for e in _factorize(D).values()):
            continue
        K = build_real_quad(D, allow_narrow_failure=True)
        ring = K.ring
        _, (th1, th2) = K.transition_images()
        assert th1 + th2 == ring.from_rat(K.t) and th1 * th2 == ring.from_rat(K.n)
        assert K.embed(K.eps, 0) * K.embed(K.eps, 1) == ring.from_rat(K.eps_norm)
        (a, b), (c, d) = K.u_matrix
        assert a * d - b * c == 1
        assert ring.from_rat(a + d) == K.embed(K.u, 0) + K.embed(K.u, 1)
        checked += 1
    assert checked == 305


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


# every character of modulus f <= 12, as (modulus, index in enumerate(f))
_CHARACTERS = [(f, i) for f in range(1, 13) for i in range(len(DirichletChar.enumerate(f)))]


@example(D=2, char=(7, 2), r=1)  # complex: 136/7 - (92/7) zeta
@example(D=13, char=(5, 2), r=3)  # the quadratic character mod 5
@settings(deadline=None, derandomize=True, max_examples=15)
@given(D=st.sampled_from([2, 5, 13, 29]), char=st.sampled_from(_CHARACTERS),
       r=st.integers(1, 3))
def test_quad_value_of_norm_character_matches_base_change(D, char, r):
    # L_K(chi o N, -r) = L(chi, -r) L(chi chi_K, -r): the cone route against
    # two Bernoulli closed forms, which share no pairing code with it
    f, index = char
    chi = DirichletChar.enumerate(f)[index]
    phi = norm_character_schwartz(D, chi)
    value = quad_L_value(build_real_quad(D), phi, r)
    assert phi.ring.coerce(value) == phi.ring.coerce(base_change_L(D, chi, r))


@pytest.mark.parametrize("D,r", [(5, 21), (13, 21), (13, 41)])
def test_quad_value_at_large_odd_r_matches_base_change(D, r):
    # each cone is paired for its top degree alone, so a large r costs no
    # table of exponent pairs; the trivial character's base change is
    # zeta(-r) L(chi_K, -r)
    value = quad_L_value(build_real_quad(D), trivial_quad_schwartz(build_real_quad(D)), r)
    assert value == base_change_L(D, DirichletChar.trivial(), r).rational_part()


def test_quad_value_at_r41_stays_small():
    K = build_real_quad(5)
    phi = trivial_quad_schwartz(K)
    tracemalloc.start()
    try:
        value = quad_L_value(K, phi, 41)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == base_change_L(5, DirichletChar.trivial(), 41).rational_part()
    assert peak < 64 * 2 ** 20


def test_cocycle_route_at_r200_matches_closed_form():
    for chi in DirichletChar.enumerate(5):
        for r in (199, 200):
            assert dirichlet_L_via_cocycle(chi, r) == dirichlet_L_closed(chi, r)


def test_quad_value_independent_of_truncation():
    # pairing past degree 2r leaves the value read at t1^r t2^r unchanged
    for D in (2, 5):
        K = build_real_quad(D)
        phi = trivial_quad_schwartz(K)
        base = quad_L_value(K, phi, 1)
        for dmax in (8, 11):
            assert _full_series_value(K, phi, 1, dmax).rational_part() == base


# ---------------------------------------------------------------------------
# Embedding coordinates: the L-value read from one homogeneous degree
# ---------------------------------------------------------------------------

# (f, zeta order, discrete logs): the quartic character mod 5 (2 -> i) and
# the cubic character mod 7 (3 -> zeta_3)
_QUARTIC5 = (5, 4, {1: 0, 2: 1, 4: 2, 3: 3})
_CUBIC7 = (7, 3, {1: 0, 3: 1, 2: 2, 6: 0, 4: 1, 5: 2})
_DIRECTIONS = ((1, 0), (1, 1), (0, 1))


def _pullback_zeta(K, spec, direction):
    """chi(a x + b y) for a character chi given by discrete logs, with
    values in the joint ring of zeta_m and sqrt(D)."""
    f, m, logs = spec
    ring = CoeffRing(m, K.D)
    a, b = direction
    table = {}
    for x in range(f):
        for y in range(f):
            k = (a * x + b * y) % f
            if k in logs:
                table[(x, y)] = ring.zeta(logs[k])
    return SchwartzFn(2, 1, f, table, ring)


def _full_series_value(K, phi, r, dmax):
    """Reference route: substitute the whole numerator into embedding
    coordinates, map each denominator form v to T^t v in ring arithmetic,
    and take (r!)^2 times the symmetric coefficient of t1^r t2^r,
    extracted in ring arithmetic by the reference extraction."""
    q = pair_combo(sigma_decompose([((1, 0), (0, 1)), K.u_matrix]), phi, dmax)
    value = symmetric_laurent_coeff_reference(q, r, r, K.transition_images())
    return value * factorial(r) ** 2


@pytest.mark.parametrize("D", [2, 5, 13])
@pytest.mark.parametrize("spec,direction", [(None, None)] + [
    (spec, d) for spec in (_QUARTIC5, _CUBIC7) for d in _DIRECTIONS
])
def test_quad_value_matches_full_series_route(D, spec, direction):
    # the trivial character and some pullbacks keep their poles, so this
    # also covers the symmetric extraction of a surviving pole; the value,
    # built cone by cone for the one degree it reads, is also what the
    # public reader finds in pair_combo's series
    K = build_real_quad(D)
    if spec is None:
        phi = trivial_quad_schwartz(K)
    else:
        phi = _pullback_zeta(K, spec, direction)
    combo = sigma_decompose([((1, 0), (0, 1)), K.u_matrix])
    for r in (1, 2):
        value = quad_L_value(K, phi, r)
        assert phi.ring.coerce(value) == symmetric_laurent_coeff(
            pair_combo(combo, phi, 2 * r), r, r, K.transition_images()) * factorial(r) ** 2
        for dmax in (2 * r, 2 * r + 2, 2 * r + 5):
            expected = _full_series_value(K, phi, r, dmax)
            if isinstance(value, Fraction):
                assert expected.is_rational()
                assert expected.rational_part() == value
            else:
                assert value == expected


def _binomial_l_value(K, sc, r):
    """Reference recombination: [t1^r t2^r] of (t1 + t2)^m1 (T1 t1 + T2 t2)^m2
    expanded by the binomial theorem, summed over the table's m1 + m2 = 2r
    entries, each divided by m1! m2!, times (r!)^2."""
    ring = sc.ring
    T1, T2 = (ring.coerce(c) for c in K.transition_images()[1])
    acc = ring.zero()
    for m1 in range(2 * r + 1):
        m2 = 2 * r - m1
        inner = ring.zero()
        for k in range(max(0, r - m1), min(m2, r) + 1):
            inner = inner + coeff_pow(T1, k) * coeff_pow(T2, m2 - k) * (comb(m2, k) * comb(m1, r - k))
        acc = acc + sc.get(m1, m2) * inner * Fraction(1, factorial(m1) * factorial(m2))
    return acc * factorial(r) ** 2


# the pullbacks above whose poles cancel on the unit cone of each field
_CANCELLING = [
    (2, _QUARTIC5, (1, 0)), (2, _CUBIC7, (1, 0)), (2, _CUBIC7, (1, 1)),
    (5, _QUARTIC5, (1, 0)), (5, _QUARTIC5, (1, 1)),
    (5, _CUBIC7, (1, 0)), (5, _CUBIC7, (1, 1)),
    (13, _QUARTIC5, (1, 0)), (13, _QUARTIC5, (1, 1)), (13, _CUBIC7, (1, 0)),
]


@pytest.mark.parametrize("D,spec,direction", _CANCELLING)
def test_l_value_from_s_coeffs_matches_binomial_expansion(D, spec, direction):
    K = build_real_quad(D)
    sc = s_coeffs(K, _pullback_zeta(K, spec, direction), 2)
    for r in range(3):
        assert l_value_from_s_coeffs(K, sc, r) == _binomial_l_value(K, sc, r)


def test_l_value_jobs_leave_no_reference_cycles():
    # cyclic garbage outlives a job until a full collection frees it; with
    # the collector off, gc.collect() counts what each job left behind
    K = build_real_quad(13)
    phi = trivial_quad_schwartz(K)
    chi = DirichletChar.enumerate(5)[1]
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        quad_L_value(K, phi, 3)
        assert gc.collect() == 0
        dirichlet_L_via_cocycle(chi, 2)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
