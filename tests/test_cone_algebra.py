import random
from fractions import Fraction

import pytest

from conftest import random_nonzero_vector, random_vector
from shintani.cli import random_invertible
from shintani.cocycle_core import SigmaKernel, tau_cocycle
from shintani.cone_algebra import (
    ConeCombo,
    _decompose_region,
    OpenSimplicialCone,
    act,
    combo_eval,
    lex_positive_region,
    sigma_decompose,
)
from shintani.errors import (
    AllFormsZero,
    SingularMatrix,
    UnsupportedDimension,
    ZeroVector,
)
from shintani.linalg import (
    coordinate_rows,
    first_nonzero_sign,
    identity,
    idot,
    mat_det,
    mat_inv,
    mat_vec,
    primitive,
    sign,
    solve_columns,
)

I2 = identity(2)


# ---------------------------------------------------------------------------
# Cones and combos
# ---------------------------------------------------------------------------

def test_cone_rejects_dependent_generators():
    with pytest.raises(ValueError):
        OpenSimplicialCone(((1, 0), (2, 0)))


def test_cone_membership():
    c = OpenSimplicialCone(((1, 0), (1, 2)))
    assert c.contains((2, 2))
    assert not c.contains((1, 0))       # boundary ray is excluded
    assert not c.contains((0, 1))
    ray = OpenSimplicialCone(((1, 2),))
    assert ray.contains((2, 4))
    assert not ray.contains((2, 5))
    assert not ray.contains((-1, -2))
    # a cone keeps only the rays: generators are primitive integer vectors
    assert OpenSimplicialCone(((Fraction(1, 3), 1), (2, 0))).generators == ((1, 3), (1, 0))


def _independent(gens):
    try:
        solve_columns(gens, (0,) * len(gens[0]))
    except SingularMatrix:
        return False
    return True


def _combination(x, gens):
    return tuple(sum(c * g[k] for c, g in zip(x, gens)) for k in range(len(gens[0])))


def test_coordinate_rows_read_scaled_coordinates():
    # coord row i reads den * x_i at sum x_i g_i, the span rows vanish
    # exactly on the span, and dependent generators are rejected
    rng = random.Random(43)
    for n in (1, 2, 3):
        for r in range(1, n + 1):
            for _ in range(12):
                gens = [primitive(random_nonzero_vector(rng, n, lo=-2, hi=2, den=1))
                        for _ in range(r)]
                if not _independent(gens):
                    with pytest.raises(ValueError):
                        coordinate_rows(gens)
                    continue
                den, coord_rows, span_rows = coordinate_rows(gens)
                assert den > 0 and len(coord_rows) == r and len(span_rows) == n - r
                for _ in range(10):
                    x = random_vector(rng, r)
                    p = _combination(x, gens)
                    assert [idot(row, p) for row in coord_rows] == [den * c for c in x]
                    assert all(idot(row, p) == 0 for row in span_rows)
                    q = random_nonzero_vector(rng, n)
                    if solve_columns(gens, q) is None:
                        assert any(idot(row, q) != 0 for row in span_rows)
    with pytest.raises(ValueError):
        coordinate_rows(((1, 2), (2, 4)))
    with pytest.raises(ValueError):
        coordinate_rows(((1, 0), (0, 1), (1, 1)))


def test_cone_contains_matches_solved_coordinates():
    # rational generators, over-scaled by random positive factors; points
    # are combinations with some coordinates zero or negative
    rng = random.Random(47)
    for n in (1, 2, 3):
        for r in range(1, n + 1):
            for _ in range(10):
                gens = [tuple(Fraction(rng.randint(1, 6), rng.randint(1, 6)) * x
                              for x in random_nonzero_vector(rng, n, lo=-3, hi=3))
                        for _ in range(r)]
                if not _independent(gens):
                    with pytest.raises(ValueError):
                        OpenSimplicialCone(gens)
                    continue
                cone = OpenSimplicialCone(gens)
                ws = [cone.witness()] + [random_nonzero_vector(rng, n) for _ in range(5)]
                for _ in range(25):
                    w = _combination([rng.randint(-1, 2) for _ in gens], gens)
                    if any(w):
                        ws.append(w)
                for w in ws:
                    x = solve_columns(gens, w)
                    assert cone.contains(w) == (x is not None and all(c > 0 for c in x))


def test_combo_eval_examples():
    quad = OpenSimplicialCone(((1, 0), (0, 1)))
    ray = OpenSimplicialCone(((1, 0),))
    assert combo_eval(ConeCombo([(1, quad)]), (1, 1)) == 1
    combo = ConeCombo([(1, quad), (-1, ray)])
    assert combo_eval(combo, (1, 0)) == -1
    assert combo_eval(ConeCombo([(Fraction(1, 2), ray)]), (2, 0)) == Fraction(1, 2)


def test_combo_eval_rejects_zero():
    with pytest.raises(ZeroVector):
        combo_eval(ConeCombo([]), (0, 0))


def test_combo_constant_term():
    combo = ConeCombo([], constant=Fraction(1, 2))
    assert combo.eval((5, -1)) == Fraction(1, 2)


def test_act_examples():
    quad = ConeCombo([(1, OpenSimplicialCone(((1, 0), (0, 1))))])
    assert act(I2, quad).to_json() == quad.to_json()
    flipped = act(((1, 0), (0, -1)), quad)
    assert combo_eval(flipped, (1, -1)) == -1
    with pytest.raises(SingularMatrix):
        act(((1, 0), (2, 0)), quad)


def test_act_matches_pullback_definition():
    rng = random.Random(5)
    combo = ConeCombo([
        (Fraction(1, 2), OpenSimplicialCone(((1, 0),))),
        (1, OpenSimplicialCone(((1, 1), (-1, 2)))),
    ], constant=Fraction(1))
    for _ in range(25):
        a = random_invertible(rng, 2)
        moved = act(a, combo)
        ainv = mat_inv(a)
        s = sign(mat_det(a))
        for _ in range(20):
            w = random_nonzero_vector(rng, 2)
            assert combo_eval(moved, w) == s * combo_eval(combo, mat_vec(ainv, w))


def test_act_composition():
    rng = random.Random(7)
    combo = ConeCombo([(1, OpenSimplicialCone(((1, 0), (1, 3))))])
    for _ in range(15):
        a = random_invertible(rng, 2)
        b = random_invertible(rng, 2)
        ab = tuple(tuple(sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2))
                   for i in range(2))
        lhs = act(ab, combo)
        rhs = act(a, act(b, combo))
        for _ in range(20):
            w = random_nonzero_vector(rng, 2)
            assert combo_eval(lhs, w) == combo_eval(rhs, w)


def test_combo_json_round_trip():
    combo = ConeCombo([
        (Fraction(-1, 2), OpenSimplicialCone(((1, 0),))),
        (1, OpenSimplicialCone(((Fraction(1, 3), 1), (0, 1)))),
    ], constant=Fraction(2))
    doc = combo.to_json()
    back = ConeCombo.from_json(doc)
    assert back.to_json() == doc
    for w in [(1, 1), (1, 0), (-2, 5)]:
        assert combo_eval(back, w) == combo_eval(combo, w)


# ---------------------------------------------------------------------------
# Decomposition of the cocycle
# ---------------------------------------------------------------------------

def test_decompose_negative_ray():
    combo = sigma_decompose([I2, ((1, 0), (0, -1))])
    assert len(combo.terms) == 1
    coeff, cone = combo.terms[0]
    assert coeff == -1
    assert cone.generators == ((Fraction(1), Fraction(0)),)


def test_decompose_upper_half_plane():
    combo = sigma_decompose([I2, ((-1, 0), (0, 1))])
    for w in [(0, 1), (1, 1), (-3, 2), (5, 1)]:
        assert combo_eval(combo, w) == 1
    for w in [(1, 0), (-1, 0), (0, -1), (2, -3)]:
        assert combo_eval(combo, w) == 0


def test_decompose_dimension_one():
    combo = sigma_decompose([((1,),)])
    assert combo.to_json() == {
        "cones": [{"coeff": "1", "generators": [["1"]]}],
        "constant": "0",
    }
    neg = sigma_decompose([((-1,),)])
    assert combo_eval(neg, (-2,)) == -1
    assert combo_eval(neg, (2,)) == 0


def test_decompose_rejects_large_dimension():
    with pytest.raises(UnsupportedDimension):
        sigma_decompose([identity(4)] * 4)


def test_decompose_extensional_n2():
    rng = random.Random(11)
    for _ in range(25):
        alphas = [random_invertible(rng, 2) for _ in range(2)]
        combo = sigma_decompose(alphas, validate=True)
        kernel = SigmaKernel(alphas)
        ws = [random_nonzero_vector(rng, 2) for _ in range(120)]
        ws += [c.witness() for _, c in combo.terms]
        for w in ws:
            assert combo_eval(combo, w) == kernel.eval(w)


def test_decompose_extensional_n3():
    rng = random.Random(13)
    for _ in range(4):
        alphas = [random_invertible(rng, 3) for _ in range(3)]
        combo = sigma_decompose(alphas)
        kernel = SigmaKernel(alphas)
        ws = [random_nonzero_vector(rng, 3) for _ in range(150)]
        ws += [c.witness() for _, c in combo.terms][:150]
        for w in ws:
            assert combo_eval(combo, w) == kernel.eval(w)


def test_decompose_values_are_signs():
    rng = random.Random(17)
    for _ in range(10):
        alphas = [random_invertible(rng, 2) for _ in range(2)]
        combo = sigma_decompose(alphas)
        for _ in range(60):
            w = random_nonzero_vector(rng, 2)
            assert combo_eval(combo, w) in (-1, 0, 1)


def test_decompose_equivariance():
    rng = random.Random(19)
    for _ in range(10):
        alphas = [random_invertible(rng, 2) for _ in range(2)]
        beta = random_invertible(rng, 2)
        lhs = sigma_decompose([tuple(tuple(sum(beta[i][k] * a[k][j] for k in range(2))
                                           for j in range(2)) for i in range(2))
                               for a in alphas])
        rhs = sigma_decompose(alphas)
        s = sign(mat_det(beta))
        binv = mat_inv(beta)
        for _ in range(40):
            w = random_nonzero_vector(rng, 2)
            assert combo_eval(lhs, w) == s * combo_eval(rhs, mat_vec(binv, w))


def test_decompose_cocycle_relation_transported():
    rng = random.Random(23)
    for _ in range(8):
        alphas = [random_invertible(rng, 2) for _ in range(3)]
        combos = [sigma_decompose(alphas[:i] + alphas[i + 1:]) for i in range(3)]
        tau = tau_cocycle(alphas)
        for _ in range(40):
            w = random_nonzero_vector(rng, 2)
            total = sum((-1) ** i * combo_eval(c, w) for i, c in enumerate(combos))
            assert total == tau


def test_decompose_degenerate_families():
    # identity pairs, reflections, parallel first columns, shears, swaps:
    # configurations where the unperturbed cone degenerates but the
    # evaluator stays total
    I = ((1, 0), (0, 1))
    families = [
        [I, I],
        [I, ((-1, 0), (0, -1))],
        [((0, -1), (1, 0)), ((0, 1), (-1, 0))],
        [((2, 0), (0, 3)), ((5, 0), (0, 7))],
        [((1, 5), (0, 1)), ((1, 0), (7, 1))],
        [((0, 1), (1, 0)), ((0, -1), (-1, 0))],
    ]
    rng = random.Random(37)
    for alphas in families:
        combo = sigma_decompose(alphas, validate=True)
        kernel = SigmaKernel(alphas)
        ws = [random_nonzero_vector(rng, 2) for _ in range(60)]
        ws += [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, 1)]
        for w in ws:
            assert combo_eval(combo, w) == kernel.eval(w)


def test_decompose_random_degenerate_tuples():
    from shintani.cli import random_degenerate_tuple
    rng = random.Random(41)
    for n in (2, 3):
        for _ in range(8):
            alphas = random_degenerate_tuple(rng, n, n)
            combo = sigma_decompose(alphas, validate=True)
            kernel = SigmaKernel(alphas)
            for _ in range(50):
                w = random_nonzero_vector(rng, n)
                assert combo_eval(combo, w) == kernel.eval(w)


def test_decompose_singular_matrix():
    with pytest.raises(SingularMatrix):
        sigma_decompose([I2, ((1, 2), (2, 4))])


# ---------------------------------------------------------------------------
# Lexicographic positivity regions
# ---------------------------------------------------------------------------

def test_lex_region_single_form():
    combo = lex_positive_region([(1, 0)])
    for w in [(1, 0), (1, 1), (1, -5), (Fraction(1, 3), 2)]:
        assert combo_eval(combo, w) == 1
    for w in [(0, 1), (0, -1), (-1, 3), (-2, -2)]:
        assert combo_eval(combo, w) == 0


def test_lex_region_two_forms():
    combo = lex_positive_region([(0, 1), (1, 0)])  # y first, then x
    for w in [(0, 1), (3, 2), (-1, 1), (1, 0), (5, 0)]:
        assert combo_eval(combo, w) == 1
    for w in [(-1, 0), (0, -1), (2, -1)]:
        assert combo_eval(combo, w) == 0


def test_lex_region_form_and_negation():
    combo = lex_positive_region([(1, 0), (-1, 0)])
    for w in [(1, 0), (1, 7), (2, -1)]:
        assert combo_eval(combo, w) == 1
    for w in [(0, 1), (0, -1), (-1, 2)]:
        assert combo_eval(combo, w) == 0


def test_lex_region_rejects_zero_forms():
    with pytest.raises(AllFormsZero):
        lex_positive_region([(0, 0)])
    assert lex_positive_region([(0, 0), (1, 0)]).dumps() == lex_positive_region([(1, 0)]).dumps()


def test_decompose_region_tiles_punctured_space_by_sign():
    # the pieces for the targets -1, 0 and 1 tile the punctured space: every
    # sample point (random, or a piece witness) lies in exactly one piece,
    # whose target is the first nonzero sign of the list there; a single
    # form has one sign per piece
    rng = random.Random(31)
    for n in (2, 3):
        for _ in range(5):
            forms = tuple(primitive(random_nonzero_vector(rng, n, lo=-2, hi=2, den=1))
                          for _ in range(rng.randint(1, 3)))
            pieces = [(s, OpenSimplicialCone(g)) for s in (-1, 0, 1)
                      for g in _decompose_region(n, [forms], s)]
            ws = [random_nonzero_vector(rng, n) for _ in range(60)]
            ws += [cone.witness() for _, cone in pieces]
            for w in ws:
                hits = [(s, c) for s, c in pieces if c.contains(w)]
                assert len(hits) == 1
                s, cone = hits[0]
                assert first_nonzero_sign(forms, w) == s
                if len(forms) == 1:
                    vals = [idot(forms[0], g) for g in cone.generators]
                    if s > 0:
                        assert all(v >= 0 for v in vals)
                    elif s < 0:
                        assert all(v <= 0 for v in vals)
                    else:
                        assert all(v == 0 for v in vals)


def test_lex_region_random_against_direct_scan():
    rng = random.Random(29)
    for _ in range(15):
        forms = [random_nonzero_vector(rng, 2, lo=-3, hi=3, den=1)
                 for _ in range(rng.randint(1, 3))]
        combo = lex_positive_region(forms)
        for _ in range(80):
            w = random_nonzero_vector(rng, 2)
            expected = 1 if first_nonzero_sign(forms, w) > 0 else 0
            assert combo_eval(combo, w) == expected
