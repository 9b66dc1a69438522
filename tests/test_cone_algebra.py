import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import cocycle_cases, random_nonzero_vector, random_vector
from reference import (
    decompose_region_reference,
    gauss_jordan_oracle,
    identity,
    mat_det,
    mat_inv,
    mat_vec,
)
from shintani.cli import random_degenerate_tuple, random_invertible
from shintani.cocycle_core import SigmaKernel, tau_cocycle
from shintani.cone_algebra import (
    ConeCombo,
    _decompose_region,
    _split_piece,
    OpenSimplicialCone,
    act,
    sigma_decompose,
)
from shintani.errors import SingularMatrix, UnsupportedDimension, ZeroVector
from shintani.linalg import (
    coordinate_rows,
    first_nonzero_sign,
    idot,
    primitive,
    sign,
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
        gauss_jordan_oracle(gens, (0,) * len(gens[0]))
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
                    if gauss_jordan_oracle(gens, q) is None:
                        assert any(idot(row, q) != 0 for row in span_rows)
    # frozen rows, with generators completed by the first unit vectors, in
    # order, that make the matrix invertible
    assert coordinate_rows(((1, 0, 0),)) == (1, ((1, 0, 0),), ((0, 1, 0), (0, 0, 1)))
    assert coordinate_rows(((2, -1, 3), (0, 1, 1))) == (4, ((0, -1, 1), (0, 3, 1)),
                                                        ((4, 2, -2),))
    assert coordinate_rows(((1, 2),)) == (2, ((0, 1),), ((2, -1),))
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
                    x = gauss_jordan_oracle(gens, w)
                    assert cone.contains(w) == (x is not None and all(c > 0 for c in x))


def test_combo_eval_examples():
    quad = OpenSimplicialCone(((1, 0), (0, 1)))
    ray = OpenSimplicialCone(((1, 0),))
    assert ConeCombo([(1, quad)]).eval((1, 1)) == 1
    combo = ConeCombo([(1, quad), (-1, ray)])
    assert combo.eval((1, 0)) == -1
    assert ConeCombo([(Fraction(1, 2), ray)]).eval((2, 0)) == Fraction(1, 2)


def test_combo_eval_rejects_zero():
    with pytest.raises(ZeroVector):
        ConeCombo([]).eval((0, 0))


def test_combo_constant_term():
    combo = ConeCombo([], constant=Fraction(1, 2))
    assert combo.eval((5, -1)) == Fraction(1, 2)


def test_act_examples():
    quad = ConeCombo([(1, OpenSimplicialCone(((1, 0), (0, 1))))])
    assert act(I2, quad).to_json() == quad.to_json()
    flipped = act(((1, 0), (0, -1)), quad)
    assert flipped.eval((1, -1)) == -1
    with pytest.raises(SingularMatrix):
        act(((1, 0), (2, 0)), quad)


_PLANE3 = ConeCombo([(1, ((1, 0, 0), (0, 1, 0)))])


def test_act_refuses_a_matrix_that_is_not_square():
    with pytest.raises(ValueError, match="matrix must be square"):
        act(((1, 0, 0), (0, 1, 0)), _PLANE3)


def test_act_refuses_a_matrix_of_another_dimension():
    with pytest.raises(ValueError, match="matrix size differs from the combo's dimension"):
        act(((1, 0), (0, 1)), _PLANE3)
    # a combo with no cone is a constant, moved by a matrix of any size
    assert act(((-2,),), ConeCombo([], 3)).constant == -3


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
            assert moved.eval(w) == s * combo.eval(mat_vec(ainv, w))


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
            assert lhs.eval(w) == rhs.eval(w)


def test_combo_json_round_trip():
    combo = ConeCombo([
        (Fraction(-1, 2), OpenSimplicialCone(((1, 0),))),
        (1, OpenSimplicialCone(((Fraction(1, 3), 1), (0, 1)))),
    ], constant=Fraction(2))
    doc = combo.to_json()
    back = ConeCombo.from_json(doc)
    assert back.to_json() == doc
    for w in [(1, 1), (1, 0), (-2, 5)]:
        assert back.eval(w) == combo.eval(w)


# ---------------------------------------------------------------------------
# Decomposition of the cocycle
# ---------------------------------------------------------------------------

# frozen pieces, in order, each with its side (the split form's sign on
# the open piece, 0 inside the hyperplane), for each way a hyperplane can
# cut a cone: one generator on each side (r = 2, and r = 3 with one
# generator on the hyperplane, here in the middle), and r = 3 with a lone
# positive or a lone negative generator
_SPLITS = [
    (((1, 0), (1, 2)), (1, -1),
     ((((1, 0), (1, 1)), 1), (((1, 1),), 0), (((1, 1), (1, 2)), -1))),
    (((1, 0, 0), (0, 0, 1), (0, 1, 0)), (1, -1, 0),
     ((((1, 0, 0), (1, 1, 0), (0, 0, 1)), 1), (((1, 1, 0), (0, 0, 1)), 0),
      (((1, 1, 0), (0, 1, 0), (0, 0, 1)), -1))),
    (((1, 0, 1), (0, 1, 0), (1, 1, 0)), (1, -2, 1),
     ((((1, 0, 1), (1, 1, 1), (3, 2, 1)), 1), (((1, 1, 1), (3, 2, 1)), 0),
      (((1, 1, 1), (0, 1, 0), (1, 1, 0)), -1), (((1, 1, 1), (1, 1, 0)), -1),
      (((1, 1, 1), (3, 2, 1), (1, 1, 0)), -1))),
    (((1, 0, 0), (0, 1, 0), (0, 0, 1)), (1, -3, 2),
     ((((0, 1, 0), (3, 1, 0), (0, 2, 3)), -1), (((3, 1, 0), (0, 2, 3)), 0),
      (((3, 1, 0), (1, 0, 0), (0, 0, 1)), 1), (((3, 1, 0), (0, 0, 1)), 1),
      (((3, 1, 0), (0, 2, 3), (0, 0, 1)), 1))),
]


@pytest.mark.parametrize("gens,form,pieces", _SPLITS)
def test_split_piece_frozen_pieces(gens, form, pieces):
    assert _split_piece(gens, form) == pieces


def test_split_piece_keeps_uncut_cones_and_refuses_dimension_four():
    # a cone the form does not cut comes back whole, with the form's sign
    # on it: positive, negative, or 0 inside the hyperplane
    gens = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert _split_piece(gens, (1, 0, 2)) == ((gens, 1),)
    assert _split_piece(gens, (0, -1, -3)) == ((gens, -1),)
    assert _split_piece(gens[:2], (0, 0, 5)) == ((gens[:2], 0),)
    with pytest.raises(UnsupportedDimension):
        _split_piece(((1, 0, 0, 0), (-1, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
                     (1, 0, 0, 0))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from((2, 3)).flatmap(lambda n: st.tuples(
    st.lists(st.tuples(*[st.integers(-4, 4)] * n), min_size=2, max_size=n),
    st.tuples(*[st.integers(-3, 3)] * n))))
def test_split_piece_sides_match_the_form_on_each_piece(case):
    # on every piece of a random split the form's values on the generators
    # are all 0 when the side is 0, and otherwise none has the opposite
    # sign and at least one is nonzero
    vecs, form = case
    gens = tuple(primitive(v) for v in vecs if any(v))
    assume(gens and any(form))
    try:
        coordinate_rows(gens)
    except ValueError:
        assume(False)
    for piece, side in _split_piece(gens, form):
        vals = [idot(form, g) for g in piece]
        if side == 0:
            assert all(v == 0 for v in vals)
        else:
            assert side in (1, -1)
            assert all(v * side >= 0 for v in vals) and any(vals)


def test_decompose_negative_ray():
    combo = sigma_decompose([I2, ((1, 0), (0, -1))])
    assert len(combo.terms) == 1
    coeff, cone = combo.terms[0]
    assert coeff == -1
    assert cone.generators == ((Fraction(1), Fraction(0)),)


def test_decompose_upper_half_plane():
    combo = sigma_decompose([I2, ((-1, 0), (0, 1))])
    for w in [(0, 1), (1, 1), (-3, 2), (5, 1)]:
        assert combo.eval(w) == 1
    for w in [(1, 0), (-1, 0), (0, -1), (2, -3)]:
        assert combo.eval(w) == 0


def test_decompose_dimension_one():
    combo = sigma_decompose([((1,),)])
    assert combo.to_json() == {
        "cones": [{"coeff": "1", "generators": [["1"]]}],
        "constant": "0",
    }
    neg = sigma_decompose([((-1,),)])
    assert neg.eval((-2,)) == -1
    assert neg.eval((2,)) == 0


def test_decompose_rejects_large_dimension():
    with pytest.raises(UnsupportedDimension):
        sigma_decompose([identity(4)] * 4)


def test_decompose_extensional_n2():
    rng = random.Random(11)
    for _ in range(25):
        alphas = [random_invertible(rng, 2) for _ in range(2)]
        combo = sigma_decompose(alphas)
        kernel = SigmaKernel(alphas)
        ws = [random_nonzero_vector(rng, 2) for _ in range(120)]
        ws += [c.witness() for _, c in combo.terms]
        for w in ws:
            assert combo.eval(w) == kernel.eval(w)


def test_decompose_extensional_n3():
    rng = random.Random(13)
    for _ in range(4):
        alphas = [random_invertible(rng, 3) for _ in range(3)]
        combo = sigma_decompose(alphas)
        kernel = SigmaKernel(alphas)
        ws = [random_nonzero_vector(rng, 3) for _ in range(150)]
        ws += [c.witness() for _, c in combo.terms][:150]
        for w in ws:
            assert combo.eval(w) == kernel.eval(w)


def test_decompose_values_are_signs():
    rng = random.Random(17)
    for _ in range(10):
        alphas = [random_invertible(rng, 2) for _ in range(2)]
        combo = sigma_decompose(alphas)
        for _ in range(60):
            w = random_nonzero_vector(rng, 2)
            assert combo.eval(w) in (-1, 0, 1)


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
            assert lhs.eval(w) == s * rhs.eval(mat_vec(binv, w))


def _assert_relation_transported(alphas, ws):
    """The face combos of an (n+1)-tuple satisfy the cocycle relation at
    the points ws and at every piece witness of every face, and each
    piece's coefficient is its face kernel's value at the witness."""
    faces = [alphas[:i] + alphas[i + 1:] for i in range(len(alphas))]
    combos = [sigma_decompose(face) for face in faces]
    tau = tau_cocycle(alphas)
    ws = list(ws)
    for face, combo in zip(faces, combos):
        kernel = SigmaKernel(face)
        for coeff, cone in combo.terms:
            w = cone.witness()
            assert kernel.eval(w) == coeff
            ws.append(w)
    for w in ws:
        total = sum((-1) ** i * c.eval(w) for i, c in enumerate(combos))
        assert total == tau


def test_decompose_cocycle_relation_transported():
    # random tuples and the CLI's degenerate families, n = 2 and 3
    rng = random.Random(23)
    for n, count in ((2, 8), (3, 6)):
        for degenerate in (False, True):
            for _ in range(count):
                if degenerate:
                    alphas = random_degenerate_tuple(rng, n, n + 1)
                else:
                    alphas = [random_invertible(rng, n) for _ in range(n + 1)]
                _assert_relation_transported(
                    alphas, [random_nonzero_vector(rng, n) for _ in range(40)])


@settings(deadline=None, derandomize=True, max_examples=60)
@given(case=cocycle_cases())
def test_decompose_cocycle_relation_transported_on_drawn_families(case):
    alphas, w = case
    _assert_relation_transported(alphas, [w])


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
        combo = sigma_decompose(alphas)
        kernel = SigmaKernel(alphas)
        ws = [random_nonzero_vector(rng, 2) for _ in range(60)]
        ws += [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, 1)]
        ws += [c.witness() for _, c in combo.terms]
        for w in ws:
            assert combo.eval(w) == kernel.eval(w)


def test_decompose_random_degenerate_tuples():
    rng = random.Random(41)
    for n in (2, 3):
        for _ in range(8):
            alphas = random_degenerate_tuple(rng, n, n)
            combo = sigma_decompose(alphas)
            kernel = SigmaKernel(alphas)
            ws = [random_nonzero_vector(rng, n) for _ in range(50)]
            ws += [c.witness() for _, c in combo.terms]
            for w in ws:
                assert combo.eval(w) == kernel.eval(w)


def test_wrong_length_points_are_refused():
    # a point is not truncated to the cones' dimension, as the kernel refuses it
    combo = sigma_decompose([((1, 0), (0, 1)), ((0, 1), (1, 0))])
    with pytest.raises(ValueError, match="point dimension mismatch"):
        combo.eval((1, 1, 1))
    with pytest.raises(ValueError, match="point dimension mismatch"):
        OpenSimplicialCone(((1, 0, 0), (0, 1, 0))).contains((1, 1))


def test_combo_refuses_cones_of_mixed_dimension():
    # one ambient dimension per combo, checked once at construction; a combo
    # without cones reads its constant at a point of any length
    with pytest.raises(ValueError, match="cone dimensions differ"):
        ConeCombo([(1, ((1, 0),)), (1, ((1, 0, 0),))])
    plane = ConeCombo([(1, ((1, 0),))])
    with pytest.raises(ValueError, match="cone dimensions differ"):
        plane + ConeCombo([(1, ((1, 0, 0),))])
    assert plane.ambient == 2 and (plane + ConeCombo([], 3)).ambient == 2
    empty = ConeCombo([], constant=Fraction(1, 2))
    assert empty.ambient is None
    assert empty.eval((1,)) == empty.eval((1, 2, 3)) == Fraction(1, 2)


def test_decompose_singular_matrix():
    with pytest.raises(SingularMatrix):
        sigma_decompose([I2, ((1, 2), (2, 4))])


# ---------------------------------------------------------------------------
# Sign regions of a lexicographic form list
# ---------------------------------------------------------------------------

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
                assert first_nonzero_sign(forms, (w,))[0] == s
                if len(forms) == 1:
                    vals = [idot(forms[0], g) for g in cone.generators]
                    if s > 0:
                        assert all(v >= 0 for v in vals)
                    elif s < 0:
                        assert all(v <= 0 for v in vals)
                    else:
                        assert all(v == 0 for v in vals)


def test_decompose_region_reads_no_list_a_split_has_settled(monkeypatch):
    # a work count: the sign lists read over 40 seeded n = 3 tuples, one in
    # four from the CLI's degenerate families.  Resuming each side piece
    # from its side reads 4409; re-reading the split list on every piece
    # reads 7301, and the bound leaves 10 % headroom over 4409
    from shintani import cone_algebra

    rng = random.Random(59)
    kernels = [SigmaKernel(random_degenerate_tuple(rng, 3, 3) if i % 4 == 3
                           else [random_invertible(rng, 3) for _ in range(3)])
               for i in range(40)]
    calls = []
    read = cone_algebra.first_nonzero_sign

    def counted(forms, gens):
        calls.append(None)
        return read(forms, gens)

    monkeypatch.setattr(cone_algebra, "first_nonzero_sign", counted)
    for kernel in kernels:
        _decompose_region(3, kernel.forms, kernel.det_sign)
    assert 0 < len(calls) <= 4850


def _degenerate_kind(alphas):
    """Which family of the CLI's degenerate generator drew the tuple:
    repeated matrices, pairwise parallel first columns, or first columns
    in a plane."""
    if any(a == b for a, b in zip(alphas, alphas[1:])):
        return "repeated"
    firsts = [tuple(row[0] for row in a) for a in alphas]
    if all(c[i] * d[j] == c[j] * d[i] for c in firsts for d in firsts
           for i in range(len(c)) for j in range(i)):
        return "parallel"
    return "plane"


def test_decompose_region_resumes_like_the_restarting_loop():
    # a split piece resumes at the list that split it; reading every list
    # from the first gives the same pieces in the same order, for each
    # target, on generic tuples and on every degenerate family the CLI
    # generator draws
    rng = random.Random(43)
    kinds = set()
    for n in (1, 2, 3):
        for degenerate in (False, True):
            for _ in range(10 if n == 3 else 4):
                if degenerate:
                    alphas = random_degenerate_tuple(rng, n, n)
                    kinds.add(_degenerate_kind(alphas))
                else:
                    alphas = [random_invertible(rng, n) for _ in range(n)]
                kernel = SigmaKernel(alphas)
                for target in (kernel.det_sign, 0, -kernel.det_sign):
                    assert (_decompose_region(n, kernel.forms, target)
                            == decompose_region_reference(n, kernel.forms, target))
    assert kinds == {"repeated", "parallel", "plane"}
