"""Signed combinations of relatively open simplicial rational cones.

A combo is a finite list of (rational coefficient, open simplicial cone)
plus an explicit constant offset; evaluation at a nonzero rational point
is the coefficient-weighted membership sum.  The decomposition routine
turns a pointwise cocycle value into such a combo with the same values
everywhere, by refining a fan against the hyperplanes on which the
cocycle's Cramer sign data can flip and reading the value off one
interior witness per piece.

The refinement step is a sequential split of relatively open simplicial
cones along hyperplanes.  Each split keeps the pieces disjoint,
relatively open and simplicial; in ambient dimension <= 3 a case table
covers every mixed-sign pattern of a hyperplane on at most three
generators.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd

from .cocycle_core import SigmaKernel
from .errors import AllFormsZero, SingularMatrix, UnsupportedDimension, ZeroVector
from .linalg import (
    coordinate_rows,
    frac,
    idot,
    int_scale_point,
    mat_det,
    mat_vec,
    primitive,
    sign as rsign,
)


@dataclass(frozen=True)
class OpenSimplicialCone:
    """Relatively open cone of linearly independent rational generators:
    strictly positive combinations only.  A cone depends only on the rays
    of its generators, so each is stored as its primitive integer vector."""

    generators: tuple

    def __post_init__(self):
        gens = tuple(primitive(g) for g in self.generators)
        if not gens:
            raise ValueError("a cone needs at least one generator")
        if any(len(g) != len(gens[0]) for g in gens):
            raise ValueError("generator dimensions differ")
        _, coord_rows, span_rows = coordinate_rows(gens)
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "_rows", (coord_rows, span_rows))

    @property
    def dim(self) -> int:
        return len(self.generators)

    @property
    def ambient(self) -> int:
        return len(self.generators[0])

    def _contains_scaled(self, wi) -> bool:
        """Membership test against an integer multiple of the point; any
        positive rescaling of w leaves cone membership unchanged."""
        coord_rows, span_rows = self._rows
        for row in span_rows:
            if sum(a * b for a, b in zip(row, wi)) != 0:
                return False
        for row in coord_rows:
            if sum(a * b for a, b in zip(row, wi)) <= 0:
                return False
        return True

    def contains(self, w) -> bool:
        return self._contains_scaled(int_scale_point(w))

    def witness(self):
        """An integer interior point: the sum of the generators."""
        return tuple(map(sum, zip(*self.generators)))


class ConeCombo:
    """Finite signed combination of open simplicial cones plus a constant."""

    def __init__(self, terms=(), constant=0):
        self.terms = tuple(
            (frac(c), cone if isinstance(cone, OpenSimplicialCone)
             else OpenSimplicialCone(tuple(cone)))
            for c, cone in terms
        )
        self.constant = frac(constant)

    def eval(self, w) -> Fraction:
        wi = int_scale_point(w)
        if all(x == 0 for x in wi):
            raise ZeroVector("combos are functions on nonzero points")
        total = Fraction(self.constant)
        for c, cone in self.terms:
            if cone._contains_scaled(wi):
                total += c
        return total

    def scale(self, c) -> "ConeCombo":
        c = frac(c)
        return ConeCombo([(c * k, cone) for k, cone in self.terms], c * self.constant)

    def __add__(self, other: "ConeCombo") -> "ConeCombo":
        return ConeCombo(self.terms + other.terms, self.constant + other.constant)

    def sorted(self) -> "ConeCombo":
        terms = sorted(self.terms, key=lambda t: t[1].generators)
        return ConeCombo(terms, self.constant)

    def to_json(self) -> dict:
        return {
            "cones": [
                {
                    "coeff": str(c),
                    "generators": [[str(x) for x in g] for g in cone.generators],
                }
                for c, cone in self.terms
            ],
            "constant": str(self.constant),
        }

    @classmethod
    def from_json(cls, doc: dict) -> "ConeCombo":
        terms = [(entry["coeff"], entry["generators"]) for entry in doc.get("cones", [])]
        return cls(terms, doc.get("constant", "0"))

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)


def combo_eval(combo: ConeCombo, w) -> Fraction:
    return combo.eval(w)


def act(alpha, combo: ConeCombo) -> ConeCombo:
    """Push a combo forward along an invertible rational matrix: map the
    generators and multiply every weight by the determinant sign, so that
    eval(act(a, c), w) = sign(det a) * eval(c, a^(-1) w)."""
    alpha = tuple(tuple(frac(x) for x in row) for row in alpha)
    d = mat_det(alpha)
    if d == 0:
        raise SingularMatrix("combo action needs an invertible matrix")
    s = rsign(d)
    terms = [
        (s * c, OpenSimplicialCone(tuple(mat_vec(alpha, g) for g in cone.generators)))
        for c, cone in combo.terms
    ]
    return ConeCombo(terms, s * combo.constant)


# ---------------------------------------------------------------------------
# Fan refinement by hyperplane splitting.  The refinement loop runs in
# plain integer arithmetic: generators and forms are primitive integer
# vectors, which positive scaling makes harmless for every sign test.
# ---------------------------------------------------------------------------

def _start_pieces(n: int):
    """The relatively open faces of the fan of coordinate orthants: a
    disjoint cover of the punctured space by open simplicial cones."""
    pieces = []
    for signs in product((-1, 0, 1), repeat=n):
        gens = tuple(
            tuple(s if j == i else 0 for j in range(n))
            for i, s in enumerate(signs) if s
        )
        if gens:
            pieces.append(gens)
    return pieces


def _cross(vp, vq, hp, hq):
    """Positive combination of the generators vp, vq on which the split
    form vanishes: hp * vq - hq * vp with hp > 0 > hq."""
    vec = tuple(hp * b - hq * a for a, b in zip(vp, vq))
    g = gcd(*vec)
    return tuple(v // g for v in vec)


def _split_piece(gens, form):
    """Split one relatively open simplicial cone along a hyperplane into
    relatively open simplicial pieces (dimension of the cone <= 3)."""
    vals = [idot(form, g) for g in gens]
    pos = [i for i, v in enumerate(vals) if v > 0]
    neg = [i for i, v in enumerate(vals) if v < 0]
    if not pos or not neg:
        return (gens,)
    r = len(gens)
    if r == 2:
        p, q = pos[0], neg[0]
        m = _cross(gens[p], gens[q], vals[p], vals[q])
        return ((gens[p], m), (m,), (m, gens[q]))
    if r == 3:
        zero = [i for i, v in enumerate(vals) if v == 0]
        if zero:
            p, q, z = pos[0], neg[0], zero[0]
            m = _cross(gens[p], gens[q], vals[p], vals[q])
            return (
                (gens[p], m, gens[z]),
                (m, gens[z]),
                (m, gens[q], gens[z]),
            )
        if len(pos) == 1:
            p = pos[0]
            q1, q2 = neg
            m1 = _cross(gens[p], gens[q1], vals[p], vals[q1])
            m2 = _cross(gens[p], gens[q2], vals[p], vals[q2])
            return (
                (gens[p], m1, m2),
                (m1, m2),
                (m1, gens[q1], gens[q2]),
                (m1, gens[q2]),
                (m1, m2, gens[q2]),
            )
        q = neg[0]
        p1, p2 = pos
        m1 = _cross(gens[p1], gens[q], vals[p1], vals[q])
        m2 = _cross(gens[p2], gens[q], vals[p2], vals[q])
        return (
            (gens[q], m1, m2),
            (m1, m2),
            (m1, gens[p1], gens[p2]),
            (m1, gens[p2]),
            (m1, m2, gens[p2]),
        )
    raise UnsupportedDimension("splitting supports cones of dimension <= 3")


# ---------------------------------------------------------------------------
# Decomposition of the cocycle into a cone combo
# ---------------------------------------------------------------------------

def _classify_piece(gens, int_lists, target):
    """Decide the lexicographic sign data of one piece, or report a form
    to split by.

    Returns ('drop', None) when some list already resolves to a sign other
    than the target on the whole piece, ('keep', None) when every list
    resolves to the target, and ('split', form) when a form has mixed
    signs on the piece so the answer is not yet constant.
    """
    for forms in int_lists:
        decided = None
        for f in forms:
            vals = [idot(f, g) for g in gens]
            pos = any(v > 0 for v in vals)
            neg = any(v < 0 for v in vals)
            if pos and neg:
                return "split", f
            if pos:
                decided = 1
                break
            if neg:
                decided = -1
                break
            # identically zero on the span of the piece: next form decides
        if decided is None:
            decided = 0
        if decided != target:
            return "drop", None
    return "keep", None


def _decompose_region(n, int_lists, target):
    """Relatively open simplicial pieces exactly covering the region where
    every lexicographic list resolves to the target sign.  Pieces are
    split only while some list is still ambiguous on them, and pieces with
    a resolved non-target sign are dropped immediately."""
    work = list(_start_pieces(n))
    kept = []
    while work:
        gens = work.pop()
        status, form = _classify_piece(gens, int_lists, target)
        if status == "keep":
            kept.append(gens)
        elif status == "split":
            work.extend(_split_piece(gens, form))
    return kept


def sigma_decompose(alphas, validate: bool = False) -> ConeCombo:
    """Exact cone-combo representative of the cocycle value: a signed
    disjoint union of relatively open simplicial rational cones whose
    membership sum matches the pointwise evaluation everywhere.

    Supported for 1 <= n <= 3 matrices.  When ``validate`` is set, every
    piece witness is cross-checked against the pointwise evaluator.
    """
    alphas = list(alphas)
    n = len(alphas)
    if n > 3:
        raise UnsupportedDimension("decomposition implemented for n <= 3")
    kernel = SigmaKernel(alphas)
    target = kernel.det_sign
    pieces = _decompose_region(n, kernel.forms, target)
    terms = []
    for gens in pieces:
        cone = OpenSimplicialCone(gens)
        if validate and kernel.eval(cone.witness()) != target:
            raise AssertionError("decomposition witness mismatch")
        terms.append((target, cone))
    return ConeCombo(terms).sorted()


def lex_positive_region(form_list) -> ConeCombo:
    """Indicator combo of the region where the first nonzero form of the
    list (rational forms, lexicographically ordered) is positive; zero
    forms are skipped."""
    int_forms = tuple(primitive(f) for f in form_list if any(frac(x) for x in f))
    if not int_forms:
        raise AllFormsZero("need at least one nonzero form")
    pieces = _decompose_region(len(int_forms[0]), [int_forms], 1)
    terms = [(1, OpenSimplicialCone(gens)) for gens in pieces]
    return ConeCombo(terms).sorted()
