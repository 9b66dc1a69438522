"""Signed combinations of relatively open simplicial rational cones.

A combo is a finite list of (rational coefficient, open simplicial cone)
plus an explicit constant offset; evaluation at a nonzero rational point
is the coefficient-weighted membership sum, read from integer adjugate
rows each cone computes once (``linalg.coordinate_rows``).  The
decomposition routine turns a pointwise cocycle value into such a combo
with the same values everywhere, by refining a fan against the
hyperplanes on which the cocycle's Cramer sign data can flip and reading
each piece's sign lists on its open cone.

The refinement step is a sequential split of relatively open simplicial
cones along hyperplanes.  Each split keeps the pieces disjoint,
relatively open and simplicial; in ambient dimension <= 3 a case table
covers every mixed-sign pattern of a hyperplane on at most three
generators.  Each piece of a split comes with its side, the split form's
strict sign on it or 0 inside the hyperplane.  The splitting list reads
that side on the piece, so a piece on the target's side goes on from the
next list, one on the other side is dropped, and only a piece inside the
hyperplane reads the splitting list again: each sign list is read on a
piece only when no larger cone has settled it.  The kept pieces become
cones from their primitive generators as they are.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import product
from math import gcd
from operator import mul

from .cocycle_core import SigmaKernel
from .errors import SingularMatrix, UnsupportedDimension, ZeroVector
from .linalg import (
    coordinate_rows,
    first_nonzero_sign,
    frac,
    idot,
    int_det,
    int_rows,
    int_scale_point,
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
        """Membership test against an integer multiple of the point, of
        the cone's ambient dimension; any positive rescaling of w leaves
        cone membership unchanged."""
        coord_rows, span_rows = self._rows
        for row in span_rows:
            if sum(map(mul, row, wi)):
                return False
        for row in coord_rows:
            if sum(map(mul, row, wi)) <= 0:
                return False
        return True

    def contains(self, w) -> bool:
        """Membership of a rational point; a point of another dimension is
        refused, not truncated."""
        wi = int_scale_point(w)
        if len(wi) != self.ambient:
            raise ValueError("point dimension mismatch")
        return self._contains_scaled(wi)

    def witness(self):
        """An integer interior point: the sum of the generators."""
        return tuple(map(sum, zip(*self.generators)))


class ConeCombo:
    """Finite signed combination of open simplicial cones plus a constant.
    Every cone lives in one ambient dimension, ``ambient`` (None when there
    is no cone, and the constant is then read at a point of any length)."""

    def __init__(self, terms=(), constant=0):
        self.terms = tuple(
            (frac(c), cone if isinstance(cone, OpenSimplicialCone)
             else OpenSimplicialCone(tuple(cone)))
            for c, cone in terms
        )
        dims = {cone.ambient for _, cone in self.terms}
        if len(dims) > 1:
            raise ValueError("cone dimensions differ")
        self.ambient = dims.pop() if dims else None
        self.constant = frac(constant)

    def eval(self, w) -> Fraction:
        """Value at a nonzero rational point; a point of another dimension
        is refused with ValueError."""
        wi = int_scale_point(w)
        if all(x == 0 for x in wi):
            raise ZeroVector("combos are functions on nonzero points")
        if self.ambient is not None and len(wi) != self.ambient:
            raise ValueError("point dimension mismatch")
        total = self.constant
        for c, cone in self.terms:
            if cone._contains_scaled(wi):
                total += c
        return total

    def scale(self, c) -> "ConeCombo":
        c = frac(c)
        return ConeCombo([(c * k, cone) for k, cone in self.terms], c * self.constant)

    def __add__(self, other: "ConeCombo") -> "ConeCombo":
        return ConeCombo(self.terms + other.terms, self.constant + other.constant)

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


def act(alpha, combo: ConeCombo) -> ConeCombo:
    """Push a combo forward along an invertible rational matrix: map the
    generators and multiply every weight by the determinant sign, so that
    eval(act(a, c), w) = sign(det a) * eval(c, a^(-1) w).  The matrix is
    cleared to integer rows first, a positive scale that moves no ray; a
    matrix that is not square or not of the combo's dimension raises
    ValueError."""
    rows = int_rows(alpha)
    if combo.ambient is not None and len(rows) != combo.ambient:
        raise ValueError("matrix size differs from the combo's dimension")
    s = rsign(int_det(rows))
    if not s:
        raise SingularMatrix("combo action needs an invertible matrix")
    terms = [
        (s * c, OpenSimplicialCone(tuple(tuple(idot(row, g) for row in rows)
                                         for g in cone.generators)))
        for c, cone in combo.terms
    ]
    return ConeCombo(terms, s * combo.constant)


# ---------------------------------------------------------------------------
# Fan refinement by hyperplane splitting.  The refinement loop runs in
# plain integer arithmetic: generators and forms are primitive integer
# vectors, which positive scaling makes harmless for every sign test.
# ---------------------------------------------------------------------------

@cache
def _start_pieces(n: int):
    """The relatively open faces of the fan of coordinate orthants: a
    disjoint cover of the punctured space by open simplicial cones, built
    once per n."""
    pieces = []
    for signs in product((-1, 0, 1), repeat=n):
        gens = tuple(
            tuple(s if j == i else 0 for j in range(n))
            for i, s in enumerate(signs) if s
        )
        if gens:
            pieces.append(gens)
    return tuple(pieces)


def _cross(vp, vq, hp, hq):
    """Primitive positive combination of the generators vp, vq on which
    the split form vanishes; hp and hq are the form's values on them, of
    opposite signs (hp * vq - hq * vp up to scale when hp > 0 > hq)."""
    vec = tuple(hp * b - hq * a for a, b in zip(vp, vq))
    g = gcd(*vec) if hp > 0 else -gcd(*vec)
    return tuple(v // g for v in vec)


def _split_piece(gens, form):
    """Split one relatively open simplicial cone along a hyperplane into
    relatively open simplicial pieces (dimension of the cone <= 3), each
    with its side: the sign, +1 or -1, the form has on the open piece, or
    0 for a piece inside the hyperplane.  A cone the form does not cut
    comes back whole, with the form's sign on it."""
    vals = [idot(form, g) for g in gens]
    pos = [i for i, v in enumerate(vals) if v > 0]
    neg = [i for i, v in enumerate(vals) if v < 0]
    if not pos or not neg:
        return ((gens, 1 if pos else -1 if neg else 0),)
    if len(gens) > 3:
        raise UnsupportedDimension("splitting supports cones of dimension <= 3")
    if len(pos) == len(neg) == 1:
        # one generator on each side, and the rest z on the hyperplane
        p, q = pos[0], neg[0]
        m = _cross(gens[p], gens[q], vals[p], vals[q])
        z = tuple(g for g, v in zip(gens, vals) if not v)
        return (((gens[p], m) + z, 1), ((m,) + z, 0), ((m, gens[q]) + z, -1))
    # three generators, s alone on its side of the hyperplane
    s, (a, b), side = (pos[0], neg, 1) if len(pos) == 1 else (neg[0], pos, -1)
    m1 = _cross(gens[s], gens[a], vals[s], vals[a])
    m2 = _cross(gens[s], gens[b], vals[s], vals[b])
    return (
        ((gens[s], m1, m2), side),
        ((m1, m2), 0),
        ((m1, gens[a], gens[b]), -side),
        ((m1, gens[b]), -side),
        ((m1, m2, gens[b]), -side),
    )


# ---------------------------------------------------------------------------
# Decomposition of the cocycle into a cone combo
# ---------------------------------------------------------------------------

def _decompose_region(n, int_lists, target):
    """Relatively open simplicial pieces exactly covering the region where
    every lexicographic list resolves to the target sign.  The lists of a
    piece are read in order by ``linalg.first_nonzero_sign`` on the piece's
    cone: the piece is dropped at the first list with a sign other than
    the target, split along the form of the first list whose sign is not
    constant on it, and kept when every list has the target sign.

    A split piece resumes from its side of the split.  The pieces of a
    split partition the open cone they came from, and a list with one
    sign on an open cone has that sign on each open cone inside it, so
    every earlier list still reads the target on every piece.  The forms
    of list j before the split form vanish on the cone, so on a piece off
    the hyperplane list j reads the piece's side: a piece on the target's
    side resumes at list j + 1, one on the other side is dropped, and
    only a piece inside the hyperplane reads list j again.  A dropped
    piece would only be dropped when read, so the kept pieces and their
    order are those of reading every piece from list 0.
    """
    work = [(gens, 0) for gens in _start_pieces(n)]
    kept = []
    while work:
        gens, start = work.pop()
        for j in range(start, len(int_lists)):
            s, form = first_nonzero_sign(int_lists[j], gens)
            if s is None:
                for piece, side in _split_piece(gens, form):
                    if not side:
                        work.append((piece, j))
                    elif side == target:
                        work.append((piece, j + 1))
            if s != target:
                break
        else:
            kept.append(gens)
    return kept


def sigma_decompose(alphas) -> ConeCombo:
    """Exact cone-combo representative of the cocycle value: a signed
    disjoint union of relatively open simplicial rational cones whose
    membership sum matches the pointwise evaluation everywhere.

    Supported for 1 <= n <= 3 matrices.
    """
    alphas = list(alphas)
    n = len(alphas)
    if n > 3:
        raise UnsupportedDimension("decomposition implemented for n <= 3")
    kernel = SigmaKernel(alphas)
    target = kernel.det_sign
    pieces = _decompose_region(n, kernel.forms, target)
    cones = sorted(map(OpenSimplicialCone, pieces), key=lambda cone: cone.generators)
    coeff = Fraction(target)
    return ConeCombo([(coeff, cone) for cone in cones])

