"""Small exact linear algebra helpers in integers.

A rational vector is a tuple of ints and Fractions.  A matrix is held in
one form only: rows of plain ints that are a positive multiple of the
rational matrix (``int_rows``), since a positive scale changes no sign
and no solution.  The determinant, adjugate and solve helpers take plain
ints and answer in ints, a rational answer as integers over one positive
denominator.  Everything is immutable and all arithmetic is exact.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import combinations, permutations
from math import gcd, lcm
from operator import mul

from .errors import SingularMatrix


def frac(x) -> Fraction:
    """Coerce an int, Fraction or 'p/q' string to Fraction.  Floats and
    bools are rejected: no binary fraction may enter a computation."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (float, bool)):
        raise TypeError(f"inexact or boolean value {x!r}")
    return Fraction(x)


def solve_columns(cols, w):
    """Solve sum_i x_i * cols[i] = w in integers, for plain int columns
    and an int w; callers clear rational input first (``int_rows``,
    ``int_scale_point``).

    Returns (den, ys) with den > 0 and sum_i ys[i] * cols[i] = den * w,
    so x_i = ys[i] / den, or None when w is outside the span; raises
    SingularMatrix when the columns are dependent, checked before the
    span.  Two routes, picked by shape: Cramer's rule for two columns of
    length 2, where den is |det|, and ``_eliminate`` for everything else,
    where den is the absolute value of its last pivot.  For a square
    system both give den = |det| and the ys of ``coordinate_rows``.
    """
    n = len(w)
    r = len(cols)
    if n == r == 2:
        (a, c), (b, d) = cols
        det = a * d - b * c
        if not det:
            raise SingularMatrix("columns are linearly dependent")
        y0, y1 = w[0] * d - b * w[1], a * w[1] - c * w[0]
        return (det, [y0, y1]) if det > 0 else (-det, [-y0, -y1])
    a = [[col[i] for col in cols] + [w[i]] for i in range(n)]
    p = _eliminate(a, r)[0]
    if not p:
        raise SingularMatrix("columns are linearly dependent")
    if any(a[k][r] for k in range(r, n)):
        return None
    ys = [a[j][r] for j in range(r)]
    return (p, ys) if p > 0 else (-p, [-y for y in ys])


def _eliminate(a, r):
    """Fraction-free Gauss-Jordan elimination (Bareiss) of the first r
    columns of the integer rows a, in place.  Every step divides exactly
    by the previous pivot, so each row stays a nonzero multiple of its
    rational counterpart, and the pivot of step k is the leading minor of
    size k + 1 of the row-swapped matrix; after the last step every row
    j < r reads that pivot in column j and zero in the other r - 1.
    Returns (the last pivot, the number of row swaps); the pivot is 0
    when one of the r columns has none, and the elimination stops there."""
    n = len(a)
    prev = 1
    swaps = 0
    for col in range(r):
        piv = next((k for k in range(col, n) if a[k][col]), None)
        if piv is None:
            return 0, swaps
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            swaps += 1
        top = a[col]
        p = top[col]
        for k in range(n):
            if k != col:
                f = a[k][col]
                a[k] = [(p * x - f * y) // prev for x, y in zip(a[k], top)]
        prev = p
    return prev, swaps


# ---------------------------------------------------------------------------
# Integer vectors.  A positive scale changes no sign test, so sign
# computations clear denominators first and run on plain ints.
# ---------------------------------------------------------------------------

# (point, ints) of the last tuple of ints and Fractions cleared, replaced
# as one tuple so that a reader never pairs a point with another's ints.
_last_cleared = [(object(), None)]


def int_scale_point(w):
    """Positive integer multiple of a rational point, as plain ints.

    A tuple of ints is its own multiple.  The last tuple of ints and
    Fractions cleared is remembered by identity (both are immutable), so
    the face kernels of a cocycle tuple read at one point clear it once;
    lists and tuples with other entries are cleared every time."""
    last = _last_cleared[0]
    if w is last[0]:
        return last[1]
    kinds = set(map(type, w)) if type(w) is tuple else {type(w)}
    if kinds <= {int}:
        return w
    ratios = [(x if type(x) is Fraction else frac(x)).as_integer_ratio() for x in w]
    den = lcm(*[d for _, d in ratios])
    ints = tuple([p * (den // d) for p, d in ratios])
    if kinds <= {int, Fraction}:
        _last_cleared[0] = (w, ints)
    return ints


def primitive(vec):
    """Primitive integer vector (plain ints) in the same direction; a
    tuple of ints that is primitive already is returned as it is."""
    ints = int_scale_point(vec)
    g = gcd(*ints)
    if g == 1 and type(ints) is tuple:
        return ints
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple(v // g for v in ints)


def idot(f, g):
    return sum(map(mul, f, g))


def int_rows(m):
    """Positive integer multiple of a square rational matrix, as rows of
    plain ints cleared by one common denominator (``int_scale_point`` on
    the entries).  A matrix that is not square raises ValueError, a float
    or bool entry TypeError."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix must be square")
    flat = int_scale_point([x for row in m for x in row])
    return tuple(flat[k * n:k * n + n] for k in range(n))


def int_det(m) -> int:
    """Determinant of a square integer matrix (rows).  Up to size 3 it is
    row 0 times the closed-form cofactor_form of the other rows (the empty
    matrix has determinant 1); beyond, the last pivot of the fraction-free
    elimination that solve_columns runs, signed by its row swaps."""
    n = len(m)
    if n <= 3:
        return idot(m[0], cofactor_form(m[1:], 0)) if n else 1
    p, swaps = _eliminate([list(row) for row in m], n)
    return -p if swaps % 2 else p


def cofactor_form(cols, slot):
    """Integer linear form w -> det of the n-1 integer columns with w
    inserted at position slot: row slot of the adjugate of any matrix
    with these other columns.

    Closed form for n = 3, (-1)^slot times the cross product a x b of the
    two columns, for n = 2, (a_1, -a_0) at slot 0 and (-a_1, a_0) at
    slot 1, and (1,) for n = 1.  For n >= 4, _eliminate of [cols | I_n]
    over the n - 1 columns leaves in the last row the determinants with
    each unit vector appended, so the form is that row times
    (-1)^(swaps + n - 1 - slot); dependent columns give the zero form."""
    n = len(cols) + 1
    if n == 3:
        (a0, a1, a2), (b0, b1, b2) = cols
        x, y, z = a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0
        return (-x, -y, -z) if slot == 1 else (x, y, z)
    if n == 2:
        a0, a1 = cols[0]
        return (a1, -a0) if slot == 0 else (-a1, a0)
    if n == 1:
        return (1,)
    a = [[c[r] for c in cols] + [int(r == t) for t in range(n)] for r in range(n)]
    p, swaps = _eliminate(a, n - 1)
    if not p:
        return (0,) * n
    row = a[n - 1][n - 1:]
    return tuple(row) if (swaps + n - 1 - slot) % 2 == 0 else tuple(-x for x in row)


@cache
def _unit_vectors(n):
    """The standard basis of Z^n, as int tuples."""
    return tuple(tuple(int(i == j) for i in range(n)) for j in range(n))


def coordinate_rows(gens):
    """Integer rows deciding coordinates in r independent integer vectors.

    Completes the generators by standard basis vectors to an invertible
    matrix and returns (den, coord_rows, span_rows) from its adjugate,
    signed so that den > 0: at p = sum x_i gens[i], coord row i reads
    den * x_i, and the span rows vanish exactly on the span of the
    generators.  den is the determinant, read as adjugate row 0 times
    column 0 (Laplace along that column), so no determinant is computed
    apart from the adjugate.  Raises ValueError when the generators are
    dependent.
    """
    n = len(gens[0])
    r = len(gens)
    units = _unit_vectors(n)
    for extra in combinations(units, n - r) if r <= n else ():
        cols = list(gens) + list(extra)
        row0 = cofactor_form(cols[1:], 0)
        den = sum(map(mul, row0, cols[0]))
        if den:
            rows = [row0] + [cofactor_form(cols[:i] + cols[i + 1:], i) for i in range(1, n)]
            if den < 0:
                den = -den
                rows = [tuple([-x for x in row]) for row in rows]
            return den, tuple(rows[:r]), tuple(rows[r:])
    raise ValueError("generators must be linearly independent")


def reduce_rows(gens):
    """Shorter integer generators for the same lattice points: a
    unimodular change of coordinates U of Z^n applied to every generator.

    The rows are the n coordinate rows of the matrix whose columns are
    the generators, and the bounding box of the parallelotope has side
    d * (l1 norm of row j) + 1 in coordinate j.  Pairwise Gauss steps
    row_i -= q row_j, with q the rounded projection or a neighbour, are
    taken only when they strictly lower the l1 norm of row_i, so the box
    never grows and the loop ends.  Returns (the generators U g, back)
    with back = U^-1 as integer rows, kept by the matching column steps
    col_j += q col_i, so a point k' of the new parallelotope is the point
    k = back k' of the old one; back is None when no step was taken.
    """
    rows = [list(row) for row in zip(*gens)]
    n = len(rows)
    norms = [sum(map(abs, row)) for row in rows]
    back = None
    moved = True
    while moved:
        moved = False
        for i, j in permutations(range(n), 2):
            ri, rj = rows[i], rows[j]
            sq = idot(rj, rj)
            if not sq:
                continue
            near = (2 * idot(ri, rj) + sq) // (2 * sq)
            norm, q = min((sum(abs(a - q * b) for a, b in zip(ri, rj)), q)
                          for q in (near - 1, near, near + 1))
            if norm < norms[i]:
                rows[i] = [a - q * b for a, b in zip(ri, rj)]
                norms[i] = norm
                if back is None:
                    back = [[int(a == b) for b in range(n)] for a in range(n)]
                for row in back:
                    row[j] += q * row[i]
                moved = True
    if back is not None:
        back = tuple(map(tuple, back))
    return [tuple(g) for g in zip(*rows)], back


def first_nonzero_sign(forms, gens):
    """Sign of a lexicographically ordered list of integer linear forms on
    the relatively open cone of the integer vectors gens (their strictly
    positive combinations); a point w is the one-generator cone (w,).

    A form vanishes identically on the cone when it is zero on every
    generator, and has one strict sign there when its nonzero values on
    the generators share it.  Returns (s, form) with s = 1 or -1 for the
    first form that is not identically zero on the cone, (None, form) when
    that form takes both signs on the generators, so the list has no
    constant sign there, and (0, None) when every form vanishes.
    """
    for f in forms:
        s = 0
        for g in gens:
            v = sum(map(mul, f, g))
            if v:
                t = 1 if v > 0 else -1
                if s and s != t:
                    return None, f
                s = t
        if s:
            return s, f
    return 0, None


def sign(x) -> int:
    return (x > 0) - (x < 0)
