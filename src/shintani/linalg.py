"""Small exact linear algebra helpers over the rationals.

Vectors are tuples of Fraction, matrices are tuples of row tuples.
Everything is immutable and all arithmetic is exact.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

from .errors import SingularMatrix

Vec = tuple
Mat = tuple


def frac(x) -> Fraction:
    """Coerce an int, Fraction or 'p/q' string to Fraction.  Floats and
    bools are rejected: no binary fraction may enter a computation."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (float, bool)):
        raise TypeError(f"inexact or boolean value {x!r}")
    return Fraction(x)


def identity(n: int) -> Mat:
    return tuple(
        tuple(Fraction(1) if i == j else Fraction(0) for j in range(n)) for i in range(n)
    )


def dot(u, v) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def mat_vec(m, v) -> Vec:
    return tuple(dot(row, v) for row in m)


def mat_mul(a, b) -> Mat:
    cols = list(zip(*b))
    return tuple(tuple(dot(row, col) for col in cols) for row in a)


def mat_det(m) -> Fraction:
    """Determinant by fraction-free-ish Gaussian elimination (exact)."""
    n = len(m)
    a = [list(row) for row in m]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            if a[r][col] != 0:
                f = a[r][col] * inv
                for c in range(col, n):
                    a[r][c] -= f * a[col][c]
    return det


def mat_inv(m) -> Mat:
    """Inverse of a square rational matrix, one solve per unit column;
    raises SingularMatrix when the columns are dependent."""
    cols = list(zip(*m))
    inv_cols = [solve_columns(cols, e) for e in identity(len(m))]
    return tuple(zip(*inv_cols))


def solve_columns(cols, w):
    """Solve sum_i x_i * cols[i] = w for linearly independent columns.

    Returns the coefficient list, or None when w is outside the span.
    Raises SingularMatrix if the columns are dependent.
    """
    n = len(w)
    r = len(cols)
    a = [[cols[j][i] for j in range(r)] + [w[i]] for i in range(n)]
    row = 0
    pivots = []
    for col in range(r):
        piv = next((k for k in range(row, n) if a[k][col] != 0), None)
        if piv is None:
            raise SingularMatrix("columns are linearly dependent")
        a[row], a[piv] = a[piv], a[row]
        inv = 1 / a[row][col]
        a[row] = [x * inv for x in a[row]]
        for k in range(n):
            if k != row and a[k][col] != 0:
                f = a[k][col]
                a[k] = [x - f * y for x, y in zip(a[k], a[row])]
        pivots.append(row)
        row += 1
    for k in range(row, n):
        if a[k][r] != 0:
            return None
    return [a[pivots[col]][r] for col in range(r)]


# ---------------------------------------------------------------------------
# Integer vectors.  A positive scale changes no sign test, so sign
# computations clear denominators first and run on plain ints.
# ---------------------------------------------------------------------------

def int_scale_point(w):
    """Positive integer multiple of a rational point, as plain ints."""
    w = [frac(x) for x in w]
    den = lcm(*(x.denominator for x in w))
    return tuple(x.numerator * (den // x.denominator) for x in w)


def primitive(vec):
    """Primitive integer vector (plain ints) in the same direction."""
    ints = int_scale_point(vec)
    g = gcd(*ints)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple(v // g for v in ints)


def idot(f, g):
    return sum(a * b for a, b in zip(f, g))


def int_det(m) -> int:
    """Determinant of a small square integer matrix (rows): closed form up
    to size 2 (the empty matrix has determinant 1), cofactor expansion
    along the first row beyond."""
    if len(m) == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    if len(m) < 2:
        return m[0][0] if m else 1
    return sum(
        (-1) ** j * m[0][j] * int_det([row[:j] + row[j + 1:] for row in m[1:]])
        for j in range(len(m))
        if m[0][j]
    )


def cofactor_form(cols, slot):
    """Integer linear form w -> det of the n-1 integer columns with w
    inserted at position slot: row slot of the adjugate of any matrix
    with these other columns."""
    n = len(cols) + 1
    return tuple(
        (-1) ** (row + slot)
        * int_det([[c[r] for c in cols] for r in range(n) if r != row])
        for row in range(n)
    )


def coordinate_rows(gens):
    """Integer rows deciding coordinates in r independent integer vectors.

    Completes the generators by standard basis vectors to an invertible
    matrix and returns (den, coord_rows, span_rows) from its adjugate,
    signed so that den > 0: at p = sum x_i gens[i], coord row i reads
    den * x_i, and the span rows vanish exactly on the span of the
    generators.  Raises ValueError when the generators are dependent.
    """
    n = len(gens[0])
    r = len(gens)
    for extra in combinations(range(n), n - r) if r <= n else ():
        cols = list(gens) + [tuple(int(i == j) for i in range(n)) for j in extra]
        den = int_det(list(zip(*cols)))
        if den:
            s = 1 if den > 0 else -1
            rows = [
                tuple(s * x for x in cofactor_form(cols[:i] + cols[i + 1:], i))
                for i in range(n)
            ]
            return abs(den), tuple(rows[:r]), tuple(rows[r:])
    raise ValueError("generators must be linearly independent")


def first_nonzero_sign(forms, w) -> int:
    """Sign of the first form in the list that is nonzero at w, or 0: the
    sign of a lexicographically ordered list of linear forms."""
    for f in forms:
        v = idot(f, w)
        if v:
            return 1 if v > 0 else -1
    return 0


def sign(x) -> int:
    return (x > 0) - (x < 0)
