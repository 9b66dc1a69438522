"""Reference implementations the tests compare the library against.

None of these is on a route the CLI or the L-value pipelines take; each
is an independent definition of a value the library computes another way:

  * ``dvalue`` and ``cvalue``, the sign invariants over the ordered field
    of nested infinitesimals, and ``moment_vector``, the perturbed moment
    columns: the paper's definition of the cocycle, which the integer
    kernel (``SigmaKernel``, ``tau_cocycle``) must reproduce;
    ``cramer_forms_reference``, the kernel's Cramer form lists from unit
    vector determinants, sorted by exponent; ``cofactor_form_reference``,
    an adjugate row by Laplace expansion, the oracle for the eliminated
    rows of ``linalg.cofactor_form``.
  * ``decompose_region_reference``, the fan refinement reading every
    piece's lists from the first, the oracle for the resumed split
    pieces of ``cone_algebra._decompose_region``.
  * ``identity``, ``dot``, ``mat_vec``, ``mat_det``, ``mat_mul``,
    ``gauss_jordan_oracle``, ``gauss_jordan_solve`` (several right-hand
    sides in one elimination) and ``mat_inv`` (one elimination over
    [m | I]): rational matrices, vectors,
    determinants and solves by Gaussian elimination, which the tests use
    to move tuples and points by a matrix; ``mat_det`` is the oracle for
    the integer ``int_det`` and ``gauss_jordan_oracle`` for the integer
    ``solve_columns``.
  * ``bernoulli_numbers_reference``, B_0 .. B_n by the defining
    recurrence in Fractions, the oracle for the integer tangent numbers
    behind ``bernoulli_number``.
  * ``cyclotomic_poly_reference``, Phi_m by dense division of x^m - 1 by
    the cyclotomic polynomials of the proper divisors, the oracle for the
    Moebius product of ``cyclotomic_poly``; ``coeff_inv`` and
    ``coeff_pow``, ring inverses by a Gauss-Jordan solve over the rational
    basis and powers by repeated squaring.
  * ``solomon_s``, ``coboundary_tau_half``, ``tau_transport`` and
    ``closed_form_sigma_n2``: the dimension-2 half-weighted cocycle, the
    half-ray coboundary function and the closed-form tables.
  * ``series_add``, ``series_scale`` and ``series_mul_linear``: the sum,
    the scaling and the product by a linear form of ``MSeries`` in
    CoeffElem arithmetic, the oracles for the integer series arithmetic
    of ``QuotSeries``.
  * ``exp_series`` and ``g_series``: exp(v.z) and g(v.z) built through
    the term-by-term product ``series_product``, the oracles for the
    integer numerator of ``exp_sum`` (the kernel ``_numerator`` on single
    points) and ``pair_cone``; ``one_minus_exp``, ``phi_map``,
    ``translate`` and ``quot_equal_as_laurent`` state the pairing
    identities; ``reduce_to_power_series_reference`` divides by each form
    with a Fraction pivot, the oracle for the integer division of
    ``reduce_to_power_series``.
  * ``symmetric_laurent_coeff_reference``: the symmetric Laurent
    extraction in CoeffElem arithmetic (forms T^t v by ring products,
    inverse series and ring inverses), the oracle for the Z[sqrt D]
    integer route of ``symmetric_laurent_coeff``.
  * ``base_change_L``: L_K(chi o N, -r) = L(chi, -r) L(chi chi_K, -r) from
    the Bernoulli closed form, sharing no code with the cone route, for
    the test function ``norm_character_schwartz`` builds.

The error classes ``GeneralPositionViolation``, ``SingularBasis`` and
``CaseDecompositionFailure`` are raised only here, so they live here.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import product
from math import comb, gcd, lcm

from shintani.cocycle_core import _integer_columns
from shintani.cone_algebra import _split_piece, _start_pieces
from shintani.errors import (
    NotDivisible,
    ShintaniError,
    SingularMatrix,
    TruncationTooSmall,
    ZeroVector,
)
from shintani.exactnum import CoeffElem, CoeffRing, MPoly, QQ, bernoulli_number
from shintani.linalg import (
    first_nonzero_sign,
    frac,
    int_det,
    sign as rsign,
)
from shintani.lvalues import DirichletChar, dirichlet_L_closed
from shintani.ordered_field import (
    as_elem,
    clear_denominators,
    det_mpoly_columns,
    infer_nvars,
    sign_mpoly,
)
from shintani.solomon_hu import MSeries, QuotSeries, SchwartzFn, _numerator


class GeneralPositionViolation(ShintaniError):
    """An n-element subset of the input vectors is linearly dependent."""


class SingularBasis(ShintaniError):
    """The claimed basis vectors are linearly dependent."""


class CaseDecompositionFailure(ShintaniError):
    """Neither closed-form factorization applies; impossible for an
    invertible matrix, so this signals a bug in the caller."""


# ---------------------------------------------------------------------------
# The sign invariants over the ordered field
# ---------------------------------------------------------------------------

def moment_vector(slot: int, n: int, nvars: int) -> tuple[MPoly, ...]:
    """(1, e, e^2, ..., e^(n-1)) for the infinitesimal in the given slot."""
    if not 0 <= slot < nvars:
        raise ValueError("slot out of range")
    exps = []
    for j in range(n):
        e = [0] * nvars
        e[slot] = j
        exps.append(tuple(e))
    return tuple(MPoly(nvars, {e: Fraction(1)}) for e in exps)


def _poly_columns(vectors):
    """Coerce vectors with rational / polynomial / fraction entries into
    polynomial columns; per-vector positive scaling only, so every sign
    invariant of the configuration is unchanged."""
    nvars = infer_nvars(vectors)
    cols = []
    for v in vectors:
        lifted = [as_elem(x, nvars) for x in v]
        if all(x.den.is_one() for x in lifted):
            cols.append([x.num for x in lifted])
        else:
            cols.append(clear_denominators(lifted))
    return cols, nvars


def dvalue(vectors) -> int:
    """Sign invariant of n+1 vectors in dimension n over the ordered field.

    Writes the unique-up-to-scale kernel relation sum lambda_i v_i = 0 via
    lambda_i = (-1)^i det(omit column i); all lambda_i nonzero is exactly
    general position, and the value is their common sign when they agree.
    """
    vectors = list(vectors)
    n = len(vectors) - 1
    if n < 1 or any(len(v) != n for v in vectors):
        raise ValueError("need n+1 vectors of dimension n")
    cols, _ = _poly_columns(vectors)
    signs = []
    for i in range(n + 1):
        sub = cols[:i] + cols[i + 1:]
        d = det_mpoly_columns(sub)
        s = sign_mpoly(d)
        if s == 0:
            raise GeneralPositionViolation(
                f"vectors omitting index {i} are linearly dependent"
            )
        signs.append(s if i % 2 == 0 else -s)
    first = signs[0]
    if all(s == first for s in signs):
        return first
    return 0


def cvalue(basis, w) -> int:
    """Signed indicator of the open cone of a basis, evaluated at w.

    Solves V x = w by Cramer sign tests; returns sign det V when every
    coordinate is positive, else 0.
    """
    basis = list(basis)
    n = len(basis)
    if any(len(v) != n for v in basis) or len(w) != n:
        raise ValueError("need n independent vectors and a vector of dimension n")
    cols, _ = _poly_columns(list(basis) + [list(w)])
    wcol = cols[-1]
    cols = cols[:-1]
    d = det_mpoly_columns(cols)
    s = sign_mpoly(d)
    if s == 0:
        raise SingularBasis("basis vectors are linearly dependent")
    for i in range(n):
        repl = cols[:i] + [wcol] + cols[i + 1:]
        if sign_mpoly(det_mpoly_columns(repl)) != s:
            return 0
    return s


def cofactor_form_reference(cols, slot):
    """Row slot of the adjugate by Laplace expansion along the inserted
    column: entry r is (-1)^(r + slot) times the minor of the n - 1
    columns without row r.  The oracle for ``linalg.cofactor_form`` at
    n >= 4, which reads the whole row from one elimination."""
    n = len(cols) + 1
    return tuple(
        (-1) ** (row + slot)
        * int_det([[c[r] for c in cols] for r in range(n) if r != row])
        for row in range(n)
    )


def cramer_forms_reference(cols, slot):
    """Cramer forms of one slot of the integer kernel by their definition:
    the form of exponent vector k (k_slot = 0) has entry r equal to the
    integer determinant with column j = cols[j][k_j] and the unit vector
    e_r at the slot; primitive, zero forms dropped, sorted by the exponent
    order (the highest slot compared first).  The oracle for
    ``cocycle_core._cramer_forms``, which builds the same list in order
    from closed-form cofactors."""
    n = len(cols)
    others = [j for j in range(n) if j != slot]
    by_exp = {}
    for ks in product(range(n), repeat=n - 1):
        picked = dict(zip(others, (cols[j][k] for j, k in zip(others, ks))))
        form = []
        for r in range(n):
            unit = tuple(int(i == r) for i in range(n))
            columns = [picked.get(j, unit) for j in range(n)]
            form.append(int_det(list(zip(*columns))))
        g = gcd(*form)
        if g:
            exp = [0] * n
            for j, k in zip(others, ks):
                exp[j] = k
            by_exp[tuple(exp)] = tuple(v // g for v in form)
    return tuple(by_exp[e] for e in sorted(by_exp, key=lambda e: e[::-1]))


def decompose_region_reference(n, int_lists, target):
    """The fan refinement of ``cone_algebra._decompose_region`` with every
    piece, split ones too, read from the first list: the same pieces in
    the same order, with no claim about lists a piece inherits."""
    work = list(_start_pieces(n))
    kept = []
    while work:
        gens = work.pop()
        for forms in int_lists:
            s, form = first_nonzero_sign(forms, gens)
            if s is None:
                work.extend(_split_piece(gens, form))
            if s != target:
                break
        else:
            kept.append(gens)
    return kept


def _check_matrices(alphas):
    """Coerce to square rational matrices of a common size and reject
    singular ones."""
    mats = [tuple(tuple(frac(x) for x in row) for row in a) for a in alphas]
    _integer_columns(mats)
    return mats


# ---------------------------------------------------------------------------
# Rational matrices
# ---------------------------------------------------------------------------

def identity(n: int):
    return tuple(
        tuple(Fraction(1) if i == j else Fraction(0) for j in range(n)) for i in range(n)
    )


def dot(u, v) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def mat_vec(m, v):
    return tuple(dot(row, v) for row in m)


def mat_det(m) -> Fraction:
    """Determinant by Gaussian elimination over the rationals, the oracle
    for the integer ``linalg.int_det``."""
    n = len(m)
    a = [[frac(x) for x in row] for row in m]
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


def mat_mul(a, b):
    """Product of two rational matrices given as row tuples."""
    cols = list(zip(*b))
    return tuple(tuple(dot(row, col) for col in cols) for row in a)


def gauss_jordan_oracle(cols, w):
    """Rational Gauss-Jordan solve of sum_i x_i * cols[i] = w (each pivot
    row normalised to 1), the oracle for the integer linalg.solve_columns:
    x as a list of Fractions, None when w is outside the span,
    SingularMatrix when the columns are dependent.  Entries are coerced
    by frac, so floats and bools raise TypeError."""
    return gauss_jordan_solve(cols, [w])[0]


def gauss_jordan_solve(cols, rhs):
    """gauss_jordan_oracle for every right-hand side w in rhs, in one
    elimination over [cols | rhs]: one x (or None) per w."""
    n = len(rhs[0]) if rhs else 0
    r = len(cols)
    a = [[frac(cols[j][i]) for j in range(r)] + [frac(w[i]) for w in rhs] for i in range(n)]
    row = 0
    pivots = []
    for col in range(r):
        piv = next((k for k in range(row, n) if a[k][col] != 0), None)
        if piv is None:
            raise SingularMatrix("columns are linearly dependent")
        a[row], a[piv] = a[piv], a[row]
        inv = 1 / a[row][col]
        a[row] = [x * inv if x else x for x in a[row]]
        for k in range(n):
            if k != row and a[k][col] != 0:
                f = a[k][col]
                a[k] = [x - f * y if y else x for x, y in zip(a[k], a[row])]
        pivots.append(row)
        row += 1
    return [None if any(a[k][r + b] != 0 for k in range(row, n))
            else [a[pivots[col]][r + b] for col in range(r)] for b in range(len(rhs))]


def mat_inv(m):
    """Inverse of a square rational matrix, one Gauss-Jordan elimination
    over [m | I]; float and bool entries raise TypeError, dependent
    columns SingularMatrix."""
    return tuple(zip(*gauss_jordan_solve(list(zip(*m)), identity(len(m)))))


# ---------------------------------------------------------------------------
# Dimension 2: reference cocycle with half-weighted boundaries, the
# half-ray coboundary function, and the closed forms
# ---------------------------------------------------------------------------

def solomon_s(alpha, beta, w) -> Fraction:
    """Half-open cone cocycle on invertible 2x2 rational matrices: the
    signed indicator of the cone spanned by the two first columns, with
    weight 1/2 on the boundary rays and 0 when they are dependent."""
    alpha, beta = _check_matrices([alpha, beta])
    w = [frac(x) for x in w]
    if all(x == 0 for x in w):
        raise ZeroVector("evaluation point must be nonzero")
    u = (alpha[0][0], alpha[1][0])
    v = (beta[0][0], beta[1][0])
    det = u[0] * v[1] - u[1] * v[0]
    if det == 0:
        return Fraction(0)
    x = (w[0] * v[1] - w[1] * v[0]) / det
    y = (u[0] * w[1] - u[1] * w[0]) / det
    if x > 0 and y > 0:
        return Fraction(rsign(det))
    if x >= 0 and y >= 0:
        return Fraction(rsign(det), 2)
    return Fraction(0)


def coboundary_tau_half(w) -> Fraction:
    """1/2 on the positive x-axis, 0 elsewhere."""
    x, y = (frac(v) for v in w)
    if x == 0 and y == 0:
        raise ZeroVector("evaluation point must be nonzero")
    return Fraction(1, 2) if (y == 0 and x > 0) else Fraction(0)


def tau_transport(alpha, w) -> Fraction:
    """Signed pullback sign(det) * tau(alpha^(-1) w) of the half-ray
    function along an invertible matrix."""
    (alpha,) = _check_matrices([alpha])
    s = rsign(mat_det(alpha))
    return s * coboundary_tau_half(mat_vec(mat_inv(alpha), [frac(x) for x in w]))


def closed_form_sigma_n2(alpha, w) -> int:
    """Case-by-case closed form for the cocycle paired with the identity
    in dimension 2; serves as an independent oracle for ``sigma_eval``.

    For upper triangular input the four sign cases of the diagonal decide.
    Otherwise the matrix factors through a row swap and a shear, and the
    four sign cases of (a, c) below decide, where c is the lower left
    entry and a = alpha[0][1] - alpha[0][0] * alpha[1][1] / c.

    Note: in the (a < 0, c > 0) case of the swap factorization the support
    is {y > 0 and c x - b y >= 0}; the >= on the internal boundary ray is
    forced by direct evaluation of the defining formula (the boundary ray
    belongs to the half-open fundamental cone).
    """
    (alpha,) = _check_matrices([alpha])
    x, y = (frac(v) for v in w)
    if x == 0 and y == 0:
        raise ZeroVector("evaluation point must be nonzero")
    if alpha[1][0] == 0:
        a, b, c = alpha[0][0], alpha[0][1], alpha[1][1]
        if a == 0 or c == 0:
            raise CaseDecompositionFailure("triangular factor is singular")
        if a > 0 and c > 0:
            return 0
        if a > 0 and c < 0:
            return -1 if (y == 0 and x > 0) else 0
        if a < 0 and c > 0:
            return 1 if y > 0 else 0
        return 1 if (y > 0 or (y == 0 and x < 0)) else 0
    c = alpha[1][0]
    b = alpha[0][0]
    d = alpha[1][1] / c
    a = alpha[0][1] - b * d
    if a == 0:
        raise CaseDecompositionFailure("swap factor is singular")
    t = c * x - b * y
    if a > 0 and c > 0:
        return 1 if (y > 0 and t > 0) else 0
    if a > 0 and c < 0:
        return -1 if (y <= 0 and t < 0) else 0
    if a < 0 and c > 0:
        return 1 if (y > 0 and t >= 0) else 0
    return -1 if (y <= 0 and t <= 0) else 0


# ---------------------------------------------------------------------------
# Bernoulli numbers
# ---------------------------------------------------------------------------

def bernoulli_numbers_reference(n: int) -> list[Fraction]:
    """B_0 .. B_n from the defining recurrence sum_{j=0}^{k} C(k+1, j) B_j
    = 0 for k >= 1, in Fractions: the oracle for the tangent-number route
    of bernoulli_number."""
    values = [Fraction(1)]
    for k in range(1, n + 1):
        values.append(Fraction(-sum(comb(k + 1, j) * values[j] for j in range(k)), k + 1))
    return values


# ---------------------------------------------------------------------------
# Cyclotomic polynomials and ring inverses
# ---------------------------------------------------------------------------

def _poly_divmod_int(num, den):
    """Division of integer coefficient lists (little-endian), exact use only."""
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for k in range(len(q) - 1, -1, -1):
        c, r = divmod(num[k + len(den) - 1], den[-1])
        q[k] = c
        for i, d in enumerate(den):
            num[k + i] -= c * d
    return q, num[: len(den) - 1]


@cache
def cyclotomic_poly_reference(m: int) -> tuple[int, ...]:
    """Coefficients of Phi_m (little-endian), by dividing x^m - 1 by the
    cyclotomic polynomials of the proper divisors of m."""
    poly = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            poly, rem = _poly_divmod_int(poly, cyclotomic_poly_reference(d))
            if any(rem):
                raise ShintaniError("cyclotomic division failed")
    return tuple(poly)


def coeff_inv(x: CoeffElem) -> CoeffElem:
    """Multiplicative inverse: 1/c for a rational c, otherwise the solution
    y of x * y = 1 over the rational basis.  Raises ZeroDivisionError if x
    is not a unit."""
    ring = x.ring
    if x.is_rational():
        return ring.from_rat(1 / x.rational_part())
    basis = ring.basis()
    cols = []
    for b in basis:
        prod = x * CoeffElem(ring, {b: Fraction(1)})
        cols.append([prod.coeffs.get(k, Fraction(0)) for k in basis])
    try:
        y = gauss_jordan_oracle(cols, [Fraction(b == (0, 0)) for b in basis])
    except SingularMatrix:
        raise ZeroDivisionError("element is not invertible in the ring")
    return CoeffElem(ring, {b: c for b, c in zip(basis, y) if c})


def coeff_pow(x: CoeffElem, k: int) -> CoeffElem:
    """x^k by repeated squaring; a negative k inverts x first."""
    if k < 0:
        return coeff_pow(coeff_inv(x), -k)
    out = x.ring.one()
    while k:
        if k & 1:
            out = out * x
        x = x * x
        k >>= 1
    return out


# ---------------------------------------------------------------------------
# Series oracles for the pairing
# ---------------------------------------------------------------------------

def _const(ring, nvars, trunc, c) -> MSeries:
    return MSeries(ring, nvars, trunc, {(0,) * nvars: ring.coerce(c)})


def _linear_form(ring, nvars, trunc, vec) -> MSeries:
    return MSeries(ring, nvars, trunc, {
        tuple(int(i == j) for j in range(nvars)): ring.coerce(c)
        for i, c in enumerate(vec)
    })


def series_add(a: MSeries, b: MSeries) -> MSeries:
    """The sum of two series, truncated at the smaller truncation."""
    if not a.ring.same(b.ring):
        raise ShintaniError("mixed series rings")
    trunc = min(a.trunc, b.trunc)
    out = dict(a.terms)
    for e, c in b.terms.items():
        out[e] = out[e] + c if e in out else c
    return MSeries(a.ring, a.nvars, trunc, out)


def series_scale(a: MSeries, c) -> MSeries:
    """The series times a ring element or rational c."""
    c = a.ring.coerce(c)
    return MSeries(a.ring, a.nvars, a.trunc, {e: v * c for e, v in a.terms.items()})


def series_mul_linear(a: MSeries, vec) -> MSeries:
    """The series times the linear form v.z, exact one degree further
    since the form has no constant term."""
    out = {}
    for e1, c1 in a.terms.items():
        for i, x in enumerate(vec):
            if x:
                e = e1[:i] + (e1[i] + 1,) + e1[i + 1:]
                out[e] = out[e] + c1 * x if e in out else c1 * x
    return MSeries(a.ring, a.nvars, a.trunc + 1, out)


def series_product(a: MSeries, b: MSeries) -> MSeries:
    """The truncated product of two series, term by term: every pair of
    terms whose degrees sum to at most the smaller truncation."""
    trunc = min(a.trunc, b.trunc)
    out = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            if sum(e1) + sum(e2) <= trunc:
                e = tuple(x + y for x, y in zip(e1, e2))
                out[e] = out[e] + c1 * c2 if e in out else c1 * c2
    return MSeries(a.ring, a.nvars, trunc, out)


def exp_series(ring, nvars, trunc, vec) -> MSeries:
    """exp(v.z) truncated: sum_k (v.z)^k / k!; the tests' oracle for the
    exponential sums of exp_sum and pair_cone."""
    lin = _linear_form(ring, nvars, trunc, vec)
    acc = _const(ring, nvars, trunc, 1)
    term = _const(ring, nvars, trunc, 1)
    for k in range(1, trunc + 1):
        term = series_scale(series_product(term, lin), Fraction(1, k))
        if not term.terms:
            break
        acc = series_add(acc, term)
    return acc


def g_series(ring, nvars, trunc, vec) -> MSeries:
    """g(v.z) = (v.z) / (exp(v.z) - 1) = sum_m B_m (v.z)^m / m! truncated;
    the tests' oracle for the integer g-product of pair_cone."""
    lin = _linear_form(ring, nvars, trunc, vec)
    acc = _const(ring, nvars, trunc, bernoulli_number(0))
    power = _const(ring, nvars, trunc, 1)
    for m in range(1, trunc + 1):
        power = series_scale(series_product(power, lin), Fraction(1, m))
        if not power.terms:
            break
        b = bernoulli_number(m)
        if b:
            acc = series_add(acc, series_scale(power, b))
    return acc


def one_minus_exp(ring, nvars, trunc, vec) -> MSeries:
    return series_add(_const(ring, nvars, trunc, 1), series_scale(exp_series(ring, nvars, trunc, vec), -1))


def quot_equal_as_laurent(q1: QuotSeries, q2: QuotSeries) -> bool:
    """Whether two quotient series represent the same Laurent expansion up
    to the smaller tracked degree."""
    s = q1 + q2.scale(-1)
    return s.is_zero_series()


def reduce_to_power_series_reference(q: QuotSeries) -> MSeries:
    """reduce_to_power_series in ring arithmetic: the numerator divided by
    each denominator form in turn with a Fraction pivot, the first nonzero
    entry p, the largest monomial first; NotDivisible at the first
    monomial free of the pivot variable."""
    num = q.num
    ring = num.ring
    for form in q.denoms:
        pivot = next(j for j, c in enumerate(form) if c)
        inv = Fraction(1, form[pivot])
        rem = dict(num.terms)
        quo = {}
        while rem:
            e = max(rem)
            c = rem.pop(e)
            if e[pivot] == 0:
                raise NotDivisible(f"pole survives along form {form} at monomial {e}", form=form)
            qe = e[:pivot] + (e[pivot] - 1,) + e[pivot + 1:]
            quo[qe] = qc = c * inv
            for j, a in enumerate(form):
                if a and j != pivot:
                    ee = qe[:j] + (qe[j] + 1,) + qe[j + 1:]
                    rest = rem.get(ee, ring.zero()) - qc * a
                    if rest:
                        rem[ee] = rest
                    else:
                        rem.pop(ee, None)
        num = MSeries(ring, num.nvars, num.trunc - 1, quo)
    return num


def exp_sum(ring, nvars, trunc, weighted) -> MSeries:
    """sum_p c_p exp(p.z) truncated, over (rational point p, value c_p)
    pairs, with each point d p its own group, d the lcm of the point
    denominators."""
    weighted = [(ring.coerce(c), [frac(x) for x in p]) for p, c in weighted]
    den = lcm(*(x.denominator for _, p in weighted for x in p))
    groups = [(c, [[x.numerator * (den // x.denominator) for x in p]]) for c, p in weighted]
    den, terms = _numerator(ring, nvars, trunc, den, groups)
    return MSeries(ring, nvars, trunc, {e: ring.from_ints(v, den) for e, v in terms.items()})


def phi_map(A, dmax: int, ring: CoeffRing | None = None, nvars: int | None = None) -> QuotSeries:
    """Exponential generating map of a finite-support function:
    sum_w A(w) exp(w.z), a quotient series with trivial denominator, read
    from the power sums of exp_sum over the lcm of the point denominators."""
    if ring is None:
        ring = QQ
    if nvars is None:
        if not A:
            raise ValueError("cannot infer dimension from empty support")
        nvars = len(next(iter(A)))
    return QuotSeries(exp_sum(ring, nvars, dmax, A.items()))


def translate(A, v):
    """Group-ring translation of a finite-support function: ([v]A)(w) = A(w-v)."""
    return {tuple(a + b for a, b in zip(w, v)): c for w, c in A.items()}


# ---------------------------------------------------------------------------
# Symmetric Laurent extraction in ring arithmetic
# ---------------------------------------------------------------------------

def _series_inverse_coeffs(coeffs, order: int, ring: CoeffRing):
    """Inverse of a one-variable polynomial with invertible constant term,
    as a coefficient list up to the given order."""
    c0 = coeffs[0] if coeffs else ring.zero()
    if not c0:
        raise ZeroDivisionError("constant term vanishes")
    inv0 = coeff_inv(c0)
    out = [inv0]
    for k in range(1, order + 1):
        acc = ring.zero()
        for j in range(1, min(k, len(coeffs) - 1) + 1):
            acc = acc + coeffs[j] * out[k - j]
        out.append(-(inv0 * acc))
    return out


def _iterated_coeff(num: MSeries, forms, main: int, m_main: int, m_other: int):
    """Coefficient of t_main^m_main t_other^m_other of num / prod(forms) in
    the expansion that treats t_other as infinitesimally smaller than
    t_main, forms being pairs of ring elements."""
    ring = num.ring
    other = 1 - main
    k = m_main + m_other + len(forms)
    # numerator slice restricted to t_main = 1: polynomial in v = t_other
    pcoeffs = [ring.zero()] * (k + 1)
    for e, c in num.terms.items():
        if sum(e) == k:
            pcoeffs[e[other]] = pcoeffs[e[other]] + c
    extra_v = 0
    const_prod = ring.one()
    qcoeffs = [ring.one()]
    for form in forms:
        a, b = form[main], form[other]
        if not a:
            extra_v += 1
            const_prod = const_prod * b
        else:
            qcoeffs = [
                (qcoeffs[i] * a if i < len(qcoeffs) else ring.zero())
                + (qcoeffs[i - 1] * b if i >= 1 else ring.zero())
                for i in range(len(qcoeffs) + 1)
            ]
    target = m_other + extra_v
    inv = _series_inverse_coeffs(qcoeffs, target, ring)
    acc = ring.zero()
    for j in range(min(target, len(pcoeffs) - 1) + 1):
        acc = acc + pcoeffs[j] * inv[target - j]
    return acc * coeff_inv(const_prod)


def symmetric_laurent_coeff_reference(q: QuotSeries, m1: int, m2: int, images):
    """symmetric_laurent_coeff in ring arithmetic: the whole numerator is
    substituted by MSeries.substitute_linear, each integer form v becomes
    T^t v by CoeffElem products, and the result is the average of the two
    iterated-Laurent extractions, each with the inverse series of the
    denominator product computed in CoeffElem arithmetic (coeff_inv for
    the constant terms)."""
    if q.nvars != 2:
        raise ValueError("two-variable extraction only")
    if m1 + m2 > q.dmax:
        raise TruncationTooSmall(
            f"coefficient degree {m1 + m2} beyond tracked degree {q.dmax}"
        )
    ring = q.ring
    images = [[ring.coerce(c) for c in img] for img in images]
    forms = [[sum((v_j * img[i] for v_j, img in zip(v, images)), ring.zero())
              for i in range(2)] for v in q.denoms]
    num = q.num.substitute_linear(images)
    a = _iterated_coeff(num, forms, 0, m1, m2)
    b = _iterated_coeff(num, forms, 1, m2, m1)
    return (a + b) * Fraction(1, 2)


# ---------------------------------------------------------------------------
# Base change for real quadratic fields
# ---------------------------------------------------------------------------

def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a/n) for n >= 1: the factors 2 of n by
    (a/2) = 0, 1, -1 for a even, a = +-1 and a = +-3 mod 8, the odd part
    by Jacobi reciprocity."""
    result = 1
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            result = -result
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def field_discriminant(D: int) -> int:
    return D if D % 4 == 1 else 4 * D


def norm_character_schwartz(D: int, chi: DirichletChar) -> SchwartzFn:
    """phi(a + b theta) = chi(N(a + b theta)) on O_K / f, zero on the
    classes whose norm is not prime to f; theta = (1 + sqrt D)/2 when
    D = 1 mod 4, else sqrt D.  Values lie in CoeffRing(m, D)."""
    f = chi.f
    ring = CoeffRing(chi.ring.m, D)
    table = {}
    for a in range(f):
        for b in range(f):
            if D % 4 == 1:
                norm = a * a + a * b - b * b * (D - 1) // 4
            else:
                norm = a * a - D * b * b
            if gcd(norm, f) == 1:
                table[(a, b)] = ring.coerce(chi(norm))
    return SchwartzFn(2, 1, f, table, ring)


def base_change_L(D: int, chi: DirichletChar, r: int):
    """L_K(chi o N, -r) for K = Q(sqrt D) by base change,
    L(chi, -r) L(chi chi_K, -r) with chi_K the Kronecker symbol of the
    field discriminant, both factors from the Bernoulli closed form; the
    product character is taken modulo lcm(f, disc), so every prime of f
    stays removed from both Euler products."""
    disc = field_discriminant(D)
    F = lcm(chi.f, disc)
    twisted = DirichletChar(
        F, {u: chi(u) * kronecker(disc, u) for u in range(F) if gcd(u, F) == 1}, chi.ring)
    return dirichlet_L_closed(chi, r + 1) * dirichlet_L_closed(twisted, r + 1)
