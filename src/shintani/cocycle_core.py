"""Sign invariants of perturbed vector configurations and the cocycle
evaluation built on them.

The two basic invariants, over the ordered field of nested
infinitesimals:

  * ``dvalue(v_0, ..., v_n)``: nonzero exactly when the origin is in the
    interior of the positive hull of the n+1 vectors, in which case it
    equals (-1)^i sign det(v_0, ..., omit v_i, ..., v_n) for every i.
  * ``cvalue(v_1, ..., v_n)(w)``: sign det of the basis when w has all
    positive coordinates in it, else 0 (a signed open-cone indicator).

The cocycle on invertible rational matrices is ``cvalue`` of the moment
columns alpha_i (1, e_i, ..., e_i^(n-1)), one infinitesimal per slot;
the perturbation resolves every degenerate configuration, and the
alternating sum over faces equals the coboundary invariant
``tau_cocycle``.  ``SigmaKernel`` and ``tau_cocycle`` compute these
signs without polynomials: each matrix is first cleared to integers (a
positive scale changes no sign), and by multilinearity the coefficient
of e^k in any of the determinants is the integer determinant of the
columns alpha_j[:, k_j].  So each Cramer numerator is a list of integer
cofactor forms in w, ordered by the exponent order, and every sign is
the first nonzero sign of such a list.  ``CocycleChecker`` clears each
matrix of its tuple once, builds the face kernels from those columns,
reads tau as the alternating sign of their determinants and clears each
point of ``alternating_sum`` once for all its faces; ``tau_cocycle``
is the standalone computation it is tested against.  ``dvalue``,
``cvalue`` and ``moment_vector`` keep the polynomial ordered-field
arithmetic; they take genuine ordered-field inputs and are the reference
the kernel is tested against.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd

from .errors import (
    CaseDecompositionFailure,
    GeneralPositionViolation,
    SingularBasis,
    SingularMatrix,
    ZeroVector,
)
from .exactnum import MPoly
from .linalg import (
    cofactor_form,
    first_nonzero_sign,
    frac,
    int_det,
    int_scale_point,
    mat_det,
    mat_inv,
    mat_vec,
    sign as rsign,
)
from .ordered_field import (
    as_elem,
    clear_denominators,
    det_mpoly_columns,
    exponent_key,
    infer_nvars,
    sign_mpoly,
)


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


# ---------------------------------------------------------------------------
# Cocycle evaluation
# ---------------------------------------------------------------------------

def _integer_columns(alphas):
    """Columns of each matrix after clearing it to integers, rejecting the
    first matrix in order that is not square of the common size or whose
    cleared columns have determinant 0.  A positive scale of alpha_i
    scales perturbed column i and changes no sign."""
    mats = [tuple(tuple(frac(x) for x in row) for row in a) for a in alphas]
    if not mats:
        raise ValueError("need at least one matrix")
    size = len(mats[0])
    out = []
    for a in mats:
        if len(a) != size or any(len(row) != size for row in a):
            raise ValueError("matrices must all be square of one size")
        flat = int_scale_point([x for row in a for x in row])
        cols = tuple(flat[k::size] for k in range(size))
        if int_det(cols) == 0:
            raise SingularMatrix("matrix argument is singular")
        out.append(cols)
    return out


def _check_matrices(alphas):
    """Coerce to square rational matrices of a common size and reject
    singular ones."""
    mats = [tuple(tuple(frac(x) for x in row) for row in a) for a in alphas]
    _integer_columns(mats)
    return mats


def _cramer_forms(cols, slot):
    """Cramer numerator of one slot as integer cofactor forms in w.

    ``cols[j][k]`` is column k of the integer matrix of slot j.  By
    multilinearity the coefficient of e^k in the determinant with the
    slot's column replaced by w is the plain determinant with column j
    equal to cols[j][k_j]; as a form in w it is the cofactor vector of the
    slot.  Forms come back primitive, zero forms dropped, ordered by the
    infinitesimal exponent order.
    """
    n = len(cols)
    others = [j for j in range(n) if j != slot]
    by_exp = {}
    for ks in product(range(n), repeat=n - 1):
        form = cofactor_form([cols[j][k] for j, k in zip(others, ks)], slot)
        g = gcd(*form)
        if g:
            exp = [0] * n
            for j, k in zip(others, ks):
                exp[j] = k
            by_exp[tuple(exp)] = tuple(v // g for v in form)
    return tuple(by_exp[e] for e in sorted(by_exp, key=exponent_key))


def _det_sign(cols, last_forms):
    """Sign of the perturbed determinant, given the Cramer forms of the
    last slot.  Its coefficient at e^k is the last slot's form for the
    other exponents at column k_last of the last matrix; the last slot is
    the most significant infinitesimal, so its columns are scanned first."""
    for col in cols[-1]:
        s = first_nonzero_sign(last_forms, col)
        if s:
            return s
    return 0


class SigmaKernel:
    """Prepared evaluator for one tuple of invertible rational matrices.

    Column i of the symbolic matrix is alpha_i applied to the moment
    vector of infinitesimal slot i.  The kernel keeps the sign of its
    determinant and, per slot, the integer cofactor forms of the Cramer
    numerator; the value at w is the determinant sign when every slot's
    form list has that first nonzero sign at w, else 0.  A caller holding
    the ``_integer_columns`` output passes it as ``columns`` instead.
    """

    def __init__(self, alphas=None, *, columns=None):
        cols = _integer_columns(alphas) if columns is None else columns
        n = len(cols)
        if len(cols[0]) != n:
            raise ValueError("need n matrices of size n x n")
        self.n = n
        self.forms = tuple(_cramer_forms(cols, i) for i in range(n))
        self.det_sign = _det_sign(cols, self.forms[-1])
        if self.det_sign == 0:
            raise SingularMatrix("perturbed column matrix is singular")

    def eval(self, w) -> int:
        w = int_scale_point(w)
        if len(w) != self.n:
            raise ValueError("point dimension mismatch")
        if not any(w):
            raise ZeroVector("evaluation point must be nonzero")
        for forms in self.forms:
            if first_nonzero_sign(forms, w) != self.det_sign:
                return 0
        return self.det_sign


def sigma_eval(alphas, w) -> int:
    """Value at w of the cocycle evaluated on n invertible rational
    matrices; always defined for w != 0."""
    return SigmaKernel(alphas).eval(w)


def sigma_function(alphas):
    """The same cocycle value as a reusable point function."""
    kernel = SigmaKernel(alphas)
    return kernel.eval


def tau_cocycle(alphas) -> int:
    """Coboundary invariant of n+1 invertible matrices: the d-invariant of
    the n+1 perturbed columns, each carrying its own infinitesimal.  The
    minor omitting column i keeps the relative order of the remaining
    infinitesimals, so its sign is that of an n-slot kernel determinant."""
    cols = _integer_columns(alphas)
    m = len(cols)
    n = m - 1
    if n < 1 or len(cols[0]) != n:
        raise ValueError("need n+1 matrices of size n x n")
    signs = []
    for i in range(m):
        sub = cols[:i] + cols[i + 1:]
        s = _det_sign(sub, _cramer_forms(sub, n - 1))
        if s == 0:
            raise SingularMatrix("perturbed configuration degenerated")
        signs.append(s if i % 2 == 0 else -s)
    first = signs[0]
    return first if all(s == first for s in signs) else 0


class CocycleChecker:
    """Caches the face evaluators of an (n+1)-tuple so the alternating-sum
    identity can be tested at many points cheaply; tau is read from them."""

    def __init__(self, alphas):
        cols = _integer_columns(alphas)
        if len(cols) < 2 or len(cols[0]) != len(cols) - 1:
            raise ValueError("need n+1 matrices of size n x n")
        self.kernels = [SigmaKernel(columns=cols[:i] + cols[i + 1:]) for i in range(len(cols))]
        signs = [k.det_sign if i % 2 == 0 else -k.det_sign for i, k in enumerate(self.kernels)]
        self.tau = signs[0] if all(s == signs[0] for s in signs) else 0

    def alternating_sum(self, w) -> int:
        w = int_scale_point(w)  # cleared once; each face kernel keeps the int tuple
        total = 0
        for i, k in enumerate(self.kernels):
            v = k.eval(w)
            total += v if i % 2 == 0 else -v
        return total

    def holds_at(self, w) -> bool:
        return self.alternating_sum(w) == self.tau


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
