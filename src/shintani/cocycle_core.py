"""The cocycle on invertible rational matrices, computed in integers.

The cocycle is the signed open-cone indicator of the moment columns
alpha_i (1, e_i, ..., e_i^(n-1)), one infinitesimal per slot, over the
ordered field of nested infinitesimals; the perturbation resolves every
degenerate configuration, and the alternating sum over faces equals the
coboundary invariant ``tau_cocycle``.  ``SigmaKernel`` computes these
signs without polynomials: each matrix is first cleared to integers (a
positive scale changes no sign), and by multilinearity the coefficient of
e^k in any of the determinants is the integer determinant of the columns
alpha_j[:, k_j].  So each Cramer numerator is a list of integer cofactor
forms in w in the exponent order (compare the highest index first), which
``_cramer_walk`` emits in that order with no sort, and every sign is the
first nonzero sign of such a list, read by ``linalg.first_nonzero_sign``
on the one-generator cone (w,).  For n <= 3 each cofactor form is a closed
form (``linalg.cofactor_form``).
A sign needs a form only when every form before it vanishes, and the
first form nearly always decides, so a kernel builds each slot's list on
demand: a built prefix, extended from the slot's walk by ``_lazy_sign``
only while every built form vanishes on the cone read.  A list is built
in full only when a caller reads ``SigmaKernel.forms``, as the fan
decomposition does.
``CocycleChecker`` clears each matrix of its tuple once, builds the face
kernels from those columns, reads tau as the alternating sign of their
determinants and clears each point of ``alternating_sum`` once for all
its faces; ``tau_cocycle`` reads the same alternating sign from each
face's last slot alone, the only forms a determinant sign needs.  A
caller evaluating the face kernels one by one at one tuple of Fractions
also clears it once: ``linalg.int_scale_point`` remembers the last such
tuple.  The ordered-field definition itself lives with the tests, as the
reference the kernel and tau must reproduce.
"""

from __future__ import annotations

from itertools import product
from math import gcd

from .errors import SingularMatrix, ZeroVector
from .linalg import cofactor_form, first_nonzero_sign, frac, int_det, int_rows, int_scale_point


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
        rows = int_rows(a)
        if int_det(rows) == 0:
            raise SingularMatrix("matrix argument is singular")
        out.append(tuple(zip(*rows)))
    return out


def _cramer_walk(cols, slot):
    """Cramer numerator of one slot as integer cofactor forms in w, one at
    a time.

    ``cols[j][k]`` is column k of the integer matrix of slot j.  By
    multilinearity the coefficient of e^k in the determinant with the
    slot's column replaced by w is the plain determinant with column j
    equal to cols[j][k_j]; as a form in w it is the cofactor vector of the
    slot, in closed form for n <= 3.  The other slots' columns are walked
    with the highest slot varying slowest, so the forms come out in the
    infinitesimal exponent order with no sort; each is made primitive (a
    primitive cofactor tuple is kept as it is) and zero forms are dropped.
    The generator holds only the columns and the slot.
    """
    others = [cols[j] for j in range(len(cols)) if j != slot]
    for picked in product(*reversed(others)):
        form = cofactor_form(picked[::-1], slot)
        g = gcd(*form)
        if g == 1:
            yield form
        elif g:
            yield tuple(v // g for v in form)


def _lazy_sign(built, rest, gens):
    """``first_nonzero_sign`` of the form list built + rest on the open cone
    of gens.  The built prefix is read first; only while every form read
    vanishes on the cone is the next form taken from the iterator rest and
    appended to built, so later reads reuse it."""
    found = first_nonzero_sign(built, gens) if built else (0, None)
    if found[0] == 0:
        for form in rest:
            built.append(form)
            found = first_nonzero_sign((form,), gens)
            if found[0] != 0:
                break
    return found


def _det_sign(cols, built, rest):
    """Sign of the perturbed determinant, given the last slot's Cramer list
    as a built prefix and the rest of its walk (``_lazy_sign``).  Its
    coefficient at e^k is the last slot's form for the other exponents at
    column k_last of the last matrix; the last slot is the most
    significant infinitesimal, so its columns are scanned first.  Raises
    SingularMatrix when every coefficient vanishes."""
    for col in cols[-1]:
        s = _lazy_sign(built, rest, (col,))[0]
        if s:
            return s
    raise SingularMatrix("perturbed column matrix is singular")


class SigmaKernel:
    """Prepared evaluator for one tuple of invertible rational matrices.

    Column i of the symbolic matrix is alpha_i applied to the moment
    vector of infinitesimal slot i.  The kernel keeps the sign of its
    determinant and, per slot, the integer cofactor forms of the Cramer
    numerator; the value at w is the determinant sign when every slot's
    form list has that first nonzero sign at w, else 0.  Each slot's list
    is held as the prefix built so far and the rest of its walk, and a
    read builds further forms only while every built form vanishes at the
    point (``_lazy_sign``); ``forms`` builds every list in full on first
    access and is then a tuple of tuples.  A caller holding the
    ``_integer_columns`` output passes it as ``columns`` instead.
    """

    def __init__(self, alphas=None, *, columns=None):
        cols = _integer_columns(alphas) if columns is None else columns
        n = len(cols)
        if len(cols[0]) != n:
            raise ValueError("need n matrices of size n x n")
        self.n = n
        self._slots = [([], _cramer_walk(cols, i)) for i in range(n)]
        self._forms = None
        self.det_sign = _det_sign(cols, *self._slots[-1])

    @property
    def forms(self):
        """Every slot's Cramer list in full, as a tuple of tuples."""
        if self._forms is None:
            for built, rest in self._slots:
                built.extend(rest)
            self._forms = tuple([tuple(built) for built, _ in self._slots])
        return self._forms

    def eval(self, w) -> int:
        w = int_scale_point(w)
        if len(w) != self.n:
            raise ValueError("point dimension mismatch")
        if not any(w):
            raise ZeroVector("evaluation point must be nonzero")
        point = (w,)
        for built, rest in self._slots:
            s = first_nonzero_sign(built, point)[0]
            if not s:
                s = _lazy_sign(built, rest, point)[0]
            if s != self.det_sign:
                return 0
        return self.det_sign


def sigma_eval(alphas, w) -> int:
    """Value at w of the cocycle evaluated on n invertible rational
    matrices; always defined for w != 0."""
    return SigmaKernel(alphas).eval(w)


def _faces(alphas):
    """Integer columns of the n+1 faces of n+1 matrices of size n, face i
    omitting matrix i; each matrix is checked and cleared once."""
    cols = _integer_columns(alphas)
    if len(cols) < 2 or len(cols[0]) != len(cols) - 1:
        raise ValueError("need n+1 matrices of size n x n")
    return [cols[:i] + cols[i + 1:] for i in range(len(cols))]


def _alternating_sign(det_signs):
    """tau from the determinant signs of the faces in order: the common
    value of (-1)^i times sign i, or 0 when these differ."""
    signs = [s if i % 2 == 0 else -s for i, s in enumerate(det_signs)]
    return signs[0] if all(s == signs[0] for s in signs) else 0


class CocycleChecker:
    """Caches the face evaluators of an (n+1)-tuple so the alternating-sum
    identity can be tested at many points cheaply; tau is read from them."""

    def __init__(self, alphas):
        self.kernels = [SigmaKernel(columns=face) for face in _faces(alphas)]
        self.tau = _alternating_sign(k.det_sign for k in self.kernels)

    def alternating_sum(self, w) -> int:
        w = int_scale_point(w)  # cleared once; each face kernel keeps the int tuple
        total = 0
        for i, k in enumerate(self.kernels):
            v = k.eval(w)
            total += v if i % 2 == 0 else -v
        return total

    def holds_at(self, w) -> bool:
        return self.alternating_sum(w) == self.tau


def tau_cocycle(alphas) -> int:
    """Coboundary invariant of n+1 invertible matrices: the d-invariant of
    the n+1 perturbed columns, each carrying its own infinitesimal.  The
    minor omitting column i keeps the relative order of the remaining
    infinitesimals, so its sign is that of face kernel i's determinant,
    read here from the face's last slot alone; ``CocycleChecker`` reads
    the same signs from its full face kernels."""
    return _alternating_sign(
        _det_sign(face, [], _cramer_walk(face, len(face) - 1)) for face in _faces(alphas)
    )
