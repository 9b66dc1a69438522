"""Pairing of cone combos with arithmetic test functions into quotient
series.

A test function is given by a support lattice (1/d)Z^n, a period lattice
f Z^n and a finite residue table.  Pairing an open simplicial cone against
it produces a quotient series: a truncated multivariate power series
numerator over a multiset of linear denominator forms v.z, where

    1 / (1 - exp(v.z)) = - g(v.z) / (v.z),
    g(t) = t / (exp(t) - 1) = sum_m B_m t^m / m!,

so the numerator collects the parallelotope exponential sum times the
product of the g factors, with the pole data carried exactly by the
denominator multiset.  The exponential sum is read from integer power sums:
its z^e coefficient is (1/e!) sum_p phi(p) p^e, and the points with one
test-function value share one moment sum (d p)^e per exponent, so each
(value, exponent) costs one coefficient product.  All coefficients of the
represented Laurent expansion up to the tracked degree are exact.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import product
from math import ceil, factorial, floor, lcm, prod

from .cone_algebra import ConeCombo, OpenSimplicialCone
from .errors import (
    ConstantAgainstNonVanishing,
    NotDivisible,
    ShintaniError,
    TruncationTooSmall,
    ZeroForm,
)
from .exactnum import CoeffElem, CoeffRing, QQ, bernoulli_number
from .linalg import frac, solve_columns


# ---------------------------------------------------------------------------
# Truncated multivariate power series over a coefficient ring
# ---------------------------------------------------------------------------

class MSeries:
    """Power series in z_1..z_n truncated at a total degree, coefficients
    in a CoeffRing.  Terms of degree above the truncation are dropped by
    every operation; the truncation degree is the reliability bound."""

    __slots__ = ("ring", "nvars", "trunc", "terms")

    def __init__(self, ring: CoeffRing, nvars: int, trunc: int, terms=None):
        self.ring = ring
        self.nvars = nvars
        self.trunc = trunc
        self.terms = {}
        if terms:
            for e, c in terms.items():
                if sum(e) <= trunc and c:
                    self.terms[e] = c

    @classmethod
    def zero(cls, ring, nvars, trunc):
        return cls(ring, nvars, trunc)

    @classmethod
    def const(cls, ring, nvars, trunc, c):
        c = ring.coerce(c)
        t = {(0,) * nvars: c} if c else {}
        return cls(ring, nvars, trunc, t)

    @classmethod
    def linear_form(cls, ring, nvars, trunc, vec):
        terms = {}
        for i, c in enumerate(vec):
            c = ring.coerce(c)
            if c:
                e = [0] * nvars
                e[i] = 1
                terms[tuple(e)] = c
        return cls(ring, nvars, trunc, terms)

    def copy_trunc(self, trunc: int) -> "MSeries":
        return MSeries(self.ring, self.nvars, trunc, self.terms)

    def coeff(self, e) -> CoeffElem:
        return self.terms.get(tuple(e), self.ring.zero())

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "MSeries") -> "MSeries":
        if self.ring is not other.ring and not self.ring.same(other.ring):
            raise ShintaniError("mixed series rings")
        trunc = min(self.trunc, other.trunc)
        out = {e: c for e, c in self.terms.items() if sum(e) <= trunc}
        for e, c in other.terms.items():
            if sum(e) > trunc:
                continue
            s = out.get(e)
            s = c if s is None else s + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        r = MSeries(self.ring, self.nvars, trunc)
        r.terms = out
        return r

    def __neg__(self):
        r = MSeries(self.ring, self.nvars, self.trunc)
        r.terms = {e: -c for e, c in self.terms.items()}
        return r

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "MSeries":
        c = self.ring.coerce(c)
        r = MSeries(self.ring, self.nvars, self.trunc)
        if c:
            r.terms = {e: v * c for e, v in self.terms.items()}
        return r

    def __mul__(self, other: "MSeries") -> "MSeries":
        trunc = min(self.trunc, other.trunc)
        out = {}
        for e1, c1 in self.terms.items():
            d1 = sum(e1)
            if d1 > trunc:
                continue
            for e2, c2 in other.terms.items():
                if d1 + sum(e2) > trunc:
                    continue
                e = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                s = out.get(e)
                s = c if s is None else s + c
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        r = MSeries(self.ring, self.nvars, trunc)
        r.terms = out
        return r

    def mul_exact_linear(self, vec) -> "MSeries":
        """Multiply by the homogeneous polynomial v.z exactly.  Because the
        form has no constant term, every product coefficient through total
        degree trunc+1 only involves stored coefficients, so the returned
        series is reliable one degree further."""
        out = {}
        for e1, c1 in self.terms.items():
            for i, a in enumerate(vec):
                a = self.ring.coerce(a)
                if not a:
                    continue
                e = list(e1)
                e[i] += 1
                e = tuple(e)
                c = c1 * a
                s = out.get(e)
                s = c if s is None else s + c
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        r = MSeries(self.ring, self.nvars, self.trunc + 1)
        r.terms = out
        return r

    def substitute_linear(self, images, new_nvars: int) -> "MSeries":
        """Substitute variable j by the linear form images[j] over a new
        variable list; linearity preserves homogeneous degrees, so the
        truncation bound carries over exactly."""
        ring = self.ring
        lin = [MSeries.linear_form(ring, new_nvars, self.trunc, img)
               for img in images]
        powers = [{0: MSeries.const(ring, new_nvars, self.trunc, 1)} for _ in lin]

        def power(j, k):
            cache = powers[j]
            if k not in cache:
                cache[k] = power(j, k - 1) * lin[j]
            return cache[k]

        acc = MSeries.zero(ring, new_nvars, self.trunc)
        for e, c in self.terms.items():
            term = MSeries.const(ring, new_nvars, self.trunc, c)
            for j, k in enumerate(e):
                if k:
                    term = term * power(j, k)
            acc = acc + term
        return acc

    def __eq__(self, other):
        if not isinstance(other, MSeries):
            return NotImplemented
        t = min(self.trunc, other.trunc)
        a = {e: c for e, c in self.terms.items() if sum(e) <= t}
        b = {e: c for e, c in other.terms.items() if sum(e) <= t}
        if a.keys() != b.keys():
            return False
        return all(a[e] == b[e] for e in a)

    __hash__ = None

    def __repr__(self):
        bits = [f"{c!r}*z^{e}" for e, c in sorted(self.terms.items())]
        return " + ".join(bits) if bits else "0"


def exp_series(ring, nvars, trunc, vec) -> MSeries:
    """exp(v.z) truncated: sum_k (v.z)^k / k!; the tests' oracle for exp_sum."""
    lin = MSeries.linear_form(ring, nvars, trunc, vec)
    acc = MSeries.const(ring, nvars, trunc, 1)
    term = MSeries.const(ring, nvars, trunc, 1)
    for k in range(1, trunc + 1):
        term = (term * lin).scale(Fraction(1, k))
        if term.is_zero():
            break
        acc = acc + term
    return acc


def exp_sum(ring, nvars, trunc, weighted) -> MSeries:
    """sum_p c_p exp(p.z) truncated, over (rational point p, value c_p) pairs.

    The coefficient of z^e is sum_p c_p p^e / e!.  With d the lcm of the
    point denominators, points with equal values share one list of integer
    moments sum (d p)^e, which is put over d^|e| e! once and multiplied into
    their value."""
    groups = {}
    den = 1
    for p, c in weighted:
        c = ring.coerce(c)
        if c:
            p = tuple(frac(x) for x in p)
            for x in p:
                den = lcm(den, x.denominator)
            groups.setdefault(c.key(), (c, []))[1].append(p)
    # exponents |e| <= trunc in lex order; step (i, j) makes the next one
    # from exps[i] by one more power of z_j, so a point's monomials cost one
    # integer product each
    exps = [(0,) * nvars]
    steps = []
    index = {exps[0]: 0}
    for e in product(range(trunc + 1), repeat=nvars):
        if 0 < sum(e) <= trunc:
            j = next(i for i, k in enumerate(e) if k)
            parent = e[:j] + (e[j] - 1,) + e[j + 1:]
            steps.append((index[parent], j))
            index[e] = len(exps)
            exps.append(e)
    scales = [den ** sum(e) * prod(factorial(k) for k in e) for e in exps]
    terms = {}
    for c, pts in groups.values():
        moments = [0] * len(exps)
        for p in pts:
            q = [x.numerator * (den // x.denominator) for x in p]
            mono = [1]
            for parent, j in steps:
                mono.append(mono[parent] * q[j])
            moments = [a + b for a, b in zip(moments, mono)]
        for e, m, s in zip(exps, moments, scales):
            if m:
                t = c * Fraction(m, s)
                old = terms.get(e)
                terms[e] = t if old is None else old + t
    return MSeries(ring, nvars, trunc, terms)


def g_series(ring, nvars, trunc, vec) -> MSeries:
    """g(v.z) = (v.z) / (exp(v.z) - 1) = sum_m B_m (v.z)^m / m! truncated."""
    lin = MSeries.linear_form(ring, nvars, trunc, vec)
    acc = MSeries.const(ring, nvars, trunc, bernoulli_number(0))
    power = MSeries.const(ring, nvars, trunc, 1)
    for m in range(1, trunc + 1):
        power = (power * lin).scale(Fraction(1, m))
        if power.is_zero():
            break
        b = bernoulli_number(m)
        if b:
            acc = acc + power.scale(b)
    return acc


def one_minus_exp(ring, nvars, trunc, vec) -> MSeries:
    return MSeries.const(ring, nvars, trunc, 1) - exp_series(ring, nvars, trunc, vec)


# ---------------------------------------------------------------------------
# Test functions on the finite adeles: lattice data plus a residue table
# ---------------------------------------------------------------------------

class SchwartzFn:
    """Locally constant test function: supported on (1/d)Z^n, invariant
    under translation by f Z^n, given by a finite residue table.

    Table keys are integer tuples k with k = d*w mod d*f; missing keys
    mean value zero.  The function vanishes near zero exactly when the
    zero residue class has value zero.
    """

    def __init__(self, n: int, d: int, f: int, table, ring: CoeffRing | None = None):
        if d < 1 or f < 1:
            raise ValueError("lattice parameters must be positive")
        self.n = n
        self.d = d
        self.f = f
        self.ring = ring if ring is not None else QQ
        mod = d * f
        tbl = {}
        for k, v in table.items():
            k = tuple(int(x) % mod for x in k)
            if len(k) != n:
                raise ValueError("bad residue key length")
            v = self.ring.coerce(v)
            if v:
                tbl[k] = v
        self.table = tbl

    def value_at(self, w) -> CoeffElem:
        mod = self.d * self.f
        key = []
        for x in w:
            x = frac(x) * self.d
            if x.denominator != 1:
                return self.ring.zero()
            key.append(int(x) % mod)
        return self.table.get(tuple(key), self.ring.zero())

    @property
    def vanishes_near_zero(self) -> bool:
        return (0,) * self.n not in self.table

    def add(self, other: "SchwartzFn") -> "SchwartzFn":
        if (self.n, self.d, self.f) != (other.n, other.d, other.f):
            raise ValueError("incompatible lattice data")
        if not self.ring.same(other.ring):
            raise ShintaniError("mixed coefficient rings")
        tbl = dict(self.table)
        for k, v in other.table.items():
            s = tbl.get(k)
            s = v if s is None else s + v
            if s:
                tbl[k] = s
            else:
                tbl.pop(k, None)
        return SchwartzFn(self.n, self.d, self.f, tbl, self.ring)

    def scale(self, c) -> "SchwartzFn":
        return SchwartzFn(
            self.n, self.d, self.f,
            {k: v * c for k, v in self.table.items()}, self.ring,
        )

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "d": self.d,
            "f": self.f,
            "zeta_order": self.ring.m,
            "sqrt": self.ring.D,
            "values": [
                {"class": list(k), "value": _coeff_to_json(v)}
                for k, v in sorted(self.table.items())
            ],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "SchwartzFn":
        ring = CoeffRing(doc.get("zeta_order", 1), doc.get("sqrt"))
        table = {
            tuple(entry["class"]): _coeff_from_json(ring, entry["value"])
            for entry in doc.get("values", [])
        }
        return cls(doc["n"], doc.get("d", 1), doc.get("f", 1), table, ring)


def _coeff_to_json(v: CoeffElem):
    if v.is_rational():
        return str(v.rational_part())
    return [[i, j, str(c)] for (i, j), c in sorted(v.coeffs.items())]


def _coeff_from_json(ring: CoeffRing, doc) -> CoeffElem:
    if isinstance(doc, list):
        return ring.elem({(int(i), int(j)): frac(c) for i, j, c in doc})
    return ring.from_rat(frac(doc))


# ---------------------------------------------------------------------------
# Half-open parallelotope enumeration
# ---------------------------------------------------------------------------

def parallelotope_points(gens, d: int, f: int):
    """Points of the support lattice (1/d)Z^n inside the half-open
    parallelotope {sum x_i g_i : x_i in (0, 1]}, by an exact bounding box
    scan plus a coordinate test.  Generators must lie in f Z^n."""
    gens = [tuple(frac(x) for x in g) for g in gens]
    n = len(gens[0])
    for g in gens:
        for x in g:
            if x.denominator != 1 or x.numerator % f != 0:
                raise ValueError("generators must lie in the period lattice")
    lo = [sum(min(Fraction(0), g[j]) for g in gens) for j in range(n)]
    hi = [sum(max(Fraction(0), g[j]) for g in gens) for j in range(n)]
    ranges = [
        range(ceil(lo[j] * d), floor(hi[j] * d) + 1) for j in range(n)
    ]
    out = []
    for k in product(*ranges):
        p = tuple(Fraction(x, d) for x in k)
        x = solve_columns(gens, p)
        if x is not None and all(0 < c <= 1 for c in x):
            out.append(p)
    out.sort()
    return out


# ---------------------------------------------------------------------------
# Quotient series
# ---------------------------------------------------------------------------

def _form_key(form):
    return tuple(c.key() for c in form)


class QuotSeries:
    """num / prod(v.z over the denominator multiset), with the numerator
    truncated at dmax + len(denoms) so every represented Laurent
    coefficient of total degree <= dmax is exact."""

    __slots__ = ("ring", "nvars", "num", "denoms")

    def __init__(self, num: MSeries, denoms=()):
        self.ring = num.ring
        self.nvars = num.nvars
        forms = []
        for form in denoms:
            form = tuple(self.ring.coerce(c) for c in form)
            if all(not c for c in form):
                raise ZeroForm("zero linear form in denominator")
            forms.append(form)
        forms.sort(key=_form_key)
        self.num = num
        self.denoms = tuple(forms)

    @property
    def dmax(self) -> int:
        return self.num.trunc - len(self.denoms)

    def scale(self, c) -> "QuotSeries":
        return QuotSeries(self.num.scale(c), self.denoms)

    def __add__(self, other: "QuotSeries") -> "QuotSeries":
        """Addition over the least common denominator multiset; the
        tracked degree of the result is the smaller reliable degree."""
        if self.nvars != other.nvars:
            raise ShintaniError("mixed variable counts")
        common = _multiset_union(self.denoms, other.denoms)
        a = _raise_to(self, common)
        b = _raise_to(other, common)
        trunc = min(a.num.trunc, b.num.trunc)
        return QuotSeries(a.num.copy_trunc(trunc) + b.num.copy_trunc(trunc), common)

    def is_zero_series(self) -> bool:
        return self.num.is_zero()

    def to_json(self) -> dict:
        return {
            "nvars": self.nvars,
            "dmax": self.dmax,
            "zeta_order": self.ring.m,
            "sqrt": self.ring.D,
            "denoms": [[_coeff_to_json(c) for c in form] for form in self.denoms],
            "coeffs": [
                {"deg": list(e), "value": _coeff_to_json(c)}
                for e, c in sorted(self.num.terms.items())
            ],
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)


def _multiset_union(d1, d2):
    def count(forms):
        acc = {}
        for f in forms:
            k = _form_key(f)
            acc.setdefault(k, [f, 0])[1] += 1
        return acc

    c1, c2 = count(d1), count(d2)
    out = []
    for k in sorted(set(c1) | set(c2)):
        form, m1 = c1.get(k, (None, 0))
        form2, m2 = c2.get(k, (None, 0))
        out.extend([form or form2] * max(m1, m2))
    return tuple(out)


def _raise_to(q: QuotSeries, common) -> QuotSeries:
    """Multiply the numerator by the denominator forms missing from q."""
    have = {}
    for f in q.denoms:
        have[_form_key(f)] = have.get(_form_key(f), 0) + 1
    num = q.num
    for f in common:
        k = _form_key(f)
        if have.get(k, 0) > 0:
            have[k] -= 1
        else:
            num = num.mul_exact_linear(f)
    return QuotSeries(num, common)


def quot_zero(ring, nvars, dmax) -> QuotSeries:
    return QuotSeries(MSeries.zero(ring, nvars, dmax))


def quot_equal_as_laurent(q1: QuotSeries, q2: QuotSeries) -> bool:
    """Whether two quotient series represent the same Laurent expansion up
    to the smaller tracked degree."""
    s = q1 + q2.scale(-1)
    return s.is_zero_series()


# ---------------------------------------------------------------------------
# The pairing
# ---------------------------------------------------------------------------

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


def pair_cone(cone: OpenSimplicialCone, phi: SchwartzFn, dmax: int) -> QuotSeries:
    """Pairing of one open simplicial cone with a test function.

    Scales each generator into the period lattice (the least multiple of
    a primitive generator in f Z^n is f times it), sums the test function
    against exponentials over the half-open parallelotope of the scaled
    generators (exp_sum: one list of integer power sums per test-function
    value), and multiplies by prod_i (-g(v_i.z) / v_i.z) held as a
    quotient series with denominator multiset {v_i}.
    """
    if cone.ambient != phi.n:
        raise ValueError("cone and test function dimensions differ")
    ring = phi.ring
    r = cone.dim
    scaled = [tuple(phi.f * x for x in g) for g in cone.generators]
    pts = parallelotope_points(scaled, phi.d, phi.f)
    trunc = dmax + r
    acc = exp_sum(ring, phi.n, trunc, ((p, phi.value_at(p)) for p in pts))
    for g in scaled:
        acc = acc * g_series(ring, phi.n, trunc, g)
    if r % 2 == 1:
        acc = -acc
    return QuotSeries(acc, tuple(tuple(ring.from_rat(x) for x in g) for g in scaled))


def pair_combo(combo: ConeCombo, phi: SchwartzFn, dmax: int) -> QuotSeries:
    """Coefficient-weighted pairing of a whole combo: the sum of its cones'
    quotient series, over the max-multiplicity union of their denominator
    forms and exact through total degree dmax.

    A nonzero constant offset requires the test function to vanish near
    zero, in which case the constant pairs to zero.  Cones are processed
    in a deterministic sorted order.
    """
    if combo.constant != 0 and not phi.vanishes_near_zero:
        raise ConstantAgainstNonVanishing(
            "constant offset paired against a test function with phi(0) != 0"
        )
    total = quot_zero(phi.ring, phi.n, dmax)
    for coeff, cone in sorted(combo.terms, key=lambda t: t[1].generators):
        total = total + pair_cone(cone, phi, dmax).scale(coeff)
    return total


# ---------------------------------------------------------------------------
# Exact reduction to an honest power series
# ---------------------------------------------------------------------------

def _divide_by_linear(num: MSeries, form) -> MSeries:
    """Exact polynomial division of the truncated numerator by the linear
    form; when the represented series has a genuine pole the remainder is
    nonzero and NotDivisible is raised."""
    ring = num.ring
    pivot = next((j for j, c in enumerate(form) if c), None)
    if pivot is None:
        raise ZeroForm("zero linear form")
    try:
        pivot_inv = form[pivot].inv()
    except ZeroDivisionError:
        raise NotDivisible("denominator pivot is not invertible", form=form)
    rem = dict(num.terms)
    quo = {}
    while rem:
        e = max(rem)
        c = rem.pop(e)
        if e[pivot] == 0:
            raise NotDivisible(
                f"pole survives along form {form} at monomial {e}", form=form
            )
        qe = list(e)
        qe[pivot] -= 1
        qe = tuple(qe)
        qc = c * pivot_inv
        quo[qe] = quo.get(qe, ring.zero()) + qc
        for j, a in enumerate(form):
            if not a or j == pivot:
                continue
            ee = list(qe)
            ee[j] += 1
            ee = tuple(ee)
            s = rem.get(ee, ring.zero()) - qc * a
            if s:
                rem[ee] = s
            else:
                rem.pop(ee, None)
    out = MSeries(ring, num.nvars, num.trunc - 1)
    out.terms = {e: c for e, c in quo.items() if c and sum(e) <= out.trunc}
    return out


def reduce_to_power_series(q: QuotSeries) -> MSeries:
    """Divide the numerator by every denominator form; the result is an
    honest power series, exact through the tracked degree."""
    num = q.num
    for form in q.denoms:
        num = _divide_by_linear(num, form)
    return num


# ---------------------------------------------------------------------------
# Laurent coefficient extraction
# ---------------------------------------------------------------------------

def laurent_coeff_1var(q: QuotSeries, k: int) -> CoeffElem:
    """Laurent coefficient of z^k of a one-variable quotient series."""
    if q.nvars != 1:
        raise ValueError("one-variable extraction only")
    if k > q.dmax:
        raise TruncationTooSmall(f"coefficient {k} beyond tracked degree {q.dmax}")
    deg = k + len(q.denoms)
    if deg < 0:
        return q.ring.zero()
    c = q.num.coeff((deg,))
    for form in q.denoms:
        c = c * form[0].inv()
    return c


def _series_inverse_coeffs(coeffs, order: int, ring: CoeffRing):
    """Inverse of a one-variable polynomial with invertible constant term,
    as a coefficient list up to the given order."""
    c0 = coeffs[0] if coeffs else ring.zero()
    if not c0:
        raise ZeroDivisionError("constant term vanishes")
    inv0 = c0.inv()
    out = [inv0]
    for k in range(1, order + 1):
        acc = ring.zero()
        for j in range(1, min(k, len(coeffs) - 1) + 1):
            acc = acc + coeffs[j] * out[k - j]
        out.append(-(inv0 * acc))
    return out


def _iterated_coeff(q: QuotSeries, main: int, m_main: int, m_other: int) -> CoeffElem:
    """Coefficient of z_main^m_main z_other^m_other in the expansion that
    treats z_other as infinitesimally smaller than z_main."""
    ring = q.ring
    other = 1 - main
    k = m_main + m_other + len(q.denoms)
    # numerator slice restricted to z_main = 1: polynomial in v = z_other
    pcoeffs = [ring.zero()] * (k + 1)
    for e, c in q.num.terms.items():
        if sum(e) == k:
            pcoeffs[e[other]] = pcoeffs[e[other]] + c
    extra_v = 0
    const_prod = ring.one()
    qcoeffs = [ring.one()]
    for form in q.denoms:
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
    return acc * const_prod.inv()


def symmetric_laurent_coeff(q: QuotSeries, m1: int, m2: int) -> CoeffElem:
    """Average of the two iterated-Laurent extractions of the coefficient
    of z_1^m1 z_2^m2; for an honest power series both agree with the plain
    coefficient, and for surviving poles this is the finite part that the
    two-sided Mellin split produces."""
    if q.nvars != 2:
        raise ValueError("two-variable extraction only")
    if m1 + m2 > q.dmax:
        raise TruncationTooSmall(
            f"coefficient degree {m1 + m2} beyond tracked degree {q.dmax}"
        )
    a = _iterated_coeff(q, 0, m1, m2)
    b = _iterated_coeff(q, 1, m2, m1)
    return (a + b) * Fraction(1, 2)
