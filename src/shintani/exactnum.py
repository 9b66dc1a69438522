"""Exact arithmetic substrate.

Provides arbitrary-precision rationals (stdlib Fraction under the alias
``Rat``), sparse multivariate polynomials over the rationals, Bernoulli
numbers and polynomials, and the two-generator coefficient ring

    Q[g1, g2] / (Phi_m(g1), g2^2 - D)

which holds roots of unity (character values) and square roots of a
square-free integer (real quadratic embeddings).  No floating point is
used anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import product
from math import comb, gcd, lcm, prod

from .errors import BudgetExceeded, ShintaniError
from .linalg import frac

Rat = Fraction


# ---------------------------------------------------------------------------
# Sparse multivariate polynomials
# ---------------------------------------------------------------------------

class MPoly:
    """Sparse polynomial in a fixed number of variables over Q.

    Terms map exponent tuples (length ``nvars``, non-negative ints) to
    nonzero Fraction coefficients; zero coefficients are never stored.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        if terms:
            self.terms = {e: f for e, c in terms.items() if (f := frac(c))}
        else:
            self.terms = {}

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "MPoly":
        return cls(nvars)

    @classmethod
    def const(cls, nvars: int, c) -> "MPoly":
        c = frac(c)
        if c == 0:
            return cls(nvars)
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def var(cls, nvars: int, i: int) -> "MPoly":
        if not 0 <= i < nvars:
            raise ValueError(f"variable index {i} out of range for {nvars} variables")
        e = [0] * nvars
        e[i] = 1
        return cls(nvars, {tuple(e): Fraction(1)})

    @classmethod
    def monomial(cls, nvars: int, exp, c) -> "MPoly":
        exp = tuple(exp)
        if len(exp) != nvars or any(k < 0 for k in exp):
            raise ValueError("bad exponent vector")
        return cls(nvars, {exp: frac(c)})

    # -- queries ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == {(0,) * self.nvars: Fraction(1)}

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    __hash__ = None

    def content(self) -> Fraction:
        """Positive rational c with self/c an integer polynomial of
        coprime coefficients.  Zero polynomial has content 1."""
        if not self.terms:
            return Fraction(1)
        num_gcd = 0
        den_lcm = 1
        for c in self.terms.values():
            num_gcd = gcd(num_gcd, abs(c.numerator))
            den_lcm = den_lcm * c.denominator // gcd(den_lcm, c.denominator)
        return Fraction(num_gcd, den_lcm)

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "MPoly"):
        if self.nvars != other.nvars:
            raise ValueError("operand variable counts differ")

    def __add__(self, other):
        if not isinstance(other, MPoly):
            other = MPoly.const(self.nvars, other)
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        r = MPoly(self.nvars)
        r.terms = out
        return r

    __radd__ = __add__

    def __neg__(self):
        r = MPoly(self.nvars)
        r.terms = {e: -c for e, c in self.terms.items()}
        return r

    def __sub__(self, other):
        if not isinstance(other, MPoly):
            other = MPoly.const(self.nvars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, MPoly):
            c = frac(other)
            r = MPoly(self.nvars)
            if c != 0:
                r.terms = {e: c * v for e, v in self.terms.items()}
            return r
        self._check(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        r = MPoly(self.nvars)
        r.terms = out
        return r

    __rmul__ = __mul__

    def scalar_div(self, c) -> "MPoly":
        """Exact division by a nonzero rational scalar."""
        c = frac(c)
        if c == 0:
            raise ZeroDivisionError("division of polynomial by zero scalar")
        return self * (1 / c)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for e, c in sorted(self.terms.items()):
            mono = "*".join(
                f"e{i}" if k == 1 else f"e{i}^{k}" for i, k in enumerate(e) if k
            )
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)


# ---------------------------------------------------------------------------
# Bernoulli numbers and polynomials, convention B_1 = -1/2
# ---------------------------------------------------------------------------

# B_0, B_2, B_4, .. so far; bernoulli_number extends the list on demand,
# with no lock, since the package runs no threads.
_EVEN_BERNOULLI = [Fraction(1)]


def bernoulli_number(m: int) -> Fraction:
    """B_m with B_1 = -1/2 (generating function t / (e^t - 1)): 0 for odd
    m > 1, and B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)) from the integer
    tangent numbers T_k (_tangent_numbers).  The even values are kept in
    _EVEN_BERNOULLI, whose length at least doubles when it grows."""
    if m < 0:
        raise ValueError("Bernoulli index must be non-negative")
    if m % 2:
        return Fraction(-1, 2) if m == 1 else Fraction(0)
    k = m // 2
    if k >= len(_EVEN_BERNOULLI):
        n = max(k, 2 * len(_EVEN_BERNOULLI))
        _EVEN_BERNOULLI[1:] = [Fraction((-1) ** (j - 1) * 2 * j * t, 4 ** j * (4 ** j - 1))
                               for j, t in enumerate(_tangent_numbers(n), 1)]
    return _EVEN_BERNOULLI[k]


def _tangent_numbers(n: int) -> list[int]:
    """T_1 .. T_n, tan x = sum_k T_k x^(2k-1) / (2k-1)!, in O(n^2) integer
    operations (Brent and Harvey, Fast computation of Bernoulli, Tangent
    and Secant numbers, 2011, algorithm TangentNumbers)."""
    t = [0, 1] + [0] * (n - 1)
    for k in range(2, n + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t[1:n + 1]


def bernoulli_poly(m: int, x) -> Fraction:
    """B_m(x) = sum_j C(m, j) B_j x^(m-j)."""
    if m < 0:
        raise ValueError("Bernoulli index must be non-negative")
    x = frac(x)
    return sum(
        (comb(m, j) * bernoulli_number(j) * x ** (m - j) for j in range(m + 1)),
        Fraction(0),
    )


# ---------------------------------------------------------------------------
# Cyclotomic polynomials
# ---------------------------------------------------------------------------

@cache
def cyclotomic_poly(m: int) -> tuple[int, ...]:
    """Coefficients of Phi_m (little-endian), as the Moebius product
    prod_(d | m) (1 - x^d)^mu(m/d) read in power series to the degree
    phi(m): one sparse multiply (mu = 1) or one exact series division
    (mu = -1) by 1 - x^d per square-free cofactor m/d, skipped when
    d > phi(m).  The product is -Phi_1 at m = 1 and Phi_m beyond.  An
    order above MAX_ZETA_ORDER raises ValueError before the factorization."""
    if m < 1:
        raise ValueError("cyclotomic order must be >= 1")
    if m > MAX_ZETA_ORDER:
        raise ValueError(f"cyclotomic order must be at most {MAX_ZETA_ORDER}")
    if m == 1:
        return (-1, 1)
    primes = list(_factorize(m))
    deg = m
    for p in primes:
        deg = deg // p * (p - 1)
    poly = [1] + [0] * deg
    for chosen in product((False, True), repeat=len(primes)):
        d = m // prod(p for p, c in zip(primes, chosen) if c)
        if sum(chosen) % 2:
            for i in range(d, deg + 1):
                poly[i] += poly[i - d]
        else:
            for i in range(deg, d - 1, -1):
                poly[i] -= poly[i - d]
    return tuple(poly)


# Largest sqrt(D) generator accepted: D is checked square-free by trial
# division, at most 10^6 divisions up to the square root.  Largest
# cyclotomic order, and most nonzero entries of a ring's zeta power table:
# a prime order p holds 2(p - 1) entries, but an order with several odd
# prime factors has dense powers (15015 holds 48 million), so the table is
# refused as soon as its entries pass the bound, at about 50 MB.
MAX_D = 10 ** 12
MAX_ZETA_ORDER = 30011
MAX_ZETA_ENTRIES = 10 ** 6


def _factorize(n: int) -> dict[int, int]:
    """Prime factorization {p: e} of a positive integer by trial division."""
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


# ---------------------------------------------------------------------------
# Coefficient ring Q(zeta_m, sqrt(D))
# ---------------------------------------------------------------------------

class CoeffRing:
    """Q[g1, g2] / (Phi_m(g1), g2^2 - D), elements stored fully reduced.

    m = 1 and D = None degenerate to Q itself.  Only positive square-free
    D > 1 is accepted.  Basis monomials are g1^i * g2^j with
    0 <= i < deg(Phi_m) and j in {0} or {0, 1}.  One integer table of the
    reduced powers g1^k, k = 0..m-1, built with the ring in work
    proportional to its nonzero entries, serves zeta, coerce and the
    product, where a rational right factor multiplies as a scalar; its
    elements refer back to the ring, so the collector, not the reference
    count, frees a ring.  Rationals enter through linalg.frac, so a float
    or bool raises TypeError; other modules read and build elements only
    through clear, from_ints and CoeffElem.to_json.  The ring has no
    inverse and no power (the tests' coeff_inv and coeff_pow supply both).
    An order above MAX_ZETA_ORDER raises ValueError before any work, and a
    table whose nonzero entries pass MAX_ZETA_ENTRIES raises
    BudgetExceeded as soon as they do.
    """

    def __init__(self, m: int = 1, D=None):
        if m < 1:
            raise ValueError("cyclotomic order must be >= 1")
        if D is not None:
            D = int(D)
            if D <= 1:
                raise ValueError("D must exceed 1")
            if D > MAX_D:
                raise ValueError(f"D must be at most {MAX_D}")
            if any(e > 1 for e in _factorize(D).values()):
                raise ValueError("D must be square-free")
        self.m = m
        self.D = D
        phi = cyclotomic_poly(m)
        self.deg = deg = len(phi) - 1
        # g1^k reduced into the basis, k = 0..m-1 (g1^m = 1), as a dict of
        # its nonzero integer coefficients: g1^k is a basis monomial for
        # k < deg and g1^deg = -sum phi_i g1^i; each later power shifts the
        # dict by g1 and, when its top entry is nonzero, adds top times that
        # sparse low part, the keys kept ascending.  Equal coefficients
        # share one Fraction and equal keys one tuple.
        fracs = {1: Fraction(1)}
        one = fracs[1]
        keys = [(i, 0) for i in range(deg)]
        powers = [CoeffElem(self, {k: one}) for k in keys]
        low = [(i, -c) for i, c in enumerate(phi[:-1]) if c]
        vec = {deg - 1: 1}
        room = MAX_ZETA_ENTRIES - deg
        for _ in range(deg, m):
            top = vec.pop(deg - 1, 0)
            vec = {i + 1: c for i, c in vec.items()}
            if top:
                for i, c in low:
                    vec[i] = vec.get(i, 0) + top * c
                vec = {i: c for i in sorted(vec) if (c := vec[i])}
            room -= len(vec)
            if room < 0:
                raise BudgetExceeded(f"the zeta table of cyclotomic order {m} passes "
                                     f"{MAX_ZETA_ENTRIES} nonzero entries")
            powers.append(CoeffElem(self, {
                keys[i]: fracs[c] if c in fracs else fracs.setdefault(c, Fraction(c))
                for i, c in vec.items()}))
        self._powers = powers
        self._jrange = (0, 1) if D is not None else (0,)

    # -- identity / comparison ---------------------------------------------

    def same(self, other: "CoeffRing") -> bool:
        return self.m == other.m and self.D == other.D

    def __repr__(self):
        tail = f", sqrt {self.D}" if self.D is not None else ""
        return f"CoeffRing(zeta order {self.m}{tail})"

    # -- constructors --------------------------------------------------------

    def elem(self, coeffs) -> "CoeffElem":
        return CoeffElem(self, {k: c for k, v in coeffs.items() if (c := frac(v))})

    def zero(self) -> "CoeffElem":
        return CoeffElem(self, {})

    def one(self) -> "CoeffElem":
        return CoeffElem(self, {(0, 0): Fraction(1)})

    def from_rat(self, c) -> "CoeffElem":
        c = frac(c)
        return CoeffElem(self, {(0, 0): c} if c else {})

    def zeta(self, power: int = 1) -> "CoeffElem":
        """g1^power reduced into the basis."""
        return self._powers[power % self.m]

    def sqrtD(self) -> "CoeffElem":
        if self.D is None:
            raise ShintaniError("ring has no square root generator")
        return CoeffElem(self, {(0, 1): Fraction(1)})

    def coerce(self, x) -> "CoeffElem":
        """Accept elements of this ring, of a compatible smaller ring
        (cyclotomic order dividing ours, same or absent sqrt), rationals."""
        if isinstance(x, CoeffElem):
            if x.ring.same(self):
                return x
            if self.m % x.ring.m == 0 and x.ring.D in (None, self.D):
                k = self.m // x.ring.m
                out = self.zero()
                for (i, j), c in x.coeffs.items():
                    piece = self._powers[(i * k) % self.m] * c
                    if j:
                        piece = piece * self.sqrtD()
                    out = out + piece
                return out
            raise ShintaniError(f"cannot coerce between {x.ring} and {self}")
        return self.from_rat(x)

    def basis(self):
        return [(i, j) for j in self._jrange for i in range(self.deg)]

    # -- integer views -------------------------------------------------------

    def clear(self, elems):
        """Elements of this ring over one denominator: (den, [{key: int}]),
        den > 0 the lcm of their coefficient denominators (1 for none) and
        each element sum_key ints[key] basis[key] / den; elems is read once."""
        elems = [e.coeffs for e in elems]
        den = lcm(*{c.denominator for e in elems for c in e.values()})
        if den == 1:  # character values: skip the rescaling
            return 1, [{k: c.numerator for k, c in e.items()} for e in elems]
        return den, [{k: c.numerator * (den // c.denominator) for k, c in e.items()}
                     for e in elems]

    def from_ints(self, ints, den: int) -> "CoeffElem":
        """sum_key ints[key] basis[key] / den for a nonzero int den, zero
        entries dropped: the inverse of clear for one element."""
        return CoeffElem(self, {k: Fraction(x, den) for k, x in ints.items() if x})


class CoeffElem:
    """Element of a CoeffRing; coefficients over the reduced monomial basis."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: CoeffRing, coeffs: dict):
        self.ring = ring
        self.coeffs = coeffs

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.ring.from_rat(other)
        if not isinstance(other, CoeffElem):
            return NotImplemented
        return self.ring.same(other.ring) and self.coeffs == other.coeffs

    __hash__ = None

    def _lift(self, other) -> "CoeffElem":
        if isinstance(other, CoeffElem):
            if not other.ring.same(self.ring):
                raise ShintaniError("mixed coefficient rings")
            return other
        return self.ring.from_rat(other)

    def __add__(self, other):
        other = self._lift(other)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return CoeffElem(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return CoeffElem(self.ring, {k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, CoeffElem) and self._lift(other).coeffs.keys() == {(0, 0)}:
            other = other.coeffs[(0, 0)]  # a rational right factor is a scalar
        if isinstance(other, (int, Fraction)):
            c = frac(other)
            if c == 0:
                return self.ring.zero()
            return CoeffElem(self.ring, {k: c * v for k, v in self.coeffs.items()})
        other = self._lift(other)
        ring = self.ring
        acc = {}
        for (i1, j1), c1 in self.coeffs.items():
            for (i2, j2), c2 in other.coeffs.items():
                c = c1 * c2
                i = i1 + i2
                j = j1 + j2
                if j == 2:
                    c *= ring.D
                    j = 0
                if i < ring.deg:
                    k = (i, j)
                    s = acc.get(k, 0) + c
                    if s:
                        acc[k] = s
                    else:
                        acc.pop(k, None)
                else:
                    for (t, _), rc in ring._powers[i % ring.m].coeffs.items():
                        k = (t, j)
                        s = acc.get(k, 0) + c * rc
                        if s:
                            acc[k] = s
                        else:
                            acc.pop(k, None)
        return CoeffElem(ring, acc)

    __rmul__ = __mul__

    def is_rational(self) -> bool:
        return all(k == (0, 0) for k in self.coeffs)

    def rational_part(self) -> Fraction:
        return self.coeffs.get((0, 0), Fraction(0))

    def to_json(self):
        """A rational as its string, otherwise [i, j, c] triples in basis
        order, c the string of the coefficient of g1^i g2^j."""
        if self.is_rational():
            return str(self.rational_part())
        return [[i, j, str(c)] for (i, j), c in sorted(self.coeffs.items())]

    def __repr__(self):
        if not self.coeffs:
            return "0"
        bits = []
        for (i, j), c in sorted(self.coeffs.items()):
            mono = ""
            if i:
                mono += f"z^{i}" if i > 1 else "z"
            if j:
                mono += "s"
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)


QQ = CoeffRing(1, None)
