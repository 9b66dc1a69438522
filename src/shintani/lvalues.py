"""Special values of L-functions at non-positive integers.

Two pipelines:

  * Dirichlet characters over Q: the classical Bernoulli closed form
    L(chi, 1-r) = -(f^(r-1)/r) sum_n chi(n) B_r(n/f), and independently
    the cone pipeline (decompose the one-dimensional cocycle, pair with
    the character, read the Laurent coefficient).  The two must agree
    exactly.

  * Real quadratic fields of narrow class number one: the cocycle paired
    with the totally positive fundamental unit represents the half-open
    fundamental cone; pairing against a residue character and passing to
    embedding coordinates yields L(chi, -r) as (r!)^2 times the symmetric
    Laurent coefficient of t1^r t2^r.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb, factorial, gcd, isqrt, lcm, prod

from .cone_algebra import sigma_decompose
from .errors import (
    NarrowClassNumberNotOne,
    NotSquareFree,
    ShintaniError,
    TruncationTooSmall,
)
from .exactnum import CoeffElem, CoeffRing, _factorize, bernoulli_poly
from .solomon_hu import (
    QuotSeries,
    SchwartzFn,
    laurent_coeff_1var,
    pair_combo,
    reduce_to_power_series,
    symmetric_laurent_coeff,
)


# ---------------------------------------------------------------------------
# The unit group (Z/f)^* and its characters
# ---------------------------------------------------------------------------

def _primitive_root(p: int, e: int) -> int:
    """Smallest primitive root modulo p^e for an odd prime p."""
    mod = p ** e
    order = (p - 1) * p ** (e - 1)
    qs = list(_factorize(order))
    g = 2
    while True:
        if g % p and all(pow(g, order // q, mod) != 1 for q in qs):
            return g
        g += 1


def unit_group_generators(f: int):
    """Independent generators of (Z/f)^* with their orders, by the
    classical prime power decomposition and CRT lifting."""
    if f < 1:
        raise ValueError("modulus must be positive")
    gens = []
    orders = []
    for p, e in sorted(_factorize(f).items()):
        q = p ** e
        rest = f // q
        def lift(g_local):
            # g_local mod q, 1 mod rest
            if rest == 1:
                return g_local % f
            inv = pow(q, -1, rest)
            return (g_local + q * ((1 - g_local) * inv % rest)) % f
        if p == 2:
            if e == 2:
                gens.append(lift(3))
                orders.append(2)
            elif e >= 3:
                gens.append(lift(q - 1))
                orders.append(2)
                gens.append(lift(5))
                orders.append(2 ** (e - 2))
        else:
            gens.append(lift(_primitive_root(p, e)))
            orders.append((p - 1) * p ** (e - 1))
    return gens, orders


class DirichletChar:
    """Character of (Z/f)^*, extended by zero off the units.

    Values are stored as coefficient ring elements (roots of unity).
    Multiplicativity on the units is validated at construction.
    """

    def __init__(self, f: int, values: dict, ring: CoeffRing, validate: bool = True):
        self.f = f
        self.ring = ring
        vals = {}
        for n, v in values.items():
            n = n % f if f > 1 else 0
            vals[n] = ring.coerce(v)
        self.values = vals
        units = [n for n in range(f) if gcd(n, f) == 1] if f > 1 else [0]
        if set(units) != set(vals):
            raise ValueError("character table must cover exactly the units")
        if validate:
            one = 1 % f
            if vals[one] != ring.one():
                raise ValueError("character must send 1 to 1")
            for a in units:
                for b in units:
                    if vals[(a * b) % f if f > 1 else 0] != vals[a] * vals[b]:
                        raise ValueError("character table is not multiplicative")

    def __call__(self, n: int) -> CoeffElem:
        if self.f == 1:
            return self.values[0]
        n = n % self.f
        return self.values.get(n, self.ring.zero())

    @property
    def modulus(self) -> int:
        return self.f

    @property
    def is_trivial(self) -> bool:
        one = self.ring.one()
        return all(v == one for v in self.values.values())

    @property
    def is_real(self) -> bool:
        return all(v.is_rational() for v in self.values.values())

    @property
    def is_odd(self) -> bool:
        if self.f <= 2:
            return False
        return self((-1) % self.f) == -self.ring.one()

    def conductor(self) -> int:
        """Smallest divisor f0 of the modulus through which the character
        factors; primitivity means conductor == modulus."""
        for f0 in sorted(d for d in range(1, self.f + 1) if self.f % d == 0):
            ok = True
            for a in range(self.f):
                if gcd(a, self.f) != 1:
                    continue
                for b in range(self.f):
                    if gcd(b, self.f) != 1 or a % f0 != b % f0:
                        continue
                    if self(a) != self(b):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                return f0
        return self.f

    @property
    def is_primitive(self) -> bool:
        return self.conductor() == self.f

    def to_schwartz(self) -> SchwartzFn:
        table = {(n,): v for n, v in self.values.items()}
        if self.f == 1:
            table = {(0,): self.values[0]}
        return SchwartzFn(1, 1, self.f, table, self.ring)

    @classmethod
    def trivial(cls, f: int = 1, ring: CoeffRing | None = None) -> "DirichletChar":
        ring = ring or CoeffRing(1)
        if f == 1:
            return cls(1, {0: ring.one()}, ring, validate=False)
        vals = {n: ring.one() for n in range(f) if gcd(n, f) == 1}
        return cls(f, vals, ring, validate=False)

    @classmethod
    def enumerate(cls, f: int, ring: CoeffRing | None = None):
        """All characters of modulus f, deterministically ordered; values
        lie in the cyclotomic ring of the group exponent."""
        if f <= 2:
            ring = ring or CoeffRing(1)
            return [cls.trivial(f, ring)]
        gens, orders = unit_group_generators(f)
        expo = lcm(*orders) if orders else 1
        ring = ring or CoeffRing(expo)
        # exponent vectors in mixed radix, first generator most significant;
        # one list indexes both the units (discrete logs) and the characters
        exps = list(product(*(range(o) for o in orders)))
        dlog = {prod(pow(g, a, f) for g, a in zip(gens, e)) % f: e for e in exps}
        out = []
        for choice in exps:
            vals = {}
            for u, a in dlog.items():
                k = sum(c * ai * (expo // o) for c, ai, o in zip(choice, a, orders))
                vals[u] = ring.zeta(k % expo)
            out.append(cls(f, vals, ring, validate=False))
        return out


# ---------------------------------------------------------------------------
# Dirichlet L-values over Q
# ---------------------------------------------------------------------------

def dirichlet_L_closed(chi: DirichletChar, r: int) -> CoeffElem:
    """L(chi, 1-r) = -(f^(r-1)/r) sum_{n=1}^{f} chi(n) B_r(n/f)."""
    if r < 1:
        raise ValueError("r must be a positive integer")
    f = chi.f
    acc = chi.ring.zero()
    for n in range(1, f + 1):
        v = chi(n)
        if v:
            acc = acc + v * bernoulli_poly(r, Fraction(n, f))
    return acc * Fraction(-(f ** (r - 1)), r)


def dirichlet_L_via_cocycle(chi: DirichletChar, r: int, dmax: int | None = None) -> CoeffElem:
    """Same value through the cone pipeline: decompose the 1-dimensional
    cocycle at the identity, pair with the character, and read off the
    z^(r-1) coefficient times (r-1)!.

    The coefficient is read from the Laurent expansion, which in one
    variable equals the power-series coefficient whenever the pole cancels.
    """
    if r < 1:
        raise ValueError("r must be a positive integer")
    if dmax is None:
        dmax = r
    if dmax < r:
        raise TruncationTooSmall("need dmax >= r")
    combo = sigma_decompose([[[1]]])
    q = pair_combo(combo, chi.to_schwartz(), dmax)
    return laurent_coeff_1var(q, r - 1) * factorial(r - 1)


# ---------------------------------------------------------------------------
# Real quadratic fields
# ---------------------------------------------------------------------------

def _is_square_free(D: int) -> bool:
    return all(e == 1 for e in _factorize(D).values())


def _norm_theta(a: int, b: int, D: int, half: bool) -> int:
    """Norm of a + b*theta where theta = sqrt(D) or (1+sqrt(D))/2."""
    if half:
        return a * a + a * b - b * b * (D - 1) // 4
    return a * a - D * b * b


def _theta_cf_state(D: int, half: bool):
    """Continued fraction state for theta as (P + sqrt(D)) / Q."""
    return (1, 2) if half else (0, 1)


def fundamental_unit(D: int):
    """Fundamental unit of the maximal order, as theta-basis coordinates.

    The continued fraction of theta (exact P, Q recurrence) is expanded
    until a convergent has norm +-1; that first convergent is the
    fundamental unit (Cohen, GTM 138, section 5.7).  Returns ((a, b), norm).
    """
    half = D % 4 == 1
    P, Q = _theta_cf_state(D, half)
    s = isqrt(D)
    p_cur, p_prev = 1, 0
    q_cur, q_prev = 0, 1
    # iterate a_k = floor((P + sqrt(D)) / Q) with convergents p/q of theta;
    # the unit candidate is p - q * conj(theta), i.e. coordinates
    # (p - q, q) in the half-integer basis and (p, q) otherwise
    for _ in range(10 ** 6):
        a_k = (P + s) // Q
        p_cur, p_prev = a_k * p_cur + p_prev, p_cur
        q_cur, q_prev = a_k * q_cur + q_prev, q_cur
        P = a_k * Q - P
        Q = (D - P * P) // Q
        a0 = p_cur - q_cur if half else p_cur
        nrm = _norm_theta(a0, q_cur, D, half)
        if abs(nrm) == 1:
            return (a0, q_cur), nrm
    raise ShintaniError("continued fraction failed to produce a unit")


def _theta_mul(x, y, D: int, half: bool):
    """(a1 + b1 theta)(a2 + b2 theta) in theta-basis coordinates."""
    a1, b1 = x
    a2, b2 = y
    if half:
        c = (D - 1) // 4
        return (a1 * a2 + b1 * b2 * c, a1 * b2 + b1 * a2 + b1 * b2)
    return (a1 * a2 + D * b1 * b2, a1 * b2 + b1 * a2)


def _class_number_one_certified(D: int, half: bool) -> bool | None:
    """Try to certify class number one via the Minkowski bound and a
    bounded search for elements of small prime norm.  Returns True when
    certified, None when the search was inconclusive."""
    disc = D if half else 4 * D
    bound = isqrt(disc) // 2
    for p in range(2, bound + 1):
        if _factorize(p) != {p: 1}:
            continue
        if half:
            ramified_or_split = pow(disc % p, (p - 1) // 2, p) != p - 1 if p != 2 else disc % 8 in (0, 1, 4)
        else:
            ramified_or_split = (p == 2) or pow(disc % p, (p - 1) // 2, p) != p - 1
        if not ramified_or_split:
            continue
        ok = False
        for b in range(0, 4 * p + 1):
            for a in range(-4 * p - isqrt(D) * b - 2, 4 * p + isqrt(D) * b + 3):
                if abs(_norm_theta(a, b, D, half)) == p:
                    ok = True
                    break
            if ok:
                break
        if not ok:
            return None
    return True


@dataclass
class RealQuadField:
    """Data of a real quadratic field prepared for the cone pipeline.

    theta is the second basis element (sqrt(D), or (1+sqrt(D))/2 when
    D = 1 mod 4); eps is the fundamental unit and u the totally positive
    fundamental unit in theta-coordinates; u_matrix is multiplication by
    u in the integral basis (1, theta)."""

    D: int
    half: bool
    disc: int
    eps: tuple
    eps_norm: int
    u: tuple
    u_matrix: tuple
    narrow_h1: bool
    ring: CoeffRing

    def theta_embedding(self, which: int) -> CoeffElem:
        """Image of theta under the two real embeddings: the sign of
        sqrt(D) distinguishes them."""
        s = self.ring.sqrtD() if which == 0 else -self.ring.sqrtD()
        if self.half:
            return (self.ring.one() + s) * Fraction(1, 2)
        return s

    def embed(self, coords, which: int) -> CoeffElem:
        a, b = coords
        return self.ring.from_rat(a) + self.theta_embedding(which) * b

    def transition_images(self):
        """Images of the basis variables under z = T t: variable j of the
        dual basis goes to tau_1(b_j) t_1 + tau_2(b_j) t_2."""
        one = self.ring.one()
        return [
            (one, one),
            (self.theta_embedding(0), self.theta_embedding(1)),
        ]


def build_real_quad(D: int, allow_narrow_failure: bool = False) -> RealQuadField:
    """Prepare a real quadratic field: fundamental unit by continued
    fractions, totally positive fundamental unit, its matrix, and a
    narrow-class-number-one check (raised as NarrowClassNumberNotOne
    unless the caller opts to proceed)."""
    if D <= 1 or not _is_square_free(D):
        raise NotSquareFree("D must be a square-free integer > 1")
    half = D % 4 == 1
    disc = D if half else 4 * D
    eps, nrm = fundamental_unit(D)
    if nrm == -1:
        u = _theta_mul(eps, eps, D, half)
    else:
        u = eps
    # u > 1 with norm +1 is automatically totally positive
    assert _norm_theta(u[0], u[1], D, half) == 1
    # multiplication by u in the basis (1, theta)
    a, b = u
    if half:
        c = (D - 1) // 4
        u_matrix = ((a, b * c), (b, a + b))
    else:
        u_matrix = ((a, D * b), (b, a))
    narrow = nrm == -1
    if narrow:
        cert = _class_number_one_certified(D, half)
        narrow = cert is True
    if not narrow and not allow_narrow_failure:
        raise NarrowClassNumberNotOne(
            f"could not certify narrow class number one for D={D}"
        )
    ring = CoeffRing(1, D)
    return RealQuadField(
        D=D, half=half, disc=disc, eps=eps, eps_norm=nrm, u=u,
        u_matrix=u_matrix, narrow_h1=narrow, ring=ring,
    )


def trivial_quad_schwartz(K: RealQuadField, ring: CoeffRing | None = None) -> SchwartzFn:
    """The constant function 1 on the full lattice (trivial character of
    conductor 1)."""
    ring = ring or K.ring
    return SchwartzFn(2, 1, 1, {(0, 0): ring.one()}, ring)


def _identity2():
    return ((1, 0), (0, 1))


def quad_L_value(K: RealQuadField, phi: SchwartzFn, r: int,
                 dmax: int | None = None):
    """L(phi, -r) through the cone pipeline.

    Decomposes the cocycle on (identity, unit matrix), pairs against the
    residue function, passes to embedding coordinates and extracts
    (r!)^2 times the symmetric Laurent coefficient of t1^r t2^r.  For a
    rational-valued phi the result is asserted rational and returned as a
    Fraction.
    """
    if r < 1:
        raise ValueError("r must be a positive integer")
    if dmax is None:
        dmax = 2 * r + 2
    if dmax < 2 * r:
        raise TruncationTooSmall("need dmax >= 2r")
    if phi.n != 2:
        raise ValueError("need a rank-two residue function")
    if phi.ring.D != K.D:
        raise ShintaniError("residue function ring must contain sqrt(D)")
    combo = sigma_decompose([_identity2(), K.u_matrix])
    q = pair_combo(combo, phi, dmax)
    images = [
        tuple(phi.ring.coerce(c) for c in img) for img in K.transition_images()
    ]
    q_t = QuotSeries(
        q.num.substitute_linear(images, 2),
        tuple(_transition_form(form, images, phi.ring) for form in q.denoms),
    )
    coeff = symmetric_laurent_coeff(q_t, r, r)
    value = coeff * factorial(r) ** 2
    real_valued = all(v.is_rational() for v in phi.table.values())
    if real_valued:
        if not value.is_rational():
            raise ShintaniError("expected a rational value for a real character")
        return value.rational_part()
    return value


def _transition_form(form, images, ring):
    """Denominator form in the new coordinates: coefficient i becomes
    sum_j form[j] * images[j][i]."""
    n_new = len(images[0])
    out = [ring.zero()] * n_new
    for j, c in enumerate(form):
        if c:
            for i in range(n_new):
                out[i] = out[i] + c * images[j][i]
    return tuple(out)


@dataclass
class SCoeffs:
    """Table of scaled power series coefficients of the paired unit
    cocycle: S(m1, m2) = m1! m2! [z1^m1 z2^m2], for m1 + m2 <= 2 rmax."""

    rmax: int
    ring: CoeffRing
    table: dict

    def get(self, m1: int, m2: int) -> CoeffElem:
        return self.table.get((m1, m2), self.ring.zero())


def s_coeffs(K: RealQuadField, phi: SchwartzFn, rmax: int,
             dmax: int | None = None) -> SCoeffs:
    """Power series coefficients in the basis coordinates; requires the
    poles to cancel (NotDivisible propagates otherwise)."""
    if rmax < 0:
        raise ValueError("rmax must be non-negative")
    if dmax is None:
        dmax = 2 * rmax + 2
    combo = sigma_decompose([_identity2(), K.u_matrix])
    q = pair_combo(combo, phi, dmax)
    series = reduce_to_power_series(q)
    table = {}
    for m1 in range(2 * rmax + 1):
        for m2 in range(2 * rmax + 1 - m1):
            c = series.coeff((m1, m2))
            if c:
                table[(m1, m2)] = c * (factorial(m1) * factorial(m2))
    return SCoeffs(rmax=rmax, ring=phi.ring, table=table)


def l_value_from_s_coeffs(K: RealQuadField, sc: SCoeffs, r: int):
    """Recombine the coefficient table into L(phi, -r) via the transition
    to embedding coordinates: (r!)^2 [t1^r t2^r] of the substituted sum
    over m1 + m2 = 2r."""
    if r > sc.rmax:
        raise TruncationTooSmall("table does not reach degree 2r")
    ring = sc.ring
    images = [tuple(ring.coerce(c) for c in img) for img in K.transition_images()]
    acc = ring.zero()
    for m1 in range(2 * r + 1):
        m2 = 2 * r - m1
        s = sc.get(m1, m2)
        if not s:
            continue
        # [t1^r t2^r] of (t1 + t2)^m1 * (T1 t1 + T2 t2)^m2 / (m1! m2!)
        inner = ring.zero()
        T1, T2 = images[1]
        for k in range(max(0, r - m1), min(m2, r) + 1):
            inner = inner + (
                (T1 ** k) * (T2 ** (m2 - k)) * (comb(m2, k) * comb(m1, r - k))
            )
        acc = acc + s * inner * Fraction(1, factorial(m1) * factorial(m2))
    return acc * factorial(r) ** 2
