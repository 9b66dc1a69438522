"""Special values of L-functions at non-positive integers.

Two pipelines:

  * Dirichlet characters over Q: the classical Bernoulli closed form
    L(chi, 1-r) = -(f^(r-1)/r) sum_n chi(n) B_r(n/f), one integer sum per
    basis key of the ring, and independently the cone pipeline (decompose
    the one-dimensional cocycle, pair with the character, read the Laurent
    coefficient of z^(r-1)).  The two must agree exactly.  A character is
    the residue function on Z of period f that it is paired as; the
    characters of a modulus form a sequence that builds each one when it
    is indexed.

  * Real quadratic fields of narrow class number one, the maximal order
    written Z[theta] with theta^2 = t theta - n: the cocycle paired with
    the totally positive fundamental unit represents the half-open
    fundamental cone; pairing against a residue character and passing to
    embedding coordinates yields L(chi, -r) as (r!)^2 times the symmetric
    Laurent coefficient of t1^r t2^r.

Each value is one Laurent coefficient, which reads one homogeneous
degree of each cone's paired numerator, r - 1 + rank and 2r + rank, so
both cone routes pair each cone for that degree alone and add the cones'
coefficients; ``s_coeffs`` needs every degree and pairs the whole combo.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
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
from .exactnum import MAX_D, CoeffElem, CoeffRing, _factorize, bernoulli_number
from .solomon_hu import (
    SchwartzFn,
    _clear_real,
    _combo_laurent_1var,
    _combo_symmetric_laurent,
    _power_series_ints,
    _split_zeta,
    _symmetric_coeff,
    pair_combo,
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


class DirichletChar(SchwartzFn):
    """Character of (Z/f)^*, extended by zero off the units: the residue
    function on Z of period f that the cone pipeline pairs, with the one
    table {(n,): chi(n)}.

    Values are coefficient ring elements (roots of unity).  With validate
    (the default, and the route of every table read from outside) the
    caller's table {n: value} must cover exactly the units, send 1 to 1 and
    be multiplicative there, checked at every unit times every generator
    of ``unit_group_generators`` (phi(f) * #generators ring products),
    and the residue table then gets SchwartzFn's key and value checks.
    Without validate the keys are trusted to be the units 0 <= u < f and
    the residue table is built directly, each value coerced into the ring
    and zeros dropped as SchwartzFn does: ``trivial`` and
    ``CharacterTable`` build exact unit tables this way.
    """

    def __init__(self, f: int, values: dict, ring: CoeffRing, validate: bool = True):
        if validate:
            vals = {n % f: ring.coerce(v) for n, v in values.items()}
            units = [n for n in range(f) if gcd(n, f) == 1]
            if set(units) != set(vals):
                raise ValueError("character table must cover exactly the units")
            if vals[1 % f] != ring.one():
                raise ValueError("character must send 1 to 1")
            # chi(a g) = chi(a) chi(g) at every generator g gives chi(ab) =
            # chi(a) chi(b) by induction on a word for b in the generators
            for g in unit_group_generators(f)[0]:
                for a in units:
                    if vals[(a * g) % f] != vals[a] * vals[g]:
                        raise ValueError("character table is not multiplicative")
            super().__init__(1, 1, f, {(n,): v for n, v in values.items()}, ring)
        else:
            self.n, self.d, self.f, self.ring = 1, 1, f, ring
            self.table = {(u,): c for u, v in values.items() if (c := ring.coerce(v))}

    @property
    def values(self) -> dict:
        """The table read by integer residue, as a new dict."""
        return {n: v for (n,), v in self.table.items()}

    def __call__(self, n: int) -> CoeffElem:
        return self.table.get((n % self.f,), self.ring.zero())

    @property
    def is_trivial(self) -> bool:
        one = self.ring.one()
        return all(v == one for v in self.table.values())

    @property
    def is_real(self) -> bool:
        return all(v.is_rational() for v in self.table.values())

    @property
    def is_odd(self) -> bool:
        if self.f <= 2:
            return False
        return self((-1) % self.f) == -self.ring.one()

    def conductor(self) -> int:
        """Least divisor f0 of the modulus whose units u = 1 (mod f0) all
        lie in the kernel; primitivity means conductor == modulus."""
        one = self.ring.one()
        return next(
            f0 for f0 in range(1, self.f + 1)
            if self.f % f0 == 0
            and all(v == one for (u,), v in self.table.items() if u % f0 == 1 % f0)
        )

    @property
    def is_primitive(self) -> bool:
        return self.conductor() == self.f

    @classmethod
    def trivial(cls, f: int = 1) -> "DirichletChar":
        ring = CoeffRing(1)
        vals = {n: ring.one() for n in range(f) if gcd(n, f) == 1}
        return cls(f, vals, ring, validate=False)

    @classmethod
    def enumerate(cls, f: int) -> "CharacterTable":
        """All characters of modulus f, deterministically ordered; values
        lie in the cyclotomic ring of the group exponent."""
        return CharacterTable(f)


class CharacterTable(Sequence):
    """The characters of modulus f, each built when it is indexed.  Exponent
    vectors run in mixed radix, first generator most significant; one list
    indexes both the units (discrete logs) and the characters."""

    def __init__(self, f: int):
        self.f = f
        gens, self.orders = unit_group_generators(f)
        self.expo = lcm(*self.orders)
        self.ring = CoeffRing(self.expo)
        self.exps = list(product(*(range(o) for o in self.orders)))
        self.dlog = {prod(pow(g, a, f) for g, a in zip(gens, e)) % f: e for e in self.exps}

    def __len__(self) -> int:
        return len(self.exps)

    def __getitem__(self, i) -> DirichletChar:
        choice = self.exps[operator.index(i)]
        expo, ring = self.expo, self.ring
        vals = {}
        for u, a in self.dlog.items():
            k = sum(c * ai * (expo // o) for c, ai, o in zip(choice, a, self.orders))
            vals[u] = ring.zeta(k % expo)
        return DirichletChar(self.f, vals, ring, validate=False)


# ---------------------------------------------------------------------------
# Dirichlet L-values over Q
# ---------------------------------------------------------------------------

def dirichlet_L_closed(chi: DirichletChar, r: int) -> CoeffElem:
    """L(chi, 1-r) = -(f^(r-1)/r) sum_{n=1}^{f} chi(n) B_r(n/f), expanded by
    B_r(x) = sum_j C(r, j) B_j x^(r-j) into -(1/(r f)) sum_n chi(n) P(n)
    with P(n) = sum_j C(r, j) B_j f^j n^(r-j).  The weights of P are
    cleared to integers over the lcm of the Bernoulli denominators, and
    the values to integers over one denominator by CoeffRing.clear;
    per unit u the integer P(n) is read by Horner's rule (n = u, or f for
    the unit 0 of modulus 1) and its products with the value's integer
    coefficients are added into one int per basis key.  Each nonzero key
    ends as one Fraction: no ring element is multiplied or added."""
    if r < 1:
        raise ValueError("r must be a positive integer")
    f = chi.f
    bern = [bernoulli_number(j) for j in range(r + 1)]
    den = lcm(*(b.denominator for b in bern))
    weights = [comb(r, j) * b.numerator * (den // b.denominator) * f ** j
               for j, b in enumerate(bern)]
    vden, values = chi.ring.clear(chi.table.values())
    sums = {}
    for (u,), v in zip(chi.table, values):
        n, p = u or f, 0
        for w in weights:
            p = p * n + w
        for b, c in v.items():
            sums[b] = sums.get(b, 0) + p * c
    return chi.ring.from_ints(sums, -r * f * den * vden)


def dirichlet_L_via_cocycle(chi: DirichletChar, r: int) -> CoeffElem:
    """Same value through the cone pipeline: decompose the 1-dimensional
    cocycle at the identity, pair with the character, and read off the
    z^(r-1) Laurent coefficient times (r-1)!.  Each cone is paired for the
    one numerator degree that coefficient reads.

    The coefficient is read from the Laurent expansion, which in one
    variable equals the power-series coefficient whenever the pole cancels.
    """
    if r < 1:
        raise ValueError("r must be a positive integer")
    combo = sigma_decompose([[[1]]])
    return _combo_laurent_1var(combo, chi, r - 1) * factorial(r - 1)


# ---------------------------------------------------------------------------
# Real quadratic fields
# ---------------------------------------------------------------------------

# The maximal order is Z[theta] with theta^2 = t theta - n: (t, n) is
# (1, (1 - D)/4), theta = (1 + sqrt D)/2, for D = 1 mod 4, and (0, -D),
# theta = sqrt D, otherwise; the discriminant is t^2 - 4n.

def _trace_norm(D: int) -> tuple[int, int]:
    """Trace and norm (t, n) of theta."""
    return (1, (1 - D) // 4) if D % 4 == 1 else (0, -D)


def _norm_theta(a: int, b: int, t: int, n: int) -> int:
    """Norm of a + b theta."""
    return a * a + t * a * b + n * b * b


def fundamental_unit(D: int):
    """Fundamental unit of the maximal order, as theta-basis coordinates.

    The continued fraction of theta = (P + sqrt(disc)) / Q, from (P, Q) =
    (t, 2) by the exact P, Q recurrence, is expanded until a convergent p/q
    gives a unit p - q conj(theta) = (p - q t) + q theta of norm +-1; the
    first one is the fundamental unit (Cohen, GTM 138, section 5.7).
    Returns ((a, b), norm).
    """
    t, n = _trace_norm(D)
    disc = t * t - 4 * n
    P, Q = t, 2
    s = isqrt(disc)
    p_cur, p_prev = 1, 0
    q_cur, q_prev = 0, 1
    for _ in range(10 ** 6):
        a_k = (P + s) // Q
        p_cur, p_prev = a_k * p_cur + p_prev, p_cur
        q_cur, q_prev = a_k * q_cur + q_prev, q_cur
        P = a_k * Q - P
        Q = (disc - P * P) // Q
        a0 = p_cur - q_cur * t
        nrm = _norm_theta(a0, q_cur, t, n)
        if abs(nrm) == 1:
            return (a0, q_cur), nrm
    raise ShintaniError("continued fraction failed to produce a unit")


def _class_number_one_certified(D: int, t: int, n: int) -> bool | None:
    """Try to certify class number one via the Minkowski bound and a
    bounded search for elements of small prime norm.  Returns True when
    certified, None when the search was inconclusive."""
    disc = t * t - 4 * n
    for p in range(2, isqrt(disc) // 2 + 1):
        if _factorize(p) != {p: 1}:
            continue
        if p == 2:
            ramified_or_split = disc % 8 in (0, 1, 4)
        else:
            ramified_or_split = pow(disc % p, (p - 1) // 2, p) != p - 1
        if ramified_or_split and not any(
            abs(_norm_theta(a, b, t, n)) == p
            for b in range(0, 4 * p + 1)
            for a in range(-4 * p - isqrt(D) * b - 2, 4 * p + isqrt(D) * b + 3)
        ):
            return None
    return True


@dataclass
class RealQuadField:
    """Data of a real quadratic field prepared for the cone pipeline.

    theta is the second basis element, theta^2 = t theta - n; eps is the
    fundamental unit and u the totally positive fundamental unit in
    theta-coordinates; u_matrix is multiplication by u in the integral
    basis (1, theta)."""

    D: int
    t: int
    n: int
    disc: int
    eps: tuple
    eps_norm: int
    u: tuple
    u_matrix: tuple
    narrow_h1: bool
    ring: CoeffRing

    def theta_embedding(self, which: int) -> CoeffElem:
        """Image (t +- sqrt(disc))/2 of theta under the two real
        embeddings, sqrt(disc) being k sqrt(D) with k = 1 or 2: the sign of
        sqrt(D) distinguishes them."""
        k = isqrt(self.disc // self.D)
        return self.ring.from_ints({(0, 0): self.t, (0, 1): k if which == 0 else -k}, 2)

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
    if D > MAX_D:
        raise ValueError(f"D must be at most {MAX_D}")
    try:
        ring = CoeffRing(1, D)
    except ValueError:
        raise NotSquareFree("D must be a square-free integer > 1") from None
    refusal = f"could not certify narrow class number one for D={D}"
    # -1 is not a square modulo a prime p = 3 (mod 4) dividing D, so no
    # unit has norm -1 and the narrow class number is 2h
    if not allow_narrow_failure and any(p % 4 == 3 for p in _factorize(D)):
        raise NarrowClassNumberNotOne(refusal)
    t, n = _trace_norm(D)
    eps, nrm = fundamental_unit(D)
    a, b = eps
    u_matrix = ((a, -n * b), (b, a + t * b))  # multiplication by eps in (1, theta)
    if nrm == -1:  # u = eps^2, the square of eps's matrix
        (a, b), (c, d) = u_matrix
        u_matrix = ((a * a + b * c, a * b + b * d), (c * a + d * c, c * b + d * d))
    u = (u_matrix[0][0], u_matrix[1][0])
    # u > 1 with norm +1 is automatically totally positive
    assert _norm_theta(*u, t, n) == 1
    narrow = nrm == -1 and _class_number_one_certified(D, t, n) is True
    if not narrow and not allow_narrow_failure:
        raise NarrowClassNumberNotOne(refusal)
    return RealQuadField(
        D=D, t=t, n=n, disc=t * t - 4 * n, eps=eps, eps_norm=nrm, u=u,
        u_matrix=u_matrix, narrow_h1=narrow, ring=ring,
    )


def trivial_quad_schwartz(K: RealQuadField) -> SchwartzFn:
    """The constant function 1 on the full lattice (trivial character of
    conductor 1)."""
    return SchwartzFn(2, 1, 1, {(0, 0): K.ring.one()}, K.ring)


def quad_L_value(K: RealQuadField, phi: SchwartzFn, r: int):
    """L(phi, -r) through the cone pipeline.

    Decomposes the cocycle on (identity, unit matrix), pairs against the
    residue function, passes to embedding coordinates and extracts (r!)^2
    times the symmetric Laurent coefficient of t1^r t2^r.  Each cone is
    paired for the one numerator degree, 2r + rank, that coefficient
    reads, and the cones' coefficients add.
    For a rational-valued phi the result is asserted rational and returned
    as a Fraction.
    """
    if r < 1:
        raise ValueError("r must be a positive integer")
    if phi.n != 2:
        raise ValueError("need a rank-two residue function")
    if phi.ring.D != K.D:
        raise ShintaniError("residue function ring must contain sqrt(D)")
    combo = sigma_decompose([((1, 0), (0, 1)), K.u_matrix])
    value = _combo_symmetric_laurent(combo, phi, r, r, K.transition_images()) * factorial(r) ** 2
    real_valued = all(v.is_rational() for v in phi.table.values())
    if real_valued:
        if not value.is_rational():
            raise ShintaniError("expected a rational value for a real character")
        return value.rational_part()
    return value


@dataclass
class SCoeffs:
    """Table of scaled power series coefficients of the paired unit
    cocycle: S(m1, m2) = m1! m2! [z1^m1 z2^m2], for m1 + m2 <= 2 rmax."""

    rmax: int
    ring: CoeffRing
    table: dict

    def get(self, m1: int, m2: int) -> CoeffElem:
        return self.table.get((m1, m2), self.ring.zero())


def s_coeffs(K: RealQuadField, phi: SchwartzFn, rmax: int) -> SCoeffs:
    """Power series coefficients in the basis coordinates, paired to degree
    2 rmax; requires the poles to cancel (NotDivisible propagates
    otherwise)."""
    if rmax < 0:
        raise ValueError("rmax must be non-negative")
    combo = sigma_decompose([((1, 0), (0, 1)), K.u_matrix])
    _, den, terms = _power_series_ints(pair_combo(combo, phi, 2 * rmax))
    table = {}
    for (m1, m2), v in sorted(terms.items()):
        scale = factorial(m1) * factorial(m2)
        table[(m1, m2)] = phi.ring.from_ints({k: scale * x for k, x in v.items()}, den)
    return SCoeffs(rmax=rmax, ring=phi.ring, table=table)


def l_value_from_s_coeffs(K: RealQuadField, sc: SCoeffs, r: int):
    """Recombine the coefficient table into L(phi, -r): the entries with
    m1 + m2 = 2r, each S / (m1! m2!), form an honest series of degree 2r,
    read in embedding coordinates like the paired series of quad_L_value."""
    if r > sc.rmax:
        raise TruncationTooSmall("table does not reach degree 2r")
    den, rows = _split_zeta(sc.ring, {m1: s * Fraction(1, factorial(m1) * factorial(m2))
                                      for (m1, m2), s in sc.table.items() if m1 + m2 == 2 * r})
    images = _clear_real(sc.ring, K.transition_images())
    return _symmetric_coeff(sc.ring, den, rows, (), r, r, images) * factorial(r) ** 2
