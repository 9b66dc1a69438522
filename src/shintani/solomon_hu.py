"""Pairing of cone combos with arithmetic test functions into quotient
series.

A test function is given by a support lattice (1/d)Z^n, a period lattice
f Z^n and a finite residue table.  Pairing an open simplicial cone against
it produces a quotient series: a truncated multivariate power series
numerator over a multiset of linear denominator forms v.z, where

    1 / (1 - exp(v.z)) = - g(v.z) / (v.z),
    g(t) = t / (exp(t) - 1) = sum_m B_m t^m / m!,

so the numerator is the parallelotope exponential sum times the product
of the -g factors, with the pole data carried exactly by the denominator
multiset.  Each form v is a vector of plain ints, f times a primitive
cone generator, from the pairing to the Laurent coefficient.  The numerator
is built in integers (``_numerator``).  In one variable the g-product is
one int per degree, and each degree's coefficient is a polynomial in the
point k, read by Horner's rule per point and summed per value group
(``_series_1var``); in more, the series is kept by homogeneous component,
and every component of every product comes from one graded product,
``_product`` (``_series_graded``).  The kernel returns the ints of each
coefficient over one denominator, which a ``QuotSeries`` keeps through the
cone sums, the reduction and the readers; CoeffElem appears only in
``QuotSeries.num``, ``to_json`` and the readers' results.  All
coefficients of the represented Laurent expansion up to the tracked degree
are exact.

A Laurent coefficient of total degree m reads only the degree m + rank
component of each cone's numerator and is linear in the series, so the
L-value routes ask the kernel for that component alone and add the cones'
coefficients (``_combo_value``); ``pair_combo`` builds every degree.

A two-variable series is read in embedding coordinates z = T t in
Z[sqrt D] integers by one call, ``symmetric_laurent_coeff(q, m1, m2,
images)``.  Every number that step touches lies in Q(sqrt D) apart from
the numerator's zeta parts, and the step is linear in the numerator, so
a coefficient splits by zeta index into slices x + y sqrt D and each
slice runs on integer pairs (x, y) over one positive denominator
(``_zeta_rows`` on the series' ints; the images are cleared by
``CoeffRing.clear`` and split the same way in ``_clear_real``).  One
integer Horner routine, ``_horner``, evaluates a homogeneous component for
both ``MSeries.substitute_linear`` and the extraction; each integer form v
becomes T^t v as an integer combination of the cleared images; and the
Laurent coefficient comes from a fraction-free inverse series and one
division by a Z[sqrt D] integer, made rational by its conjugate.  No step multiplies two ring
elements or inverts one, and each returns one Fraction per component.
Both steps refuse a series or image list that is not binary, and an image
with a zeta component, with ValueError.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate, product
from math import gcd, lcm, prod
from operator import mul

from .cone_algebra import ConeCombo, OpenSimplicialCone
from .errors import (
    ConstantAgainstNonVanishing,
    NotDivisible,
    ShintaniError,
    TruncationTooSmall,
    ZeroForm,
)
from .exactnum import CoeffElem, CoeffRing, QQ, bernoulli_number
from .linalg import frac, idot, reduce_rows, solve_columns


# ---------------------------------------------------------------------------
# Truncated multivariate power series over a coefficient ring
# ---------------------------------------------------------------------------

class MSeries:
    """Power series in z_1..z_n truncated at a total degree (the
    reliability bound), coefficients in a CoeffRing: the ring-element view
    of QuotSeries.num and reduce_to_power_series.  Values are coerced into
    the ring (a float or bool raises TypeError); zero terms and terms above
    the truncation are dropped."""

    __slots__ = ("ring", "nvars", "trunc", "terms")

    def __init__(self, ring: CoeffRing, nvars: int, trunc: int, terms=None):
        self.ring = ring
        self.nvars = nvars
        self.trunc = trunc
        coerced = ((e, ring.coerce(c)) for e, c in (terms or {}).items())
        self.terms = {e: c for e, c in coerced if c and sum(e) <= trunc}

    def coeff(self, e) -> CoeffElem:
        return self.terms.get(tuple(e), self.ring.zero())

    def substitute_linear(self, images) -> "MSeries":
        """Substitute z_j = images[j][0] t_1 + images[j][1] t_2 in a series
        of two variables, in Z[sqrt D] integers.  The images must be two
        pairs in Q(sqrt D) (otherwise, or for a series of another arity,
        ValueError) and are cleared to Z[sqrt D] by the lcm s of their
        denominators (_clear_real).  Each
        homogeneous component of degree m is cleared to integers over one
        denominator P and split by zeta index (_split_zeta); each slice is
        a binary form evaluated by _horner, and each coefficient of the
        result is read over s^m P.  Linearity preserves homogeneous
        degrees, so the truncation bound carries over exactly.  Nothing in
        the package calls it; it stays because the benchmark's tracer wraps
        it by name."""
        if self.nvars != 2:
            raise ValueError("substitution needs a binary series")
        ring = self.ring
        sqd = ring.D or 0
        s, (z1, z2) = _clear_real(ring, images)
        components = {}  # degree m -> {a: c_a}
        for (i, j), c in self.terms.items():
            components.setdefault(i + j, {})[i] = c
        terms = {}
        for m, comp in components.items():
            den, slices = _split_zeta(ring, comp)
            out = [{} for _ in range(m + 1)]
            for i, row in slices.items():
                for ints, (x, y) in zip(out, _horner(row, m, z1, z2, sqd)):
                    ints[(i, 0)], ints[(i, 1)] = x, y
            terms.update(((p, m - p), ring.from_ints(c, s ** m * den)) for p, c in enumerate(out))
        return MSeries(ring, 2, self.trunc, terms)

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


def _times_linear(form, a, b, sqd):
    """The binary form given by its Z[sqrt D] coefficients (x, y) by the
    power of t_1, times a t_1 + b t_2 with a, b in Z[sqrt D] (sqd is D,
    or 0 for a ring without sqrt D): a two-tap step on the list."""
    (ax, ay), (bx, by) = a, b
    out = []
    px = py = 0  # the coefficient one power of t_1 lower
    for x, y in form:
        out.append((x * bx + sqd * y * by + px * ax + sqd * py * ay,
                    x * by + y * bx + px * ay + py * ax))
        px, py = x, y
    out.append((px * ax + sqd * py * ay, px * ay + py * ax))
    return out


def _horner(row, m, z1, z2, sqd):
    """sum_a c_a z_1^a z_2^(m-a) as a binary form, its m + 1 Z[sqrt D]
    pairs by the power of t_1: row maps a to the pair of c_a, and z1, z2
    are the images of z_1, z_2.  Horner's rule in z_2, acc <- acc z_2 +
    c_a z_1^a for a = 0..m, with z_1^a built along, in integers."""
    acc = [row.get(0, (0, 0))]
    power = [(1, 0)]
    for a in range(1, m + 1):
        acc = _times_linear(acc, *z2, sqd)
        power = _times_linear(power, *z1, sqd)
        c = row.get(a)
        if c is not None:
            cx, cy = c
            acc = [(x + cx * px + sqd * cy * py, y + cx * py + cy * px)
                   for (x, y), (px, py) in zip(acc, power)]
    return acc


def _zmul(u, v, sqd):
    """Product of two Z[sqrt D] integers given as pairs (x, y)."""
    (ux, uy), (vx, vy) = u, v
    return ux * vx + sqd * uy * vy, ux * vy + uy * vx


def _clear_real(ring, images):
    """Images of the two variables, coerced into the ring, cleared from
    Q(sqrt D) to Z[sqrt D] through _split_zeta: the lcm s of their
    denominators and the rows of integer pairs (x, y), each entry being
    (x + y sqrt D) / s.  Images other than two pairs, or with a zeta
    component, raise ValueError."""
    if len(images) != 2 or any(len(img) != 2 for img in images):
        raise ValueError("substitution needs binary images")
    elems = {(r, c): ring.coerce(e) for r, img in enumerate(images) for c, e in enumerate(img)}
    s, slices = _split_zeta(ring, elems)
    zeta = [key for i, row in slices.items() if i for key in row]
    if zeta:
        raise ValueError(f"image {elems[min(zeta)]!r} has a zeta component; "
                         "only Q(sqrt D) is supported")
    real = slices.get(0, {})
    return s, [[real.get((r, c), (0, 0)) for c in range(2)] for r in range(2)]


def _split_zeta(ring, elems):
    """Ring elements {key: elem} cleared by ring.clear and split by zeta
    index: the denominator P and {i: {key: (x, y)}} with
    elems[key] = sum_i zeta^i (x + y sqrt D) / P."""
    den, ints = ring.clear(elems.values())
    return den, _zeta_rows(zip(elems, ints))


def _zeta_rows(entries):
    """{i: {key: (x, y)}} from entries (key, {(i, j): int}), the ints of
    one element as CoeffRing.clear gives them: (x, y) are the ints at
    (i, 0) and (i, 1)."""
    slices = {}
    for key, c in entries:
        for (i, j), v in c.items():
            row = slices.setdefault(i, {})
            x, y = row.get(key, (0, 0))
            row[key] = (x, v) if j else (v, y)
    return slices


def _moments(points, weights, trunc, layout):
    """sum_k w_k k^e over integer vectors k with weights w_k, for every
    entry (c, i, j) of a layout (see _series_graded): k^e is the product of
    the powers of k_1 .. k_(n-1) that index i spells, times k_n^j, and a
    hole (j < 0) holds 0.  weights maps each basis key to its column of
    w_k, and the result maps it to its list of moments.  Every power is
    kept as a column over the points, so each moment is one sum of
    products; one point (every g factor, a ray's point when d f = 1)
    takes its monomials directly."""
    if not weights:
        return {}
    if len(points) == 1:
        pows = [list(accumulate([x] * trunc, mul, initial=1)) for x in points[0]]
        head = [1]
        for col in reversed(pows[:-1]):
            head = [x * y for x in col for y in head]
        last = pows[-1] + [0]
        mono = [head[i] * last[j] for _, i, j in layout]
        return {b: [w * m for m in mono] for b, (w,) in weights.items()}
    cols = []
    for xs in zip(*points):  # per variable, its powers 0 .. trunc as columns
        col = [[1] * len(points)]
        for _ in range(trunc):
            col.append(list(map(mul, col[-1], xs)))
        cols.append(col)
    last = cols[-1] + [[0] * len(points)]
    out = {}
    for b, w in weights.items():
        head = [w]  # by index: the weights times the powers its digits name
        for col in reversed(cols[:-1]):
            head = [list(map(mul, x, y)) for x in col for y in head]
        out[b] = [sum(map(mul, head[i], last[j])) for _, i, j in layout]
    return out


def _product(x, taps, low=0):
    """The product of two graded series, each from degree 0, x as its
    components and y as its taps, per component the (index, value) pairs
    of its nonzero entries, in the degrees low .. len(x) - 1: component c
    is the sum over a + b = c of the 1-D convolutions of x[a] and y[b]."""
    out = []
    for c in range(low, len(x)):
        comp = [0] * len(x[c])
        for xa, yb in zip(x, taps[c::-1]):
            for i, u in enumerate(xa):
                if u:
                    for j, v in yb:
                        comp[i + j] += u * v
        out.append(comp)
    return out


def _numerator(ring, nvars, trunc, d, groups, gens=(), low=0):
    """sum_p phi(p) exp(p.z) prod_{v in gens} (-g(v.z)) truncated at trunc,
    for groups (value, integer points k = d p) of points sharing one value:
    the integer kernel of pair_cone and of the L-value routes, which read
    only the degree-trunc component (low = trunc).  Returns (den, terms),
    terms mapping each exponent of total degree low .. trunc with a nonzero
    coefficient to that coefficient's ints {key: int} over den, as
    CoeffRing.clear gives them (CoeffRing.from_ints reads one back).

    The z^e coefficient of the exponential sum is sum_k value(k) k^e /
    (d^|e| e!), an integer weight d^(trunc-|e|) trunc!/e! over d^trunc
    trunc!; a factor g(v.z) has the z^e coefficient B_|e| v^e / e!, an
    integer over B trunc! with B the lcm of the Bernoulli denominators.
    The values are cleared to integers over the lcm D of their
    denominators, so den is d^trunc trunc! D (-B trunc!)^len(gens).  One
    variable takes _series_1var and more take _series_graded."""
    fact = list(accumulate(range(1, trunc + 1), mul, initial=1))
    bern = [bernoulli_number(c) for c in range(trunc + 1)]
    bden = lcm(*(b.denominator for b in bern))
    bern = [b.numerator * (bden // b.denominator) for b in bern]
    den, values = ring.clear([value for value, _ in groups])
    den *= d ** trunc * fact[trunc] * (-bden * fact[trunc]) ** len(gens)
    if nvars == 1:
        return den, _series_1var(trunc, d, groups, values, gens, low, fact, bern)
    return den, _series_graded(nvars, trunc, d, groups, values, gens, low, fact, bern)


def _series_1var(trunc, d, groups, values, gens, low, fact, bern):
    """_numerator's terms in one variable, where the g-product is one int
    G_c per degree, each factor's ints convolved into it: the degree-c
    coefficient is the sum over groups of the value's ints times sum_k
    P_c(k), P_c(k) = sum_(a <= c) d^(trunc-a) (trunc!/a!) G_(c-a) k^a read
    by Horner's rule at each point, and each group's sum goes into its
    value's nonzero ints only: no moment is kept and no key loops over
    the points."""
    g = [1] + [0] * trunc  # the g-product, from the empty product
    for (v,) in gens:
        powers = accumulate([v] * trunc, mul, initial=1)
        h = [b * (fact[trunc] // fact[c]) * x for c, (b, x) in enumerate(zip(bern, powers))]
        g = [sum(map(mul, g[:c + 1], h[c::-1])) for c in range(trunc + 1)]
    weights = [d ** (trunc - a) * (fact[trunc] // fact[a]) for a in range(trunc + 1)]
    terms = {}
    for c in range(low, trunc + 1):
        poly = [w * x for w, x in zip(weights[c::-1], g)]  # highest power of k first
        acc = {}
        for (_, pts), value in zip(groups, values):
            total = 0
            for (k,) in pts:
                p = 0
                for x in poly:
                    p = p * k + x
                total += p
            if total:
                for b, x in value.items():
                    acc[b] = acc.get(b, 0) + x * total
        acc = {b: x for b, x in acc.items() if x}
        if acc:
            terms[(c,)] = acc
    return terms


def _series_graded(nvars, trunc, d, groups, values, gens, low, fact, bern):
    """_numerator's terms in two or more variables.  A degree-c component
    is one list of ints indexed by the exponents of z_1 .. z_(n-1) as the
    digits of a number in base trunc + 1, z_1 the most significant (an
    index whose digits sum past c holds 0), and z_n takes the rest of the
    degree: c + 1 ints by the power of z_1 in two variables.  No digit of
    a product index carries, so components multiply by 1-D convolution
    (_product), with no table of exponent pairs.

    The moments sum_k value(k) k^e (_moments) are weighted as _numerator
    says, and per basis key _product multiplies them by the g-product,
    kept as its taps, in the degrees low .. trunc; a lower degree of
    either factor still feeds a higher degree of the product."""
    width = (trunc + 1) ** (nvars - 2)  # index growth per degree
    digit_sum, digit_fact = [0], [1]  # by index, over the exponents of z_1 .. z_(n-1)
    for _ in range(nvars - 1):
        digit_sum = [x + y for x in range(trunc + 1) for y in digit_sum]
        digit_fact = [x * y for x in fact for y in digit_fact]
    # the entries (degree c, index i, exponent j of z_n) end to end; j < 0 in a hole
    layout = [(c, i, c - digit_sum[i]) for c in range(trunc + 1) for i in range(c * width + 1)]
    spans = [slice(c * (c - 1) // 2 * width + c, c * (c + 1) // 2 * width + c + 1)
             for c in range(trunc + 1)]  # of each component in the layout
    rel = [fact[trunc] // (digit_fact[i] * fact[j]) if j >= 0 else 0
           for _, i, j in layout]  # trunc! / e!
    taps = [[(0, 1)]] + [[]] * trunc  # of the g-product, from the empty product
    for i, v in enumerate(gens):
        powers = _moments([v], {0: [1]}, trunc, layout)[0]
        g = [bern[c] * w * x for (c, _, _), w, x in zip(layout, rel, powers)]
        g = [g[span] for span in spans]
        g = _product(g, taps) if i else g
        taps = [[(j, t) for j, t in enumerate(comp) if t] for comp in g]
    points = [k for _, pts in groups for k in pts]
    owner = [value for (_, pts), value in zip(groups, values) for _ in pts]
    moments = _moments(points, {b: [value.get(b, 0) for value in owner]
                                for b in {b for value in values for b in value}}, trunc, layout)
    dpow = [d ** (trunc - c) for c in range(trunc + 1)]
    weights = [dpow[c] * w for (c, _, _), w in zip(layout, rel)]
    digits = list(product(range(trunc + 1), repeat=nvars - 1))
    terms = {}
    for b, acc in moments.items():
        acc = list(map(mul, acc, weights))
        acc = [acc[span] for span in spans]
        for c, comp in enumerate(_product(acc, taps, low), low):
            for i, a in enumerate(comp):
                if a:
                    terms.setdefault((*digits[i], c - digit_sum[i]), {})[b] = a
    return terms


# ---------------------------------------------------------------------------
# Test functions on the finite adeles: lattice data plus a residue table
# ---------------------------------------------------------------------------

class SchwartzFn:
    """Locally constant test function: supported on (1/d)Z^n, invariant
    under translation by f Z^n, given by a finite residue table.

    Table keys are tuples of plain ints k with k = d*w mod d*f (any other
    entry raises TypeError); missing keys mean value zero.  The function
    vanishes near zero exactly when the zero residue class has value zero.
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
            k = tuple(_json_int(x) % mod for x in k)
            if len(k) != n:
                raise ValueError("bad residue key length")
            v = self.ring.coerce(v)
            if v:
                tbl[k] = v
        self.table = tbl

    def value_at(self, w) -> CoeffElem:
        """Value at a rational point; zero off the support lattice, and a
        point of another dimension is refused, not truncated or padded."""
        if len(w) != self.n:
            raise ValueError("point dimension mismatch")
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
                {"class": list(k), "value": v.to_json()}
                for k, v in sorted(self.table.items())
            ],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "SchwartzFn":
        ring = CoeffRing(doc.get("zeta_order", 1), doc.get("sqrt"))
        table = {
            tuple(_json_int(x) for x in entry["class"]): _coeff_from_json(ring, entry["value"])
            for entry in doc.get("values", [])
        }
        return SchwartzFn(doc["n"], doc.get("d", 1), doc.get("f", 1), table, ring)


def _json_int(x) -> int:
    """A JSON integer; bools, floats and strings are refused."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise TypeError(f"expected an integer, got {x!r}")
    return x


def _coeff_from_json(ring: CoeffRing, doc) -> CoeffElem:
    """A rational, or [i, j, c] triples whose (i, j) index the ring's basis."""
    if isinstance(doc, list):
        coeffs = {(_json_int(i), _json_int(j)): frac(c) for i, j, c in doc}
        outside = sorted(set(coeffs) - set(ring.basis()))
        if outside:
            raise ValueError(f"basis indices {outside} lie outside the ring")
        return ring.elem(coeffs)
    return ring.from_rat(frac(doc))


# ---------------------------------------------------------------------------
# Half-open parallelotope enumeration
# ---------------------------------------------------------------------------

def parallelotope_points(gens, d: int, f: int):
    """Points p of the support lattice (1/d)Z^n inside the half-open
    parallelotope {sum x_i g_i : x_i in (0, 1]}, as their integer vectors
    k = d p in lexicographic order; the point k/d is left implicit.

    The generators are vectors of plain ints in f Z^n: any other entry
    raises TypeError, an entry off f Z raises ValueError.  Scans the
    integer points k of the bounding box scaled by d; each k is one
    integer solve_columns, (den, y) with sum y_i g_i = den k, and is kept
    when 0 < y_i <= d den, i.e. 0 < x_i <= 1 for x_i = y_i / (d den).
    The box is that of the generators as given; pair_cone passes
    generators shortened by linalg.reduce_rows, which keeps the points up
    to a unimodular change of coordinates."""
    for g in gens:
        for x in g:
            if type(x) is not int:
                raise TypeError(f"generator entries must be ints, got {x!r}")
            if x % f:
                raise ValueError("generators must lie in the period lattice")
    ranges = [
        range(d * sum(min(0, x) for x in col), d * sum(max(0, x) for x in col) + 1)
        for col in zip(*gens)
    ]
    out = []
    for k in product(*ranges):
        sol = solve_columns(gens, k)
        if sol is not None and all(0 < y <= d * sol[0] for y in sol[1]):
            out.append(k)
    return out


def _ray_points(g, mod: int):
    """parallelotope_points([f g], d, f) in closed form for a primitive g
    and mod = d f: k = j g for j = 1 .. mod, in lexicographic order; no
    two of these points share a residue class mod d f."""
    steps = range(1, mod + 1) if next(x for x in g if x) > 0 else range(mod, 0, -1)
    return [tuple([j * x for x in g]) for j in steps]


# ---------------------------------------------------------------------------
# Quotient series
# ---------------------------------------------------------------------------

class QuotSeries:
    """num / prod(v.z over the denominator multiset), with the numerator
    truncated at trunc = dmax + len(denoms) so every represented Laurent
    coefficient of total degree <= dmax is exact.

    The numerator is _numerator's integer form: terms maps each exponent
    to the nonzero ints {key: int} of its coefficient over one den > 0.
    The constructor clears an MSeries numerator once, and num builds one.

    Each denominator form v is a nonzero vector of plain ints (an entry of
    any other type raises TypeError), as pair_cone makes them: f times a
    primitive cone generator.  The multiset is kept sorted entrywise with
    a zero entry before every nonzero one."""

    __slots__ = ("ring", "nvars", "trunc", "den", "terms", "denoms")

    def __init__(self, num: MSeries, denoms=()):
        den, ints = num.ring.clear(num.terms.values())
        self._fill(num.ring, num.nvars, num.trunc, den, dict(zip(num.terms, ints)), denoms)

    @classmethod
    def _of_ints(cls, ring, nvars, trunc, den, terms, denoms=()):
        """The series terms / den over the forms, den a nonzero int."""
        q = cls.__new__(cls)
        q._fill(ring, nvars, trunc, den, terms, denoms)
        return q

    def _fill(self, ring, nvars, trunc, den, terms, denoms):
        forms = []
        for form in denoms:
            form = tuple(form)
            for x in form:
                if type(x) is not int:
                    raise TypeError(f"denominator entries must be ints, got {x!r}")
            if not any(form):
                raise ZeroForm("zero linear form in denominator")
            forms.append(form)
        forms.sort(key=lambda form: [(x != 0, x) for x in form])
        if den < 0:
            den, terms = -den, {e: {k: -x for k, x in v.items()} for e, v in terms.items()}
        self.ring = ring
        self.nvars = nvars
        self.trunc = trunc
        self.den = den
        self.terms = terms
        self.denoms = tuple(forms)

    @property
    def num(self) -> MSeries:
        return MSeries(self.ring, self.nvars, self.trunc,
                       {e: self.ring.from_ints(v, self.den) for e, v in self.terms.items()})

    @property
    def dmax(self) -> int:
        return self.trunc - len(self.denoms)

    def scale(self, c) -> "QuotSeries":
        """The series times a rational c."""
        c = frac(c)
        terms = {e: {k: c.numerator * x for k, x in v.items()}
                 for e, v in self.terms.items()} if c else {}
        return QuotSeries._of_ints(self.ring, self.nvars, self.trunc, self.den * c.denominator,
                                   terms, self.denoms)

    def __add__(self, other: "QuotSeries") -> "QuotSeries":
        """Addition over the least common denominator multiset and the lcm
        of the dens: each numerator is multiplied by the forms the other
        side has more of.  The tracked degree is the smaller one."""
        if self.nvars != other.nvars:
            raise ShintaniError("mixed variable counts")
        if not self.ring.same(other.ring):
            raise ShintaniError("mixed series rings")
        mine = Counter(self.denoms)
        theirs = Counter(other.denoms)
        common = mine | theirs
        forms = list(common.elements())
        trunc = min(self.dmax, other.dmax) + len(forms)
        den = lcm(self.den, other.den)
        out = {}
        for q, extra in ((self, common - mine), (other, common - theirs)):
            for e, v in _times_forms(q.terms, den // q.den, extra.elements()).items():
                if sum(e) <= trunc:
                    acc = out.setdefault(e, {})
                    for k, x in v.items():
                        acc[k] = acc.get(k, 0) + x
        terms = {e: w for e, v in out.items() if (w := {k: x for k, x in v.items() if x})}
        return QuotSeries._of_ints(self.ring, self.nvars, trunc, den, terms, forms)

    def is_zero_series(self) -> bool:
        return not self.terms

    def to_json(self) -> dict:
        return {
            "nvars": self.nvars,
            "dmax": self.dmax,
            "zeta_order": self.ring.m,
            "sqrt": self.ring.D,
            "denoms": [[str(x) for x in form] for form in self.denoms],
            "coeffs": [
                {"deg": list(e), "value": self.ring.from_ints(v, self.den).to_json()}
                for e, v in sorted(self.terms.items())
            ],
        }


def _times_forms(terms, c, forms):
    """Integer terms times the int c and each linear form v.z (no constant
    term, so exact one degree further), zero ints kept."""
    out = {e: {k: c * x for k, x in v.items()} for e, v in terms.items()}
    for form in forms:
        terms, out = out, {}
        for e, v in terms.items():
            for i, a in enumerate(form):
                if a:
                    acc = out.setdefault(e[:i] + (e[i] + 1,) + e[i + 1:], {})
                    for k, x in v.items():
                        acc[k] = acc.get(k, 0) + a * x
    return out


# ---------------------------------------------------------------------------
# The pairing
# ---------------------------------------------------------------------------

def _cone_points(cone: OpenSimplicialCone, phi: SchwartzFn):
    """The generators of a cone scaled into the period lattice and the
    groups (value, points) of its paired points, for _numerator (see
    pair_cone)."""
    if cone.ambient != phi.n:
        raise ValueError("cone and test function dimensions differ")
    mod = phi.d * phi.f
    scaled = [tuple(phi.f * x for x in g) for g in cone.generators]
    if cone.dim == 1:
        points = _ray_points(cone.generators[0], mod)
    else:
        rows, back = reduce_rows(scaled)
        points = parallelotope_points(rows, phi.d, phi.f)
        if back is not None:
            points = [tuple(idot(b, k) for b in back) for k in points]
    classes = {}
    for k in points:
        classes.setdefault(tuple(x % mod for x in k), []).append(k)
    return scaled, [(phi.table[c], pts) for c, pts in classes.items() if c in phi.table]


def pair_cone(cone: OpenSimplicialCone, phi: SchwartzFn, dmax: int) -> QuotSeries:
    """Pairing of one open simplicial cone with a test function.

    Scales each generator into the period lattice (the least multiple of
    a primitive generator in f Z^n is f times it) and returns the quotient
    series sum_p phi(p) exp(p.z) prod_i (-g(v_i.z)) / prod_i v_i.z, p over
    the half-open parallelotope of the scaled generators v_i, each point
    as its integer vector k = d p.  The points of a ray come in closed
    form (_ray_points), with no scan and no solve; a cone of two or more
    generators is scanned in a reduced basis: linalg.reduce_rows gives a
    unimodular U of Z^n that shortens the coordinate rows of the
    generators, parallelotope_points scans the smaller box of the U v_i,
    one integer solve per candidate, and yields integer vectors
    k' = d p', and each maps back to k = U^-1 k' (no mapping when U is
    the identity).
    The value of the point k / d is read from the residue table at
    k mod d f, and points of an absent class contribute nothing.  The
    numerator comes from the integer kernel _numerator, every degree up to
    dmax + rank.
    """
    scaled, groups = _cone_points(cone, phi)
    trunc = dmax + cone.dim
    den, terms = _numerator(phi.ring, phi.n, trunc, phi.d, groups, scaled)
    return QuotSeries._of_ints(phi.ring, phi.n, trunc, den, terms, scaled)


def _combo_cones(combo: ConeCombo, phi: SchwartzFn):
    """The (coefficient, cone) terms of a combo in the sorted order they are
    paired in, once a nonzero constant offset is known to pair to zero:
    that requires the test function to vanish near zero."""
    if combo.constant != 0 and not phi.vanishes_near_zero:
        raise ConstantAgainstNonVanishing(
            "constant offset paired against a test function with phi(0) != 0"
        )
    return sorted(combo.terms, key=lambda t: t[1].generators)


def pair_combo(combo: ConeCombo, phi: SchwartzFn, dmax: int) -> QuotSeries:
    """Coefficient-weighted pairing of a whole combo: the sum of its cones'
    quotient series, over the max-multiplicity union of their denominator
    forms and exact through total degree dmax.  The sum starts from the
    first cone's series and adds the others; a cone of coefficient 1
    (every cone sigma_decompose makes) is added unscaled, and a combo
    without cones pairs to the zero series at dmax.

    A nonzero constant offset requires the test function to vanish near
    zero, in which case the constant pairs to zero.  Cones are processed
    in a deterministic sorted order.
    """
    total = None
    for coeff, cone in _combo_cones(combo, phi):
        q = pair_cone(cone, phi, dmax)
        if coeff != 1:
            q = q.scale(coeff)
        total = q if total is None else total + q
    if total is None:
        return QuotSeries._of_ints(phi.ring, phi.n, dmax, 1, {})
    return total


def _combo_value(combo: ConeCombo, phi: SchwartzFn, degree: int, read) -> CoeffElem:
    """A Laurent coefficient of total degree `degree` of pair_combo(combo,
    phi, degree), cone by cone: each cone is paired for the one numerator
    component the coefficient reads, degree + rank (_numerator with low
    at that degree), read(den, terms, forms) gives that cone's coefficient,
    and the coefficients add, since a Laurent coefficient is linear in the
    series and the sum of the cones' series is the combo's.  No series of
    any other degree is built."""
    values = []
    for coeff, cone in _combo_cones(combo, phi):
        forms, groups = _cone_points(cone, phi)
        trunc = degree + cone.dim
        den, terms = _numerator(phi.ring, phi.n, trunc, phi.d, groups, forms, low=trunc)
        value = read(den, terms, forms)
        values.append(value if coeff == 1 else value * coeff)
    return sum(values, phi.ring.zero())


def _combo_laurent_1var(combo: ConeCombo, phi: SchwartzFn, k: int) -> CoeffElem:
    """laurent_coeff_1var(pair_combo(combo, phi, k), k), phi of one
    variable, built for the one degree it reads (_combo_value)."""
    return _combo_value(combo, phi, k, lambda den, terms, forms: _laurent_1var(
        phi.ring, den, terms, forms, k))


def _combo_symmetric_laurent(combo: ConeCombo, phi: SchwartzFn, m1: int, m2: int,
                             images) -> CoeffElem:
    """symmetric_laurent_coeff(pair_combo(combo, phi, m1 + m2), m1, m2,
    images), phi of two variables, built for the one degree it reads
    (_combo_value)."""
    images = _clear_real(phi.ring, images)
    return _combo_value(combo, phi, m1 + m2, lambda den, terms, forms: _symmetric_coeff(
        phi.ring, den, _zeta_rows((e[0], v) for e, v in terms.items()), forms, m1, m2, images))


# ---------------------------------------------------------------------------
# Exact reduction to an honest power series
# ---------------------------------------------------------------------------

def _divide_by_linear(trunc, den, terms, form):
    """Exact division of terms / den, truncated at trunc, by the linear
    form, largest monomial first: (trunc - 1, den |p|^trunc, quotient).
    Scaling by |p|^trunc, p the pivot entry, makes each step exact, since
    a remainder of pivot exponent t is a multiple of p^t; it changes no
    remainder's vanishing, so a genuine pole raises NotDivisible at the
    monomial a division over the rationals would name."""
    pivot = next(j for j, c in enumerate(form) if c)  # QuotSeries refuses zero forms
    p = form[pivot]
    scale = abs(p) ** trunc
    others = [(j, a) for j, a in enumerate(form) if a and j != pivot]
    rem = {e: {k: scale * x for k, x in v.items()} for e, v in terms.items()}
    quo = {}
    while rem:
        e = max(rem)
        c = {k: x for k, x in rem.pop(e).items() if x}
        if not c:  # a remainder that cancelled
            continue
        if e[pivot] == 0:
            raise NotDivisible(
                f"pole survives along form {form} at monomial {e}", form=form
            )
        qe = e[:pivot] + (e[pivot] - 1,) + e[pivot + 1:]
        quo[qe] = qc = {k: x // p for k, x in c.items()}
        for j, a in others:
            acc = rem.setdefault(qe[:j] + (qe[j] + 1,) + qe[j + 1:], {})
            for k, x in qc.items():
                acc[k] = acc.get(k, 0) - a * x
    return trunc - 1, den * scale, quo


def _power_series_ints(q: QuotSeries):
    """(trunc, den, terms) of reduce_to_power_series(q), the ints and den
    divided by their gcd after each division, so that the pivot powers
    _divide_by_linear scales by do not pile up from form to form."""
    trunc, den, terms = q.trunc, q.den, q.terms
    for form in q.denoms:
        trunc, den, terms = _divide_by_linear(trunc, den, terms, form)
        g = gcd(den, *(x for v in terms.values() for x in v.values()))
        if g > 1:
            den //= g
            terms = {e: {k: x // g for k, x in v.items()} for e, v in terms.items()}
    return trunc, den, terms


def reduce_to_power_series(q: QuotSeries) -> MSeries:
    """Divide the numerator by every denominator form; the result is an
    honest power series, exact through the tracked degree."""
    trunc, den, terms = _power_series_ints(q)
    return MSeries(q.ring, q.nvars, trunc, {e: q.ring.from_ints(v, den) for e, v in terms.items()})


# ---------------------------------------------------------------------------
# Laurent coefficient extraction
# ---------------------------------------------------------------------------

def laurent_coeff_1var(q: QuotSeries, k: int) -> CoeffElem:
    """Laurent coefficient of z^k of a one-variable quotient series."""
    if q.nvars != 1:
        raise ValueError("one-variable extraction only")
    if k > q.dmax:
        raise TruncationTooSmall(f"coefficient {k} beyond tracked degree {q.dmax}")
    return _laurent_1var(q.ring, q.den, q.terms, q.denoms, k)


def _laurent_1var(ring, den, terms, forms, k) -> CoeffElem:
    """The z^k Laurent coefficient of terms / den over one-variable forms."""
    return ring.from_ints(terms.get((k + len(forms),), {}), den * prod(form[0] for form in forms))


def _iterated_coeff(slices, forms, k, main, m_main, m_other, sqd):
    """Coefficient of t_main^m_main t_other^m_other in the expansion that
    treats t_other as infinitesimally smaller than t_main, fraction-free:
    ({i: N_i}, W) with N_i and W in Z[sqrt D], the coefficient being
    sum_i zeta^i N_i / W times the rational factor symmetric_laurent_coeff
    applies.  slices is the substituted degree-k numerator split by zeta
    index, each slice its k + 1 Z[sqrt D] pairs by the power of t_1, and
    forms the denominator forms s T^t v as Z[sqrt D] pairs.

    On t_main = 1 the numerator is a polynomial p(v) in v = t_other and
    each form (a, b) is a + b v.  A form with a = 0 puts its b into the
    constant product C and raises the target degree by one; the others
    multiply into Q(v) with constant term q_0, and 1/Q = sum R_j v^j is
    read through S_j = R_j q_0^(j+1): S_0 = 1, S_j = -sum_i Q_i S_(j-i)
    q_0^(i-1).  The coefficient is sum_j p_j S_(target-j) q_0^j over
    W = q_0^(target+1) C."""
    other = 1 - main
    extra_v = 0
    const = (1, 0)
    qcoeffs = [(1, 0)]
    for form in forms:
        a, b = form[main], form[other]
        if a == (0, 0):
            extra_v += 1
            const = _zmul(const, b, sqd)
        else:
            qcoeffs = _times_linear(qcoeffs, b, a, sqd)
    target = m_other + extra_v
    if target < 0:
        return {}, (1, 0)
    q0 = qcoeffs[0]
    q0_powers = [(1, 0)]
    for _ in range(target + 1):
        q0_powers.append(_zmul(q0_powers[-1], q0, sqd))
    series = [(1, 0)]
    for j in range(1, target + 1):
        sx = sy = 0
        for i in range(1, min(j, len(qcoeffs) - 1) + 1):
            x, y = _zmul(_zmul(qcoeffs[i], series[j - i], sqd), q0_powers[i - 1], sqd)
            sx -= x
            sy -= y
        series.append((sx, sy))
    # weights[j] multiplies p_j: S_(target-j) q_0^j
    weights = [_zmul(series[target - j], q0_powers[j], sqd)
               for j in range(min(target, k) + 1)]
    out = {}
    for i, row in slices.items():
        nx = ny = 0
        for j, w in enumerate(weights):
            x, y = _zmul(row[k - j if main == 0 else j], w, sqd)
            nx += x
            ny += y
        out[i] = (nx, ny)
    return out, _zmul(q0_powers[target + 1], const, sqd)


def symmetric_laurent_coeff(q: QuotSeries, m1: int, m2: int, images) -> CoeffElem:
    """Coefficient of t_1^m1 t_2^m2 of a two-variable quotient series read
    in the coordinates z_j = images[j][0] t_1 + images[j][1] t_2: the
    average of the two iterated-Laurent extractions.  For an honest power
    series both agree with the plain coefficient, and for surviving poles
    this is the finite part that the two-sided Mellin split produces.

    The coefficient is homogeneous of degree k = m1 + m2 + #forms in the
    numerator, so only that component is read: its ints over the series'
    den, split by zeta index (_zeta_rows), go to _symmetric_coeff.  A series that is not binary, images other
    than two pairs and an image with a zeta component raise ValueError,
    m1 + m2 past dmax TruncationTooSmall, and a form whose image vanishes
    ZeroForm."""
    if q.nvars != 2:
        raise ValueError("two-variable extraction only")
    if m1 + m2 > q.dmax:
        raise TruncationTooSmall(
            f"coefficient degree {m1 + m2} beyond tracked degree {q.dmax}"
        )
    k = m1 + m2 + len(q.denoms)
    rows = _zeta_rows((e[0], v) for e, v in q.terms.items() if sum(e) == k)
    return _symmetric_coeff(q.ring, q.den, rows, q.denoms, m1, m2, _clear_real(q.ring, images))


def _symmetric_coeff(ring, den, rows, denoms, m1, m2, cleared) -> CoeffElem:
    """symmetric_laurent_coeff from the numerator component it reads, of
    degree k = m1 + m2 + len(denoms): rows {zeta index i: {a: (x, y)}}
    over den > 0, the coefficient of z_1^a z_2^(k-a) being sum_i zeta^i
    (x + y sqrt D) / den, each slice substituted by _horner, the integer
    routine of MSeries.substitute_linear.  The images come cleared by
    _clear_real to Z[sqrt D] over the lcm s of their denominators; they
    feed the substitution, which is s^k times too large, and map each
    integer form v to s T^t v, the integer combination sum_j v_j
    (s images[j]), s^#forms times too large.  The two extractions (_iterated_coeff) give
    N_0 / W_0 and N_1 / W_1, and the average (N_0 W_1 + N_1 W_0) /
    (2 P s^(m1+m2) W_0 W_1) is rationalised once, by the conjugate of
    W_0 W_1 over its integer norm: one Fraction per component of the
    result.  A polar degree, m1 + m2 < 0, moves s^-(m1+m2) to the
    numerator, so every step stays in integers."""
    sqd = ring.D or 0
    k = m1 + m2 + len(denoms)
    s, (z1, z2) = cleared
    slices = {i: _horner(row, k, z1, z2, sqd) for i, row in rows.items()}
    columns = [tuple(zip(*col)) for col in zip(z1, z2)]  # per t_i: (xs, ys) over z_j
    forms = [[(idot(v, xs), idot(v, ys)) for xs, ys in columns] for v in denoms]
    if [(0, 0), (0, 0)] in forms:
        raise ZeroForm("a denominator form vanishes on the images")
    n0, w0 = _iterated_coeff(slices, forms, k, 0, m1, m2, sqd)
    n1, w1 = _iterated_coeff(slices, forms, k, 1, m2, m1, sqd)
    wx, wy = _zmul(w0, w1, sqd)
    up, down = s ** max(-m1 - m2, 0), s ** max(m1 + m2, 0)
    ints = {}
    for i in slices:
        ax, ay = _zmul(n0.get(i, (0, 0)), w1, sqd)
        bx, by = _zmul(n1.get(i, (0, 0)), w0, sqd)
        ints[(i, 0)], ints[(i, 1)] = _zmul((up * (ax + bx), up * (ay + by)), (wx, -wy), sqd)
    return ring.from_ints(ints, 2 * den * down * (wx * wx - sqd * wy * wy))
