"""Acceptance suite: every criterion at its stated scale and tolerance.

All checks are exact (integer or rational equality; series compared
coefficient by coefficient up to the tracked truncation degree).  Each
criterion prints one pass line; run with ``pytest -s`` to see them.
"""

import random
import time
from fractions import Fraction

from conftest import random_general_position, random_nonzero_vector, rational_points
from reference import (
    GeneralPositionViolation,
    closed_form_sigma_n2,
    dvalue,
    exp_series,
    identity,
    mat_det,
    mat_vec,
    one_minus_exp,
    phi_map,
    quot_equal_as_laurent,
    series_product,
    solomon_s,
    tau_transport,
    translate,
)
from shintani.cli import random_degenerate_tuple, random_invertible
from shintani.cocycle_core import CocycleChecker, SigmaKernel, sigma_eval
from shintani.cone_algebra import OpenSimplicialCone, ConeCombo, sigma_decompose
from shintani.exactnum import QQ
from shintani.linalg import sign
from shintani.lvalues import (
    DirichletChar,
    build_real_quad,
    dirichlet_L_closed,
    dirichlet_L_via_cocycle,
    quad_L_value,
    trivial_quad_schwartz,
)
from shintani.ordered_field import OrderedElem, iota
from shintani.exactnum import MPoly
from shintani.solomon_hu import (
    MSeries,
    SchwartzFn,
    pair_cone,
    pair_combo,
)

I2 = identity(2)


def _report(num, message, t0):
    print(f"\n[PASS] criterion {num}: {message} ({time.time() - t0:.1f}s)")


# ---------------------------------------------------------------------------
# 1. Cocycle relation: alternating sum of face evaluations equals the
#    coboundary invariant, exactly, including engineered degeneracies.
# ---------------------------------------------------------------------------

def test_criterion_1_cocycle_relation():
    t0 = time.time()
    checked = 0
    for n in (2, 3):
        rng = random.Random(100 + n)
        degenerate = 0
        for trial in range(500):
            if trial % 5 == 0:
                alphas = random_degenerate_tuple(rng, n, n + 1)
                degenerate += 1
            else:
                alphas = [random_invertible(rng, n) for _ in range(n + 1)]
            checker = CocycleChecker(alphas)
            for _ in range(20):
                w = random_nonzero_vector(rng, n)
                assert checker.alternating_sum(w) == checker.tau
                checked += 1
        assert degenerate >= 100
    _report(1, f"cocycle relation exact at {checked} points "
               f"(500 tuples per dimension, 100 degenerate each)", t0)


# ---------------------------------------------------------------------------
# 2. Identities of the d invariant on random rational general-position
#    input, dimensions up to 4.
# ---------------------------------------------------------------------------

def _perm_sign(perm):
    s = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                s = -s
    return s


def test_criterion_2_d_identities():
    t0 = time.time()
    per_n = 125  # 125 * 4 dimensions = 500 instances per identity

    rng = random.Random(201)
    for n in (1, 2, 3, 4):
        for _ in range(per_n):
            vecs = random_general_position(rng, n, n + 1)
            perm = list(range(n + 1))
            rng.shuffle(perm)
            assert dvalue([vecs[i] for i in perm]) == _perm_sign(perm) * dvalue(vecs)

    rng = random.Random(202)
    for n in (1, 2, 3, 4):
        for _ in range(per_n):
            vecs = random_general_position(rng, n, n + 1)
            scaled = []
            for v in vecs:
                lam = Fraction(rng.randint(1, 6), rng.randint(1, 3))
                scaled.append(tuple(lam * x for x in v))
            assert dvalue(scaled) == dvalue(vecs)

    rng = random.Random(203)
    for n in (1, 2, 3, 4):
        for _ in range(per_n):
            vecs = random_general_position(rng, n, n + 1)
            a = random_invertible(rng, n)
            assert dvalue([mat_vec(a, v) for v in vecs]) == \
                sign(mat_det(a)) * dvalue(vecs)

    rng = random.Random(204)
    done = 0
    while done < 500:
        n = rng.randint(1, 3)
        vecs = random_general_position(rng, n, n + 1)
        if done % 2 == 0:
            lifted = [tuple(OrderedElem.from_rat(2, x) for x in v) for v in vecs]
        else:
            # vectors with genuine infinitesimal content; resample when a
            # perturbation happens to break general position
            lifted = []
            for v in vecs:
                entries = []
                for x in v:
                    p = MPoly.const(2, x)
                    if rng.randrange(2):
                        p = p + MPoly(2, {(1, 0): Fraction(rng.randint(-1, 1))})
                    entries.append(OrderedElem(p))
                lifted.append(tuple(entries))
            try:
                dvalue(lifted)
            except GeneralPositionViolation:
                continue
        i = rng.randint(0, 2)
        embedded = [tuple(iota(i, x) for x in v) for v in lifted]
        assert dvalue(embedded) == dvalue(lifted)
        done += 1

    rng = random.Random(205)
    for n in (1, 2, 3, 4):
        for _ in range(per_n):
            vecs = random_general_position(rng, n, n + 2)
            total = sum(
                (-1) ** i * dvalue(vecs[:i] + vecs[i + 1:])
                for i in range(n + 2)
            )
            assert total == 0

    _report(2, "permutation, scaling, equivariance, embedding and "
               "alternating-sum identities, 500 instances each, n <= 4", t0)


# ---------------------------------------------------------------------------
# 3. Closed forms in dimension 2: the case tables match the evaluator on
#    all eight sign cases.
# ---------------------------------------------------------------------------

def test_criterion_3_closed_forms():
    t0 = time.time()
    rng = random.Random(300)
    total = 0
    for sa in (1, -1):
        for sc in (1, -1):
            # triangular case
            for _ in range(100):
                a = Fraction(rng.randint(1, 6), rng.randint(1, 3)) * sa
                c = Fraction(rng.randint(1, 6), rng.randint(1, 3)) * sc
                b = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                alpha = ((a, b), (0, c))
                kernel = SigmaKernel([I2, alpha])
                ws = [random_nonzero_vector(rng, 2) for _ in range(7)]
                ws += [(1, 0), (-1, 0), (0, 1)]
                for w in ws:
                    assert closed_form_sigma_n2(alpha, w) == kernel.eval(w)
                    total += 1
            # swap-factor case
            for _ in range(100):
                while True:
                    a = Fraction(rng.randint(1, 6), rng.randint(1, 3)) * sa
                    c = Fraction(rng.randint(1, 6), rng.randint(1, 3)) * sc
                    b = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                    d = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                    alpha = ((b, a + b * d), (c, c * d))
                    if mat_det(alpha) != 0:
                        break
                kernel = SigmaKernel([I2, alpha])
                ws = [random_nonzero_vector(rng, 2) for _ in range(6)]
                ws += [(1, 0), (-1, 0), (b, c), (-b, -c)]
                for w in ws:
                    if any(Fraction(x) != 0 for x in w):
                        assert closed_form_sigma_n2(alpha, w) == kernel.eval(w)
                        total += 1
    _report(3, f"closed-form tables match the evaluator on 8 sign cases, "
               f"{total} evaluations including boundary points", t0)


# ---------------------------------------------------------------------------
# 4. Comparison with the half-weighted reference cocycle: the difference
#    with the transported half-ray coboundary is constant in w.
# ---------------------------------------------------------------------------

def test_criterion_4_solomon_comparison():
    t0 = time.time()
    rng = random.Random(400)
    pairs = 0
    while pairs < 100:
        a = random_invertible(rng, 2)
        b = random_invertible(rng, 2)
        if a[0][0] * b[1][0] - a[1][0] * b[0][0] == 0:
            continue  # reference cocycle degenerates; identity holds only
                      # modulo the pairing kernel there
        pairs += 1
        kernel = SigmaKernel([a, b])
        vals = set()
        ws = [random_nonzero_vector(rng, 2) for _ in range(94)]
        ws += [(1, 0), (-1, 0), (0, 1), (0, -1),
               (a[0][0], a[1][0]), (b[0][0], b[1][0])]
        for w in ws:
            lhs = Fraction(kernel.eval(w)) - solomon_s(a, b, w)
            rhs = tau_transport(b, w) - tau_transport(a, w)
            vals.add(lhs - rhs)
        assert len(vals) == 1, f"difference not constant for {a}, {b}"
    # the transport orientation above is forced: the opposite one fails
    rot = ((0, -1), (1, 0))
    flipped = set()
    for w in [(1, 1), (1, 0), (0, 1), (-1, 0)]:
        lhs = Fraction(sigma_eval([I2, rot], w)) - solomon_s(I2, rot, w)
        rhs = tau_transport(I2, w) - tau_transport(rot, w)
        flipped.add(lhs - rhs)
    assert len(flipped) > 1
    _report(4, "difference with the transported half-ray coboundary is "
               "w-constant for 100 pairs at 100 points each", t0)


# ---------------------------------------------------------------------------
# 5. Decomposition soundness: the combo agrees with the pointwise
#    evaluator everywhere, including points on every face of the pieces.
# ---------------------------------------------------------------------------

def _soundness_samples(rng, n, combo, count):
    ws = []
    for _, cone in combo.terms:
        ws.append(cone.witness())                    # interior of each piece
        for g in cone.generators:                    # on the face spans
            ws.append(g)
            ws.append(tuple(-x for x in g))
    seen = set()
    unique = []
    for w in ws:
        if any(x != 0 for x in w) and w not in seen:
            seen.add(w)
            unique.append(w)
    while len(unique) < count:
        unique.append(random_nonzero_vector(rng, n))
    return unique[:max(count, len(unique))]


def test_criterion_5_decomposition_soundness():
    t0 = time.time()
    total_points = 0
    for n, instances, seed in ((2, 100, 500), (3, 25, 501)):
        rng = random.Random(seed)
        for _ in range(instances):
            alphas = [random_invertible(rng, n) for _ in range(n)]
            combo = sigma_decompose(alphas)
            kernel = SigmaKernel(alphas)
            for w in _soundness_samples(rng, n, combo, 1000):
                assert combo.eval(w) == kernel.eval(w)
                val = combo.eval(w)
                assert val in (-1, 0, 1)
                total_points += 1
    _report(5, f"combo evaluation matches the evaluator at {total_points} "
               f"points across 100 instances (n=2) and 25 (n=3)", t0)


# ---------------------------------------------------------------------------
# 6. L-values over Q: golden values and closed-form versus cone-pipeline
#    equality for every character of modulus at most 12, r at most 4.
# ---------------------------------------------------------------------------

def test_criterion_6_rational_l_values():
    t0 = time.time()
    trivial = DirichletChar.trivial(1)
    assert dirichlet_L_closed(trivial, 1).rational_part() == Fraction(-1, 2)
    assert dirichlet_L_closed(trivial, 2).rational_part() == Fraction(-1, 12)
    assert dirichlet_L_closed(trivial, 4).rational_part() == Fraction(1, 120)
    chi3 = next(c for c in DirichletChar.enumerate(3) if not c.is_trivial)
    assert dirichlet_L_closed(chi3, 1).rational_part() == Fraction(1, 3)
    chi4 = next(c for c in DirichletChar.enumerate(4) if not c.is_trivial)
    assert dirichlet_L_closed(chi4, 1).rational_part() == Fraction(1, 2)
    routes = 0
    for f in range(1, 13):
        for chi in DirichletChar.enumerate(f):
            for r in (1, 2, 3, 4):
                assert dirichlet_L_closed(chi, r) == dirichlet_L_via_cocycle(chi, r)
                routes += 1
    _report(6, f"golden zeta and L values plus route equality for "
               f"{routes} (character, r) pairs with modulus <= 12", t0)


# ---------------------------------------------------------------------------
# 7. Real quadratic zeta values through the full cone pipeline.
# ---------------------------------------------------------------------------

def _divisor_sum_oracle(D):
    disc = D if D % 4 == 1 else 4 * D
    total = 0
    for b in range(-disc, disc + 1):
        if b * b < disc and (disc - b * b) % 4 == 0:
            m = (disc - b * b) // 4
            total += sum(d for d in range(1, m + 1) if m % d == 0)
    return Fraction(total, 60)


def test_criterion_7_quadratic_zeta_values():
    t0 = time.time()
    frozen = {2: Fraction(1, 12), 5: Fraction(1, 30), 13: Fraction(1, 6)}
    for D, expected in frozen.items():
        assert _divisor_sum_oracle(D) == expected
    # every benchmark field, then the certified fields below 200 whose
    # reduced-basis scans stay under ~10^4 points; D = 89 and 181 (~10^5
    # points) and D = 73, 97, 113, 137 (10^5..10^7) are left out
    fields = (2, 5, 13, 17, 29, 37, 53, 101, 173, 41, 61, 109, 149, 157, 197)
    for D in fields:
        K = build_real_quad(D)
        assert K.narrow_h1
        assert quad_L_value(K, trivial_quad_schwartz(K), 1) == _divisor_sum_oracle(D)
    _report(7, f"zeta values at -1 for the {len(fields)} fields D = "
               f"{', '.join(map(str, fields))} match the divisor-sum oracle exactly", t0)


# ---------------------------------------------------------------------------
# 8. Pairing identities at n <= 2.
# ---------------------------------------------------------------------------

def _random_phi(rng, n, ring=QQ, max_f=3, vanish_zero=False):
    d = rng.choice([1, 2])
    f = rng.randint(1, max_f)
    table = {}
    for key in _keys(n, d * f):
        if vanish_zero and all(k == 0 for k in key):
            continue
        if rng.randrange(3):
            table[key] = Fraction(rng.randint(-2, 2))
    return SchwartzFn(n, d, f, table, ring)


def _keys(n, mod):
    if n == 1:
        return [(i,) for i in range(mod)]
    return [(i, j) for i in range(mod) for j in range(mod)]


def _random_cone(rng, n):
    while True:
        gens = [random_nonzero_vector(rng, n, lo=-2, hi=3, den=2)
                for _ in range(rng.randint(1, n))]
        try:
            return OpenSimplicialCone(tuple(gens))
        except ValueError:
            continue


def test_criterion_8_pairing_identities():
    t0 = time.time()
    # defining identity: multiplying back the exponential denominators
    # recovers the parallelotope sum, for 100 random cone/function pairs
    rng = random.Random(800)
    done = 0
    while done < 100:
        n = rng.choice([1, 2])
        cone = _random_cone(rng, n)
        phi = _random_phi(rng, n)
        q = pair_cone(cone, phi, 3)
        lhs = q.num
        for vec in q.denoms:
            lhs = series_product(lhs, one_minus_exp(q.ring, n, q.num.trunc, vec))
        rhs = MSeries.zero(q.ring, n, q.num.trunc)
        for p in rational_points(q.denoms, phi.d, phi.f):
            v = phi.value_at(p)
            if v:
                rhs = rhs + exp_series(q.ring, n, q.num.trunc, p).scale(v)
        for vec in q.denoms:
            rhs = rhs.mul_exact_linear(vec)
        assert lhs == rhs
        done += 1

    # scaling robustness: deliberate over-scaling by 2 and 3 changes
    # nothing about the represented expansion
    rng = random.Random(801)
    for _ in range(100):
        n = rng.choice([1, 2])
        cone = _random_cone(rng, n)
        phi = _random_phi(rng, n)
        q1 = pair_cone(cone, phi, 3)
        for factor in (2, 3):
            scaled = OpenSimplicialCone(
                tuple(tuple(factor * x for x in g) for g in cone.generators)
            )
            q2 = pair_cone(scaled, phi, 3)
            assert quot_equal_as_laurent(q1, q2)

    # translation compatibility of the exponential generating map
    rng = random.Random(802)
    for _ in range(100):
        n = rng.choice([1, 2])
        A = {}
        for _ in range(4):
            w = tuple(Fraction(rng.randint(-3, 3)) for _ in range(n))
            A[w] = A.get(w, 0) + rng.randint(-2, 2)
        v = tuple(Fraction(rng.randint(-2, 2)) for _ in range(n))
        lhs = phi_map(translate(A, v), 5, QQ, n)
        rhs = series_product(phi_map(A, 5, QQ, n).num, exp_series(QQ, n, 5, v))
        assert lhs.num == rhs

    # orthogonality: a decomposition of the constant function pairs to
    # zero against every function vanishing near zero
    rng = random.Random(803)
    quads = [
        OpenSimplicialCone(((1, 0), (0, 1))),
        OpenSimplicialCone(((0, 1), (-1, 0))),
        OpenSimplicialCone(((-1, 0), (0, -1))),
        OpenSimplicialCone(((0, -1), (1, 0))),
    ]
    rays = [
        OpenSimplicialCone(((1, 0),)),
        OpenSimplicialCone(((0, 1),)),
        OpenSimplicialCone(((-1, 0),)),
        OpenSimplicialCone(((0, -1),)),
    ]
    const_one = ConeCombo([(1, c) for c in quads + rays])
    for _ in range(20):
        phi = _random_phi(rng, 2, vanish_zero=True)
        assert phi.vanishes_near_zero
        q = pair_combo(const_one, phi, 3)
        assert q.is_zero_series()

    _report(8, "defining identity, scaling robustness, translation "
               "compatibility (100 instances each) and constant "
               "orthogonality (20 functions)", t0)
