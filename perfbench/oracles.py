"""Independent checks for the values the benchmark's workloads produce.

Nothing here calls the library under test: every oracle is a closed
formula or an identity that correct outputs must satisfy.
"""

from fractions import Fraction
from math import isqrt

# zeta(1 - r) for r = 1..4
GOLDEN_ZETA = {
    1: Fraction(-1, 2),
    2: Fraction(-1, 12),
    3: Fraction(0),
    4: Fraction(1, 120),
}

# Siegel: zeta_K(-r) = sum over b = disc mod 2, b^2 < disc, of
# sigma_r((disc - b^2) / 4), divided by 60 (r = 1) or 120 (r = 3).
_SIEGEL_DENOMINATOR = {1: 60, 3: 120}


def _prime_divisors(n):
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def principal_dirichlet_L(f, r):
    """L(chi_0 mod f, 1 - r) = zeta(1 - r) * prod_{p | f} (1 - p^(r-1))."""
    value = GOLDEN_ZETA[r]
    for p in _prime_divisors(f):
        value *= 1 - p ** (r - 1)
    return value


def divisor_sum(k, m):
    return sum(d ** k for d in range(1, m + 1) if m % d == 0)


def quadratic_zeta(D, r):
    """zeta_K(-r) for K = Q(sqrt D), r in 1..3: Siegel's divisor sums for
    odd r, and the trivial zero at even r."""
    if r % 2 == 0:
        return Fraction(0)
    disc = D if D % 4 == 1 else 4 * D
    root = isqrt(disc)
    total = sum(
        divisor_sum(r, (disc - b * b) // 4)
        for b in range(-root, root + 1)
        if b * b < disc and (disc - b * b) % 4 == 0
    )
    return Fraction(total, _SIEGEL_DENOMINATOR[r])


def cocycle_relation_holds(tau, faces):
    """Each row holds the face values at one point; their alternating sum
    must equal the coboundary invariant tau."""
    return all(
        sum(v if i % 2 == 0 else -v for i, v in enumerate(row)) == tau
        for row in faces
    )


def decomposition_sound(faces, combo_values):
    """The cone combo of face 0 must agree with the face-0 kernel at
    every point."""
    return all(Fraction(c) == row[0] for row, c in zip(faces, combo_values))
