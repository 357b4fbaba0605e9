"""Cusp geometry for the congruence subgroup of SL2(Z) with a = d = 1 and
c = 0 mod N (upper-triangular reduction), the group all modularity statements
in this package refer to.

Provides a complete set of inequivalent cusps, their widths, the order of a
generalized eta-quotient at each cusp read from its a/c and width, and the
exponent map that bounds a progression slice's orders at the cusps.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .eta import GenEtaQuotient, PartitionSpec, b2_numerator, divisors


@dataclass(frozen=True, order=True)
class Cusp:
    """Rational cusp a/c in lowest terms; c = 0 encodes infinity."""
    a: int
    c: int

    def __post_init__(self):
        if self.c < 0:
            raise ValueError("cusp denominators are normalized nonnegative")
        if gcd(self.a, self.c) != 1:
            raise ValueError("cusp %d/%d is not reduced" % (self.a, self.c))
        if self.c == 0 and self.a != 1:
            raise ValueError("infinity is stored as 1/0")

    @property
    def is_infinity(self) -> bool:
        return self.c == 0

    def __str__(self):
        return "oo" if self.c == 0 else "%d/%d" % (self.a, self.c)


INFINITY = Cusp(1, 0)


def make_cusp(a: int, c: int) -> Cusp:
    if c == 0:
        return INFINITY
    if c < 0:
        a, c = -a, -c
    g = gcd(abs(a), c)
    return Cusp(a // g, c // g)


def class_key(N: int, cusp: Cusp) -> tuple:
    """The cusp's class under the level-N group, as one key.

    a2/c2 is equivalent to a1/c1 when (a2, c2) matches +-(a1 + j c1, c1)
    mod N for some integer j, the standard criterion, cross-checked against
    published cusp data and index formulas in the tests.  Such a j exists
    exactly when gcd(c1, N) divides a2 -+ a1, and c2 = +-c1 mod N leaves
    g = gcd(c, N) the same, so the key min((c mod N, a mod g),
    (-c mod N, -a mod g)) is equal exactly for equivalent cusps.
    """
    a, c = cusp.a, cusp.c
    g = gcd(c, N)
    return min((c % N, a % g), (-c % N, -a % g))


def cusps_equivalent(N: int, s1: Cusp, s2: Cusp) -> bool:
    """Equivalence of cusps under the level-N group (class_key)."""
    return class_key(N, s1) == class_key(N, s2)


def width(N: int, cusp: Cusp) -> int:
    """Width of a cusp (the stated level-4 anomaly included); order_at_cusp
    and cusp_order_bounds both count orders in its unit, q^(1/width)."""
    if N == 4 and gcd(cusp.c, 4) == 2:
        return 1
    return N // gcd(cusp.c, N)


@dataclass(frozen=True)
class CuspData:
    cusp: Cusp
    width: int


def _ascending(residues, modulus, bound):
    """The integers in 1..bound with a residue mod modulus in residues, in
    increasing order."""
    firsts = sorted({r % modulus or modulus for r in residues})
    for base in range(0, bound, modulus):
        for r in firsts:
            if base + r <= bound:
                yield base + r


def _lambda_mu_form(N: int, cusp: Cusp):
    """(lam, mu, eps) with lam/(mu eps) equivalent to the cusp, eps | N.

    eps = gcd(c, N); of the mu and lam up to N^2, prime to N and to each
    other, it takes the least mu and then the least lam.  lam/(mu eps) is
    then in lowest terms with gcd(mu eps, N) = eps, so its class key equals
    the cusp's (c0, a0) exactly when (mu eps, lam) = +-(c0, a0) mod (N, eps):
    mu runs over two residues mod N/eps, lam over the residues its mu allows.
    """
    eps = gcd(cusp.c, N)
    c0, a0 = class_key(N, cusp)
    bound = N * N
    for mu in _ascending({c0 // eps, -c0 // eps}, N // eps, bound):
        if gcd(mu, N) != 1:
            continue
        lams = {s * a0 for s in (1, -1) if (mu * eps - s * c0) % N == 0}
        for lam in _ascending(lams, eps, bound):
            if gcd(lam, N) == 1 and gcd(lam, mu) == 1:
                return lam, mu, eps
    raise RuntimeError("no lambda/(mu eps) form found for %s at level %d" % (cusp, N))


@functools.lru_cache(maxsize=None)
def cusp_set(N: int) -> tuple:
    """A complete, duplicate-free tuple of CuspData for the level-N group.

    Infinity is listed last; the finite representatives keep their discovery
    order (increasing denominator, then numerator): each is the first
    candidate with its class_key.
    """
    candidates = [Cusp(0, 1)] if N == 1 else [
        make_cusp(a, c)
        for c in range(1, N + 1)
        for a in range(N)
        if gcd(a, c) == 1
    ]
    reps = {}
    for s in candidates:
        reps.setdefault(class_key(N, s), s)
    # the one representative of the infinite class goes last, as 1/0
    reps.pop(class_key(N, INFINITY), None)
    return tuple(CuspData(cusp=s, width=width(N, s)) for s in [*reps.values(), INFINITY])


def genus(N: int) -> int:
    """Genus of X1(N), the compactified curve of the level-N group.

    For N >= 5 the group has no elliptic points and no irregular cusps, so
    Riemann-Hurwitz gives g = 1 + mu/12 - c/2, where mu = (N^2/2) prod over
    primes p | N of (1 - 1/p^2) is its index modulo -1 in PSL2(Z) and c is
    the number of cusps.  X1(N) has genus 0 for N <= 4.
    """
    if N <= 4:
        return 0
    mu2, m, p = N * N, N, 2       # mu2 ends as twice the index
    while m > 1:
        if m % p == 0:
            mu2 = mu2 // (p * p) * (p * p - 1)
            while m % p == 0:
                m //= p
        p += 1
    g, rest = divmod(12 + mu2 // 2 - 6 * len(cusp_set(N)), 12)
    if rest:
        raise AssertionError("the genus formula is not integral at level %d" % N)
    return g


@functools.lru_cache(maxsize=None)
def _cusp_classes(N: int) -> dict:
    """cusp_set(N) keyed by class_key."""
    return {class_key(N, data.cusp): data for data in cusp_set(N)}


def find_cusp_class(N: int, cusp: Cusp) -> CuspData:
    """The CuspData of cusp_set(N) equivalent to the cusp: one lookup."""
    data = _cusp_classes(N).get(class_key(N, cusp))
    if data is None:
        raise LookupError("cusp %s not matched at level %d" % (cusp, N))
    return data


# ---------------------------------------------------------------------------
# order formulas
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _order_rows(N: int, cusp: Cusp):
    """Every canonical slot's coefficient (d | N, 0 <= g < d/2) in the order
    at the cusp a/c, width * gcd(d, c)^2 / (2d) * B2(a g / gcd(d, c)), as an
    integer numerator over one denominator, which is returned doubled:
    order_at_cusp weights the numerators with a[d] (a plain eta power counts
    half at its g = 0 slot) and with 2*ag[d, g].  In integers that is
    width * b2_numerator(a g, e) * (N/d) over 12N, e = gcd(d, c)."""
    w, a, c = width(N, cusp), cusp.a, cusp.c
    nums = {(d, g): w * b2_numerator(a * g, gcd(d, c)) * (N // d)
            for d in divisors(N) for g in range((d + 1) // 2)}
    common = gcd(12 * N, *nums.values())
    return {k: v // common for k, v in nums.items()}, 24 * N // common


def order_at_cusp(h: GenEtaQuotient, N: int, cusp) -> Fraction:
    """Order of a generalized eta-quotient at a cusp, by the closed formula.

    Exact rational; an integer whenever h is modular for the level-N group.
    The sum runs in integers over the cached _order_rows.
    """
    data = cusp if isinstance(cusp, CuspData) else find_cusp_class(N, cusp)
    rows, den = _order_rows(N, data.cusp)
    try:
        total = sum(rows[d, 0] * e for d, e in h.a.items())
        for k, e in h.ag.items():
            total += rows[k] * 2 * e
    except KeyError as exc:
        raise ValueError("eta argument %d does not divide level %d"
                         % (exc.args[0][0], N)) from None
    return Fraction(total, den)


def kappa(m: int) -> int:
    return gcd(m * m - 1, 24)


def slice_min_exponent(spec: PartitionSpec, m: int, cusp: Cusp) -> Fraction:
    """Least q-exponent contributed by the progression slice at the cusp a/c.

    Minimum over the residue twist parameter of an exact rational expression
    in gcd's of a and c; the generalized factors of the spec contribute a
    second Bernoulli term.  Each twist's sum is an integer over 24 m M
    (every d divides M), its Bernoulli terms read through b2_numerator.
    """
    a, c, M = cusp.a, cusp.c, spec.M

    def twist(u):
        return (sum(gcd(d * u, m * c) ** 2 * e * (M // d) for d, e in spec.r.items())
                + sum(2 * b2_numerator(u * g, gcd(d * u, m * c)) * e * (M // d)
                      for (d, g), e in spec.rg.items()))

    return Fraction(min(twist(a + kappa(m) * lam * c) for lam in range(m)), 24 * m * M)


def cusp_order_bounds(spec: PartitionSpec, m: int, t: int,
                      phi: GenEtaQuotient, N: int) -> dict:
    """Lower bounds width * slice exponent + order of phi for every cusp."""
    return {data.cusp: data.width * slice_min_exponent(spec, m, data.cusp)
            + order_at_cusp(phi, N, data)
            for data in cusp_set(N)}
