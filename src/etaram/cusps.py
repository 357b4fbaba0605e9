"""Cusp geometry for the congruence subgroup of SL2(Z) with a = d = 1 and
c = 0 mod N (upper-triangular reduction), the group all modularity statements
in this package refer to.

Provides a complete set of inequivalent cusps, their widths, one table per
level of the orders of generalized eta-quotients at its cusps, read from
each cusp's a/c and width, and the exponent map that bounds a progression
slice's orders at the cusps.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import mul
from typing import NamedTuple

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


# ---------------------------------------------------------------------------
# order formulas
# ---------------------------------------------------------------------------

def exponent_slots(N: int):
    """The scaled exponent slots (d, g) of level N, d | N and 0 <= g <= d/2."""
    return [(d, g) for d in divisors(N) for g in range(0, d // 2 + 1)]


class OrderTable(NamedTuple):
    """The level-N orders by the closed formula, one integer row per form.

    At a cusp a/c, eta_{d,g} has order width * gcd(d, c)^2 / (2d) *
    B2(a g / gcd(d, c)) (Robins 1994), in integers width *
    b2_numerator(a g, e) * (N/d) / (12N) with e = gcd(d, c).  A scaled
    entry is the exponent of eta_{d,g} for 0 < g < d/2 and twice it at
    g = 0 and g = d/2, so a row holds those numerators over 24N, doubled
    for 0 < g < d/2, and is divided with its denominator by their gcd: the
    quotient of a scaled exponent vector v has order sum(row[i] v[i]) / den.
    """
    forms: tuple      # (CuspData, row, den) per distinct form, in cusp_set(N)'s
                      # order, the first cusp with it named; infinity's is last
    cusps: tuple      # (cusp, index into forms) per cusp of cusp_set(N)
    classes: dict     # class_key -> index into forms
    slots: dict       # (d, g) -> index into exponent_slots(N)


@functools.lru_cache(maxsize=None)
def order_table(N: int) -> OrderTable:
    """The level-N cusps' orders grouped by order form; infinity always has
    a form of its own."""
    slots = exponent_slots(N)
    forms, cusps, classes, index = [], [], {}, {}
    for data in cusp_set(N):
        w, a, c = data.width, data.cusp.a, data.cusp.c
        row = [w * b2_numerator(a * g, gcd(d, c)) * (N // d) * (1 if 2 * g % d == 0 else 2)
               for d, g in slots]
        common = gcd(24 * N, *row)
        form = tuple(x // common for x in row), 24 * N // common
        # infinity comes last, so its own index shadows no later cusp's
        if data.cusp.is_infinity or form not in index:
            index[form] = len(forms)
            forms.append((data, *form))
        cusps.append((data.cusp, index[form]))
        classes[class_key(N, data.cusp)] = index[form]
    return OrderTable(tuple(forms), tuple(cusps), classes,
                      {slot: i for i, slot in enumerate(slots)})


def _slot_entries(q: GenEtaQuotient, N: int, slots: dict) -> list:
    """(slot index, scaled exponent) per exponent of q's canonical form:
    a[d] at (d, 0), as eta(d tau)^a[d] = eta_{d,0}^(a[d]/2), and ag[d, g]
    at (d, g)."""
    try:
        return ([(slots[d, 0], e) for d, e in q.a.items()]
                + [(slots[k], e) for k, e in q.ag.items()])
    except KeyError as exc:
        raise ValueError("eta argument %d does not divide level %d"
                         % (exc.args[0][0], N)) from None


def slot_vector(q: GenEtaQuotient, N: int) -> list:
    """q's scaled exponent vector over exponent_slots(N)."""
    slots = order_table(N).slots
    vector = [0] * len(slots)
    for i, e in _slot_entries(q, N, slots):
        vector[i] = e
    return vector


def table_orders(N: int, vector) -> dict:
    """{cusp: order} of a scaled exponent vector's quotient by order_table,
    one dot product per order form: an int, or a Fraction where the order
    is not integral."""
    table = order_table(N)
    values = []
    for _, row, den in table.forms:
        total = sum(map(mul, row, vector))
        values.append(Fraction(total, den) if total % den else total // den)
    return {cusp: values[i] for cusp, i in table.cusps}


def order_at_cusp(h: GenEtaQuotient, N: int, cusp) -> Fraction:
    """Order of a generalized eta-quotient at a cusp (a Cusp, or a CuspData
    of cusp_set(N)), by the closed formula: order_table's row for the
    cusp's class summed over h's exponents in integers.

    Exact rational; an integer whenever h is modular for the level-N group.
    """
    table = order_table(N)
    key = class_key(N, cusp.cusp if isinstance(cusp, CuspData) else cusp)
    _, row, den = table.forms[table.classes[key]]
    return Fraction(sum(row[i] * e for i, e in _slot_entries(h, N, table.slots)), den)


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
