"""Partition-function products and generalized eta-quotients.

Two kinds of objects live here.  A PartitionSpec fixes a sequence a(n) through
a finite product of Pochhammer factors

    sum a(n) q^n  =  prod_{d | M} (q^d; q^d)^r[d]
                     * prod_{d | M, 0<g<d} (q^g, q^(d-g); q^d)^rg[d, g],

and a GenEtaQuotient is a finite product of eta(d*tau)**a[d] and generalized
factors eta_{d,g}(tau)**ag[d, g] at some level N.  Both expand to exact
QSeries values by one of two independent routes: the fast route goes through
pentagonal and theta series and Newton inversion, the reference route through
the integer Euler-transform recurrence of the plain product.  The test suite
cross-checks the two.

Partition-function products are cached per (r, rg, route): the cache holds the
longest expansion asked for, answers shorter requests by truncation, and (on
the reference route) extends the coefficient list from where it stopped.  The
fast route also caches the positive factor powers it multiplies, per (d, g, e);
the reference route never reads that cache.  One lock guards both caches, so
derivations on several threads share them safely.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from math import gcd
from operator import attrgetter, mul

from .series import QSeries, euler_product, pair_product


class NonIntegralPower(ValueError):
    """A half-integral exponent survives where an integer is required."""


def bernoulli_p1(x) -> Fraction:
    """First Bernoulli function: {x} - 1/2 away from integers, 0 at them."""
    x = Fraction(x)
    if x.denominator == 1:
        return Fraction(0)
    return x - (x.numerator // x.denominator) - Fraction(1, 2)


def bernoulli_p2(x) -> Fraction:
    """Second Bernoulli function {x}^2 - {x} + 1/6 (period 1, even)."""
    x = Fraction(x)
    frac = x - (x.numerator // x.denominator)
    return frac * frac - frac + Fraction(1, 6)


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _fold_pair_key(delta: int, g: int) -> int:
    g %= delta
    return min(g, delta - g)


class PartitionSpec:
    """Defining data (M, r, rg) of a partition function given by eta products."""

    def __init__(self, M: int, r=None, rg=None):
        if M < 1:
            raise ValueError("M must be a positive integer")
        self.M = M
        self.r = {}
        for d, e in (r or {}).items():
            d, e = int(d), int(e)
            if M % d:
                raise ValueError("r key %d does not divide M=%d" % (d, M))
            if e:
                self.r[d] = self.r.get(d, 0) + e
        self.rg = {}
        for (d, g), e in (rg or {}).items():
            d, g, e = int(d), int(g), int(e)
            if M % d:
                raise ValueError("rg key delta=%d does not divide M=%d" % (d, M))
            if not 0 < g < d:
                raise ValueError("rg key g=%d out of range for delta=%d" % (g, d))
            g = _fold_pair_key(d, g)
            if e:
                self.rg[(d, g)] = self.rg.get((d, g), 0) + e
        self.r = {d: e for d, e in sorted(self.r.items()) if e}
        self.rg = {k: e for k, e in sorted(self.rg.items()) if e}

    def __repr__(self):
        return "PartitionSpec(M=%d, r=%r, rg=%r)" % (self.M, self.r, self.rg)

    def __eq__(self, other):
        return (isinstance(other, PartitionSpec)
                and (self.M, self.r, self.rg) == (other.M, other.r, other.rg))

    def is_plain(self) -> bool:
        return not self.rg

    # -- JSON spec file format ------------------------------------------------

    @classmethod
    def from_json(cls, doc: dict) -> "PartitionSpec":
        allowed = {"M", "r", "rg"}
        unknown = set(doc) - allowed
        if unknown:
            raise ValueError("unknown spec keys: %s" % sorted(unknown))
        r = {int(k): int(v) for k, v in doc.get("r", {}).items()}
        rg = {}
        for k, v in doc.get("rg", {}).items():
            d, _, g = k.partition("/")
            rg[(int(d), int(g))] = int(v)
        return cls(int(doc["M"]), r, rg)

    def to_json(self) -> dict:
        out = {"M": self.M, "r": {str(d): e for d, e in self.r.items()}}
        if self.rg:
            out["rg"] = {"%d/%d" % k: e for k, e in self.rg.items()}
        return out

    # -- invariants of the product ---------------------------------------------

    def eta_shift(self) -> Fraction:
        """Rational l with q**(-l) * product equal to a quotient of eta factors."""
        total = Fraction(0)
        for d, e in self.r.items():
            total -= Fraction(d * e, 24)
        for (d, g), e in self.rg.items():
            total -= Fraction(d, 2) * bernoulli_p2(Fraction(g, d)) * e
        return total

    def slice_prefactor(self, m: int, t: int) -> Fraction:
        return Fraction(t - self.eta_shift(), m)

    # -- expansions -------------------------------------------------------------

    def product_expansion(self, order: int) -> QSeries:
        """Coefficients a(0..order-1) of the defining product, exact."""
        return _cached_product(self.r, self.rg, order, fast=True)

    def product_expansion_reference(self, order: int) -> QSeries:
        """Same expansion through the integer Euler transform only."""
        return _cached_product(self.r, self.rg, order, fast=False)

    def slice_expansion(self, m: int, t: int, terms: int, reference=False) -> QSeries:
        """q**((t-l)/m) * sum_n a(m n + t) q^n with at least `terms` coefficients."""
        if not 0 <= t < m:
            raise ValueError("need 0 <= t < m")
        # whole blocks of m, so every residue of one modulus reads one product
        full = (self.product_expansion_reference if reference
                else self.product_expansion)(m * (terms + 1))
        sliced = full.sift(m, t)
        return sliced.shift(self.slice_prefactor(m, t))


_PRODUCT_CACHE = {}    # (r items, rg items, route) -> longest expansion held
_FACTOR_CACHE = {}     # (d, g, e) -> longest fast-route core**e held, e > 0
_PRODUCT_LOCK = threading.Lock()


def _cached_product(r, rg, order, fast):
    """_product_expansion through the per-spec cache.

    The fast route holds a QSeries and recomputes it when a longer one is
    asked for; the reference route holds the integer coefficient list and
    extends it.  The two routes are keyed apart, so neither reads the other.
    """
    order = int(order)
    if order < 1:
        raise ValueError("order must be positive")
    key = (tuple(sorted(r.items())), tuple(sorted(rg.items())),
           "fast" if fast else "reference")
    with _PRODUCT_LOCK:
        held = _PRODUCT_CACHE.get(key)
    if fast:
        if held is None or held.trunc < order:
            held = _publish(_PRODUCT_CACHE, key, _product_expansion(r, rg, order, fast=True),
                            attrgetter("trunc"))
        return held if held.trunc == order else held.truncated(order)
    if held is None or len(held) < order:
        held = _publish(_PRODUCT_CACHE, key,
                        _euler_transform(r, rg, order, held or ()), len)
    return QSeries.from_ints(held[:order])


def _factor_power(d, g, e, order):
    """core**e (e > 0) to q**order, core = euler_product(d) for g = 0, else
    pair_product(g, d).  A held power that falls short is recomputed to at
    least twice its length, so slowly growing requests recompute it only
    logarithmically often.  Inverted powers are not cached: their coefficients
    grow like partition numbers, and one inversion per expansion is cheaper.
    """
    key = (d, g, e)
    with _PRODUCT_LOCK:
        held = _FACTOR_CACHE.get(key)
    if held is None or held.trunc < order:
        size = order if held is None else max(order, 2 * held.trunc)
        if e > 1:
            power = _factor_power(d, g, 1, size) ** e
        else:
            power = euler_product(d, size) if g == 0 else pair_product(g, d, size)
        held = _publish(_FACTOR_CACHE, key, power, attrgetter("trunc"))
    return held if held.trunc == order else held.truncated(order)


def _publish(cache, key, value, size):
    """Store value unless another thread already stored a longer one."""
    with _PRODUCT_LOCK:
        held = cache.get(key)
        if held is None or size(held) < size(value):
            cache[key] = value
            return value
        return held


def _euler_transform(r, rg, order, known=()) -> list:
    """Integer coefficients f(0..order-1) of the product, by its Euler transform.

    Writing the product as prod_{n>0} (1 - q^n)^c(n), the logarithmic
    derivative gives  n f(n) = sum_{k=1..n} s(k) f(n-k)  with
    s(k) = -sum_{d | k} d c(d).  Every step is integer arithmetic and no
    series is multiplied or inverted.  `known` is a prefix of the answer from
    an earlier call; the recurrence continues after it.
    """
    if len(known) >= order:
        return list(known[:order])
    c = [0] * order
    for d, e in r.items():
        for n in range(d, order, d):
            c[n] += e
    for (d, g), e in rg.items():
        # (q^g, q^(d-g); q^d): both residues, the same one twice when 2g = d
        for start in (g, d - g):
            for n in range(start, order, d):
                c[n] += e
    s = [0] * order
    for n in range(1, order):
        if c[n]:
            v = n * c[n]
            for k in range(n, order, n):
                s[k] -= v
    f = list(known) or [1]
    for n in range(len(f), order):
        total, rem = divmod(sum(map(mul, s[1:n + 1], reversed(f))), n)
        if rem:
            raise AssertionError("Euler transform left a remainder at q^%d" % n)
        f.append(total)
    return f


def _product_expansion(r, rg, order, fast):
    order = int(order)
    if order < 1:
        raise ValueError("order must be positive")
    if not fast:
        return QSeries.from_ints(_euler_transform(r, rg, order))
    num = den = None
    factors = [(d, 0, e) for d, e in r.items()] + [(d, g, e) for (d, g), e in rg.items()]
    for d, g, e in factors:
        power = _factor_power(d, g, abs(e), order)
        if e > 0:
            num = power if num is None else num * power
        else:
            den = power if den is None else den * power
    result = QSeries.one(order) if num is None else num
    if den is not None:
        result = result * den.invert()
    return result.truncated(order)


class GenEtaQuotient:
    """prod eta(d*tau)**a[d] * prod eta_{d,g}(tau)**ag[d,g] at level N.

    ag keys satisfy 0 <= g <= d//2; half-integral exponents are legal only at
    g = 0 and g = d/2, where the factor is a plain eta power in disguise.
    """

    def __init__(self, N: int, a=None, ag=None):
        if N < 1:
            raise ValueError("level must be positive")
        self.N = N
        acc_a: dict = {}
        acc_g: dict = {}
        for d, e in (a or {}).items():
            d = int(d)
            e = Fraction(e)
            if N % d:
                raise ValueError("eta argument %d does not divide level %d" % (d, N))
            if e:
                acc_a[d] = acc_a.get(d, Fraction(0)) + e
        for (d, g), e in (ag or {}).items():
            d, g = int(d), int(g)
            e = Fraction(e)
            if N % d:
                raise ValueError("eta argument %d does not divide level %d" % (d, N))
            g = _fold_pair_key(d, g) if g else 0
            if e:
                acc_g[(d, g)] = acc_g.get((d, g), Fraction(0)) + e
        for (d, g), e in acc_g.items():
            if g == 0 or 2 * g == d:
                if (2 * e).denominator != 1:
                    raise NonIntegralPower("exponent at (%d, %d) must be half-integral" % (d, g))
            elif e.denominator != 1:
                raise NonIntegralPower("exponent at (%d, %d) must be integral" % (d, g))
        for d, e in acc_a.items():
            if e.denominator != 1:
                raise NonIntegralPower("plain eta exponent at %d must be integral" % d)
        self.a = {d: e for d, e in sorted(acc_a.items()) if e}
        self.ag = {k: e for k, e in sorted(acc_g.items()) if e}

    # -- structure ---------------------------------------------------------------

    def __repr__(self):
        return "GenEtaQuotient(N=%d, a=%r, ag=%r)" % (
            self.N, {d: str(e) for d, e in self.a.items()},
            {k: str(e) for k, e in self.ag.items()})

    def __eq__(self, other):
        if not isinstance(other, GenEtaQuotient):
            return NotImplemented
        s, o = self.canonicalize(), other.canonicalize()
        return (s.N, s.a, s.ag) == (o.N, o.a, o.ag)

    def __hash__(self):
        s = self.canonicalize()
        return hash((s.N, tuple(s.a.items()), tuple(s.ag.items())))

    def is_one(self) -> bool:
        s = self.canonicalize()
        return not s.a and not s.ag

    def exponent_vector(self) -> tuple:
        """Canonical exponents over all (divisor, residue) slots, for ordering."""
        s = self.canonicalize()
        key = []
        for d in divisors(self.N):
            key.append(s.a.get(d, Fraction(0)))
        for d in divisors(self.N):
            for g in range(1, d // 2 + 1):
                if 2 * g != d:
                    key.append(s.ag.get((d, g), Fraction(0)))
        return tuple(key)

    def __mul__(self, other: "GenEtaQuotient") -> "GenEtaQuotient":
        N = self.N * other.N // gcd(self.N, other.N)
        a = dict(self.a)
        for d, e in other.a.items():
            a[d] = a.get(d, Fraction(0)) + e
        ag = dict(self.ag)
        for k, e in other.ag.items():
            ag[k] = ag.get(k, Fraction(0)) + e
        return GenEtaQuotient(N, a, ag)

    def __pow__(self, k: int) -> "GenEtaQuotient":
        return GenEtaQuotient(self.N, {d: e * k for d, e in self.a.items()},
                              {kk: e * k for kk, e in self.ag.items()})

    def canonicalize(self) -> "GenEtaQuotient":
        """Push the g = 0 and g = d/2 factors into plain eta powers.

        Uses eta_{d,0} = eta(d tau)^2 and eta_{d,d/2} = eta(d tau / 2)^2
        / eta(d tau)^2; idempotent, and the expansion is unchanged.
        """
        a = dict(self.a)
        ag = {}
        for (d, g), e in self.ag.items():
            if g == 0:
                a[d] = a.get(d, Fraction(0)) + 2 * e
            elif 2 * g == d:
                half = d // 2
                a[half] = a.get(half, Fraction(0)) + 2 * e
                a[d] = a.get(d, Fraction(0)) - 2 * e
            else:
                ag[(d, g)] = e
        for d, e in a.items():
            if e.denominator != 1:
                raise NonIntegralPower("half-integral plain exponent at %d" % d)
        return GenEtaQuotient(self.N, a, ag)

    # -- analytic data -------------------------------------------------------------

    def lead_exponent(self) -> Fraction:
        """Exact leading q-exponent of the expansion."""
        total = Fraction(0)
        for d, e in self.a.items():
            total += Fraction(d, 24) * e
        for (d, g), e in self.ag.items():
            total += Fraction(d, 2) * bernoulli_p2(Fraction(g, d)) * e
        return total

    def expansion(self, terms: int, reference=False) -> QSeries:
        """Expansion with at least `terms` known coefficients past the lead."""
        s = self.canonicalize()
        order = int(terms)
        r = {d: int(e) for d, e in s.a.items()}
        rg = {k: int(e) for k, e in s.ag.items()}
        core = _product_expansion(r, rg, order, fast=not reference)
        return core.shift(self.lead_exponent())

    def expansion_reference(self, terms: int) -> QSeries:
        return self.expansion(terms, reference=True)

    # -- serialization ----------------------------------------------------------------

    def to_json(self) -> dict:
        s = self.canonicalize()
        out = {}
        for d, e in s.a.items():
            out[str(d)] = int(e)
        for (d, g), e in s.ag.items():
            out["%d/%d" % (d, g)] = int(e)
        return out

    @classmethod
    def from_json(cls, N: int, doc: dict) -> "GenEtaQuotient":
        a = {}
        ag = {}
        for k, v in doc.items():
            if "/" in k:
                d, _, g = k.partition("/")
                ag[(int(d), int(g))] = Fraction(v)
            else:
                a[int(k)] = Fraction(v)
        return cls(N, a, ag)

    @classmethod
    def one(cls, N: int) -> "GenEtaQuotient":
        return cls(N)
