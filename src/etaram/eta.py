"""Partition-function products and generalized eta-quotients.

Two kinds of objects live here.  A PartitionSpec fixes a sequence a(n) through
a finite product of Pochhammer factors

    sum a(n) q^n  =  prod_{d | M} (q^d; q^d)^r[d]
                     * prod_{d | M, 0<g<d} (q^g, q^(d-g); q^d)^rg[d, g],

and a GenEtaQuotient is a finite product of eta(d*tau)**a[d] and generalized
factors eta_{d,g}(tau)**ag[d, g] at some level N.  Both expand to exact
QSeries values through one product cache, which holds each product once, as
the integer coefficient list of the plain product prod (1 - q^n)^c[n].  The
reference route runs the integer Euler-transform recurrence of the plain
product (euler_transform, which the expression language in exprs.py reads
through reference_product too), and every product runs it but one.  The
partition product 1/(q; q), of at least _FAST_TERMS coefficients, takes the
fast route: Euler's pentagonal recurrence (series.partition_numbers), which
shares no code with the transform.  Its list is stored only after
certify_product has proved every coefficient against the transform's
recurrence (two products through series._pack_mul, the package's one
integer product, about the cost of the transform's top level); a list that
fails is never stored, and the transform runs instead.  So every entry is
proved, whichever route made it.  In a derivation the fast route serves
the partition products of p(11n+6) and p(125n+99); every quotient and
multi-factor product runs the transform.

An entry is keyed by the progressions of n its exponents run over
(progressions), so a spec, a quotient and an expression with the same
product read one entry.  The key is held in lowest terms: when its starts
and steps share a factor g > 1 it names a series in q^g, every progression
is divided by g, so 1/(q^g; q^g) is the partition product too, and a read
spreads the entry's coefficients to every g-th index.  An entry holds the
longest expansion asked for; a shorter request is a prefix, and a longer
one expands the partition product again on the fast route, or else extends
the held list by the transform.  Past _PRODUCT_TERMS coefficients in all,
the entries read least recently go.  One lock guards the cache, so
derivations and verifications on several threads share it.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from math import gcd
from operator import add, mul

from .series import QSeries, _pack_mul, partition_numbers


class NonIntegralPower(ValueError):
    """A half-integral exponent survives where an integer is required."""


def bernoulli_p2(x) -> Fraction:
    """Second Bernoulli function {x}^2 - {x} + 1/6 (period 1, even)."""
    x = Fraction(x)
    frac = x - (x.numerator // x.denominator)
    return frac * frac - frac + Fraction(1, 6)


def b2_numerator(x: int, e: int) -> int:
    """6 e^2 B2(x/e), an integer: 6r^2 - 6re + e^2 with r = x mod e."""
    r = x % e
    return 6 * r * r - 6 * r * e + e * e


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def lead_exponent(a: dict, ag: dict, N: int) -> Fraction:
    """Leading q-exponent of prod eta(d tau)**a[d] * prod eta_{d,g}**ag[d, g].

    eta(d tau) leads with d/24 and eta_{d,g} with (d/2) B2(g/d) =
    b2_numerator(g, d) / (12d); both are summed as integer numerators over
    24N (every d divides N).
    """
    total = sum(e * d * N for d, e in a.items())
    for (d, g), e in ag.items():
        total += 2 * e * b2_numerator(g, d) * (N // d)
    return Fraction(total, 24 * N)


def _strict_int(value) -> int:
    """A spec number, which must be a JSON integer: no float, no boolean."""
    if type(value) is not int:
        raise ValueError("spec number %r is not an integer" % (value,))
    return value


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
            if d < 1 or M % d:
                raise ValueError("r key %d does not divide M=%d" % (d, M))
            if e:
                self.r[d] = self.r.get(d, 0) + e
        self.rg = {}
        for (d, g), e in (rg or {}).items():
            d, g, e = int(d), int(g), int(e)
            if d < 1 or M % d:
                raise ValueError("rg key delta=%d does not divide M=%d" % (d, M))
            if not 0 < g < d:
                raise ValueError("rg key g=%d out of range for delta=%d" % (g, d))
            g = _fold_pair_key(d, g)
            if e:
                self.rg[(d, g)] = self.rg.get((d, g), 0) + e
        self.r = {d: e for d, e in sorted(self.r.items()) if e}
        self.rg = {k: e for k, e in sorted(self.rg.items()) if e}
        self._shift = -lead_exponent(self.r, self.rg, M)

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
        if "M" not in doc:
            raise ValueError("spec has no key M")
        r = {int(k): _strict_int(v) for k, v in doc.get("r", {}).items()}
        rg = {}
        for k, v in doc.get("rg", {}).items():
            d, _, g = k.partition("/")
            rg[(int(d), int(g))] = _strict_int(v)
        return cls(_strict_int(doc["M"]), r, rg)

    def to_json(self) -> dict:
        out = {"M": self.M, "r": {str(d): e for d, e in self.r.items()}}
        if self.rg:
            out["rg"] = {"%d/%d" % k: e for k, e in self.rg.items()}
        return out

    # -- invariants of the product ---------------------------------------------

    def eta_shift(self) -> Fraction:
        """Rational l with q**(-l) * product equal to a quotient of eta
        factors, held from the constructor."""
        return self._shift

    def slice_prefactor(self, m: int, t: int) -> Fraction:
        return Fraction(t - self._shift, m)

    # -- expansions -------------------------------------------------------------

    def product_expansion(self, order: int) -> QSeries:
        """Coefficients a(0..order-1) of the defining product, exact."""
        return QSeries.from_ints(_cached_product(self.r, self.rg, order))

    def product_expansion_reference(self, order: int) -> QSeries:
        """The same coefficients, read by reference_product: the cache's
        entry, made or extended by the integer Euler transform alone."""
        return QSeries.from_ints(reference_product(_spec_progressions(self.r, self.rg), order))

    def slice_expansion(self, m: int, t: int, terms: int) -> QSeries:
        """q**((t-l)/m) * sum_n a(m n + t) q^n with at least `terms` coefficients."""
        if not 0 <= t < m:
            raise ValueError("need 0 <= t < m")
        # whole blocks of m, so every residue of one modulus reads one
        # product; sifted as integers, terms + 1 of them
        sliced = _cached_product(self.r, self.rg, m * (terms + 1))[t::m]
        return QSeries.from_ints(sliced).shift(self.slice_prefactor(m, t))


_PRODUCT_CACHE = {}    # progressions tuple in lowest terms -> certified integer list
_PRODUCT_LOCK = threading.Lock()

# _product takes the fast route for the partition product of at least this
# many coefficients.  Measured at 1,000, the fast route with its certificate
# took 14.0 ms and the transform 14.3 ms.
_FAST_TERMS = 1000


def _cached_product(r, rg, order) -> list:
    """The product's integer coefficients below q**order through the product
    cache (_product), which offers the fast route to the partition product.

    On a miss the partition product of n >= _FAST_TERMS coefficients, in
    q^g for 1/(q^g; q^g), is expanded by _product_expansion and pays
    certify_product as well.  Any other product runs euler_transform, as
    after a failed certificate.  Best of 3-5 runs on a 2-vCPU machine, fast
    route plus certificate against the transform:

        partitions, 1,969 terms (p(11n+6))       16 + 19.5 ms    43 ms
        partitions, 20,000 terms (p(125n+99))     0.45 + 0.57 s  1.95 s

    A product of several factors, or of a power other than -1, gained less
    from a fast route of its own than the certificate cost at the lengths a
    derivation reads (measured in README.md), so it runs the transform.
    """
    order = int(order)
    if order < 1:
        raise ValueError("order must be positive")
    return _product(_spec_progressions(r, rg), order, fast=True)


def progressions(factors) -> tuple:
    """The product cache's key for prod (1 - q^n)^e over factors.

    Each factor is ((start, step), e), raising (1 - q^n) to e for n = start,
    start + step, ...; the key sorts them, merges equal progressions and
    drops zero exponents.
    """
    merged = {}
    for key, e in factors:
        merged[key] = merged.get(key, 0) + e
    return tuple(sorted((key, e) for key, e in merged.items() if e))


def _spec_progressions(r, rg) -> tuple:
    """progressions of (q^d; q^d)^r[d] and (q^g, q^(d-g); q^d)^rg[d, g]:
    both residues, the same one twice when 2g = d."""
    return progressions([((d, d), e) for d, e in r.items()]
                        + [((start, d), e) for (d, g), e in rg.items() for start in (g, d - g)])


def reference_product(key, order) -> list:
    """Integer coefficients f(0..order-1) of the product `key` names, a
    progressions tuple: the cache's entry, made or extended by
    euler_transform alone on a miss."""
    return _product(key, order)


def _product(key, order, fast=False) -> list:
    """f(0..order-1) of the product `key` names, through the product cache.

    g is the gcd of every start and step in the key (1 for the empty key).
    The entry is held under the key with every progression divided by g,
    a product in q whose coefficient j is f(g j): it is read to
    ceil(order/g) coefficients and spread to every g-th index.  A shorter
    list than that is a miss.  On a miss, when fast is set and the reduced
    key is the partition product's, _product_expansion expands those n >=
    _FAST_TERMS coefficients, and the list is stored only if certify_product
    proves it; otherwise euler_transform extends the held list.  A read
    moves the entry last, for _publish's bound.
    """
    g = 0
    for (start, step), _ in key:     # sorted: one gcd when the first start is 1
        g = gcd(g, start, step)
        if g == 1:
            break
    if g > 1:
        key = tuple(((start // g, step // g), e) for (start, step), e in key)
    else:
        g = 1
    n = -(-order // g)
    with _PRODUCT_LOCK:
        held = _PRODUCT_CACHE.pop(key, None)
        if held is not None:
            _PRODUCT_CACHE[key] = held
    if held is None or len(held) < n:
        c = _exponents(key, n)
        partitions = fast and key == (((1, 1), -1),) and n >= _FAST_TERMS
        f = _product_expansion(n) if partitions else None
        if f is None or certify_product(f, c) is not None:
            f = euler_transform(c, held or ())
        held = _publish(key, f)
    if g == 1:
        return held[:order]
    out = [0] * order
    out[::g] = held[:n]
    return out


# coefficients the cache may hold in all: 5x the test suite's peak, ~104,000
_PRODUCT_TERMS = 1 << 19
_held_terms = 0     # an upper bound on what it holds, exact after a count


def _exponents(key, order) -> list:
    """c[n], the exponent of (1 - q^n) below q^order in the product `key` names."""
    c = [0] * order
    for (start, step), e in key:
        for n in range(start, order, step):
            c[n] += e
    return c


def _publish(key, f) -> list:
    """Store f under key unless another thread already stored a longer list,
    and count it; past _PRODUCT_TERMS, count exactly and drop the entries
    read least recently but key's until within it."""
    global _held_terms
    with _PRODUCT_LOCK:
        held = _PRODUCT_CACHE.get(key)
        if held is not None and len(held) >= len(f):
            return held
        _PRODUCT_CACHE[key] = f
        _held_terms += len(f)
        if _held_terms > _PRODUCT_TERMS:
            _held_terms = sum(map(len, _PRODUCT_CACHE.values()))
            for k in list(_PRODUCT_CACHE):
                if _held_terms > _PRODUCT_TERMS and k != key:
                    _held_terms -= len(_PRODUCT_CACHE.pop(k))
        return f


_EULER_BLOCK = 64   # blocks this short sum their convolution directly


def _log_derivative(c) -> list:
    """s(k) = -sum_{d | k} d c(d) for k < len(c), s(0) = 0: the logarithmic
    derivative q f'/f of prod_{n>0} (1 - q^n)^c[n] (c[0] is ignored)."""
    order = len(c)
    s = [0] * order
    for n in range(1, order):
        if c[n]:
            v = n * c[n]
            for k in range(n, order, n):
                s[k] -= v
    return s


def euler_transform(c, known=()) -> list:
    """Integer coefficients below q^len(c) of prod_{n>0} (1 - q^n)^c[n].

    The logarithmic derivative gives  n f(n) = sum_{k=1..n} s(k) f(n-k)  with
    s = _log_derivative(c).  Every step is integer arithmetic and no
    series is multiplied or inverted; c[0] is ignored.  `known` is a prefix of
    the answer from an earlier call; the recurrence continues after it.

    The convolution is evaluated online by divide and conquer: once f on
    [lo, mid) is known, its whole contribution to [mid, hi) is one product
    through _pack_mul, so the cost is O(M(T) log T) instead of O(T^2).
    """
    order = len(c)
    f = list(known[:order]) or [1]
    if len(f) == order:
        return f
    s = _log_derivative(c)
    # acc[n] collects s(n-j) f(j) over every j already folded in: s(n) if fresh
    acc = [0] * order
    acc[len(f):] = s[1:] if f == [1] else _pack_mul(f, s[1:order], len(f) - 1, order - 1)

    def solve(lo, hi):
        if hi - lo <= _EULER_BLOCK:
            for n in range(lo, hi):
                total, rem = divmod(acc[n] + sum(map(mul, s[1:n - lo + 1],
                                                     reversed(f[lo:n]))), n)
                if rem:
                    raise AssertionError("Euler transform left a remainder at q^%d" % n)
                f.append(total)
            return
        mid = (lo + hi) // 2
        solve(lo, mid)
        # f(lo + i) s(1 + k) lands on n = lo + i + k + 1: read n in [mid, hi)
        acc[mid:hi] = map(add, acc[mid:hi],
                          _pack_mul(f[lo:mid], s[1:hi - lo], mid - lo - 1, hi - lo - 1))
        solve(mid, hi)

    solve(len(f), order)
    return f


def certify_product(f, c):
    """The least n at which f breaks the Euler-transform identity of
    prod_{n>0} (1 - q^n)^c[n], or None when f is that product below
    q^len(f) = q^len(c).

    f is the product exactly when f(0) = 1 and n f(n) = sum_{k=1..n} s(k)
    f(n-k) for 0 < n < T, s = _log_derivative(c): that recurrence fixes each
    f(n) from the ones before it.  The sums are the window [0, T-1) of
    f[0:T-1] s[1:T], taken as two products split at h = T // 2: f[0:h]
    s[1:T] gives every n's part from f(0..h-1), and f[h:T-1] s[1:T-h] adds
    f(h..T-2)'s part for n > h.  The larger is euler_transform's own
    top-level product; n <= h is checked, and its sums dropped, before the
    other is made.
    """
    T = len(f)
    if f[0] != 1:
        return 0
    if T == 1:
        return None
    s = _log_derivative(c)
    h = T // 2
    sums = _pack_mul(f[:h], s[1:T], 0, T - 1)
    bad = _first_break(f, sums[:h], 1)
    if bad is not None or h == T - 1:
        return bad
    del sums[:h]
    sums = list(map(add, sums, _pack_mul(f[h:T - 1], s[1:T - h], 0, T - 1 - h)))
    return _first_break(f, sums, h + 1)


def _first_break(f, sums, n0):
    """The least n >= n0 with n f(n) != sums[n - n0], or None."""
    return next((n for n, x in enumerate(sums, n0) if x != n * f[n]), None)


def _product_expansion(order) -> list:
    """The fast route: the partition product's coefficients below q**order
    by Euler's pentagonal recurrence (series.partition_numbers)."""
    return partition_numbers(order)


class GenEtaQuotient:
    """prod eta(d*tau)**a[d] * prod eta_{d,g}(tau)**ag[d,g] at level N.

    Only the canonical form is stored, every exponent an int, and the lead
    exponent once it is read; the object is immutable.  a is keyed by
    divisors d of N, and ag by (d, g) with 0 < g < d/2.  The constructor
    also takes any g (folded by g -> d - g and modulo d) and half-integral
    exponents at g = 0 and 2g = d, where the factor is a plain eta power in
    disguise: eta_{d,0} = eta(d tau)^2 and eta_{d,d/2} = eta(d tau/2)^2 /
    eta(d tau)^2 (Robins 1994).  It folds those into a.  An int exponent
    stays an int through the checks; only another type is read as a Fraction.
    """

    def __init__(self, N: int, a=None, ag=None):
        if N < 1:
            raise ValueError("level must be positive")
        self.N = N
        plain: dict = {}
        paired: dict = {}
        for d, e in (a or {}).items():
            d = int(d)
            if d < 1 or N % d:
                raise ValueError("eta argument %d does not divide level %d" % (d, N))
            plain[d] = plain.get(d, 0) + (e if isinstance(e, int) else Fraction(e))
        for (d, g), e in (ag or {}).items():
            d, g = int(d), int(g)
            if d < 1 or N % d:
                raise ValueError("eta argument %d does not divide level %d" % (d, N))
            k = (d, _fold_pair_key(d, g))
            paired[k] = paired.get(k, 0) + (e if isinstance(e, int) else Fraction(e))
        generalized = {}
        for (d, g), e in paired.items():
            if g and 2 * g != d:
                if e.denominator != 1:
                    raise NonIntegralPower("exponent at (%d, %d) must be integral" % (d, g))
                generalized[d, g] = e
                continue
            if (2 * e).denominator != 1:
                raise NonIntegralPower("exponent at (%d, %d) must be half-integral" % (d, g))
            if g == 0:
                plain[d] = plain.get(d, 0) + 2 * e
            else:
                plain[g] = plain.get(g, 0) + 2 * e
                plain[d] = plain.get(d, 0) - 2 * e
        for d, e in plain.items():
            if e.denominator != 1:
                raise NonIntegralPower("plain eta exponent at %d must be integral" % d)
        self.a = {d: int(e) for d, e in sorted(plain.items()) if e}
        self.ag = {k: int(e) for k, e in sorted(generalized.items()) if e}
        self._lead = None

    # -- structure ---------------------------------------------------------------

    def __repr__(self):
        return "GenEtaQuotient(N=%d, a=%r, ag=%r)" % (self.N, self.a, self.ag)

    def __eq__(self, other):
        if not isinstance(other, GenEtaQuotient):
            return NotImplemented
        return (self.N, self.a, self.ag) == (other.N, other.a, other.ag)

    def __hash__(self):
        return hash((self.N, tuple(self.a.items()), tuple(self.ag.items())))

    def is_one(self) -> bool:
        return not self.a and not self.ag

    def __mul__(self, other: "GenEtaQuotient") -> "GenEtaQuotient":
        N = self.N * other.N // gcd(self.N, other.N)
        a = dict(self.a)
        for d, e in other.a.items():
            a[d] = a.get(d, 0) + e
        ag = dict(self.ag)
        for k, e in other.ag.items():
            ag[k] = ag.get(k, 0) + e
        return GenEtaQuotient(N, a, ag)

    def __pow__(self, k: int) -> "GenEtaQuotient":
        return GenEtaQuotient(self.N, {d: e * k for d, e in self.a.items()},
                              {kk: e * k for kk, e in self.ag.items()})

    # -- analytic data -------------------------------------------------------------

    def lead_exponent(self) -> Fraction:
        """Exact leading q-exponent of the expansion, kept after its first read."""
        if self._lead is None:
            self._lead = lead_exponent(self.a, self.ag, self.N)
        return self._lead

    def expansion(self, terms: int) -> QSeries:
        """Expansion with at least `terms` known coefficients past the lead,
        its product read through the cache the partition-function products
        share (_cached_product)."""
        return QSeries.from_ints(_cached_product(self.a, self.ag, terms)).shift(
            self.lead_exponent())

    def product_coefficients(self, terms: int) -> list:
        """Integer coefficients f(0..terms-1) of the product before its
        q**lead_exponent() shift, from reference_product: the shared cache's
        entry, or the integer Euler transform, no QSeries built."""
        return reference_product(_spec_progressions(self.a, self.ag), terms)

    # -- serialization ----------------------------------------------------------------

    def to_json(self) -> dict:
        out = {str(d): e for d, e in self.a.items()}
        for k, e in self.ag.items():
            out["%d/%d" % k] = e
        return out

    @classmethod
    def from_json(cls, N: int, doc: dict) -> "GenEtaQuotient":
        a = {}
        ag = {}
        for k, v in doc.items():
            if "/" in k:
                d, _, g = k.partition("/")
                ag[(int(d), int(g))] = v
            else:
                a[int(k)] = v
        return cls(N, a, ag)
