"""Module bases and reduction for modular functions with poles only at
infinity.

The generator quotients span a polynomial algebra that is finitely generated
as a module over the polynomial ring in a single distinguished generator z
(the one of smallest pole order n).  module_basis returns a basis 1, e_1,
... whose pole orders are pairwise incongruent modulo n, which makes
leading-term reduction unambiguous.  It seeds each class of pole orders mod
n with a single generator and counts the positive integers the seeds leave
uncovered.  When that gap count equals the genus of X1(N), the Weierstrass
gap theorem certifies that the seeds cover every pole order a function with
poles only at infinity can have, so they are the basis; otherwise it raises
BasisIncomplete.  express reads the coefficients p_i(z) of a function
sum p_i(z) e_i off its polar part alone, by baby steps z^j e_i and giant
steps z^b on short integer windows, builds the right-hand side once at full
length and certifies membership through the constancy principle (a
remainder with no poles anywhere and positive order at infinity is zero),
double-checked coefficientwise to the certified truncation.  A basis keeps
one store of series z^j e_i, keyed (i, j), which reduction and the
independent check both read.  It expands a generator the first time a key
reads it, and keeps every series it built until a longer truncation is
asked for, so each level builds them once.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, floor, isqrt
from operator import sub

from .cusps import genus
from .series import QSeries, _pack_mul


class InsufficientTruncation(RuntimeError):
    """Expansions are too short to continue reducing."""


class NotMember(RuntimeError):
    """Reduction stalled: no basis element covers the current pole class."""


class BasisIncomplete(NotMember):
    """The seeds of a generator list do not certify a module basis: a pole
    class has no seed, or the seeds miss more pole orders than the genus."""


class VerificationFailure(RuntimeError):
    """A coefficient survived where the constancy principle demands zero."""


@dataclass
class BasisElement:
    combo: dict      # monomial (exponents over the generator list) -> coefficient
    pole: int
    gen: int | None = None   # index of the generator it is, None for the unit


@dataclass(frozen=True)
class ModuleBasis:
    """The basis 1, e_1, ... of a generator list's span over Q[z].

    gens, n and elements are fixed.  The one value that changes is the
    store, a (truncation, series) pair replaced whole by ensure_terms:
    series maps each (i, j) read so far to z^j e_i, and ("giant", b, K)
    to the search's giant step (_giant_power).  Reduction and the
    independent check both read it, so a level builds each series once.
    """
    gens: tuple                      # Generator records, z first
    n: int                           # pole order of z
    elements: tuple                  # (unit, e_1, ...)
    _store: tuple = field(repr=False, compare=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False,
                                  compare=False)

    @property
    def z(self):
        return self.gens[0]

    @property
    def width(self) -> int:
        return len(self.elements) - 1

    def ensure_terms(self, terms: int):
        """Raise the truncation to terms; the series are then read afresh."""
        with self._lock:
            if terms > self._store[0]:
                object.__setattr__(self, "_store", (terms, {}))

    def monomial_series(self, i: int, j: int = 0) -> QSeries:
        """z^j e_i, known to the store's truncation past its pole."""
        terms, series = self._store
        return self._monomial(i, j, terms, series)

    def _monomial(self, i: int, j: int, terms: int, series: dict) -> QSeries:
        """z^j e_i in series, known to terms past its pole.  (0, 0) is the
        unit.  (0, 1) and each (i, 0) are a generator's expansion, made
        under the lock, so readers that share series expand it once.  Every
        other key is (0, j - 1) (0, 1) or (0, j) (i, 0)."""
        out = series.get((i, j))
        if out is not None:
            return out
        if i == j == 0:
            out = QSeries.one(terms)
        elif j == 0 or (i, j) == (0, 1):
            g = self.gens[self.elements[i].gen if i else 0]
            with self._lock:
                if (i, j) not in series:
                    series[i, j] = g.expansion(terms + g.pole + 2).truncated(terms - g.pole)
            return series[i, j]
        elif i:
            out = self._monomial(0, j, terms, series) * self._monomial(i, 0, terms, series)
        else:
            out = self._monomial(0, j - 1, terms, series) * self._monomial(0, 1, terms, series)
        series[i, j] = out
        return out

    def combo_series(self, coeffs: dict, terms: int) -> QSeries:
        """sum p_i(z) e_i over coeffs {(i, j): c}, known to terms.

        Each p_i(z) is evaluated by Paterson-Stockmeyer (_z_polynomial): for
        degree d, b = ceil(sqrt(d + 1)) powers of z and ceil((d + 1) / b) - 1
        Horner steps, 15 full-length products where the power-by-power sum
        makes 57 at d = 57.  It is multiplied by e_i unless e_i is the unit.
        The series are read from the store at terms plus the largest pole
        of a z^j e_i plus 4, which express's truncation already covers.
        """
        polys = {}                   # element index -> {z degree: coefficient}
        for (i, j), c in coeffs.items():
            if c:
                polys.setdefault(i, {})[j] = c
        length = terms + 4 + max((max(poly) * self.n + self.elements[i].pole
                                  for i, poly in polys.items()), default=0)
        self.ensure_terms(length)
        total = QSeries.zero(terms)
        for i in sorted(polys):
            p = _z_polynomial(polys[i], lambda j: self.monomial_series(0, j))
            if i:
                p = p * self.monomial_series(i)
            total = total + p.truncated(terms)
        return total

    def element_series(self, i: int) -> QSeries:
        return self.monomial_series(i)


def _z_polynomial(poly: dict, power) -> QSeries:
    """sum c z^j over poly {j: c}, every c nonzero, by Paterson-Stockmeyer,
    reading z^j as power(j).

    For the top degree d, b = ceil(sqrt(d + 1)) powers z^1 ... z^b are read,
    the chunks sum_{i<b} c[kb+i] z^i are formed by scaling and adding (an
    all-zero chunk is skipped), and ceil((d+1)/b) - 1 Horner steps in z^b
    join them from the top down: about 2 sqrt(d) products where the
    power-by-power sum makes d.  Every chunk and partial sum keeps the
    relative precision of the powers, so the result equals the
    power-by-power sum, truncation included.
    """
    d = max(poly)
    b = isqrt(d) + 1             # ceil(sqrt(d + 1))
    total = None
    for k in range(d // b, -1, -1):
        if total is not None:
            total = total * power(b)
        for i in range(b):
            c = poly.get(k * b + i)
            if c:
                term = power(i).scale(c)
                total = term if total is None else total + term
    return total


def module_basis(gens) -> ModuleBasis:
    """Module basis of the span of the generators, certified by the genus.

    Each residue class of pole orders mod n (the pole of z) is seeded with
    the single generator of smallest pole, then leanest expansion head; the
    unit holds class 0.  The seeds leave (pole_r - r) // n positive integers
    of class r that are pole orders of no element.  At the cusp infinity of
    X1(N), exactly genus(N) positive integers are not pole orders of
    functions with no other pole (the Weierstrass gap theorem), so seeds
    with that many gaps in all n classes already reach every pole order of
    the whole ring, and they are returned as the basis.  Fewer gaps than the
    genus is impossible and raises AssertionError.  More gaps, or a class
    no generator seeds, raises BasisIncomplete.
    """
    terms = max(48, 4 * max((g.pole for g in gens), default=0))
    if not gens:
        # no nonconstant functions at all: the span is the constants
        return ModuleBasis((), 1, (BasisElement({(): Fraction(1)}, 0),),
                           _store=(terms, {}))
    n = gens[0].pole
    assert all(g.pole >= n for g in gens)
    seeds = _seeds(gens, n)
    N = gens[0].quotient.N
    g = genus(N)
    empty = [r for r in range(n) if r not in seeds]
    if empty:
        raise BasisIncomplete("level %d (genus %d): no generator seeds pole class %d mod %d"
                              % (N, g, empty[0], n))
    gaps = sum((e.pole - r) // n for r, e in seeds.items())
    if gaps < g:
        raise AssertionError("the seeds miss %d pole orders, below the genus %d"
                             % (gaps, g))
    if gaps > g:
        raise BasisIncomplete("level %d: the seeds miss %d pole orders, above the genus %d"
                              % (N, gaps, g))
    others = sorted((e for r, e in seeds.items() if r != 0), key=lambda e: e.pole)
    return ModuleBasis(tuple(gens), n, (seeds[0],) + tuple(others),
                       _store=(terms, {}))


def _seeds(gens, n: int) -> dict:
    """Pole class -> element: the unit at 0, then in each other class the
    generator of smallest pole, then leanest head, then first in the list."""
    best = {}
    for i, g in enumerate(gens):
        r, key = g.pole % n, (g.pole, g.head, i)
        if r and (r not in best or key < best[r]):
            best[r] = key
    k = len(gens)
    seeds = {0: BasisElement({(0,) * k: Fraction(1)}, 0)}
    for r, (pole, _, i) in best.items():
        seeds[r] = BasisElement({tuple(int(j == i) for j in range(k)): Fraction(1)}, pole, i)
    return seeds


class Expression(dict):
    """{(element index, z degree): coefficient}, as express returns it,
    with .series, the right-hand side sum p_i(z) e_i it certified f by."""

    def __init__(self, coeffs: dict, series: QSeries):
        super().__init__(coeffs)
        self.series = series


def express(f: QSeries, mb: ModuleBasis, certify_to: int) -> Expression:
    """Membership test and expression of f over the basis.

    The coefficients come from the polar window of f alone (_polar_search).
    The caller certifies that f has nonnegative order at every finite cusp;
    then f minus the right-hand side, having positive order at infinity, is
    identically zero, and we additionally verify its coefficients vanish up
    to certify_to: the right-hand side is built once, at full length
    (ModuleBasis.combo_series), and returned with the coefficients.
    """
    lead = f.leading()
    pole0 = int(-lead[0]) if lead is not None and lead[0] < 0 else 0
    n = mb.n
    degree = pole0 // n
    b = isqrt(degree) + 1                       # ceil(sqrt(degree + 1))
    P = max(e.pole for e in mb.elements)
    # past certify_to, the baby steps need b n + P terms beyond the pole
    mb.ensure_terms(max(certify_to, b * n + P) + pole0 + 8)
    coeffs = _polar_search(f, mb, b, degree // b if mb.gens else 0)
    rhs = mb.combo_series(coeffs, min(ceil(f.bound()), certify_to))
    rem = f - rhs
    if rem.bound() < certify_to:
        raise InsufficientTruncation(
            "remainder known to %s, need %d" % (rem.bound(), certify_to))
    if not rem.is_known_zero():
        e, c = rem.leading()
        raise VerificationFailure(
            "coefficient %s at q^%s survives the reduction" % (c, e))
    return Expression(coeffs, rhs)


def _polar_search(f: QSeries, mb: ModuleBasis, b: int, K: int) -> dict:
    """The coefficients {(element index, z degree): c} of f over the basis,
    read off the polar window of f (its terms up to q^0) by baby steps
    z^j e_i and the giant step Z = z^b (Paterson-Stockmeyer, Brent-Kung).

    Let W = 1/Z and P the largest element pole.  Chunk k reads
    R_k = (f - the terms found so far) W^k, known to q^(k b n), starting
    from R_K = f W^K with f cut at q^1.  A term c z^J e_i of f shows in R_k
    as c z^(J - kb) e_i, of pole (J - kb) n + pole(e_i).  Chunk k clears the
    poles above P - n, highest first, each by its leading coefficient
    against the baby step z^j e_i, j = J - kb < b + P/n; the terms of lower
    chunks lie at or below P - n.  Then R_(k-1) = R_k Z.  Chunk 0 clears
    every pole and the constant, so with K = 0 this is the leading-pole loop
    itself, on the polar window.  Every step is on integer lists (numerators
    over one denominator): a chunk costs one product by Z and one
    subtraction per pole, and the window shrinks by b n a chunk.

    The poles of f are cleared in descending order, as a loop over f at
    full length clears them, so the same pole raises the same NotMember, or
    ValueError for a pole of fractional order.  When f is known to no
    nonnegative order, InsufficientTruncation is raised after its poles.
    """
    n, elements = mb.n, mb.elements
    by_class = {e.pole % n: i for i, e in enumerate(elements)} if mb.gens else {}
    P = max(e.pole for e in elements)
    lead = f.leading()
    top = max(0, -floor(lead[0])) if lead is not None else 0
    hi = min(1, ceil(f.bound()))          # orders below hi are read
    fractional = [e for e, _ in f.terms() if e.denominator != 1] if f.denom != 1 else []
    step = b * n
    R, den, lo = _ints(f, -top, top + hi), f.den, -top
    if K:
        giant = _giant_power(mb, b, K)
        R = _pack_mul(R, _ints(giant, K * step, len(R)), 0, len(R))
        den, lo = den * giant.den, lo + K * step
        power = mb.monomial_series(0, b)
        z_window, z_den = _ints(power, -step, len(R)), power.den
    babies = {}
    coeffs = {}
    for k in range(K, -1, -1):
        stop = n - P if k else 1           # the orders this chunk clears
        for t in range(min(stop - lo, len(R))):
            r = R[t]
            if not r:
                continue
            p = -(lo + t)
            if fractional and fractional[0] < -p - k * step:
                raise ValueError("pole order is not an integer: %s" % fractional[0])
            i = by_class.get(p % n) if p else 0
            if i is None or elements[i].pole > p:
                if not mb.gens:
                    raise NotMember("a pole of order %d over an empty basis" % p)
                raise NotMember("no basis element matches pole order %d" % (p + k * step))
            j = (p - elements[i].pole) // n
            if (i, j) not in babies:
                babies[i, j] = _baby(mb, i, j, K * step + hi + p)
            baby, baby_den = babies[i, j]
            coeffs[i, k * b + j] = Fraction(r * baby_den, den * baby[0])
            if baby[0] != 1:
                R, den = [baby[0] * x for x in R], den * baby[0]
            R[t:] = map(sub, R[t:], map(r.__mul__, baby))
        if k:
            cut = min(len(R), max(0, stop - lo))
            R = _pack_mul(R[cut:], z_window, 0, len(R) - cut)
            den, lo = den * z_den, lo + cut - step
    if fractional and fractional[0] < 0:
        raise ValueError("pole order is not an integer: %s" % fractional[0])
    if f.bound() <= 0:
        raise InsufficientTruncation("series known to no terms")
    return coeffs


def _baby(mb: ModuleBasis, i: int, j: int, count: int):
    """(numerators, denominator) of z^j e_i from its pole on, count terms,
    read from the basis's store."""
    series = mb.monomial_series(i, j)
    out = _ints(series, -(j * mb.n + mb.elements[i].pole), count)
    if not out[0]:
        raise AssertionError("reduction failed to decrease the pole order")
    return out, series.den


def _giant_power(mb: ModuleBasis, b: int, K: int) -> QSeries:
    """W^K = z^(-bK), known (K + 1) b n + P + 1 terms past its lead, which
    covers the polar window of every f with K = (pole // n) // b.  It is
    kept in the basis's store, made under its lock, so a level makes it once
    for each (b, K)."""
    key = ("giant", b, K)
    series = mb._store[1]
    held = series.get(key)
    if held is not None:
        return held
    power = mb.monomial_series(0, b)
    terms = (K + 1) * b * mb.n + max(e.pole for e in mb.elements) + 1
    with mb._lock:
        if key not in series:
            series[key] = power.truncated(-b * mb.n + terms).invert() ** K
    return series[key]


def _ints(s: QSeries, lo: int, count: int) -> list:
    """Numerators over s.den of the coefficients of q^lo ... q^(lo+count-1)
    of s, whose exponents are read as integers."""
    if count > 0 and lo + count - 1 >= s.bound():
        raise InsufficientTruncation(
            "series known to q^%s, need q^%d" % (s.bound(), lo + count - 1))
    if count <= 0:
        return []
    if s.denom != 1:
        return [s._at(e * s.denom) for e in range(lo, lo + count)]
    out = [0] * count
    stride = s.stride or 1
    first = max(0, -((s.val - lo) // stride))
    last = min(len(s.num), -((s.val - lo - count) // stride))
    if first < last:
        at = s.val + first * stride - lo
        out[at:at + (last - first - 1) * stride + 1:stride] = s.num[first:last]
    return out
