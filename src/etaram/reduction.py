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
BasisIncomplete.  reduce_by_basis strips poles one at a time, and express
certifies membership through the constancy principle (a remainder with no
poles anywhere and positive order at infinity is zero), double-checked
coefficientwise to the certified truncation.  A basis keeps one store of
series, which reduction and the independent check both read.  It expands a
generator the first time a monomial reads it, and keeps every series it
built until a longer truncation is asked for, so each level builds them
once.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt

from .cusps import genus
from .series import QSeries


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


@dataclass(frozen=True)
class ModuleBasis:
    """The basis 1, e_1, ... of a generator list's span over Q[z].

    gens, n and elements are fixed.  The one value that changes is the
    store, a (truncation, series) pair replaced whole by ensure_terms:
    series maps each monomial read so far to its series, and each
    generator index read so far to that generator's expansion.  Reduction
    and the independent check both read it, so a level builds each series
    once.
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

    def monomial_series(self, mono: tuple) -> QSeries:
        terms, series = self._store
        return _monomial_series(mono, self.gens, terms, series, self._lock)

    def combo_series(self, combo: dict) -> QSeries:
        return _combination(combo, self.monomial_series, self._store[0])

    def element_series(self, idx: int) -> QSeries:
        return self.combo_series(self.elements[idx].combo)


def _monomial_series(mono, gens, terms, series, lock) -> QSeries:
    """prod gens[i]**mono[i], known to terms coefficients past its pole.

    series caches every monomial under its exponent tuple and every
    generator under its index.  A generator is expanded the first time a
    monomial needs it, at terms + pole + 2, under lock, so readers that
    share series expand it once.
    """
    cached = series.get(mono)
    if cached is not None:
        return cached
    if not any(mono):
        out = QSeries.one(terms)
    else:
        i = max(j for j, e in enumerate(mono) if e)
        below = tuple(e if j != i else e - 1 for j, e in enumerate(mono))
        with lock:
            if i not in series:
                series[i] = gens[i].expansion(terms + gens[i].pole + 2)
        out = _monomial_series(below, gens, terms, series, lock) * series[i]
    series[mono] = out
    return out


def _combination(combo, monomial, terms) -> QSeries:
    """sum c * monomial(mono) over the combo, in sorted monomial order."""
    total = None
    for mono, c in sorted(combo.items()):
        term = monomial(mono).scale(c)
        total = term if total is None else total + term
    return total if total is not None else QSeries.zero(terms)


def _z_polynomial(poly, monomial, terms) -> QSeries:
    """sum c * z**j over poly {monomial z^j: c} by Paterson-Stockmeyer.

    For the top degree d, b = ceil(sqrt(d + 1)) powers z^1 ... z^b are read
    through monomial, the chunks sum_{i<b} c[kb+i] z^i are formed by scaling
    and adding (an all-zero chunk is skipped), and ceil((d+1)/b) - 1 Horner
    steps in z^b join them from the top down: about 2 sqrt(d) products where
    the power-by-power _combination makes d.  Every chunk and partial sum
    keeps the relative precision of the powers, so the result equals
    _combination(poly, monomial, terms), truncation included.
    """
    coeffs = {sum(mono[:1]): c for mono, c in poly.items() if c}   # () is z^0
    if not coeffs:
        return QSeries.zero(terms)
    width = len(next(iter(poly)))

    def power(j):
        return tuple(j if i == 0 else 0 for i in range(width))

    d = max(coeffs)
    b = isqrt(d) + 1             # ceil(sqrt(d + 1))
    total = None
    for k in range(d // b, -1, -1):
        chunk = {power(i): coeffs[k * b + i] for i in range(b) if k * b + i in coeffs}
        if total is not None:
            total = total * monomial(power(b))
        if chunk:
            part = _combination(chunk, monomial, terms)
            total = part if total is None else total + part
    return total


def _pole_of(series: QSeries):
    """Pole order of a series, or None when no pole is visible.

    Raises when the known range cannot even decide the sign of the order.
    """
    lead = series.leading()
    if lead is None:
        if series.bound() <= 0:
            raise InsufficientTruncation("series known to no terms")
        return None
    e, _ = lead
    if e >= 0:
        return None
    if e.denominator != 1:
        raise ValueError("pole order is not an integer: %s" % e)
    return -int(e)


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
        seeds[r] = BasisElement({tuple(int(j == i) for j in range(k)): Fraction(1)}, pole)
    return seeds


def reduce_by_basis(f: QSeries, mb: ModuleBasis):
    """Leading-pole reduction of f against the basis and powers of z.

    Returns ({(element index, z degree): coefficient}, remainder); the
    remainder has no visible pole.  Raises NotMember when a pole class has no
    usable basis element and InsufficientTruncation when the series runs out.
    Every step must lower the pole, so the loop ends and no key repeats.
    """
    by_class = {e.pole % mb.n: i for i, e in enumerate(mb.elements)} if mb.gens else {}
    coeffs = {}
    while True:
        p = _pole_of(f)
        if p is None:
            return coeffs, f
        i = by_class.get(p % mb.n)
        if i is None or mb.elements[i].pole > p:
            if not mb.gens:
                raise NotMember("a pole of order %d over an empty basis" % p)
            raise NotMember("no basis element matches pole order %d" % p)
        e = mb.elements[i]
        j = (p - e.pole) // mb.n
        c = f.leading()[1]
        shifted = {(mono[0] + j,) + mono[1:]: v for mono, v in e.combo.items()}
        reduced = f - mb.combo_series(shifted).scale(c)
        p2 = _pole_of(reduced)
        if p2 is not None and p2 >= p:
            raise AssertionError("reduction failed to decrease the pole order")
        coeffs[i, j] = c
        f = reduced


def express(f: QSeries, mb: ModuleBasis, certify_to: int):
    """Membership test and expression of f over the basis.

    The caller certifies that f has nonnegative order at every finite cusp;
    then a remainder with positive order at infinity is identically zero, and
    we additionally verify its coefficients vanish up to certify_to.
    """
    lead = f.leading()
    pole0 = int(-lead[0]) if lead is not None and lead[0] < 0 else 0
    mb.ensure_terms(certify_to + pole0 + 8)
    coeffs, rem = reduce_by_basis(f, mb)
    if rem.bound() <= 0:
        raise InsufficientTruncation("remainder undetermined at order zero")
    c0 = rem.coefficient(0)
    if c0:
        key = (0, 0)
        coeffs[key] = coeffs.get(key, Fraction(0)) + c0
        rem = rem - QSeries.monomial(0, c0, rem.bound())
    if rem.bound() < certify_to:
        raise InsufficientTruncation(
            "remainder known to %s, need %d" % (rem.bound(), certify_to))
    if not rem.is_known_zero():
        e, c = rem.leading()
        raise VerificationFailure(
            "coefficient %s at q^%s survives the reduction" % (c, e))
    coeffs = {k: v for k, v in coeffs.items() if v}
    return coeffs
