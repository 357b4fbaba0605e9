"""Generators of the monoid of eta-quotient modular functions whose only
pole sits at infinity.

A generalized eta-quotient is such a modular function exactly when one linear
form in its exponents vanishes, its order at every finite cusp is a
nonnegative integer, and its order at infinity is an integer.  After scaling
the half-integral slots these conditions become an integer Diophantine system
whose solution monoid has a finite Hilbert basis; the pointed generators give
the quotient generators, the lineality part only produces the constant 1.

A candidate's record is built from integers and per-level tables: the first
coefficients of its product by the Euler transform of its exponents,
combined from exponent_table's rows (no product cache read), its lead
exponent, and its cusp orders by the closed formula, one dot product per
order form of cusps.order_table.  No candidate is expanded on the fast route.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .cusps import INFINITY, exponent_slots, order_table, slot_vector, table_orders
from .eta import GenEtaQuotient, _exponents, _spec_progressions, euler_transform
from .lattice import DioSystem, hilbert_basis


@dataclass(frozen=True)
class PoleFreeSystem:
    """The cleared integer system cutting out the monoid at level N."""
    system: DioSystem
    slots: tuple          # (delta, g) per exponent variable
    retained: tuple       # CuspData for each slack variable, infinity last

    @property
    def nslots(self):
        return len(self.slots)


@functools.lru_cache(maxsize=None)
def pole_free_system(N: int) -> PoleFreeSystem:
    slots = exponent_slots(N)
    # one slack per order form of order_table, infinity's (last) free
    forms = order_table(N).forms
    retained = tuple(data for data, _, _ in forms)
    # weight condition: the g = 0 scaled exponents sum to zero
    rows = [[1 if g == 0 else 0 for d, g in slots] + [0] * len(forms)]
    for i, (_, form, den) in enumerate(forms):
        rows.append(list(form) + [0] * i + [-den] + [0] * (len(forms) - 1 - i))
    nonneg = [len(slots) + i for i in range(len(forms) - 1)]
    return PoleFreeSystem(system=DioSystem(rows, nonneg), slots=tuple(slots), retained=retained)


def quotient_from_scaled(N: int, slots, vector) -> GenEtaQuotient:
    """The canonical quotient of a scaled exponent vector, built in integers.

    A half slot's scaled entry v is twice its exponent, and eta_{d,0}^(v/2) =
    eta(d tau)^v, eta_{d,d/2}^(v/2) = eta(d tau/2)^v / eta(d tau)^v, so the
    canonical form has the integer exponents below, and the constructor
    stores them as they are.
    """
    a, ag = {}, {}
    for (d, g), v in zip(slots, vector):
        if not v:
            continue
        if g == 0:
            a[d] = a.get(d, 0) + v
        elif 2 * g == d:
            a[g] = a.get(g, 0) + v
            a[d] = a.get(d, 0) - v
        else:
            ag[d, g] = v
    return GenEtaQuotient(N, a, ag)


@functools.lru_cache(maxsize=None)
def exponent_table(N: int) -> tuple:
    """c[0..49] per exponent slot of exponent_slots(N), c[n] the exponent of
    (1 - q^n) in the product of the slot's unit vector's quotient; c is
    linear in the scaled vector, so these rows give every quotient's."""
    slots = exponent_slots(N)
    table = []
    for i in range(len(slots)):
        q = quotient_from_scaled(N, slots, [0] * i + [1])
        table.append(tuple(_exponents(_spec_progressions(q.a, q.ag), 50)))
    return tuple(table)


def table_exponents(N: int, vector, terms: int) -> list:
    """c[0..terms-1] (terms <= 50) of a nonzero scaled exponent vector's
    quotient, combined from exponent_table(N) over its nonzero entries."""
    parts = [row[:terms] if v == 1 else [v * e for e in row[:terms]]
             for v, row in zip(vector, exponent_table(N)) if v]
    return list(map(sum, zip(*parts)))


def is_constant_one(q: GenEtaQuotient, N: int, coeffs=None, orders=None) -> bool:
    """Constant detection by two independent routes that must agree.

    Exponent identities beyond the plain-eta reductions can hide the constant
    1 inside a nonempty product (odd residues regrouped across divisors), so
    emptiness of the canonical form is sufficient but not necessary.  The
    series route reads q as 1 when its lead exponent is 0 and the integer
    coefficients f(1..49) of its product are all 0; the other route asks
    every cusp order to be 0.  The caller may pass the coefficients (as
    generators does, from its exponent table's transform) and the orders
    when it has them: 50 coefficients, or any number when the lead exponent
    is nonzero, since q then reads as non-constant at every truncation.
    Otherwise they are q.product_coefficients(50) and the orders of q's
    slot_vector by table_orders.  Both routes are compared either way.
    """
    if q.is_one():
        return True
    f = q.product_coefficients(50) if coeffs is None else coeffs
    by_series = not q.lead_exponent() and not any(f[1:50])
    if orders is None:
        orders = table_orders(N, slot_vector(q, N))
    by_orders = all(o == 0 for o in orders.values())
    if by_series != by_orders:
        raise AssertionError("constant detection disagrees for %r" % q)
    return by_series


@dataclass
class Generator:
    quotient: GenEtaQuotient
    orders: dict          # Cusp -> int
    pole: int             # -order at infinity (> 0)
    scaled_vector: tuple  # solution vector of the pole_free_system
    head: tuple = ()      # leading expansion coefficients, the canonical sort key

    def expansion(self, terms):
        return self.quotient.expansion(terms)


@functools.lru_cache(maxsize=None)
def unit_lattice(N: int):
    """Exponent vectors (scaled slots) of quotients equal to the constant 1."""
    pfs = pole_free_system(N)
    _, lineality = hilbert_basis(pfs.system)
    return tuple(tuple(v[:pfs.nslots]) for v in lineality)


# coefficients from the lead that a generator record keeps as its sort head
HEAD_TERMS = 14


def _generator_record(q: GenEtaQuotient, scaled_vector, error,
                      coeffs, orders) -> Generator:
    """Record of a canonical quotient from the integer coefficients of its
    product (at least HEAD_TERMS) and its orders (table_orders, an int
    wherever the order is integral, kept as they are); raises error (the
    caller's failure type) unless it is pole-free away from a pole at
    infinity.

    The order at infinity is q's lead exponent, so the head, the
    coefficients from q**-pole on, is the product's first HEAD_TERMS.
    """
    for c, o in orders.items():
        if o.denominator != 1 or (not c.is_infinity and o < 0):
            raise error("quotient is not pole-free away from infinity")
    pole = -orders[INFINITY]
    if pole <= 0:
        raise error("quotient has no pole at infinity")
    return Generator(quotient=q, orders=orders, pole=pole,
                     scaled_vector=tuple(scaled_vector), head=tuple(coeffs[:HEAD_TERMS]))


def generator_from_quotient(N: int, q: GenEtaQuotient) -> Generator:
    """Generator record (orders, pole, sort head) for an explicit quotient."""
    vec = slot_vector(q, N)
    return _generator_record(q, vec, ValueError, q.product_coefficients(HEAD_TERMS),
                             table_orders(N, vec))


def sort_generators(gens) -> tuple:
    # exponent presentations are only unique up to unit factors, so order by
    # the expansion itself: smallest pole first, then largest head sequence
    return tuple(sorted(gens, key=lambda g: (g.pole, tuple(-c for c in g.head))))


@functools.lru_cache(maxsize=None)
def generators(N: int) -> tuple:
    """Deterministically ordered generator list for level N."""
    pfs = pole_free_system(N)
    pointed, lineality = hilbert_basis(pfs.system)
    for v in lineality:
        q = quotient_from_scaled(N, pfs.slots, v[:pfs.nslots])
        if not is_constant_one(q, N, orders=table_orders(N, v[:pfs.nslots])):
            raise AssertionError("lineality vector is not the constant 1")
    out = []
    for v in pointed:
        v = v[:pfs.nslots]
        q = quotient_from_scaled(N, pfs.slots, v)
        # one coefficient list and one set of orders serve both consumers;
        # past a nonzero lead q cannot read as 1 at any truncation, so only a
        # zero lead needs more coefficients than the record's head reads
        coeffs = euler_transform(table_exponents(N, v, HEAD_TERMS if q.lead_exponent() else 50))
        orders = table_orders(N, v)
        if not is_constant_one(q, N, coeffs, orders):
            out.append(_generator_record(q, v, AssertionError, coeffs, orders))
    out = sort_generators(out)
    if any(a.pole == b.pole and a.head == b.head for a, b in zip(out, out[1:])):
        raise AssertionError("generator sort key collision")
    return out
