"""Generators of the monoid of eta-quotient modular functions whose only
pole sits at infinity.

A generalized eta-quotient is such a modular function exactly when one linear
form in its exponents vanishes, its order at every finite cusp is a
nonnegative integer, and its order at infinity is an integer.  After scaling
the half-integral slots these conditions become an integer Diophantine system,
pole_free_system(N) = (rows, nonneg), read from cusps.order_table(N).  Its
solution monoid has a finite Hilbert basis, hilbert_basis(rows, nonneg); the
pointed generators give the quotient generators, the lineality part only
produces the constant 1.

Every candidate, pointed or lineality, is read from its solution vector.
The system's row for order form i states form_i . x = den_i * slack_i, so
the vector's slack coordinates are the candidate's orders, one per order
form, and the last, infinity's, is its lead exponent and minus its pole.
The first coefficients of its product come from euler_recurrence on a
logarithmic derivative summed from the level's log_derivative_table over
the vector's nonzero slot entries (no product cache read), and its
quotient is the slot entries folded once (GenEtaQuotient.from_slots), with
its lead and none of the constructor's checks.
is_constant_one(q, coeffs, orders) compares the two constant tests on them,
and a pointed candidate that is not constant becomes a record: the
quotient, the whole solution vector and the head.  No candidate is
expanded on the fast route.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from .cusps import form_orders, order_table, slot_vector
from .eta import (
    GenEtaQuotient, _exponents, _log_derivative, _spec_progressions, euler_recurrence,
)
from .lattice import hilbert_basis


def pole_free_system(N: int) -> tuple:
    """(rows, nonneg), the cleared integer system cutting out the monoid at
    level N, for hilbert_basis.  Its variables are the scaled exponents, one
    per slot of order_table(N), then one slack per order form of the table,
    in its order: the weight row asks the g = 0 entries to sum to zero, and
    form i's row asks its order to equal slack i, which is nonnegative for
    every form but infinity's (the last)."""
    table = order_table(N)
    nslots, nforms = len(table.slots), len(table.forms)
    rows = [[1 if g == 0 else 0 for _, g in table.slots] + [0] * nforms]
    for i, (_, form, den) in enumerate(table.forms):
        rows.append(list(form) + [0] * i + [-den] + [0] * (nforms - 1 - i))
    return rows, list(range(nslots, nslots + nforms - 1))


def quotient_from_scaled(N: int, vector, lead=None) -> GenEtaQuotient:
    """The canonical quotient of a scaled exponent vector over the slots of
    order_table(N), folded by GenEtaQuotient.from_slots; lead, when known,
    is kept as its lead exponent."""
    return GenEtaQuotient.from_slots(N, zip(order_table(N).slots, vector), lead)


@functools.lru_cache(maxsize=None)
def log_derivative_table(N: int) -> tuple:
    """s[0..49] per exponent slot of order_table(N): the logarithmic
    derivative (eta._log_derivative) of the product of the slot's unit
    vector's quotient.  s is linear in the scaled vector, so these rows
    give every quotient's."""
    table = []
    for i in range(len(order_table(N).slots)):
        q = quotient_from_scaled(N, [0] * i + [1])
        table.append(tuple(_log_derivative(_exponents(_spec_progressions(q.a, q.ag), 50))))
    return tuple(table)


def table_log_derivative(N: int, vector, terms: int) -> list:
    """s[0..terms-1] (terms <= 50) of a nonzero scaled exponent vector's
    quotient, combined from log_derivative_table(N) over its nonzero
    entries."""
    parts = [row[:terms] if v == 1 else [v * e for e in row[:terms]]
             for v, row in zip(vector, log_derivative_table(N)) if v]
    return list(map(sum, zip(*parts)))


def is_constant_one(q: GenEtaQuotient, coeffs, orders) -> bool:
    """Constant detection by two independent routes that must agree.

    Exponent identities beyond the plain-eta reductions can hide the constant
    1 inside a nonempty product (odd residues regrouped across divisors), so
    emptiness of the canonical form is sufficient but not necessary.  The
    series route reads q as 1 when its lead exponent is 0 and the integer
    coefficients f(1..49) of its product, coeffs, are all 0; the other route
    asks every order in orders (one per order form) to be 0.  In generators
    the orders are the solution vector's slack coordinates and the lead its
    infinity slack, while coeffs come from the slots' logarithmic
    derivatives.  coeffs holds 50 coefficients, or any number when the lead
    exponent is nonzero, since q then reads as non-constant at every
    truncation.
    """
    if q.is_one():
        return True
    by_series = not q.lead_exponent() and not any(coeffs[1:50])
    by_orders = not any(orders)
    if by_series != by_orders:
        raise AssertionError("constant detection disagrees for %r" % q)
    return by_series


@dataclass
class Generator:
    """A level-N generator held as its solution vector of pole_free_system(N):
    the scaled exponents, then its order at each order form, infinity's last.
    The quotient is at level N, whose order_table the properties read; head,
    the sort key, is the product's first HEAD_TERMS coefficients."""
    quotient: GenEtaQuotient
    vector: tuple
    head: tuple = ()
    pole: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # minus the order at infinity, read once: module_basis reads it per pass
        self.pole = -self.vector[-1]

    @property
    def scaled_vector(self) -> tuple:
        return self.vector[:len(order_table(self.quotient.N).slots)]

    @property
    def orders(self) -> dict:
        """{cusp: order}: the form entries spread over order_table's cusps."""
        table = order_table(self.quotient.N)
        return {cusp: self.vector[len(table.slots) + i] for cusp, i in table.cusps}

    def expansion(self, terms):
        return self.quotient.expansion(terms)


# coefficients from the lead that a generator record keeps as its sort head
HEAD_TERMS = 14


def generator_from_quotient(N: int, q: GenEtaQuotient) -> Generator:
    """The record of an explicit quotient at level N, from its slot vector;
    raises ValueError for an eta argument that does not divide N, and
    unless q is pole-free away from a pole at infinity."""
    slots = slot_vector(q, N)
    orders = form_orders(N, slots)
    if any(type(o) is not int for o in orders) or any(o < 0 for o in orders[:-1]):
        raise ValueError("quotient is not pole-free away from infinity")
    if orders[-1] >= 0:
        raise ValueError("quotient has no pole at infinity")
    return Generator(quotient_from_scaled(N, slots, orders[-1]), tuple(slots + orders),
                     tuple(q.product_coefficients(HEAD_TERMS)))


def sort_generators(gens) -> tuple:
    # exponent presentations are only unique up to unit factors, so order by
    # the expansion itself: smallest pole first, then largest head sequence
    return tuple(sorted(gens, key=lambda g: (g.pole, tuple(-c for c in g.head))))


@functools.lru_cache(maxsize=None)
def generators(N: int) -> tuple:
    """Deterministically ordered generator list for level N."""
    pointed, lineality = hilbert_basis(*pole_free_system(N))
    nslots = len(order_table(N).slots)
    out = []
    for i, v in enumerate(lineality + pointed):
        # the slacks are the form orders, infinity's (the last) the lead
        slots, orders, lead = v[:nslots], v[nslots:], v[-1]
        q = quotient_from_scaled(N, slots, lead)
        # one coefficient list serves both consumers; past a nonzero lead q
        # cannot read as 1 at any truncation, so only a zero lead needs more
        # coefficients than the record's head reads
        coeffs = euler_recurrence(table_log_derivative(N, slots, HEAD_TERMS if lead else 50))
        if is_constant_one(q, coeffs, orders):
            continue
        if i < len(lineality):
            raise AssertionError("lineality vector is not the constant 1")
        if lead >= 0:
            raise AssertionError("quotient has no pole at infinity")
        out.append(Generator(q, tuple(v), tuple(coeffs[:HEAD_TERMS])))
    out = sort_generators(out)
    if any(a.pole == b.pole and a.head == b.head for a, b in zip(out, out[1:])):
        raise AssertionError("generator sort key collision")
    return out
