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
the vector's slack coordinates are the candidate's cusp orders, and the
last, infinity's, is its lead exponent and minus its pole.  The first
coefficients of its product come from euler_recurrence on a logarithmic
derivative summed from the level's log_derivative_table over the vector's
nonzero entries (no product cache read), and its quotient is the vector's
slot entries folded once (GenEtaQuotient.from_slots), with its lead and
none of the constructor's checks.
is_constant_one(q, coeffs, orders) compares the two constant tests on them,
and a pointed candidate that is not constant becomes a record.  No candidate
is expanded on the fast route.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .cusps import INFINITY, order_table, slot_vector, table_orders
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
    asks every cusp order in orders ({cusp: order}) to be 0.  In generators
    the orders are the solution vector's slack coordinates and the lead its
    infinity slack, while coeffs come from the slots' logarithmic
    derivatives.  coeffs holds 50 coefficients, or any number when the lead
    exponent is nonzero, since q then reads as non-constant at every
    truncation.
    """
    if q.is_one():
        return True
    by_series = not q.lead_exponent() and not any(coeffs[1:50])
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


# coefficients from the lead that a generator record keeps as its sort head
HEAD_TERMS = 14


def _generator_record(q: GenEtaQuotient, scaled_vector, error,
                      coeffs, orders) -> Generator:
    """Record of a canonical quotient from the integer coefficients of its
    product (at least HEAD_TERMS) and its orders (an int wherever the order
    is integral, kept as they are: a solution vector's slacks, or
    table_orders); raises error (the caller's failure type) unless it is
    pole-free away from a pole at infinity.

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
    pointed, lineality = hilbert_basis(*pole_free_system(N))
    table = order_table(N)
    nslots = len(table.slots)
    out = []
    for i, v in enumerate(lineality + pointed):
        # form i's row states form_i . x = den_i * slack_i: the slacks are
        # the orders, infinity's (the last) the lead exponent
        slack, v = v[nslots:], v[:nslots]
        lead = slack[-1]
        q = quotient_from_scaled(N, v, lead)
        # one coefficient list serves both consumers; past a nonzero lead q
        # cannot read as 1 at any truncation, so only a zero lead needs more
        # coefficients than the record's head reads
        coeffs = euler_recurrence(table_log_derivative(N, v, HEAD_TERMS if lead else 50))
        orders = {cusp: slack[form] for cusp, form in table.cusps}
        if is_constant_one(q, coeffs, orders):
            continue
        if i < len(lineality):
            raise AssertionError("lineality vector is not the constant 1")
        out.append(_generator_record(q, v, AssertionError, coeffs, orders))
    out = sort_generators(out)
    if any(a.pole == b.pole and a.head == b.head for a, b in zip(out, out[1:])):
        raise AssertionError("generator sort key collision")
    return out
