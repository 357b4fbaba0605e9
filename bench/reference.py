"""Independent integer reference for the benchmark's correctness checks.

Every series here is a plain list of Python ints built from the defining
products one factor (1 - q^n) at a time, with the pentagonal recurrence for
p(n).  Nothing is imported from etaram: the checks must not share code with
the series kernels or product expansions they judge.

A product is a dict {(g, d): e} standing for prod_{n > 0, n = g mod d}
(1 - q^n)^e, with g = 0 meaning the full factor (q^d; q^d)_infinity; this is
the P(g, d) atom of etaram's expression language.
"""

from __future__ import annotations

import functools
from fractions import Fraction


def partition_numbers(terms: int) -> list[int]:
    """p(0), ..., p(terms - 1) by Euler's pentagonal recurrence."""
    p = [0] * terms
    if terms:
        p[0] = 1
    for n in range(1, terms):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            if g1 > n:
                break
            sign = 1 if k % 2 else -1
            total += sign * p[n - g1]
            g2 = k * (3 * k + 1) // 2
            if g2 <= n:
                total += sign * p[n - g2]
            k += 1
        p[n] = total
    return p


def product(factors: dict, terms: int) -> list[int]:
    """Coefficients of q^0 .. q^(terms-1) of a product of P(g, d) powers."""
    return list(_product(tuple(sorted(factors.items())), terms))


@functools.lru_cache(maxsize=None)
def _product(factors: tuple, terms: int) -> tuple:
    if factors == (((0, 1), -1),):
        return tuple(partition_numbers(terms))
    power = [0] * terms          # total exponent of (1 - q^n)
    for (g, d), e in factors:
        n = g if g else d
        while n < terms:
            power[n] += e
            n += d
    c = [0] * terms
    c[0] = 1
    for n in range(1, terms):
        e = power[n]
        for _ in range(e):       # multiply by (1 - q^n)
            for i in range(terms - 1, n - 1, -1):
                c[i] -= c[i - n]
        for _ in range(-e):      # divide by (1 - q^n)
            for i in range(n, terms):
                c[i] += c[i - n]
    return tuple(c)


def spec_product(spec: dict) -> dict:
    """The defining product of a spec file ({"M", "r", "rg"}) as P factors."""
    out = {}
    for d, e in spec.get("r", {}).items():
        out[(0, int(d))] = out.get((0, int(d)), 0) + int(e)
    for key, e in spec.get("rg", {}).items():
        d, _, g = key.partition("/")
        d, g = int(d), int(g)
        for h in (g, d - g):
            out[(h, d)] = out.get((h, d), 0) + int(e)
    return out


def progression(spec: dict, m: int, t: int, terms: int) -> list[int]:
    """a(m n + t) for n = 0 .. terms - 1."""
    full = product(spec_product(spec), m * (terms - 1) + t + 1)
    return full[t::m][:terms]


def bernoulli_p2(x: Fraction) -> Fraction:
    frac = x - (x.numerator // x.denominator)
    return frac * frac - frac + Fraction(1, 6)


def quotient(doc: dict):
    """(lead exponent, P factors) of a generalized eta-quotient document.

    Keys "d" carry eta(d tau) powers, keys "d/g" carry eta_{d,g} powers, as
    in etaram's identity documents.  eta(d tau) = q^(d/24) (q^d; q^d) and
    eta_{d,g} = q^((d/2) B2(g/d)) (q^g; q^d) (q^(d-g); q^d).
    """
    lead = Fraction(0)
    factors = {}
    for key, e in doc.items():
        e = int(e)
        if "/" in key:
            d, _, g = key.partition("/")
            d, g = int(d), int(g)
            lead += Fraction(d, 2) * bernoulli_p2(Fraction(g, d)) * e
            for h in (g, d - g):
                factors[(h, d)] = factors.get((h, d), 0) + e
        else:
            d = int(key)
            lead += Fraction(d, 24) * e
            factors[(0, d)] = factors.get((0, d), 0) + e
    return lead, factors


def terms_series(terms_list, order: int) -> list[int]:
    """sum of c * q^s * product over (c, s, factors) terms, to `order` terms."""
    out = [0] * order
    for c, s, factors in terms_list:
        if s >= order:
            continue
        body = product(dict(factors), order - s)
        for i, v in enumerate(body):
            out[i + s] += c * v
    return out


def expression(side, order: int) -> list[int]:
    """Evaluate one side of a verify case: a term list or ("slice", terms, m, t)."""
    if side[0] == "slice":
        _, inner, m, t = side
        full = terms_series(inner, m * (order - 1) + t + 1)
        return full[t::m][:order]
    return terms_series(side, order)


def first_difference(a: list[int], b: list[int]):
    """Smallest exponent where two coefficient lists differ, or None."""
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return i
    return None
