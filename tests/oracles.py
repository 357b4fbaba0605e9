"""Oracles the tests share, the routes the package replaced among them: no
module under src/ reads them."""

import functools
from fractions import Fraction

from etaram.cusps import order_table
from etaram.eta import _exponents, _spec_progressions
from etaram.generators import quotient_from_scaled
from etaram.identities import NoHFound
from etaram.lattice import hilbert_basis


def bernoulli_p2(x) -> Fraction:
    """Second Bernoulli function {x}^2 - {x} + 1/6 (period 1, even)."""
    x = Fraction(x)
    frac = x - (x.numerator // x.denominator)
    return frac * frac - frac + Fraction(1, 6)


@functools.lru_cache(maxsize=None)
def exponent_table(N: int) -> tuple:
    """c[0..49] per exponent slot of cusps.order_table(N), c[n] the exponent
    of (1 - q^n) in the product of the slot's unit vector's quotient; c is
    linear in the scaled vector, so these rows give every quotient's."""
    table = []
    for i in range(len(order_table(N).slots)):
        q = quotient_from_scaled(N, [0] * i + [1])
        table.append(tuple(_exponents(_spec_progressions(q.a, q.ag), 50)))
    return tuple(table)


def table_exponents(N: int, vector, terms: int) -> list:
    """c[0..terms-1] (terms <= 50) of a nonzero scaled exponent vector's
    quotient, combined from exponent_table(N) over its nonzero entries."""
    parts = [row[:terms] if v == 1 else [v * e for e in row[:terms]]
             for v, row in zip(vector, exponent_table(N)) if v]
    return list(map(sum, zip(*parts)))


def lift_all_multiplier(equalities, nonneg, gens) -> tuple:
    """find_multiplier's power vector t as it was chosen from the whole
    Hilbert basis of its system (equalities, nonneg): every pointed vector
    lifted and size-reduced by hilbert_basis, those with scale s = 1 kept,
    the greatest order of h at infinity (gain) taken, ties to the least t.
    Raises NoHFound when no pointed vector has s = 1."""
    k = len(gens)
    pointed, _ = hilbert_basis(equalities, nonneg)
    best = None
    for p in pointed:
        if p[k] != 1:
            continue
        t = tuple(p[:k])
        key = (sum(tj * g.pole for tj, g in zip(t, gens)), t)    # (-gain, t)
        if best is None or key < best:
            best = key
    if best is None:
        raise NoHFound("no multiplier clears the finite poles")
    return best[1]
