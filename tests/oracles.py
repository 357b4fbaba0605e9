"""Closed-form oracles the tests share: no module under src/ reads them."""

from fractions import Fraction


def bernoulli_p2(x) -> Fraction:
    """Second Bernoulli function {x}^2 - {x} + 1/6 (period 1, even)."""
    x = Fraction(x)
    frac = x - (x.numerator // x.denominator)
    return frac * frac - frac + Fraction(1, 6)
