"""Exact truncated power series in fractional powers of q.

A series is  sum_n c[n] * q**(n/w)  with integer scaled exponents n, a shared
positive denominator w and exact rational coefficients.  Coefficients at
scaled exponents >= trunc are unknown, so a series represents its value up to
O(q**(trunc/w)).  Truncation bookkeeping is pessimistic: an operation never
reports a coefficient that the inputs do not fully determine.

Coefficients are stored densely as Python ints over one common denominator
(see QSeries), so every operation works on integer lists and a Fraction is
built only when a caller reads a coefficient.  All arithmetic is exact;
floating point is never used.  Values are immutable after construction and
safe to share between threads.

_pack_mul, the kernel section's one integer product, multiplies two integer
lists within a window of coefficients: for QSeries multiplication and
inversion here, for the polar search in reduction.py, and for the Euler
transform and its certificate in eta.py.  It packs each list into a big
number, evaluated at two points +X and -X on CPython's int (so one product
becomes two of half the size), or at one point on libmpdec for long ones.
partition_numbers, at the end, expands 1/(q; q)_infinity in integers by
Euler's pentagonal recurrence and multiplies no lists; it is the fast route
of eta.py, which serves the partition product alone, and shares no code
with the transform.
"""

from __future__ import annotations

import sys
from bisect import bisect_left, bisect_right
from collections.abc import Mapping
from decimal import (
    MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Inexact, InvalidOperation, Rounded,
)
from fractions import Fraction
from math import gcd
from operator import add, sub


class ZeroSeries(ArithmeticError):
    """Inversion of a series with no nonzero term below its truncation."""


def _lcm(a: int, b: int) -> int:
    return a // gcd(a, b) * b


# ---------------------------------------------------------------------------
# the integer product kernel (dense lists of python ints)
# ---------------------------------------------------------------------------

# a product whose shorter factor has at most this many terms runs the double
# loop.  Best of 20 on a 2-vCPU machine (Python 3.11.7), against the
# two-point packing: 8 x 8 terms 10.5 / 13.7 us at 20 bits and 21.6 / 31.0 us
# at 300 bits, even at 10 to 12 terms a side and at 8 by 400, 58 x 58
# 338 / 60 us at 20 bits and 852 / 362 us at 300 bits
_LOOP_TERMS = 8
# libmpdec multiplies by a number-theoretic transform, and _decimal_pack_mul
# beats the two-point int product once the shorter operand packs to this
# many decimal digits.  Median of 21 on a 2-vCPU machine: on
# euler_transform's 1:2 shape (f[lo:mid] times s[1:hi-lo]) even at about
# 35,000-40,000 digits for 100 to 400 bits per entry and 50,000 at 1,600
# bits; on the square shape of a truncated series product (150 to 1,200
# terms a side, 60 to 400 bits) even at 50,000-60,000.  Two half-size
# libmpdec products gain nothing on one, so that path stays single-point.
_DECIMAL_DIGITS = 40_000
# exact in every operation: a result that would round raises instead
_DECIMAL = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN,
                   traps=[Inexact, Rounded, InvalidOperation])
# Python's int/str digit limit (0: none, as before Python 3.10.7 added it)
_str_digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)


def _pack_mul(a, b, lo=0, hi=None) -> list:
    """Coefficients lo..hi-1 of the exact product of two integer lists.

    hi defaults to the product's length, len(a) + len(b) - 1 (0 when a
    list is empty); past that length the coefficients are zeros, and only
    a[:hi] and b[:hi] are read.  A shorter factor of at most _LOOP_TERMS
    terms runs the double loop.  Otherwise each list is packed into a big
    number, one chunk per coefficient in base B, so that big-number
    products do the convolution (Kronecker substitution).  B is chosen so
    that every input and every product coefficient lies in (-B/2, B/2);
    that makes the chunks recoverable.  Short products use CPython's int
    and two evaluation points, +X and -X with X**2 = B = 2**(8w) (Harvey,
    "Faster polynomial multiplication via multipoint Kronecker
    substitution", J. Symbolic Comput. 44 (2009)): each list splits into
    its even- and odd-index halves, two products of half-size numbers
    replace one of full size, and their sum and difference hold the even
    and the odd coefficients.  Long ones use one point, B = 10**w, and
    libmpdec (_decimal_pack_mul), unless a w-digit chunk is too long for
    Python's int/str conversion.  Either path unpacks only the window's
    chunks.  This is the package's one integer product: series
    multiplication and inversion, the reduction's polar search and the
    reference route's Euler transform and certificate call it; the fast
    route's partition_numbers does not.
    """
    if hi is None:
        hi = len(a) + len(b) - 1 if a and b else 0
    a, b = a[:hi], b[:hi]
    if len(a) > len(b):
        a, b = b, a
    n = len(a) + len(b) - 1
    top = min(hi, n)          # the window's end inside the product
    if not a or lo >= top:
        return [0] * (hi - lo)
    if len(a) <= _LOOP_TERMS:
        out = [0] * (hi - lo)
        for i, x in enumerate(a):
            if x:
                for k, y in enumerate(b[max(lo - i, 0):hi - i], max(i - lo, 0)):
                    if y:
                        out[k] += x * y
        return out
    bound = max(map(abs, a)) * max(map(abs, b)) * len(a)
    if not bound:
        return [0] * (hi - lo)
    # 10**(digits-1) > 2**bits > bound, since log10(2) < 0.30103
    digits = -(-bound.bit_length() * 30103 // 100000) + 1
    if len(a) * digits >= _DECIMAL_DIGITS and not 0 < _str_digit_limit() < digits:
        return _decimal_pack_mul(a, b, n, digits, lo, top) + [0] * (hi - top)
    # two points +-X, X = 2**(8 wb), and chunks of w = 2 wb bytes, so B = X**2:
    # A(+-X) = Ae(B) +- X Ao(B) for the even- and odd-index halves of a (and
    # the same for b), and C(X) + C(-X) = 2 Ce(B), C(X) - C(-X) = 2 X Co(B)
    # for the product C, both shifts exact.  half = B/2 is added to every
    # chunk so every chunk is a nonnegative digit; the base-B digits of
    # Ce(B) + (half in each chunk) are then the coefficients plus half, with
    # no carries, and the same for Co(B)
    wb = (bound.bit_length() + 16) // 16
    w = 2 * wb
    half = 1 << (8 * w - 1)
    halves = bytes(w - 1) + b"\x80"          # half as one little-endian chunk

    def pack(cs):
        digits = b"".join([(c + half).to_bytes(w, "little") for c in cs])
        return int.from_bytes(digits, "little") - int.from_bytes(halves * len(cs), "little")

    ae, ao, be, bo = pack(a[::2]), pack(a[1::2]) << 8 * wb, pack(b[::2]), pack(b[1::2]) << 8 * wb
    p1, p2 = (ae + ao) * (be + bo), (ae - ao) * (be - bo)
    out = [0] * (hi - lo)
    for odd, c in ((0, (p1 + p2) >> 1), (1, (p1 - p2) >> (8 * wb + 1))):
        m = (n + 1 - odd) // 2                 # chunks of c: coefficients odd, odd+2, ...
        raw = (c + int.from_bytes(halves * m, "little")).to_bytes(w * m, "little")
        first, end = (lo + 1 - odd) // 2, (top + 1 - odd) // 2     # the window's chunks
        out[2 * first + odd - lo:top - lo:2] = [
            int.from_bytes(raw[i:i + w], "little") - half for i in range(w * first, w * end, w)]
    return out


def _decimal_pack_mul(a, b, n, w, lo, hi) -> list:
    """_pack_mul's window [lo, hi) of the product in base B = 10**w through
    the private _DECIMAL.

    A list packs into w-digit chunks in [0, B), a negative coefficient
    borrowing one from the next chunk; a borrow out of the top chunk is
    subtracted as B**len.  The product's digits are read back as balanced
    digits in [-B/2, B/2), carrying one upward.  A decimal string lists its
    chunks from the highest power down.  Only chunks lo..hi-1 are unpacked:
    lo balanced digits reach at most lo copies of B/2 - 1 (a 4 and w - 1
    nines), so the low lo chunks carry one into chunk lo exactly when they
    read, as one digit string, above that.
    """
    base = 10 ** w
    half = base // 2
    ctx = _DECIMAL

    def pack(cs):
        chunks, borrow = [], 0
        for c in cs:
            c -= borrow
            borrow = c < 0
            chunks.append(c + base if borrow else c)
        value = ctx.create_decimal("".join(["%0*d" % (w, c) for c in reversed(chunks)]))
        return ctx.subtract(value, ctx.create_decimal("1E%d" % (w * len(cs)))) if borrow else value

    product = ctx.multiply(pack(a), pack(b))
    raw = ctx.to_sci_string(ctx.copy_abs(product)).zfill(w * n)
    top = w * (n - lo)
    out, carry = [], raw[top:] > ("4" + "9" * (w - 1)) * lo
    for i in range(top, w * (n - hi), -w):
        c = int(raw[i - w:i]) + carry
        carry = c >= half
        out.append(c - base if carry else c)
    return [-c for c in out] if ctx.is_signed(product) else out


def _int_poly_inv(a: list[int], n: int) -> list[int]:
    """First n coefficients of 1/a for an integer series with a[0] = +-1."""
    c0 = a[0]
    if abs(c0) != 1:
        raise ValueError("leading coefficient must be a unit")
    v = [c0]
    while len(v) < n:
        k = len(v)
        m = min(2 * k, n)
        # a*v = 1 + q^k * e mod q^m, so 1/a = v - q^k * v * e mod q^m
        e = _pack_mul(a, v, k, m)
        v += [-c for c in _pack_mul(v, e, 0, m - k)]
    return v[:n]


# ---------------------------------------------------------------------------
# the series type
# ---------------------------------------------------------------------------

class QSeries:
    """Truncated Laurent series in q**(1/denom) with exact rational coefficients.

    The coefficient of q**((val + i*stride)/denom) is num[i]/den, where num is
    a tuple of ints and den a positive int.  The form is canonical: the first
    and last entries of num are nonzero, stride is the gcd of the occupied
    offsets (0 for a single term), gcd(den, *num) == 1, and the exponent grid
    is reduced by gcd(denom, trunc, val, stride).  The zero series has
    num == (), val == stride == 0 and den == 1.
    """

    __slots__ = ("denom", "trunc", "val", "stride", "num", "den")

    def __init__(self, coeffs: dict, trunc: int, denom: int = 1):
        if denom < 1:
            raise ValueError("denominator must be a positive integer")
        cleaned = {}
        for n, c in coeffs.items():
            c = c if isinstance(c, Fraction) else Fraction(c)
            if c:
                if n >= trunc:
                    raise ValueError("stored exponent %r not below truncation %r" % (n, trunc))
                cleaned[n] = c
        val, den = min(cleaned, default=0), 1
        for c in cleaned.values():
            den = _lcm(den, c.denominator)
        num = [0] * (max(cleaned, default=val) - val + 1)
        for n, c in cleaned.items():
            num[n - val] = c.numerator * (den // c.denominator)
        self._fill(num, val, 1, den, trunc, denom)

    def _fill(self, num, val, stride, den, trunc, denom):
        """Store the canonical form of sum num[i]/den q**((val+i*stride)/denom).

        Entries at or past trunc are dropped; num itself is never mutated.
        """
        hi = len(num)
        if stride:
            hi = min(hi, max(0, -((val - trunc) // stride)))
        elif val >= trunc:
            hi = 0
        while hi and not num[hi - 1]:
            hi -= 1
        lo = 0
        while lo < hi and not num[lo]:
            lo += 1
        if lo == hi:
            num, val, stride, den = (), 0, 0, 1
        else:
            val += lo * stride
            k = 0
            for i in range(1, hi - lo):
                if num[lo + i]:
                    k = gcd(k, i)
                    if k == 1:
                        break
            num = num[lo:hi:k or 1]
            stride *= k
            if den < 0:
                num, den = [-c for c in num], -den
            if den != 1:
                g = gcd(den, *num)
                if g != 1:
                    num, den = [c // g for c in num], den // g
        g = gcd(denom, trunc, val, stride)
        if g > 1:
            val, stride, trunc, denom = val // g, stride // g, trunc // g, denom // g
        for name, value in zip(self.__slots__, (denom, trunc, val, stride, tuple(num), den)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("QSeries is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "QSeries":
        return cls({}, order, 1)

    @classmethod
    def one(cls, order: int) -> "QSeries":
        return cls({0: Fraction(1)}, order, 1)

    @classmethod
    def monomial(cls, exponent, coeff=1, order: int = 1) -> "QSeries":
        """coeff * q**exponent, known up to q**order (both may be fractions)."""
        e = Fraction(exponent)
        t = Fraction(order)
        den = _lcm(e.denominator, t.denominator)
        e_s = int(e * den)
        t_s = int(t * den)
        if e_s >= t_s:
            raise ValueError("monomial exponent not below requested order")
        return cls({e_s: Fraction(coeff)}, t_s, den)

    @classmethod
    def from_ints(cls, coeffs) -> "QSeries":
        """sum coeffs[i] q**i for a sequence of ints, known up to q**len(coeffs)."""
        return _make(coeffs, 0, 1, 1, len(coeffs), 1)

    # -- inspection --------------------------------------------------------

    @property
    def coeffs(self) -> Mapping:
        """Read-only view {scaled exponent: Fraction} of the nonzero terms."""
        return _Coefficients(self)

    def bound(self) -> Fraction:
        """First unknown exponent, as an exact rational."""
        return Fraction(self.trunc, self.denom)

    def is_known_zero(self) -> bool:
        return not self.num

    def leading(self):
        """(exponent, coefficient) of the smallest stored term, or None."""
        if not self.num:
            return None
        return Fraction(self.val, self.denom), Fraction(self.num[0], self.den)

    def _at(self, n: int) -> int:
        """Numerator over den of the coefficient at scaled exponent n."""
        i = n - self.val
        if self.stride:
            i, r = divmod(i, self.stride)
            if r:
                return 0
        return self.num[i] if 0 <= i < len(self.num) else 0

    def coefficient(self, exponent) -> Fraction:
        e = Fraction(exponent) * self.denom
        if e >= self.trunc:
            raise LookupError("coefficient of q^%s is beyond the truncation" % exponent)
        if e.denominator != 1:
            return Fraction(0)   # below the bound but off the exponent grid
        return Fraction(self._at(int(e)), self.den)

    def coefficients_range(self, lo, hi) -> list:
        """Coefficients of q**e for e = lo, lo+1, ..., hi-1 (integer exponents)."""
        return [self.coefficient(e) for e in range(lo, hi)]

    def terms(self):
        """Sorted (exponent, coefficient) pairs with exact rational exponents."""
        return [(Fraction(self.val + i * self.stride, self.denom), Fraction(c, self.den))
                for i, c in enumerate(self.num) if c]

    def agrees_with(self, other: "QSeries") -> bool:
        """Equality of all coefficients on the common known range."""
        return (self - other).is_known_zero()

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return (self.denom, self.trunc, self.val, self.stride, self.den, self.num) == (
            other.denom, other.trunc, other.val, other.stride, other.den, other.num)

    def __repr__(self):
        return "QSeries(%s)" % self

    def __str__(self):
        parts = []
        for e, c in self.terms()[:12]:
            parts.append("%s*q^(%s)" % (c, e))
        if len(self.coeffs) > 12:
            parts.append("...")
        body = " + ".join(parts) if parts else "0"
        return "%s + O(q^(%s))" % (body, self.bound())

    def _grid(self, denom: int):
        """(val, stride, trunc) rescaled to a multiple denom of self.denom."""
        k = denom // self.denom
        return self.val * k, self.stride * k, self.trunc * k

    # -- ring operations -----------------------------------------------------

    def __neg__(self):
        return _make([-c for c in self.num], self.val, self.stride, self.den,
                     self.trunc, self.denom)

    def _combine(self, other, op):
        """self op other (op is add or sub) on the common known range."""
        if not isinstance(other, QSeries):
            other = _scalar_series(other, self)
        denom = _lcm(self.denom, other.denom)
        (fv, fs, ft), (gv, gs, gt) = self._grid(denom), other._grid(denom)
        t = min(ft, gt)
        if not self.num or not other.num:
            if self.num:
                return _make(self.num, fv, fs, self.den, t, denom)
            num = other.num if op is add else [-c for c in other.num]
            return _make(num, gv, gs, other.den, t, denom)
        den = _lcm(self.den, other.den)
        base = min(fv, gv)
        stride = gcd(fs, gs, fv - gv) or 1
        end = max(fv + fs * (len(self.num) - 1), gv + gs * (len(other.num) - 1))
        out = [0] * min((end - base) // stride + 1, max(0, -((base - t) // stride)))
        for f, v, s, how in ((self, fv, fs, None), (other, gv, gs, op)):
            start, step = (v - base) // stride, s // stride or 1
            cnt = min(len(f.num), -((start - len(out)) // step))
            if cnt > 0:
                vals = f.num[:cnt] if den == f.den else [c * (den // f.den) for c in f.num[:cnt]]
                cut = slice(start, start + step * (cnt - 1) + 1, step)
                out[cut] = vals if how is None else list(map(how, out[cut], vals))
        return _make(out, base, stride, den, t, denom)

    def __add__(self, other):
        return self._combine(other, add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, sub)

    def __rsub__(self, other):
        return _scalar_series(other, self) - self

    def scale(self, c) -> "QSeries":
        c = Fraction(c)
        k = c.numerator
        num = self.num if k == 1 else [x * k for x in self.num]
        return _make(num, self.val, self.stride, self.den * c.denominator,
                     self.trunc, self.denom)

    def shift(self, exponent) -> "QSeries":
        """Multiply by q**exponent."""
        e = Fraction(exponent)
        denom = _lcm(self.denom, e.denominator)
        v, s, t = self._grid(denom)
        k = e.numerator * (denom // e.denominator)
        return _make(self.num, v + k, s, self.den, t + k, denom)

    def __mul__(self, other):
        if not isinstance(other, QSeries):
            return self.scale(other)
        denom = _lcm(self.denom, other.denom)
        (fv, fs, ft), (gv, gs, gt) = self._grid(denom), other._grid(denom)
        t = min(ft + (gv if other.num else gt), gt + (fv if self.num else ft))
        stride = gcd(fs, gs)
        base = fv + gv
        n = -((base - t) // stride) if stride else int(base < t)
        if not self.num or not other.num or n <= 0:
            return _make((), 0, 0, 1, t, denom)
        a, b = _spread(self.num, fs, stride, n), _spread(other.num, gs, stride, n)
        # the window stops at the product's end too: a long truncation pads no zeros
        prod = _pack_mul(a, b, 0, min(n, len(a) + len(b) - 1))
        return _make(prod, base, stride, self.den * other.den, t, denom)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, QSeries):
            return self * other.invert()
        return self.scale(Fraction(1) / Fraction(other))

    def invert(self) -> "QSeries":
        """Multiplicative inverse, valid to the truncation the input supports."""
        if not self.num:
            raise ZeroSeries("series has no known nonzero term below its truncation")
        lead, stride, trunc = self.val, self.stride, self.trunc - 2 * self.val
        if not stride:
            return _make((self.den,), -lead, 0, self.num[0], trunc, self.denom)
        nterms = (self.trunc - lead + stride - 1) // stride
        vec = list(self.num) + [0] * (nterms - len(self.num))
        c0 = vec[0]
        if abs(c0) == 1:
            inv = _int_poly_inv(vec, nterms)
            return _make([self.den * v for v in inv], -lead, stride, 1, trunc, self.denom)
        scaled = [1] + [vec[i] * c0 ** (i - 1) for i in range(1, nterms)]
        inv = _int_poly_inv(scaled, nterms)
        # the coefficient at index i is den * inv[i] / c0**(i+1): bring all
        # of them over the common denominator c0**nterms
        num = [0] * nterms
        power = 1
        for i in range(nterms - 1, -1, -1):
            num[i] = self.den * inv[i] * power
            power *= c0
        return _make(num, -lead, stride, power, trunc, self.denom)

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise TypeError("series powers must be integers")
        if k < 0:
            return self.invert() ** (-k)
        if k == 0:
            lead = self.val if self.num else self.trunc
            return _make((1,), 0, 0, 1, max(self.trunc - lead, 1), self.denom)
        result = None
        base = self
        while k:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if k:
                base = base * base
        return result

    # -- structural operations ------------------------------------------------

    def truncated(self, order) -> "QSeries":
        """Forget coefficients at exponents >= order."""
        o = Fraction(order)
        denom = _lcm(self.denom, o.denominator)
        v, s, t = self._grid(denom)
        return _make(self.num, v, s, self.den,
                     min(t, o.numerator * (denom // o.denominator)), denom)

    def sift(self, m: int, t: int) -> "QSeries":
        """Arithmetic-progression slice sum a[m*n+t] q^n; needs integer exponents."""
        if self.denom != 1:
            raise ValueError("sift requires a series with integer exponents")
        bound = -((t - self.trunc) // m)  # smallest k with m*k + t >= trunc
        s = self.stride
        g = gcd(s, m)
        if not self.num or (t - self.val) % g:
            return _make((), 0, 0, 1, bound, 1)
        # entries val + i*s with i = i0 mod m/g are the ones = t mod m
        step = m // g
        i0 = (t - self.val) // g * pow(s // g, -1, step) % step if step > 1 else 0
        return _make(self.num[i0::step], (self.val + i0 * s - t) // m, s // g,
                     self.den, bound, 1)


class _Coefficients(Mapping):
    """Read-only {scaled exponent: Fraction} view; len() and iteration make no Fraction."""

    __slots__ = ("_series",)

    def __init__(self, series: QSeries):
        self._series = series

    def __len__(self):
        return len(self._series.num) - self._series.num.count(0)

    def __iter__(self):
        s = self._series
        return (s.val + i * s.stride for i, c in enumerate(s.num) if c)

    def __getitem__(self, n):
        c = self._series._at(n)
        if not c:
            raise KeyError(n)
        return Fraction(c, self._series.den)


def _make(num, val, stride, den, trunc, denom) -> QSeries:
    s = QSeries.__new__(QSeries)
    s._fill(num, val, stride, den, trunc, denom)
    return s


def _spread(num, s: int, stride: int, n: int):
    """The first n grid points of num (step s) on the finer grid stride | s."""
    if s == stride or len(num) == 1:
        return num[:n]
    k = s // stride
    out = [0] * min(n, (len(num) - 1) * k + 1)
    out[::k] = num[:(len(out) - 1) // k + 1]
    return out


def _scalar_series(c, like: QSeries) -> QSeries:
    return QSeries({0: Fraction(c)} if Fraction(c) else {}, like.trunc, like.denom)


# ---------------------------------------------------------------------------
# infinite-product constructors
# ---------------------------------------------------------------------------

def pochhammer(g: int, delta: int, order: int) -> QSeries:
    """Single-residue factor prod_{n>0, n=g mod delta} (1 - q^n), truncated.

    g is read modulo delta, and g = 0 as the full factor
    (q^delta; q^delta)_infinity.  This is the straightforward product, the
    one the tests check the product routes against.
    """
    if delta < 1 or g < 0:
        raise ValueError("need delta >= 1 and g >= 0")
    T = int(order)
    if T < 1:
        raise ValueError("order must be positive")
    c = [0] * T
    c[0] = 1
    n = g % delta or delta
    while n < T:
        for i in range(T - 1 - n, -1, -1):
            if c[i]:
                c[i + n] -= c[i]
        n += delta
    return QSeries.from_ints(c)


def euler_product(delta: int, order: int) -> QSeries:
    """(q^delta; q^delta)_infinity via the pentagonal-number expansion."""
    T = int(order)
    c = [0] * -(-T // delta)      # one entry per multiple of delta below T
    c[0] = 1
    for step in (1, -1):
        k = step
        while k * (3 * k - 1) // 2 < len(c):
            c[k * (3 * k - 1) // 2] = -1 if k % 2 else 1
            k += step
    return _make(c, 0, delta, 1, T, 1)


def theta_pair(g: int, delta: int, order: int) -> QSeries:
    """sum_k (-1)^k q^(delta*k*(k-1)/2 + g*k), the triple-product theta series.

    Equals (q^g, q^(delta-g); q^delta)_inf * (q^delta; q^delta)_inf for
    0 < g < delta.  At g = 0 and g = delta the terms of k and -1-k cancel and
    the sum is identically 0, so those are rejected.
    """
    if not 0 < g < delta:
        raise ValueError("need 0 < g < delta")
    T = int(order)
    c = [0] * T
    for k, step in ((0, 1), (-1, -1)):
        while True:
            e = delta * k * (k - 1) // 2 + g * k
            if e >= T and (step < 0 or k > 1):
                break
            if e < T:
                c[e] += -1 if k % 2 else 1
            k += step
    return QSeries.from_ints(c)


def pair_product(g: int, delta: int, order: int) -> QSeries:
    """(q^g, q^(delta-g); q^delta)_infinity for 0 < g < delta, theta route."""
    return theta_pair(g, delta, order) * euler_product(delta, order).invert()


# ---------------------------------------------------------------------------
# the partition numbers (the fast route's one product)
# ---------------------------------------------------------------------------

def partition_numbers(order: int) -> list:
    """p(0), ..., p(order-1), the coefficients of 1/(q; q)_infinity, by
    Euler's pentagonal recurrence  p(i) = sum_{k != 0} (-1)^(k+1)
    p(i - k(3k-1)/2):  one _divide_pass of 1 by the pentagonal series
    (q; q)_infinity = 1 + sum_{k != 0} (-1)^k q^(k(3k-1)/2).
    """
    n = int(order)
    plus, minus = [], []    # the pentagonal exponents below n, by sign
    k = 1
    while k * (3 * k - 1) // 2 < n:
        signed = minus if k % 2 else plus
        signed += [j for j in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2) if j < n]
        k += 1
    f = [1] + [0] * (n - 1)
    _divide_pass(f, plus, minus)
    return f


def _blocks(plus, minus, n):
    """(lo, hi, kp, km): for lo <= i < hi, kp and km are the exponents <= i."""
    edges = sorted(set(plus + minus))
    for lo, hi in zip(edges, edges[1:] + [n]):
        yield lo, hi, plus[:bisect_right(plus, lo)], minus[:bisect_right(minus, lo)]


def _divide_pass(f, plus, minus):
    """f <- f / h in place, truncated to len(f), for h = 1 + sum_{k in plus}
    q^k - sum_{k in minus} q^k, each list sorted: f(i) -= sum_k c(k) f(i-k).

    Within a block [lo, hi) of _blocks an exponent k >= hi - lo reads f
    below lo only, so its part is the slice f[lo-k:hi-k], all of them summed
    column by column into f[lo:hi] at once; the smaller exponents read f
    inside the block and are summed index by index after.
    """
    for lo, hi, kp, km in _blocks(plus, minus, len(f)):
        jp, jm = bisect_left(kp, hi - lo), bisect_left(km, hi - lo)
        f[lo:hi] = map(sub, map(sum, zip(f[lo:hi], *[f[lo - k:hi - k] for k in km[jm:]])),
                       map(sum, zip([0] * (hi - lo), *[f[lo - k:hi - k] for k in kp[jp:]])))
        kp, km = kp[:jp], km[:jm]
        for i in range(lo, hi):
            f[i] += (sum(map(f.__getitem__, map(i.__sub__, km)))
                     - sum(map(f.__getitem__, map(i.__sub__, kp))))
