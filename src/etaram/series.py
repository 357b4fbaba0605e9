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
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from itertools import repeat
from math import gcd
from operator import add, sub


class ZeroSeries(ArithmeticError):
    """Inversion of a series with no nonzero term below its truncation."""


def _lcm(a: int, b: int) -> int:
    return a // gcd(a, b) * b


# ---------------------------------------------------------------------------
# integer polynomial kernels (dense lists of python ints)
# ---------------------------------------------------------------------------

def _int_poly_mul(a: list[int], b: list[int]) -> list[int]:
    """Product of two dense integer coefficient lists.

    Large products are computed by packing each polynomial into a single big
    integer (evaluation at a power of two) so that CPython's subquadratic
    integer multiplication does the convolution.
    """
    if not a or not b:
        return []
    if len(a) > len(b):
        a, b = b, a
    n_out = len(a) + len(b) - 1
    if len(a) <= 16 or len(a) * len(b) <= 4096:
        out = [0] * n_out
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        out[i + j] += x * y
        return out

    bound = max(map(abs, a)) * max(map(abs, b)) * len(a)
    if not bound:
        return [0] * n_out
    # one chunk of nbytes per coefficient; the inputs and every coefficient
    # of the product lie strictly inside (-half, half), so adding half to
    # each chunk makes every digit nonnegative and nothing carries
    nbytes = (bound.bit_length() + 2 + 7) // 8
    half = 1 << (8 * nbytes - 1)

    def bias(n: int) -> int:   # half in each of n chunks
        return int.from_bytes((bytes(nbytes - 1) + b"\x80") * n, "little")

    def pack(cs) -> int:
        chunks = map(int.to_bytes, map(half.__add__, cs), repeat(nbytes), repeat("little"))
        return int.from_bytes(b"".join(chunks), "little") - bias(len(cs))

    raw = (pack(a) * pack(b) + bias(n_out)).to_bytes(nbytes * n_out, "little")
    cuts = map(slice, range(0, len(raw), nbytes), range(nbytes, len(raw) + nbytes, nbytes))
    digits = map(int.from_bytes, map(raw.__getitem__, cuts), repeat("little"))
    return list(map(half.__rsub__, digits))


def _int_poly_mul_trunc(a: list[int], b: list[int], n: int) -> list[int]:
    out = _int_poly_mul(a[:n], b[:n])[:n]
    return out + [0] * (n - len(out))


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
        e = _int_poly_mul_trunc(a, v, m)[k:]
        v += [-c for c in _int_poly_mul_trunc(v, e, m - k)]
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
        num = self.num if c.numerator == 1 else [x * c.numerator for x in self.num]
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
        prod = _int_poly_mul(_spread(self.num, fs, stride, n),
                             _spread(other.num, gs, stride, n))
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

    g = 0 is read as the full factor (q^delta; q^delta)_infinity.  This is the
    straightforward product and doubles as the reference implementation that
    the theta-based fast paths are tested against.
    """
    if delta < 1 or g < 0:
        raise ValueError("need delta >= 1 and g >= 0")
    T = int(order)
    if T < 1:
        raise ValueError("order must be positive")
    c = [0] * T
    c[0] = 1
    n = g if g > 0 else delta
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
    0 < g <= delta/2 (and g = delta covers the classical case).
    """
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
    """(q^g, q^(delta-g); q^delta)_infinity for 0 < g <= delta/2, theta route."""
    if not 0 < g <= delta // 2 and not (g * 2 == delta):
        if not 0 < g < delta:
            raise ValueError("need 0 < g < delta")
    return theta_pair(g, delta, order) * euler_product(delta, order).invert()
