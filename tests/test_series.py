import ast
import random
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

import etaram.series
from etaram.series import (
    QSeries, ZeroSeries, _pack_mul, euler_product, pair_product, pochhammer, theta_pair,
)


def partitions_oracle(n_max):
    """Partition counts by direct dynamic programming over part sizes."""
    p = [0] * (n_max + 1)
    p[0] = 1
    for part in range(1, n_max + 1):
        for n in range(part, n_max + 1):
            p[n] += p[n - part]
    return p


def random_series(rng, denom=1, span=8):
    coeffs = {}
    trunc = rng.randint(3, span) * denom
    for _ in range(rng.randint(0, 6)):
        n = rng.randint(-4, trunc - 1)
        if n < trunc:
            coeffs[n] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    coeffs = {n: c for n, c in coeffs.items() if c}
    return QSeries(coeffs, trunc, denom)


def test_add_cancellation():
    one_minus_q = QSeries({0: 1, 1: -1}, 10)
    q = QSeries({1: 1}, 10)
    s = one_minus_q + q
    assert s.coefficient(0) == 1
    assert s.coefficient(1) == 0
    assert list(s.coeffs) == [0]


def test_add_identity():
    f = QSeries({0: 2, 3: Fraction(1, 2)}, 7)
    assert (f + QSeries.zero(7)) == f


def test_add_denominator_reconciliation():
    f = QSeries.monomial(Fraction(1, 2), 1, 2)
    g = QSeries.monomial(Fraction(1, 3), 1, 2)
    s = f + g
    assert s.denom == 6
    assert s.coefficient(Fraction(1, 2)) == 1
    assert s.coefficient(Fraction(1, 3)) == 1


def test_mul_telescoping():
    T = 20
    f = QSeries({0: 1, 1: -1}, T + 10)
    g = QSeries({n: 1 for n in range(T + 1)}, T + 1)
    prod = f * g
    assert prod.coefficient(0) == 1
    assert all(prod.coefficient(n) == 0 for n in range(1, T))


def test_mul_identity():
    f = QSeries({-1: 2, 0: 3, 4: Fraction(1, 3)}, 9)
    assert (f * QSeries.one(100)).agrees_with(f)


def test_mul_laurent_shift():
    f = QSeries({-1: 1, 0: 2}, 10)
    g = QSeries({1: 1}, 10)
    p = f * g
    assert p.coefficient(0) == 1
    assert p.coefficient(1) == 2


def test_invert_geometric():
    f = QSeries({0: 1, 1: -1}, 5)
    inv = f.invert()
    assert [inv.coefficient(n) for n in range(4)] == [1, 1, 1, 1]


def test_invert_monomial():
    q = QSeries({1: 1}, 6)
    inv = q.invert()
    lead = inv.leading()
    assert lead == (Fraction(-1), Fraction(1))


def test_invert_partition_count():
    # coefficient of q^4 in 1/(q;q)_inf counts the partitions of 4
    inv = pochhammer(0, 1, 30).invert()
    oracle = partitions_oracle(20)
    assert inv.coefficient(4) == oracle[4] == 5
    for n in range(20):
        assert inv.coefficient(n) == oracle[n]


def test_invert_non_unit_leading():
    f = QSeries({0: 2, 1: 1}, 8)
    inv = f.invert()
    assert (f * inv).agrees_with(QSeries.one(8))


def test_pochhammer_examples():
    f = pochhammer(0, 1, 13)
    assert dict(f.coeffs) == {0: 1, 1: -1, 2: -1, 5: 1, 7: 1, 12: -1}
    g = pochhammer(5, 10, 6)
    assert dict(g.coeffs) == {0: 1, 5: -1}


def test_pochhammer_pair_composition():
    T = 40
    direct = pochhammer(1, 5, T) * pochhammer(4, 5, T)
    # reference: expand the double product over both residues in one pass
    c = [0] * T
    c[0] = 1
    for n in range(1, T):
        if n % 5 in (1, 4):
            for i in range(T - 1 - n, -1, -1):
                if c[i]:
                    c[i + n] -= c[i]
    for n in range(T):
        assert direct.coefficient(n) == c[n]


def test_pentagonal_oracle_to_200():
    T = 200
    fast = euler_product(1, T)
    direct = pochhammer(0, 1, T)
    assert fast == direct


def test_theta_pair_matches_products():
    T = 60
    for g, d in [(1, 5), (2, 5), (1, 10), (5, 10), (3, 8), (1, 2)]:
        lhs = pochhammer(g, d, T) * pochhammer(d - g, d, T) * pochhammer(0, d, T)
        assert lhs.agrees_with(theta_pair(g, d, T))
        assert pair_product(g, d, T).agrees_with(pochhammer(g, d, T) * pochhammer(d - g, d, T))


@pytest.mark.parametrize("g, d", [(0, 5), (5, 5), (6, 5), (-1, 5), (0, 1)])
def test_theta_pair_rejects_g_outside_0_to_delta(g, d):
    # at g = 0 and g = delta the terms of k and -1-k cancel: the sum is 0
    with pytest.raises(ValueError, match="need 0 < g < delta"):
        theta_pair(g, d, 30)
    with pytest.raises(ValueError, match="need 0 < g < delta"):
        pair_product(g, d, 30)


def test_ring_axioms_randomized():
    rng = random.Random(20240817)
    for _ in range(120):
        denom = rng.choice([1, 1, 2, 3])
        f = random_series(rng, denom)
        g = random_series(rng, denom)
        h = random_series(rng, denom)
        assert ((f * g) * h).agrees_with(f * (g * h))
        assert (f * (g + h)).agrees_with(f * g + f * h)
        assert (f * g).agrees_with(g * f)
        assert (f + g).agrees_with(g + f)


def test_invert_round_trip_randomized():
    rng = random.Random(97)
    for _ in range(60):
        f = random_series(rng, rng.choice([1, 2]))
        if f.is_known_zero():
            continue
        inv = f.invert()
        assert (f * inv).agrees_with(QSeries.one(1))
        assert inv.leading()[0] == -f.leading()[0]


def test_truncation_soundness():
    rng = random.Random(5)
    for _ in range(40):
        f = random_series(rng)
        g = random_series(rng)
        small = f.truncated(3) * g.truncated(3)
        big = f * g
        assert big.agrees_with(small)


def test_zero_series_inversion_raises():
    with pytest.raises(ZeroSeries):
        QSeries.zero(5).invert()


def test_pow_matches_repeated_mul():
    f = QSeries({0: 1, 1: 1, 2: Fraction(1, 2)}, 12)
    assert (f ** 3).agrees_with(f * f * f)
    assert (f ** -2).agrees_with(f.invert() * f.invert())
    assert (f ** 0).coefficient(0) == 1


def test_sift():
    f = QSeries({n: n * n + 1 for n in range(17)}, 17)
    s = f.sift(5, 2)
    assert s.coefficient(0) == 5          # exponent 2
    assert s.coefficient(1) == 50         # exponent 7
    assert s.coefficient(2) == 145        # exponent 12
    assert s.bound() == 3


def test_shift_and_canonical_denominator():
    f = QSeries({0: 1, 2: 1}, 10, 2)  #  1 + q, known to q^5
    assert f.denom == 1               # canonicalized
    g = f.shift(Fraction(1, 3))
    assert g.coefficient(Fraction(1, 3)) == 1
    assert g.coefficient(Fraction(4, 3)) == 1


def test_mul_truncation_rule():
    # f known to q^5 with lead 2, g known to q^4 with lead 1:
    # product valid strictly below min(5+1, 4+2) = 6
    f = QSeries({2: 1}, 5)
    g = QSeries({1: 1}, 4)
    assert (f * g).bound() == 6


# -- kernel oracle: every operation against a naive dict-of-Fraction model ----
#
# A reference series is (terms, bound): {exact exponent: nonzero Fraction} and
# the first unknown exponent.  The truncation rules are the documented ones.

def ref_of(f):
    return dict(f.terms()), f.bound()


def ref_lead(r):
    terms, bound = r
    return min(terms) if terms else bound


def ref_mul(r, s):
    bound = min(r[1] + ref_lead(s), s[1] + ref_lead(r))
    out = {}
    for e, c in r[0].items():
        for k, d in s[0].items():
            if e + k < bound:
                out[e + k] = out.get(e + k, 0) + c * d
    return {e: c for e, c in out.items() if c}, bound


def ref_add(r, s, sign=1):
    bound = min(r[1], s[1])
    out = {e: c for e, c in r[0].items() if e < bound}
    for e, c in s[0].items():
        if e < bound:
            out[e] = out.get(e, 0) + sign * c
    return {e: c for e, c in out.items() if c}, bound


def ref_invert(r):
    (terms, bound), e0 = r, min(r[0])
    c0 = terms[e0]
    # 1/f = q^-e0 / c0 * sum_k (-h)^k with h = f q^-e0 / c0 - 1
    known = bound - e0
    h = ({e - e0: -c / c0 for e, c in terms.items() if e != e0}, known)
    total = power = ({Fraction(0): Fraction(1)}, known)
    while power[0]:
        power = ref_add(ref_mul(power, h), ({}, known))
        total = ref_add(total, power)
    return {e - e0: c / c0 for e, c in total[0].items()}, bound - 2 * e0


def kernel_state(f):
    return f.denom, f.trunc, f.val, f.stride, f.num, f.den


def assert_canonical(f):
    assert type(f.den) is int and f.den > 0
    assert all(type(c) is int for c in f.num)
    assert gcd(f.den, *f.num) == 1
    if f.num:
        assert f.num[0] and f.num[-1]
        offsets = [i * f.stride for i, c in enumerate(f.num) if c]
        assert f.stride == gcd(*offsets) if len(offsets) > 1 else f.stride == 0
        assert f.val + (len(f.num) - 1) * f.stride < f.trunc
    else:
        assert (f.val, f.stride, f.den) == (0, 0, 1)
    assert gcd(f.denom, f.trunc, f.val, f.stride) == 1


def random_kernel_series(rng, denom, nonzero=False):
    stride = rng.choice([1, 1, 2, 3, 5])
    val = rng.randint(-7, 4)
    n = rng.randint(1 if nonzero else 0, 9)
    coeffs = {val + i * stride: Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3, 4]))
              for i in range(n)}
    if nonzero:
        coeffs[val] = Fraction(rng.choice([-3, -2, -1, 1, 1, 2, 5]), rng.choice([1, 1, 2, 3]))
    coeffs = {e: c for e, c in coeffs.items() if c}
    trunc = val + stride * n + rng.randint(1, 9)
    return QSeries(coeffs, trunc, denom)


def check_op(op, ref, *operands):
    before = [kernel_state(f) for f in operands]
    result = op(*operands)
    assert [kernel_state(f) for f in operands] == before, "an operand was mutated"
    assert_canonical(result)
    assert ref_of(result) == ref
    assert dict(result.coeffs) == {e * result.denom: c for e, c in ref[0].items()}
    assert len(result.coeffs) == len(ref[0])
    return result


@pytest.mark.parametrize("denom", [1, 2, 3, 24])
def test_kernel_matches_a_fraction_dict_oracle(denom):
    rng = random.Random(1000 + denom)
    for _ in range(150):
        f = random_kernel_series(rng, denom)
        g = random_kernel_series(rng, rng.choice([1, denom]))
        assert_canonical(f)
        rf, rg = ref_of(f), ref_of(g)
        check_op(lambda a, b: a * b, ref_mul(rf, rg), f, g)
        check_op(lambda a, b: a + b, ref_add(rf, rg), f, g)
        check_op(lambda a, b: a - b, ref_add(rf, rg, -1), f, g)
        # cancellation: (f + g) - g is f on the common range
        h = f + g
        check_op(lambda a, b: a - b, ref_add(ref_of(h), rg, -1), h, g)
        check_op(lambda a: a - a, ({}, rf[1]), f)
        c = Fraction(rng.randint(-7, 7), rng.randint(1, 6))
        check_op(lambda a: a.scale(c), ({e: c * v for e, v in rf[0].items() if c},
                                        rf[1]), f)
        e = Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 4, 5]))
        check_op(lambda a: a.shift(e), ({k + e: v for k, v in rf[0].items()},
                                        rf[1] + e), f)
        o = Fraction(rng.randint(-8, 12), rng.choice([1, 2, 3, 7]))
        bound = min(rf[1], o)
        check_op(lambda a: a.truncated(o), ({k: v for k, v in rf[0].items() if k < bound},
                                            bound), f)


@pytest.mark.parametrize("denom", [1, 2, 3, 24])
def test_kernel_invert_and_negative_powers_match_the_oracle(denom):
    rng = random.Random(2000 + denom)
    for _ in range(60):
        f = random_kernel_series(rng, denom, nonzero=True)
        rf = ref_of(f)
        inv = check_op(lambda a: a.invert(), ref_invert(rf), f)
        k = rng.randint(1, 3)
        expected = ref_of(inv)
        for _ in range(k - 1):
            expected = ref_mul(expected, ref_of(inv))
        check_op(lambda a: a ** -k, expected, f)


def test_kernel_sift_matches_the_oracle():
    rng = random.Random(3000)
    for _ in range(200):
        f = random_kernel_series(rng, 1)
        m = rng.choice([2, 3, 4, 5, 7, 10])
        t = rng.randrange(m)
        terms, bound = ref_of(f)
        expected = ({(e - t) / m: c for e, c in terms.items() if (e - t) % m == 0},
                    Fraction(-((t - bound) // m)))
        check_op(lambda a: a.sift(m, t), expected, f)


def test_both_product_paths_agree(monkeypatch):
    # random signed, zero-heavy lists of 0-100 terms through the double
    # loop, the two-point int packer and libmpdec, each forced by its
    # cutoff, against a plain convolution: the whole product, and a window
    # that may start or end past the product's end or cut the inputs short
    rng = random.Random(37)
    decimal_products = []
    honest = etaram.series._decimal_pack_mul
    monkeypatch.setattr(etaram.series, "_decimal_pack_mul",
                        lambda *args: decimal_products.append(args[2]) or honest(*args))
    loop = etaram.series._LOOP_TERMS

    def draw():
        bits = rng.choice([1, 8, 40, 200])
        return [rng.randint(-(1 << bits), 1 << bits) if rng.random() < 0.4 else 0
                for _ in range(rng.randint(0, 100))]

    def convolve(a, b):
        out = [0] * (len(a) + len(b) - 1 if a and b else 0)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    def check(a, b, windows, paths):
        expected = convolve(a, b)
        for loop_terms, digits in paths:
            monkeypatch.setattr(etaram.series, "_LOOP_TERMS", loop_terms)
            monkeypatch.setattr(etaram.series, "_DECIMAL_DIGITS", digits)
            assert _pack_mul(a, b) == expected, (a, b)
            for lo, hi in windows:
                window = (expected + [0] * hi)[lo:hi]
                assert _pack_mul(a, b, lo, hi) == window, (a, b, lo, hi)

    for _ in range(300):
        a, b = draw(), draw()
        n = len(a) + len(b) - 1 if a and b else 0
        lo = rng.randint(0, n + 5)
        check(a, b, [(lo, rng.randint(lo, n + 10))], ((100, 10 ** 9), (0, 10 ** 9), (0, 0)))
    assert decimal_products

    # the two-point path at its edges: every entry +-M, the signs chosen so
    # that coefficient `peak` is +-len(a) M**2, exactly the bound the chunk
    # width is sized from (bound.bit_length() a multiple of 16 for k = 7, 15
    # and 63 at 2 to 4 terms); peaks of both parities, every parity of lo,
    # top and n, one-coefficient windows, and a shorter factor of
    # _LOOP_TERMS + 1 terms at the shipped cutoffs
    shapes = [(2, 3), (3, 5), (4, 6), (4, 7), (loop + 1, loop + 3), (loop + 1, loop + 4), (16, 33)]
    for k in (7, 8, 15, 16, 63, 64):
        for M in ((1 << k) - 1, 1 << k):
            for la, lb in shapes:
                n = la + lb - 1
                for peak in (la - 1, la):
                    a = [rng.choice((M, -M)) for _ in range(la)]
                    b = [rng.choice((M, -M)) for _ in range(lb)]
                    for i, x in enumerate(a):
                        b[peak - i] = x
                    assert convolve(a, b)[peak] == la * M * M
                    windows = [(lo, hi) for lo in (0, 1, peak, peak + 1)
                               for hi in (lo + 1, lo + 2, n - 1, n, n + 1) if lo <= hi]
                    for sign in (1, -1):
                        check([sign * x for x in a], b, windows,
                              ((loop, 10 ** 9), (0, 10 ** 9), (0, 0)))


# the calls that pack, unpack or multiply big numbers: int.to_bytes and
# int.from_bytes, and a decimal context's create_decimal and multiply
BIG_NUMBER_CALLS = {"to_bytes", "from_bytes", "create_decimal", "multiply"}


def big_number_callers(tree: ast.Module) -> set:
    """Names of the top-level functions (or classes) of a module whose bodies,
    nested functions included, call a BIG_NUMBER_CALLS attribute; "" for a
    call at module level."""
    callers = set()

    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and child.func.attr in BIG_NUMBER_CALLS):
                callers.add(owner)
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            walk(child, child.name if named and not owner else owner)

    walk(tree, "")
    return callers


def test_one_integer_product_packs_and_multiplies_big_numbers():
    # series._pack_mul and its libmpdec path are the package's one integer
    # product: no other function packs a list into a big number, unpacks
    # one or multiplies through a decimal context, and both exist and do
    callers = set()
    for path in sorted(Path(etaram.series.__file__).parent.glob("*.py")):
        callers |= {(path.stem, name) for name in big_number_callers(ast.parse(path.read_text()))}
    assert callers == {("series", "_pack_mul"), ("series", "_decimal_pack_mul")}
