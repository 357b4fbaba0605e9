import decimal
import random
from fractions import Fraction
from operator import mul

import pytest

import etaram.eta
import etaram.exprs
import etaram.series
from etaram.eta import (
    GenEtaQuotient, NonIntegralPower, PartitionSpec, _exponents, _product_expansion,
    _spec_progressions, cached_product, certify_product, euler_transform, progressions,
)
from etaram.series import QSeries, _pack_mul, partition_numbers, pochhammer
from oracles import bernoulli_p2


PARTITION = PartitionSpec(1, {1: -1})
OVERPARTITION = PartitionSpec(2, {1: -2, 2: 1})


def partitions_oracle(n_max):
    p = [0] * (n_max + 1)
    p[0] = 1
    for part in range(1, n_max + 1):
        for n in range(part, n_max + 1):
            p[n] += p[n - part]
    return p


def overpartitions_oracle(n_max):
    # overlined parts are distinct, plain parts unrestricted
    p = partitions_oracle(n_max)
    dist = [0] * (n_max + 1)
    dist[0] = 1
    for part in range(1, n_max + 1):
        for n in range(n_max, part - 1, -1):
            dist[n] += dist[n - part]
    out = [sum(dist[k] * p[n - k] for k in range(n + 1)) for n in range(n_max + 1)]
    return out


def test_bernoulli_values():
    assert bernoulli_p2(0) == Fraction(1, 6)
    assert bernoulli_p2(Fraction(1, 2)) == Fraction(-1, 12)
    assert bernoulli_p2(Fraction(7, 5)) == bernoulli_p2(Fraction(2, 5)) == Fraction(-11, 150)


def test_eta_shift_values():
    assert PARTITION.eta_shift() == Fraction(1, 24)
    assert OVERPARTITION.eta_shift() == 0
    # progression prefactor for p(11n+6)
    assert PARTITION.slice_prefactor(11, 6) == Fraction(6 - Fraction(1, 24), 11) == Fraction(13, 24)


def test_slice_reads_hold_the_eta_shift(monkeypatch):
    calls = []
    real = etaram.eta.lead_exponent
    monkeypatch.setattr(etaram.eta, "lead_exponent",
                        lambda *args: calls.append(args) or real(*args))
    for r, rg in (({1: -1}, {}), ({1: -2, 2: 1}, {}), ({1: -1, 3: 1}, {(3, 1): -1, (6, 2): 1})):
        calls.clear()
        spec = PartitionSpec(6, r, rg)
        first = spec.slice_expansion(5, 2, 20)
        for _ in range(99):
            assert spec.slice_expansion(5, 2, 20) == first
        assert len(calls) == 1, (r, rg)


def test_partition_expansion_against_enumeration():
    n = 40
    series = PARTITION.product_expansion(n)
    oracle = partitions_oracle(n)
    for k in range(n):
        assert series.coefficient(k) == oracle[k]
    assert [series.coefficient(k) for k in range(6)] == [1, 1, 2, 3, 5, 7]


def test_overpartition_expansion_against_enumeration():
    n = 30
    series = OVERPARTITION.product_expansion(n)
    oracle = overpartitions_oracle(n)
    for k in range(n):
        assert series.coefficient(k) == oracle[k]
    assert [series.coefficient(k) for k in range(5)] == [1, 2, 4, 8, 14]


def test_singular_overpartition_constant_term():
    spec = PartitionSpec(6, {1: -1, 3: 1}, {(3, 1): -1, (6, 2): 1})
    series = spec.product_expansion(8)
    assert series.coefficient(0) == 1


def test_fast_vs_reference_expansions():
    for spec in [PARTITION, OVERPARTITION,
                 PartitionSpec(6, {1: -1, 3: 1}, {(3, 1): -1, (6, 2): 1}),
                 PartitionSpec(5, rg={(5, 1): -1, (5, 2): 1}),
                 PartitionSpec(10, {1: 2, 2: 1, 10: -1})]:
        assert spec.product_expansion(60) == spec.product_expansion_reference(60)


def exponents(r, rg, order):
    """c[n], the exponent of (1 - q^n) below q^order in the product (r, rg)."""
    return _exponents(_spec_progressions(r, rg), order)


def pochhammer_route(r, rg, order):
    """The product multiplied out factor by factor with plain Pochhammer
    symbols, denominators inverted at the end."""
    factors = [(pochhammer(0, d, order), e) for d, e in r.items()]
    factors += [(pochhammer(g, d, order) * pochhammer(d - g, d, order), e)
                for (d, g), e in rg.items()]
    return multiply_out(factors, order)


def multiply_out(factors, order):
    """prod core**e over (core, e) pairs, denominators inverted at the end."""
    num = den = QSeries.one(order)
    for core, e in factors:
        if e > 0:
            num = num * core ** e
        else:
            den = den * core ** -e
    return (num * den.invert()).truncated(order)


@pytest.mark.parametrize("r, rg", [
    ({1: -1}, {}),                                     # partitions
    ({1: -3, 2: 1, 5: 1, 10: -1}, {}),                 # broken diamond
    ({1: 4, 3: -2}, {}),                               # positive and negative
    ({}, {(5, 1): -1, (5, 2): 1}),                     # Rogers-Ramanujan
    ({1: -1, 3: 1}, {(3, 1): -1, (6, 2): 1}),          # singular overpartitions
    ({2: 1}, {(7, 3): -2, (7, 1): 1}),                 # negative rg exponent
    ({}, {(4, 2): 1}),                                 # 2g = d: (q^2; q^4)^2
    ({1: 1}, {(6, 3): -1}),                            # 2g = d, negative
])
def test_euler_transform_matches_pochhammer_route(r, rg):
    order = 120
    coeffs = euler_transform(exponents(r, rg, order))
    expected = pochhammer_route(r, rg, order)
    assert len(coeffs) == order
    assert coeffs == [expected.coefficient(n) for n in range(order)]


def test_euler_transform_extends_a_known_prefix(monkeypatch):
    r, rg = {1: -3, 2: 1, 5: 1, 10: -1}, {(5, 2): 1}
    fresh = euler_transform(exponents(r, rg, 400))
    assert euler_transform(exponents(r, rg, 400), euler_transform(exponents(r, rg, 50))) == fresh
    assert euler_transform(exponents(r, rg, 30), fresh) == fresh[:30]
    monkeypatch.setattr(etaram.eta, "_PRODUCT_CACHE", {})
    spec = PartitionSpec(10, r, rg)
    short = spec.product_expansion_reference(50)
    assert spec.product_expansion_reference(400).coefficients_range(0, 400) == fresh
    assert spec.product_expansion_reference(50) == short
    assert short.coefficients_range(0, 50) == fresh[:50]


def _reference_euler_transform(r, rg, order, known=()):
    """The Euler-transform recurrence with its convolution summed term by
    term, O(order^2): the exact oracle for euler_transform."""
    if len(known) >= order:
        return list(known[:order])
    c = [0] * order
    for d, e in r.items():
        for n in range(d, order, d):
            c[n] += e
    for (d, g), e in rg.items():
        for start in (g, d - g):
            for n in range(start, order, d):
                c[n] += e
    s = [0] * order
    for n in range(1, order):
        if c[n]:
            v = n * c[n]
            for k in range(n, order, n):
                s[k] -= v
    f = list(known) or [1]
    for n in range(len(f), order):
        total, rem = divmod(sum(map(mul, s[1:n + 1], reversed(f))), n)
        assert not rem
        f.append(total)
    return f


def _random_product(rng):
    r = {d: rng.choice([-3, -2, -1, 1, 2, 3])
         for d in rng.sample([1, 2, 3, 4, 5, 6, 10, 12], rng.randint(1, 3))}
    rg = {}
    for _ in range(rng.randint(1, 3)):
        d = rng.choice([2, 4, 5, 6, 7, 10, 12])
        rg[(d, rng.randint(1, d // 2))] = rng.choice([-2, -1, 1, 2])   # g = d/2 too
    return r, rg


ORACLE_PRODUCTS = [
    ({1: -1}, {}),
    ({1: -3, 2: 1, 5: 1, 10: -1}, {}),
    ({1: 1}, {(6, 3): -1, (5, 2): 2}),
    ({}, {(4, 2): 1, (7, 3): -2}),
] + [_random_product(random.Random(seed)) for seed in range(4)]


@pytest.mark.parametrize("r, rg", ORACLE_PRODUCTS)
def test_euler_transform_matches_the_quadratic_oracle(r, rg):
    oracle = _reference_euler_transform(r, rg, 2500)
    for order in (1, 2, 63, 64, 65, 127, 128, 129, 1000, 2500):
        assert euler_transform(exponents(r, rg, order)) == oracle[:order]
    for k in (1, 50, 64, 137, 999):
        assert euler_transform(exponents(r, rg, 1000), oracle[:k]) == oracle[:1000]
    assert euler_transform(exponents(r, rg, 100), oracle[:1000]) == oracle[:100]
    assert euler_transform(exponents(r, rg, 1000), oracle[:1000]) == oracle[:1000]


def test_a_fresh_transform_of_one_block_makes_no_packed_product(monkeypatch):
    # with no known prefix the first sums start from s(n) f(0) = s(n), so a
    # transform no longer than one base-case block multiplies nothing
    oracles = [_reference_euler_transform(r, rg, 64) for r, rg in ORACLE_PRODUCTS]

    def forbidden(*args):
        raise AssertionError("a fresh one-block transform made a packed product")

    monkeypatch.setattr(etaram.eta, "_pack_mul", forbidden)
    for (r, rg), oracle in zip(ORACLE_PRODUCTS, oracles):
        for order in (1, 2, 3, 63, 64):
            assert euler_transform(exponents(r, rg, order)) == oracle[:order]


def test_euler_transform_keeps_its_exactness_check(monkeypatch):
    r, rg = {1: -2}, {(5, 1): 1}
    honest = _pack_mul
    # one unit too much in every block product: some n no longer divides
    monkeypatch.setattr(etaram.eta, "_pack_mul",
                        lambda a, b, *window: [c + 1 for c in honest(a, b, *window)])
    with pytest.raises(AssertionError, match="left a remainder"):
        euler_transform(exponents(r, rg, 300))


def schoolbook(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_pack_mul_matches_schoolbook():
    rng = random.Random(5)
    for _ in range(200):
        size = rng.choice([1, 2, 5, 40])
        a = [rng.choice([0, rng.randint(-9, 9), rng.randint(-2 ** 300, 2 ** 300)])
             for _ in range(rng.randint(1, size))]
        b = [rng.randint(-2 ** rng.randint(0, 70), 2 ** rng.randint(0, 70))
             for _ in range(rng.randint(1, size))]
        assert _pack_mul(a, b) == schoolbook(a, b)


def spy_decimal_packer(monkeypatch):
    """Lengths of the shorter operand of every product _pack_mul sends to libmpdec."""
    taken = []
    honest = etaram.series._decimal_pack_mul
    monkeypatch.setattr(etaram.series, "_decimal_pack_mul", lambda a, b, n, w, lo, hi:
                        taken.append(min(len(a), len(b))) or honest(a, b, n, w, lo, hi))
    return taken


def random_entries(rng, n, digits):
    """n entries: zeros, small ones of both signs and ones of up to `digits` digits."""
    return [rng.choice([0, rng.randint(-9, 9), rng.randint(-10 ** digits, 10 ** digits)])
            for _ in range(n)]


def test_pack_mul_is_exact_on_both_sides_of_its_cutoff(monkeypatch):
    taken = spy_decimal_packer(monkeypatch)
    rng = random.Random(23)
    # entries of about 150 digits: the packed width is about 300 digits, so
    # the shorter operand crosses _DECIMAL_DIGITS near 100 entries
    short = etaram.series._DECIMAL_DIGITS // 300
    lengths = [(k, 2 * k + rng.randint(-5, 5)) for k in range(short - 12, short + 13, 3)]
    lengths += [(1, 700), (2, 1), (700, 3), (short + 40, short + 40)]
    for m, n in lengths:
        a, b = random_entries(rng, m, 150), random_entries(rng, n, 150)
        a[rng.randrange(m)] = rng.choice([-1, 1]) * 10 ** 150
        expected = schoolbook(a, b)
        assert _pack_mul(a, b) == expected
        assert _pack_mul(b, a) == expected
    for m, n in ((1, 1), (1, 600), (300, 300)):
        assert _pack_mul([0] * m, random_entries(rng, n, 150)) == [0] * (m + n - 1)
    assert 0 < len(taken) < 2 * len(lengths)
    assert min(taken) * 300 * 10 >= etaram.series._DECIMAL_DIGITS * 9


@pytest.mark.parametrize("cutoff", [None, 0])
def test_pack_mul_window_is_the_slice_of_the_product(monkeypatch, cutoff):
    # cutoff 0 sends every nonzero product to libmpdec, None keeps these on int
    if cutoff is not None:
        monkeypatch.setattr(etaram.series, "_DECIMAL_DIGITS", cutoff)
    taken = spy_decimal_packer(monkeypatch)
    rng = random.Random(37)
    for _ in range(80):
        a = random_entries(rng, rng.randint(1, 40), rng.choice([1, 30, 150]))
        b = random_entries(rng, rng.randint(1, 40), 30)
        full = _pack_mul(a, b)
        assert full == schoolbook(a, b)
        n = len(full)
        lo = rng.randint(0, n)
        hi = rng.randint(lo, n)
        assert _pack_mul(a, b, lo, hi) == full[lo:hi]
        assert _pack_mul(a, b, lo) == full[lo:]
        assert _pack_mul(a, b, lo, lo) == []
        assert _pack_mul([0] * len(a), b, lo, hi) == [0] * (hi - lo)
    # every lo of products of both signs: the balanced digits below lo carry
    # one into it when the highest nonzero coefficient there has the sign
    # opposite to the product's, with zeros between them or not
    carried = {1: 0, -1: 0}
    for sign in carried:
        for _ in range(12):
            a = [rng.choice([0, 0, -1, 1, rng.randint(-10 ** 30, 10 ** 30)])
                 for _ in range(rng.randint(1, 20))]
            b = random_entries(rng, rng.randint(1, 20), 30)
            a[-1], b[-1] = sign * rng.randint(1, 9), rng.randint(1, 9)
            full = schoolbook(a, b)
            for lo in range(len(full) + 1):
                below = [c for c in full[:lo] if c]
                carried[sign] += bool(below) and (below[-1] < 0) == (sign > 0)
                assert _pack_mul(a, b, lo) == full[lo:]
                assert _pack_mul(a, b, lo, min(lo + 2, len(full))) == full[lo:lo + 2]
    assert all(count > 20 for count in carried.values())
    assert bool(taken) == (cutoff == 0)


def test_pack_mul_keeps_chunks_past_the_int_digit_limit_off_libmpdec(monkeypatch):
    taken = spy_decimal_packer(monkeypatch)
    rng = random.Random(29)
    # one 4,400-digit entry widens every chunk past 4,300 decimal digits
    a = random_entries(rng, 40, 50) + [-(10 ** 4400) - 7]
    b = random_entries(rng, 60, 50)
    expected = schoolbook(a, b)
    assert _pack_mul(a, b) == expected
    assert taken == []


def test_pack_mul_ignores_the_thread_decimal_context(monkeypatch):
    taken = spy_decimal_packer(monkeypatch)
    rng = random.Random(31)
    a, b = random_entries(rng, 400, 100), random_entries(rng, 500, 100)
    expected = schoolbook(a, b)
    strict = decimal.Context(prec=3, traps=[signal for signal in decimal.Context().flags])
    with decimal.localcontext(strict) as ctx:
        assert _pack_mul(a, b) == expected
        assert decimal.getcontext() is ctx
        assert ctx.prec == 3 and not any(ctx.flags.values())
        assert all(ctx.traps.values())
    assert taken
    # exact operations record no signal in the shared private context either
    assert not any(etaram.series._DECIMAL.flags.values())


def test_euler_transform_catches_a_spoiled_libmpdec_product(monkeypatch):
    honest = etaram.series._DECIMAL

    class OneDigitOff:
        """The private context, with one digit of every product changed."""

        def __getattr__(self, name):
            return getattr(honest, name)

        def multiply(self, x, y):
            digits = honest.to_sci_string(honest.multiply(x, y))
            i = len(digits) // 2
            spoiled = digits[:i] + str((int(digits[i]) + 1) % 10) + digits[i + 1:]
            return honest.create_decimal(spoiled)

    monkeypatch.setattr(etaram.series, "_DECIMAL", OneDigitOff())
    monkeypatch.setattr(etaram.series, "_DECIMAL_DIGITS", 0)
    taken = spy_decimal_packer(monkeypatch)
    with pytest.raises(AssertionError, match="left a remainder"):
        euler_transform(exponents({1: -2}, {(5, 1): 1}, 300))
    assert taken


def _random_powers(rng, big):
    """A product with plain and rg factors (2g = d too) and exponents up to
    big in absolute value, with at least one exponent beyond 4."""
    def exponent():
        return rng.choice([-1, 1]) * rng.randint(1, big)
    r = {d: exponent() for d in rng.sample([1, 2, 3, 5, 6, 10], rng.randint(1, 3))}
    rg = {}
    for _ in range(rng.randint(1, 3)):
        d = rng.choice([2, 4, 5, 6, 7, 10])
        rg[(d, rng.randint(1, d // 2))] = exponent()
    d = min(r)
    r[d] = rng.choice([-1, 1]) * rng.randint(5, max(big, 5))
    return r, rg


# multi-factor products with exponents up to 70, as a prefactor reaches
POWER_PRODUCTS = [
    ({1: -3, 2: 1, 5: 1, 10: -1}, {}),                     # broken diamond
    ({1: 4, 3: -5}, {(5, 2): 5}),
    ({1: 69, 2: -38, 5: 27, 10: -56},                     # diamond prefactor
     {(10, 1): -34, (10, 2): 3, (10, 3): 23, (10, 4): 59}),
    ({2: -70}, {(4, 2): 70, (7, 3): -2}),                 # 2g = d, stride 2
] + [_random_powers(random.Random(seed), big)
     for seed, big in enumerate([2, 3, 5, 12, 40, 70, 70, 70])]


@pytest.mark.parametrize("r, rg", POWER_PRODUCTS)
def test_product_expansion_matches_the_pochhammer_route(monkeypatch, r, rg):
    # each read from an empty cache: the transform, as for every product
    # but the partition product
    expected = pochhammer_route(r, rg, 200)
    for order in (1, 2, 50, 200):
        monkeypatch.setattr(etaram.eta, "_PRODUCT_CACHE", {})
        assert PartitionSpec(420, r, rg).product_expansion(order) == expected.truncated(order)


def test_product_expansion_matches_the_pochhammer_route_at_diamond_size(monkeypatch):
    monkeypatch.setattr(etaram.eta, "_PRODUCT_CACHE", {})
    r = {1: -5, 2: 4, 5: 1, 10: -1}
    assert PartitionSpec(10, r).product_expansion(4575) == pochhammer_route(r, {}, 4575)


def test_partition_numbers_match_the_pochhammer_route():
    # the fast route, Euler's pentagonal recurrence, at the transform's
    # block edges and past the rule's 1,000 terms
    expected = pochhammer_route({1: -1}, {}, 1500)
    for order in (1, 2, 3, 5, 6, 64, 65, 200, 1000, 1500):
        f = _product_expansion(order)
        assert type(f) is list and QSeries.from_ints(f) == expected.truncated(order)


def per_index_divide_pass(f, plus, minus):
    """The fast route's divide pass index by index: f(i) -= sum_k c(k) f(i-k)."""
    for i in range(len(f)):
        f[i] += sum(f[i - k] for k in minus if k <= i) - sum(f[i - k] for k in plus if k <= i)


def test_blocked_divide_pass_matches_the_per_index_pass():
    # the pentagonal series at every length to 300 and a few to 5,000, then
    # random sparse series, some with exponents of one sign only
    for n in list(range(1, 301)) + [1000, 2505, 5000]:
        plus, minus = [], []
        for k in range(1, n + 1):
            for j in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
                if j < n:
                    (minus if k % 2 else plus).append(j)
        f = [1] + [0] * (n - 1)
        per_index_divide_pass(f, sorted(plus), sorted(minus))
        assert partition_numbers(n) == f, n
    rng = random.Random(41)
    for _ in range(40):
        n = rng.randint(1, 400)
        exps = rng.sample(range(1, n), min(n - 1, rng.randint(0, 30)))
        signs = rng.choice([(0, 1), (1, 0), (0, 1, 1)])
        plus = sorted(k for k in exps if rng.choice(signs))
        minus = sorted(set(exps) - set(plus))
        f = [rng.randint(-9, 9) for _ in range(n)]
        expected = f[:]
        per_index_divide_pass(expected, plus, minus)
        etaram.series._divide_pass(f, plus, minus)
        assert f == expected


def test_quotient_expansion_matches_the_pochhammer_route():
    # g = d/2 factors reach the product cache as the plain eta powers they fold into
    rng = random.Random(17)
    for _ in range(6):
        a = {d: rng.randint(-70, 70) for d in (1, 2, 5, 10)}
        ag = {(10, 5): rng.randint(-70, 70), (2, 1): rng.randint(-3, 3),
              (10, rng.randint(1, 4)): rng.randint(-70, 70)}
        quot = GenEtaQuotient(10, a, ag)
        expected = pochhammer_route(a, ag, 200)
        for order in (1, 2, 50, 200):
            core = quot.expansion(order).shift(-quot.lead_exponent())
            assert core == expected.truncated(order)


def test_residues_of_one_modulus_share_one_product(monkeypatch):
    monkeypatch.setattr(etaram.eta, "_PRODUCT_CACHE", {})
    # the fast route forced: at 105 terms the rule picks the transform
    monkeypatch.setattr(etaram.eta, "_FAST_TERMS", 0)
    calls = []
    for name in ("_product_expansion", "euler_transform", "certify_product"):
        original = getattr(etaram.eta, name)
        monkeypatch.setattr(etaram.eta, name, lambda *a, _f=original, _n=name, **k:
                            calls.append(_n) or _f(*a, **k))
    for t in range(5):
        sliced = PARTITION.slice_expansion(5, t, 20)
        assert sliced.bound() - sliced.leading()[0] >= 20
        held = PARTITION.product_expansion_reference(5 * 21)
        assert sliced == held.sift(5, t).shift(PARTITION.slice_prefactor(5, t))
    # one expansion, certified as it was stored; the reference reads take it
    assert calls == ["_product_expansion", "certify_product"]


def test_quotient_expansions_read_the_product_cache(monkeypatch):
    # a quotient's product is expanded once: equal and shorter requests, its
    # integer coefficients and a spec with the same product read the entry
    monkeypatch.setattr(etaram.eta, "_PRODUCT_CACHE", {})
    a, ag = {1: 1, 5: 1, 10: -2}, {(5, 1): -2, (10, 1): -1}
    quot = GenEtaQuotient(10, a, ag)
    lead = quot.lead_exponent()
    full = quot.expansion(80)

    def forbidden(*args, **kwargs):
        raise AssertionError("a held product was expanded again")

    for name in ("_product_expansion", "euler_transform", "certify_product"):
        monkeypatch.setattr(etaram.eta, name, forbidden)
    for terms in (80, 30, 1):
        assert quot.expansion(terms) == full.truncated(lead + terms)
    core = full.shift(-lead)
    assert quot.product_coefficients(80) == core.coefficients_range(0, 80)
    spec = PartitionSpec(10, a, ag)
    assert spec.product_expansion(50) == core.truncated(50)
    assert spec.product_expansion_reference(50) == core.truncated(50)


def test_reference_route_never_trusts_the_fast_route(monkeypatch):
    # the transform and the certificate that proves a fast list run through
    # their own packer and no fast-route kernel, and find the fast route's
    # values: 1/(q; q) to 200 terms, and 1/(q^3; q^3) to 60 over its
    # exponents as given, not reduced to q
    fast = _product_expansion(200)
    fast_q3 = [x for p in _product_expansion(20) for x in (p, 0, 0)]
    taken = spy_decimal_packer(monkeypatch)
    monkeypatch.setattr(etaram.series, "_DECIMAL_DIGITS", 0)

    def forbidden(*args, **kwargs):
        raise AssertionError("the reference route used a fast-route kernel")

    for name in ("euler_product", "theta_pair", "pair_product", "_product_expansion",
                 "_int_poly_inv", "partition_numbers", "_blocks", "_divide_pass"):
        holders = [module for module in (etaram.eta, etaram.series) if hasattr(module, name)]
        assert holders, "no module holds %s" % name
        for module in holders:
            monkeypatch.setattr(module, name, forbidden)
    monkeypatch.setattr(QSeries, "invert", forbidden)
    for key, want in [((((1, 1), -1),), fast), ((((3, 3), -1),), fast_q3)]:
        c = _exponents(key, len(want))
        assert euler_transform(c) == want
        assert certify_product(want, c) is None
    assert taken


def test_only_the_partition_product_reaches_the_fast_route(monkeypatch):
    # with the length rule off, every other product still runs the transform
    monkeypatch.setattr(etaram.eta, "_PRODUCT_CACHE", {})
    monkeypatch.setattr(etaram.eta, "_FAST_TERMS", 0)

    def forbidden(*args, **kwargs):
        raise AssertionError("a product other than 1/(q^g; q^g) took the fast route")

    monkeypatch.setattr(etaram.eta, "_product_expansion", forbidden)
    specs = [OVERPARTITION,
             PartitionSpec(6, {1: -1, 3: 1}, {(3, 1): -1, (6, 2): 1}),   # singular
             PartitionSpec(10, {1: -3, 2: 1, 5: 1, 10: -1}),              # broken diamond
             PartitionSpec(5, rg={(5, 1): -1, (5, 2): 1}),                # Rogers-Ramanujan
             PartitionSpec(1, {1: -2}), PartitionSpec(1, {1: 4})]
    for spec in specs:
        spec.product_expansion(2000)
    GenEtaQuotient(10, {1: 1, 5: 1, 10: -2}, {(5, 1): -2, (10, 1): -1}).expansion(2000)
    cache = etaram.eta._PRODUCT_CACHE
    assert len(cache) == len(specs) + 1
    for key, f in cache.items():
        assert f == euler_transform(_exponents(key, len(f))), key


def spy_transform_lengths(monkeypatch):
    """The length of every euler_transform run, in order."""
    lengths = []
    real = etaram.eta.euler_transform
    monkeypatch.setattr(etaram.eta, "euler_transform",
                        lambda c, known=(): lengths.append(len(c)) or real(c, known))
    return lengths


def _random_spec(rng):
    """A PartitionSpec with M in 1..12, one to three r keys and up to two rg
    keys, exponents in [-3, 3], every key scaled by a stride in 1..3."""
    g = rng.randint(1, 3)
    M = g * rng.randint(1, 4)
    ds = [d for d in range(g, M + 1, g) if M % d == 0]
    r = {rng.choice(ds): rng.randint(-3, 3) for _ in range(rng.randint(1, 3))}
    rg = {}
    for _ in range(rng.randint(0, 2)):
        d = rng.choice(ds)
        if d // g > 1:
            rg[d, g * rng.randint(1, d // g - 1)] = rng.randint(-3, 3)
    return PartitionSpec(M, r, rg)


@pytest.mark.parametrize("seed", range(12))
def test_the_true_product_certifies(seed):
    rng = random.Random(seed)
    g = rng.randint(1, 4)
    key = _random_key(rng)
    keys = [key, tuple(((start * g, step * g), e) for (start, step), e in key),
            _spec_progressions(_random_spec(rng).r, _random_spec(rng).rg)]
    for key in keys:
        for order in (1, 2, 3, 64, 65, rng.randint(100, 900)):
            c = _exponents(key, order)
            assert certify_product(euler_transform(c), c) is None


def test_one_changed_coefficient_fails_at_its_own_index():
    key = _spec_progressions({1: -3, 2: 1, 5: 1, 10: -1}, {(5, 2): 1})
    c = _exponents(key, 300)
    f = euler_transform(c)
    for j in range(300):
        for delta in (1, -1, 10 ** 40):
            spoiled = list(f)
            spoiled[j] += delta
            assert certify_product(spoiled, c) == j
    # with two changed, the first fails
    spoiled = list(f)
    spoiled[250] += 1
    spoiled[97] -= 3
    assert certify_product(spoiled, c) == 97


@pytest.mark.parametrize("seed", range(10))
def test_the_reference_route_adopts_only_a_certified_fast_product(monkeypatch, seed):
    # 1/(q^g; q^g), the fast route's one product, at a random g and level
    rng = random.Random(seed)
    g = rng.randint(1, 3)
    spec = PartitionSpec(g * rng.randint(1, 4), {g: -1})
    order = rng.randint(2, 600)
    key = _spec_progressions(spec.r, spec.rg)
    expected = euler_transform(_exponents(key, order))
    # the true fast product is certified and stored: no transform runs, and a
    # reference read takes it as it is.  The fast route is forced, as the
    # rule sends short products to the transform
    monkeypatch.setattr(etaram.eta, "_PRODUCT_CACHE", {})
    monkeypatch.setattr(etaram.eta, "_FAST_TERMS", 0)
    transforms = spy_transform_lengths(monkeypatch)
    assert spec.product_expansion(order).coefficients_range(0, order) == expected
    assert spec.product_expansion_reference(order).coefficients_range(0, order) == expected
    assert transforms == []
    # a spoiled one never is: the transform runs once and gives the true
    # product.  A key in q^g is expanded in q^g, to ceil(order/g) coefficients
    n = -(-order // g)
    j = rng.randrange(n)
    delta = rng.choice([-2, -1, 1, 2])
    honest = etaram.eta._product_expansion
    for spoil in (lambda f: f[:j] + [f[j] + delta] + f[j + 1:],
                  lambda f: [2 * c for c in f],
                  lambda f: f[:-1] + [f[-1] + 1]):
        monkeypatch.setattr(etaram.eta, "_PRODUCT_CACHE", {})
        monkeypatch.setattr(etaram.eta, "_product_expansion",
                            lambda k, spoil=spoil: spoil(honest(k)))
        transforms.clear()
        assert spec.product_expansion(order).coefficients_range(0, order) == expected
        assert spec.product_expansion_reference(order).coefficients_range(0, order) == expected
        assert transforms == [n]


def test_random_products_are_the_transform_on_either_route(monkeypatch):
    # 40 seeded products up to 3,000 terms, one in three of them 1/(q^g; q^g),
    # each read from an empty cache; the rule sends the long partition
    # products to the fast route and the rest to the transform
    monkeypatch.setattr(etaram.eta, "_PRODUCT_CACHE", {})
    rng = random.Random(35)
    routes = []
    transform, expand = etaram.eta.euler_transform, etaram.eta._product_expansion
    monkeypatch.setattr(etaram.eta, "euler_transform",
                        lambda c, known=(): routes.append("transform") or transform(c, known))
    monkeypatch.setattr(etaram.eta, "_product_expansion",
                        lambda n: routes.append("fast") or expand(n))
    for _ in range(40):
        g = rng.randint(1, 3)
        spec = _random_spec(rng) if rng.randrange(3) else PartitionSpec(g, {g: -1})
        order = rng.randint(1, 3000)
        etaram.eta._PRODUCT_CACHE.clear()
        read = spec.product_expansion(order).coefficients_range(0, order)
        assert read == transform(_exponents(_spec_progressions(spec.r, spec.rg), order)), (
            spec, order)
    assert {"fast", "transform"} <= set(routes)


def _random_key(rng):
    """A progressions key of 1-4 progressions, steps up to 12, exponents
    in [-3, 3]."""
    factors = []
    for _ in range(rng.randint(1, 4)):
        step = rng.randint(1, 12)
        factors.append(((rng.randint(1, step), step), rng.randint(-3, 3)))
    return progressions(factors)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("g", [2, 3, 5, 6])
def test_strided_products_match_the_unstrided_transform(monkeypatch, seed, g):
    # a key in q^g is read reduced and spread; the oracle runs the
    # transform over every exponent of the key as given
    key = _random_key(random.Random(seed))
    scaled = tuple(((start * g, step * g), e) for (start, step), e in key)
    for order in (1, g - 1, 2 * g + 1, 700):
        monkeypatch.setattr(etaram.eta, "_PRODUCT_CACHE", {})
        assert cached_product(scaled, order) == euler_transform(_exponents(scaled, order))
    # held from the longest read, every shorter one is its prefix
    full = euler_transform(_exponents(scaled, 700))
    for order in (700, 2 * g + 1, g - 1, 1):
        assert cached_product(scaled, order) == full[:order]


def test_a_product_in_q_g_reads_its_q_form(monkeypatch):
    monkeypatch.setattr(etaram.eta, "_PRODUCT_CACHE", {})
    monkeypatch.setattr(etaram.eta, "_held_terms", 0)
    partitions = PartitionSpec(1, {1: -1}).product_expansion_reference(200)

    def forbidden(*args, **kwargs):
        raise AssertionError("a held product was expanded again")

    monkeypatch.setattr(etaram.eta, "euler_transform", forbidden)
    monkeypatch.setattr(etaram.eta, "_product_expansion", forbidden)
    # 1/(q^2; q^2) to q^400 is 1/(q; q) to q^200 at every other index
    spec = PartitionSpec(2, {2: -1})
    for read in (spec.product_expansion, spec.product_expansion_reference):
        assert read(400) == pochhammer(0, 2, 400).invert()
        assert read(399).coefficients_range(0, 399) == [
            c for n in range(200) for c in (partitions.coefficient(n), 0)][:399]
    assert list(etaram.eta._PRODUCT_CACHE) == [(((1, 1), -1),)]
    assert etaram.eta._held_terms == 200


def test_a_spec_a_strided_spec_a_quotient_and_an_expression_share_one_entry(monkeypatch):
    monkeypatch.setattr(etaram.eta, "_PRODUCT_CACHE", {})
    partitions = PARTITION.product_expansion(300)

    def forbidden(*args, **kwargs):
        raise AssertionError("a held product was expanded again")

    monkeypatch.setattr(etaram.eta, "euler_transform", forbidden)
    monkeypatch.setattr(etaram.eta, "_product_expansion", forbidden)
    # 1/(q^3; q^3), 1/eta(tau), P(0,1)^-1 and P(0,2)^-1 all read 1/(q; q)
    assert PartitionSpec(3, {3: -1}).product_expansion(900).sift(3, 0) == partitions
    assert GenEtaQuotient(1, {1: -1}).expansion(300).shift(Fraction(1, 24)) == partitions
    assert etaram.exprs.expand("P(0,1)^-1", 300) == partitions
    assert etaram.exprs.expand("P(0,2)^-1", 600).sift(2, 0) == partitions
    assert list(etaram.eta._PRODUCT_CACHE) == [(((1, 1), -1),)]


def test_the_bound_counts_every_entry_and_drops_the_one_read_least_recently(monkeypatch):
    monkeypatch.setattr(etaram.eta, "_PRODUCT_CACHE", {})
    monkeypatch.setattr(etaram.eta, "_held_terms", 0)
    monkeypatch.setattr(etaram.eta, "_PRODUCT_TERMS", 250)
    eta = PartitionSpec(1, {1: 1})
    # two entries, 200 coefficients
    PARTITION.product_expansion(100)
    OVERPARTITION.product_expansion(100)
    assert etaram.eta._held_terms == 200
    # a read of the first moves it last; a third entry passes the bound and
    # drops the overpartitions, read least recently
    PARTITION.product_expansion_reference(50)
    eta.product_expansion(100)
    assert list(etaram.eta._PRODUCT_CACHE) == [
        _spec_progressions(spec.r, spec.rg) for spec in (PARTITION, eta)]
    assert etaram.eta._held_terms == 200


def test_a_longer_strided_request_extends_the_reduced_entry(monkeypatch):
    monkeypatch.setattr(etaram.eta, "_PRODUCT_CACHE", {})
    calls = []
    real = etaram.eta.euler_transform

    def spy(c, known=()):
        calls.append((len(c), list(known)))
        return real(c, known)

    monkeypatch.setattr(etaram.eta, "euler_transform", spy)
    key = progressions([((3, 3), -2), ((6, 9), 1)])
    short = cached_product(key, 100)
    longer = cached_product(key, 301)
    # the reduced key ((1, 1), -2), ((2, 3), 1): 34 terms, then 101 from them
    assert [(length, len(known)) for length, known in calls] == [(34, 0), (101, 34)]
    assert calls[1][1] == short[::3]
    assert longer == euler_transform(_exponents(key, 301))
    assert longer[:100] == short


@pytest.mark.parametrize("product, g", [
    (PartitionSpec(2, {2: -1}), 2),
    (PartitionSpec(6, {3: -1}), 3),
    (GenEtaQuotient(12, {2: -1}), 2),
], ids=["spec-q2", "spec-q3", "quotient-12"])
def test_strided_products_agree_on_both_routes(monkeypatch, product, g):
    # the fast route expands 1/(q^g; q^g) in q^g, and its certified entry is
    # what the transform gives and what a reference read takes
    if isinstance(product, GenEtaQuotient):
        key = _spec_progressions(product.a, product.ag)
    else:
        key = _spec_progressions(product.r, product.rg)
    expected = euler_transform(_exponents(key, 600))
    monkeypatch.setattr(etaram.eta, "_PRODUCT_CACHE", {})
    monkeypatch.setattr(etaram.eta, "_FAST_TERMS", 0)
    lengths = []
    honest = etaram.eta._product_expansion
    monkeypatch.setattr(etaram.eta, "_product_expansion",
                        lambda k: lengths.append(k) or honest(k))
    if isinstance(product, GenEtaQuotient):
        fast = product.expansion(600).shift(-product.lead_exponent())
    else:
        fast = product.product_expansion(600)
    transforms = spy_transform_lengths(monkeypatch)
    assert fast.coefficients_range(0, 600) == expected
    assert cached_product(key, 600) == expected
    assert lengths == [600 // g] and transforms == []
    # the one entry is held reduced: its key is not in q^g
    (held,) = etaram.eta._PRODUCT_CACHE
    assert held == tuple(((start // g, step // g), e) for (start, step), e in key)
    assert any(start % g or step % g for (start, step), _ in held)


def test_slice_expansion_overpartition():
    g = OVERPARTITION.slice_expansion(5, 2, 12)
    lead = g.leading()
    assert lead == (Fraction(2, 5), 4)  # 4 overpartitions of 2
    oracle = overpartitions_oracle(80)
    for n in range(12):
        assert g.coefficient(Fraction(2, 5) + n) == oracle[5 * n + 2]


def test_slice_expansion_trivial_progression():
    g = PARTITION.slice_expansion(1, 0, 20)
    full = PARTITION.product_expansion(20).shift(-PARTITION.eta_shift())
    assert g.agrees_with(full)


def test_slice_expansion_p11():
    g = PARTITION.slice_expansion(5, 4, 3)
    shift = PARTITION.slice_prefactor(5, 4)
    assert g.coefficient(shift) == 5       # p(4)
    assert g.coefficient(shift + 1) == 30  # p(9)
    assert g.coefficient(shift + 2) == 135  # p(14)


def test_slicing_matches_full_series():
    rng = random.Random(11)
    spec = PartitionSpec(4, {1: -1, 2: 2, 4: -1})
    full = spec.product_expansion(61)
    for m, t in [(2, 1), (3, 0), (4, 3), (5, 2)]:
        g = spec.slice_expansion(m, t, 10)
        pre = spec.slice_prefactor(m, t)
        for n in range(10):
            assert g.coefficient(pre + n) == full.coefficient(m * n + t)


def test_geq_eta_10_5():
    h = GenEtaQuotient(10, ag={(10, 5): 1})
    assert h.lead_exponent() == Fraction(-5, 12)
    e = h.expansion(25)
    # q^(-5/12) (q^5; q^10)^2
    lead = e.leading()
    assert lead[0] == Fraction(-5, 12)
    assert e.coefficient(Fraction(-5, 12) + 5) == -2
    assert e.coefficient(Fraction(-5, 12) + 10) == 1


def test_geq_z_expansion():
    # 1/q + 2 + 2q + q^2 + O(q^3)
    z = GenEtaQuotient(10, a={1: 1, 5: 1, 10: -2}, ag={(5, 1): -2, (10, 1): -1})
    e = z.expansion(10)
    assert [e.coefficient(n) for n in range(-1, 3)] == [1, 2, 2, 1]


def test_geq_construction_folds_plain_slots():
    h = GenEtaQuotient(6, ag={(6, 0): Fraction(3, 2), (6, 3): Fraction(-1, 2)})
    assert h.ag == {}
    assert h.a == {3: -1, 6: 4}
    assert h.expansion(15).agrees_with(
        GenEtaQuotient(6, a={3: -1, 6: 4}).expansion(15))
    # a g = d/2 slot alone moves too; the same quotient given in canonical
    # form is stored as given, equal and with the same hash
    h = GenEtaQuotient(6, ag={(6, 3): Fraction(-1, 2), (6, 1): 2})
    assert (h.a, h.ag) == ({3: -1, 6: 1}, {(6, 1): 2})
    c = GenEtaQuotient(6, a={3: -1, 6: 1}, ag={(6, 1): 2})
    assert (c.a, c.ag) == ({3: -1, 6: 1}, {(6, 1): 2})
    assert c == h and hash(c) == hash(h)


def test_stored_form_matches_the_raw_factors():
    # random exponents on every slot kind (g = 0, 2g = d, g past d/2 and the
    # rest), half-integral on the g = 0 and 2g = d slots: the stored form is
    # canonical and in ints, and expands to the raw factors' product
    rng = random.Random(19)
    order = 60
    halves = 0
    for N in (4, 6, 10, 12):
        for _ in range(10):
            a, ag = {}, {}
            for d in [x for x in range(1, N + 1) if N % x == 0]:
                if rng.random() < 0.5:
                    a[d] = rng.randint(-3, 3)
                for g in range(d):
                    if rng.random() < 0.4:
                        half = g == 0 or 2 * g == d
                        ag[(d, g)] = Fraction(rng.randint(-5, 5), 2 if half else 1)
            halves += any(e.denominator == 2 for e in ag.values())
            h = GenEtaQuotient(N, a, ag)
            assert all(type(e) is int for e in [*h.a.values(), *h.ag.values()]), h
            assert all(0 < 2 * g < d for d, g in h.ag), h
            # eta_{d,g}^e is (q^g; q^d)^e (q^(d-g); q^d)^e, one Pochhammer
            # symbol squared at g = 0 and 2g = d; pochhammer(0, d) is (q^d; q^d)
            powers = {}
            for d, e in a.items():
                powers[0, d] = powers.get((0, d), 0) + e
            for (d, g), e in ag.items():
                for start in (g, (d - g) % d):
                    powers[start, d] = powers.get((start, d), 0) + e
            assert all(Fraction(e).denominator == 1 for e in powers.values())
            core = multiply_out([(pochhammer(g, d, order), int(e))
                                 for (g, d), e in powers.items()], order)
            lead = sum(Fraction(d * e, 24) for d, e in a.items())
            lead += sum(Fraction(d, 2) * bernoulli_p2(Fraction(g, d)) * e
                        for (d, g), e in ag.items())
            assert h.expansion(order) == core.shift(lead), h
    assert halves > 10


def test_geq_half_integer_rejected_off_special_slots():
    with pytest.raises(NonIntegralPower):
        GenEtaQuotient(10, ag={(5, 1): Fraction(1, 2)})


def test_geq_construction_checks_every_exponent_type():
    # int exponents on every slot kind come out as ints
    h = GenEtaQuotient(12, a={1: 2, 4: -3}, ag={(12, 7): 4, (6, 0): 1, (6, 3): -2})
    assert (h.a, h.ag) == ({1: 2, 3: -4, 4: -3, 6: 6}, {(12, 5): 4})
    assert all(type(e) is int for e in [*h.a.values(), *h.ag.values()])
    # half-integral Fractions (and a float) on the g = 0 and 2g = d slots
    # still fold into a, beside an int on the same divisor
    h = GenEtaQuotient(6, a={6: 1}, ag={(6, 0): Fraction(1, 2), (6, 3): 1.5})
    assert (h.a, h.ag) == ({3: 3, 6: -1}, {})
    assert all(type(e) is int for e in h.a.values())
    # a Fraction that is an integer is stored as one
    assert GenEtaQuotient(5, a={5: Fraction(4, 2)}).a == {5: 2}
    # a non-integral exponent still raises on each slot kind
    for a, ag in [({5: Fraction(1, 2)}, {}), ({}, {(5, 1): Fraction(1, 3)}),
                  ({}, {(10, 0): Fraction(1, 3)}), ({}, {(10, 5): "1/4"}),
                  ({10: Fraction(1, 2)}, {(10, 0): Fraction(1, 2)})]:
        with pytest.raises(NonIntegralPower):
            GenEtaQuotient(10, a, ag)
    # and so does an argument that does not divide the level
    for a, ag in [({4: Fraction(1)}, {}), ({}, {(4, 1): Fraction(2)})]:
        with pytest.raises(ValueError, match="does not divide level 10"):
            GenEtaQuotient(10, a, ag)


def test_lead_exponent_matches_expansion():
    rng = random.Random(3)
    for _ in range(25):
        N = rng.choice([6, 10, 11])
        a = {}
        ag = {}
        for d in [x for x in range(1, N + 1) if N % x == 0]:
            if rng.random() < 0.5:
                a[d] = rng.randint(-3, 3)
            for g in range(1, d // 2 + 1):
                if rng.random() < 0.3:
                    ag[(d, g)] = rng.randint(-2, 2)
        h = GenEtaQuotient(N, a, ag)
        if h.is_one():
            continue
        e = h.expansion(6)
        assert e.leading()[0] == h.lead_exponent()
        assert e.leading()[1] == 1


def test_expansion_invariant_under_folding():
    s1 = PartitionSpec(5, rg={(5, 1): 2})
    s2 = PartitionSpec(5, rg={(5, 4): 2})
    assert s1 == s2
    assert s1.product_expansion(30) == s2.product_expansion(30)


def test_json_round_trip():
    spec = PartitionSpec(6, {1: -1, 3: 1}, {(3, 1): -1, (6, 2): 1})
    assert PartitionSpec.from_json(spec.to_json()) == spec
    with pytest.raises(ValueError):
        PartitionSpec.from_json({"M": 2, "bogus": 1})
    q = GenEtaQuotient(10, a={10: 1}, ag={(10, 4): -8, (10, 5): 9})
    assert GenEtaQuotient.from_json(10, q.to_json()) == q


@pytest.mark.parametrize("doc, message", [
    ({"M": 1, "r": {"0": 1}}, "r key 0 does not divide M=1"),
    ({"M": 1, "r": {"-1": -1}}, "r key -1 does not divide M=1"),
    ({"M": 2, "rg": {"0/1": 1}}, "rg key delta=0 does not divide M=2"),
    ({"M": 4, "rg": {"-2/1": 1}}, "rg key delta=-2 does not divide M=4"),
], ids=["r-zero", "r-negative", "rg-zero", "rg-negative"])
def test_spec_keys_below_one_are_refused(doc, message):
    with pytest.raises(ValueError) as info:
        PartitionSpec.from_json(doc)
    assert type(info.value) is ValueError and str(info.value) == message


@pytest.mark.parametrize("a, ag, d", [
    ({-1: 1}, {}, -1), ({0: 1}, {}, 0), ({}, {(-5, 1): 1}, -5), ({}, {(0, 1): 1}, 0),
])
def test_geq_arguments_below_one_are_refused(a, ag, d):
    with pytest.raises(ValueError) as info:
        GenEtaQuotient(10, a, ag)
    assert type(info.value) is ValueError
    assert str(info.value) == "eta argument %d does not divide level 10" % d
