import random
from fractions import Fraction

import pytest

import etaram.eta
import etaram.series
from etaram.eta import (
    GenEtaQuotient, NonIntegralPower, PartitionSpec, _euler_transform,
    _factor_power, bernoulli_p1, bernoulli_p2,
)
from etaram.series import QSeries, euler_product, pair_product, pochhammer


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
    assert bernoulli_p1(3) == 0
    assert bernoulli_p1(Fraction(1, 4)) == Fraction(-1, 4)
    assert bernoulli_p1(Fraction(-1, 4)) == Fraction(1, 4)


def test_eta_shift_values():
    assert PARTITION.eta_shift() == Fraction(1, 24)
    assert OVERPARTITION.eta_shift() == 0
    # progression prefactor for p(11n+6)
    assert PARTITION.slice_prefactor(11, 6) == Fraction(6 - Fraction(1, 24), 11) == Fraction(13, 24)


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


def pochhammer_route(r, rg, order):
    """The product multiplied out factor by factor with plain Pochhammer
    symbols, denominators inverted at the end."""
    num = den = QSeries.one(order)
    factors = [(pochhammer(0, d, order), e) for d, e in r.items()]
    factors += [(pochhammer(g, d, order) * pochhammer(d - g, d, order), e)
                for (d, g), e in rg.items()]
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
    coeffs = _euler_transform(r, rg, order)
    expected = pochhammer_route(r, rg, order)
    assert len(coeffs) == order
    assert coeffs == [expected.coefficient(n) for n in range(order)]


def test_euler_transform_extends_a_known_prefix(monkeypatch):
    r, rg = {1: -3, 2: 1, 5: 1, 10: -1}, {(5, 2): 1}
    fresh = _euler_transform(r, rg, 400)
    assert _euler_transform(r, rg, 400, _euler_transform(r, rg, 50)) == fresh
    assert _euler_transform(r, rg, 30, fresh) == fresh[:30]
    monkeypatch.setattr(etaram.eta, "_PRODUCT_CACHE", {})
    spec = PartitionSpec(10, r, rg)
    short = spec.product_expansion_reference(50)
    assert spec.product_expansion_reference(400).coefficients_range(0, 400) == fresh
    assert spec.product_expansion_reference(50) == short
    assert short.coefficients_range(0, 50) == fresh[:50]


@pytest.mark.parametrize("d, g, e", [(1, 0, 3), (10, 0, 2), (5, 2, 1), (7, 3, 4)])
def test_factor_power_extends_a_shorter_one(monkeypatch, d, g, e):
    monkeypatch.setattr(etaram.eta, "_FACTOR_CACHE", {})
    core = euler_product(d, 400) if g == 0 else pair_product(g, d, 400)
    fresh = core ** e
    short = _factor_power(d, g, e, 50)
    assert short == fresh.truncated(50)
    assert _factor_power(d, g, e, 400) == fresh
    assert etaram.eta._FACTOR_CACHE[(d, g, e)].trunc >= 400
    assert _factor_power(d, g, e, 50) == short
    assert _factor_power(d, g, e, 120) == fresh.truncated(120)


def test_residues_of_one_modulus_share_one_product(monkeypatch):
    monkeypatch.setattr(etaram.eta, "_PRODUCT_CACHE", {})
    calls = []
    for name in ("_product_expansion", "_euler_transform"):
        original = getattr(etaram.eta, name)
        monkeypatch.setattr(etaram.eta, name, lambda *a, _f=original, _n=name, **k:
                            calls.append(_n) or _f(*a, **k))
    for t in range(5):
        fast = OVERPARTITION.slice_expansion(5, t, 20)
        reference = OVERPARTITION.slice_expansion(5, t, 20, reference=True)
        assert fast == reference and fast.bound() - fast.leading()[0] >= 20
    assert sorted(calls) == ["_euler_transform", "_product_expansion"]


def test_reference_route_never_touches_the_fast_route(monkeypatch):
    spec = PartitionSpec(6, {1: -1, 3: 1}, {(3, 1): -1, (6, 2): 1})
    quot = GenEtaQuotient(10, a={1: 1, 5: 1, 10: -2}, ag={(5, 1): -2, (10, 1): -1})
    monkeypatch.setattr(etaram.eta, "_PRODUCT_CACHE", {})
    monkeypatch.setattr(etaram.eta, "_FACTOR_CACHE", {})
    fast = spec.product_expansion(200)
    fast_quot = quot.expansion(60)
    # spoil every fast-route value held: the reference route must not see it
    cache = etaram.eta._PRODUCT_CACHE
    for key in [k for k in cache if k[-1] == "fast"]:
        cache[key] = QSeries.zero(cache[key].trunc)
    factors = etaram.eta._FACTOR_CACHE
    assert factors
    for key in factors:
        factors[key] = QSeries.zero(factors[key].trunc)

    def forbidden(*args, **kwargs):
        raise AssertionError("the reference route used a fast-route kernel")

    for module in (etaram.eta, etaram.series):
        for name in ("euler_product", "theta_pair", "pair_product"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    monkeypatch.setattr(QSeries, "invert", forbidden)
    assert spec.product_expansion_reference(200) == fast
    assert spec.slice_expansion(9, 3, 20, reference=True).agrees_with(
        fast.sift(9, 3).shift(spec.slice_prefactor(9, 3)))
    assert quot.expansion(60, reference=True) == fast_quot


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


def test_geq_canonicalize_plain():
    h = GenEtaQuotient(6, ag={(6, 0): Fraction(3, 2), (6, 3): Fraction(-1, 2)})
    c = h.canonicalize()
    assert c.ag == {}
    assert c.a == {3: -1, 6: 4}
    assert h.expansion(15).agrees_with(
        GenEtaQuotient(6, a={3: -1, 6: 4}).expansion(15))


def test_geq_half_integer_rejected_off_special_slots():
    with pytest.raises(NonIntegralPower):
        GenEtaQuotient(10, ag={(5, 1): Fraction(1, 2)})


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
