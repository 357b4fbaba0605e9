import functools
import hashlib
import json
import random
from fractions import Fraction
from math import gcd

import pytest

from etaram.cusps import (
    INFINITY, Cusp, CuspData, _lambda_mu_form, class_key, cusp_order_bounds, cusp_set,
    cusps_equivalent, exponent_slots, genus, kappa, make_cusp, order_at_cusp, order_table,
    slice_min_exponent, width,
)
from etaram.eta import GenEtaQuotient, PartitionSpec, bernoulli_p2
from etaram.modularity import NoPhiFound, find_level, find_prefactor

OVERPARTITION = PartitionSpec(2, {1: -2, 2: 1})
PARTITION = PartitionSpec(1, {1: -1})

S10_PAPER = [Cusp(0, 1), Cusp(1, 5), Cusp(1, 4), Cusp(3, 10),
             Cusp(1, 3), Cusp(3, 5), Cusp(1, 2), INFINITY]


def psl2_index(N):
    # index of the level-N group in PSL2(Z); valid for N > 4
    out = N * N
    for p in range(2, N + 1):
        if N % p == 0 and all(p % q for q in range(2, p)):
            out = out * (p * p - 1) // (p * p)
    return out // 2


def random_quotient(rng, N):
    a, ag = {}, {}
    for d in [x for x in range(1, N + 1) if N % x == 0]:
        if rng.random() < 0.6:
            a[d] = rng.randint(-3, 3)
        for g in range(1, d // 2 + 1):
            if rng.random() < 0.35:
                ag[(d, g)] = rng.randint(-2, 2)
    return GenEtaQuotient(N, a, ag)


def test_cusps_10_matches_published_set():
    ours = [d.cusp for d in cusp_set(10)]
    assert len(ours) == len(S10_PAPER) == 8
    for s in S10_PAPER:
        hits = [r for r in ours if cusps_equivalent(10, r, s)]
        assert len(hits) == 1


def test_cusps_level_one():
    assert [d.cusp for d in cusp_set(1)] == [INFINITY]


def test_cusp_count_level_11():
    assert len(cusp_set(11)) == 10


def test_every_small_fraction_hits_exactly_one_class():
    for N in [2, 3, 4, 5, 6, 8, 10, 11, 12]:
        reps = [d.cusp for d in cusp_set(N)]
        for c in range(1, N + 1):
            for a in range(c):
                if gcd(a, c) != 1:
                    continue
                hits = [r for r in reps if cusps_equivalent(N, r, make_cusp(a, c))]
                assert len(hits) == 1, (N, a, c)


def test_width_sum_equals_index():
    for N in [5, 6, 7, 10, 11, 12, 20, 22]:
        assert sum(d.width for d in cusp_set(N)) == psl2_index(N)


def test_genus_of_x1():
    # the published genera of X1(N): 0 for N <= 10 and N = 12
    published = {11: 1, 13: 2, 14: 1, 15: 1, 16: 2, 17: 5, 18: 2, 19: 7,
                 20: 3, 21: 5, 22: 6, 23: 12, 24: 5, 25: 12}
    for N in range(1, 26):
        assert genus(N) == published.get(N, 0), N
        assert type(genus(N)) is int


def test_widths():
    assert width(10, Cusp(3, 10)) == 1
    assert width(10, Cusp(1, 5)) == 2
    assert width(4, Cusp(1, 2)) == 1  # the level-4 anomaly
    assert width(10, INFINITY) == 1
    for N in [6, 10, 11]:
        for d in cusp_set(N):
            assert d.width >= 1 and N % (d.width if N != 4 else 1) == 0


def test_lambda_mu_eps_forms():
    for N in [6, 10, 11, 12]:
        for d in cusp_set(N):
            lam, mu, eps = _lambda_mu_form(N, d.cusp)
            assert N % eps == 0
            assert gcd(lam, N) == 1 and gcd(mu, N) == 1 and gcd(lam, mu) == 1
            assert cusps_equivalent(N, make_cusp(lam, mu * eps), d.cusp)


_cached_lambda_mu_form = functools.lru_cache(maxsize=None)(_lambda_mu_form)


def _lambda_mu_coefficient(N, cusp, d, g):
    """The (d, g) coefficient of the order at a cusp from its lam/(mu eps)
    form, (N/2) gcd(d, eps)^2 / (d eps) B2(lam g / gcd(d, eps)), counted in
    the cusp's local parameter q^(1/width) by the factor width * eps / N."""
    lam, _, eps = _cached_lambda_mu_form(N, cusp)
    gde = gcd(d, eps)
    return (Fraction(N, 2) * Fraction(gde * gde, d * eps)
            * bernoulli_p2(Fraction(lam * g, gde)) * Fraction(width(N, cusp) * eps, N))


def _table_row(N, cusp):
    """order_table(N)'s row for the cusp's class, in Fractions per slot."""
    table = order_table(N)
    _, row, den = table.forms[table.classes[class_key(N, cusp)]]
    return [Fraction(x, den) for x in row]


def _fraction_row(N, cusp):
    """The closed formula at the cusp a/c in Fractions, per scaled slot:
    width * gcd(d, c)^2 / (2d) * B2(a g / gcd(d, c)) per eta_{d,g}, whose
    exponent is half the scaled entry at g = 0 and 2g = d."""
    a, c, w = cusp.a, cusp.c, width(N, cusp)
    return [Fraction(w * gcd(d, c) ** 2, 2 * d) * bernoulli_p2(Fraction(a * g, gcd(d, c)))
            / (2 if 2 * g % d == 0 else 1) for d, g in exponent_slots(N)]


def test_order_rows_match_the_lambda_mu_form():
    # at every cusp up to level 40 the table's row for it, read from the
    # cusp's a/c, gives the coefficients of the lam/(mu eps) representative
    # of its class: a g = 0 slot is half eta_{d,0}'s, and a half slot's
    # scaled entry v is eta(d tau/2)^v / eta(d tau)^v
    for N in range(1, 41):
        assert exponent_slots(N) == [(d, g) for d in range(1, N + 1) if N % d == 0
                                     for g in range(d // 2 + 1)]
        for data in cusp_set(N):
            row = _table_row(N, data.cusp)
            for (d, g), coeff in zip(exponent_slots(N), row):
                if 2 * g == d:
                    expect = (_lambda_mu_coefficient(N, data.cusp, g, 0)
                              - _lambda_mu_coefficient(N, data.cusp, d, 0)) / 2
                else:
                    expect = _lambda_mu_coefficient(N, data.cusp, d, g) / (1 if g else 2)
                assert coeff == expect, (N, data.cusp, d, g)


def test_order_rows_match_the_fraction_formula():
    # the rows are cleared in integers, each divided with its denominator by
    # their gcd; written out in Fractions they are the closed formula, at
    # every cusp of the levels up to 60, infinity's form last and its own
    for N in range(1, 61):
        table = order_table(N)
        assert table.slots == {slot: i for i, slot in enumerate(exponent_slots(N))}
        assert [cusp for cusp, _ in table.cusps] == [data.cusp for data in cusp_set(N)]
        assert table.cusps[-1] == (INFINITY, len(table.forms) - 1)
        assert len({(row, den) for _, row, den in table.forms[:-1]}) == len(table.forms) - 1
        for data, row, den in table.forms:
            assert den > 0 and gcd(den, *row) == 1
            assert (data.cusp, table.forms.index((data, row, den))) in table.cusps
        for cusp, i in table.cusps:
            _, row, den = table.forms[i]
            assert [Fraction(x, den) for x in row] == _fraction_row(N, cusp), (N, cusp)


def test_order_of_trivial_quotient():
    one = GenEtaQuotient(10)
    for d in cusp_set(10):
        assert order_at_cusp(one, 10, d) == 0


def test_order_formula_matches_series_at_infinity():
    rng = random.Random(42)
    checked = 0
    for N in [6, 10, 11]:
        while checked < 50:
            h = random_quotient(rng, N)
            if h.is_one():
                continue
            formula = order_at_cusp(h, N, INFINITY)
            series_lead = h.expansion(5).leading()[0]
            assert formula == series_lead * width(N, INFINITY)
            checked += 1
            if checked % 17 == 0:
                break  # rotate levels


def _reference_order_at_cusp(N, cusp, a, ag):
    """The closed formula summed term by term in Fractions over the raw
    exponents (a, ag) a quotient was built from, with the plain eta powers
    folded into the g = 0 slots."""
    data = cusp if isinstance(cusp, CuspData) else _representative(N, cusp)
    combined = {}
    for d, e in a.items():
        combined[(d, 0)] = combined.get((d, 0), Fraction(0)) + Fraction(e, 2)
    for k, e in ag.items():
        combined[k] = combined.get(k, Fraction(0)) + e
    total = Fraction(0)
    for (d, g), e in combined.items():
        if e:
            total += _lambda_mu_coefficient(N, data.cusp, d, g) * e
    return total


def _representative(N, cusp):
    """The CuspData of cusp_set(N) equivalent to the cusp, by a scan."""
    scanned = [data for data in cusp_set(N) if cusps_equivalent(N, data.cusp, cusp)]
    assert len(scanned) == 1, (N, cusp)
    return scanned[0]


def _random_half_quotient(rng, N):
    """Random exponents of both signs on every kind of slot, half-integral on
    the g = 0 and 2g = d slots: the quotient and the raw (a, ag) it was
    built from."""
    a, ag = {}, {}
    for d in [x for x in range(1, N + 1) if N % x == 0]:
        if rng.random() < 0.6:
            a[d] = rng.randint(-4, 4)
        for g in range(0, d // 2 + 1):
            if rng.random() < 0.4:
                half = g == 0 or 2 * g == d
                ag[(d, g)] = Fraction(rng.randint(-5, 5), 2 if half else 1)
    return GenEtaQuotient(N, a, ag), a, ag


def test_integer_orders_match_fraction_sum():
    # the stored canonical form against the half-slot formula on the raw
    # exponents, at every cusp
    rng = random.Random(11)
    for N in [6, 10, 11, 12, 18]:
        halves = 0
        for _ in range(40):
            h, a, ag = _random_half_quotient(rng, N)
            halves += any(e.denominator == 2 for e in ag.values())
            for data in cusp_set(N):
                expect = _reference_order_at_cusp(N, data, a, ag)
                assert order_at_cusp(h, N, data) == expect, (h, data.cusp)
                assert order_at_cusp(h, N, data.cusp) == expect
        assert halves > 5


def test_lead_exponent_is_the_order_at_infinity():
    # lead_exponent's integer sum on the stored form against the closed
    # order formula on the raw exponents, half-integral g = 0 and 2g = d
    # slots included
    rng = random.Random(13)
    for N in [12, 18]:
        halves = 0
        for _ in range(40):
            h, a, ag = _random_half_quotient(rng, N)
            halves += any(e.denominator == 2 for e in ag.values())
            expect = _reference_order_at_cusp(N, INFINITY, a, ag) / width(N, INFINITY)
            assert h.lead_exponent() == expect, h
        assert halves > 5


def test_order_rejects_divisor_outside_level():
    with pytest.raises(ValueError):
        order_at_cusp(GenEtaQuotient(4, a={4: 1}), 6, INFINITY)


def _seeded_progressions(seed, count, max_level):
    """(spec, m, t, N) over M in {1, 2, 3, 4, 5, 6, 10, 12}, generalized keys
    included, m in {2, 3, 5, 7, 9, 11}, N the found level, at most max_level."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        M = rng.choice([1, 2, 3, 4, 5, 6, 10, 12])
        ds = [d for d in range(1, M + 1) if M % d == 0]
        r = {d: rng.randint(-3, 3) for d in rng.sample(ds, rng.randint(1, len(ds)))}
        keys = [(d, g) for d in ds for g in range(1, d // 2 + 1)]
        rg = {k: rng.randint(-2, 2) for k in rng.sample(keys, rng.randint(0, min(2, len(keys))))}
        spec = PartitionSpec(M, r, rg)
        m = rng.choice([2, 3, 5, 7, 9, 11])
        t = rng.randrange(m)
        N = find_level(spec, m, t)
        if N <= max_level:
            out.append((spec, m, t, N))
    return out


def test_min_exponents_are_cusp_class_invariant():
    # a/c, (a + j c)/c, -a/-c and a/(c + k N) lie in one class at level N;
    # make_cusp would reduce a/(c + k N) to another class unless it is
    # already in lowest terms, so only those k are tried
    rng = random.Random(7)
    tried = shifted = 0
    for spec, m, t, N in _seeded_progressions(3, 40, 60):
        for _ in range(8):
            a, c = rng.randint(-9, 9), rng.randint(-9, 9)
            if gcd(a, c) != 1:
                continue
            cusp = make_cusp(a, c)
            a, c = cusp.a, cusp.c
            j, k = rng.randint(-3, 3), rng.choice([-2, -1, 1, 2])
            others = [make_cusp(a + j * c, c), make_cusp(-a, -c)]
            if gcd(a, c + k * N) == 1:
                others.append(make_cusp(a, c + k * N))
                shifted += 1
            for other in others:
                assert _fraction_row(N, other) == _fraction_row(N, cusp) == _table_row(N, other)
                assert slice_min_exponent(spec, m, other) == slice_min_exponent(spec, m, cusp)
                tried += 1
    assert tried > 500 and shifted > 150


def test_slice_exponent_at_infinity():
    assert slice_min_exponent(PARTITION, 1, INFINITY) == Fraction(-1, 24)


def test_slice_exponent_constant_in_lambda_when_c_zero():
    spec = PartitionSpec(6, {1: -2, 2: 1, 3: 1, 6: -1})
    for m in [2, 3, 5, 7]:
        k = kappa(m)
        vals = set()
        for lam in range(m):
            total = Fraction(0)
            u = INFINITY.a + k * lam * INFINITY.c
            for d, e in spec.r.items():
                gg = gcd(d * u, m * INFINITY.c)
                total += Fraction(gg * gg, 24 * d * m) * e
            vals.add(total)
        assert vals == {slice_min_exponent(spec, m, INFINITY)}


def _bounds_record(spec, m, t, phi, N):
    bounds = cusp_order_bounds(spec, m, t, phi, N)
    return [N, sorted(phi.a.items()), sorted([d, g, e] for (d, g), e in phi.ag.items()),
            [[str(c), str(b)] for c, b in bounds.items()]]


@pytest.mark.slow
def test_prefactors_and_bounds_are_pinned():
    # SHA-256 of (N, phi, cusp_order_bounds) over 250 seeded progressions.
    # The draw stops at level 28, from when the prefactor search took
    # seconds per case at levels 30-60; the next two pins cover those
    # levels' bounds, with drawn prefactors, and their prefactors
    records = []
    for spec, m, t, N in _seeded_progressions(23, 250, 28):
        try:
            phi = find_prefactor(spec, m, t, N)
        except NoPhiFound:
            records.append([N, None])
            continue
        records.append(_bounds_record(spec, m, t, phi, N))
    assert sum(r[1] is None for r in records) == 11
    assert {r[0] for r in records} >= {4, 10, 12, 16, 18, 20, 24, 28}
    digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
    assert digest == "fbca1cf0376d11715575675cc5fb814db96f92553a9ad7d66ea996147efda482"


@pytest.mark.slow
def test_bounds_at_levels_to_60_are_pinned():
    # SHA-256 of (N, phi, cusp_order_bounds) for 250 seeded progressions
    # up to level 60, with phi a drawn quotient at the found level
    rng = random.Random(29)
    records = [_bounds_record(spec, m, t, random_quotient(rng, N), N)
               for spec, m, t, N in _seeded_progressions(31, 250, 60)]
    assert {r[0] for r in records} >= {30, 36, 48, 50, 54, 60}
    digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
    assert digest == "e2d0f1648bcc039619fb0a8c1e3b861412e9140f87c3786f579bab50e6dba1a9"


@pytest.mark.slow
def test_prefactors_at_levels_to_60_are_pinned():
    # SHA-256 of (N, phi or the NoPhiFound message) over 250 seeded
    # progressions up to level 60, as the deepening coset walk found them
    records = []
    for spec, m, t, N in _seeded_progressions(23, 250, 60):
        try:
            phi = find_prefactor(spec, m, t, N)
        except NoPhiFound as exc:
            records.append([N, str(exc)])
            continue
        records.append([N, sorted(phi.a.items()), sorted([d, g, e] for (d, g), e in phi.ag.items())])
    assert sum(isinstance(r[1], str) for r in records) == 8
    assert {r[0] for r in records} >= {30, 36, 44, 48, 54, 60}
    digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
    assert digest == "c3c37c9865c2449c701d06a88e88c000dee0f9dee22df693bbfca42525bfeb63"


def test_overpartition_bounds_match_published_values():
    phi = GenEtaQuotient(10, a={10: 1}, ag={(10, 4): -8, (10, 5): 9})
    bounds = cusp_order_bounds(OVERPARTITION, 5, 2, phi, 10)
    expected = {
        Cusp(0, 1): Fraction(-3), Cusp(1, 5): Fraction(19, 5),
        Cusp(1, 4): Fraction(-2), Cusp(3, 10): Fraction(-18, 5),
        Cusp(1, 3): Fraction(-3), Cusp(3, 5): Fraction(27, 5),
        Cusp(1, 2): Fraction(-2), INFINITY: Fraction(-2, 5),
    }
    for published_cusp, value in expected.items():
        rep = _representative(10, published_cusp).cusp
        assert bounds[rep] == value, published_cusp


def test_bound_at_infinity_below_actual_lead():
    phi = GenEtaQuotient(10, a={10: 1}, ag={(10, 4): -8, (10, 5): 9})
    F = phi.expansion(30) * OVERPARTITION.slice_expansion(5, 2, 30)
    bounds = cusp_order_bounds(OVERPARTITION, 5, 2, phi, 10)
    assert F.leading()[0] >= bounds[INFINITY]


def test_trivial_progression_bound_at_infinity():
    phi = GenEtaQuotient(1)
    bounds = cusp_order_bounds(PARTITION, 1, 0, phi, 1)
    assert bounds[INFINITY] == Fraction(-1, 24)


def _equivalent_by_search(N, s1, s2):
    """cusps_equivalent by trying every j mod N, as first written."""
    a1, c1, a2, c2 = s1.a, s1.c, s2.a, s2.c
    if (c2 - c1) % N == 0:
        for j in range(N):
            if (a2 - a1 - j * c1) % N == 0:
                return True
    if (c2 + c1) % N == 0:
        for j in range(N):
            if (a2 + a1 + j * c1) % N == 0:
                return True
    return False


def test_cusps_equivalent_matches_the_search_over_j():
    for N in range(1, 31):
        # the candidates cusp_set draws its representatives from, and infinity
        cands = list(dict.fromkeys([make_cusp(a, c) for c in range(1, N + 1)
                                    for a in range(N) if gcd(a, c) == 1] + [INFINITY]))
        for s1 in cands:
            for s2 in cands:
                assert cusps_equivalent(N, s1, s2) == _equivalent_by_search(N, s1, s2), \
                    (N, s1, s2)


def test_cusp_class_lookup_equals_the_scan():
    # seeded cusps a/c, c up to 3N and a of either sign, plus infinity: the
    # order table's class map sends each to the form of the one cusp of
    # cusp_set(N) that the scans by cusps_equivalent and by the search find
    rng = random.Random(95)
    for N in list(range(1, 61)) + [144]:
        table = order_table(N)
        assert len(table.classes) == len(table.cusps)
        form_of = dict(table.cusps)
        cusps = [INFINITY, Cusp(0, 1)]
        while len(cusps) < 40:
            a, c = rng.randint(-5 * N, 5 * N), rng.randint(1, 3 * N)
            if gcd(a, c) == 1:
                cusps.append(Cusp(a, c))
        for cusp in cusps:
            scanned = [data for data in cusp_set(N) if cusps_equivalent(N, data.cusp, cusp)]
            assert scanned == [data for data in cusp_set(N)
                               if _equivalent_by_search(N, data.cusp, cusp)]
            assert len(scanned) == 1, (N, cusp)
            assert table.classes[class_key(N, cusp)] == form_of[scanned[0].cusp], (N, cusp)
