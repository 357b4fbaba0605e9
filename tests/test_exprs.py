"""The expression language's monomial path against plain Pochhammer products."""

import random
import sys
import threading
from fractions import Fraction
from math import ceil

import pytest

import etaram.eta
import etaram.exprs
import etaram.series
from etaram.eta import PartitionSpec, progressions
from etaram.exprs import ParseError, expand
from etaram.identities import verify_identity
from etaram.series import QSeries, ZeroSeries, pochhammer

# g = 0, g >= d, 2g = d and plain residues
FACTORS = [(0, 1), (0, 3), (0, 5), (1, 5), (4, 5), (7, 5), (2, 4), (5, 10), (3, 2), (1, 7)]


def _random_monomial(rng, top):
    """Text of a random c q^s prod P(g, d)^e with s < top, and (c, s, factors).

    q^s and each factor are written in one of several forms, so the monomial
    nests through '/', 'pow' and 'neg'; the whole may be negated once more.
    """
    c = Fraction(rng.choice([-5, -1, 1, 2, 3]), rng.choice([1, 2, 7]))
    s = Fraction(rng.randrange(-6, top), rng.choice([1, 2, 3]))
    text = "%d/%d*" % (c.numerator, c.denominator) + rng.choice(
        ["q^(%d/%d)" % (s.numerator, s.denominator),
         "(q^(%d/%d))^-1" % (-s.numerator, s.denominator)])
    factors = []
    for g, d in rng.sample(FACTORS, rng.randrange(1, 5)):
        e = rng.randrange(-4, 5)
        form = rng.randrange(4)
        if form == 0:
            text += "*P(%d,%d)^%d" % (g, d, e)
        elif form == 1:
            text += "/P(%d,%d)^%d" % (g, d, -e)
        elif form == 2:
            text += "*(P(%d,%d)^-1)^%d" % (g, d, -e)
        else:
            text += "*(-P(%d,%d))^%d" % (g, d, e)
            c = -c if e % 2 else c
        factors.append((g, d, e))
    if rng.random() < 0.5:
        text, c = "-(%s)" % text, -c
    return text, c, s, factors


def _pochhammer_oracle(c, s, factors, order):
    terms = ceil(order - s)
    out = QSeries.one(terms)
    for g, d, e in factors:
        out = out * pochhammer(g, d, terms) ** e
    return out.shift(s).scale(c).truncated(order)


@pytest.mark.parametrize("order,count", [(1, 6), (2, 6), (63, 6), (64, 6), (65, 6),
                                         (500, 4), (2505, 3)])
def test_monomials_match_pochhammer_products(order, count):
    rng = random.Random(order)
    for _ in range(count):
        text, c, s, factors = _random_monomial(rng, min(order, 7))
        got = expand(text, order)
        assert got == _pochhammer_oracle(c, s, factors, order), text
        assert got.bound() == order
        # '+ 0' sends the same monomial through the generic sum
        assert expand("%s + 0" % text, order) == got


def test_five_factors_at_verify_length_match_pochhammer():
    # 2,505 terms: the slice of 1/(q;q) for p(5n+4) to order 500
    order = 2505
    got = expand("P(0,1)^-1*P(2,5)*P(3,5)/(P(1,5)*P(4,5))", order)
    oracle = _pochhammer_oracle(1, 0, [(0, 1, -1), (2, 5, 1), (3, 5, 1),
                                       (1, 5, -1), (4, 5, -1)], order)
    assert got == oracle


@pytest.mark.parametrize("text,error,message", [
    ("P(-1,5)", ParseError, "need delta >= 1 and g >= 0"),
    ("P(1,0)", ParseError, "need delta >= 1 and g >= 0"),
    ("0^-1*P(0,1)", ZeroSeries, "series has no known nonzero term below its truncation"),
    ("P(0,1)/0", ZeroSeries, "series has no known nonzero term below its truncation"),
])
def test_monomial_errors_keep_their_type_and_message(text, error, message):
    with pytest.raises(error) as info:
        expand(text, 30)
    assert type(info.value) is error and str(info.value) == message


def test_monomial_past_the_order_is_zero():
    for text in ["q^50*P(0,1)", "q^50", "q^30*P(0,1)^-1"]:
        series = expand(text, 30)
        assert series.is_known_zero() and series.bound() == 30


def test_a_residue_is_read_modulo_its_step():
    # P(g, d) runs over n > 0 with n = g (mod d), so g counts only modulo d
    for text, same in [("P(7,5)", "P(2,5)"), ("P(12,5)", "P(2,5)"),
                       ("P(5,5)", "P(0,5)"), ("P(10,5)", "P(0,5)")]:
        assert expand(text, 60) == expand(same, 60)
        assert verify_identity(text, same, 60) == (True, {"order": 60, "status": "equal"})
    assert expand("P(7,5)", 60) == pochhammer(2, 5, 60) == pochhammer(7, 5, 60)


def test_a_pole_deepens_the_other_factor():
    # each factor is known to q^30; without deepening the product stops at q^28
    assert expand("(q^-2 + 1)*P(0,2)^3", 30).bound() == 30
    assert expand("P(0,2)^3*(q^-2 + 1)", 30).bound() == 30
    assert expand("(1 + q)^-1*(q + q^2)^-1", 30).bound() == 30
    assert expand("(q + q^2)^0", 30).bound() == 30
    assert expand("(q^-2 + 1)/(q + q^3)", 30).agrees_with(expand("q^-3", 30))


CLASSICAL = [
    ("slice(P(0,1)^-1, 5, 4)", "5 * P(0,5)^5 * P(0,1)^-6", 300),
    ("slice(P(0,1)^-1, 5, 0)",
     "P(0,5) / (P(0,1)^2 * P(1,5)^8 * P(4,5)^8)"
     " - 3*q*P(0,5)^6 * P(1,5)^2 * P(4,5)^2 / P(0,1)^7", 300),
    ("P(2,5)*P(3,5) / (P(1,5)*P(4,5))",
     "P(8,20)^2*P(12,20)^2/(P(6,20)*P(14,20)*P(10,20)^2)"
     " + q*P(2,20)*P(18,20)*P(8,20)*P(12,20)/(P(4,20)*P(16,20)*P(10,20)^2)", 600),
]


def test_verification_never_touches_the_theta_route(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("verification left the reference route")

    # an empty cache, whatever ran before: every product is a miss
    monkeypatch.setattr(etaram.eta, "_PRODUCT_CACHE", {})
    monkeypatch.setattr(etaram.eta, "_held_terms", 0)
    for name in ("_product_expansion", "partition_numbers", "euler_product", "theta_pair",
                 "pair_product", "pochhammer", "_int_poly_inv"):
        holders = [module for module in (etaram.eta, etaram.series, etaram.exprs)
                   if hasattr(module, name)]
        assert holders, "no module holds %s" % name
        for module in holders:
            monkeypatch.setattr(module, name, forbidden)
    for name in ("invert", "__pow__", "__mul__"):
        monkeypatch.setattr(QSeries, name, forbidden)
    for lhs, rhs, order in CLASSICAL:
        assert verify_identity(lhs, rhs, order) == (True, {"order": order, "status": "equal"})
        ok, report = verify_identity(lhs, rhs + " + 2*q^%d" % (order - 1), order)
        assert not ok and report["exponent"] == str(order - 1)


def spy_transforms(monkeypatch):
    """Empty the product cache, then list (first exponents, length, known
    length) for every Euler transform run."""
    monkeypatch.setattr(etaram.eta, "_PRODUCT_CACHE", {})
    calls = []
    real = etaram.eta.euler_transform

    def counting(c, known=()):
        calls.append((tuple(c[:8]), len(c), len(known)))
        return real(c, known)

    monkeypatch.setattr(etaram.eta, "euler_transform", counting)
    return calls


def test_nested_products_expand_each_monomial_from_scratch_once(monkeypatch):
    # the poles deepen every factor below them, and the power and the
    # quotient deepen their bases: each product is re-expanded at several
    # orders, and every repeat reads or extends the first expansion
    calls = spy_transforms(monkeypatch)
    order = 40
    got = expand("(q^-2*P(1,5) + P(2,5)^3) * (q^-1*P(0,1)^-1 - 2*P(1,5))^3"
                 " / (q + q^2*P(2,5)^3)", order)
    fresh = [c for c, _, known in calls if not known]
    extended = [c for c, _, known in calls if known]
    # P(1,5) (twice, as q^-2 P(1,5) and -2 P(1,5)), P(2,5)^3 (twice) and P(0,1)^-1
    assert len(fresh) == len(set(fresh)) == 3
    assert extended
    T = 60
    a = pochhammer(1, 5, T).shift(-2) + pochhammer(2, 5, T) ** 3
    b = pochhammer(0, 1, T).invert().shift(-1) - pochhammer(1, 5, T).scale(2)
    c = QSeries.monomial(1, 1, T) + (pochhammer(2, 5, T) ** 3).shift(2)
    assert got == (a * b ** 3 * c.invert()).truncated(order)


def test_a_repeated_verification_runs_no_transform(monkeypatch):
    calls = spy_transforms(monkeypatch)
    for lhs, rhs, order in CLASSICAL:
        first = verify_identity(lhs, rhs, order)
        made = len(calls)
        assert made and verify_identity(lhs, rhs, order) == first
        assert len(calls) == made


def test_a_verification_reads_the_product_a_derivation_expanded(monkeypatch):
    calls = spy_transforms(monkeypatch)
    # 1/(q;q) to the 5 * 500 + 5 terms that slice(..., 5, 4) reads at order 500
    PartitionSpec(1, {1: -1}).product_expansion_reference(2505)
    del calls[:]
    assert verify_identity("slice(P(0,1)^-1,5,4)", "5*P(0,5)^5*P(0,1)^-6", 500) == (
        True, {"order": 500, "status": "equal"})
    # only the right-hand side's (q^5;q^5)^5 / (q;q)^6 is expanded
    assert calls == [((0, -6, -6, -6, -6, -1, -6, -6), 500, 0)]


def test_a_longer_request_extends_the_held_product(monkeypatch):
    calls = spy_transforms(monkeypatch)
    lhs, rhs = "slice(P(0,1)^-1,5,4)", "5*P(0,5)^5*P(0,1)^-6"
    for order in (100, 300):
        assert verify_identity(lhs, rhs, order) == (True, {"order": order, "status": "equal"})
    assert [call[1:] for call in calls] == [(505, 0), (100, 0), (1505, 505), (300, 100)]
    extended = expand(rhs, 300)
    monkeypatch.setattr(etaram.eta, "_PRODUCT_CACHE", {})
    assert extended == expand(rhs, 300)


def test_concurrent_verifications_share_the_product_cache(monkeypatch):
    monkeypatch.setattr(etaram.eta, "_PRODUCT_CACHE", {})
    cases = [(lhs, rhs, order, (True, {"order": order, "status": "equal"}))
             for lhs, rhs, order in CLASSICAL]
    cases += [(lhs, rhs + " + 2*q^%d" % (order - 1), order,
               (False, {"order": order, "status": "mismatch",
                        "exponent": str(order - 1), "difference": "-2"}))
              for lhs, rhs, order in CLASSICAL]
    reports = {}

    def run(k):
        # every thread verifies every case, in its own order
        order = cases[k % len(cases):] + cases[:k % len(cases)]
        reports[k] = {case[:3]: verify_identity(*case[:3]) for case in order}

    # more threads than cores
    threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)   # interleave the verifications finely
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    expected = {case[:3]: case[3] for case in cases}
    assert reports == {k: expected for k in range(4)}


def test_the_reference_cache_drops_the_products_read_least_recently(monkeypatch):
    # forty verifications of distinct products at order 500, each reading
    # its own product and 1/(q;q) to 2,505 terms
    cases = [("slice(P(0,1)^-1*P(0,%d),5,4)" % k, "slice(P(0,1)^-1,5,4)")
             for k in range(2, 42)]
    keys = [progressions([((1, 1), -1), ((k, k), 1)]) for k in range(2, 42)]
    partition = progressions([((1, 1), -1)])

    def replay(case):
        return verify_identity(*case, 500), expand(case[0], 500)

    monkeypatch.setattr(etaram.eta, "_PRODUCT_CACHE", {})
    expected = [replay(case) for case in cases]
    # the default bound drops none of them
    assert set(etaram.eta._PRODUCT_CACHE) == set(keys) | {partition}
    # room for four such products
    bound = 4 * 2505 + 100
    monkeypatch.setattr(etaram.eta, "_PRODUCT_CACHE", {})
    monkeypatch.setattr(etaram.eta, "_held_terms", 0)
    monkeypatch.setattr(etaram.eta, "_PRODUCT_TERMS", bound)
    for case, key, want in zip(cases, keys, expected):
        assert replay(case) == want
        cache = etaram.eta._PRODUCT_CACHE
        assert sum(map(len, cache.values())) <= bound
        # this case read 1/(q;q), then its own product twice: both survive
        assert list(cache)[-2:] == [partition, key]
    assert list(cache) == [keys[-3], keys[-2], partition, keys[-1]]


@pytest.mark.parametrize("seed", range(8))
def test_parse_folds_every_drawn_monomial_into_one_node(seed):
    rng = random.Random(seed)
    for _ in range(25):
        text, c, s, factors = _random_monomial(rng, 7)
        assert etaram.exprs.parse(text) == (
            "mono", c, s, {(g % d, d): e for g, d, e in factors}), text


def test_a_sum_is_one_flat_node():
    q, p = ("mono", 1, 1, {}), ("mono", 1, 0, {(1, 5): 1})
    assert etaram.exprs.parse("q - P(6,5) + q") == ("sum", [(1, q), (-1, p), (1, q)])
    assert etaram.exprs.parse("(q - P(6,5))*q") == ("*", ("sum", [(1, q), (-1, p)]), q)


def test_a_nested_mix_matches_its_pochhammer_oracle():
    order = 40
    T = order + 5
    base = QSeries.monomial(-1, 1, T) + pochhammer(0, 1, T)
    oracle = -(base ** -2) * pochhammer(1, 5, T).shift(1).invert()
    got = expand("-(q^-1 + P(0,1))^-2/(P(1,5)*q)", order)
    assert got == oracle.truncated(order) and got.bound() == order


@pytest.mark.parametrize("text, message", [
    ("q^(1/0)", "q exponent 1/0 has a zero denominator"),
    ("q^(0/0)", "q exponent 0/0 has a zero denominator"),
    ("P(0,1)*q^(-3/-0)", "q exponent -3/0 has a zero denominator"),
    ("q^²", "unexpected character '²'"),
    ("q^٣", "unexpected character '٣'"),
    ("P(٣,5)", "unexpected character '٣'"),
    ("(" * 3000 + "q" + ")" * 3000, "expression nested too deeply"),
    ("*".join(["(1+q)"] * 3000), "expression nested too deeply"),
], ids=["one-over-zero", "zero-over-zero", "negative-over-zero", "superscript-two",
        "arabic-indic-three", "arabic-indic-residue", "deep-parentheses",
        "long-product-of-sums"])
def test_bad_input_is_a_parse_error(text, message):
    with pytest.raises(ParseError) as info:
        expand(text, 3)
    assert type(info.value) is ParseError and str(info.value) == message


def test_a_long_sum_expands():
    got = expand("+".join(["q"] * 3000), 3)
    assert got == QSeries.monomial(1, 3000, 3) and got.bound() == 3
    assert expand("-".join(["q"] * 3001), 3) == QSeries.monomial(1, -2999, 3)
