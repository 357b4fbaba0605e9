import dataclasses
import hashlib
import json
import random
import sys
import threading
from fractions import Fraction

import pytest

import etaram.reduction
from etaram.cusps import genus
from etaram.eta import GenEtaQuotient, PartitionSpec
from etaram.generators import Generator, generator_from_quotient, generators, sort_generators
from etaram.identities import derive_identity
from etaram.reduction import (
    BasisIncomplete, InsufficientTruncation, ModuleBasis, NotMember, VerificationFailure,
    _z_polynomial, express, module_basis,
)
from etaram.series import QSeries

OVERPARTITION = PartitionSpec(2, {1: -2, 2: 1})
PHI_PUBLISHED = GenEtaQuotient(10, a={10: 1}, ag={(10, 4): -8, (10, 5): 9})
H_PUBLISHED = GenEtaQuotient(10, a={1: 11, 2: -7, 5: -19, 10: 15},
                           ag={(5, 1): 12, (10, 1): -14})
H_ALT = GenEtaQuotient(10, a={1: 9, 2: -3, 5: -17, 10: 11},
                       ag={(5, 1): 16, (10, 1): -22})


def power_by_power(mb, length):
    """A reader (i, j) -> z^j e_i over mb's generators, known to length past
    its pole, in a dict of its own: e_i is the product its combination
    names, and z^j e_i is z^(j-1) e_i times z."""
    series = {}

    def generator(k):
        if k not in series:
            g = mb.gens[k]
            series[k] = g.expansion(length).truncated(length - g.pole)
        return series[k]

    def read(i, j):
        if (i, j) not in series:
            if j:
                out = read(i, j - 1) * generator(0)
            else:
                (mono, c), = mb.elements[i].combo.items()
                out = QSeries.one(length).scale(c)
                for k, e in enumerate(mono):
                    for _ in range(e):
                        out = out * generator(k)
            series[i, j] = out
        return series[i, j]
    return read


def pole_of(series):
    """Pole order of a series, or None when no pole is visible.

    Raises when the known range cannot even decide the sign of the order.
    """
    lead = series.leading()
    if lead is None:
        if series.bound() <= 0:
            raise InsufficientTruncation("series known to no terms")
        return None
    e, _ = lead
    if e >= 0:
        return None
    if e.denominator != 1:
        raise ValueError("pole order is not an integer: %s" % e)
    return -int(e)


def full_length_reduce(f, mb, length):
    """The leading-pole loop at full length, the oracle of express's
    search: ({(element index, z degree): coefficient}, remainder), each
    z^j e_i built power by power to length past its pole."""
    by_class = {e.pole % mb.n: i for i, e in enumerate(mb.elements)} if mb.gens else {}
    read = power_by_power(mb, length)
    coeffs = {}
    while True:
        p = pole_of(f)
        if p is None:
            return coeffs, f
        i = by_class.get(p % mb.n)
        if i is None or mb.elements[i].pole > p:
            if not mb.gens:
                raise NotMember("a pole of order %d over an empty basis" % p)
            raise NotMember("no basis element matches pole order %d" % p)
        j = (p - mb.elements[i].pole) // mb.n
        c = f.leading()[1]
        reduced = f - read(i, j).scale(c)
        p2 = pole_of(reduced)
        assert p2 is None or p2 < p
        coeffs[i, j] = c
        f = reduced


def full_length_express(f, mb, certify_to):
    """express as the full-length loop made it, one full-length product per
    z degree, the oracle of the windowed search."""
    lead = f.leading()
    pole0 = int(-lead[0]) if lead is not None and lead[0] < 0 else 0
    coeffs, rem = full_length_reduce(f, mb, certify_to + pole0 + 8)
    if rem.bound() <= 0:
        raise InsufficientTruncation("remainder undetermined at order zero")
    c0 = rem.coefficient(0)
    if c0:
        coeffs[0, 0] = coeffs.get((0, 0), Fraction(0)) + c0
        rem = rem - QSeries.monomial(0, c0, rem.bound())
    if rem.bound() < certify_to:
        raise InsufficientTruncation(
            "remainder known to %s, need %d" % (rem.bound(), certify_to))
    if not rem.is_known_zero():
        e, c = rem.leading()
        raise VerificationFailure("coefficient %s at q^%s survives the reduction" % (c, e))
    return {k: v for k, v in coeffs.items() if v}


def raised(call, *args):
    """(exception type, message) that call(*args) raises."""
    with pytest.raises(Exception) as info:
        call(*args)
    return type(info.value), str(info.value)


def overpartition_hF(h, terms):
    quot = PHI_PUBLISHED * h
    span = terms + 40
    return quot.expansion(span) * OVERPARTITION.slice_expansion(5, 2, span)


def test_basis_level_10_is_polynomial_ring():
    mb = module_basis(generators(10))
    assert len(mb.elements) == 1
    assert mb.n == 1
    z = mb.z.expansion(6)
    assert [z.coefficient(n) for n in range(-1, 3)] == [1, 2, 2, 1]


def test_basis_level_11_has_one_extra_element():
    mb = module_basis(generators(11))
    assert len(mb.elements) == 2
    assert mb.n == 2
    assert mb.elements[1].pole == 3
    e_published = GenEtaQuotient(11, a={1: 3, 11: -3},
                               ag={(11, 1): -5, (11, 2): -5, (11, 3): -4, (11, 4): -1})
    mb.ensure_terms(40)
    assert mb.element_series(1).agrees_with(e_published.expansion(40))


def test_monomial_recovery():
    mb = module_basis(generators(10))
    mb.ensure_terms(60)
    z5 = mb.monomial_series(0, 5)
    assert express(z5, mb, 30) == {(0, 5): 1}


def test_single_generator_gives_trivial_basis():
    mb = module_basis(generators(10)[:1])
    assert len(mb.elements) == 1 and mb.n == 1


def test_generators_reduce_to_zero_remainder():
    for N in [6, 10]:
        mb = module_basis(generators(N))
        mb.ensure_terms(80)
        for g in mb.gens:
            coeffs = express(g.expansion(80).truncated(80 - g.pole), mb, 40)
            assert coeffs  # spanned with zero remainder


def test_overpartition_reduction_published_h():
    mb = module_basis(generators(10))
    hF = overpartition_hF(H_PUBLISHED, 120)
    assert hF.denom == 1
    assert [hF.coefficient(n) for n in range(-3, 1)] == [4, 28, 56, 140]
    coeffs = express(hF.truncated(100), mb, 100)
    assert {j: c for (i, j), c in coeffs.items()} == {3: 4, 2: 4, 1: -32, 0: 32}


def test_overpartition_reduction_alternative_h():
    mb = module_basis(generators(10))
    hF = overpartition_hF(H_ALT, 120)
    coeffs = express(hF.truncated(100), mb, 100)
    expected = {7: 4, 6: -4, 5: -44, 4: 100, 3: -20, 2: -92, 1: 32, 0: 32}
    assert {j: c for (i, j), c in coeffs.items()} == expected


def test_round_trip_re_expansion():
    mb = module_basis(generators(10))
    hF = overpartition_hF(H_PUBLISHED, 80)
    coeffs = express(hF.truncated(70), mb, 70)
    mb.ensure_terms(90)
    total = QSeries.zero(70)
    for (idx, j), c in coeffs.items():
        term = mb.monomial_series(0, j) * mb.element_series(idx)
        total = total + term.scale(c).truncated(70)
    assert (hF.truncated(70) - total).truncated(70).is_known_zero()


def test_perturbed_series_fails_verification():
    mb = module_basis(generators(10))
    hF = overpartition_hF(H_PUBLISHED, 120)
    bad = hF + QSeries.monomial(5, 1, 120)
    with pytest.raises(VerificationFailure):
        express(bad.truncated(100), mb, 100)
    # the search and the full-length loop report the same survivor
    assert raised(express, bad.truncated(100), mb, 100) == raised(
        full_length_express, bad.truncated(100), mb, 100)


def test_non_member_pole_class():
    # at level 11 the pole classes are mod 2 with basis poles {0, 3}: a pole
    # of order 1 cannot be reduced
    mb = module_basis(generators(11))
    mb.ensure_terms(30)
    f = QSeries({-1: Fraction(1)}, 30)
    with pytest.raises(NotMember, match="^no basis element matches pole order 1$"):
        express(f, mb, 20)
    assert raised(express, f, mb, 20) == raised(full_length_express, f, mb, 20)


def test_basis_from_published_generator_fixture():
    # replacing the computed generators by the published quotients must not
    # change the derived polynomial
    published = [
        GenEtaQuotient(10, a={1: 1, 5: 1, 10: -2}, ag={(5, 1): -2, (10, 1): -1}),
        GenEtaQuotient(10, a={1: -1, 2: 2, 5: 1, 10: -2}, ag={(5, 1): 2, (10, 1): -4}),
        GenEtaQuotient(10, a={1: -1, 2: -1, 5: 3, 10: -1}, ag={(5, 1): 4, (10, 1): -3}),
        GenEtaQuotient(10, a={1: 1, 2: -2, 5: -1, 10: 2}, ag={(5, 1): 2, (10, 1): -4}),
        GenEtaQuotient(10, a={1: 4, 2: -3, 10: -1}, ag={(5, 1): 2, (10, 1): -4}),
    ]
    gens = sort_generators(generator_from_quotient(10, q) for q in published)
    mb = module_basis(gens)
    hF = overpartition_hF(H_PUBLISHED, 120)
    coeffs = express(hF.truncated(100), mb, 100)
    assert {j: c for (i, j), c in coeffs.items()} == {3: 4, 2: 4, 1: -32, 0: 32}


def _basis_json(N):
    """Canonical JSON of the level-N basis: each element's pole, then its
    sorted combination with string coefficients."""
    return json.dumps([[e.pole, [[list(mono), str(c)] for mono, c in sorted(e.combo.items())]]
                       for e in module_basis(generators(N)).elements],
                      separators=(",", ":"))


# SHA-256 of _basis_json(N): any change to an element's combination shows up
# here.  Levels 6-18 were pinned by a full closure that reduced every product
# of the basis with a generator, and level 20 by the genus-certified seeds
# before that closure was removed.  Levels 11, 14 and 15 have width 1, 13,
# 16 and 18 width 2, and 20 width 3.
BASIS_HASHES = {
    6: "30bd69c76dd09d3e93194f4fd5556db231cc89910a43effc6e27b1ef02997e4b",
    10: "422efb3b936bad669308fd2ca237e3949c364f7afe6b70548b5f58b5a8704c40",
    11: "b70a786004371d18e50ab7761d6247878ae7b80d389e8ef963a4d8b1eec27fe6",
    12: "b065e03ef5b675bfa4eae39faf95d477c6d784bde82de95a7ef823bd23e6a686",
    13: "39dae3b490cc635153eaedbb9d3d0046166c06f47c785003d6a67230e7393dfe",
    14: "32fc123d7f98b0762474cdcce38c4c444b2a84ed70d0335d1997fa2b41b049ae",
    15: "6075a2b6e00aa4fcdab9d3c78936c690eb93f031c076f6758a6519d3ccf38585",
    16: "b06a32a7cb644f0a9e43eb27bfb22cac7254fa4246c3fb1dba676a65b51e693a",
    18: "12efb6c839c05b95f196673faf0237d80e3fdaf97ade2b83d336ae92bd7c3dcf",
    20: "8a7a86a52ce9ea99af45a26015d29bd079f319b9d47af2895d6e14b148c2de7a",
}


@pytest.mark.parametrize("N", sorted(BASIS_HASHES))
def test_basis_elements_are_pinned(N):
    digest = hashlib.sha256(_basis_json(N).encode()).hexdigest()
    assert digest == BASIS_HASHES[N]


# every level up to 22 where generators(N) completes
CERTIFIED_LEVELS = list(range(2, 17)) + [18, 20]


@pytest.mark.parametrize("N", CERTIFIED_LEVELS)
def test_level_basis_is_its_seeds(N, monkeypatch):
    gens = generators(N)
    calls = []
    expansion, mul = GenEtaQuotient.expansion, QSeries.__mul__

    def counted_expansion(self, *args, **kw):
        calls.append("expansion")
        return expansion(self, *args, **kw)

    def counted_mul(self, other):
        calls.append("mul")
        return mul(self, other)

    monkeypatch.setattr(GenEtaQuotient, "expansion", counted_expansion)
    monkeypatch.setattr(QSeries, "__mul__", counted_mul)
    mb = module_basis(gens)
    monkeypatch.undo()
    assert not calls
    for e in mb.elements[1:]:
        (mono, c), = e.combo.items()
        assert c == 1 and sorted(mono) == [0] * (len(mono) - 1) + [1]
        assert e.pole == gens[mono.index(1)].pole
    assert sum((e.pole - e.pole % mb.n) // mb.n for e in mb.elements) == genus(N)


def test_pruned_generators_raise():
    # without the pole-3 generators the level-11 seeds (poles 2 and 5) miss
    # two pole orders, one more than the genus of X1(11)
    gens = tuple(g for g in generators(11) if g.pole != 3)
    with pytest.raises(BasisIncomplete, match="^level 11: the seeds miss 2 pole orders, "
                                              "above the genus 1$"):
        module_basis(gens)


def test_unseeded_pole_class_raises():
    # the level-11 generators of even pole leave class 1 (mod 2) empty
    gens = tuple(g for g in generators(11) if g.pole % 2 == 0)
    assert gens[0].pole == 2
    with pytest.raises(BasisIncomplete, match="^level 11 \\(genus 1\\): no generator seeds "
                                              "pole class 1 mod 2$"):
        module_basis(gens)


def test_empty_basis_expresses_a_constant():
    mb = module_basis(())
    assert mb.elements[0].combo == {(): 1}
    assert express(QSeries.one(40).scale(Fraction(7, 3)), mb, 30) == {(0, 0): Fraction(7, 3)}


def test_empty_basis_rejects_a_pole():
    mb = module_basis(())
    f = QSeries({-1: Fraction(1), 0: Fraction(2)}, 30)
    with pytest.raises(NotMember, match="^a pole of order 1 over an empty basis$"):
        express(f, mb, 20)
    assert raised(express, f, mb, 20) == raised(full_length_express, f, mb, 20)


def test_genus_above_the_gap_count_raises(monkeypatch):
    # the level-11 seeds (poles 2 and 3) miss only the pole order 1
    monkeypatch.setattr(etaram.reduction, "genus", lambda N: 2)
    with pytest.raises(AssertionError, match="below the genus 2"):
        module_basis(generators(11))


def test_genus_below_the_gap_count_raises(monkeypatch):
    # the level-11 seeds (poles 2 and 3) miss the pole order 1
    monkeypatch.setattr(etaram.reduction, "genus", lambda N: 0)
    with pytest.raises(BasisIncomplete, match="^level 11: the seeds miss 1 pole orders, "
                                              "above the genus 0$"):
        module_basis(generators(11))


def test_built_basis_is_immutable():
    mb = module_basis(generators(11))
    assert isinstance(mb.elements, tuple)
    for name in ("gens", "n", "elements"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(mb, name, getattr(mb, name))


def test_unused_generator_is_expanded_once_for_concurrent_readers(monkeypatch):
    # two threads read e_1 of level 11 from an emptied store: the store must
    # expand its generator once and keep it
    mb = dataclasses.replace(module_basis(generators(11)), _store=(60, {}))
    terms, series = mb._store
    g = mb.gens[mb.elements[1].gen]
    expansions = []
    expand = Generator.expansion

    # the spy sits on the class: one set on the cached record would leave a
    # bound method in its __dict__ after the undo, hiding the record from
    # any later spy on the class
    def counted(self, length):
        if self is g:
            expansions.append(length)
        return expand(self, length)

    monkeypatch.setattr(Generator, "expansion", counted)
    barrier = threading.Barrier(2)
    results = []

    def read():
        barrier.wait()
        results.append(mb.monomial_series(1, 0))

    threads = [threading.Thread(target=read) for _ in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert len(results) == 2 and results[0] == results[1]
    assert expansions == [terms + g.pole + 2]
    assert results[0] == expand(g, terms + g.pole + 2).truncated(terms - g.pole)
    assert mb._store[1] is series and list(series) == [(1, 0)]
    monkeypatch.undo()
    assert "expansion" not in vars(g)


def test_store_is_keyed_by_element_and_z_degree():
    # a derivation at level 13 (125 generators) stores each z^j e_i under
    # (i, j), beside the giant-step power, and no key as wide as the list
    ident = derive_identity(PartitionSpec(1, {1: -1}), 13, 6)
    assert ident.status == "Derived" and ident.N == 13
    assert len(ident.basis.gens) == 125
    keys = list(ident.basis._store[1])
    assert (0, 1) in keys
    for key in keys:
        assert (len(key) == 2 and all(type(x) is int for x in key)
                or key[0] == "giant"), key


# {z degree: coefficient}: degree 0, degree 1, d + 1 a square (b = 3 and 4),
# a middle chunk of zeros (d = 8, b = 3), a lone top term, Fractions
Z_POLYNOMIALS = {
    "degree-0": {0: 3},
    "degree-1": {0: 1, 1: -2},
    "square-8": {j: j * j - 7 for j in range(9)},
    "square-15": {j: (-1) ** j * (j + 1) for j in range(16)},
    "sparse-middle": {0: 5, 1: -1, 2: 4, 6: 2, 8: -3},
    "top-only": {11: 7},
    "fractions": {0: Fraction(1, 3), 2: Fraction(-5, 7), 3: Fraction(9, 2),
                  7: Fraction(-1, 6)},
}


@pytest.mark.parametrize("label", sorted(Z_POLYNOMIALS))
def test_z_polynomial_equals_the_power_by_power_sum(label, monkeypatch):
    terms = 60
    mb = dataclasses.replace(module_basis(generators(11)), _store=(terms, {}))
    poly = {j: Fraction(c) for j, c in Z_POLYNOMIALS[label].items()}
    read = power_by_power(mb, terms)
    powers = [read(0, j).scale(c) for j, c in sorted(poly.items())]
    expected = sum(powers[1:], powers[0])

    products = []
    mul = QSeries.__mul__

    def counted(self, other):
        products.append(other)
        return mul(self, other)

    monkeypatch.setattr(QSeries, "__mul__", counted)
    got = _z_polynomial(poly, lambda j: mb.monomial_series(0, j))
    monkeypatch.undo()
    assert got == expected
    d = max(Z_POLYNOMIALS[label])
    b = next(b for b in range(1, d + 2) if b * b >= d + 1)
    # b powers of z at most, and one Horner step per chunk below the top
    assert len(products) <= b + (d + 1 + b - 1) // b - 1


def drawn_series(mb, coeffs, terms):
    """sum c z^j e_i over coeffs {(i, j): c}, each z^j e_i built power by
    power in a store of this call's own, known to terms."""
    pole = max((j * mb.n + mb.elements[i].pole for i, j in coeffs), default=0)
    read = power_by_power(mb, terms + pole + 8)
    total = QSeries.zero(terms)
    for (i, j), c in sorted(coeffs.items()):
        total = total + read(i, j).scale(c)
    return total


# widths 0 (level 10, n = 1), 1 (level 11, n = 2, largest element pole 3)
# and 2 (levels 13 and 16, n = 3, largest element pole 5): past width 0 a
# term of a lower chunk can sit above the giant step, which the overlap of
# the baby steps covers
@pytest.mark.parametrize("N", [10, 11, 13, 16])
def test_search_returns_the_drawn_coefficients(N):
    rng = random.Random(N)
    mb, oracle = module_basis(generators(N)), module_basis(generators(N))
    for _ in range(10):
        degree = rng.choice([0, 1, 2, 5, 9, 16, 30, 45])
        density = rng.choice([0.2, 0.6, 1.0])
        coeffs = {(i, j): Fraction(rng.randint(-60, 60), rng.choice([1, 1, 1, 2, 7]))
                  for i in range(len(mb.elements)) for j in range(degree + 1)
                  if rng.random() < density}
        coeffs = {k: c for k, c in coeffs.items() if c}
        certify_to = rng.randint(20, 70)
        f = drawn_series(mb, coeffs, certify_to + rng.randint(0, 6))
        got = express(f, mb, certify_to)
        assert got == coeffs, (N, degree)
        assert full_length_express(f, oracle, certify_to) == coeffs, (N, degree)
        # and the right-hand side it returns is f, to certify_to
        assert (f - got.series).truncated(certify_to).is_known_zero()
        assert got.series.bound() == certify_to


def exception_cases():
    """label -> (f, basis, certify_to) that express rejects."""
    level10, level11 = module_basis(generators(10)), module_basis(generators(11))
    z10 = drawn_series(level10, {(0, 6): 1, (0, 2): -3}, 80)
    z11 = drawn_series(level11, {(0, 20): 1, (1, 15): 2, (1, 3): 5}, 90)
    # the level-11 generators with the odd pole class left out of the basis
    odd_less = ModuleBasis(level11.gens, level11.n, level11.elements[:1], _store=(48, {}))
    return {
        "survivor": (z10 + QSeries.monomial(7, 3, 80), level10, 60),
        "survivor-of-a-width-1-basis": (z11 + QSeries.monomial(3, -2, 90), level11, 60),
        "pole-of-no-class-in-chunk-0": (z11 + QSeries.monomial(-1, 1, 90), level11, 60),
        "pole-of-no-class-in-a-high-chunk": (z11, odd_less, 60),
        "short-remainder": (z10.truncated(30), level10, 50),
        "known-to-no-order": (QSeries({-3: Fraction(1)}, 0), level10, 20),
        "pole-of-fractional-order": (QSeries({-6: Fraction(1), -3: Fraction(2)}, 200, 2),
                                     level10, 60),
        "empty-basis": (QSeries({-2: Fraction(1)}, 30), module_basis(()), 20),
    }


@pytest.mark.parametrize("label", [
    "survivor", "survivor-of-a-width-1-basis", "pole-of-no-class-in-chunk-0",
    "pole-of-no-class-in-a-high-chunk", "short-remainder", "known-to-no-order",
    "pole-of-fractional-order", "empty-basis"])
def test_search_raises_as_the_full_length_loop(label):
    f, mb, certify_to = exception_cases()[label]
    got = raised(express, f, mb, certify_to)
    assert got == raised(full_length_express, f, mb, certify_to)
    assert got[0] in (NotMember, VerificationFailure, InsufficientTruncation, ValueError)
