import dataclasses
import hashlib
import inspect
import itertools
import json
import random
import re
import sys
import threading
from fractions import Fraction
from math import gcd

import pytest

import etaram.eta
import etaram.exprs
import etaram.identities
import etaram.lattice
import etaram.modularity
import etaram.reduction

from etaram.cusps import INFINITY, cusp_set, width
from etaram.eta import GenEtaQuotient, PartitionSpec, bernoulli_p2
from etaram.exprs import ParseError, expand, parse
from etaram.generators import Generator, generators
from etaram.identities import (
    DeriveOptions, Identity, NoHFound, _independent_check, derive_identity, dissect,
    find_multiplier, verify_identity,
)
from etaram.modularity import find_level, find_prefactor
from etaram.cusps import cusp_order_bounds
from etaram.reduction import ModuleBasis, VerificationFailure
from etaram.series import QSeries

OVERPARTITION = PartitionSpec(2, {1: -2, 2: 1})
PARTITION = PartitionSpec(1, {1: -1})
PHI_PUBLISHED = GenEtaQuotient(10, a={10: 1}, ag={(10, 4): -8, (10, 5): 9})


# -- expression language -------------------------------------------------------

def test_expand_basics():
    s = expand("P(0,1)^-1", 10)
    assert [s.coefficient(n) for n in range(6)] == [1, 1, 2, 3, 5, 7]
    s = expand("q^-2 * (1 + q)^2", 6)
    assert s.coefficient(-2) == 1 and s.coefficient(-1) == 2 and s.coefficient(0) == 1
    s = expand("q^(1/2)", 3)
    assert s.coefficient(Fraction(1, 2)) == 1


def test_expand_slice():
    s = expand("slice(P(0,1)^-1, 5, 4)", 6)
    assert s.coefficient(0) == 5
    assert s.coefficient(1) == 30


def test_expression_precedence_and_division():
    assert expand("2 + 3 * 4", 2).coefficient(0) == 14
    assert expand("(1 - q) / (1 - q)", 8).agrees_with(expand("1", 8))
    assert expand("1 / (1 - q)", 8).coefficient(5) == 1


def test_parse_errors():
    for bad in ["P(1)", "q^^2", "1 +", "(1", "foo(2)", "P(1,2) P(3,4)"]:
        with pytest.raises(ParseError):
            parse(bad)


# -- multiplier search ---------------------------------------------------------

def test_find_multiplier_overpartition():
    N = 10
    gens = generators(N)
    bounds = cusp_order_bounds(OVERPARTITION, 5, 2, PHI_PUBLISHED, N)
    h, powers = find_multiplier(bounds, gens, N)
    # the product with the published prefactor is the published multiplier * phi
    combined = PHI_PUBLISHED * h
    published = PHI_PUBLISHED * GenEtaQuotient(
        10, a={1: 11, 2: -7, 5: -19, 10: 15},
        ag={(5, 1): 12, (10, 1): -14})
    assert combined.expansion(40).agrees_with(published.expansion(40))
    # the achieved order of hF at infinity is the published -3
    hF = combined.expansion(40) * OVERPARTITION.slice_expansion(5, 2, 40)
    assert hF.leading()[0] == -3


def test_find_multiplier_trivial_when_no_finite_poles():
    N = 1
    spec = PARTITION
    phi = find_prefactor(spec, 1, 0, 1)
    gens = generators(10)
    bounds = {d.cusp: Fraction(0) for d in cusp_set(10)}
    h, powers = find_multiplier(bounds, gens, 10)
    assert h.is_one()
    assert not any(powers)


# -- full derivations -----------------------------------------------------------

def test_derive_overpartition_5n2():
    ident = derive_identity(OVERPARTITION, 5, 2, DeriveOptions(order=100))
    assert ident.status == "Derived"
    assert ident.N == 10
    assert {j: c for (i, j), c in ident.rhs.items()} == {3: 4, 2: 4, 1: -32, 0: 32}
    assert ident.certified_to >= 100


def test_derive_overpartition_5n3():
    ident = derive_identity(OVERPARTITION, 5, 3, DeriveOptions(order=100))
    assert ident.status == "Derived"
    assert {j: c for (i, j), c in ident.rhs.items()} == {3: 8, 2: -12, 1: 16, 0: -16}


def test_derived_slice_matches_counts(monkeypatch):
    ident = derive_identity(OVERPARTITION, 5, 2, DeriveOptions(order=60))

    def forbidden(self):
        raise AssertionError("slice_series inverted a series")

    # the prefactor's inverse is expanded as a quotient of its own
    monkeypatch.setattr(QSeries, "invert", forbidden)
    s = ident.slice_series(10)
    # overpartition counts 4, 12, 28, ... at 5n+2
    direct = OVERPARTITION.product_expansion(50)
    for n in range(9):
        assert s.coefficient(n) == direct.coefficient(5 * n + 2)


def test_congruence_extraction():
    ident = derive_identity(OVERPARTITION, 5, 2, DeriveOptions(order=60))
    u = ident.congruence_modulus()
    assert u % 4 == 0
    s = ident.slice_series(40)
    assert all(s.coefficient(n) % u == 0 for n in range(40))


def test_trivial_dissection():
    out = dissect(PARTITION, 1, DeriveOptions(order=40))
    assert [i.status for i in out] == ["Derived"]
    s = out[0].slice_series(20)
    direct = PARTITION.product_expansion(20)
    for n in range(20):
        assert s.coefficient(n) == direct.coefficient(n)


@pytest.mark.parametrize("m", [0, -1])
def test_dissection_needs_a_positive_modulus(m):
    with pytest.raises(ValueError, match="need m >= 1"):
        dissect(PARTITION, m)


def test_rogers_ramanujan_dissection():
    RR = PartitionSpec(5, rg={(5, 1): -1, (5, 2): 1})
    out = dissect(RR, 2, DeriveOptions(order=80))
    assert [i.status for i in out] == ["Derived", "Derived"]
    even = out[0].slice_series(60)
    published_even = expand("P(4,10)^2*P(6,10)^2 / (P(3,10)*P(7,10)*P(5,10)^2)", 60)
    assert even.agrees_with(published_even)
    odd = out[1].slice_series(60)
    published_odd = expand("P(1,10)*P(9,10)*P(4,10)*P(6,10) / (P(2,10)*P(8,10)*P(5,10)^2)", 60)
    assert odd.agrees_with(published_odd)


def test_verify_identity_pass_and_fail():
    ok, _ = verify_identity("slice(P(0,1)^-1, 5, 4)",
                            "5 * P(0,5)^5 * P(0,1)^-6", 80)
    assert ok
    ok, report = verify_identity("slice(P(0,1)^-1, 5, 4)",
                                 "5 * P(0,5)^5 * P(0,1)^-6 + q^3", 80)
    assert not ok
    assert report["exponent"] == "3"


def test_verify_identity_compares_to_the_full_order(monkeypatch):
    # the pole of q^-2 must not leave the product known only to q^28
    ok, report = verify_identity("(q^-2 + 1)*P(0,2)^3", "(q^-2+1)*P(0,2)^3 + q^29", 30)
    assert not ok and report["exponent"] == "29" and report["difference"] == "-1"
    full = etaram.exprs.expand
    monkeypatch.setattr(etaram.exprs, "expand",
                        lambda text, order: full(text, order).truncated(order - 2))
    with pytest.raises(VerificationFailure, match=r"known only to q\^28, need 30$"):
        verify_identity("P(0,1)", "P(0,1)", 30)


def test_identity_json_is_deterministic():
    a = derive_identity(OVERPARTITION, 5, 2, DeriveOptions(order=60)).to_json()
    b = derive_identity(OVERPARTITION, 5, 2, DeriveOptions(order=60)).to_json()
    assert json.dumps(a) == json.dumps(b)
    assert a["status"] == "Derived"
    assert a["m"] == 5 and a["t"] == 2 and a["N"] == 10
    assert ["spec", "m", "t", "N", "phi", "h", "z", "basis", "rhs",
            "certified_to", "status"] == list(a)


SINGULAR = PartitionSpec(6, {1: -1, 3: 1}, {(3, 1): -1, (6, 2): 1})
ROGERS_RAMANUJAN = PartitionSpec(5, rg={(5, 1): -1, (5, 2): 1})
ROGERS_RAMANUJAN_INVERSE = PartitionSpec(5, rg={(5, 1): 1, (5, 2): -1})
DIAMOND = PartitionSpec(10, {1: -3, 2: 1, 5: 1, 10: -1})

# (spec, m, t, order) of each pinned document: the benchmark corpus (the
# Rogers-Ramanujan pairs are the residues dissect derives), both broken
# diamonds and p(13n+6), all at the orders the benchmark derives them at
DOCUMENT_CASES = {
    "over-5n+2": (OVERPARTITION, 5, 2, 100),
    "over-5n+3": (OVERPARTITION, 5, 3, 100),
    "p-5n+4": (PARTITION, 5, 4, 100),
    "singular-9n+3": (SINGULAR, 9, 3, 100),
    "singular-9n+6": (SINGULAR, 9, 6, 100),
    "p-11n+6": (PARTITION, 11, 6, 150),
    "rogers-ramanujan-2n+0": (ROGERS_RAMANUJAN, 2, 0, 100),
    "rogers-ramanujan-2n+1": (ROGERS_RAMANUJAN, 2, 1, 100),
    "rogers-ramanujan-inverse-2n+0": (ROGERS_RAMANUJAN_INVERSE, 2, 0, 100),
    "rogers-ramanujan-inverse-2n+1": (ROGERS_RAMANUJAN_INVERSE, 2, 1, 100),
    "diamond-25n+14": (DIAMOND, 25, 14, 0),
    "diamond-25n+24": (DIAMOND, 25, 24, 0),
    "p-13n+6": (PARTITION, 13, 6, 0),
    "p-125n+99": (PARTITION, 125, 99, 0),
    "p-2n+0": (PARTITION, 2, 0, 0),
    "p-2n+1": (PARTITION, 2, 1, 0),
    "eta4-2n+0": (PartitionSpec(1, {1: 4}), 2, 0, 0),
    "level4-4n+1": (PartitionSpec(4, {1: -4, 2: 2, 4: -4}), 4, 1, 0),
}
# SHA-256 of json.dumps(derive_identity(...).to_json()): a change of phi, h,
# the basis or the right-hand side of any pinned document shows up here
DOCUMENT_HASHES = {
    "over-5n+2": "22e572ead664e6d60a1cf6d32995b1316696b7c9419389d09be3c759a5dd20ec",
    "over-5n+3": "2f827d55bf2fa8847929b6dbbec3dcec244de22cde4c88074c27624083072b71",
    "p-5n+4": "449a5f703bdef7e9bcb41b8b820bceef456800eaaf753b5dd8215858697dd675",
    "singular-9n+3": "858fc4c72c4c616bd3a61f199ed4454219d9ce846c9a4e3459e1cd08954c6c8e",
    "singular-9n+6": "70687088f600338d6ee3411d623d66524a9891b4d1b2a45bc95ef94eda9e69d9",
    "p-11n+6": "3aeb4d71bf2c970ba60183254155444b43914401c997567231f8f39af8e4d7fa",
    "rogers-ramanujan-2n+0":
        "bd8319baf199155198f1421fb4354400e8b2574a73fe4ae30df26f9cc7bc9343",
    "rogers-ramanujan-2n+1":
        "15758e14e6f91f271e3362f57eab5068e05bcfef236f9ff57350f5a91f63e7e9",
    "rogers-ramanujan-inverse-2n+0":
        "f90ddeda7e65ad5ab0e249c3c29b5e077f9c1688994348e458649fa773967479",
    "rogers-ramanujan-inverse-2n+1":
        "77c2b72b2c4f4f2585c5a8a4da67df6a4cfa452721676e7432f3b9df9e10243e",
    "diamond-25n+14": "212872f0e1a6a8632ec600d8cd8690ed74e0b7c7aa0d0daab92a7ce2c54f5318",
    "diamond-25n+24": "3413dde62e8bb4019952b3d0ec417550376877d906a66668bc657981b6c63758",
    "p-13n+6": "7a54ef0d5993f96cf15fa7c249449f206285f2f31f83afac637c220d7a098c30",
    # level 25; the one document whose series products reach libmpdec
    "p-125n+99": "8ad444d7bebf30f48d7121905d1543945509f65416f2b1026efe28530c1a20bd",
    "p-2n+0": "4f32e79d5949de77231d667659eafd2664ed7f5cae50d0c0ab15df2fc9d039bb",
    "p-2n+1": "609ee1f081dc72af817ed4347b4ef03762169578d4dde004e85f9018ac4825ca",
    # two level-4 derivations, whose bounds meet the irregular cusp 1/2
    "eta4-2n+0": "5895114e94b2ea4dcd45e47e2163aac83ae7c5969de36422699d839b1e369dec",
    "level4-4n+1": "f826863cb584b792d37cf7a6fc6651d14f96e35f787a5eeecde16fe6f11c12ea",
}
# p(13n+6) takes about half a second cold on a 2-vCPU machine, p(125n+99)
# (a 20,000-term partition product) about two seconds and p(2n), p(2n+1)
# (level 16, whose multiplier lifts against 278 lineality vectors of 295
# entries) a few seconds each, so their pins run in the slow lane; both
# diamonds together take about 0.7 s there
SLOW_DOCUMENTS = ("p-13n+6", "p-125n+99", "p-2n+0", "p-2n+1")


@pytest.mark.parametrize("label", [pytest.param(label, marks=pytest.mark.slow)
                                   if label in SLOW_DOCUMENTS else label
                                   for label in DOCUMENT_CASES])
def test_identity_documents_are_pinned(label):
    spec, m, t, order = DOCUMENT_CASES[label]
    ident = derive_identity(spec, m, t, DeriveOptions(order=order))
    assert ident.status == "Derived"
    digest = hashlib.sha256(json.dumps(ident.to_json()).encode()).hexdigest()
    assert digest == DOCUMENT_HASHES[label]



def test_document_multipliers_never_reach_the_slack_completion(monkeypatch):
    # every non-slow pinned document's multiplier system projects to a
    # full-rank lattice, so its Hilbert basis comes from one zero-sum walk
    def forbidden(*args, **kwargs):
        raise AssertionError("a multiplier system reached the slack completion")

    walks, per_multiplier = [], []
    real_walk = etaram.lattice.minimal_zero_sum_sequences
    real_basis = etaram.identities.hilbert_basis

    def walk(*args, **kwargs):
        walks.append(args)
        return real_walk(*args, **kwargs)

    def basis(*args, **kwargs):
        start = len(walks)
        result = real_basis(*args, **kwargs)
        per_multiplier.append(len(walks) - start)
        return result

    monkeypatch.setattr(etaram.lattice, "minimal_nonneg_solutions", forbidden)
    monkeypatch.setattr(etaram.lattice, "minimal_zero_sum_sequences", walk)
    monkeypatch.setattr(etaram.identities, "hilbert_basis", basis)
    labels = [label for label in DOCUMENT_CASES if label not in SLOW_DOCUMENTS]
    for label in labels:
        spec, m, t, order = DOCUMENT_CASES[label]
        assert derive_identity(spec, m, t, DeriveOptions(order=order)).status == "Derived", label
    assert per_multiplier == [1] * len(labels)


# overpartition 5n+2 at order 1,700 reads an 8,560-term product, past every
# pinned case above; the transform expands it, and its hash is the one the
# document had while a multi-factor fast route expanded that product
LONG_OVERPARTITION_HASH = "3f1d774528d4364f7246ef199ba3d1c5587a5708d8e724daaf408c634f68f236"


def test_long_overpartition_document_is_pinned(monkeypatch):
    monkeypatch.setattr(etaram.eta, "_PRODUCT_CACHE", {})
    expanded, certified, transformed = spy_product_routes(monkeypatch)
    ident = derive_identity(OVERPARTITION, 5, 2, DeriveOptions(order=1700))
    assert ident.status == "Derived"
    digest = hashlib.sha256(json.dumps(ident.to_json()).encode()).hexdigest()
    assert digest == LONG_OVERPARTITION_HASH
    key = etaram.eta._spec_progressions(OVERPARTITION.r, OVERPARTITION.rg)
    assert len(etaram.eta._PRODUCT_CACHE[key]) == 8560 and 8560 in transformed
    assert expanded == certified == []


def test_multiplier_at_level_one_is_trivial():
    # level 1 has no finite cusp, so the multiplier's system has no row
    assert find_multiplier({}, generators(1), 1) == (GenEtaQuotient(1), ())


# the level-4 documents as they read while the order at the irregular cusp
# 1/2 was counted twice over (SHA-256 b5836b59... and 6d75062b...)
LEVEL4_BEFORE = {
    "eta4-2n+0": {"phi": {"1": 2, "2": -10, "4": 4}, "h": {},
                  "z": {"1": -4, "2": 20, "4": -16, "4/1": -4},
                  "rhs": [[0, 0, "1"]], "certified_to": "50"},
    "level4-4n+1": {"phi": {"1": 6, "2": -8, "4": 8},
                    "h": {"1": 10, "2": 6, "4": -16, "4/1": 6},
                    "z": {"1": -4, "2": 20, "4": -16, "4/1": -4},
                    "rhs": [[0, 0, "64"], [0, 1, "4"]], "certified_to": "52"},
}


@pytest.mark.parametrize("label", sorted(LEVEL4_BEFORE))
def test_level4_documents_moved_only_in_presentation(label):
    spec, m, t, order = DOCUMENT_CASES[label]
    doc = derive_identity(spec, m, t, DeriveOptions(order=order)).to_json()
    before = LEVEL4_BEFORE[label]
    for key in ("phi", "rhs", "certified_to"):
        assert doc[key] == before[key], key
    for key in ("z", "h"):
        old = GenEtaQuotient.from_json(4, before[key]).expansion(200)
        new = GenEtaQuotient.from_json(4, doc[key]).expansion(200)
        diff = new - old
        assert diff.is_known_zero() and diff.bound() == old.bound(), key


def _level4_progressions(seed, count):
    """(spec, m, t) whose found level is 4: M in {1, 2, 4}, at most one
    generalized key, m in {2, 3, 4, 6, 8}."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        M = rng.choice([1, 2, 4])
        ds = [d for d in range(1, M + 1) if M % d == 0]
        r = {d: rng.randint(-4, 4) for d in rng.sample(ds, rng.randint(1, len(ds)))}
        keys = [(d, g) for d in ds for g in range(1, d // 2 + 1)]
        rg = {k: rng.randint(-2, 2) for k in rng.sample(keys, rng.randint(0, min(1, len(keys))))}
        spec = PartitionSpec(M, r, rg)
        m = rng.choice([2, 3, 4, 6, 8])
        t = rng.randrange(m)
        if find_level(spec, m, t) == 4:
            out.append((spec, m, t))
    return out


def _order_by_exponents(q, cusp):
    """Order of a level-4 quotient at the cusp a/c written out: the cusp's
    width times the least q-exponent of q's plain and generalized factors."""
    a, c = cusp.a, cusp.c
    total = Fraction(0)
    for d, e in q.a.items():
        gg = gcd(d, c)
        total += Fraction(gg * gg, 24 * d) * e
    for (d, g), e in q.ag.items():
        gg = gcd(d, c)
        total += Fraction(gg * gg, 2 * d) * bernoulli_p2(Fraction(a * g, gg)) * e
    return width(4, cusp) * total


def test_level4_multipliers_clear_every_finite_pole():
    # orders and bounds in one unit at the irregular cusp 1/2: h lifts every
    # finite order of hF above -1, its divisor has degree 0, and no power
    # vector in a box around it clears the poles with a higher order of hF
    # at infinity
    cases = _level4_progressions(5, 30)
    assert len({(json.dumps(spec.to_json()), m, t) for spec, m, t in cases}) >= 20
    cusps = [data.cusp for data in cusp_set(4)]
    gen_orders = [[_order_by_exponents(g.quotient, c) for c in cusps] for g in generators(4)]

    def orders(powers):
        return {c: sum(t * row[i] for t, row in zip(powers, gen_orders))
                for i, c in enumerate(cusps)}

    def clears(bounds, powers):
        return all(bounds[c] + o > -1 for c, o in orders(powers).items() if not c.is_infinity)

    box = list(itertools.product(range(-3, 4), repeat=len(gen_orders)))
    nontrivial = 0
    for spec, m, t in cases:
        ident = derive_identity(spec, m, t)
        assert ident.status == "Derived", (spec, m, t, ident.failure)
        bounds = cusp_order_bounds(spec, m, t, ident.phi, 4)
        h_orders = {c: _order_by_exponents(ident.h, c) for c in cusps}
        assert h_orders == orders(ident.h_powers), (spec, m, t)
        assert sum(h_orders.values()) == 0, (spec, m, t)
        assert clears(bounds, ident.h_powers), (spec, m, t)
        best = max(orders(p)[INFINITY] for p in box if clears(bounds, p))
        assert h_orders[INFINITY] == best, (spec, m, t)
        nontrivial += any(ident.h_powers)
    assert nontrivial >= 10


def test_classical_progressions_beyond_the_pinned_corpus():
    # hF collapses to the constant 5: the classical p(5n+4) evaluation
    i54 = derive_identity(PARTITION, 5, 4, DeriveOptions(order=80))
    assert i54.status == "Derived" and i54.N == 5
    assert {j: c for (i, j), c in i54.rhs.items()} == {0: 5}
    assert i54.slice_series(50).agrees_with(expand("5 * P(0,5)^5 * P(0,1)^-6", 50))
    # a witness for the mod-7 congruence
    i75 = derive_identity(PARTITION, 7, 5, DeriveOptions(order=80))
    assert i75.status == "Derived" and i75.N == 7
    assert i75.congruence_modulus() % 7 == 0


def test_derivation_expands_only_the_generators_the_basis_uses(monkeypatch):
    etaram.identities.level_basis.cache_clear()
    expanded = []
    real = Generator.expansion
    monkeypatch.setattr(Generator, "expansion",
                        lambda self, terms: expanded.append(self) or real(self, terms))
    ident = derive_identity(PARTITION, 11, 6)
    assert ident.status == "Derived"
    mb = etaram.identities.level_basis(11)
    # z and e_1, each once: the independent check read the store reduction
    # filled, and added none
    assert expanded == [mb.gens[0], mb.gens[mb.elements[1].gen]]
    assert (0, 1) in mb._store[1] and (1, 0) in mb._store[1]


def test_derivations_never_reach_the_slack_completion(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a derivation reached the slack completion")

    monkeypatch.setattr(etaram.lattice, "minimal_nonneg_solutions", forbidden)
    # find_multiplier runs its Hilbert basis in every derivation
    assert derive_identity(OVERPARTITION, 5, 2, DeriveOptions(order=60)).status == "Derived"
    assert derive_identity(PARTITION, 11, 6).status == "Derived"


def test_level_32_fails_at_its_generators():
    ident = derive_identity(PARTITION, 4, 0)
    assert ident.status == "Failed"
    assert ident.failure.startswith("generators: group of order 44697600 exceeds")
    # the level passed its checks, so the failure keeps it
    assert ident.N == 32 and ident.to_json()["N"] == 32


def test_failure_is_reported_not_raised():
    ident = derive_identity(OVERPARTITION, 5, 2,
                            DeriveOptions(order=40, phi_weight=1))
    assert ident.status == "Failed"
    assert "prefactor" in ident.failure
    assert ident.N == 10 and ident.to_json()["N"] == 10


def test_failure_at_the_level_stage_keeps_no_level():
    # 5 does not divide the asked level 3, so its checks fail and no level
    # is kept
    ident = derive_identity(PARTITION, 5, 4, DeriveOptions(N=3))
    assert ident.failure == "level: level 3 fails: ['primes of m divide N']"
    assert ident.N == 0 and ident.to_json()["N"] == 0


def test_independent_check_rejects_a_perturbed_identity():
    ident = derive_identity(OVERPARTITION, 5, 2, DeriveOptions(order=100))
    assert ident.status == "Derived"
    lhs = ident.lhs_series(ident.certified_to)
    _independent_check(ident, lhs, ident.certified_to)
    bad = dataclasses.replace(ident, rhs=dict(ident.rhs))
    bad.rhs[(0, 1)] += 1
    # the extra z term first shows at the pole of z
    first = -ident.basis.z.pole
    with pytest.raises(VerificationFailure,
                       match=re.escape("differs at q^%d" % first) + "$"):
        _independent_check(bad, lhs, bad.certified_to)


def test_an_identity_changed_in_place_is_checked_afresh():
    # the held right-hand side serves only the coefficients it was built from
    ident = derive_identity(OVERPARTITION, 5, 2, DeriveOptions(order=100))
    assert ident.status == "Derived"
    lhs = ident.lhs_series(ident.certified_to)
    ident.rhs[(0, 1)] += 1
    with pytest.raises(VerificationFailure,
                       match=re.escape("differs at q^%d" % -ident.basis.z.pole) + "$"):
        _independent_check(ident, lhs, ident.certified_to)


def test_reference_check_never_trusts_the_fast_route(monkeypatch):
    ident = derive_identity(PARTITION, 5, 4, DeriveOptions(order=60))
    clean = ident.rhs_series(60)
    # every product and basis series is forgotten, every partition product
    # is sent to the fast route, and every fast-route expansion is spoiled
    # in its constant term
    monkeypatch.setattr(etaram.eta, "_PRODUCT_CACHE", {})
    monkeypatch.setattr(etaram.eta, "_FAST_TERMS", 0)
    ident = dataclasses.replace(ident, basis=dataclasses.replace(ident.basis, _store=(0, {})))
    verdicts, transforms = [], []
    certify, transform = etaram.eta.certify_product, etaram.eta.euler_transform
    honest = etaram.eta._product_expansion
    partitions = (((1, 1), -1),)
    monkeypatch.setattr(etaram.eta, "certify_product",
                        lambda f, c: verdicts.append(certify(f, c)) or verdicts[-1])
    monkeypatch.setattr(etaram.eta, "euler_transform", lambda c, known=(): (
        c == etaram.eta._exponents(partitions, len(c)) and transforms.append(len(c))
        or transform(c, known)))
    monkeypatch.setattr(etaram.eta, "_product_expansion",
                        lambda k: [c + (n == 0) for n, c in enumerate(honest(k))])
    assert ident.rhs_series(60) == clean
    _independent_check(ident, ident.lhs_series(ident.certified_to), ident.certified_to)
    # every spoiled product the check read failed its certificate at q^0,
    # and the transform expanded each
    assert verdicts and set(verdicts) == {0}
    assert len(transforms) == len(verdicts)


def _derive_with_fast_product(monkeypatch, spec, m, t, n):
    """derive_identity(spec, m, t) to order 100 from an empty product cache,
    for spec the partition product, with every partition product sent to
    the fast route and its expansion changed by one at q^n; returns the
    document and how often the transform ran on that product."""
    monkeypatch.setattr(etaram.eta, "_PRODUCT_CACHE", {})
    monkeypatch.setattr(etaram.eta, "_FAST_TERMS", 0)
    honest, transform = etaram.eta._product_expansion, etaram.eta.euler_transform
    key = etaram.eta._spec_progressions(spec.r, spec.rg)
    runs = []

    def spoiled(k):
        f = honest(k)
        if n < k:
            f[n] += 1
        return f

    def spy(c, known=()):
        if c == etaram.eta._exponents(key, len(c)):
            runs.append(len(c))
        return transform(c, known)

    monkeypatch.setattr(etaram.eta, "_product_expansion", spoiled)
    monkeypatch.setattr(etaram.eta, "euler_transform", spy)
    doc = derive_identity(spec, m, t, DeriveOptions(order=100)).to_json()
    return doc, len(runs)


@pytest.mark.parametrize("n", [0, 1, 38, 204])
def test_a_fast_product_spoiled_off_the_slice_changes_no_document(monkeypatch, n):
    clean = derive_identity(PARTITION, 5, 2, DeriveOptions(order=100)).to_json()
    assert clean["status"] == "Derived"
    assert _derive_with_fast_product(monkeypatch, PARTITION, 5, 2, n) == (clean, 1)


@pytest.mark.parametrize("n", [2, 52, 207])
def test_a_fast_product_spoiled_on_the_slice_changes_no_document(monkeypatch, n):
    # the spoiled expansion fails its certificate and is never stored, so
    # reduction reads the transform's list
    clean = derive_identity(PARTITION, 5, 2, DeriveOptions(order=100)).to_json()
    assert clean["status"] == "Derived"
    assert _derive_with_fast_product(monkeypatch, PARTITION, 5, 2, n) == (clean, 1)


def test_every_held_product_is_one_certified_list_in_lowest_terms(monkeypatch):
    monkeypatch.setattr(etaram.eta, "_PRODUCT_CACHE", {})
    # every partition product on the fast route, so each meets the certificate
    monkeypatch.setattr(etaram.eta, "_FAST_TERMS", 0)
    etaram.identities.level_basis.cache_clear()
    expanded, certified = [], []
    expand_fast, certify, publish = (etaram.eta._product_expansion,
                                     etaram.eta.certify_product, etaram.eta._publish)

    def spy_expand(k):
        expanded.append(expand_fast(k))
        return expanded[-1]

    def spy_certify(f, c):
        certified.append(f)
        return certify(f, c)

    def spy_publish(key, f):
        # a fast-route list is stored only after its certificate
        assert not any(f is e for e in expanded) or any(f is e for e in certified)
        return publish(key, f)

    monkeypatch.setattr(etaram.eta, "_product_expansion", spy_expand)
    monkeypatch.setattr(etaram.eta, "certify_product", spy_certify)
    monkeypatch.setattr(etaram.eta, "_publish", spy_publish)
    for spec, m, t in [(OVERPARTITION, 5, 2), (PARTITION, 11, 6),
                       (PartitionSpec(3, {3: -1}), 15, 12)]:
        assert derive_identity(spec, m, t).status == "Derived", (spec, m, t)
    assert all(i.status == "Derived" for i in dissect(ROGERS_RAMANUJAN, 2))
    assert verify_identity("slice(P(0,1)^-1,5,4)", "5*P(0,5)^5*P(0,1)^-6", 200)[0]
    # every fast expansion ran its certificate, and nothing else did
    assert expanded and len(certified) == len(expanded)
    cache = etaram.eta._PRODUCT_CACHE
    assert cache
    for key, f in cache.items():
        assert key == etaram.eta.progressions(key)
        assert gcd(*(x for progression, _ in key for x in progression)) <= 1, key
        assert f == etaram.eta.euler_transform(etaram.eta._exponents(key, len(f))), key


def test_no_expansion_chooses_a_route():
    # one store per basis, and no expansion takes a route flag
    assert [f.name for f in dataclasses.fields(ModuleBasis) if f.name.startswith("_")] == [
        "_store", "_lock"]
    for function in (GenEtaQuotient.expansion, Generator.expansion,
                     PartitionSpec.slice_expansion, etaram.identities.lhs_series,
                     Identity.lhs_series, Identity.rhs_series, ModuleBasis.ensure_terms,
                     ModuleBasis.monomial_series, ModuleBasis._monomial,
                     ModuleBasis.combo_series):
        assert "reference" not in inspect.signature(function).parameters, function


def test_concurrent_derivations_of_one_progression_hold_each_product_once(monkeypatch):
    def derive():
        return json.dumps(derive_identity(OVERPARTITION, 5, 2,
                                          DeriveOptions(order=100)).to_json())

    def empty_caches():
        monkeypatch.setattr(etaram.eta, "_PRODUCT_CACHE", {})
        etaram.identities.level_basis.cache_clear()
        generators.cache_clear()   # its heads are products too

    empty_caches()
    sequential = derive()
    held = dict(etaram.eta._PRODUCT_CACHE)
    empty_caches()
    docs = []
    threads = [threading.Thread(target=lambda: docs.append(derive())) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)   # interleave the derivations finely
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert docs == [sequential] * 4
    # the same products as one derivation alone, each one entry
    assert etaram.eta._PRODUCT_CACHE == held


@pytest.fixture(scope="module")
def rhs_identities():
    return {label: derive_identity(*DOCUMENT_CASES[label][:3],
                                   DeriveOptions(order=DOCUMENT_CASES[label][3]))
            for label in ("diamond-25n+14", "p-11n+6")}


def fresh_dict_rhs(ident, terms):
    """sum c z^j e_i over the identity's coefficients, every z^j e_i built
    power by power in a dict of this call's own, at the length rhs_series
    asks for: e_i is the product its combination names, z^j e_i is
    z^(j-1) e_i times z."""
    mb = ident.basis
    length = terms + 4 + max(j * mb.n + mb.elements[i].pole for i, j in ident.rhs)
    series = {}

    def read(i, j):
        if (i, j) not in series:
            if j:
                g = mb.gens[0]
                series[i, j] = read(i, j - 1) * g.expansion(length).truncated(length - g.pole)
            else:
                (mono, c), = mb.elements[i].combo.items()
                out = QSeries.one(length).scale(c)
                for g, e in zip(mb.gens, mono):
                    if e:
                        out = out * g.expansion(length).truncated(length - g.pole) ** e
                series[i, j] = out
        return series[i, j]

    total = QSeries.zero(terms)
    for (i, j), c in sorted(ident.rhs.items()):
        if c:
            total = total + read(i, j).scale(c)
    return total


def emptied_store(ident):
    """ident over a copy of its basis whose store holds no series."""
    return dataclasses.replace(ident, basis=dataclasses.replace(ident.basis, _store=(0, {})))


# empty: the right-hand side builds every series in an emptied store; else
# it reads the store the derivation's reduction and check filled
@pytest.mark.parametrize("empty", [False, True])
@pytest.mark.parametrize("label", ["diamond-25n+14", "p-11n+6"])
def test_rhs_series_equals_the_power_by_power_sum(rhs_identities, label, empty):
    ident = rhs_identities[label]
    assert ident.status == "Derived"
    if label == "p-11n+6":
        assert {idx for idx, _ in ident.rhs} == {0, 1}
    if empty:
        ident = emptied_store(ident)
    order = ident.certified_to
    # every power z^j its own product
    assert ident.rhs_series(order) == fresh_dict_rhs(ident, order)


@pytest.mark.parametrize("empty", [False, True])
def test_rhs_series_from_the_basis_store_equals_a_fresh_store(empty):
    for label, (spec, m, t, order) in DOCUMENT_CASES.items():
        if label in SLOW_DOCUMENTS:
            continue
        ident = derive_identity(spec, m, t, DeriveOptions(order=order))
        assert ident.status == "Derived", label
        if empty:
            ident = emptied_store(ident)
        # the certified order, then a shorter one read from the longer store
        for terms in (ident.certified_to, ident.certified_to // 2):
            assert (ident.rhs_series(terms)
                    == fresh_dict_rhs(ident, terms)), (label, terms)


def test_second_derivation_at_a_level_builds_no_reference_monomial(monkeypatch):
    spec, m, t, order = DOCUMENT_CASES["diamond-25n+14"]
    first = derive_identity(spec, m, t, DeriveOptions(order=order))
    assert first.status == "Derived"
    terms, series = first.basis._store
    held = set(series)
    built = []
    real = ModuleBasis._monomial

    def spy(self, i, j, terms, series):
        if (i, j) not in series:
            built.append((i, j))
        return real(self, i, j, terms, series)

    monkeypatch.setattr(ModuleBasis, "_monomial", spy)
    spec, m, t, order = DOCUMENT_CASES["diamond-25n+24"]
    second = derive_identity(spec, m, t, DeriveOptions(order=order))
    assert second.status == "Derived" and second.basis is first.basis
    assert built == []
    assert second.basis._store == (terms, series) and set(series) == held


def test_derivation_checks_each_level_once(monkeypatch):
    checked = []
    real = etaram.modularity.check_level

    def spy(spec, m, t, N):
        checked.append(N)
        return real(spec, m, t, N)

    monkeypatch.setattr(etaram.modularity, "check_level", spy)
    monkeypatch.setattr(etaram.identities, "check_level", spy)
    for spec, m, t, order in [DOCUMENT_CASES["over-5n+2"], DOCUMENT_CASES["p-11n+6"]]:
        checked.clear()
        ident = derive_identity(spec, m, t, DeriveOptions(order=order))
        assert ident.status == "Derived"
        # the levels find_level tried, in its order, each once
        assert checked == [spec.M * d for d in etaram.eta.divisors(24 * m)
                           if spec.M * d <= ident.N]
    # a level the caller gives is checked once too
    checked.clear()
    assert derive_identity(OVERPARTITION, 5, 2, DeriveOptions(N=10, order=60)).N == 10
    assert checked == [10]


def test_diamond_rhs_series_makes_order_sqrt_d_products(rhs_identities, monkeypatch):
    # a copy holds no certified series, so rhs_series builds one
    ident = dataclasses.replace(rhs_identities["diamond-25n+14"])
    d = max(j for _, j in ident.rhs)
    assert d == 57
    ident.rhs_series(ident.certified_to)   # generators expanded
    calls = []
    mul = QSeries.__mul__

    def counted(self, other):
        calls.append(other)
        return mul(self, other)

    monkeypatch.setattr(QSeries, "__mul__", counted)
    ident.rhs_series(ident.certified_to)
    # ceil(sqrt(58)) = 8 powers, 7 Horner steps and the product with e_0;
    # every power z^j made separately took 58
    assert len(calls) <= 2 * 8 + 2


@pytest.mark.slow
def test_partition_125n99_is_divisible_by_125(monkeypatch):
    # 20,000 terms of 1/(q;q) on the fast route, certified as they are stored
    monkeypatch.setattr(etaram.eta, "_PRODUCT_CACHE", {})
    expanded, certified, _ = spy_product_routes(monkeypatch)
    ident = derive_identity(PARTITION, 125, 99, DeriveOptions())
    assert ident.status == "Derived"
    assert ident.congruence_modulus() % 125 == 0
    assert 20000 in expanded and certified == [20000]


def spy_product_routes(monkeypatch):
    """(expanded, certified, transformed): the length of every fast-route
    expansion, of every certified list and of every euler_transform run, in
    order."""
    expanded, certified, transformed = [], [], []
    expand, certify, transform = (etaram.eta._product_expansion, etaram.eta.certify_product,
                                  etaram.eta.euler_transform)
    monkeypatch.setattr(etaram.eta, "_product_expansion",
                        lambda n: expanded.append(n) or expand(n))
    monkeypatch.setattr(etaram.eta, "certify_product",
                        lambda f, c: certified.append(len(f)) or certify(f, c))
    monkeypatch.setattr(etaram.eta, "euler_transform",
                        lambda c, known=(): transformed.append(len(c)) or transform(c, known))
    return expanded, certified, transformed


def test_only_a_long_sparse_product_takes_the_fast_route(monkeypatch):
    # p(11n+6)'s 1,969-term partition product is the one fast expansion, and
    # it is certified; its quotient products run the transform
    monkeypatch.setattr(etaram.eta, "_PRODUCT_CACHE", {})
    etaram.identities.level_basis.cache_clear()
    expanded, certified, transformed = spy_product_routes(monkeypatch)
    assert derive_identity(PARTITION, 11, 6, DeriveOptions(order=150)).status == "Derived"
    assert expanded == [1969] and certified == [1969]
    assert transformed
    # the overpartition, singular overpartition and diamond products and
    # every quotient product run the transform, and no certificate
    for spec, m, t, order in (DOCUMENT_CASES["over-5n+2"], DOCUMENT_CASES["singular-9n+3"],
                              DOCUMENT_CASES["diamond-25n+14"]):
        transformed.clear()
        assert derive_identity(spec, m, t, DeriveOptions(order=order)).status == "Derived"
        assert expanded == [1969] and certified == [1969], (spec, m, t)
        key = etaram.eta._spec_progressions(spec.r, spec.rg)
        assert len(etaram.eta._PRODUCT_CACHE[key]) in transformed, (spec, m, t)


def test_a_derivation_expands_its_left_side_once(monkeypatch):
    # reduction and the independent check read one left side
    calls = []
    real = etaram.identities.lhs_series
    monkeypatch.setattr(etaram.identities, "lhs_series",
                        lambda *args: calls.append(args) or real(*args))
    for spec, m, t, order in (DOCUMENT_CASES["over-5n+2"], DOCUMENT_CASES["p-11n+6"]):
        calls.clear()
        assert derive_identity(spec, m, t, DeriveOptions(order=order)).status == "Derived"
        assert len(calls) == 1, (spec, m, t)


def test_a_derivation_builds_its_right_hand_side_once(monkeypatch):
    # express builds sum p_i(z) e_i to certify the coefficients, and the
    # independent check compares the left side with that same series
    calls = []
    real = etaram.reduction._z_polynomial
    monkeypatch.setattr(etaram.reduction, "_z_polynomial",
                        lambda *args: calls.append(args) or real(*args))
    for label in ("over-5n+2", "p-11n+6", "diamond-25n+14"):
        spec, m, t, order = DOCUMENT_CASES[label]
        calls.clear()
        ident = derive_identity(spec, m, t, DeriveOptions(order=order))
        assert ident.status == "Derived"
        elements = {i for i, _ in ident.rhs}
        assert len(calls) == len(elements), label
        if label == "p-11n+6":
            assert elements == {0, 1}
        # a copy holds no certified series, so its right-hand side is built
        calls.clear()
        dataclasses.replace(ident).rhs_series(ident.certified_to)
        assert len(calls) == len(elements), label


def test_derive_always_runs_the_independent_check(monkeypatch):
    def failing(identity, lhs, order):
        raise VerificationFailure("re-expansion spoiled on purpose")

    monkeypatch.setattr(etaram.identities, "_independent_check", failing)
    ident = derive_identity(OVERPARTITION, 5, 2, DeriveOptions(order=60))
    assert ident.status == "Failed"
    assert ident.failure == "verification: re-expansion spoiled on purpose"


def test_uncertified_basis_fails_the_generators_stage(monkeypatch):
    # without the pole-3 generators the level-11 seeds (poles 2 and 5) miss
    # two pole orders, one more than the genus of X1(11)
    pruned = tuple(g for g in generators(11) if g.pole != 3)
    monkeypatch.setattr(etaram.identities, "generators", lambda N: pruned)
    etaram.identities.level_basis.cache_clear()
    ident = derive_identity(PARTITION, 11, 6, DeriveOptions())
    assert ident.status == "Failed"
    assert ident.to_json()["status"] == (
        "Failed(generators: level 11: the seeds miss 2 pole orders, above the genus 1)")


def test_independent_check_rejects_a_short_comparison(monkeypatch):
    ident = derive_identity(OVERPARTITION, 5, 2, DeriveOptions(order=100))
    full = etaram.identities.Identity.rhs_series
    monkeypatch.setattr(etaram.identities.Identity, "rhs_series",
                        lambda self, terms: full(self, terms).truncated(terms - 10))
    with pytest.raises(VerificationFailure, match=r"known only to q\^90, need 100"):
        _independent_check(ident, ident.lhs_series(ident.certified_to), ident.certified_to)


def test_concurrent_derivations_match_sequential(monkeypatch):
    def derive(t):
        ident = derive_identity(OVERPARTITION, 5, t, DeriveOptions(order=100))
        return json.dumps(ident.to_json())

    def empty_caches():
        monkeypatch.setattr(etaram.eta, "_PRODUCT_CACHE", {})
        etaram.identities.level_basis.cache_clear()

    empty_caches()
    sequential = {t: derive(t) for t in (2, 3)}
    empty_caches()
    concurrent = {}
    # two threads per progression, more threads than cores
    residues = (2, 3, 2, 3)
    threads = [threading.Thread(target=lambda k=k, t=t: concurrent.update({k: derive(t)}))
               for k, t in enumerate(residues)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)   # interleave the derivations finely
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert {k: sequential[t] for k, t in enumerate(residues)} == concurrent
    assert json.loads(sequential[2])["status"] == "Derived"


CORPUS_DOCUMENTS = ("over-5n+2", "over-5n+3", "p-5n+4", "singular-9n+3", "singular-9n+6",
                    "p-11n+6", "rogers-ramanujan-2n+0", "rogers-ramanujan-2n+1",
                    "rogers-ramanujan-inverse-2n+0", "rogers-ramanujan-inverse-2n+1")


def test_concurrent_corpus_derivations_match_one_thread(monkeypatch):
    # the benchmark corpus from emptied caches, on one thread and then
    # shared among four threads interleaved finely
    def derive(label):
        spec, m, t, order = DOCUMENT_CASES[label]
        return json.dumps(derive_identity(spec, m, t, DeriveOptions(order=order)).to_json())

    def empty_caches():
        monkeypatch.setattr(etaram.eta, "_PRODUCT_CACHE", {})
        etaram.identities.level_basis.cache_clear()
        generators.cache_clear()

    empty_caches()
    sequential = {label: derive(label) for label in CORPUS_DOCUMENTS}
    held = dict(etaram.eta._PRODUCT_CACHE)
    empty_caches()
    concurrent = {}

    def share(k):
        for label in CORPUS_DOCUMENTS[k::4]:
            concurrent[label] = derive(label)

    threads = [threading.Thread(target=share, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=600)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert concurrent == sequential
    assert all(json.loads(doc)["status"] == "Derived" for doc in sequential.values())
    # each product one entry, in lowest terms, as one thread left them
    assert etaram.eta._PRODUCT_CACHE == held
    assert all(key == etaram.eta.progressions(key) for key in held)


def test_concurrent_derivations_share_one_basis():
    etaram.identities.level_basis.cache_clear()
    mb = etaram.identities.level_basis(10)
    idents = {}

    def derive(label):
        spec, m, t, order = DOCUMENT_CASES[label]
        idents[label] = derive_identity(spec, m, t, DeriveOptions(order=order))

    threads = [threading.Thread(target=derive, args=(label,))
               for label in ("over-5n+2", "over-5n+3")]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)   # interleave the reads of the shared store
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert len(idents) == 2
    for label, ident in idents.items():
        assert ident.N == 10 and ident.basis is mb
        digest = hashlib.sha256(json.dumps(ident.to_json()).encode()).hexdigest()
        assert digest == DOCUMENT_HASHES[label]


def test_left_side_is_known_eight_terms_past_the_ask():
    rng = random.Random(19)
    for _ in range(40):
        M = rng.choice([1, 2, 3, 4, 5, 6])
        ds = [d for d in range(1, M + 1) if M % d == 0]
        spec = PartitionSpec(M, {d: rng.randint(-4, 4) for d in ds},
                             {(d, g): rng.randint(-3, 3)
                              for d in ds for g in range(1, d // 2 + 1) if rng.random() < 0.5})
        N = rng.choice([1, 2, 3, 4, 5, 6, 8, 10, 12])
        Nds = [d for d in range(1, N + 1) if N % d == 0]
        quot = GenEtaQuotient(N, {d: rng.randint(-20, 20) for d in Nds},
                              {(d, g): rng.randint(-20, 20)
                               for d in Nds for g in range(1, (d + 1) // 2)})
        m = rng.randint(1, 7)
        t = rng.randrange(m)
        terms = rng.randint(1, 30)
        lhs = etaram.identities.lhs_series(spec, m, t, quot, terms)
        assert lhs.bound() >= terms + 8, (spec, quot, m, t, terms)


def test_one_derivation_grows_the_basis_store_once(monkeypatch):
    etaram.identities.level_basis.cache_clear()
    growths = []
    real = ModuleBasis.ensure_terms

    def spy(self, terms):
        before = self._store[0]
        real(self, terms)
        if self._store[0] != before:
            growths.append((before, self._store[0]))

    monkeypatch.setattr(ModuleBasis, "ensure_terms", spy)
    # the corpus order, past the level-11 stores' first 100 terms
    ident = derive_identity(PARTITION, 11, 6, DeriveOptions(order=150))
    assert ident.status == "Derived"
    # reduction grows it, and the independent check reads it as it is
    assert len(growths) <= 1, growths
