import dataclasses
import json
import re
import sys
import threading
from fractions import Fraction

import pytest

import etaram.eta
import etaram.identities

from etaram.cusps import INFINITY, cusp_set
from etaram.eta import GenEtaQuotient, PartitionSpec
from etaram.exprs import ParseError, expand, parse
from etaram.generators import generators
from etaram.identities import (
    DeriveOptions, NoHFound, _independent_check, derive_identity, dissect,
    find_multiplier, verify_identity,
)
from etaram.modularity import find_prefactor
from etaram.cusps import cusp_order_bounds
from etaram.reduction import VerificationFailure

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
    combined = (PHI_PUBLISHED * h).canonicalize()
    published = (PHI_PUBLISHED * GenEtaQuotient(
        10, a={1: 11, 2: -7, 5: -19, 10: 15},
        ag={(5, 1): 12, (10, 1): -14})).canonicalize()
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


def test_derived_slice_matches_counts():
    ident = derive_identity(OVERPARTITION, 5, 2, DeriveOptions(order=60))
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


def test_identity_json_is_deterministic():
    a = derive_identity(OVERPARTITION, 5, 2, DeriveOptions(order=60)).to_json()
    b = derive_identity(OVERPARTITION, 5, 2, DeriveOptions(order=60)).to_json()
    assert json.dumps(a) == json.dumps(b)
    assert a["status"] == "Derived"
    assert a["m"] == 5 and a["t"] == 2 and a["N"] == 10
    assert ["spec", "m", "t", "N", "phi", "h", "z", "basis", "rhs",
            "certified_to", "status"] == list(a)


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


def test_failure_is_reported_not_raised():
    ident = derive_identity(OVERPARTITION, 5, 2,
                            DeriveOptions(order=40, phi_weight=1))
    assert ident.status == "Failed"
    assert "prefactor" in ident.failure


def test_independent_check_rejects_a_perturbed_identity():
    ident = derive_identity(OVERPARTITION, 5, 2,
                            DeriveOptions(order=100, verify=False))
    assert ident.status == "Derived"
    _independent_check(ident, ident.certified_to)
    bad = dataclasses.replace(ident, rhs=dict(ident.rhs))
    bad.rhs[(0, 1)] += 1
    # the extra z term first shows at the pole of z
    first = -ident.basis.z.pole
    with pytest.raises(VerificationFailure,
                       match=re.escape("differs at q^%d" % first) + "$"):
        _independent_check(bad, bad.certified_to)


def test_independent_check_rejects_a_short_comparison(monkeypatch):
    ident = derive_identity(OVERPARTITION, 5, 2,
                            DeriveOptions(order=100, verify=False))
    full = etaram.identities.Identity.rhs_series
    monkeypatch.setattr(etaram.identities.Identity, "rhs_series",
                        lambda self, terms, reference=False:
                        full(self, terms, reference).truncated(terms - 10))
    with pytest.raises(VerificationFailure, match=r"known only to q\^90, need 100"):
        _independent_check(ident, ident.certified_to)


def test_concurrent_derivations_match_sequential(monkeypatch):
    def derive(t):
        ident = derive_identity(OVERPARTITION, 5, t, DeriveOptions(order=100))
        return json.dumps(ident.to_json())

    def empty_caches():
        monkeypatch.setattr(etaram.eta, "_PRODUCT_CACHE", {})
        monkeypatch.setattr(etaram.eta, "_FACTOR_CACHE", {})
        monkeypatch.setattr(etaram.identities, "_BASIS_CACHE", {})

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
