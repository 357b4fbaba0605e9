"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
report.  Criterion 10 is marked slow; deselect with  -m "not slow"  for a
quick pass.
"""

import random
import time
from fractions import Fraction
from math import gcd

import pytest

from etaram.cusps import INFINITY, Cusp, cusp_order_bounds, cusp_set, \
    cusps_equivalent, exponent_slots, order_at_cusp, width
from etaram.eta import GenEtaQuotient, PartitionSpec
from etaram.exprs import expand
from etaram.generators import generators, pole_free_system, quotient_from_scaled
from etaram.identities import DeriveOptions, derive_identity, dissect, \
    verify_identity
from etaram.lattice import hilbert_basis, lattice_hnf, solve_diophantine
from etaram.reduction import express, module_basis
from etaram.series import QSeries, pochhammer

OVERPARTITION = PartitionSpec(2, {1: -2, 2: 1})
PARTITION = PartitionSpec(1, {1: -1})
SINGULAR = PartitionSpec(6, {1: -1, 3: 1}, {(3, 1): -1, (6, 2): 1})
DIAMOND = PartitionSpec(10, {1: -3, 2: 1, 5: 1, 10: -1})

PHI_PUBLISHED = GenEtaQuotient(10, a={10: 1}, ag={(10, 4): -8, (10, 5): 9})
Z_STATED_6 = GenEtaQuotient(6, a={1: -3, 2: 3, 3: 9, 6: -9})


def report(num, ok, detail=""):
    print("ACCEPTANCE %2d: %s %s" % (num, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %d failed: %s" % (num, detail)


def test_criterion_01_overpartition_5n2():
    t0 = time.time()
    ident = derive_identity(OVERPARTITION, 5, 2, DeriveOptions(order=100))
    el = time.time() - t0
    ok = (ident.status == "Derived" and ident.certified_to >= 100
          and {j: c for (i, j), c in ident.rhs.items()} == {3: 4, 2: 4, 1: -32, 0: 32}
          and el < 60)
    report(1, ok, "4z^3+4z^2-32z+32 certified to %s in %.1fs"
           % (ident.certified_to, el))


def test_criterion_02_overpartition_5n3_and_congruence():
    t0 = time.time()
    ident = derive_identity(OVERPARTITION, 5, 3, DeriveOptions(order=100))
    el = time.time() - t0
    ok = (ident.status == "Derived"
          and {j: c for (i, j), c in ident.rhs.items()} == {3: 8, 2: -12, 1: 16, 0: -16}
          and el < 60)
    for other in (derive_identity(OVERPARTITION, 5, 2, DeriveOptions(order=100)), ident):
        ok = ok and all(c.denominator == 1 and c.numerator % 4 == 0
                        for c in other.rhs.values())
    report(2, ok, "8z^3-12z^2+16z-16; both witness mod 4 (%.1fs)" % el)


def test_criterion_03_alternative_multiplier_regression():
    h_alt = GenEtaQuotient(10, a={1: 9, 2: -3, 5: -17, 10: 11},
                           ag={(5, 1): 16, (10, 1): -22})
    quot = PHI_PUBLISHED * h_alt
    hF = quot.expansion(160) * OVERPARTITION.slice_expansion(5, 2, 160)
    mb = module_basis(generators(10))
    coeffs = express(hF.truncated(100), mb, 100)
    expected = {7: 4, 6: -4, 5: -44, 4: 100, 3: -20, 2: -92, 1: 32, 0: 32}
    ok = {j: c for (i, j), c in coeffs.items()} == expected
    report(3, ok, "degree-7 regression polynomial")


def test_criterion_04_partition_11n6():
    t0 = time.time()
    ident = derive_identity(PARTITION, 11, 6, DeriveOptions(order=150))
    el = time.time() - t0
    poly_1 = {j: int(c) for (i, j), c in ident.rhs.items() if i == 0}
    poly_e = {j: int(c) for (i, j), c in ident.rhs.items() if i == 1}
    expected_1 = {10: 11, 9: 330, 8: -990, 7: 792, 6: 44, 5: -132,
                  4: -451, 3: 748, 2: -429, 1: 77, 0: 11}
    expected_e = {8: 121, 7: -484, 6: 484, 5: -484, 4: 1089, 3: -1452,
                  2: 968, 1: -242}
    ok = (ident.status == "Derived" and ident.certified_to >= 150
          and poly_1 == expected_1 and poly_e == expected_e and el < 600)
    ok = ok and all(c.numerator % 11 == 0 for c in ident.rhs.values())
    # the divisibility the witness certifies, read off the slice itself
    s = ident.slice_series(60)
    ok = ok and s.coefficient(0) == 11 and all(
        s.coefficient(n) % 11 == 0 for n in range(60))
    report(4, ok, "18-term witness, all coefficients = 0 mod 11 (%.1fs)" % el)


def test_criterion_05_level_10_generator_monoid():
    alphas_published = [
        (-1, 2, 0, 1, 2, 0, -2, -4, 0, 0, 0, 0),
        (-1, -1, 0, 3, 4, 0, -1, -3, 0, 0, 0, 0),
        (1, -2, 0, -1, 2, 0, 2, -4, 0, 0, 0, 0),
        (1, 0, 0, 1, -2, 0, -2, -1, 0, 0, 0, 0),
        (4, -3, 0, 0, 2, 0, -1, -4, 0, 0, 0, 0),
    ]
    betas_published = [
        (0, 0, 0, -1, 0, 0, 1, 0, 0, 0, 0, 1),
        (-1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0),
        (-1, 0, 0, 1, 1, 1, 0, 0, 0, 0, 0, 0),
        (0, -1, 0, 0, 1, 0, 1, -1, 1, 0, 0, 0),
        (-1, 1, 0, 1, 0, 0, -1, 1, 0, 1, 0, 0),
        (0, 0, 0, 0, -1, 0, 0, 1, 0, 0, 1, 0),
    ]
    n = len(exponent_slots(10))

    # the constant-1 quotients: the lineality of the level-10 system
    units = [u[:n] for u in hilbert_basis(*pole_free_system(10))[1]]
    ok = len(units) == len(betas_published) == 6
    unit_cols = lattice_hnf(units, n)
    published_cols = lattice_hnf([list(b) for b in betas_published], n)
    for b in betas_published:
        q = quotient_from_scaled(10, b)
        ok = ok and q.expansion(50).agrees_with(QSeries.one(50))
        ok = ok and solve_diophantine([list(r) for r in zip(*unit_cols)], list(b)) is not None
    for u in units:
        ok = ok and solve_diophantine([list(r) for r in zip(*published_cols)], u) is not None

    def grade(vec):
        q = quotient_from_scaled(10, vec)
        return sum(int(order_at_cusp(q, 10, d)) for d in cusp_set(10)
                   if not d.cusp.is_infinity)

    def member(vec, alphas, u_cols):
        grades = [grade(a) for a in alphas]
        target = grade(vec)

        def rec(idx, rem, acc):
            if rem == 0:
                return solve_diophantine([list(r) for r in zip(*u_cols)],
                                         [a - b for a, b in zip(vec, acc)]) is not None
            if idx == len(alphas):
                return False
            u = 0
            while u * grades[idx] <= rem:
                if rec(idx + 1, rem - u * grades[idx],
                       [a + u * b for a, b in zip(acc, alphas[idx])]):
                    return True
                u += 1
            return False

        return rec(0, target, [0] * n)

    mine = [list(g.scaled_vector) for g in generators(10)]
    for v in mine:
        ok = ok and member(v, [list(a) for a in alphas_published], published_cols)
    for a in alphas_published:
        ok = ok and member(list(a), mine, unit_cols)
    report(5, ok, "mutual membership of the level-10 monoid bases")


def test_criterion_06_cusp_data():
    published = [Cusp(0, 1), Cusp(1, 5), Cusp(1, 4), Cusp(3, 10),
               Cusp(1, 3), Cusp(3, 5), Cusp(1, 2), INFINITY]
    ours = [d.cusp for d in cusp_set(10)]
    ok = len(ours) == 8
    for s in published:
        ok = ok and sum(1 for r in ours if cusps_equivalent(10, r, s)) == 1
    bounds = cusp_order_bounds(OVERPARTITION, 5, 2, PHI_PUBLISHED, 10)
    expected = {Cusp(0, 1): Fraction(-3), Cusp(1, 5): Fraction(19, 5),
                Cusp(1, 4): Fraction(-2), Cusp(3, 10): Fraction(-18, 5),
                Cusp(1, 3): Fraction(-3), Cusp(3, 5): Fraction(27, 5),
                Cusp(1, 2): Fraction(-2), INFINITY: Fraction(-2, 5)}
    for cusp, value in expected.items():
        reps = [r for r in ours if cusps_equivalent(10, r, cusp)]
        ok = ok and len(reps) == 1 and bounds[reps[0]] == value
    report(6, ok, "S(10) and all eight published order bounds")


def test_criterion_07_module_bases():
    mb10 = module_basis(generators(10))
    mb11 = module_basis(generators(11))
    ok = len(mb10.elements) == 1 and len(mb11.elements) == 2
    ok = ok and len(generators(11)) == 27
    report(7, ok, "Q[z] at level 10; basis (1, e) at level 11; 27 generators")


def test_criterion_08_intermediate_expansions():
    h_published = GenEtaQuotient(10, a={1: 11, 2: -7, 5: -19, 10: 15},
                               ag={(5, 1): 12, (10, 1): -14})
    quot = PHI_PUBLISHED * h_published
    hF = quot.expansion(60) * OVERPARTITION.slice_expansion(5, 2, 60)
    ok = [hF.coefficient(n) for n in range(-3, 1)] == [4, 28, 56, 140]
    z = generators(10)[0].expansion(10)
    ok = ok and [z.coefficient(n) for n in range(-1, 3)] == [1, 2, 2, 1]
    report(8, ok, "hF = 4/q^3 + 28/q^2 + 56/q + 140 + ...; z = 1/q + 2 + 2q + q^2 + ...")


def test_criterion_09_singular_overpartitions():
    results = {}
    ok = True
    published_prefactor = {
        3: "q^-1 * P(0,1)^14 / (P(0,2)^5 * P(0,3)^6 * P(0,6)^3)",
        6: "q^-1 * P(0,1)^13 / (P(0,2)^4 * P(0,3)^3 * P(0,6)^6)",
    }
    for t, expected in [(3, {1: 6, 0: 96}), (6, {1: 24, 0: 96})]:
        t0 = time.time()
        ident = derive_identity(SINGULAR, 9, t, DeriveOptions(order=100))
        el = time.time() - t0
        ok = ok and ident.status == "Derived" and ident.N == 6 and el < 60
        poly = {j: int(c) for j, c in ident.polynomial_over(Z_STATED_6).items()}
        results[t] = poly
        ok = ok and poly == expected
        # the combined prefactor matches the published statement
        lhs_pref = ident.prefactor().expansion(50).shift(
            SINGULAR.slice_prefactor(9, t))
        ok = ok and lhs_pref.agrees_with(expand(published_prefactor[t], 40))
    report(9, ok, "6z+96 and 24z+96 over the stated level-6 variable: %s" % results)


@pytest.mark.slow
def test_criterion_10_broken_diamond():
    t0 = time.time()
    i14 = derive_identity(DIAMOND, 25, 14, DeriveOptions())
    i24 = derive_identity(DIAMOND, 25, 24, DeriveOptions())
    el = time.time() - t0
    ok = i14.status == "Derived" and i24.status == "Derived"
    p14 = {j: c for (i, j), c in i14.rhs.items()}
    p24 = {j: c for (i, j), c in i24.rhs.items()}
    ok = ok and max(p14) == 57 and max(p24) == 57
    ok = ok and p14[57] == 10445 and p14[0] == -7036874417766400
    for poly in (p14, p24):
        ok = ok and all(c.denominator == 1 and c.numerator % 5 == 0
                        for c in poly.values())
    ok = ok and el < 1800
    report(10, ok, "degree-57 witnesses mod 5 for both progressions (%.1fs)" % el)


def test_criterion_11_rogers_ramanujan_dissection():
    ok = True
    RR = PartitionSpec(5, rg={(5, 1): -1, (5, 2): 1})
    out = dissect(RR, 2, DeriveOptions(order=100))
    ok = ok and all(i.status == "Derived" for i in out)
    published = {
        0: "P(4,10)^2*P(6,10)^2 / (P(3,10)*P(7,10)*P(5,10)^2)",
        1: "P(1,10)*P(9,10)*P(4,10)*P(6,10) / (P(2,10)*P(8,10)*P(5,10)^2)",
    }
    for t, expr in published.items():
        ok = ok and out[t].slice_series(200).agrees_with(expand(expr, 200))
    RRI = PartitionSpec(5, rg={(5, 1): 1, (5, 2): -1})
    out_inv = dissect(RRI, 2, DeriveOptions(order=100))
    ok = ok and all(i.status == "Derived" for i in out_inv)
    published_inv = {
        0: "P(2,10)^2*P(8,10)^2 / (P(1,10)*P(9,10)*P(5,10)^2)",
        1: "0 - P(2,10)*P(8,10)*P(3,10)*P(7,10) / (P(4,10)*P(6,10)*P(5,10)^2)",
    }
    for t, expr in published_inv.items():
        ok = ok and out_inv[t].slice_series(200).agrees_with(expand(expr, 200))
    # the interleaved two-dissections reproduce the continued-fraction quotient
    ok = ok and verify_identity(
        "P(2,5)*P(3,5) / (P(1,5)*P(4,5))",
        "P(8,20)^2*P(12,20)^2/(P(6,20)*P(14,20)*P(10,20)^2)"
        " + q*P(2,20)*P(18,20)*P(8,20)*P(12,20)/(P(4,20)*P(16,20)*P(10,20)^2)",
        200)[0]
    ok = ok and verify_identity(
        "P(1,5)*P(4,5) / (P(2,5)*P(3,5))",
        "P(4,20)^2*P(16,20)^2/(P(2,20)*P(18,20)*P(10,20)^2)"
        " - q*P(4,20)*P(16,20)*P(6,20)*P(14,20)/(P(8,20)*P(12,20)*P(10,20)^2)",
        200)[0]
    report(11, ok, "both two-dissection slice pairs verified to order 200")


def _level22_pole5_quotients():
    """Plain quotients on divisors of 22, poles only at infinity, pole 5.

    Order at a cusp with denominator c by the classical divisor formula for
    plain eta-products on the upper-triangular-c = 0 (mod 22) group.
    """
    N = 22
    divs = [1, 2, 11, 22]

    def orders(r):
        out = {}
        for c in divs:
            total = Fraction(0)
            for d, e in zip(divs, r):
                total += Fraction(gcd(c, d) ** 2, d) * e
            out[c] = Fraction(N, 24 * gcd(c, N // c) * c) * total
        return out

    found = []
    B = 30
    for r1 in range(-B, B + 1):
        for r2 in range(-B, B + 1):
            for r11 in range(-B, B + 1):
                r22 = -(r1 + r2 + r11)
                r = (r1, r2, r11, r22)
                if sum(d * e for d, e in zip(divs, r)) % 24:
                    continue
                if sum((N // d) * e for d, e in zip(divs, r)) % 24:
                    continue
                o = orders(r)
                if o[22] != -5:
                    continue
                if any(o[c] < 0 or o[c].denominator != 1 for c in (1, 2, 11)):
                    continue
                found.append(r)
    return found


def _plain_expr(r):
    divs = [1, 2, 11, 22]
    lead = Fraction(sum(d * e for d, e in zip(divs, r)), 24)
    parts = ["q^(%d/%d)" % (lead.numerator, lead.denominator)]
    for d, e in zip(divs, r):
        if e:
            parts.append("P(0,%d)^%d" % (d, e))
    return "*".join(parts)


def test_criterion_12_verification_corpus():
    ok1, _ = verify_identity("slice(P(0,1)^-1, 5, 4)",
                             "5 * P(0,5)^5 * P(0,1)^-6", 200)
    ok2, _ = verify_identity(
        "slice(P(0,1)^-1, 5, 0)",
        "P(0,5) / (P(0,1)^2 * P(1,5)^8 * P(4,5)^8)"
        " - 3*q*P(0,5)^6 * P(1,5)^2 * P(4,5)^2 / P(0,1)^7",
        200)

    # the quoted level-22 identity: the two companion quotients are cited but
    # not published, so reconstruct them among the pole-5 candidates and then
    # verify deeply
    m1 = (7, -3, 3, -7)
    candidates = [r for r in _level22_pole5_quotients() if r != m1]
    F = ("q^-14 * P(0,1)^10 * P(0,2)^2 * P(0,11)^11 * P(0,22)^-22"
         " * slice(P(0,1)^-1, 11, 6)")
    ok3 = False
    detail22 = "no candidate pair matched"
    for ma in candidates:
        for mb in candidates:
            if ma == mb:
                continue
            defs = {"A": _plain_expr(m1), "B": _plain_expr(ma), "C": _plain_expr(mb)}
            t = "(3*(%(A)s)/88 + (%(B)s)/11 - (%(C)s)/8)" % defs
            z1 = "(0 - 5*(%(A)s)/88 + 2*(%(B)s)/11 - (%(C)s)/8 - 3)" % defs
            z2 = "((%(A)s)/44 - 3*(%(B)s)/11 + 5*(%(C)s)/4)" % defs
            rhs = ("11*(98*%(t)s^4 + 1263*%(t)s^3 + 2877*%(t)s^2 + 1019*%(t)s - 1997)"
                   " + 11*%(z1)s*(17*%(t)s^3 + 490*%(t)s^2 + 54*%(t)s - 871)"
                   " + 11*%(z2)s*(%(t)s^3 + 251*%(t)s^2 + 488*%(t)s - 614)"
                   % {"t": t, "z1": z1, "z2": z2})
            probe, _ = verify_identity(F, rhs, 12)
            if probe:
                ok3, _ = verify_identity(F, rhs, 200)
                detail22 = "companions %s, %s" % (ma, mb)
                break
        if ok3:
            break

    ok = ok1 and ok2 and ok3
    report(12, ok, "p(5n+4), p(5n) and the level-22 witness at order 200 (%s)" % detail22)


def test_criterion_13_property_suites():
    rng = random.Random(8)
    ok = True
    # ring axioms and inverse round trips
    for _ in range(30):
        coeffs = {rng.randint(-3, 6): Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                  for _ in range(rng.randint(1, 5))}
        coeffs = {k: v for k, v in coeffs.items() if v}
        f = QSeries(coeffs, 8)
        g = QSeries({0: 1, 1: rng.randint(-3, 3)}, 8)
        h = QSeries({rng.randint(0, 3): 1}, 8)
        ok = ok and ((f * g) * h).agrees_with(f * (g * h))
        ok = ok and (f * (g + h)).agrees_with(f * g + f * h)
        if not f.is_known_zero():
            ok = ok and (f * f.invert()).agrees_with(QSeries.one(4))
    # order formula against the series at infinity
    checked = 0
    while checked < 50:
        N = rng.choice([6, 10, 11])
        a = {d: rng.randint(-2, 2) for d in [x for x in range(1, N + 1) if N % x == 0]
             if rng.random() < 0.6}
        ag = {(d, g): rng.randint(-2, 2)
              for d in [x for x in range(1, N + 1) if N % x == 0]
              for g in range(1, d // 2 + 1) if rng.random() < 0.3}
        q = GenEtaQuotient(N, a, ag)
        if q.is_one():
            continue
        ok = ok and order_at_cusp(q, N, INFINITY) == q.expansion(4).leading()[0]
        checked += 1
    # hilbert soundness plus box completeness on a random system
    eqs = [[1, -2, 1], [0, 1, -1]]
    pointed, lineality = hilbert_basis(eqs, [0, 1])
    for v in pointed:
        ok = ok and all(sum(r[j] * v[j] for j in range(3)) == 0 for r in eqs)
    # reduction round trip on a derived identity
    ident = derive_identity(OVERPARTITION, 5, 2, DeriveOptions(order=60))
    lhs = ident.lhs_series(60)
    rhs = ident.rhs_series(60)
    ok = ok and (lhs - rhs).truncated(60).is_known_zero()
    report(13, ok, "series axioms, order formula, completion, round-trip")
