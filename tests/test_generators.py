import functools
import hashlib
import inspect
import json
import sys
import time
from fractions import Fraction

import pytest

import etaram.cusps
import etaram.eta
from etaram.cusps import (
    INFINITY, cusp_set, exponent_slots, order_at_cusp, order_table, slot_vector, table_orders,
)
from etaram.eta import GenEtaQuotient, _exponents, _spec_progressions
from etaram.generators import (
    generator_from_quotient, generators, pole_free_system, quotient_from_scaled,
    table_exponents,
)
from etaram import lattice
from etaram.lattice import (
    StepBudgetExceeded, enumerate_coset, hilbert_basis, lattice_hnf, solve_diophantine,
)

# the package re-exports the function generators under the module's name
generators_module = sys.modules["etaram.generators"]


@functools.lru_cache(maxsize=None)
def unit_lattice(N):
    """Exponent vectors (scaled slots) of quotients equal to the constant 1:
    the lineality of the level-N system, cut to its slots."""
    _, lineality = hilbert_basis(*pole_free_system(N))
    return tuple(tuple(v[:len(exponent_slots(N))]) for v in lineality)


# published solution of the level-10 system: five base vectors and six units
# (first 12 entries are the scaled exponents; the slack tail is recomputed)
ALPHAS_10 = [
    (-1, 2, 0, 1, 2, 0, -2, -4, 0, 0, 0, 0),
    (-1, -1, 0, 3, 4, 0, -1, -3, 0, 0, 0, 0),
    (1, -2, 0, -1, 2, 0, 2, -4, 0, 0, 0, 0),
    (1, 0, 0, 1, -2, 0, -2, -1, 0, 0, 0, 0),
    (4, -3, 0, 0, 2, 0, -1, -4, 0, 0, 0, 0),
]
BETAS_10 = [
    (0, 0, 0, -1, 0, 0, 1, 0, 0, 0, 0, 1),
    (-1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (-1, 0, 0, 1, 1, 1, 0, 0, 0, 0, 0, 0),
    (0, -1, 0, 0, 1, 0, 1, -1, 1, 0, 0, 0),
    (-1, 1, 0, 1, 0, 0, -1, 1, 0, 1, 0, 0),
    (0, 0, 0, 0, -1, 0, 0, 1, 0, 0, 1, 0),
]

PAPER_QUOTIENTS_10 = {
    "z":  GenEtaQuotient(10, a={1: 1, 5: 1, 10: -2}, ag={(5, 1): -2, (10, 1): -1}),
    "z1": GenEtaQuotient(10, a={1: -1, 2: 2, 5: 1, 10: -2}, ag={(5, 1): 2, (10, 1): -4}),
    "z2": GenEtaQuotient(10, a={1: -1, 2: -1, 5: 3, 10: -1}, ag={(5, 1): 4, (10, 1): -3}),
    "z3": GenEtaQuotient(10, a={1: 1, 2: -2, 5: -1, 10: 2}, ag={(5, 1): 2, (10, 1): -4}),
    "z4": GenEtaQuotient(10, a={1: 4, 2: -3, 10: -1}, ag={(5, 1): 2, (10, 1): -4}),
}


def test_system_shape_level_10():
    rows, nonneg = pole_free_system(10)
    assert len(exponent_slots(10)) == 12
    assert len(rows[0]) == 12 + 6              # six cusps survive deduplication
    assert len(rows) == 7                      # weight row + one per kept cusp
    assert len(nonneg) == 5                    # the infinity slack is free


def test_system_row_coefficients_level_10():
    # the order form at the cusp 0 in the scaled variables
    rows, _ = pole_free_system(10)
    slots = exponent_slots(10)
    retained = [data for data, _, _ in order_table(10).forms]
    data = next(d for d in retained if str(d.cusp) == "0/1")
    idx = retained.index(data)
    row = rows[1 + idx]
    den = -row[12 + idx]
    coeff = {s: Fraction(c, den) for s, c in zip(slots, row)}
    assert coeff[(1, 0)] == Fraction(5, 12)
    assert coeff[(2, 0)] == Fraction(5, 24)
    assert coeff[(2, 1)] == Fraction(5, 24)
    assert coeff[(5, 1)] == Fraction(1, 6)
    assert coeff[(10, 5)] == Fraction(1, 24)


def test_pole_free_systems_are_pinned():
    # SHA-256 of the equality rows at levels 1-48 but 4, computed before the
    # order forms were read from the cusps' a/c and widths: the rows of every
    # level whose cusps are all regular are unchanged by that
    rows = [[N, pole_free_system(N)[0]] for N in range(1, 49) if N != 4]
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == "993c78fdb069c87416f11b19c949bf1c17840326d28cc5c77e40a4cce60c4aa6"


def test_trivial_level_one_system():
    gens = generators(1)
    assert gens == ()


def test_level_10_generator_functions_match_published_set():
    gens = generators(10)
    assert len(gens) == 5
    T = 40
    mine = [g.expansion(T) for g in gens]
    for name, q in PAPER_QUOTIENTS_10.items():
        hits = [i for i, e in enumerate(mine) if e.agrees_with(q.expansion(T))]
        assert len(hits) == 1, name
    # the module variable (first generator) is the published z
    assert mine[0].agrees_with(PAPER_QUOTIENTS_10["z"].expansion(T))


def test_level_11_generator_count():
    assert len(generators(11)) == 27


def test_generator_from_quotient_matches_generators_and_rejects_bad_input():
    for g in generators(10):
        rec = generator_from_quotient(10, g.quotient)
        assert (rec.quotient, rec.orders, rec.pole, rec.head) == \
            (g.quotient, g.orders, g.pole, g.head)
    z = generators(10)[0].quotient
    for bad in (z ** -1, z ** 0):     # a finite pole; no pole at infinity
        with pytest.raises(ValueError):
            generator_from_quotient(10, bad)
    # an eta argument that does not divide the level, plain or generalized
    for outside, d in ((GenEtaQuotient(20, a={4: 1, 10: -1}), 4),
                       (GenEtaQuotient(20, ag={(20, 3): 1}), 20),
                       (z * GenEtaQuotient(20, a={20: 2}), 20)):
        message = "eta argument %d does not divide level 10$" % d
        with pytest.raises(ValueError, match=message):
            generator_from_quotient(10, outside)
        with pytest.raises(ValueError, match=message):
            slot_vector(outside, 10)


def _records_json(N):
    """Canonical JSON of every generator record of level N."""
    return json.dumps([{
        "quotient": g.quotient.to_json(),
        "pole": g.pole,
        "head": [str(c) for c in g.head],
        "scaled_vector": list(g.scaled_vector),
        "orders": {str(c): o for c, o in sorted(g.orders.items())},
    } for g in generators(N)], sort_keys=True, separators=(",", ":"))


# SHA-256 of _records_json(N): any change to the generators, their order or
# their records shows up here
RECORD_HASHES = {
    10: "90e5e01e750d172b75ad2089e2135736eae0f035f4cd64f956a2b7fa2f878a51",
    11: "b8e1a3e7258ba9bfb8fe3f7a043fccd58072c5fe1e93520fb2dd38713fadf4ad",
    14: "0f1422016aa1cf8e08eae5e0b8fbad0c40d3b952db09ee3b60809bfe373661f3",
    15: "ce95488a60a9a0250e69be6d1574223d30425b40eedeacf51d0cb1016e6bf0f7",
    16: "d28a5d57f119c2019bbc2e8bd8b1b363e6fe1dc4c1e254306633451d94ceda89",
    18: "e7f4960e9f9eef69ed6cc8155b8a1efc75fbfc5c55b5be526014cf2907e0ae65",
    20: "e010f4eab72bb8b7f8ad26a81957668540bf1c652272f5a106c7b5320c7afbc0",
}
# level 16's completion takes about a second on its own (0.9-1.2 s measured
# on a 2-vCPU machine) and level 20's 1,952 records, whose lifts meet
# lineality entries of 2, over a second, so their pins run in the slow lane;
# level 18's pin of 377 records takes about 0.5-0.65 s there and runs in the
# fast lane
SLOW_LEVELS = (16, 20)


@pytest.mark.parametrize("N", [pytest.param(N, marks=pytest.mark.slow)
                               if N in SLOW_LEVELS else N
                               for N in sorted(RECORD_HASHES)])
def test_generator_records_are_pinned(N):
    digest = hashlib.sha256(_records_json(N).encode()).hexdigest()
    assert digest == RECORD_HASHES[N]


@pytest.mark.parametrize("route", ["orders", "series"])
def test_generators_fail_when_constant_routes_disagree(monkeypatch, route):
    # spoil one route for one non-constant candidate: its orders from the
    # level's order table all read 0, or its series (lead exponent and the
    # transform of its exponents from the level's exponent table) reads as 1
    target = generators(10)[2].quotient
    if route == "orders":
        real = generators_module.table_orders

        def spoiled(N, vector):
            orders = real(N, vector)
            if quotient_from_scaled(N, vector) == target:
                return dict.fromkeys(orders, 0)
            return orders

        monkeypatch.setattr(generators_module, "table_orders", spoiled)
    else:
        real_lead = GenEtaQuotient.lead_exponent
        real = generators_module.euler_transform
        key = _spec_progressions(target.a, target.ag)

        def spoiled_lead(q):
            return Fraction(0) if q == target else real_lead(q)

        def spoiled(c):
            return [1] + [0] * (len(c) - 1) if c == _exponents(key, len(c)) else real(c)

        monkeypatch.setattr(GenEtaQuotient, "lead_exponent", spoiled_lead)
        monkeypatch.setattr(generators_module, "euler_transform", spoiled)
    with pytest.raises(AssertionError, match="constant detection disagrees"):
        generators.__wrapped__(10)      # bypass the cache, leave it untouched


def test_candidates_expand_to_the_head_or_to_50_terms_at_a_zero_lead(monkeypatch):
    # no pointed candidate of the levels tested has a zero lead, so hand the
    # completion's output a unit vector: its quotient is the constant 1.
    # The lineality vectors are checked the same way, each at a zero lead
    real_basis = generators_module.hilbert_basis
    units = []

    def with_unit(*args, **kwargs):
        pointed, lineality = real_basis(*args, **kwargs)
        units.append(len(lineality))
        return pointed + [lineality[0]], lineality

    seen = []
    real_check = generators_module.is_constant_one
    signature = inspect.signature(real_check)

    def spy(*args, **kwargs):
        call = signature.bind(*args, **kwargs).arguments
        seen.append((call["q"].lead_exponent(), len(call["coeffs"])))
        return real_check(*args, **kwargs)

    expect = generators(10)
    monkeypatch.setattr(generators_module, "hilbert_basis", with_unit)
    monkeypatch.setattr(generators_module, "is_constant_one", spy)
    assert generators.__wrapped__(10) == expect
    assert units[0] > 0
    assert len(seen) == len(expect) + 1 + units[0]
    for lead, length in seen:
        assert length == (50 if lead == 0 else generators_module.HEAD_TERMS)
    assert sum(lead == 0 for lead, _ in seen) == 1 + units[0]


def test_each_candidate_reads_its_lead_exponent_once(monkeypatch):
    expect = generators(18)
    built, reads = [], []
    real_quotient, real_lead = generators_module.quotient_from_scaled, etaram.eta.lead_exponent
    monkeypatch.setattr(generators_module, "quotient_from_scaled",
                        lambda *args: built.append(args) or real_quotient(*args))
    monkeypatch.setattr(etaram.eta, "lead_exponent",
                        lambda *args: reads.append(args) or real_lead(*args))
    assert generators.__wrapped__(18) == expect
    assert built and len(reads) <= len(built)


@pytest.mark.parametrize("N", [10, 11, 15])
def test_generators_expand_no_candidate_on_the_fast_route(monkeypatch, N):
    expect = generators(N)

    def forbidden(*args):
        raise AssertionError("fast-route product expanded")

    monkeypatch.setattr(etaram.eta, "_product_expansion", forbidden)
    monkeypatch.setattr(etaram.eta, "_PRODUCT_CACHE", {})
    assert generators.__wrapped__(N) == expect


@pytest.mark.parametrize("N", [10, 11, 14, 15, pytest.param(18, marks=pytest.mark.slow)])
def test_record_heads_match_the_fast_route(N):
    # the head is the transform of exponents combined from the level's
    # exponent table: the combined list must be the quotient's own, and the
    # head its product read through the cache and the fast route's
    # expansion from q**-pole on
    T = generators_module.HEAD_TERMS
    for g in generators(N):
        q = g.quotient
        assert table_exponents(N, g.scaled_vector, 50) == _exponents(
            _spec_progressions(q.a, q.ag), 50)
        assert list(g.head) == q.product_coefficients(T)
        exp = q.expansion(T)
        assert g.head == tuple(exp.coefficient(n) for n in range(-g.pole, -g.pole + T))


@pytest.mark.slow
def test_level_18_generator_count():
    assert len(generators(18)) == 377


def test_level_generators_never_reach_the_slack_completion(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a level system reached the slack completion")

    monkeypatch.setattr(lattice, "minimal_nonneg_solutions", forbidden)
    for N in list(range(2, 17)) + [18]:
        assert generators.__wrapped__(N) == generators(N), N


# the walk's node budget stops levels 17 and 19, the group order 23 and 32
@pytest.mark.parametrize("N, order, seconds", [
    (17, 584, 5), (19, 4383, 5), (23, 408991, 1), (32, 44697600, 1)])
def test_large_levels_raise_the_step_budget_early(N, order, seconds):
    t0 = time.perf_counter()
    with pytest.raises(StepBudgetExceeded, match="group of order %d " % order):
        generators.__wrapped__(N)
    assert time.perf_counter() - t0 < seconds


def test_generator_orders_nonnegative_and_integral():
    for N in [6, 10, 11]:
        for g in generators(N):
            for data in cusp_set(N):
                o = order_at_cusp(g.quotient, N, data)
                assert o.denominator == 1
                if not data.cusp.is_infinity:
                    assert o >= 0
            assert g.orders[INFINITY] == -g.pole



# a modular function's divisor has degree 0, so at every level the orders of
# a generator sum to 0; at level 4 that holds because the order at the
# irregular cusp 1/2 is counted in q^(1/width), width(4, 1/2) = 1
ORDER_SUM_LEVELS = [pytest.param(N, marks=pytest.mark.slow) if N in SLOW_LEVELS
                    else N for N in list(range(2, 17)) + [18, 20]]


@pytest.mark.parametrize("N", ORDER_SUM_LEVELS)
def test_generator_orders_sum_to_zero(N):
    for g in generators(N):
        assert sum(g.orders.values()) == 0, g.quotient


@pytest.mark.parametrize("N", ORDER_SUM_LEVELS)
def test_record_orders_match_the_closed_formula(N):
    # generators(N) reads every candidate's orders from the level's order
    # table by its scaled vector; order_at_cusp on its quotient's exponents
    # must give them cusp by cusp
    def closed_formula(q):
        return {data.cusp: order_at_cusp(q, N, data) for data in cusp_set(N)}

    for g in generators(N):
        assert g.orders == closed_formula(g.quotient), g.quotient
        assert list(g.orders) == [data.cusp for data in cusp_set(N)]
        assert all(type(o) is int for o in g.orders.values()), g.quotient
    for v in unit_lattice(N):
        orders = closed_formula(quotient_from_scaled(N, v))
        assert table_orders(N, v) == orders == dict.fromkeys(orders, 0)


def test_level_system_and_records_call_no_order_at_cusp(monkeypatch):
    # every name order_at_cusp is bound to in the package is counted, so a
    # call from any module shows
    calls = []
    real_order = order_at_cusp
    real_init = GenEtaQuotient.__init__

    def counted_order(*args):
        calls.append("order_at_cusp")
        return real_order(*args)

    def counted_init(self, *args, **kwargs):
        calls.append("GenEtaQuotient")
        real_init(self, *args, **kwargs)

    holders = [module for name, module in list(sys.modules.items())
               if name.split(".")[0] == "etaram" and getattr(module, "order_at_cusp", None)
               is real_order]
    assert etaram.cusps in holders
    for module in holders:
        monkeypatch.setattr(module, "order_at_cusp", counted_order)
    monkeypatch.setattr(GenEtaQuotient, "__init__", counted_init)
    # the system and its order table built anew, past the table's cache
    with monkeypatch.context() as patch:
        patch.setattr(generators_module, "order_table", etaram.cusps.order_table.__wrapped__)
        rows, nonneg = pole_free_system(18)
        table = etaram.cusps.order_table.__wrapped__(18)
    assert calls == []
    assert (rows, nonneg) == pole_free_system(18)
    assert table.forms == order_table(18).forms
    assert generators.__wrapped__(18) == generators(18)
    assert "order_at_cusp" not in calls and "GenEtaQuotient" in calls


def _monoid_membership(vec, alphas, alpha_grades, unit_cols, grade_of):
    """vec = sum u_i alpha_i + (unit lattice), u_i >= 0, graded search."""
    target = grade_of(vec)

    def rec(idx, remaining, acc):
        if remaining == 0:
            diff = [a - b for a, b in zip(vec, acc)]
            return solve_diophantine([list(r) for r in zip(*unit_cols)], diff) is not None
        if idx == len(alphas):
            return False
        g = alpha_grades[idx]
        u = 0
        while u * g <= remaining:
            acc2 = [a + u * b for a, b in zip(acc, alphas[idx])]
            if rec(idx + 1, remaining - u * g, acc2):
                return True
            if g == 0:
                break
            u += 1
        return False

    return rec(0, target, [0] * len(vec))


def test_mutual_membership_with_published_basis():
    n = len(exponent_slots(10))

    def finite_grade(vec):
        q = quotient_from_scaled(10, vec)
        total = 0
        for data in cusp_set(10):
            if not data.cusp.is_infinity:
                total += int(order_at_cusp(q, 10, data))
        return total

    units_mine = [list(u) for u in unit_lattice(10)]
    unit_cols_mine = lattice_hnf(units_mine, n)
    unit_cols_paper = lattice_hnf([list(b) for b in BETAS_10], n)

    paper_alphas = [list(a) for a in ALPHAS_10]
    paper_grades = [finite_grade(a) for a in paper_alphas]
    mine_alphas = [list(g.scaled_vector) for g in generators(10)]
    mine_grades = [finite_grade(a) for a in mine_alphas]

    # the published unit lattice and ours coincide
    for u in units_mine:
        assert solve_diophantine([list(r) for r in zip(*unit_cols_paper)], u) is not None
    for b in BETAS_10:
        assert solve_diophantine([list(r) for r in zip(*unit_cols_mine)],
                                 list(b)) is not None

    for vec in mine_alphas:
        assert _monoid_membership(vec, paper_alphas, paper_grades,
                                  unit_cols_paper, finite_grade)
    for vec in paper_alphas:
        assert _monoid_membership(vec, mine_alphas, mine_grades,
                                  unit_cols_mine, finite_grade)


def test_published_vectors_solve_the_system():
    retained = [data for data, _, _ in order_table(10).forms]
    for vec in ALPHAS_10 + BETAS_10:
        q = quotient_from_scaled(10, vec)
        for data in retained:
            o = order_at_cusp(q, 10, data)
            assert o.denominator == 1
            if not data.cusp.is_infinity:
                assert o >= 0, (vec, data.cusp)


def test_completeness_small_box_level_6():
    # every small solution vector lies in the generated monoid
    n = len(exponent_slots(6))
    gens = generators(6)

    def finite_grade(vec):
        q = quotient_from_scaled(6, vec)
        return sum(int(order_at_cusp(q, 6, d)) for d in cusp_set(6)
                   if not d.cusp.is_infinity)

    units = [list(u) for u in unit_lattice(6)]
    unit_cols = lattice_hnf(units, n)
    alphas = [list(g.scaled_vector) for g in gens]
    grades = [finite_grade(a) for a in alphas]

    # walk every exponent vector of the solution lattice in a small l1-ball
    # and confirm the generated monoid contains all of them
    lat = lattice_hnf(alphas + units, n)
    checked = 0
    for vec in enumerate_coset([0] * n, lat, weight_bound=14):
        q = quotient_from_scaled(6, vec)
        orders = {d.cusp: order_at_cusp(q, 6, d) for d in cusp_set(6)}
        if any(o.denominator != 1 for o in orders.values()):
            continue
        if any(o < 0 for c, o in orders.items() if not c.is_infinity):
            continue
        assert _monoid_membership(vec, alphas, grades, unit_cols, finite_grade), vec
        checked += 1
    assert checked > 50
