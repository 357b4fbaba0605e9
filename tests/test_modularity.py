import random
import sys
import threading
import time
from fractions import Fraction
from math import gcd

import pytest

import etaram.modularity as modularity
from etaram.eta import GenEtaQuotient, PartitionSpec
from etaram.identities import dissect
from etaram.lattice import (
    CosetTables, enumerate_coset, kernel_basis, lattice_hnf, solve_diophantine,
)
from etaram.modularity import (
    NoPhiFound, check_level, find_level, find_prefactor, is_modular_prefactor,
    jacobi_symbol, _criterion_rows, _phi_variables,
)
from oracles import bernoulli_p2

OVERPARTITION = PartitionSpec(2, {1: -2, 2: 1})
PARTITION = PartitionSpec(1, {1: -1})
SINGULAR = PartitionSpec(6, {1: -1, 3: 1}, {(3, 1): -1, (6, 2): 1})
RR = PartitionSpec(5, rg={(5, 1): -1, (5, 2): 1})


def test_jacobi_symbol_against_eulers_criterion():
    for p in [3, 5, 7, 11, 13]:
        for a in range(1, p):
            assert jacobi_symbol(a, p) == (1 if pow(a, (p - 1) // 2, p) == 1 else -1)
    assert jacobi_symbol(2, 15) == jacobi_symbol(2, 3) * jacobi_symbol(2, 5)


def test_check_level_published_cases():
    assert check_level(OVERPARTITION, 5, 2, 10).ok
    assert check_level(PARTITION, 11, 6, 11).ok
    assert check_level(SINGULAR, 9, 3, 6).ok


def test_find_level_published_cases():
    assert find_level(OVERPARTITION, 5, 2) == 10
    assert find_level(PARTITION, 11, 6) == 11
    assert find_level(SINGULAR, 9, 3) == 6
    assert find_level(SINGULAR, 9, 6) == 6
    assert find_level(RR, 2, 0) == 10


def test_level_one_sweeps_every_unit():
    # every unit is 1 mod 1, so at N = 1 the sweep reads all of them: the
    # unit 7 mod 120 squares to 49, and 5 does not divide 48 (0 - 1/24)
    sweep = check_level(PARTITION, 5, 0, 1).conditions["square residue sweep"]
    assert sweep == (False, "fails at square residue s=49")
    # every unit mod 24 squares to 1
    sweep = check_level(PARTITION, 1, 0, 1).conditions["square residue sweep"]
    assert sweep == (True, "all 1 residues pass")


def _least_level_by_search(spec, m, t):
    """The least divisor of 24 m M that passes check_level, or None."""
    bound = 24 * m * spec.M
    return next((N for N in range(1, bound + 1)
                 if bound % N == 0 and check_level(spec, m, t, N).ok), None)


def test_find_level_is_the_least_admissible_divisor():
    plain_m1 = paired = found = 0
    for spec, m, t, _ in _random_cases(23, 160):
        expected = _least_level_by_search(spec, m, t)
        if expected is None:
            with pytest.raises(RuntimeError, match="no admissible level"):
                find_level(spec, m, t)
        else:
            assert find_level(spec, m, t) == expected, (spec, m, t)
            found += 1
        plain_m1 += spec.M == 1
        paired += not spec.is_plain()
    assert plain_m1 >= 10 and paired >= 50 and found >= 100


def test_find_level_tries_only_multiples_of_M(monkeypatch):
    tried = []
    real = modularity.check_level

    def spy(spec, m, t, N):
        tried.append((spec.M, N))
        return real(spec, m, t, N)

    monkeypatch.setattr(modularity, "check_level", spy)
    for spec, m, t, _ in _random_cases(23, 160):
        try:
            find_level(spec, m, t)
        except RuntimeError:
            pass
    assert tried and all(N % M == 0 for M, N in tried)
    assert any(M > 1 for M, _ in tried)


def test_degenerate_progression_level():
    N = find_level(PARTITION, 1, 0)
    assert check_level(PARTITION, 1, 0, N).ok


def test_full_level_always_admissible():
    rng = random.Random(77)
    for _ in range(12):
        M = rng.choice([1, 2, 3, 4, 6])
        r = {d: rng.randint(-3, 3) for d in range(1, M + 1) if M % d == 0}
        rg = {}
        if rng.random() < 0.5:
            d = rng.choice([x for x in range(2, M + 1) if M % x == 0] or [None])
            if d:
                rg[(d, rng.randint(1, d - 1))] = rng.randint(-2, 2)
        spec = PartitionSpec(M, r, rg)
        m = rng.choice([2, 3, 5])
        t = rng.randrange(m)
        assert check_level(spec, m, t, 24 * m * M).ok, (spec, m, t)


def test_prefactor_criterion_published_vector():
    phi = GenEtaQuotient(10, a={10: 1}, ag={(10, 4): -8, (10, 5): 9})
    assert is_modular_prefactor(OVERPARTITION, 5, 2, 10, phi)
    perturbed = GenEtaQuotient(10, a={10: 1}, ag={(10, 4): -8, (10, 5): 8})
    assert not is_modular_prefactor(OVERPARTITION, 5, 2, 10, perturbed)


def test_prefactor_for_partition_progression():
    phi = find_prefactor(PARTITION, 11, 6, 11)
    assert phi.a == {11: 1} and phi.ag == {}
    # eta(11 tau) makes F = q (q^11; q^11) * sum p(11n+6) q^n: check exponents
    F = phi.expansion(30) * PARTITION.slice_expansion(11, 6, 30)
    assert F.denom == 1
    assert F.leading()[0] == 1


def test_prefactor_trivial_progression():
    phi = find_prefactor(PARTITION, 1, 0, 1)
    assert phi.a == {1: 1}
    F = phi.expansion(60) * PARTITION.slice_expansion(1, 0, 60)
    assert F.coefficient(0) == 1
    assert all(F.coefficient(n) == 0 for n in range(1, 50))


def test_found_prefactors_pass_and_give_integral_exponents():
    cases = [(OVERPARTITION, 5, 2, 10), (OVERPARTITION, 5, 3, 10),
             (SINGULAR, 9, 3, 6), (RR, 2, 1, 10)]
    for spec, m, t, N in cases:
        phi = find_prefactor(spec, m, t, N)
        assert is_modular_prefactor(spec, m, t, N, phi)
        F = phi.expansion(110) * spec.slice_expansion(m, t, 110)
        assert F.denom == 1, (spec, m, t)


def _sign_units(N):
    """The units a the sign conditions run over, in the order of their rows."""
    return [a for a in range(2, 12 * N) if gcd(a, 6) == 1 and (a - 1) % N == 0]


def test_sign_condition_multiplicative():
    rng = random.Random(31)
    spec = OVERPARTITION
    N, m, t = 10, 5, 2
    plain, paired, rows = _criterion_rows(spec, m, t, N)
    sign_rows = rows[3:]
    assert all(mod == 2 for _, _, mod in sign_rows)
    assert len(sign_rows) == len(_sign_units(N))
    by_a = {a: (row, const) for a, (row, const, _) in zip(_sign_units(N), sign_rows)}

    def val(a, vec):
        row, const = by_a[a]
        return (-1) ** ((sum(c * v for c, v in zip(row, vec)) + const) % 2)

    alist = sorted(by_a)
    for _ in range(40):
        vec = [rng.randint(-4, 4) for _ in range(len(plain) + len(paired))]
        a1, a2 = rng.choice(alist), rng.choice(alist)
        prod = (a1 * a2) % (12 * N)
        if prod in by_a:
            assert val(prod, vec) == val(a1, vec) * val(a2, vec)


def test_no_prefactor_within_tiny_weight():
    with pytest.raises(NoPhiFound):
        find_prefactor(OVERPARTITION, 5, 2, 10, weight_cap=1)


def _fresh_tables(N):
    """Level N's CosetTables after emptying the level caches."""
    modularity._level_criterion.cache_clear()
    modularity._prefactor_lattice.cache_clear()
    return modularity._prefactor_lattice(N)[2]


@pytest.mark.parametrize("spec, m, t, N, weight", [
    (OVERPARTITION, 5, 2, 10, 3), (SINGULAR, 9, 3, 6, 2), (RR, 2, 0, 10, 4),
    (RR, 2, 1, 10, 2), (PARTITION, 11, 6, 11, 1)])
def test_prefactor_search_stops_at_the_first_occupied_radius(spec, m, t, N, weight):
    tables = _fresh_tables(N)
    phi = find_prefactor(spec, m, t, N)
    # the tables grew to the optimum's weight and no further
    assert tables._tables[0] == weight
    # the answer is the least (weight, vector) of the whole coset, read here
    # from an enumerate_coset ball two steps past the optimum
    A, hnf, _ = modularity._prefactor_lattice(N)
    x0 = solve_diophantine(A, [-c for _, c, _ in _criterion_rows(spec, m, t, N)[2]], hnf)
    nv = tables.dim
    basis = [v[:nv] for v in kernel_basis(A, hnf)]
    best = min((sum(map(abs, v)), tuple(v)) for v in enumerate_coset(x0[:nv], basis, weight + 2))
    assert best[0] == weight
    plain, paired = _phi_variables(N)
    vec = best[1]
    assert phi == GenEtaQuotient(N, dict(zip(plain, vec)), dict(zip(paired, vec[len(plain):])))


def test_prefactor_weight_cap_bounds_the_deepening():
    tables = _fresh_tables(10)
    with pytest.raises(NoPhiFound, match="^no prefactor with exponent weight <= 2$"):
        find_prefactor(OVERPARTITION, 5, 2, 10, weight_cap=2)
    assert tables._tables[0] == 2
    phi = find_prefactor(OVERPARTITION, 5, 2, 10, weight_cap=3)
    assert is_modular_prefactor(OVERPARTITION, 5, 2, 10, phi)
    assert tables._tables[0] == 3
    # cap 0 still reads radius 0, and a spec that is its own modular
    # function takes phi = 1 there
    tables = _fresh_tables(1)
    phi = find_prefactor(PartitionSpec(1, {}), 1, 0, 1, weight_cap=0)
    assert phi.a == {} and phi.ag == {} and tables._tables[0] == 0
    with pytest.raises(NoPhiFound, match="^no prefactor with exponent weight <= -1$"):
        find_prefactor(PARTITION, 1, 0, 1, weight_cap=-1)


# -- the level and prefactor conditions read one leading exponent ---------------

def _random_spec(rng):
    """A spec over a small M, with rg keys up to and including 2g = d."""
    M = rng.choice([1, 2, 3, 4, 5, 6, 8, 10, 12])
    ds = [d for d in range(1, M + 1) if M % d == 0]
    r = {d: rng.randint(-4, 4) for d in rng.sample(ds, rng.randint(0, len(ds)))}
    keys = [(d, g) for d in ds for g in range(1, d // 2 + 1)]
    rg = {k: rng.randint(-3, 3) for k in rng.sample(keys, rng.randint(0, min(3, len(keys))))}
    return PartitionSpec(M, r, rg)


def _random_cases(seed, count):
    """(spec, m, t, N) with N a divisor of 24 m M up to 120."""
    rng = random.Random(seed)
    for _ in range(count):
        spec = _random_spec(rng)
        m = rng.randint(1, 12)
        bound = 24 * m * spec.M
        N = rng.choice([d for d in range(1, 121) if bound % d == 0])
        yield spec, m, rng.randrange(m), N


def _alpha_t_by_sums(spec, t):
    """alpha(t) summed factor by factor, as first written."""
    if spec.is_plain():
        return -sum(d * e for d, e in spec.r.items()) - 24 * t
    M = spec.M
    val = -M * sum(d * e for d, e in spec.r.items()) - 24 * M * t
    extra = sum(12 * M * d * bernoulli_p2(Fraction(g, d)) * e
                for (d, g), e in spec.rg.items())
    return val - extra


def _sweep_by_sums(spec, m, t, N):
    """The square residue sweep with its value summed factor by factor."""
    n = 24 * m * spec.M
    seen = set()
    plain_sum = sum(d * e for d, e in spec.r.items())
    gen_sum = sum(Fraction(d, 2) * bernoulli_p2(Fraction(g, d)) * e
                  for (d, g), e in spec.rg.items())
    for j in range(1, n, N):
        if gcd(j, n) != 1:
            continue
        s = (j * j) % n
        if s in seen:
            continue
        seen.add(s)
        value = Fraction(s - 1, 24) * plain_sum + (s - 1) * gen_sum + t * s - t
        if Fraction(value, m).denominator != 1:
            return False, "fails at square residue s=%d" % s
    return True, "all %d residues pass" % len(seen)


def _const3_by_sums(spec, m, t):
    const3 = Fraction(m) * sum(d * e for d, e in spec.r.items())
    const3 += 12 * m * sum(d * bernoulli_p2(Fraction(g, d)) * e
                           for (d, g), e in spec.rg.items())
    alpha = _alpha_t_by_sums(spec, t)
    return const3 + Fraction((m * m - 1) * alpha, m * (1 if spec.is_plain() else spec.M))


def _const2_by_sums(spec, m, N):
    return (N * m * sum(Fraction(e, d) for d, e in spec.r.items())
            + 2 * N * m * sum(Fraction(e, d) for (d, g), e in spec.rg.items()))


def test_conditions_from_eta_shift_match_the_factor_sums():
    halves = passes = inconsistent = 0
    for spec, m, t, N in _random_cases(19, 150):
        halves += any(2 * g == d for d, g in spec.rg)
        assert modularity._alpha_t(spec, t) == _alpha_t_by_sums(spec, t), spec
        verdict = modularity._square_class_sweep(spec, m, t, N)
        assert verdict == _sweep_by_sums(spec, m, t, N), (spec, m, t, N)
        passes += verdict[0]
        # row 3's constant over the level's own denominator, modulus // 24
        modulus = modularity._level_criterion(N)[2][2][1]
        rows = _criterion_rows(spec, m, t, N)[2]
        if rows is None:
            # no integer vector passes: a constant is not integral once cleared
            assert (Fraction(_const2_by_sums(spec, m, N)).denominator != 1
                    or (_const3_by_sums(spec, m, t) * (modulus // 24)).denominator != 1)
            inconsistent += 1
            continue
        assert rows[1][1] == _const2_by_sums(spec, m, N)
        _, const3, row_modulus = rows[2]
        assert row_modulus == modulus
        assert Fraction(const3, modulus // 24) == _const3_by_sums(spec, m, t)
    assert halves >= 20 and passes >= 10 and inconsistent >= 5


def test_eta_shift_is_minus_the_quotient_lead():
    for spec, _, _, _ in _random_cases(19, 150):
        quot = GenEtaQuotient(spec.M, spec.r, spec.rg)
        assert spec.eta_shift() == -quot.lead_exponent(), spec


def _criterion_in_fractions(spec, m, t, N, phi):
    """The four exponent conditions on phi, each summed in Fractions."""
    a, ag = phi.a, phi.ag
    if sum(a.values()) + sum(spec.r.values()):
        return False
    v2 = (N * sum(Fraction(e, d) for d, e in a.items())
          + 2 * N * sum(Fraction(e, d) for (d, g), e in ag.items())
          + N * m * sum(Fraction(e, d) for d, e in spec.r.items())
          + 2 * N * m * sum(Fraction(e, d) for (d, g), e in spec.rg.items()))
    if Fraction(v2, 24).denominator != 1:
        return False
    v3 = (sum(d * e for d, e in a.items())
          + sum(12 * d * bernoulli_p2(Fraction(g, d)) * e for (d, g), e in ag.items())
          + _const3_by_sums(spec, m, t))
    if Fraction(v3, 24).denominator != 1:
        return False
    for u in _sign_units(N):
        sign = Fraction(1)
        for d, e in a.items():
            sign *= Fraction(jacobi_symbol(d, u)) ** e
        for d, e in spec.r.items():
            sign *= Fraction(jacobi_symbol(m * d, u)) ** abs(e)
        for (d, g), e in list(ag.items()) + list(spec.rg.items()):
            power = Fraction((u - 1) * (2 * g - d), 2 * d) * e
            assert power.denominator == 1
            sign *= Fraction(-1) ** int(power)
        if sign != 1:
            return False
    return True


def test_integer_rows_agree_with_the_fraction_conditions():
    # seeded passers and every one-exponent perturbation of them
    passers = perturbed = 0
    for spec, m, t, N in _random_cases(41, 200):
        if N > 30 or not check_level(spec, m, t, N).ok:
            continue
        try:
            phi = find_prefactor(spec, m, t, N)
        except NoPhiFound:
            continue
        assert _criterion_in_fractions(spec, m, t, N, phi)
        assert is_modular_prefactor(spec, m, t, N, phi)
        passers += 1
        plain, paired = _phi_variables(N)
        for step in (-1, 1):
            for d in plain:
                a = dict(phi.a)
                a[d] = a.get(d, 0) + step
                q = GenEtaQuotient(N, a, phi.ag)
                assert (is_modular_prefactor(spec, m, t, N, q)
                        == _criterion_in_fractions(spec, m, t, N, q)), (spec, m, t, q)
                perturbed += 1
            for key in paired:
                ag = dict(phi.ag)
                ag[key] = ag.get(key, 0) + step
                q = GenEtaQuotient(N, phi.a, ag)
                assert (is_modular_prefactor(spec, m, t, N, q)
                        == _criterion_in_fractions(spec, m, t, N, q)), (spec, m, t, q)
                perturbed += 1
    assert passers >= 10 and perturbed >= 200


# -- the prefactor lattice, held once per level ------------------------------

def test_level_one_has_the_sign_rows_of_its_units():
    # every unit is 1 mod 1, so level 1 reads the sign rows for 5, 7 and 11
    assert _sign_units(1) == [5, 7, 11]
    plain, paired, rows = _criterion_rows(PARTITION, 73, 70, 1)
    assert len(rows) == 3 + 3 and all(mod == 2 for _, _, mod in rows[3:])
    # eta(tau) passes the first three conditions for p(73n + 70), but
    # jacobi(73, a) = -1 for a = 5, 7 and 11, so the sign conditions fail
    assert all(jacobi_symbol(73, a) == -1 for a in _sign_units(1))
    assert not is_modular_prefactor(PARTITION, 73, 70, 1, GenEtaQuotient(1, {1: 1}))
    # N = 1 is admissible for m = 1 only, where every sign row is zero with
    # constant 0
    assert all(not any(row) and const == 0
               for row, const, _ in _criterion_rows(PARTITION, 1, 0, 1)[2][3:])


def _prefactor_by_per_call_lattice(spec, m, t, N, weight_cap=32):
    """The deepening as first written: the lattice built afresh from the
    rows on every call, and enumerate_coset run per radius."""
    plain, paired, rows = _criterion_rows(spec, m, t, N)
    inconsistent = NoPhiFound("the exponent conditions are inconsistent at level %d" % N)
    if rows is None:
        raise inconsistent
    nv = len(plain) + len(paired)
    # one slack column per congruence row: form + const + modulus * s = 0
    nslack = sum(1 for _, _, mod in rows if mod)
    A = []
    slack = nv
    for row, _, mod in rows:
        A.append(list(row) + [0] * nslack)
        if mod:
            A[-1][slack] = mod
            slack += 1
    x0 = solve_diophantine(A, [-const for _, const, _ in rows])
    if x0 is None:
        raise inconsistent
    basis = lattice_hnf([v[:nv] for v in kernel_basis(A)], nv)
    for radius in range(weight_cap + 1):
        points = enumerate_coset(x0[:nv], basis, radius)
        if points:
            break
    else:
        raise NoPhiFound("no prefactor with exponent weight <= %d" % weight_cap)
    vec = min((sum(map(abs, v)), tuple(v)) for v in points)[1]
    return GenEtaQuotient(N, dict(zip(plain, vec)), dict(zip(paired, vec[len(plain):])))


def _outcome(search, *args):
    try:
        return search(*args)
    except NoPhiFound as exc:
        return str(exc)


def _level_draw(seed, count, max_level):
    """(spec, m, t, N) with N the found level, at most max_level."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        spec = _random_spec(rng)
        m = rng.choice([2, 3, 5, 7, 9, 11])
        t = rng.randrange(m)
        try:
            N = find_level(spec, m, t)
        except RuntimeError:
            continue
        if N <= max_level:
            out.append((spec, m, t, N))
    return out


def test_prefactor_search_matches_the_per_call_lattice():
    # found levels up to 28, and the drawn levels of _random_cases up to 28,
    # where most systems are inconsistent
    cases = _level_draw(43, 200, 28)
    cases += [c for c in _random_cases(47, 120) if c[3] <= 28]
    paired = failed = 0
    for spec, m, t, N in cases:
        for cap in (32, 2):
            got = _outcome(find_prefactor, spec, m, t, N, cap)
            assert got == _outcome(_prefactor_by_per_call_lattice, spec, m, t, N, cap), \
                (spec, m, t, N, cap)
            failed += isinstance(got, str)
        paired += not spec.is_plain()
    assert len(cases) >= 250 and paired >= 100 and failed >= 100


def test_a_dissection_builds_the_level_lattice_once(monkeypatch):
    factored = []
    real = modularity.hnf_column

    def spy(*args, **kwargs):
        factored.append(len(args[0][0]))
        return real(*args, **kwargs)

    monkeypatch.setattr(modularity, "hnf_column", spy)
    modularity._prefactor_lattice.cache_clear()
    slices = dissect(PARTITION, 7)
    assert [i.N for i in slices] == [7] * 7
    assert all(i.status == "Derived" for i in slices)
    # one factorization for all seven residues: the level-7 system
    assert factored == [len(modularity._prefactor_lattice(7)[0][0])]


def test_a_dissection_grows_the_level_tables_once(monkeypatch):
    grown = []
    real = CosetTables._grown

    def spy(tables):
        out = real(tables)
        grown.append((tables, out[0]))
        return out

    monkeypatch.setattr(CosetTables, "_grown", spy)
    tables = _fresh_tables(7)
    slices = dissect(PARTITION, 7)
    assert all(i.status == "Derived" for i in slices)
    # the first residue grows the level's one set of tables to radius 3, the
    # weight every residue needs, and the other six read them as they are
    assert grown == [(tables, 1), (tables, 2), (tables, 3)]
    assert modularity._prefactor_lattice(7)[2] is tables


def test_a_row_three_constant_not_integral_once_cleared_is_inconsistent():
    # at level 5 row 3 is cleared by D = 5, and p(2n)'s constant
    # -24 (1/24) / 2 = -1/2 stays fractional, while row 2's is an integer
    rows = modularity._level_criterion(5)[2]
    assert rows[2][1] == 24 * 5
    assert _const2_by_sums(PARTITION, 2, 5) == -10
    assert _const3_by_sums(PARTITION, 2, 0) * 5 == Fraction(-5, 2)
    assert _criterion_rows(PARTITION, 2, 0, 5)[2] is None
    with pytest.raises(NoPhiFound, match="^the exponent conditions are inconsistent at level 5$"):
        find_prefactor(PARTITION, 2, 0, 5)
    for a in range(-2, 3):
        assert not is_modular_prefactor(PARTITION, 2, 0, 5, GenEtaQuotient(5, {1: a, 5: 1 - a}))


def test_concurrent_searches_share_the_level_lattice():
    cases = [(OVERPARTITION, 5, t, 10) for t in (2, 3)] + [(RR, 2, t, 10) for t in (0, 1)]
    serial = [find_prefactor(*case) for case in cases]
    modularity._level_criterion.cache_clear()
    modularity._prefactor_lattice.cache_clear()
    results = [None] * len(cases)
    barrier = threading.Barrier(len(cases))

    def run(i):
        barrier.wait(timeout=60)
        results[i] = [find_prefactor(*cases[i]) for _ in range(40)]

    # four threads miss the emptied level caches together, then walk the
    # one level-10 walker at once, 40 searches each
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(cases))]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert results == [[phi] * 40 for phi in serial]


def test_concurrent_searches_grow_each_radius_once(monkeypatch):
    # weights 4, 3, 2 and 3 at level 10: from emptied caches, the threads
    # race to build the level's tables and to grow them, four times over
    cases = [(RR, 2, 0, 10), (OVERPARTITION, 5, 2, 10), (RR, 2, 1, 10), (OVERPARTITION, 5, 3, 10)]
    serial = [find_prefactor(*case) for case in cases]
    grown = []
    real = CosetTables._grown

    def spy(tables):
        out = real(tables)
        grown.append((tables, out[0]))
        time.sleep(0.002)       # hold the growth open while the others search
        return out

    def run(i):
        barrier.wait(timeout=60)
        results[i] = [find_prefactor(*cases[i]) for _ in range(10)]

    monkeypatch.setattr(CosetTables, "_grown", spy)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(4):
            modularity._level_criterion.cache_clear()
            modularity._prefactor_lattice.cache_clear()
            grown.clear()
            results = [None] * len(cases)
            barrier = threading.Barrier(len(cases))
            threads = [threading.Thread(target=run, args=(i,)) for i in range(len(cases))]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
            assert not any(th.is_alive() for th in threads)
            assert results == [[phi] * 10 for phi in serial]
            # threads that miss the cache together share the level's one set
            # of tables; it grows one radius at a time, each once, and the
            # weight-4 search grows it to radius 4
            for tables in {id(t): t for t, _ in grown}.values():
                radii = [r for t, r in grown if t is tables]
                assert radii == list(range(1, len(radii) + 1))
            assert max(r for _, r in grown) == 4
    finally:
        sys.setswitchinterval(old)


def test_threads_that_miss_a_level_together_build_it_once(monkeypatch):
    # four threads ask for the fresh level-30 lattice at once, while its one
    # construction is held open; the other three wait for it and read it
    built = []
    real = modularity.CosetTables

    def spy(*args):
        built.append(threading.get_ident())
        time.sleep(0.05)
        return real(*args)

    monkeypatch.setattr(modularity, "CosetTables", spy)
    modularity._prefactor_lattice.cache_clear()
    barrier = threading.Barrier(4)
    results = [None] * 4

    def run(i):
        barrier.wait(timeout=60)
        results[i] = modularity._prefactor_lattice(30)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert len(built) == 1
    assert all(result is results[0] for result in results)
    assert find_prefactor(PARTITION, 5, 4, 30) == find_prefactor(PARTITION, 5, 4, 30)
    assert len(built) == 1
    modularity._prefactor_lattice.cache_clear()


@pytest.mark.slow
def test_prefactors_at_levels_64_and_144_are_pinned():
    # p(8n+7) and p(6n+5): the deepening coset walk took 1 s and 64 s
    assert find_level(PARTITION, 8, 7) == 64
    assert find_prefactor(PARTITION, 8, 7, 64) == GenEtaQuotient(
        64, {32: 1}, {(32, 15): 1, (64, 22): 1})
    assert find_level(PARTITION, 6, 5) == 144
    # from emptied caches, so the time includes the level's set-up
    modularity._level_criterion.cache_clear()
    modularity._prefactor_lattice.cache_clear()
    start = time.perf_counter()
    phi = find_prefactor(PARTITION, 6, 5, 144)
    assert time.perf_counter() - start < 5
    assert phi == GenEtaQuotient(144, {72: 1}, {(48, 4): -1, (72, 29): 1})
