"""Level admissibility conditions and the prefactor search.

Given a partition spec and a progression m n + t, a level N has to satisfy a
finite list of congruence conditions before any quotient prefactor phi can
make  phi * (shifted progression series)  modular.  check_level evaluates the
list (seven conditions for plain specs, ten for specs with generalized
factors), find_level picks the smallest admissible divisor of 24 m M (it
tries only the multiples of M, since M | N is the first condition), and
find_prefactor solves the exponent conditions for a sparse integral phi.

The conditions' coefficient rows, and with them the lattice the passers'
coset runs over, depend on the level alone: each level holds them once, in
integers (_level_criterion, an lru_cache, for the rows; _prefactor_lattice,
built once per level under that level's lock, for the system's Hermite
form and the lattice's reachability tables), and a progression computes
only its constants.  The tables (lattice.CosetTables)
grow on demand to the largest radius a progression at the level has
needed, about nv (R+1)^2 |F| bits for nv exponents and the finite part F
of the lattice's quotient, and every later progression reads them as they
are.

Congruences with rational left-hand sides are read exactly: the value must be
an integer divisible by the stated modulus.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, wraps
from math import gcd, lcm

from .eta import GenEtaQuotient, PartitionSpec, b2_numerator, divisors
from .lattice import CosetTables, hnf_column, solve_diophantine
from .cusps import kappa


class NoPhiFound(RuntimeError):
    """No prefactor exponent vector inside the configured search weight."""


def jacobi_symbol(a: int, n: int) -> int:
    """Jacobi symbol (a / n) for odd positive n."""
    if n <= 0 or n % 2 == 0:
        raise ValueError("n must be odd and positive")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _is_divisible(value: Fraction, modulus: int) -> bool:
    q = Fraction(value, modulus)
    return q.denominator == 1


def _alpha_t(spec: PartitionSpec, t: int) -> int:
    # integral: 24 eta_shift is for a plain spec, and 24 M eta_shift is
    # because every d divides M
    return int(24 * (1 if spec.is_plain() else spec.M) * (spec.eta_shift() - t))


@dataclass
class LevelReport:
    N: int
    kappa: int
    alpha_t: int
    conditions: dict   # name -> (ok, detail)

    @property
    def ok(self) -> bool:
        return all(flag for flag, _ in self.conditions.values())

    def failures(self):
        return {k: d for k, (f, d) in self.conditions.items() if not f}


def _square_class_sweep(spec, m, t, N):
    """The progression-compatibility sweep over square residues: for each
    unit j = 1 (mod N) below n = 24 m M, s = j^2 mod n must have m dividing
    (s - 1)(t - l), read in integers as m b | (s - 1) a for t - l = a/b."""
    n = 24 * m * spec.M
    shift = t - spec.eta_shift()
    a, modulus = shift.numerator, m * shift.denominator
    seen = set()
    for j in range(1, n, N):
        if gcd(j, n) != 1:
            continue
        s = (j * j) % n
        if s in seen:
            continue
        seen.add(s)
        if (s - 1) * a % modulus:
            return False, "fails at square residue s=%d" % s
    return True, "all %d residues pass" % len(seen)


def check_level(spec: PartitionSpec, m: int, t: int, N: int) -> LevelReport:
    if not (m >= 1 and 0 <= t < m):
        raise ValueError("need m >= 1 and 0 <= t < m")
    k = kappa(m)
    alpha = _alpha_t(spec, t)
    M = spec.M
    conds = {}

    conds["M | N"] = (N % M == 0, "M=%d, N=%d" % (M, N))
    bad_p = [p for p in range(2, m + 1) if m % p == 0 and N % p
             and all(p % q for q in range(2, p))]
    conds["primes of m divide N"] = (not bad_p, "missing %s" % bad_p if bad_p else "ok")

    if not spec.is_plain():
        v3 = k * N * sum(Fraction(g, d) * e for (d, g), e in spec.rg.items())
        conds["paired exponent residue (mod 2)"] = (_is_divisible(v3, 2), str(v3))
        v4 = k * N * sum(spec.rg.values())
        conds["paired exponent count (mod 4)"] = (v4 % 4 == 0, str(v4))
        v5 = k * m * N * N * sum(Fraction(e, d) for (d, g), e in spec.rg.items())
        conds["paired scaled sum (mod 12)"] = (_is_divisible(v5, 12), str(v5))

    v6 = k * N * sum(spec.r.values())
    conds["plain exponent count (mod 8)"] = (v6 % 8 == 0, str(v6))
    v7 = k * m * N * N * sum(Fraction(e, d) for d, e in spec.r.items())
    conds["plain scaled sum (mod 24)"] = (_is_divisible(v7, 24), str(v7))

    base = 24 * m * (1 if spec.is_plain() else M)
    need = base // gcd(k * alpha, base) if alpha or k else base
    conds["shift divisibility"] = (N % need == 0, "requires %d | N" % need)

    prod = 1
    for d, e in spec.r.items():
        prod *= d ** abs(e)
    z2 = 0
    while prod % 2 == 0:
        prod //= 2
        z2 += 1
    if m % 2 == 0:
        ok = (k * N % 4 == 0 and N * z2 % 8 == 0) or (z2 % 2 == 0 and N * (prod - 1) % 8 == 0)
        conds["even progression parity"] = (ok, "2^%d * %d" % (z2, prod))
    else:
        conds["even progression parity"] = (True, "m odd")

    conds["square residue sweep"] = _square_class_sweep(spec, m, t, N)
    return LevelReport(N=N, kappa=k, alpha_t=alpha, conditions=conds)


def find_level(spec: PartitionSpec, m: int, t: int) -> int:
    """Smallest admissible N among the divisors of 24 m M: only multiples
    of M pass M | N, so it tries M d for d | 24 m, ascending."""
    for N in (spec.M * d for d in divisors(24 * m)):
        if check_level(spec, m, t, N).ok:
            return N
    raise RuntimeError("no admissible level found below %d" % (24 * m * spec.M))


# ---------------------------------------------------------------------------
# the modularity criterion for a candidate prefactor
# ---------------------------------------------------------------------------

def _phi_variables(N: int):
    plain = tuple(divisors(N))
    paired = tuple((d, g) for d in plain for g in range(1, d // 2 + 1))
    return plain, paired


@lru_cache(maxsize=None)
def _level_criterion(N: int):
    """The criterion's coefficient rows at level N, which depend on N alone.

    Returns (plain, paired, rows, units): rows holds (coefficients, modulus)
    per condition, with modulus 0 for the one equality; units holds the a of
    the sign rows, in order.  Row 3's coefficients 12 d B2(g/d) =
    2 b2_numerator(g, d) / d are cleared by the level's own denominator D,
    the lcm of theirs, which scales its modulus to 24 D.  The sign rows run
    over the units a = 1 (mod N) below 12 N, a = 1 excluded.
    """
    plain, paired = _phi_variables(N)
    rows = [((1,) * len(plain) + (0,) * len(paired), 0),
            (tuple([N // d for d in plain] + [2 * N // d for d, _ in paired]), 24)]
    b2 = [2 * b2_numerator(g, d) for d, g in paired]
    den = lcm(*(d // gcd(x, d) for x, (d, _) in zip(b2, paired)))
    rows.append((tuple([den * d for d in plain] + [den * x // d for x, (d, _) in zip(b2, paired)]),
                 24 * den))
    units = tuple(a for a in range(N + 1, 12 * N, N) if gcd(a, 6) == 1)
    for a in units:
        row = [1 if jacobi_symbol(d, a) == -1 else 0 for d in plain]
        for d, g in paired:
            coef, rem = divmod((a - 1) * (2 * g - d), 2 * d)
            if rem:
                raise ArithmeticError("non-integral sign exponent")
            row.append(coef % 2)
        rows.append((tuple(row), 2))
    return plain, paired, tuple(rows), units


def _criterion_rows(spec: PartitionSpec, m: int, t: int, N: int):
    """The four exponent conditions as integer rows over the phi exponents.

    Returns (plain, paired, rows), each row (coefficients, const, modulus):
    the form plus const must vanish, or be divisible by the modulus when
    that is not 0.  The coefficients and moduli are _level_criterion(N)'s;
    only the constants are the progression's own, computed here in
    integers.  rows is None when no integer vector passes: when row 2's
    constant is not an integer, or row 3's is not once cleared by D.
    """
    plain, paired, rows, units = _level_criterion(N)
    M = spec.M
    # row 2: N m (sum e/d over r + 2 sum e/d over rg), over the common M
    c2, r2 = divmod(N * m * (sum(e * (M // d) for d, e in spec.r.items())
                             + 2 * sum(e * (M // d) for (d, _), e in spec.rg.items())), M)
    # row 3: -24 (l + (m^2 - 1) t) / m for l = eta_shift = a/b, times D
    shift = spec.eta_shift()
    a, b = shift.numerator, shift.denominator
    c3, r3 = divmod(-rows[2][1] * (a + (m * m - 1) * t * b), m * b)
    if r2 or r3:
        return plain, paired, None
    consts = [sum(spec.r.values()), c2, c3]
    for u in units:
        const = sum(abs(e) for d, e in spec.r.items() if jacobi_symbol(m * d, u) == -1)
        for (d, g), e in spec.rg.items():
            # (u - 1)(2g - d) / 2d rounded toward zero: d need not divide N
            num = (u - 1) * (2 * g - d)
            q = abs(num) // (2 * d)
            const += (q if num >= 0 else -q) * e
        consts.append(const % 2)
    return plain, paired, [(row, c, mod) for (row, mod), c in zip(rows, consts)]


def is_modular_prefactor(spec: PartitionSpec, m: int, t: int, N: int,
                         phi: GenEtaQuotient) -> bool:
    """Exact test of the four exponent conditions for phi."""
    return _passes(_criterion_rows(spec, m, t, N), phi)


def _passes(criterion, phi: GenEtaQuotient) -> bool:
    """is_modular_prefactor on the rows of _criterion_rows."""
    plain, paired, rows = criterion
    if rows is None:
        return False
    vec = [phi.a.get(d, 0) for d in plain] + [phi.ag.get(k, 0) for k in paired]
    for row, const, modulus in rows:
        value = sum(c * v for c, v in zip(row, vec)) + const
        if (value % modulus if modulus else value) != 0:
            return False
    return True


def _once_per_level(build):
    """A cache over the level, cleared like an lru_cache, that builds each
    level once: threads that miss a level together wait on that level's
    lock for one build."""
    held, locks = {}, {}

    @wraps(build)
    def cached(N):
        value = held.get(N)
        if value is None:
            with locks.setdefault(N, threading.Lock()):
                value = held.get(N)
                if value is None:
                    value = held[N] = build(N)
        return value

    cached.cache_clear = held.clear
    return cached


@_once_per_level
def _prefactor_lattice(N: int):
    """The level-N criterion as one system A x = b, with one slack column per
    congruence row (form + const + modulus * s = 0), its hnf_column, and the
    CosetTables of the projection of its kernel to the phi exponents: the
    passers of every progression at level N form a coset of that lattice.
    Each level makes one set, which every thread reads."""
    _, _, rows, _ = _level_criterion(N)
    nslack = len(rows) - 1      # every row but the equality is a congruence
    A = [rows[0][0] + (0,) * nslack]
    for i, (row, mod) in enumerate(rows[1:]):
        A.append(row + (0,) * i + (mod,) + (0,) * (nslack - i - 1))
    H, U, pivots = hnf_column(A)
    hnf = tuple(map(tuple, H)), tuple(map(tuple, U)), tuple(pivots)
    return tuple(A), hnf, CosetTables(A, hnf, len(rows[0][0]))


def find_prefactor(spec: PartitionSpec, m: int, t: int, N: int,
                   weight_cap: int = 32) -> GenEtaQuotient:
    """Sparse integral prefactor passing the modularity criterion.

    Strategy: conditions (1)-(3) and the finitely many sign conditions are
    all linear (equalities or congruences) in the exponents, so the passers
    form a coset of an integer lattice L, which depends on N alone
    (_prefactor_lattice).  The progression solves for one point x0 of its
    coset against the level's Hermite form; its class in Z^nv / L = Z x F
    (the value of the equality row, and a residue in a finite group F,
    [24, 20] at level 10 and [24, 288] at 144) is all the search reads.
    The level's CosetTables hold, per suffix of the variables and per
    weight w, the classes that vectors of weight w reach; they grow on
    demand to the least radius R whose table holds the class, and the
    passer is then fixed one exponent at a time, each the least that keeps
    the class reachable.  That is the passer minimizing sum |exponents|,
    ties broken lexicographically on the exponent vector.  The tables serve
    every progression at the level and take about nv (R+1)^2 |F| bits.
    NoPhiFound means no passer has weight <= weight_cap.
    """
    criterion = plain, paired, rows = _criterion_rows(spec, m, t, N)
    A, hnf, tables = _prefactor_lattice(N)
    x0 = None if rows is None else solve_diophantine(A, [-c for _, c, _ in rows], hnf)
    if x0 is None:
        raise NoPhiFound("the exponent conditions are inconsistent at level %d" % N)
    found = tables.least(x0[:tables.dim], weight_cap)
    if found is None:
        raise NoPhiFound("no prefactor with exponent weight <= %d" % weight_cap)

    vec = found[1]
    a = {d: vec[i] for i, d in enumerate(plain) if vec[i]}
    ag = {key: vec[len(plain) + i] for i, key in enumerate(paired) if vec[len(plain) + i]}
    phi = GenEtaQuotient(N, a, ag)
    if not _passes(criterion, phi):
        raise AssertionError("lattice enumeration produced a non-passer")
    return phi
