"""The four workloads: which cases run, one fresh process per case, and the
published facts the checks hold each operation to.

Plain data and the standard library only.  The parent process reads these
definitions to build its reference without importing etaram; the worker turns
them into etaram inputs.

An operation is one call into etaram's public API:

    derive        derive_identity(spec, m, t, DeriveOptions(order=...))
    dissect       dissect(spec, m, DeriveOptions(order=...))
    generators    generators(N)
    module_basis  module_basis(generators(N))
    verify        verify_identity(lhs, rhs, order)
"""

from __future__ import annotations

import random

OVERPARTITION = {"M": 2, "r": {"1": -2, "2": 1}}
PARTITION = {"M": 1, "r": {"1": -1}}
SINGULAR = {"M": 6, "r": {"1": -1, "3": 1}, "rg": {"3/1": -1, "6/2": 1}}
DIAMOND = {"M": 10, "r": {"1": -3, "2": 1, "5": 1, "10": -1}}
ROGERS_RAMANUJAN = {"M": 5, "rg": {"5/1": -1, "5/2": 1}}
ROGERS_RAMANUJAN_INV = {"M": 5, "rg": {"5/1": 1, "5/2": -1}}

# the level-6 variable in which the singular-overpartition witnesses are stated
Z_STATED_6 = {"N": 6, "a": {"1": -3, "2": 3, "3": 9, "6": -9}}

# terms of Identity.slice_series compared with the reference a(m n + t)
SLICE_TERMS = 50

# coefficients past the lead compared for each generator expansion
GENERATOR_TERMS = 20

# order to which each generator must reduce to a zero remainder
REDUCE_ORDER = 20


def derive(label, spec, m, t, order=0, **expect):
    return {"op": "derive", "label": label, "spec": spec, "m": m, "t": t,
            "order": order, "expect": expect}


def dissect(label, spec, m, order, slices):
    """slices[t] is the published form (a term list) of sum a(m n + t) q^n."""
    return {"op": "dissect", "label": label, "spec": spec, "m": m,
            "order": order, "expect": {"slices": slices}}


CORPUS = [
    [derive("over-5n+2", OVERPARTITION, 5, 2, 100, modulus=4,
            rhs={0: {3: 4, 2: 4, 1: -32, 0: 32}})],
    [derive("over-5n+3", OVERPARTITION, 5, 3, 100, modulus=4,
            rhs={0: {3: 8, 2: -12, 1: 16, 0: -16}})],
    [derive("p-5n+4", PARTITION, 5, 4, 100, modulus=5, rhs={0: {0: 5}})],
    [derive("singular-9n+3", SINGULAR, 9, 3, 100, level=6,
            over_z={1: 6, 0: 96})],
    [derive("singular-9n+6", SINGULAR, 9, 6, 100, level=6,
            over_z={1: 24, 0: 96})],
    [derive("p-11n+6", PARTITION, 11, 6, 150, modulus=11, rhs={
        0: {10: 11, 9: 330, 8: -990, 7: 792, 6: 44, 5: -132, 4: -451,
            3: 748, 2: -429, 1: 77, 0: 11},
        1: {8: 121, 7: -484, 6: 484, 5: -484, 4: 1089, 3: -1452, 2: 968,
            1: -242}})],
    [dissect("rogers-ramanujan-2", ROGERS_RAMANUJAN, 2, 100, {
        0: [(1, 0, {(4, 10): 2, (6, 10): 2, (3, 10): -1, (7, 10): -1,
                    (5, 10): -2})],
        1: [(1, 0, {(1, 10): 1, (9, 10): 1, (4, 10): 1, (6, 10): 1,
                    (2, 10): -1, (8, 10): -1, (5, 10): -2})]})],
    [dissect("rogers-ramanujan-inverse-2", ROGERS_RAMANUJAN_INV, 2, 100, {
        0: [(1, 0, {(2, 10): 2, (8, 10): 2, (1, 10): -1, (9, 10): -1,
                    (5, 10): -2})],
        1: [(-1, 0, {(2, 10): 1, (8, 10): 1, (3, 10): 1, (7, 10): 1,
                     (4, 10): -1, (6, 10): -1, (5, 10): -2})]})],
]

# both broken-diamond progressions in one process, default options
DIAMOND_CASES = [[
    derive("diamond-25n+14", DIAMOND, 25, 14, modulus=5, degree=57,
           known={57: 10445, 0: -7036874417766400}),
    derive("diamond-25n+24", DIAMOND, 25, 24, modulus=5, degree=57),
]]


def level(N, basis=True, count=None, width=None):
    ops = [{"op": "generators", "label": "generators-%d" % N, "N": N,
            "expect": {"count": count}}]
    if basis:
        ops.append({"op": "module_basis", "label": "module-basis-%d" % N,
                    "N": N, "expect": {"width": width}})
    return ops


# level 11: 27 generators and the basis (1, e), as the acceptance gate states.
# generators(18) is the case where the lattice does most of the work: about
# half of its 20 s is hilbert_basis.  Its module basis (about 40 s) is left
# out to keep a run short; bench/figures.py times it on its own.
LEVELS = [level(11, count=27, width=1), level(12), level(14), level(15),
          level(18, basis=False)]

# a term list [(c, s, P factors)] means sum c q^s prod P(g, d)^e; a verify
# side is a term list or ("slice", terms, m, t)
P_INV = [(1, 0, {(0, 1): -1})]
VERIFY_IDENTITIES = [
    ("p-5n+4", ("slice", P_INV, 5, 4),
     [(5, 0, {(0, 5): 5, (0, 1): -6})], 500),
    ("p-5n", ("slice", P_INV, 5, 0),
     [(1, 0, {(0, 5): 1, (0, 1): -2, (1, 5): -8, (4, 5): -8}),
      (-3, 1, {(0, 5): 6, (1, 5): 2, (4, 5): 2, (0, 1): -7})], 500),
    ("rogers-ramanujan-cf-2", [(1, 0, {(2, 5): 1, (3, 5): 1, (1, 5): -1, (4, 5): -1})],
     [(1, 0, {(8, 20): 2, (12, 20): 2, (6, 20): -1, (14, 20): -1, (10, 20): -2}),
      (1, 1, {(2, 20): 1, (18, 20): 1, (8, 20): 1, (12, 20): 1, (4, 20): -1,
              (16, 20): -1, (10, 20): -2})], 2000),
]


def _term_text(c, s, factors) -> str:
    return "*".join(["%d*q^%d" % (abs(c), s)]
                    + ["P(%d,%d)^%d" % (g, d, e) for (g, d), e in factors.items()])


def _terms_text(terms) -> str:
    out = ""
    for c, s, factors in terms:
        body = _term_text(c, s, factors)
        if not out:
            out = body if c > 0 else "0 - " + body
        else:
            out += (" + " if c > 0 else " - ") + body
    return out


def side_text(side) -> str:
    """A verify side in etaram's expression language."""
    if side[0] == "slice":
        _, inner, m, t = side
        return "slice(%s, %d, %d)" % (_terms_text(inner), m, t)
    return _terms_text(side)


def verify_cases(seed: int):
    """The classical identities, each followed by a seeded perturbation.

    The perturbation adds c q^e to the right-hand side with c a nonzero
    integer and e in the upper half of the order, so verify_identity must
    report a mismatch at the first exponent where the reference differs.
    """
    rng = random.Random(seed)
    out = []
    for label, lhs, rhs, order in VERIFY_IDENTITIES:
        out.append([{"op": "verify", "label": label, "lhs": lhs, "rhs": rhs,
                     "order": order, "expect": {"equal": True}}])
        c = rng.choice([k for k in range(-9, 10) if k])
        e = rng.randrange(order // 2, order)
        out.append([{"op": "verify", "label": "%s-perturbed" % label,
                     "lhs": lhs, "rhs": list(rhs) + [(c, e, {})],
                     "order": order, "expect": {"equal": False}}])
    return out


def workload(name: str, seed: int):
    """The processes of one round: a list of cases, each a list of operations."""
    if name == "corpus":
        return CORPUS
    if name == "diamond":
        return DIAMOND_CASES
    if name == "levels":
        return LEVELS
    if name == "verify":
        return verify_cases(seed)
    raise ValueError("unknown workload %r" % name)


WORKLOADS = ("corpus", "diamond", "levels", "verify")
