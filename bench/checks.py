"""Correctness checks on the outputs a worker returns, run in the parent.

Every expected value comes from the integer reference in reference.py or
from a published fact recorded in cases.py (a polynomial, a congruence
modulus, a generator count), never from a stored copy of earlier output.
Each check function returns the list of problems it found; an operation with
any problem counts as failed.
"""

from __future__ import annotations

import json
from fractions import Fraction

import reference


def operation(op, cold, warm):
    """(problems of the cold call, problems of the warm call).

    The warm output must reproduce the cold one byte for byte.
    """
    if "error" in cold:
        cold_problems = [cold["error"]]
    else:
        cold_problems = CHECKS[op["op"]](op, cold)
    if "error" in warm:
        warm_problems = [warm["error"]]
    elif fingerprint(warm) != fingerprint(cold):
        warm_problems = ["warm-pass output differs from the cold pass"]
    else:
        warm_problems = []
    return cold_problems, warm_problems


def _identity(op, out, m, t, published_slice=None):
    doc = json.loads(out["doc"])
    if doc["status"] != "Derived":
        return ["%s(m=%d, t=%d): %s" % (op["label"], m, t, doc["status"])]
    problems = []
    if int(doc["certified_to"]) < op["order"]:
        problems.append("certified to %s < %d" % (doc["certified_to"], op["order"]))
    got = [Fraction(c) for c in out["slice"]]
    want = reference.progression(op["spec"], m, t, len(got))
    if got != want:
        n = reference.first_difference(got, want)
        problems.append("slice a(%dn+%d) differs from the reference at n=%d"
                        % (m, t, n))
    if published_slice is not None:
        if want != reference.terms_series(published_slice, len(want)):
            problems.append("published slice for t=%d disagrees with the "
                            "reference product" % t)
    rhs = {}
    for i, j, c in doc["rhs"]:
        rhs.setdefault(i, {})[j] = Fraction(c)
    expect = op["expect"]
    if "rhs" in expect and rhs != {i: {j: Fraction(c) for j, c in poly.items()}
                                   for i, poly in expect["rhs"].items()}:
        problems.append("right-hand side differs from the published polynomials")
    if "known" in expect:
        for j, c in expect["known"].items():
            if rhs.get(0, {}).get(j) != c:
                problems.append("coefficient of z^%d is not %d" % (j, c))
    if "degree" in expect:
        degree = max(j for poly in rhs.values() for j in poly)
        if degree != expect["degree"]:
            problems.append("degree %d, published %d" % (degree, expect["degree"]))
    if "modulus" in expect:
        k = expect["modulus"]
        coeffs = [c for poly in rhs.values() for c in poly.values()]
        if any(c.denominator != 1 or c.numerator % k for c in coeffs):
            problems.append("a coefficient is not divisible by %d" % k)
        if out["modulus"] % k:
            problems.append("congruence_modulus() = %d, not a multiple of %d"
                            % (out["modulus"], k))
    if "level" in expect and doc["N"] != expect["level"]:
        problems.append("level %d, published %d" % (doc["N"], expect["level"]))
    if "over_z" in expect:
        got_z = {int(j): Fraction(c) for j, c in out["over_z"].items()}
        if got_z != expect["over_z"]:
            problems.append("polynomial over the stated z is %s" % got_z)
    return problems


def _derive(op, out):
    return _identity(op, out, op["m"], op["t"])


def _dissect(op, out):
    idents = out["identities"]
    if len(idents) != op["m"]:
        return ["%d identities for modulus %d" % (len(idents), op["m"])]
    problems = []
    for t, ident in enumerate(idents):
        problems += _identity(op, ident, op["m"], t,
                                   op["expect"]["slices"][t])
    return problems


def _generators(op, out):
    problems = []
    count = op["expect"]["count"]
    if count is not None and out["count"] != count:
        problems.append("%d generators, published %d" % (out["count"], count))
    poles = [g["pole"] for g in out["gens"]]
    if not poles or poles != sorted(poles) or poles[0] <= 0:
        problems.append("generator poles not positive and ascending")
    for k, g in enumerate(out["gens"]):
        lead, factors = reference.quotient(g["q"])
        if lead != -g["pole"] or g["lead"] is None or Fraction(g["lead"]) != lead:
            problems.append("generator %d: lead %s, pole %d, reference lead %s"
                            % (k, g["lead"], g["pole"], lead))
            continue
        want = reference.product(factors, len(g["coeffs"]))
        if [Fraction(c) for c in g["coeffs"]] != want:
            problems.append("generator %d expansion differs from the reference" % k)
    return problems


def _module_basis(op, out):
    problems = []
    n = out["n"]
    if out["z"] is not None:
        # ord(z) from the reference's closed form, not from etaram's pole
        ord_z = -reference.quotient(out["z"])[0]
        if ord_z != n:
            problems.append("ord(z) = %s but the basis works mod %d" % (ord_z, n))
    elements = out["elements"]
    pole0, combo0 = elements[0]
    if pole0 != 0 or len(combo0) != 1 or any(combo0[0][0]) or combo0[0][1] != "1":
        problems.append("element 0 is not the constant 1")
    classes = [pole % n for pole, _ in elements]
    if len(set(classes)) != len(classes):
        problems.append("basis pole orders repeat a class mod %d" % n)
    for k, ((pole, _), lead) in enumerate(zip(elements, out["element_leads"])):
        if lead is None or Fraction(lead) != -pole:
            problems.append("element %d: lead %s, pole %d" % (k, lead, pole))
    width = op["expect"]["width"]
    if width is not None and len(elements) - 1 != width:
        problems.append("basis width %d, published %d" % (len(elements) - 1, width))
    for k, r in enumerate(out["reductions"]):
        if r != "zero":
            problems.append("generator %d leaves a remainder: %s" % (k, r))
    return problems


def _verify(op, out):
    order = op["order"]
    lhs = reference.expression(op["lhs"], order)
    rhs = reference.expression(op["rhs"], order)
    diff_at = reference.first_difference(lhs, rhs)
    truth = diff_at is None
    problems = []
    if truth != op["expect"]["equal"]:
        problems.append("reference says equal=%s, case expects %s"
                        % (truth, op["expect"]["equal"]))
    if out["equal"] != op["expect"]["equal"]:
        problems.append("verdict equal=%s, expected %s"
                        % (out["equal"], op["expect"]["equal"]))
    if not truth:
        info = out["info"]
        if info.get("exponent") != str(diff_at):
            problems.append("first difference reported at %s, reference %d"
                            % (info.get("exponent"), diff_at))
        elif Fraction(info["difference"]) != lhs[diff_at] - rhs[diff_at]:
            problems.append("difference %s, reference %d"
                            % (info["difference"], lhs[diff_at] - rhs[diff_at]))
    return problems


def fingerprint(out):
    """The part of an output the warm pass must reproduce byte for byte."""
    if "doc" in out:
        return out["doc"]
    if "identities" in out:
        return [i["doc"] for i in out["identities"]]
    if "fingerprint" in out:
        return out["fingerprint"]
    return [out["equal"], out["info"]]


CHECKS = {"derive": _derive, "dissect": _dissect, "generators": _generators,
          "module_basis": _module_basis, "verify": _verify}
