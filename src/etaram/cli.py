"""Command-line interface.

Subcommands:

    derive     derive and certify an identity for a progression m n + t
    dissect    derive identities for every residue class mod m
    verify     compare two q-series expressions exactly
    expand     print the expansion of an expression
    cusps      print cusp data for a level
    generators print the generator table for a level
"""

from __future__ import annotations

import argparse
import json
import sys

from .cusps import _lambda_mu_form, cusp_set
from .eta import PartitionSpec
from .exprs import ParseError
from .generators import generators
from .identities import (
    DeriveOptions, derive_identity, dissect, expand_expression, verify_identity,
)
from .lattice import StepBudgetExceeded
from .reduction import VerificationFailure
from .series import ZeroSeries


class SpecFileError(ValueError):
    """A spec file that cannot be read as a PartitionSpec."""


# failures that come from the user's input or the size of the problem: they
# end in a one-line message and exit code 2, like argparse's own errors
USER_ERRORS = (ParseError, SpecFileError, VerificationFailure, StepBudgetExceeded,
               ZeroSeries)


def _load_spec(path: str) -> PartitionSpec:
    try:
        with open(path) as fh:
            return PartitionSpec.from_json(json.load(fh))
    except (OSError, ValueError, TypeError, AttributeError) as exc:
        raise SpecFileError("spec file %s: %s" % (path, exc)) from None


def _cmd_derive(args) -> int:
    spec = _load_spec(args.spec)
    opts = DeriveOptions(N=args.N, order=args.order, phi_weight=args.phi_box)
    if args.explain:
        from .modularity import check_level, find_level
        N = args.N or find_level(spec, args.m, args.t)
        report = check_level(spec, args.m, args.t, N)
        print("level %d admissibility:" % N)
        for name, (flag, detail) in report.conditions.items():
            print("  [%s] %s: %s" % ("ok" if flag else "FAIL", name, detail))
        opts.N = N          # the printed level, not searched again
    ident = derive_identity(spec, args.m, args.t, opts)
    doc = ident.to_json()
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    if ident.status == "Derived":
        print("N = %d" % ident.N)
        print("prefactor exponents: %s" % json.dumps(ident.prefactor().to_json()))
        print("identity: prefactor * q^(%s) * sum a(%dn+%d) q^n = %s"
              % (spec.slice_prefactor(args.m, args.t), args.m, args.t, ident.pretty()))
        print("certified to order %s" % ident.certified_to)
        return 0
    print("derivation failed: %s" % ident.failure)
    return 1


def _cmd_dissect(args) -> int:
    spec = _load_spec(args.spec)
    opts = DeriveOptions(order=args.order)
    slices = dissect(spec, args.m, opts)
    code = 0
    for ident in slices:
        if ident.status == "Derived":
            print("t=%d: %s" % (ident.t, ident.pretty()))
        else:
            print("t=%d: FAILED %s" % (ident.t, ident.failure))
            code = 1
    if args.out:
        with open(args.out, "w") as fh:
            json.dump([i.to_json() for i in slices], fh, indent=1)
            fh.write("\n")
    return code


def _cmd_verify(args) -> int:
    ok, report = verify_identity(args.lhs, args.rhs, args.order)
    print(json.dumps(report))
    return 0 if ok else 1


def _cmd_expand(args) -> int:
    print(expand_expression(args.expr, args.order))
    return 0


def _cmd_cusps(args) -> int:
    rows = []
    for d in cusp_set(args.N):
        lam, mu, eps = _lambda_mu_form(args.N, d.cusp)
        rows.append({"cusp": str(d.cusp), "width": d.width,
                     "lambda": lam, "mu": mu, "epsilon": eps})
    if args.json:
        print(json.dumps(rows, indent=1))
    else:
        print("%-8s %-6s %-4s %-4s %-4s" % ("cusp", "width", "lam", "mu", "eps"))
        for r in rows:
            print("%-8s %-6d %-4d %-4d %-4d"
                  % (r["cusp"], r["width"], r["lambda"], r["mu"], r["epsilon"]))
    return 0


def _cmd_generators(args) -> int:
    rows = []
    for g in generators(args.N):
        exp = g.expansion(6)
        rows.append({
            "exponents": g.quotient.to_json(),
            "orders": {str(c): o for c, o in g.orders.items()},
            "expansion": str(exp.truncated(exp.leading()[0] + 5)),
        })
    if args.json:
        print(json.dumps(rows, indent=1))
    else:
        for i, r in enumerate(rows):
            print("[%d] %s" % (i, json.dumps(r["exponents"])))
            print("    orders %s" % json.dumps(r["orders"]))
            print("    %s" % r["expansion"])
    return 0


def _integer(name: str, low: int = 1):
    """An argparse type for an integer >= low (1 or 0), named in its error messages."""
    def parse(text: str) -> int:
        n = int(text)
        if n < low:
            raise argparse.ArgumentTypeError("%s must be %s, got %d" % (
                name, "positive" if low else "nonnegative", n))
        return n
    parse.__name__ = name
    return parse


level = _integer("level")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="etaram", description=__doc__,
                                  formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("derive", help="derive an identity for a(m n + t)")
    p.add_argument("--spec", required=True, help="JSON spec file")
    p.add_argument("-m", type=_integer("m"), required=True)
    p.add_argument("-t", type=int, required=True, help="residue, 0 <= t < m")
    p.add_argument("--order", type=_integer("order", 0), default=0,
                   help="certification order")
    p.add_argument("--phi-box", type=_integer("phi-box", 0), default=32, dest="phi_box",
                   help="prefactor search weight cap")
    p.add_argument("-N", type=_integer("N", 0), default=0,
                   help="level override (0: the smallest admissible)")
    p.add_argument("--out", help="write the identity document here")
    p.add_argument("--explain", action="store_true",
                   help="print each level condition with its residue")
    p.set_defaults(func=_cmd_derive)

    p = sub.add_parser("dissect", help="derive all residue classes mod m")
    p.add_argument("--spec", required=True)
    p.add_argument("-m", type=_integer("m"), required=True)
    p.add_argument("--order", type=_integer("order", 0), default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_dissect)

    p = sub.add_parser("verify", help="compare two expressions exactly")
    p.add_argument("--lhs", required=True)
    p.add_argument("--rhs", required=True)
    p.add_argument("--order", type=_integer("order"), default=100)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("expand", help="expand an expression")
    p.add_argument("--expr", required=True)
    p.add_argument("--order", type=_integer("order"), default=20)
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("cusps", help="cusp table for a level")
    p.add_argument("N", type=level)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_cusps)

    p = sub.add_parser("generators", help="generator table for a level")
    p.add_argument("N", type=level)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_generators)
    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "derive" and not 0 <= args.t < args.m:
        parser.error("argument -t: t must lie in [0, m) = [0, %d), got %d"
                     % (args.m, args.t))
    try:
        return args.func(args)
    except USER_ERRORS as exc:
        print("etaram: error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
