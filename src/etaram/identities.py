"""End-to-end derivation and certification of progression identities.

derive_identity runs the whole chain: admissible level, modular prefactor,
generator monoid, module basis, pole-clearing multiplier, reduction, and a
final check that compares the left side with the right-hand side to the
certified order.  The left side is expanded once and the right-hand side
built once, by the reduction, for both stages; an identity whose basis or
coefficients are no longer the certified ones has its right-hand side
multiplied out again from the basis.  Every series either side reads comes
from products proved as they entered the product cache (eta.py).
dissect applies it to every residue class of a modulus, and verify_identity
checks quoted q-series identities written in the small expression language.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import ceil, gcd
from operator import mul

from . import exprs
from .cusps import INFINITY, cusp_order_bounds, cusp_set
from .eta import GenEtaQuotient, PartitionSpec
from .generators import generators
from .lattice import minimal_points
from .modularity import check_level, find_level, find_prefactor
from .reduction import ModuleBasis, VerificationFailure, express, module_basis
from .series import QSeries


GUARD = 50     # certification margin past the pole budget


class NoHFound(RuntimeError):
    """The pole-clearing inequality system has no usable solution."""


@dataclass
class DeriveOptions:
    N: int = 0                # 0 = choose the smallest admissible level
    order: int = 0            # minimum certification order
    phi_weight: int = 32      # search weight cap for the prefactor


def find_multiplier(bounds: dict, gens, N: int):
    """Multiplier h = prod generators**t clearing every finite pole of F.

    Solves the integral inequalities ord(h at cusp) + bound > -1 per finite
    cusp, decomposes the solution set into finitely many base points plus a
    recession monoid, and returns the base point maximizing the order of hF
    at infinity (ties: lexicographically smallest power vector).

    The base points are the minimal points of the system's projection to
    the scale s and the slacks (lattice.minimal_points), read before any
    lift: a point is a base point when its s is 1.  The gain, the order of
    h at infinity, is linear in a point's HNF coordinates c, gain = w . c
    with w the gains of the lifts: a lineality vector is 0 on s and on
    every slack, so its h has order 0 at every finite cusp and so at
    infinity too.  Only the points of greatest gain are lifted and
    size-reduced, as hilbert_basis would, and the least reduced t among
    them wins.
    """
    k = len(gens)
    rows = []
    rhs = []
    seen = set()
    for data in cusp_set(N):
        if data.cusp.is_infinity:
            continue
        row = tuple(g.orders[data.cusp] for g in gens)
        d = bounds[data.cusp]
        # integer order strictly above -1 - d means order >= floor(-1-d) + 1
        bound_floor = (-1 - d).__floor__() + 1
        key = (row, bound_floor)
        if key in seen:
            continue
        seen.add(key)
        rows.append(list(row))
        rhs.append(bound_floor)
    nv = k + 1 + len(rows)  # t variables, the scale s, one slack per row
    eqs = []
    for i, (row, g0) in enumerate(zip(rows, rhs)):
        eq = row + [-g0] + [0] * len(rows)
        eq[k + 1 + i] = -1
        eqs.append(eq)
    # level 1 has no finite cusp: one zero row still gives the system nv variables
    minimal = minimal_points(eqs or [[0] * nv], list(range(k, nv)))
    # a lift's first k entries are its powers t: its gain is -sum t_j pole_j
    poles = [g.pole for g in gens]
    gains = [-sum(map(mul, lift, poles)) for lift in minimal.lifts]
    # a point's first coordinate is s
    scored = [(sum(map(mul, gains, c)), c) for y, c in minimal.points if y[0] == 1]
    if not scored:
        raise NoHFound("no multiplier clears the finite poles")
    top = max(gain for gain, _ in scored)
    lift = minimal.lifter()
    t = min(tuple(lift(c)[:k]) for gain, c in scored if gain == top)
    return _monomial_quotient(N, gens, t), t


def _monomial_quotient(N: int, gens, mono) -> GenEtaQuotient:
    """prod gens[i].quotient**mono[i] at level N, canonical."""
    q = GenEtaQuotient(N)
    for e, g in zip(mono, gens):
        if e:
            q = q * (g.quotient ** e)
    return q


@dataclass
class Identity:
    spec: PartitionSpec
    m: int
    t: int
    status: str                      # "Derived" or "Failed"
    N: int = 0
    phi: GenEtaQuotient = None
    h: GenEtaQuotient = None
    h_powers: tuple = ()
    basis: ModuleBasis = None
    rhs: dict = field(default_factory=dict)   # (element index, z degree) -> Fraction
    certified_to: int = 0
    failure: str = ""
    # (basis, coefficients, series) that express certified; never copied
    _certified: tuple = field(default=None, init=False, repr=False, compare=False)

    # -- series reconstruction -------------------------------------------------

    def prefactor(self) -> GenEtaQuotient:
        return self.phi * self.h

    def lhs_series(self, terms: int) -> QSeries:
        return lhs_series(self.spec, self.m, self.t, self.prefactor(), terms)

    def rhs_series(self, terms: int) -> QSeries:
        """The certified right-hand side sum p_i(z) e_i, known to `terms`.

        A derived identity holds the series express certified its
        coefficients by, and reads it while its basis and coefficients are
        the ones certified and it is known that far.  Otherwise the series
        is built again (ModuleBasis.combo_series): each p_i(z) by
        Paterson-Stockmeyer, from the basis's store of z^j e_i.
        """
        held = self._certified
        if (held is not None and held[0] is self.basis and held[1] == self.rhs
                and held[2].bound() >= terms):
            return held[2].truncated(terms)
        return self.basis.combo_series(self.rhs, terms)

    def slice_series(self, terms: int) -> QSeries:
        """sum a(m n + t) q^n recovered from the certified right-hand side."""
        quot = self.prefactor()
        pole = int(ceil(-min(0, quot.lead_exponent())))
        span = terms + 2 * pole + 8
        rhs = self.rhs_series(span)
        inv = (quot ** -1).expansion(span)
        shift = -self.spec.slice_prefactor(self.m, self.t)
        return (rhs * inv).shift(shift).truncated(terms)

    def polynomial(self, element_index: int = 0) -> dict:
        """z-degree -> coefficient for one basis element's polynomial part."""
        return {j: c for (i, j), c in self.rhs.items() if i == element_index}

    def polynomial_over(self, target_z: GenEtaQuotient, element_index: int = 0) -> dict:
        """The element's polynomial re-expressed over a stated variable.

        The internal module variable is only determined up to an additive
        constant (distinct minimal-pole generators differ by constants), so a
        published identity may use a different translate.  The offset is read
        off the expansions, certified to be an exact constant, and
        substituted binomially.
        """
        diff = self.basis.z.quotient.expansion(30) - target_z.expansion(30)
        nonconstant = [(e, c) for e, c in diff.terms() if e != 0]
        if nonconstant:
            raise ValueError("target differs from the module variable "
                             "by more than a constant: %s" % nonconstant)
        shift = diff.coefficient(0) if diff.bound() > 0 else Fraction(0)
        out = {}
        for j, c in self.polynomial(element_index).items():
            for i in range(j + 1):
                binom = 1
                for u in range(i):
                    binom = binom * (j - u) // (u + 1)
                out[i] = out.get(i, Fraction(0)) + c * binom * shift ** (j - i)
        return {j: c for j, c in out.items() if c}

    def congruence_modulus(self) -> int:
        """gcd of the numerators when every coefficient is an integer."""
        g = 0
        for c in self.rhs.values():
            if c.denominator != 1:
                return 1
            g = gcd(g, abs(c.numerator))
        return g or 1

    # -- reporting ----------------------------------------------------------------

    def pretty(self) -> str:
        if self.status != "Derived":
            return "Failed(%s)" % self.failure
        names = {0: ""}
        for i in range(1, len(self.basis.elements)):
            names[i] = "e%d" % i if len(self.basis.elements) > 2 else "e"
        parts = []
        for (idx, j), c in sorted(self.rhs.items(), key=lambda kv: (kv[0][0], -kv[0][1])):
            term = str(c)
            if j:
                term += "*z^%d" % j if j > 1 else "*z"
            if idx:
                term += "*%s" % names[idx]
            parts.append(term)
        return " + ".join(parts).replace("+ -", "- ")

    def to_json(self) -> dict:
        def element_json(elem):
            return [["1", {} if elem.gen is None else self.basis.gens[elem.gen].quotient.to_json()]]

        doc = {
            "spec": self.spec.to_json(),
            "m": self.m,
            "t": self.t,
            "N": self.N,
            "phi": self.phi.to_json() if self.phi else None,
            "h": self.h.to_json() if self.h else None,
            "z": (self.basis.z.quotient.to_json()
                  if self.basis and self.basis.gens else None),
            "basis": [element_json(e) for e in self.basis.elements] if self.basis else [],
            "rhs": [[i, j, str(c)] for (i, j), c in sorted(self.rhs.items())],
            "certified_to": str(self.certified_to),
            "status": self.status if self.status == "Derived" else
                      "Failed(%s)" % self.failure,
        }
        return doc


@lru_cache(maxsize=None)
def level_basis(N: int) -> ModuleBasis:
    return module_basis(generators(N))


def derive_identity(spec: PartitionSpec, m: int, t: int,
                    options: DeriveOptions = None) -> Identity:
    opts = options or DeriveOptions()
    stage = "level"
    level = 0                # a failed Identity's N, once the level passes its checks
    try:
        N = opts.N or find_level(spec, m, t)     # a found level passed its checks
        if opts.N:
            report = check_level(spec, m, t, N)
            if not report.ok:
                raise RuntimeError("level %d fails: %s" % (N, sorted(report.failures())))
        level = N
        stage = "prefactor"
        phi = find_prefactor(spec, m, t, N, opts.phi_weight)
        stage = "generators"
        gens = generators(N)
        mb = level_basis(N)
        stage = "multiplier"
        bounds = cusp_order_bounds(spec, m, t, phi, N)
        h, h_powers = find_multiplier(bounds, gens, N)
        stage = "reduction"
        inf_bound = bounds[INFINITY] + sum(
            tj * (-g.pole) for tj, g in zip(h_powers, gens))
        pole_budget = max(0, int(ceil(-inf_bound)))
        target = max(pole_budget + GUARD, opts.order)
        quot = phi * h
        hF, rhs_coeffs, rhs = _reduce_with_retry(spec, m, t, quot, mb, target)
        identity = Identity(spec=spec, m=m, t=t, status="Derived", N=N, phi=phi,
                            h=h, h_powers=h_powers, basis=mb, rhs=rhs_coeffs,
                            certified_to=target)
        identity._certified = (mb, dict(rhs_coeffs), rhs)
        stage = "verification"
        _independent_check(identity, hF, target)
        return identity
    except (RuntimeError, ValueError) as exc:
        return Identity(spec=spec, m=m, t=t, status="Failed", N=level,
                        failure="%s: %s" % (stage, exc))


def lhs_series(spec: PartitionSpec, m: int, t: int, quot: GenEtaQuotient,
               terms: int) -> QSeries:
    """quot * q**((t-l)/m) * sum a(m n + t) q^n, known to at least terms + 8.

    Each factor is known at least span terms past its own lead, so the
    product is known span terms past the sum of the leads; span is terms + 8
    plus the pole of that sum, if any.
    """
    span = terms + int(ceil(-min(0, quot.lead_exponent()
                                 + spec.slice_prefactor(m, t)))) + 8
    return quot.expansion(span) * spec.slice_expansion(m, t, span)


def _reduce_with_retry(spec, m, t, quot, mb, target):
    """(hF, the coefficients of hF over the basis, and the right-hand side
    series they make), certified to target.  The left side hF is expanded
    once, for the reduction and the independent check, and express builds
    the right-hand side once, for both too.  bench/spans.py wraps this
    function by name, so the name stays until the next change under bench/."""
    hF = lhs_series(spec, m, t, quot, target)
    if hF.denom != 1:
        raise VerificationFailure("fractional exponents survive in the product")
    coeffs = express(hF.truncated(target), mb, target)
    return hF, dict(coeffs), coeffs.series


def _independent_check(identity: Identity, lhs: QSeries, order: int):
    """Compare the left side lhs with identity.rhs_series(order) to q^order.

    In a derivation that series is the one express built and certified, so
    the check repeats express's comparison on the series the identity
    holds, without building it again.  An identity whose basis or
    coefficients are not the certified ones (a copy, or one changed in
    place) has its right-hand side built again from the basis, and that is
    compared."""
    rhs = identity.rhs_series(order)
    diff = (lhs - rhs).truncated(order)
    if not diff.is_known_zero():
        raise VerificationFailure(
            "independent re-expansion differs at q^%s" % (diff.leading()[0],))
    if diff.bound() < order:
        raise VerificationFailure(
            "independent re-expansion known only to q^%s, need %d"
            % (diff.bound(), order))


def expand_expression(text: str, order: int) -> QSeries:
    """exprs.expand, raising VerificationFailure unless q^order is reached."""
    series = exprs.expand(text, order)
    if series.bound() < order:
        raise VerificationFailure("%s is known only to q^%s, need %d"
                                  % (text, series.bound(), order))
    return series


def verify_identity(lhs: str, rhs: str, order: int):
    """Expand both expressions to the given order and compare exactly.

    Raises VerificationFailure when a side is known below q^order, so the
    comparison never covers fewer exponents than the report states.
    """
    diff = expand_expression(lhs, order) - expand_expression(rhs, order)
    if diff.is_known_zero():
        return True, {"order": order, "status": "equal"}
    e, c = diff.leading()
    return False, {"order": order, "status": "mismatch",
                   "exponent": str(e), "difference": str(c)}


def dissect(spec: PartitionSpec, m: int, options: DeriveOptions = None):
    """Identities for every residue class mod m, plus the interleaving check."""
    if m < 1:
        raise ValueError("need m >= 1")
    out = [derive_identity(spec, m, t, options) for t in range(m)]
    if all(i.status == "Derived" for i in out):
        terms = 60
        recombined = QSeries.zero(terms)
        for t, ident in enumerate(out):
            n_slice = (terms - t) // m + 1
            s = ident.slice_series(n_slice)
            stretched = QSeries({m * n + t: s.coefficient(n) for n in range(n_slice)},
                                m * n_slice + t, 1)
            recombined = recombined + stretched
        direct = spec.product_expansion(terms)
        if not (recombined - direct).truncated(recombined.bound()).is_known_zero():
            raise VerificationFailure("dissection slices fail to interleave")
    return out
