"""Span tracing around etaram's layer functions, installed from outside.

Tracer.install wraps each target function and rebinds the wrapper in every
etaram module namespace that holds the original (and under every class
attribute name for methods, so aliases such as QSeries.__rmul__ are caught).
Nothing in etaram is edited; uninstall restores the originals.

A span is (name, start, end, parent span).  Spans are kept in memory as
parallel lists and written out at the end; self times, inclusive stage times
and call counts are all derived from them.  Size tallies (terms multiplied,
generators returned, ...) are accumulated at the same boundaries.  Fraction
constructions are counted by a hook on Fraction.__new__.
"""

from __future__ import annotations

import fractions
import inspect
import json
import sys
import time


def _mul_terms(args, kwargs, result):
    f, g = args[0], args[1]
    return len(f.coeffs) + len(g.coeffs) if hasattr(g, "coeffs") else 0


def _arg(index, name):
    def size(args, kwargs, result):
        return int(kwargs[name] if name in kwargs else args[index])
    return size


def _length(args, kwargs, result):
    return len(result)


def _width(args, kwargs, result):
    return result.width


# (span name, module, attribute path, size tally or None)
TARGETS = [
    ("series.mul", "etaram.series", "QSeries.__mul__", _mul_terms),
    ("series.invert", "etaram.series", "QSeries.invert", None),
    ("series.pochhammer", "etaram.series", "pochhammer", None),
    ("series.euler_product", "etaram.series", "euler_product", None),
    ("series.theta_pair", "etaram.series", "theta_pair", None),
    ("series.pair_product", "etaram.series", "pair_product", None),
    ("eta.quotient_expansion", "etaram.eta", "GenEtaQuotient.expansion", _arg(1, "terms")),
    ("eta.product_expansion", "etaram.eta", "PartitionSpec.product_expansion", _arg(1, "order")),
    ("eta.product_expansion_reference", "etaram.eta",
     "PartitionSpec.product_expansion_reference", _arg(1, "order")),
    ("cusps.order_at_cusp", "etaram.cusps", "order_at_cusp", None),
    ("cusps.cusp_order_bounds", "etaram.cusps", "cusp_order_bounds", None),
    ("lattice.hilbert_basis", "etaram.lattice", "hilbert_basis", None),
    ("lattice.minimal_solutions", "etaram.lattice", "minimal_nonneg_solutions", _length),
    ("lattice.enumerate_coset", "etaram.lattice", "enumerate_coset", None),
    ("modularity.find_level", "etaram.modularity", "find_level", None),
    ("modularity.check_level", "etaram.modularity", "check_level", None),
    ("modularity.find_prefactor", "etaram.modularity", "find_prefactor", None),
    ("generators.generators", "etaram.generators", "generators", _length),
    ("generators.is_constant_one", "etaram.generators", "is_constant_one", None),
    ("reduction.module_basis", "etaram.reduction", "module_basis", _width),
    ("reduction.ensure_terms", "etaram.reduction", "ModuleBasis.ensure_terms", None),
    ("reduction.express", "etaram.reduction", "express", None),
    ("reduction.combo_series", "etaram.reduction", "ModuleBasis.combo_series", None),
    ("reduction.monomial_series", "etaram.reduction", "ModuleBasis.monomial_series", None),
    ("identities.derive", "etaram.identities", "derive_identity", None),
    ("identities.dissect", "etaram.identities", "dissect", None),
    ("identities.level_basis", "etaram.identities", "level_basis", None),
    ("identities.find_multiplier", "etaram.identities", "find_multiplier", None),
    ("identities.reduce_with_retry", "etaram.identities", "_reduce_with_retry", None),
    ("identities.independent_check", "etaram.identities", "_independent_check", None),
    ("exprs.expand", "etaram.exprs", "expand", None),
]


class Tracer:
    def __init__(self):
        self.names = [t[0] for t in TARGETS]
        self.span_name = []
        self.span_start = []
        self.span_end = []
        self.span_parent = []
        self.sizes = [0] * len(TARGETS)
        self.fraction_new = 0
        self._stack = [-1]
        self._undo = []

    # -- installation ------------------------------------------------------

    def install(self):
        for index, (_, module, path, size) in enumerate(TARGETS):
            owner = sys.modules[module]
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            original = owner.__dict__[parts[-1]] if isinstance(owner, type) \
                else getattr(owner, parts[-1])
            wrapper = self._wrap(index, original, size)
            if isinstance(owner, type):
                for attr, value in list(owner.__dict__.items()):
                    if value is original:
                        self._rebind(owner, attr, original, wrapper)
            else:
                for name, mod in list(sys.modules.items()):
                    if name == "etaram" or name.startswith("etaram."):
                        for attr, value in list(vars(mod).items()):
                            if value is original:
                                self._rebind(mod, attr, original, wrapper)
        original_new = fractions.Fraction.__dict__["__new__"]
        counted_new = original_new.__func__

        def counting_new(cls, *args, **kwargs):
            self.fraction_new += 1
            return counted_new(cls, *args, **kwargs)

        self._rebind(fractions.Fraction, "__new__", original_new,
                     staticmethod(counting_new))

    def _rebind(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo = []

    def _wrap(self, index, fn, size):
        names, starts, ends, parents = (self.span_name, self.span_start,
                                        self.span_end, self.span_parent)
        stack, sizes, clock = self._stack, self.sizes, time.perf_counter

        def open_span():
            sid = len(starts)
            names.append(index)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            return sid

        def close_span(sid):
            ends[sid] = clock()
            stack.pop()

        if inspect.isgeneratorfunction(fn):
            # one span per resumption, so the consumer's time is not charged
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    sid = open_span()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        close_span(sid)
                    yield item
            return gen_wrapper

        def wrapper(*args, **kwargs):
            sid = open_span()
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span(sid)
            if size is not None:
                sizes[index] += size(args, kwargs, result)
            return result
        return wrapper

    # -- results -----------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, self seconds and the size tally; the
        inclusive time of derive_identity and of each of its stages; and the
        counts read off parent links."""
        n = len(self.span_name)
        names = [self.names[i] for i in self.span_name]
        duration = [end - start for start, end in zip(self.span_start, self.span_end)]
        child = [0.0] * n
        for sid in range(n):
            if self.span_parent[sid] >= 0:
                child[self.span_parent[sid]] += duration[sid]
        out = {name: {"calls": 0, "self_s": 0.0, "size": size}
               for name, size in zip(self.names, self.sizes)}
        stages = {stage: 0.0 for stage in STAGES.values()}
        derive_s = 0.0
        builds = attempts = 0
        for sid, name in enumerate(names):
            out[name]["calls"] += 1
            out[name]["self_s"] += duration[sid] - child[sid]
            p = self.span_parent[sid]
            parent = names[p] if p >= 0 else None
            if name == "identities.derive":
                derive_s += duration[sid]
            if parent == "identities.derive" and name in STAGES:
                stages[STAGES[name]] += duration[sid]
            if name == "reduction.module_basis" and parent == "identities.level_basis":
                builds += 1
            if name == "eta.quotient_expansion" and parent == "identities.reduce_with_retry":
                attempts += 1
        return {"spans": out, "derive_s": derive_s, "stages": stages,
                "level_basis_builds": builds, "express_attempts": attempts,
                "fraction_new": self.fraction_new, "span_count": n}

    def write(self, path: str):
        with open(path, "w") as fh:
            json.dump({"names": self.names,
                       "spans": [[self.span_name[i], self.span_start[i],
                                  self.span_end[i], self.span_parent[i]]
                                 for i in range(len(self.span_name))]}, fh)


# direct children of derive_identity, by the stage they belong to
STAGES = {
    "modularity.find_level": "level",
    "modularity.check_level": "level",
    "modularity.find_prefactor": "prefactor",
    "generators.generators": "generators",
    "identities.level_basis": "module_basis",
    "cusps.cusp_order_bounds": "multiplier",
    "identities.find_multiplier": "multiplier",
    "identities.reduce_with_retry": "reduction",
    "identities.independent_check": "check",
}
