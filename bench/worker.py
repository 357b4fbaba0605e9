"""One fresh process of the benchmark.

Imports etaram, builds one case's inputs, then runs the case's operations
twice: a cold pass with every module cache empty and a warm pass straight
after it in the same process.  Outside the timed region it turns each result
into plain JSON for the parent's checks (for the cold pass everything the
checks read, for the warm pass the fingerprint that must repeat it), and
prints one JSON line:

    {"ready": ..., "setup_speed": ..., "cold_wall_s": ..., "cold_speed": ...,
     "warm_wall_s": ..., "warm_speed": ..., "rss_kib": ...,
     "outputs": [[cold output per op], [warm output per op]], "trace": ...}

"ready" is the time.perf_counter() reading once the inputs exist; the parent
subtracts its own reading taken before it started the interpreter (both read
the system-wide monotonic clock).  The *_speed entries are the CPU speed
relative to a reference, sampled as described under "CPU speed" below; a
traced process has no cold or warm speed.

Usage: python3 worker.py '{"workload": "corpus", "seed": 1, "case": 0,
                           "trace": 0, "setup_only": false, "spans": null}'
"""

import json
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction

import cases


def build(op, api):
    """A zero-argument call performing the operation."""
    kind = op["op"]
    if kind in ("derive", "dissect"):
        spec = api.PartitionSpec.from_json(op["spec"])
        options = api.DeriveOptions(order=op["order"])
        if kind == "derive":
            return lambda: api.derive_identity(spec, op["m"], op["t"], options)
        return lambda: api.dissect(spec, op["m"], options)
    if kind == "generators":
        return lambda: api.generators(op["N"])
    if kind == "module_basis":
        return lambda: api.module_basis(api.generators(op["N"]))
    if kind == "verify":
        lhs, rhs = cases.side_text(op["lhs"]), cases.side_text(op["rhs"])
        return lambda: api.verify_identity(lhs, rhs, op["order"])
    raise ValueError("unknown operation %r" % kind)


# -- CPU speed -------------------------------------------------------------
#
# The speed at which one CPU runs Python drifts by a third and more over
# minutes on a shared machine, and a loop timed on another CPU at the same
# time does not follow it.  So each process samples its own speed with a
# fixed loop of the same kind of work as etaram's (Fraction and dict
# operations), every SAMPLE_EVERY_S of a timed pass, and the parent scales
# the pass's wall time to the speed at which the loop takes REFERENCE_S.

SAMPLE_EVERY_S = 0.1
REFERENCE_S = 0.004


def speed_sample() -> float:
    """Wall time of the fixed loop, about REFERENCE_S."""
    start = time.perf_counter()
    acc, seen = Fraction(0), {}
    for i in range(1, 500):
        acc += Fraction(i, i + 7) * Fraction(3, i)
        seen[i % 31] = seen.get(i % 31, 0) + i * i
    return time.perf_counter() - start


class Speed:
    """CPU speed relative to the reference over a timed region: samples
    taken just before and after it, and from a timer signal inside it."""

    def __init__(self):
        self.samples = []
        self.inside_s = 0.0  # time the samples took inside the region

    def _sample_inside(self, *_):
        self.inside_s += self.sample()

    def sample(self) -> float:
        seconds = speed_sample()
        self.samples.append(seconds)
        return seconds

    def start(self):
        self.sample()
        signal.signal(signal.SIGALRM, self._sample_inside)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def relative(self) -> float:
        """Mean speed over the samples, which are evenly spaced in time."""
        return statistics.mean(REFERENCE_S / s for s in self.samples)


def run_pass(calls, speed=None):
    """(results, wall time); with `speed`, the wall time leaves out the
    speed samples taken inside the pass."""
    results = []
    if speed:
        speed.start()
    start = time.perf_counter()
    for call in calls:
        try:
            results.append(("ok", call()))
        except Exception as exc:  # an operation that raises is a failed one
            results.append(("error", "%s: %s" % (type(exc).__name__, exc)))
    if speed:
        speed.stop()
    elapsed = time.perf_counter() - start
    if speed:
        elapsed -= speed.inside_s
        speed.sample()
    return results, elapsed


# -- outputs for the checks (untimed) ----------------------------------------

def identity_output(ident, op, api, full):
    out = {"doc": json.dumps(ident.to_json())}
    if not full or ident.status != "Derived":
        return out
    s = ident.slice_series(cases.SLICE_TERMS)
    out["slice"] = [str(s.coefficient(n)) for n in range(cases.SLICE_TERMS)]
    out["modulus"] = ident.congruence_modulus()
    if "over_z" in op["expect"]:
        z = cases.Z_STATED_6
        target = api.GenEtaQuotient(z["N"], a={int(d): e for d, e in z["a"].items()})
        out["over_z"] = {str(j): str(c)
                         for j, c in sorted(ident.polynomial_over(target).items())}
    return out


def generators_output(gens, full):
    out = {"count": len(gens),
           "fingerprint": json.dumps([[g.quotient.to_json(), g.pole,
                                       [str(c) for c in g.head]] for g in gens])}
    if full:
        rows = []
        for g in gens:
            exp = g.expansion(cases.GENERATOR_TERMS + 1)
            lead = exp.leading()
            rows.append({"q": g.quotient.to_json(), "pole": g.pole,
                         "lead": str(lead[0]) if lead else None,
                         "coeffs": [str(exp.coefficient(-g.pole + i))
                                    for i in range(cases.GENERATOR_TERMS)]})
        out["gens"] = rows
    return out


def basis_output(mb, api, full):
    elements = [[e.pole, [[list(mono), str(c)] for mono, c in sorted(e.combo.items())]]
                for e in mb.elements]
    out = {"fingerprint": json.dumps(elements)}
    if full:
        out["n"] = mb.n
        out["z"] = mb.gens[0].quotient.to_json() if mb.gens else None
        out["elements"] = elements
        leads = []
        for i in range(len(mb.elements)):
            lead = mb.element_series(i).leading()
            leads.append(str(lead[0]) if lead else None)
        out["element_leads"] = leads
        reductions = []
        for g in mb.gens:
            f = g.expansion(cases.REDUCE_ORDER + g.pole + 8)
            try:
                api.reduction.express(f, mb, cases.REDUCE_ORDER)
                reductions.append("zero")
            except (api.NotMember, api.VerificationFailure,
                    api.InsufficientTruncation) as exc:
                reductions.append("%s: %s" % (type(exc).__name__, exc))
        out["reductions"] = reductions
    return out


def output(op, result, api, full):
    status, value = result
    if status == "error":
        return {"error": value}
    try:
        kind = op["op"]
        if kind == "derive":
            return identity_output(value, op, api, full)
        if kind == "dissect":
            return {"identities": [identity_output(i, op, api, full) for i in value]}
        if kind == "generators":
            return generators_output(value, full)
        if kind == "module_basis":
            return basis_output(value, api, full)
        ok, info = value
        return {"equal": ok, "info": info}
    except Exception as exc:  # reading the result back failed: the op failed
        return {"error": "while reading the result: %s: %s" % (type(exc).__name__, exc)}


def main(argv):
    req = json.loads(argv[1])
    # calls go through the package namespace at call time, so the tracer's
    # rebinding of these names is seen
    import etaram as api
    import etaram.reduction  # noqa: F401  (basis_output calls api.reduction.express)
    ops = cases.workload(req["workload"], req["seed"])[req["case"]]
    calls = [build(op, api) for op in ops]
    ready = time.perf_counter()
    setup_speed = Speed()
    for _ in range(5):
        setup_speed.sample()
    report = {"ready": ready, "setup_speed": setup_speed.relative()}
    if req["setup_only"]:
        print(json.dumps(report))
        return 0
    # the traced pass is not sampled: the samples would land in its spans
    cold_speed = warm_speed = None
    tracer = None
    if req["trace"]:
        import spans
        tracer = spans.Tracer()
        tracer.install()
    else:
        cold_speed, warm_speed = Speed(), Speed()
    cold, report["cold_wall_s"] = run_pass(calls, cold_speed)
    warm, report["warm_wall_s"] = run_pass(calls, warm_speed)
    if not req["trace"]:
        report["cold_speed"] = cold_speed.relative()
        report["warm_speed"] = warm_speed.relative()
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    summary = None
    if tracer is not None:
        tracer.uninstall()
        summary = tracer.summary()
        tracer.write(req["spans"])
    outputs = [[output(op, r, api, True) for op, r in zip(ops, cold)],
               [output(op, r, api, False) for op, r in zip(ops, warm)]]
    report.update(rss_kib=rss_kib, outputs=outputs, trace=summary)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
