"""etaram benchmark: cold and warm derivation time on four workloads.

    python3 bench/run.py --workload corpus --seed 1 --seconds 5 --trace 0

Run from the root of a source checkout; etaram is imported from src/, so
nothing is installed.  A run repeats whole rounds until --seconds have
passed (at least one round).  A round starts one fresh interpreter per case
of the workload, one after another, each running its operations cold and
then warm; see cases.py for the cases and worker.py for one process.
Outputs are checked against an independent integer reference (checks.py).

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics (medians over rounds):

    setup_s       interpreter start until etaram is imported and the inputs
                  are built, summed over the round's processes (their count
                  times the median of at least 15 per-process samples)
    cold_s        the operations' wall time in fresh processes, summed
    warm_s        the same operations repeated in the same process
    peak_rss_mib  highest peak resident set size of any process

The times are scaled to a reference CPU speed that each process samples
while it runs (see "CPU speed" in worker.py); the results file keeps the
unscaled wall times too.

With --trace 1 the run makes one untraced round and one traced round and
reports per-layer metrics from the spans (see spans.py); trace.overhead_s is
the traced round's unscaled cold wall time minus the untraced round's.

Every run also writes bench/results/<workload>-seed<n>-trace<t>.json with
the environment and each round's figures, and with --trace 1 the raw spans
under bench/results/spans/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import cases  # noqa: E402
import checks  # noqa: E402

# per-process set-up is sampled at least this many times per run, topped up
# by set-up-only processes when a workload has fewer processes
SETUP_SAMPLES = 15
CHILD_TIMEOUT_S = 170


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def run_child(request: dict) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    argv = [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(request)]
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("case %d exceeded %d s" % (request["case"], CHILD_TIMEOUT_S))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("case %d exited with %d: %s" % (
            request["case"], proc.returncode, proc.stderr.strip()[-2000:]))
    report = json.loads(lines[-1])
    report["setup_wall_s"] = report["ready"] - start
    report["setup_s"] = report["setup_wall_s"] * report["setup_speed"]
    return report


def run_round(workload: str, seed: int, trace: bool) -> list:
    """One fresh process per case."""
    reports = []
    for case in range(len(cases.workload(workload, seed))):
        spans = None
        if trace:
            spans = os.path.join(HERE, "results", "spans",
                                 "%s-seed%d-case%d.json" % (workload, seed, case))
            os.makedirs(os.path.dirname(spans), exist_ok=True)
        reports.append(run_child({"workload": workload, "seed": seed, "case": case,
                                  "trace": int(trace), "setup_only": False,
                                  "spans": spans}))
    return reports


def setup_seconds(workload: str, seed: int, measured: list) -> float:
    """Set-up summed over a round's processes, as the number of processes
    times the median per-process set-up (the processes differ only in their
    few small inputs)."""
    samples = list(measured)
    ncases = len(cases.workload(workload, seed))
    while len(samples) < SETUP_SAMPLES:
        report = run_child({"workload": workload, "seed": seed,
                            "case": len(samples) % ncases, "trace": 0,
                            "setup_only": True, "spans": None})
        samples.append(report["setup_s"])
    return ncases * statistics.median(samples)


def check_round(case_ops: list, reports: list) -> dict:
    """Check every operation of a round; case_ops[i] are report i's operations."""
    attempted = failed = 0
    problems = []
    for ops, report in zip(case_ops, reports):
        for op, cold, warm in zip(ops, *report["outputs"]):
            found = checks.operation(op, cold, warm)
            for phase, phase_problems in zip(("cold", "warm"), found):
                attempted += 1
                if phase_problems:
                    failed += 1
                    problems.append({"op": op["label"], "pass": phase,
                                     "problems": phase_problems})
    out = {"setup_samples": [r["setup_s"] for r in reports],
           "setup_wall_s": sum(r["setup_wall_s"] for r in reports),
           "cold_wall_s": sum(r["cold_wall_s"] for r in reports),
           "warm_wall_s": sum(r["warm_wall_s"] for r in reports),
           "peak_rss_mib": max(r["rss_kib"] for r in reports) / 1024,
           "attempted": attempted, "failed": failed, "problems": problems}
    if "cold_speed" in reports[0]:  # traced processes are not sampled
        for key in ("cold", "warm"):
            out[key + "_s"] = sum(r[key + "_wall_s"] * r[key + "_speed"] for r in reports)
    return out


# -- per-layer metrics from the traced round -------------------------------

SELF_TIMES = {
    "series.mul_s": ["series.mul"],
    "series.invert_s": ["series.invert"],
    "series.pochhammer_s": ["series.pochhammer"],
    "series.theta_s": ["series.euler_product", "series.theta_pair", "series.pair_product"],
    "eta.quotient_expansion_s": ["eta.quotient_expansion"],
    "eta.product_expansion_s": ["eta.product_expansion"],
    "eta.product_expansion_reference_s": ["eta.product_expansion_reference"],
    "cusps.order_at_cusp_s": ["cusps.order_at_cusp"],
    "cusps.cusp_order_bounds_s": ["cusps.cusp_order_bounds"],
    "lattice.hilbert_basis_s": ["lattice.hilbert_basis"],
    "lattice.minimal_solutions_s": ["lattice.minimal_solutions"],
    "lattice.enumerate_coset_s": ["lattice.enumerate_coset"],
    "modularity.find_level_s": ["modularity.find_level"],
    "modularity.check_level_s": ["modularity.check_level"],
    "modularity.find_prefactor_s": ["modularity.find_prefactor"],
    "generators.generators_s": ["generators.generators"],
    "reduction.module_basis_s": ["reduction.module_basis"],
    "reduction.ensure_terms_s": ["reduction.ensure_terms"],
    "reduction.express_s": ["reduction.express"],
    "identities.find_multiplier_s": ["identities.find_multiplier"],
    "exprs.expand_s": ["exprs.expand"],
}
CALLS = {
    "series.mul_calls": "series.mul",
    "series.invert_calls": "series.invert",
    "series.pochhammer_calls": "series.pochhammer",
    "eta.quotient_expansion_calls": "eta.quotient_expansion",
    "cusps.order_at_cusp_calls": "cusps.order_at_cusp",
    "lattice.hilbert_basis_calls": "lattice.hilbert_basis",
    "generators.is_constant_one_calls": "generators.is_constant_one",
    "reduction.ensure_terms_calls": "reduction.ensure_terms",
    "reduction.combo_series_calls": "reduction.combo_series",
    "reduction.monomial_series_calls": "reduction.monomial_series",
    "identities.level_basis_calls": "identities.level_basis",
    "exprs.expand_calls": "exprs.expand",
}
SIZES = {
    "series.mul_terms": "series.mul",
    "eta.quotient_expansion_terms": "eta.quotient_expansion",
    "eta.product_expansion_terms": "eta.product_expansion",
    "lattice.minimal_solutions_found": "lattice.minimal_solutions",
    "generators.count": "generators.generators",
    "reduction.basis_width": "reduction.module_basis",
}


def layer_metrics(reports, untraced_cold_wall_s, traced_cold_wall_s) -> dict:
    spans, stages = {}, {}
    totals = {"derive_s": 0.0, "level_basis_builds": 0, "express_attempts": 0,
              "fraction_new": 0, "span_count": 0}
    for report in reports:
        summary = report["trace"]
        for name, rec in summary["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "self_s": 0.0, "size": 0})
            for key in acc:
                acc[key] += rec[key]
        for stage, seconds in summary["stages"].items():
            stages[stage] = stages.get(stage, 0.0) + seconds
        for key in totals:
            totals[key] += summary[key]
    out = {}
    for metric, names in SELF_TIMES.items():
        out[metric] = (sum(spans[n]["self_s"] for n in names), "s")
    for metric, name in CALLS.items():
        out[metric] = (spans[name]["calls"], "count")
    for metric, name in SIZES.items():
        out[metric] = (spans[name]["size"], "count")
    out["series.fraction_new_calls"] = (totals["fraction_new"], "count")
    derive_s = totals["derive_s"]
    out["identities.derive_s"] = (derive_s, "s")
    out["identities.check_s"] = (stages["check"], "s")
    out["identities.express_attempts"] = (totals["express_attempts"], "count")
    out["identities.level_basis_builds"] = (totals["level_basis_builds"], "count")
    for stage, seconds in stages.items():
        out["stage.%s_s" % stage] = (seconds, "s")
    staged = sum(stages.values())
    out["stage.share"] = (staged / derive_s if derive_s else 0.0, "ratio")
    out["trace.spans"] = (totals["span_count"], "count")
    out["trace.overhead_s"] = (traced_cold_wall_s - untraced_cold_wall_s, "s")
    return out


# -- the run -------------------------------------------------------------------

def environment() -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "platform": platform.platform(), "commit": _commit()}


def _commit():
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None


def run(workload: str, seed: int, seconds: int, trace: bool):
    if not os.path.isfile(os.path.join(ROOT, "src", "etaram", "__init__.py")):
        raise BenchError("no etaram sources under %s" % os.path.join(ROOT, "src"))
    case_ops = cases.workload(workload, seed)
    rounds = []
    start = time.perf_counter()
    if trace:
        plain = check_round(case_ops, run_round(workload, seed, False))
        traced_reports = run_round(workload, seed, True)
        traced = check_round(case_ops, traced_reports)
        rounds = [plain, traced]
        metrics = layer_metrics(traced_reports, plain["cold_wall_s"], traced["cold_wall_s"])
    else:
        while not rounds or time.perf_counter() - start < seconds:
            rounds.append(check_round(case_ops, run_round(workload, seed, False)))
        measured = [s for r in rounds for s in r["setup_samples"]]
        metrics = {"setup_s": (setup_seconds(workload, seed, measured), "s")}
        for key, unit in (("cold_s", "s"), ("warm_s", "s"), ("peak_rss_mib", "MiB")):
            values = [r[key] for r in rounds]
            metrics[key] = (max(values) if key == "peak_rss_mib"
                            else statistics.median(values), unit)
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record = {"environment": environment(), "workload": workload, "seed": seed,
              "seconds": seconds, "trace": int(trace),
              "elapsed_s": time.perf_counter() - start,
              "rounds": rounds, "result": result}
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    path = os.path.join(HERE, "results", "%s-seed%d-trace%d.json"
                        % (workload, seed, int(trace)))
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    for r in rounds:
        for p in r["problems"]:
            print("FAILED %s (%s pass): %s" % (p["op"], p["pass"], "; ".join(p["problems"])))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=cases.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=5)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print("benchmark failed: %s" % exc, file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
