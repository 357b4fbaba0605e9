"""Tests of the benchmark itself: the negative controls, the reference, and
the tracer's stage accounting.

    python3 -m pytest bench/test_bench.py      # from the repository root
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import cases  # noqa: E402
import etaram  # noqa: E402
import etaram.reduction  # noqa: E402,F401  (worker reads api.reduction)
import reference  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
from run import check_round  # noqa: E402

OVER_5N2 = cases.CORPUS[0][0]


def _report(op, result):
    """A worker report whose cold and warm passes both returned `result`."""
    return {"setup_s": 0.0, "setup_wall_s": 0.0, "cold_wall_s": 0.0, "cold_speed": 1.0,
            "warm_wall_s": 0.0, "warm_speed": 1.0, "rss_kib": 0,
            "outputs": [[worker.output(op, ("ok", result), etaram, True)],
                        [worker.output(op, ("ok", result), etaram, False)]]}


def test_correct_identity_passes():
    ident = worker.build(OVER_5N2, etaram)()
    counts = check_round([[OVER_5N2]], [_report(OVER_5N2, ident)])
    assert (counts["attempted"], counts["failed"]) == (2, 0)


def test_altered_rhs_coefficient_counts_as_failed():
    ident = worker.build(OVER_5N2, etaram)()
    key = min(ident.rhs)
    ident.rhs[key] += 1
    counts = check_round([[OVER_5N2]], [_report(OVER_5N2, ident)])
    assert counts["failed"] == 1
    found = " ".join(counts["problems"][0]["problems"])
    assert "published polynomials" in found and "differs from the reference" in found


def test_wrong_expected_verdict_counts_as_failed():
    true_case = cases.verify_cases(seed=1)[0][0]
    op = dict(true_case, order=60, expect={"equal": False})
    result = worker.build(op, etaram)()
    assert result[0] is True
    counts = check_round([[op]], [_report(op, result)])
    assert counts["failed"] == 1


def test_perturbed_verify_reports_reference_exponent():
    op = dict(cases.verify_cases(seed=5)[1][0])
    op["order"] = 80
    c, e, _ = op["rhs"][-1]
    op["rhs"] = op["rhs"][:-1] + [(c, e % 40 + 40, {})]
    result = worker.build(op, etaram)()
    assert result[0] is False and result[1]["exponent"] == str(e % 40 + 40)
    counts = check_round([[op]], [_report(op, result)])
    assert counts["failed"] == 0


def test_reference_partition_numbers():
    p = reference.partition_numbers(101)
    assert p[:8] == [1, 1, 2, 3, 5, 7, 11, 15] and p[100] == 190569292
    # the same numbers from the plain product route
    assert reference.product({(0, 1): -1, (0, 2): 0}, 101) == p


def test_stage_times_cover_derive():
    tracer = spans.Tracer()
    tracer.install()
    try:
        worker.build(cases.CORPUS[1][0], etaram)()
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    derive_s = summary["derive_s"]
    assert derive_s > 0
    assert sum(summary["stages"].values()) >= 0.95 * derive_s
    assert summary["fraction_new"] > 0
    assert summary["spans"]["series.mul"]["calls"] > 0


def test_warm_output_differing_from_cold_counts_as_failed():
    ident = worker.build(OVER_5N2, etaram)()
    report = _report(OVER_5N2, ident)
    ident.rhs[min(ident.rhs)] += 1
    report["outputs"][1] = [worker.output(OVER_5N2, ("ok", ident), etaram, False)]
    counts = check_round([[OVER_5N2]], [report])
    assert counts["failed"] == 1
    assert counts["problems"][0]["pass"] == "warm"


def test_speed_samples_are_left_out_of_the_pass_time():
    def busy():
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass

    speed = worker.Speed()
    start = time.perf_counter()
    _, elapsed = worker.run_pass([busy] * 5, speed)
    whole = time.perf_counter() - start
    # a sample before and after the pass, and at least 4 from the timer
    assert len(speed.samples) >= 6 and speed.inside_s > 0
    assert elapsed < whole - speed.inside_s
    assert speed.relative() > 0
