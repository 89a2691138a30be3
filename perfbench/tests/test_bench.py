"""Tests of the benchmark itself: oracles, span arithmetic, metric names.

    python3 -m pytest perfbench/tests -q
"""

import json
import random
import re
import signal
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from explab import classify, galilean, milne  # noqa: E402
from explab.cochain import coboundary  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def fail_frac(ops):
    passes = [run.run_pass(ops)]
    return len(run.failures(ops, passes)) / (len(ops) * len(passes))


def test_metric_names_units_and_caps():
    e2e, layer = BENCH["end_to_end"], BENCH["per_layer"]
    assert 2 <= len(BENCH["workloads"]) <= 8
    assert 1 <= len(e2e) <= 16 and 1 <= len(layer) <= 128
    names = [m["name"] for m in e2e + layer] + [w["name"] for w in BENCH["workloads"]]
    assert all(NAME.match(n) for n in names)
    assert len(set(names)) == len(names)
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in e2e] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in layer] == spans.layer_metric_specs()
    setup = [m for m in e2e if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in e2e) <= 0.25


def test_stored_dimensions_are_the_papers():
    expected = workloads.EXPECTED["classify"]
    assert expected["galilean"]["quotient_dim"] == 1
    for m in range(1, 6):
        assert expected["milne:%d" % m]["quotient_dim"] == m * (m + 1) // 2
        assert expected["milne:%d" % m]["realizable_dim"] == m
    for n in range(1, 4):
        assert expected["phase-space:%d" % n]["quotient_dim"] == n * (2 * n - 1)
        assert expected["phase-space:%d" % n]["coboundary_dim"] == 0


def test_corrupted_digest_raises_fail_frac():
    good = workloads.EXPECTED["classify"]["galilean"]
    bad = dict(good, sha256="0" * 64)
    assert fail_frac([workloads.classify_op("galilean", good)]) == 0
    assert fail_frac([workloads.classify_op("galilean", good),
                      workloads.classify_op("galilean", bad)]) == 0.5


def test_wrong_dimension_raises_fail_frac():
    bad = dict(workloads.EXPECTED["classify"]["phase-space:1"], quotient_dim=2)
    assert fail_frac([workloads.classify_op("phase-space:1", bad)]) == 1
    good = workloads.EXPECTED["classify"]["milne:1"]
    bad = dict(good, realizable_dim=2)
    assert fail_frac([workloads.classify_op("milne:1", good),
                      workloads.classify_op("milne:1", bad)]) == 0.5


def test_wrong_equivalence_verdict_raises_fail_frac():
    base = classify(galilean())
    rep = base.representatives[0]
    shifted = rep + coboundary(workloads.random_one_cochain(base.alg, 1, random.Random(0)))
    assert fail_frac([workloads.equivalence_op(rep, shifted, True)]) == 0
    assert fail_frac([workloads.equivalence_op(rep, shifted, False),
                      workloads.equivalence_op(rep, rep * 2, True)]) == 1


def test_output_change_between_passes_is_a_failure():
    outputs = iter(["a", "b"])
    op = workloads.Op("flaky", lambda: next(outputs), lambda out: None, str)
    passes = [run.run_pass([op]), run.run_pass([op])]
    assert run.failures([op], passes) == ["pass 1, flaky: output differs from the first pass"]


def test_speed_probe_takes_out_its_time_and_scales():
    probe = run.SpeedProbe()
    # samples every 0.2 s on a machine at half the nominal speed, and two
    # far from the operations below
    probe.starts = [-5.0, 0.0, 0.2, 0.4, 0.6, 0.8, 1.0, 6.0]
    probe.walls = [100.0] + [2 * run.NOMINAL_REF_S] * 6 + [100.0]
    probe.cpus = list(probe.walls)
    # three samples (0.2, 0.4, 0.6) ran inside the operation
    wall, cpu = probe.scaled(0.1, 0.7, 0.5)
    own = 3 * 2 * run.NOMINAL_REF_S
    assert wall == pytest.approx((0.6 - own) / 2)
    assert cpu == pytest.approx((0.5 - own) / 2)
    assert probe.scaled(0.45, 0.5, 0.05)[0] == pytest.approx(0.05 / 2)
    # with no sample within WINDOW_S, the nearest one on each side
    assert probe.scaled(3.0, 3.1, 0.1)[0] == pytest.approx(
        0.1 * run.NOMINAL_REF_S / ((100.0 + 2 * run.NOMINAL_REF_S) / 2))


def test_speed_probe_samples_while_work_runs():
    previous = signal.getsignal(signal.SIGALRM)
    with run.SpeedProbe() as probe:
        end = time.perf_counter() + 3 * run.SpeedProbe.PERIOD_S
        while time.perf_counter() < end:
            sum(range(1000))
    assert len(probe.starts) >= 3 and probe.starts == sorted(probe.starts)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_self_time_on_synthetic_tree():
    # root [0, 10] has children a [1, 4] and b [3, 6], which overlap; a has
    # child c [2, 3]
    tree = [["root", 0.0, 10.0, -1, 0, None], ["a", 1.0, 4.0, 0, 0, None],
            ["c", 2.0, 3.0, 1, 0, None], ["b", 3.0, 6.0, 0, 0, None]]
    assert spans.self_times(tree) == [5.0, 2.0, 1.0, 3.0]


def test_custom_algebra_is_seeded_and_exact():
    first = workloads.custom_algebra(milne(2), random.Random(5))
    assert first == workloads.custom_algebra(milne(2), random.Random(5))
    assert first != workloads.custom_algebra(milne(2), random.Random(6))
    coeffs = [c for entry in first["brackets"] for _, c in entry["out"]]
    assert coeffs and all(isinstance(c, str) and re.fullmatch(r"-?\d+/\d+", c)
                          for c in coeffs)


def test_tracer_patches_every_module_and_keeps_outputs(tmp_path):
    ops = workloads.build("classify", 3, str(tmp_path))[:1]  # galilean
    classify_module = sys.modules["explab.classify"]
    original = classify_module.coboundary
    plain = run.run_pass(ops)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert classify_module.coboundary is not original
        traced = run.run_pass(ops, tracer)
    finally:
        tracer.uninstall()
    assert classify_module.coboundary is original
    assert run.failures(ops, [plain, traced]) == []
    metrics = tracer.layer_metrics(1)
    assert [n for n, _, _ in spans.layer_metric_specs()] == list(metrics) + ["trace.overhead_s"]
    assert metrics["cli.main.calls"][0] == 1
    assert metrics["classify.classify.galilean.busy_s"][0] > 0
    assert metrics["classify.degree_solves"][0] == 2  # degrees 1 and 2
    assert metrics["cochain.coboundary.calls"][0] > 0
    assert metrics["ratpoly.RatPoly.constructions"][0] > 0
    assert all(span[spans.OP] == 0 for span in tracer.spans)
