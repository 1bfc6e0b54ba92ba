"""Tests of the benchmark itself, at smoke size.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys

import pytest

from perfbench import catalog
from perfbench.run import ROOT, end_to_end, per_layer
from perfbench.spans import SpanRecorder
from perfbench.workloads import (SMOKE, WORKLOADS, SetupClock,
                                 annotation_cycle)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
#: metrics measured in virtual time or counted, which repeat per seed.
VIRTUAL = ("failure_ratio", "goodput_mbps", "late_elements",
           "interactive_violations", "startup_p50_s", "startup_p99_s")


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_passes_checks_and_reports_every_metric(workload):
    out, gated, reported = end_to_end(workload, seed=3, seconds=0.2,
                                      size=SMOKE)
    assert out.failed == 0, out.problems
    assert out.attempted >= 1
    assert set(gated) == {name for name, *_ in catalog.END_TO_END}
    for name, (value, unit) in gated.items():
        assert math.isfinite(value) and value > 0, name
    expected = {name for name, (_, workloads) in catalog.REPORTED.items()
                if workload in workloads}
    assert set(reported) == expected
    for name, (_, unit) in reported.items():
        assert unit == catalog.REPORTED[name][0]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_virtual_metrics_and_digest_repeat_for_a_seed(workload):
    first = WORKLOADS[workload](7, 0.0, SMOKE)
    second = WORKLOADS[workload](7, 0.0, SMOKE)
    assert first.digest and first.digest == second.digest
    for name in VIRTUAL:
        if name in first.metrics:
            assert first.metrics[name] == second.metrics[name], name
    other = WORKLOADS[workload](8, 0.0, SMOKE)
    assert other.digest != first.digest


def test_traced_run_reports_every_per_layer_metric():
    out, metrics = per_layer("playback", seed=1, size=SMOKE)
    assert out.failed == 0, out.problems
    assert list(metrics) == [name for name, *_ in catalog.per_layer()]
    assert metrics["activities.calls"][0] > 0
    assert metrics["codecs.frames_decoded"][0] > 0
    assert metrics["trace.overhead_ratio"][0] > 0
    assert 0.0 <= metrics["trace.unattributed_share"][0] < 0.5


def test_traced_counters_leave_out_the_checks():
    # The read-back check removes every write again, in transactions of
    # its own; only the cycle's writes may count as commits.
    out, metrics = per_layer("annotation-mix", seed=2, size=SMOKE)
    assert out.failed == 0, out.problems
    writes = annotation_cycle(SMOKE).count("write")
    assert metrics["db.tx_commits"][0] == writes


def test_setup_clock_times_up_to_the_first_simulator_run():
    from repro.sim import Delay, Simulator

    def scenario():
        sim = Simulator()

        def step():
            yield Delay(1.0)

        sim.spawn(step())
        sim.run()
        sim.run()
        return sim.now.seconds

    original = Simulator.__dict__["run"]
    with SetupClock() as clock:
        assert clock.item(scenario) == 1.0
        assert clock.item(scenario) == 1.0
    assert len(clock.times) == 2 and all(t > 0 for t in clock.times)
    assert Simulator.__dict__["run"] is original


def test_metric_names_units_and_benchmark_json():
    names = ([name for name, *_ in catalog.END_TO_END]
             + [name for name, *_ in catalog.per_layer()]
             + list(catalog.REPORTED)
             + [name for name, _ in catalog.WORKLOADS])
    for name in names:
        assert NAME.match(name), name
    per_kind = [[name for name, *_ in catalog.END_TO_END],
                [name for name, *_ in catalog.per_layer()],
                [name for name, _ in catalog.WORKLOADS]]
    for kind in per_kind:
        assert len(kind) == len(set(kind))
    units = ([unit for _, unit, *_ in catalog.END_TO_END]
             + [unit for _, unit, *_ in catalog.per_layer()])
    assert all(UNIT.match(unit) for unit in units)
    assert all(len(why) <= 200 for _, why in catalog.WORKLOADS)
    assert "setup_s" in per_kind[0]
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == catalog.benchmark_json()


def test_span_self_time_subtracts_children_and_times_each_resume():
    recorder = SpanRecorder()
    child_id = recorder.name_id("t", "child")
    parent_id = recorder.name_id("t", "parent")
    gen_id = recorder.name_id("t", "steps")
    child = recorder.timed_call(lambda: sum(range(1000)), child_id)

    def parent():
        child()
        return sum(range(1000))

    def steps():
        yield 1
        child()
        yield 2

    recorder.enabled = True
    recorder.timed_call(parent, parent_id)()
    assert list(recorder.timed_generator(steps(), gen_id)) == [1, 2]
    names, parents, starts, ends = recorder.span_arrays()
    # parent + its child, then 3 resumes of the generator + one child.
    assert names.tolist() == [parent_id, child_id, gen_id, gen_id, child_id,
                              gen_id]
    assert parents.tolist() == [-1, 0, -1, -1, 3, -1]
    self_s = recorder.self_times()
    assert self_s[0] == pytest.approx((ends[0] - starts[0])
                                      - (ends[1] - starts[1]))
    assert (self_s >= -1e-9).all()
    assert recorder.calls[child_id] == 2


def test_uninstall_restores_every_entry_point():
    from repro.sim.kernel import Simulator
    from repro.net.channel import Channel

    before = (Simulator.__dict__["spawn"], Simulator.__dict__["_push"],
              Channel.__dict__["reserve"])
    recorder = SpanRecorder()
    recorder.install()
    assert Channel.__dict__["reserve"] is not before[2]
    recorder.uninstall()
    after = (Simulator.__dict__["spawn"], Simulator.__dict__["_push"],
             Channel.__dict__["reserve"])
    assert after == before


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "soak-day",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert "correct" not in done.stdout
