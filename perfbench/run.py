"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload soak-day --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --trace 1

With ``--trace 0`` the workload runs untraced and the last line of
standard output is one JSON object whose ``metrics`` hold every
end-to-end metric of ``BENCHMARK.json``.  With ``--trace 1`` one
set-up and one item of the workload run twice, untraced and then with
every layer entry point wrapped by :mod:`perfbench.spans`, and the
metrics are every per-layer metric.  The lines before the JSON are a
readable report, including the workload-specific figures of
:data:`perfbench.catalog.REPORTED`.

Exit status: 0 when every output check passed, 1 when one failed,
2 when the program under test is missing or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
if not __package__:  # run as a script: make ``perfbench`` importable
    sys.path.insert(0, str(ROOT))

from perfbench.catalog import RUN_SECONDS  # noqa: E402 - needs the path
from perfbench.workloads import Timing  # noqa: E402

TRACE_OUT = ROOT / "perfbench" / "out"


def _result(correct: bool, attempted: int, failed: int,
            metrics: Dict[str, tuple]) -> dict:
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def end_to_end(workload: str, seed: int, seconds: float, size) -> tuple:
    """Untraced run: (outcome, gated metrics, reported metrics)."""
    from perfbench.catalog import REPORTED
    from perfbench.workloads import WORKLOADS, peak_rss_mb

    out = WORKLOADS[workload](seed, seconds, size)
    failure_ratio = out.metrics["failure_ratio"][0]
    gated = {
        "setup_s": (out.setup_s, "s"),
        "ops_per_s": (statistics.median(out.rates), "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "served_ratio": (1.0 - failure_ratio, "ratio"),
    }
    reported = {name: (gated.get(name) or out.metrics[name])
                for name, (_, workloads) in REPORTED.items()
                if workload in workloads}
    return out, gated, reported


class Phases(Timing):
    """The timing of a traced-mode pass: no calibration, one metrics
    scope for the whole pass, and span recording (when a recorder is
    given) only inside measured phases — the set-up and each item.

    Counters are summed as their growth inside the phases, so checks
    that run between phases do not count.  A check that builds program
    state of its own runs in a scope of its own.
    """

    calibrated = False

    def __init__(self, recorder=None) -> None:
        self.recorder = recorder
        self.seconds = 0.0
        self.counts: Dict[str, float] = {}
        self.registry = None

    @contextmanager
    def scope(self):
        from repro.obs import scoped
        with scoped(tracing=False, decisions=False) as obs:
            self.registry = obs.metrics
            yield self

    def _counters(self) -> Dict[str, float]:
        return {name: counter.value for name, counter
                in self.registry.by_kind("counter").items()}

    @contextmanager
    def phase(self):
        before = self._counters()
        if self.recorder is not None:
            self.recorder.enabled = True
        start = perf_counter()
        try:
            yield
        finally:
            self.seconds += perf_counter() - start
            if self.recorder is not None:
                self.recorder.enabled = False
            for name, value in self._counters().items():
                self.counts[name] = (self.counts.get(name, 0)
                                     + value - before.get(name, 0))

    def isolated(self):
        from repro.obs import scoped
        return scoped(tracing=False, decisions=False)

    def counter(self, name: str) -> float:
        return float(self.counts.get(name, 0))

    def histogram(self, name: str):
        found = self.registry.get(name)
        return found if found is not None and found.count else None


def per_layer(workload: str, seed: int, size) -> tuple:
    """Traced run: (outcome, per-layer metrics)."""
    from perfbench.catalog import LEDGER_LAYERS, per_layer as catalog
    from perfbench.spans import SpanRecorder, import_layers
    from perfbench.workloads import WORKLOADS, annotation_cycle

    run = WORKLOADS[workload]
    # One set-up, then one item, or one full operation cycle of
    # annotation-mix.
    size = replace(size, setup_reps=1)
    items = (len(annotation_cycle(size)) if workload == "annotation-mix"
             else 1)
    import_layers()  # so neither pass pays first-import time
    with Phases().scope() as plain:
        run(seed, math.inf, size, max_items=items, timing=plain)
    recorder = SpanRecorder()
    recorder.install()
    try:
        with Phases(recorder).scope() as traced:
            out = run(seed, math.inf, size, max_items=items, timing=traced)
    finally:
        recorder.uninstall()
    recorder.write(TRACE_OUT / f"{workload}-seed{seed}.spans")

    ledger = recorder.by_layer()
    values: Dict[str, float] = {}
    for layer in LEDGER_LAYERS:
        row = ledger.get(layer, {"self_s": 0.0, "calls": 0})
        values[f"{layer}.self_s"] = row["self_s"]
        values[f"{layer}.calls"] = float(row["calls"])

    count = traced.counter

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    wait = traced.histogram("admission.queue_wait_s")
    depth = traced.histogram("admission.queue_depth_hist")
    values.update({
        "watch.invariant_checks": float(
            out.counts.get("watch.invariant_checks", 0)),
        "cache.versions_of.calls": float(
            recorder.calls_of("cache", "BlockCache.versions_of")),
        "cache.hit_ratio": ratio(count("cache.hits"), count("cache.lookups")),
        "cache.fill_abort_ratio": ratio(count("cache.fill_aborts"),
                                        count("cache.fills")),
        "cache.evictions": count("cache.evictions"),
        "admission.try_admit.calls": float(recorder.calls_of(
            "admission", "AdmissionController.try_admit")),
        "admission.queued": count("admission.queued"),
        "admission.rejected": count("admission.rejected"),
        "admission.shed": count("admission.shed"),
        "admission.timeouts": count("admission.timeouts"),
        "admission.queue_wait_p50_s": wait.percentile(50) if wait else 0.0,
        "admission.queue_wait_p99_s": wait.percentile(99) if wait else 0.0,
        "admission.queue_depth_max": float(depth.max) if depth else 0.0,
        "net.reserve.calls": float(recorder.calls_of("net",
                                                     "Channel.reserve")),
        "net.bits_sent": count("net.bits_sent"),
        "cluster.reads": count("cluster.reads"),
        "cluster.failovers": count("cluster.failovers"),
        "cluster.repairs": count("cluster.repairs"),
        "cluster.repair_bits": count("cluster.repair_bits"),
        "faults.injected": count("faults.injected"),
        "faults.retries": count("faults.retries"),
        "sim.events_dispatched": count("sim.events_dispatched"),
        "sim.processes_spawned": count("sim.processes_spawned"),
        "storage.deadline_misses": count("storage.deadline_misses"),
        "storage.seek_cylinders": count("storage.seek_cylinders"),
        "db.tx_commits": count("db.tx_commits"),
        "db.tx_abort_ratio": ratio(count("db.tx_aborts"),
                                   count("db.tx_begins")),
        "db.lock_conflicts": count("db.lock_conflicts"),
        "db.index_scans": count("db.index_scans"),
        "db.full_scans": count("db.full_scans"),
        "annotations.plans_index": count("annotations.plans_index"),
        "annotations.plans_scan": count("annotations.plans_scan"),
        "annotations.examined_per_row": out.counts.get(
            "annotations.examined_per_row", 0.0),
        "codecs.frames_decoded": float(recorder.calls_matching(
            "codecs", "decode_next")),
        "trace.overhead_ratio": traced.seconds / plain.seconds,
        "trace.unattributed_share": max(
            0.0, 1.0 - recorder.top_level_time() / traced.seconds),
    })
    metrics = {name: (values[name], unit)
               for name, unit, _, _ in catalog()}
    return out, metrics


def _print_report(workload: str, out, metrics: Dict[str, tuple]) -> None:
    print(f"== {workload}: {out.items} items, {out.attempted} operations, "
          f"{out.failed} failed")
    for name, (value, unit) in metrics.items():
        print(f"{workload}  {name:<32} {value:>16.6g} {unit}")
    for problem in out.problems:
        print(f"{workload}  CHECK FAILED: {problem}", file=sys.stderr)


def run_one(workload: str, seed: int, seconds: float, trace: bool,
            size) -> tuple:
    """Run one workload; print its report; return (outcome, metrics)."""
    if trace:
        out, metrics = per_layer(workload, seed, size)
        _print_report(workload, out, metrics)
    else:
        out, gated, reported = end_to_end(workload, seed, seconds, size)
        _print_report(workload, out, reported)
        metrics = gated
    return out, metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's sources are missing "
              f"(no src/repro under {ROOT})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from perfbench.workloads import FULL, WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        print(f"perfbench: unknown workload {unknown[0]!r}; choose one of "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    attempted = failed = 0
    combined: Dict[str, tuple] = {}
    for name in names:
        out, metrics = run_one(name, args.seed, args.seconds,
                               bool(args.trace), FULL)
        attempted += out.attempted
        failed += out.failed
        prefix = f"{name}." if len(names) > 1 else ""
        combined.update({prefix + key: value
                         for key, value in metrics.items()})
    correct = failed == 0
    print(json.dumps(_result(correct, attempted, failed, combined)))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
