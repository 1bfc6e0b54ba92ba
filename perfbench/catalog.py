"""Every workload and metric the benchmark reports, declared once.

``BENCHMARK.json`` at the repository root holds
``json.dumps(benchmark_json(), indent=2)`` and a test checks that the
two agree.  The file's format admits only names, units, bounds
and one ``why`` per workload, so what it cannot hold lives here: what
each metric measures, which workloads report it, and — for every
per-layer metric — which end-to-end figure it should move, on which
workload, and where the prediction is no change.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 20

#: (name, why it was chosen)
WORKLOADS: List[Tuple[str, str]] = [
    ("soak-day",
     "The composed broadcast day in its clean regime: the cache coherence "
     "probe and watch supervision do most of the work, admission about 1%."),
    ("zipf-crowd",
     "Overload: a cached Zipf flash crowd where admission and net do most "
     "of the work and a third of sessions are refused; no watchdog runs."),
    ("annotation-mix",
     "The only db and annotations workload: bulk load, then one client "
     "mixing pinned, unpinned and join queries with 20% transactional writes."),
    ("playback",
     "The paper's client interface: 200 sessions select stored raw, JPEG "
     "and MPEG clips and play them, so activities, streams and codecs work."),
]

#: Gated end-to-end metrics, reported by every workload with tracing
#: off: (name, unit, better, bound, definition).
END_TO_END: List[Tuple[str, str, str, float, str]] = [
    ("setup_s", "s", "lower", 0.25,
     "median of several set-ups, in host seconds scaled to the reference "
     "host: the corpus bulk load (annotation-mix) and building the AV "
     "database with its encoded clips (playback), each repeated before "
     "the timed loop; on soak-day and zipf-crowd, the part of each stock "
     "scenario run before its first Simulator.run call (drawing inputs, "
     "building the cluster and cache tier, spawning every process)"),
    ("ops_per_s", "1/s", "higher", 0.25,
     "operations per host second scaled to the reference host, the "
     "median over the timed loop's windows (one item; one operation cycle "
     "on annotation-mix); an operation is a session on the simulated "
     "workloads and a query or write on annotation-mix"),
    ("peak_rss_mb", "MB", "lower", 0.1,
     "peak resident set size of the benchmark process"),
    ("served_ratio", "ratio", "higher", 0.05,
     "1 - failure_ratio: share of attempted operations neither refused "
     "nor failed, over the seed's first items (repeats exactly per seed)"),
]

#: Every end-to-end figure, with the workloads that print it, with its
#: unit, in the report.  The workload-specific ones are not gated in
#: BENCHMARK.json, whose format requires every end-to-end metric on every
#: workload and never 0.
REPORTED: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "setup_s": ("s", ("soak-day", "zipf-crowd", "annotation-mix",
                      "playback")),
    "ops_per_s": ("1/s", ("soak-day", "zipf-crowd", "annotation-mix",
                          "playback")),
    "peak_rss_mb": ("MB", ("soak-day", "zipf-crowd", "annotation-mix",
                           "playback")),
    "query_p50_ms": ("ms", ("annotation-mix",)),
    "query_p99_ms": ("ms", ("annotation-mix",)),
    "write_p50_ms": ("ms", ("annotation-mix",)),
    "write_p99_ms": ("ms", ("annotation-mix",)),
    "goodput_mbps": ("Mb/s", ("zipf-crowd", "playback")),
    "failure_ratio": ("ratio", ("soak-day", "zipf-crowd", "annotation-mix",
                                "playback")),
    "late_elements": ("count", ("soak-day", "zipf-crowd", "playback")),
    "interactive_violations": ("count", ("soak-day", "zipf-crowd")),
    "startup_p50_s": ("s", ("playback",)),
    "startup_p99_s": ("s", ("playback",)),
}

#: Layers whose span self time and call count are reported.
LEDGER_LAYERS = ("watch", "cache", "admission", "net", "cluster", "faults",
                 "sim", "storage", "db", "annotations", "activities",
                 "streams", "codecs", "values", "session", "avdb", "soak",
                 "scenario", "bench")

#: Per-layer metrics beyond ``<layer>.self_s`` / ``<layer>.calls``:
#: (name, unit, better, what it should move).
_LAYER_EXTRA: List[Tuple[str, str, str, str]] = [
    ("watch.invariant_checks", "count", "lower",
     "ops_per_s on soak-day; no change on zipf-crowd or playback"),
    ("cache.versions_of.calls", "count", "lower",
     "ops_per_s on soak-day; no change on zipf-crowd or playback"),
    ("cache.hit_ratio", "ratio", "higher",
     "ops_per_s on soak-day and zipf-crowd; goodput_mbps and "
     "late_elements on zipf-crowd"),
    ("cache.fill_abort_ratio", "ratio", "lower",
     "ops_per_s on soak-day and zipf-crowd"),
    ("cache.evictions", "count", "lower",
     "ops_per_s on soak-day and zipf-crowd"),
    ("admission.try_admit.calls", "count", "lower",
     "ops_per_s on zipf-crowd; near zero on playback"),
    ("admission.queued", "count", "lower",
     "failure_ratio and late_elements on zipf-crowd through queue wait"),
    ("admission.rejected", "count", "lower",
     "failure_ratio on zipf-crowd; near zero on playback"),
    ("admission.shed", "count", "lower",
     "failure_ratio on zipf-crowd; near zero on playback"),
    ("admission.timeouts", "count", "lower",
     "failure_ratio on zipf-crowd; near zero on playback"),
    ("admission.queue_wait_p50_s", "virtual_s", "lower",
     "late_elements on zipf-crowd (virtual seconds, bucket resolution)"),
    ("admission.queue_wait_p99_s", "virtual_s", "lower",
     "failure_ratio and late_elements on zipf-crowd (virtual seconds)"),
    ("admission.queue_depth_max", "count", "lower",
     "ops_per_s on zipf-crowd"),
    ("net.reserve.calls", "count", "lower", "ops_per_s on zipf-crowd"),
    ("net.bits_sent", "bit", "lower", "ops_per_s on zipf-crowd"),
    ("cluster.reads", "count", "lower",
     "ops_per_s and failure_ratio on soak-day"),
    ("cluster.failovers", "count", "lower",
     "ops_per_s and failure_ratio on soak-day"),
    ("cluster.repairs", "count", "lower",
     "ops_per_s and failure_ratio on soak-day"),
    ("cluster.repair_bits", "bit", "lower",
     "ops_per_s and failure_ratio on soak-day"),
    ("faults.injected", "count", "lower",
     "ops_per_s and failure_ratio on soak-day"),
    ("faults.retries", "count", "lower",
     "ops_per_s and failure_ratio on soak-day"),
    ("sim.events_dispatched", "count", "lower",
     "ops_per_s on every simulated workload; no change on annotation-mix"),
    ("sim.processes_spawned", "count", "lower",
     "ops_per_s on every simulated workload; no change on annotation-mix"),
    ("storage.deadline_misses", "count", "lower",
     "late_elements on soak-day and zipf-crowd, where cluster nodes run "
     "the disk scheduler; zero on playback, whose disks stream through "
     "device reservations"),
    ("storage.seek_cylinders", "count", "lower",
     "ops_per_s on soak-day and zipf-crowd; zero on playback"),
    ("db.tx_commits", "count", "lower",
     "write_p99_ms and setup_s on annotation-mix"),
    ("db.tx_abort_ratio", "ratio", "lower",
     "write_p99_ms on annotation-mix"),
    ("db.lock_conflicts", "count", "lower",
     "write_p99_ms on annotation-mix"),
    ("db.index_scans", "count", "lower",
     "setup_s and ops_per_s on playback (clip lookups)"),
    ("db.full_scans", "count", "lower",
     "setup_s and ops_per_s on playback (clip lookups)"),
    ("annotations.plans_index", "count", "higher",
     "query_p50_ms and query_p99_ms on annotation-mix; no change on the "
     "simulated workloads"),
    ("annotations.plans_scan", "count", "lower",
     "query_p99_ms on annotation-mix; no change on the simulated workloads"),
    ("annotations.examined_per_row", "ratio", "lower",
     "query_p50_ms and query_p99_ms on annotation-mix"),
    ("codecs.frames_decoded", "count", "lower",
     "ops_per_s and setup_s on playback; no change on soak-day or "
     "zipf-crowd, which stream Blob values"),
    ("trace.overhead_ratio", "ratio", "lower",
     "nothing: traced over untraced host time of the same work"),
    ("trace.unattributed_share", "ratio", "lower",
     "nothing: host time outside every span, to show span coverage gaps"),
]

#: What each layer's self time and calls should move.
_LAYER_MOVES: Dict[str, str] = {
    "watch": "ops_per_s on soak-day; no change on zipf-crowd or playback",
    "cache": "ops_per_s on soak-day and zipf-crowd; no change on playback",
    "admission": "ops_per_s on zipf-crowd; near zero on playback",
    "net": "ops_per_s on zipf-crowd",
    "cluster": "ops_per_s and failure_ratio on soak-day; zero on playback",
    "faults": "ops_per_s on soak-day",
    "sim": "ops_per_s on every simulated workload; no change on "
           "annotation-mix",
    "storage": "late_elements and startup_p99_s on playback",
    "db": "write_p99_ms and setup_s on annotation-mix",
    "annotations": "query_p50_ms and query_p99_ms on annotation-mix; no "
                   "change on the simulated workloads",
    "activities": "ops_per_s and setup_s on playback; no change on "
                  "soak-day or zipf-crowd",
    "streams": "ops_per_s on playback; no change on soak-day or zipf-crowd",
    "codecs": "ops_per_s and setup_s on playback; no change on soak-day or "
              "zipf-crowd",
    "values": "ops_per_s and setup_s on playback; no change on soak-day or "
              "zipf-crowd",
    "session": "ops_per_s on playback; no change on soak-day or zipf-crowd",
    "avdb": "ops_per_s and setup_s on playback",
    "soak": "setup_s and ops_per_s on soak-day (drawing the day's timeline "
            "and chaos plan); zero elsewhere",
    "scenario": "ops_per_s on soak-day and zipf-crowd (the process bodies "
                "of the stock scenario modules)",
    "bench": "nothing: the benchmark's own client code",
}


def per_layer() -> List[Tuple[str, str, str, str]]:
    """Every per-layer metric: (name, unit, better, what it moves)."""
    rows = []
    for layer in LEDGER_LAYERS:
        moves = _LAYER_MOVES[layer]
        rows.append((f"{layer}.self_s", "s", "lower", moves))
        rows.append((f"{layer}.calls", "count", "lower", moves))
    return rows + _LAYER_EXTRA


def benchmark_json() -> dict:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS],
        "end_to_end": [{"name": name, "unit": unit, "better": better,
                        "bound": bound}
                       for name, unit, better, bound, _ in END_TO_END],
        "per_layer": [{"name": name, "unit": unit, "better": better}
                      for name, unit, better, _ in per_layer()],
    }
