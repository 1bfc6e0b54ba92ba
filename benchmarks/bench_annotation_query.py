"""Annotation-query benchmark: index-backed vs sequential-scan execution.

Loads a seeded synthetic corpus (the full run is 10^6 annotations
across 2x10^3 values — the ROADMAP gate) into the typed annotation
store, then times the same temporal-query battery through both
execution paths.  Before any speed claim, two honesty gates must pass:

* **equivalence** — every query's index-path rows must be byte-identical
  (same rows, same order, same rendering) to its scan-path rows;
* **concurrency** — queries interleaved with seeded wait-die writer
  transactions stay correct: a younger writer hitting an in-flight
  scan's locks dies (aborts, retriable) instead of corrupting the
  B-tree, and the index still agrees with the scan afterwards.

Usage::

    python benchmarks/bench_annotation_query.py                 # full run + table
    python benchmarks/bench_annotation_query.py --smoke         # CI gate (>= 50x)
    python benchmarks/bench_annotation_query.py --update --pr N # + record PR N

``--update`` writes the ``annotation_query`` section of
``BENCH_PERF.json``, merges the headline numbers into PR N's trajectory
row (created if missing), and renders
``benchmarks/results/annotation_query.txt``.  The smoke gate re-measures
up to 3 times before failing (``gate.remeasure``) so shared-CI noise
dips don't flap the job.
"""

from __future__ import annotations

import argparse
import hashlib
import random
import sys
import time

import gate

sys.path.insert(0, str(gate.REPO_ROOT / "src"))

from repro.annotations import (  # noqa: E402
    AQ,
    AnnotationJoin,
    AnnotationStore,
    CorpusSpec,
    load_corpus,
    run,
    run_join,
)
from repro.errors import LockTimeoutError  # noqa: E402
from repro.obs import scoped  # noqa: E402

FULL = CorpusSpec(seed=0, values=2000, annotations=1_000_000,
                  duration_s=600.0)
SMOKE = CorpusSpec(seed=0, values=400, annotations=120_000,
                   duration_s=600.0)

#: the acceptance gate: the index-backed battery must beat the scan
#: battery by at least this factor (the real margin is far beyond it).
SPEEDUP_GATE = 50.0

#: "value-00000" carries the corpus's viral share — the hot, deeply
#: annotated value a real workload would hammer.
HOT = "value-00000"


def battery(spec: CorpusSpec):
    """The timed queries: all five operators plus filtered variants.

    Every timed query is *selective* — pinned to a track with a
    temporal window — because those are the queries the planner routes
    to the index.  The broad unpinned shape (where the planner rightly
    picks the scan) is equivalence-checked separately in
    :func:`check_global`, untimed.
    """
    return [
        AQ.on(HOT, "audio").during(100.0, 130.0).named("hot-during"),
        AQ.on(HOT, "audio").overlaps(200.0, 201.0).named("hot-overlaps"),
        AQ.on(HOT, "audio").before(50.0).named("hot-before"),
        AQ.on(HOT, "audio").after(550.0).named("hot-after"),
        AQ.on(HOT, "audio").meets(300.0, 330.0).named("hot-meets"),
        AQ.on("value-00100", "video").during(0.0, spec.duration_s)
          .named("cold-track-all"),
        AQ.on(HOT, "audio").of_type("word").where(label="word-003")
          .during(0.0, 300.0).named("hot-filtered"),
    ]


def check_global(store: AnnotationStore) -> bool:
    """The scan-shaped query, both paths, row-for-row (untimed)."""
    query = AQ.of_type("scene").during(290.0, 310.0).named("global-scene")
    return (run(store, query, mode="index").rows
            == run(store, query, mode="scan").rows)


def build_store(spec: CorpusSpec) -> tuple:
    t0 = time.perf_counter()
    store = AnnotationStore()
    facts = load_corpus(store, spec)
    return store, facts, time.perf_counter() - t0


def _rows_digest(results) -> str:
    folded = hashlib.sha256()
    for result in results:
        for ann in result.rows:
            folded.update(ann.to_row().encode())
            folded.update(b"\n")
    return folded.hexdigest()


def run_battery(store: AnnotationStore, spec: CorpusSpec, mode: str) -> dict:
    queries = battery(spec)
    t0 = time.perf_counter()
    results = [run(store, query, mode=mode) for query in queries]
    dt = time.perf_counter() - t0
    return {
        "mode": mode,
        "wall_s": dt,
        "queries": len(queries),
        "queries_per_s": len(queries) / dt,
        "rows": sum(len(r.rows) for r in results),
        "digest": _rows_digest(results),
    }


def measure(store: AnnotationStore, spec: CorpusSpec,
            index_repeats: int = 3) -> dict:
    """Time both paths; equivalence is asserted, not assumed.

    The index battery takes best-of-N (it is fast enough to jitter);
    the scan battery runs once (it is the slow, stable reference).
    """
    index = min((run_battery(store, spec, "index")
                 for _ in range(index_repeats)),
                key=lambda m: m["wall_s"])
    scan = run_battery(store, spec, "scan")
    return {
        "index": index,
        "scan": scan,
        "identical": index["digest"] == scan["digest"]
        and index["rows"] == scan["rows"],
        "speedup": scan["wall_s"] / index["wall_s"],
    }


# -- correctness under concurrent wait-die writers ------------------------
def check_concurrency(store: AnnotationStore, spec: CorpusSpec,
                      seed: int = 0, writers: int = 40) -> dict:
    """Seeded writers interleaved with queries, plus the wait-die probe."""
    rng = random.Random(f"annotation-bench:{seed}")
    probe = AQ.on(HOT, "audio").during(100.0, 130.0)
    commits = 0
    added = []
    agree = True
    for i in range(writers):
        start = rng.uniform(0.0, spec.duration_s - 1.0)
        added.append(store.annotate(HOT, "audio", "word", start, start + 0.5,
                                    {"label": f"bench-{i:03d}"}))
        commits += 1
        if len(added) > 3 and rng.random() < 0.3:
            store.remove(added.pop(rng.randrange(len(added))))
            commits += 1
        if i % 10 == 9:
            agree = agree and (run(store, probe, mode="index").rows
                               == run(store, probe, mode="scan").rows)
    store.track_index(HOT, "audio").check_invariants()

    # The wait-die probe: an older reader's in-flight scan holds SHARED
    # locks (sentinel + visited postings); a younger writer must die.
    reader_tx = store.db.begin()
    scan = store.scan_track(HOT, "audio", tx=reader_tx)
    consumed = [next(scan) for _ in range(5)]
    writer_tx = store.db.begin()
    died = False
    try:
        store.annotate(HOT, "audio", "word", 0.25, 0.75,
                       {"label": "too-young"}, tx=writer_tx)
    except LockTimeoutError as error:
        died = not error.should_retry
        writer_tx.abort()
    rest = list(scan)  # the aborted writer must not have broken the scan
    reader_tx.commit()
    scan_ok = len(consumed) + len(rest) == store.track_stats(HOT,
                                                             "audio").count
    store.track_index(HOT, "audio").check_invariants()
    # After the reader releases its locks the (new, still younger than
    # nothing) writer retries and goes through.
    store.annotate(HOT, "audio", "word", 0.25, 0.75, {"label": "retried"})
    agree = agree and (run(store, probe, mode="index").rows
                       == run(store, probe, mode="scan").rows)
    return {
        "writer_commits": commits + 1,
        "waitdie_abort": died,
        "scan_survived": scan_ok,
        "agree_after_writes": agree,
        "ok": died and scan_ok and agree,
    }


def check_join(store: AnnotationStore) -> bool:
    """One track join, both paths, row-for-row."""
    join = AnnotationJoin(
        AQ.on(HOT, "audio").of_type("word").during(100.0, 120.0),
        "during", AQ.on(HOT, "audio").of_type("turn"))
    return (run_join(store, join, mode="index").rows
            == run_join(store, join, mode="scan").rows)


def print_table(pair: dict, build_s: float, facts: dict,
                title: str) -> None:
    print(f"== {title}")
    print(f"   corpus    {facts['annotations']:>10,} annotations, "
          f"{facts['values']:,} values, {facts['tracks']:,} tracks, "
          f"built in {build_s:.2f}s")
    for mode in ("index", "scan"):
        m = pair[mode]
        print(f"   {mode:<9} {m['queries']} queries in {m['wall_s']:.4f}s "
              f"= {m['queries_per_s']:>10,.1f} queries/s "
              f"({m['rows']:,} rows)")
    print(f"   identical {pair['identical']}   "
          f"speedup {pair['speedup']:,.1f}x (gate >= {SPEEDUP_GATE:.0f}x)")


def correctness(store: AnnotationStore, spec: CorpusSpec,
                writers: int = 40) -> dict:
    """Every untimed honesty gate: wait-die writers, join, global query."""
    facts = check_concurrency(store, spec, writers=writers)
    facts["join_identical"] = check_join(store)
    facts["global_identical"] = check_global(store)
    facts["ok"] = (facts["ok"] and facts["join_identical"]
                   and facts["global_identical"])
    return facts


def cmd_smoke() -> int:
    """CI gate: equivalence + concurrency must hold and the speedup must
    clear the gate; re-measure before failing so shared-machine noise
    dips don't flap the job."""
    with scoped(tracing=False):
        store, facts, build_s = build_store(SMOKE)
        checks = correctness(store, SMOKE)
        if not checks["ok"]:
            print(f"annotation-query smoke FAILED: correctness {checks}",
                  file=sys.stderr)
            return 1
        print(f"concurrency probe: ok ({checks['writer_commits']} writer "
              f"commits, wait-die abort observed)")

        def attempt(heading: str) -> dict:
            pair = measure(store, SMOKE, index_repeats=2)
            print_table(pair, build_s, facts, heading)
            return pair

        def failures(pair: dict) -> list:
            found = [] if pair["identical"] else [
                "index and scan rows diverge"]
            if pair["speedup"] < SPEEDUP_GATE:
                found.append(f"speedup {pair['speedup']:,.1f}x below "
                             f"{SPEEDUP_GATE:.0f}x")
            return found

        return gate.remeasure("annotation-query smoke", attempt, failures)


def cmd_run(args) -> int:
    """Full-scale run; ``--update`` records it into BENCH_PERF.json."""
    with scoped(tracing=False):
        store, facts, build_s = build_store(FULL)
        pair = measure(store, FULL)
        print_table(pair, build_s, facts,
                    "annotation query (index vs sequential scan)")
        checks = correctness(store, FULL)
    print(f"   correctness {checks}")
    if not (pair["identical"] and checks["ok"]):
        if args.update:
            print("refusing to record: correctness gates failed",
                  file=sys.stderr)
        return 1
    if not args.update:
        return 0

    speedup = round(pair["speedup"], 1)
    index_per_s = round(pair["index"]["queries_per_s"], 1)
    section = {
        "seed": FULL.seed,
        "gate_speedup": SPEEDUP_GATE,
        "annotations": facts["annotations"],
        "values": facts["values"],
        "tracks": facts["tracks"],
        "build_s": round(build_s, 2),
        "battery_queries": pair["index"]["queries"],
        "battery_rows": pair["index"]["rows"],
        "index_wall_s": round(pair["index"]["wall_s"], 5),
        "scan_wall_s": round(pair["scan"]["wall_s"], 3),
        "index_queries_per_s": index_per_s,
        "scan_queries_per_s": round(pair["scan"]["queries_per_s"], 2),
        "identical_rows": pair["identical"],
        "waitdie_abort": checks["waitdie_abort"],
        "writer_commits": checks["writer_commits"],
        "speedup": speedup,
    }
    gate.record(args.pr, row={"annotation_query_speedup": speedup,
                              "annotation_index_queries_per_s": index_per_s},
                section="annotation_query", payload=section)
    gate.write_result("annotation_query", "\n".join([
        "annotation query — index-backed vs sequential-scan execution",
        f"corpus: {facts['annotations']:,} annotations / "
        f"{facts['values']:,} values / {facts['tracks']:,} tracks "
        f"(built in {build_s:.2f}s)",
        f"index  {pair['index']['queries']} queries  "
        f"{pair['index']['wall_s']:.4f}s  "
        f"{pair['index']['queries_per_s']:>10,.1f}/s",
        f"scan   {pair['scan']['queries']} queries  "
        f"{pair['scan']['wall_s']:.3f}s  "
        f"{pair['scan']['queries_per_s']:>10,.2f}/s",
        f"speedup {pair['speedup']:,.1f}x (gate >= {SPEEDUP_GATE:.0f}x), "
        f"identical rows: {pair['identical']}",
        f"concurrency: {checks['writer_commits']} writer commits, "
        f"wait-die abort: {checks['waitdie_abort']}, "
        f"agree after writes: {checks['agree_after_writes']}",
    ]))
    return 0


# -- pytest entry point (correctness only; timing gates stay in CI) -------
def test_annotation_query_smoke() -> None:
    spec = CorpusSpec(seed=0, values=60, annotations=12_000,
                      duration_s=600.0)
    with scoped(tracing=False):
        store, _, _ = build_store(spec)
        for query in battery(spec):
            assert (run(store, query, mode="index").rows
                    == run(store, query, mode="scan").rows), query.describe()
        checks = correctness(store, spec, writers=12)
        assert checks["ok"], checks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI gate: equivalence + speedup floor")
    parser.add_argument("--update", action="store_true",
                        help="write BENCH_PERF.json annotation_query section")
    parser.add_argument("--pr", type=int, default=None,
                        help="trajectory row --update records into (required)")
    args = parser.parse_args(argv)
    if args.smoke:
        return cmd_smoke()
    if args.update and args.pr is None:
        parser.error("--update needs --pr N")
    return cmd_run(args)


if __name__ == "__main__":
    raise SystemExit(main())
