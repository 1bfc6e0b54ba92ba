"""The four benchmark workloads: inputs, timed loop, output checks.

Every workload follows one shape:

1. Set-up builds the program state the timed part starts from, and
   ``setup_s`` is the median of several set-ups.  On annotation-mix and
   playback the benchmark drives the set-up itself and repeats it
   before the timed loop.  The stock scenarios of soak-day and
   zipf-crowd build their own state inside every item, so there
   ``setup_s`` is the part of each item before the scenario's first
   ``Simulator.run`` call (see :class:`SetupClock`).
2. The timed loop runs *items* — one broadcast day, one flash crowd,
   one playback fleet, or one annotation operation — until at least
   ``seconds`` of host time have passed and at least ``min_items``
   items are done, and annotation-mix ends on a whole operation
   cycle.  Each item's inputs come from the workload seed and
   the item's index, never from the clock, so the first ``min_items``
   items of a seed are the same on every run and every host.
3. Checks run outside the timed part, after each item or after the
   loop.  Every operation that fails a check counts as failed.

Host times are scaled to a reference host speed (see :class:`Timing`).

Virtual-time figures (late elements, goodput, startup) and
``failure_ratio`` are taken over the first ``min_items`` items only, so
they repeat bit for bit for a seed however fast the host is.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import random
import resource
import statistics
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

Metric = Tuple[float, str]


@dataclass(frozen=True)
class Size:
    """How much work one run does (the smoke size keeps tests short)."""

    setup_reps: int
    min_items: int
    crowd_sessions: int = 2000
    fleet_sessions: int = 200
    corpus_annotations: int = 100_000
    #: operations in one annotation-mix cycle (see ANNOTATION_MIX)
    cycle_ops: int = 1501


FULL = Size(setup_reps=5, min_items=4)
SMOKE = Size(setup_reps=1, min_items=1, crowd_sessions=200,
             fleet_sessions=20, corpus_annotations=5_000, cycle_ops=200)


@dataclass
class Outcome:
    """What one run of one workload measured and checked."""

    attempted: int = 0
    failed: int = 0
    setup_s: float = 0.0
    #: host seconds inside the timed items.
    host_s: float = 0.0
    #: per timed window: the factor that scales its host seconds to the
    #: reference host, and its operations per scaled second.
    scales: List[float] = field(default_factory=list)
    rates: List[float] = field(default_factory=list)
    items: int = 0
    #: metric name -> (value, unit): the workload's own figures.
    metrics: Dict[str, Metric] = field(default_factory=dict)
    #: human-readable reasons for every failed check.
    problems: List[str] = field(default_factory=list)
    #: per-layer counts the trace reads after the run.
    counts: Dict[str, float] = field(default_factory=dict)
    #: digest of everything the seed's first items produced.
    digest: str = ""

    def fail(self, ops: int, reason: str) -> None:
        self.failed += ops
        self.problems.append(reason)


def item_seed(workload: str, seed: int, index: int) -> int:
    """A stable 31-bit seed for item ``index`` of a workload run."""
    digest = hashlib.sha256(f"{workload}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def facts_digest(facts: object) -> str:
    return hashlib.sha256(
        json.dumps(facts, sort_keys=True, default=repr).encode()).hexdigest()


def percentile(values: List[float], p: float) -> float:
    """Nearest-rank percentile (``p`` in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: iterations of the calibration loop, and the time it takes on the
#: reference host: host seconds are scaled by REFERENCE_S over the
#: loop's time measured around each window of work.
CALIBRATION_LOOP = 100_000
REFERENCE_S = 0.005


def calibrate() -> float:
    """Best of six timings of a fixed pure-Python loop."""
    best = math.inf
    for _ in range(6):
        start = perf_counter()
        acc = 0
        for i in range(CALIBRATION_LOOP):
            acc += i & 7
        best = min(best, perf_counter() - start)
    return best


class Timing:
    """How a workload run is timed.

    Shared hosts change speed by tens of percent within a minute, which
    no amount of repetition averages out.  So host time is scaled to a
    reference host: every window of work is bracketed by two runs of a
    fixed calibration loop, and its host seconds are multiplied by
    ``REFERENCE_S`` over the mean of the two.  A change in the program
    moves the scaled time; a change in the host's speed moves both.
    """

    calibrated = True

    def phase(self):
        """Context entered around each measured set-up and item."""
        return nullcontext()

    def isolated(self):
        """Context for a check that builds program state of its own."""
        return nullcontext()

    def calibrate(self) -> float:
        return calibrate() if self.calibrated else REFERENCE_S


def timed_setups(build: Callable[[], object], reps: int, timing: Timing):
    """Run ``build`` ``reps`` times; return (last state, median scaled s)."""
    times = []
    state = None
    before = timing.calibrate()
    for _ in range(reps):
        state = None
        gc.collect()
        with timing.phase():
            start = perf_counter()
            state = build()
            took = perf_counter() - start
        after = timing.calibrate()
        times.append(took * 2 * REFERENCE_S / (before + after))
        before = after
    return state, statistics.median(times)


def timed_items(run_item: Callable[[int], object], seconds: float,
                min_items: int, max_items: Optional[int], timing: Timing,
                out: "Outcome",
                after: Callable[[int, object], object] = lambda k, r: r,
                window_items: int = 1,
                ops_of: Callable[[object], int] = lambda kept: 1):
    """Run items until ``seconds`` passed, ``min_items`` are done and
    the last window is full.

    Items are timed in windows of ``window_items``, each bracketed by
    calibrations; ``out.host_s`` sums the host seconds inside items, and
    each window appends its scale factor and its rate, ``ops_of`` summed
    over its items per scaled second, to ``out``.  ``after(k, result)``
    runs outside the timed part and its return value is kept in place of
    the result, so checks can run per item and drop what the item held.
    Returns the kept results.
    """
    results = []
    window_s = 0.0
    window_ops = 0
    before = timing.calibrate()

    def close_window() -> None:
        nonlocal window_s, window_ops, before
        later = timing.calibrate()
        out.scales.append(2 * REFERENCE_S / (before + later))
        out.rates.append(window_ops / (window_s * out.scales[-1]))
        window_s, window_ops, before = 0.0, 0, later

    while (out.host_s < seconds or len(results) < min_items
           or len(results) % window_items):
        if max_items is not None and len(results) >= max_items:
            break
        with timing.phase():
            start = perf_counter()
            result = run_item(len(results))
            took = perf_counter() - start
        out.host_s += took
        window_s += took
        results.append(after(len(results), result))
        window_ops += ops_of(results[-1])
        if len(results) % window_items == 0:
            close_window()
    if window_s:
        close_window()
    return results


# ---------------------------------------------------------------------------
# soak-day and zipf-crowd: the stock scenarios, seeds derived per item
# ---------------------------------------------------------------------------
class SetupClock:
    """Times the set-up a stock scenario does inside each item.

    ``day`` and ``zipf_crowd`` draw their inputs, build the cluster and
    cache tier, and spawn every process before their first
    ``Simulator.run`` call.  While the clock is entered, that call is
    wrapped so that the host seconds from the start of the item to the
    first run are appended to ``times``.
    """

    def __init__(self) -> None:
        self.times: List[float] = []
        self._start: Optional[float] = None

    def __enter__(self) -> "SetupClock":
        from repro.sim import Simulator

        self._original = Simulator.__dict__["run"]
        original, clock = self._original, self

        def run(sim, *args, **kwargs):
            if clock._start is not None:
                clock.times.append(perf_counter() - clock._start)
                clock._start = None
            return original(sim, *args, **kwargs)

        Simulator.run = run
        return self

    def __exit__(self, *exc) -> None:
        from repro.sim import Simulator
        Simulator.run = self._original

    def item(self, scenario: Callable[[], object]) -> object:
        self._start = perf_counter()
        return scenario()


def _scenario_loop(name: str, seed: int, seconds: float, size: Size,
                   scenario: Callable[[int], Dict[str, object]],
                   ops_of: Callable[[Dict[str, object]], Tuple[int, int]],
                   check: Callable[[Dict[str, object]], List[str]],
                   out: Outcome, max_items: Optional[int], timing: Timing):
    """Shared timed loop + checks for the two stock scenarios.

    ``out.setup_s`` is the median scenario set-up (see
    :class:`SetupClock`), each scaled like its item's host time.
    """
    with SetupClock() as clock:
        facts = timed_items(
            lambda k: clock.item(lambda: scenario(item_seed(name, seed, k))),
            seconds, size.min_items, max_items, timing, out,
            ops_of=lambda facts: ops_of(facts)[0])
    out.setup_s = statistics.median(
        took * scale for took, scale in zip(clock.times, out.scales))
    out.items = len(facts)
    for k, item in enumerate(facts):
        attempted, _ = ops_of(item)
        out.attempted += attempted
        for problem in check(item):
            out.fail(attempted, f"item {k}: {problem}")
    with timing.isolated():
        again = scenario(item_seed(name, seed, 0))
    if facts_digest(again) != facts_digest(facts[0]):
        out.fail(ops_of(facts[0])[0],
                 "item 0 rerun gave different facts (digest mismatch)")
    out.digest = facts_digest(facts[:size.min_items])
    return facts[:size.min_items]


def _failure_ratio(first: List[Dict[str, object]],
                   ops_of: Callable[[Dict[str, object]], Tuple[int, int]]):
    attempted = sum(ops_of(f)[0] for f in first)
    refused = sum(ops_of(f)[1] for f in first)
    return refused / attempted


def _day_ops(facts: Dict[str, object]) -> Tuple[int, int]:
    attempted = (facts["vod_sessions"] + facts["live_viewers"]
                 + facts["edit_jobs"])
    failed = facts["vod_failed"] + facts["live_failed"] + facts["edit_failed"]
    return attempted, failed


def _day_check(facts: Dict[str, object]) -> List[str]:
    problems = []
    if facts["invariant_breaches"]:
        problems.append(f"{facts['invariant_breaches']} invariant breaches "
                        f"({facts['breach_invariant']})")
    if facts["stranded_processes"]:
        problems.append(f"{facts['stranded_processes']} stranded processes")
    if facts["unhandled_failure"] != "none":
        problems.append(f"unhandled {facts['unhandled_failure']}")
    return problems


def soak_day(seed: int, seconds: float, size: Size = FULL,
             max_items: Optional[int] = None,
             timing: Timing = Timing()) -> Outcome:
    """Back-to-back stock broadcast days (scale 1, gentle chaos, watched)."""
    from repro.soak.scenarios import day

    out = Outcome()
    first = _scenario_loop("soak-day", seed, seconds, size,
                           lambda s: day(seed=s), _day_ops, _day_check, out,
                           max_items, timing)
    out.metrics.update({
        "failure_ratio": (_failure_ratio(first, _day_ops), "ratio"),
        "late_elements": (float(sum(f["qos_violations"] for f in first)),
                          "count"),
        "interactive_violations": (
            float(sum(f["interactive_violations"] for f in first)), "count"),
    })
    out.counts.update({
        "watch.invariant_checks": sum(f["invariant_checks"] for f in first),
    })
    return out


def _crowd_ops(facts: Dict[str, object]) -> Tuple[int, int]:
    return facts["sessions"], facts["sessions_failed"]


def _crowd_check(facts: Dict[str, object]) -> List[str]:
    if facts["stranded_processes"]:
        return [f"{facts['stranded_processes']} stranded processes"]
    return []


def zipf_crowd(seed: int, seconds: float, size: Size = FULL,
               max_items: Optional[int] = None,
               timing: Timing = Timing()) -> Outcome:
    """The stock cached flash crowd: 2000 sessions, 4 nodes, 3 edges."""
    from repro.cache.scenarios import zipf_crowd as crowd

    out = Outcome()
    first = _scenario_loop(
        "zipf-crowd", seed, seconds, size,
        lambda s: crowd(seed=s, sessions=size.crowd_sessions),
        _crowd_ops, _crowd_check, out, max_items, timing)
    out.metrics.update({
        "failure_ratio": (_failure_ratio(first, _crowd_ops), "ratio"),
        "goodput_mbps": (statistics.fmean(f["goodput_mbps"] for f in first),
                         "Mb/s"),
        "late_elements": (float(sum(f["qos_violations"] for f in first)),
                          "count"),
        "interactive_violations": (
            float(sum(f["interactive_violations"] for f in first)), "count"),
    })
    return out


# ---------------------------------------------------------------------------
# annotation-mix: bulk load, then one closed-loop client
# ---------------------------------------------------------------------------
#: operations per cycle, by kind.  Writes are 20% of operations, as
#: the workload asks.  The query counts give each query kind about the
#: same share of the client's host time.  At 10^5 annotations a track
#: join costs about 7 pinned window queries, and an unpinned
#: whole-extent query, which is always a scan, about 1000 (0.13-0.22 ms,
#: 0.9-1.6 ms and 140-235 ms on a 2-core x86-64 host), so one unpinned
#: query weighs as much as 150 joins or 1050 pinned ones.
#: Smaller cycles scale the counts but keep at least one of each kind.
ANNOTATION_MIX = (("pinned", 1050), ("join", 150), ("unpinned", 1),
                  ("write", 300))
CYCLE_OPS = sum(count for _, count in ANNOTATION_MIX)
CORPUS_VALUES = 400
CORPUS_DURATION_S = 600.0
POPULAR_VALUES = 40


def annotation_cycle(size: Size) -> List[str]:
    """The operation kinds of one cycle, in declaration order."""
    kinds = []
    for kind, count in ANNOTATION_MIX:
        kinds += [kind] * max(1, round(count * size.cycle_ops / CYCLE_OPS))
    return kinds


def _annotation_ops(rng: random.Random, size: Size, popular: List[str]):
    """Endless seeded operation stream: shuffled fixed-composition cycles."""
    from repro.annotations.query import AQ, AnnotationJoin

    cycle = annotation_cycle(size)
    serial = 0
    while True:
        rng.shuffle(cycle)
        for kind in cycle:
            serial += 1
            value = rng.choice(popular)
            track = rng.choice(("audio", "video"))
            lo = rng.uniform(0.0, CORPUS_DURATION_S - 40.0)
            if kind == "pinned":
                query = AQ.on(value, track).of_type(
                    rng.choice(("word", "phone", "gesture")))
                width = rng.uniform(4.0, 30.0)
                if rng.random() < 0.5:
                    yield kind, query.overlaps(lo, lo + width)
                else:
                    yield kind, query.during(lo, lo + width)
            elif kind == "join":
                yield kind, AnnotationJoin(
                    AQ.on(value, "audio").of_type("word").during(lo, lo + 30.0),
                    "during", AQ.on(value, "audio").of_type("turn"))
            elif kind == "unpinned":
                if rng.random() < 0.5:
                    yield kind, AQ.of_type(rng.choice(("scene", "turn"))) \
                        .overlaps(0.0, CORPUS_DURATION_S)
                else:
                    yield kind, AQ.of_type("word").where(
                        label=f"word-{rng.randrange(24):03d}") \
                        .during(0.0, CORPUS_DURATION_S)
            else:
                length = rng.uniform(0.05, 2.0)
                yield kind, (value, track, "word", lo, lo + length,
                             {"label": f"word-live-{serial}"})


def build_annotation_store(seed: int, size: Size):
    from repro.annotations.corpus import CorpusSpec, load_corpus
    from repro.annotations.store import AnnotationStore

    store = AnnotationStore()
    load_corpus(store, CorpusSpec(
        seed=item_seed("annotation-mix", seed, 0), values=CORPUS_VALUES,
        annotations=size.corpus_annotations, duration_s=CORPUS_DURATION_S))
    return store


def annotation_mix(seed: int, seconds: float, size: Size = FULL,
                   max_items: Optional[int] = None,
                   timing: Timing = Timing()) -> Outcome:
    """Bulk-loaded corpus, then planner-chosen queries mixed with writes.

    Operations run in cycles of ``ANNOTATION_MIX``; after each cycle,
    outside the timed part, the cycle's writes are read back and
    removed again.
    """
    from repro.annotations.query import AnnotationJoin, run, run_join

    out = Outcome()
    store, out.setup_s = timed_setups(
        lambda: build_annotation_store(seed, size), size.setup_reps,
        timing)
    by_count = sorted(store.tracks(), key=lambda key: (
        -store.track_stats(*key).count, key))
    popular = sorted({value for value, _ in by_count[:2 * POPULAR_VALUES]})
    ops = _annotation_ops(random.Random(item_seed("annotation-mix", seed, 1)),
                          size, popular)
    latencies: Dict[str, List[float]] = {"query": [], "write": []}
    cycle_len = len(annotation_cycle(size))
    pending: List[tuple] = []

    def operation(k: int):
        kind, op = next(ops)
        start = perf_counter()
        if kind == "write":
            result = store.annotate(*op)
        elif kind == "join":
            result = run_join(store, op)
        else:
            result = run(store, op)
        latencies["query" if kind != "write" else "write"].append(
            perf_counter() - start)
        return kind, op, result

    def settle() -> None:
        # Every committed write reads back; then it is removed, so the
        # store is the same size at the start of every cycle.
        for oid, (value, track, atype, lo, hi, payload) in pending:
            ann = store.get(oid)
            if (ann.value_id, ann.track, ann.atype, ann.start, ann.end,
                    dict(ann.payload)) != (value, track, atype, lo, hi,
                                           payload):
                out.fail(1, f"write {oid} reads back as {ann}")
            store.remove(oid)
        pending.clear()

    def keep(k: int, done) -> tuple:
        # Keep the written OID, or a query's (examined, rows) counts.
        kind, op, result = done
        if kind == "write":
            pending.append((result, op))
        else:
            result = (result.examined, len(result.rows))
        if (k + 1) % cycle_len == 0:
            settle()
        return kind, op, result

    done = timed_items(operation, seconds, size.min_items, max_items,
                       timing, out, keep, cycle_len)
    settle()
    out.items = out.attempted = len(done)
    reads = [(kind, op, counts) for kind, op, counts in done
             if kind != "write"]
    examined = sum(counts[0] for _, _, counts in reads)
    rows = sum(counts[1] for _, _, counts in reads)
    sampled = [op for k, (kind, op, _) in enumerate(reads)
               if kind == "unpinned" or k % 97 == 0]
    out.digest = facts_digest(done[:size.min_items])

    # Index and scan plans agree, outside the timed part.
    for op in sampled[:12]:
        if isinstance(op, AnnotationJoin):
            by_index = run_join(store, op, mode="index").rows
            by_scan = run_join(store, op, mode="scan").rows
        else:
            by_index = run(store, op, mode="index").rows
            by_scan = run(store, op, mode="scan").rows
        if by_index != by_scan:
            out.fail(1, f"index and scan disagree on {op.describe()}")
    ms = 1000.0
    for kind in ("query", "write"):
        if latencies[kind]:
            out.metrics[f"{kind}_p50_ms"] = (
                percentile(latencies[kind], 50) * ms, "ms")
            out.metrics[f"{kind}_p99_ms"] = (
                percentile(latencies[kind], 99) * ms, "ms")
    out.metrics["failure_ratio"] = (out.failed / out.attempted, "ratio")
    out.counts["annotations.examined_per_row"] = examined / max(rows, 1)
    return out


# ---------------------------------------------------------------------------
# playback: the paper's client interface on one AVDatabaseSystem
# ---------------------------------------------------------------------------
# The clip set and devices follow the seeded fleet of
# tests/test_stress.py: raw, JPEG(80) and MPEG(80, gop 5) clips in turn,
# 8, 15 or 24 frames long, 200 Mb/s disks and 150 Mb/s client channels.
# Frames are 64x48, ``moving_scene``'s default and the geometry of the
# streaming and compression benchmarks.  Each 200-session fleet plays
# every clip in both delivery modes about four times, and all of its
# sessions arrive within the shortest clip's 0.27 s of playing time, so
# they play at once.
CLIPS = 24
DISKS = 4
DISK_BPS = 200_000_000
CHANNEL_BPS = 150_000_000
ARRIVAL_WINDOW_S = 0.25
PREBUFFER_S = 0.1
CLIP_GEOMETRY = (64, 48)
CLIP_FRAMES = (8, 15, 24)
MPEG_GOP = 5


def build_playback_system(seed: int):
    """Disks, a ``Clip`` class, and raw/JPEG/MPEG clips stored + indexed.

    Returns (system, clips) where ``clips[title]`` holds the expected
    presented-frame digest and frame count of each clip.
    """
    from repro.avdb import AVDatabaseSystem
    from repro.codecs import JPEGCodec, MPEGCodec
    from repro.db import AttributeSpec, ClassDef
    from repro.storage import MagneticDisk
    from repro.synth import moving_scene
    from repro.values import VideoValue

    rng = random.Random(item_seed("playback", seed, 0))
    system = AVDatabaseSystem()
    for d in range(DISKS):
        system.add_storage(MagneticDisk(system.simulator, f"disk{d}",
                                        bandwidth_bps=DISK_BPS))
    system.db.define_class(ClassDef("Clip", attributes=[
        AttributeSpec("title", str, indexed=True),
        AttributeSpec("video", VideoValue),
    ]))
    clips = {}
    width, height = CLIP_GEOMETRY
    for i in range(CLIPS):
        # Lengths and encodings are fixed by the clip index, so every
        # seed stores the same amount of work; the seed picks content.
        raw = moving_scene(CLIP_FRAMES[i // 3 % len(CLIP_FRAMES)], width,
                           height, seed=rng.randrange(1 << 30))
        if i % 3 == 0:
            video = raw
        elif i % 3 == 1:
            video = JPEGCodec(80).encode_value(raw)
        else:
            video = MPEGCodec(80, gop=MPEG_GOP).encode_value(raw)
        system.store_value(video, f"disk{i % DISKS}")
        title = f"clip-{i:02d}"
        system.db.insert("Clip", title=title, video=video)
        clips[title] = video
    return system, clips


def _frames_digest(frames) -> str:
    folded = hashlib.sha256()
    for frame in frames:
        folded.update(frame.tobytes())
    return folded.hexdigest()


def _expected_frames(clips) -> Dict[str, Tuple[int, str]]:
    expected = {}
    for title, video in clips.items():
        frames = [video.frame(i) for i in range(video.num_frames)]
        expected[title] = (video.num_frames, _frames_digest(frames))
    return expected


@dataclass
class FleetSummary:
    """What the checks keep of one playback fleet."""

    attempted: int
    refused: int
    late: int = 0
    on_time_bits: int = 0
    virtual_s: float = 0.0
    startups: List[float] = field(default_factory=list)


def playback(seed: int, seconds: float, size: Size = FULL,
             max_items: Optional[int] = None,
             timing: Timing = Timing()) -> Outcome:
    """Fleets of concurrent client sessions playing stored clips."""
    from repro.activities import Location
    from repro.activities.library import VideoDecoder, VideoWindow
    from repro.db import Q
    from repro.errors import AdmissionError
    from repro.sim import Delay

    out = Outcome()
    (system, clips), out.setup_s = timed_setups(
        lambda: build_playback_system(seed), size.setup_reps,
        timing)
    expected = _expected_frames(clips)
    sim = system.simulator
    titles = sorted(clips)

    def fleet(k: int):
        rng = random.Random(item_seed("playback", seed, k + 1))
        base = sim.now.seconds
        # Every fleet plays each clip and each delivery mode about
        # equally often; the seed picks the order and the arrivals.
        picks = [(titles[i % len(titles)],
                  ("stored", "raw")[i // len(titles) % 2])
                 for i in range(size.fleet_sessions)]
        rng.shuffle(picks)
        plans = [(rng.uniform(0.0, ARRIVAL_WINDOW_S), title, deliver)
                 for title, deliver in picks]
        played = []
        refused = [0]

        def client(i: int, at: float, title: str, deliver: str):
            yield Delay(at)
            name = f"f{k}-s{i}"
            session = system.open_session(name, channel_bps=CHANNEL_BPS)
            ref = session.select_one("Clip", Q.eq("title", title))
            video = session.fetch(ref).video
            # Explicit source names: raw delivery of two encoded values
            # under the default name collides in the system graph.
            try:
                source = session.new_db_source((ref, "video"),
                                               deliver=deliver,
                                               name=f"{name}.src")
            except AdmissionError:
                refused[0] += 1
                session.close()
                return
            window = session.new_activity(VideoWindow(
                sim, name=f"{name}.win", location=Location.APPLICATION,
                presentation_delay=PREBUFFER_S))
            if deliver == "stored" and video.media_type.compressed:
                decoder = session.new_activity(VideoDecoder(
                    sim, video.codec, video.width, video.height,
                    video.depth, name=f"{name}.dec",
                    location=Location.APPLICATION))
                session.connect(source, decoder.port("video_in")).start()
                session.connect(decoder.port("video_out"), window).start()
            else:
                session.connect(source, window).start()
            played.append((session, window, title, base + at))

        for i, (at, title, deliver) in enumerate(plans):
            sim.spawn(client(i, at, title, deliver), name=f"client-f{k}-{i}")
        system.run()
        for session, _, _, _ in played:
            session.close()
        return played, refused[0]

    frame_bits = CLIP_GEOMETRY[0] * CLIP_GEOMETRY[1] * 8

    def check(k: int, result) -> FleetSummary:
        played, refused = result
        summary = FleetSummary(attempted=len(played) + refused,
                               refused=refused)
        for session, window, title, requested in played:
            count, digest = expected[title]
            if (window.elements_consumed != count
                    or _frames_digest(window.presented) != digest):
                out.fail(1, f"fleet {k} {session.name}: presented "
                            f"{window.elements_consumed}/{count} frames "
                            f"or wrong content")
            if (session.channel.reserved_bps != 0 or
                    session.channel.available_bps
                    != session.channel.capacity_bps):
                out.fail(1, f"fleet {k} {session.name}: channel not back "
                            f"at full capacity after close")
            records = window.log.records
            summary.startups.append(records[0].actual.seconds - requested)
            for record in records:
                if (record.actual.seconds
                        > record.ideal.seconds + PREBUFFER_S + 1e-9):
                    summary.late += 1
                else:
                    summary.on_time_bits += frame_bits
        if played:
            summary.virtual_s = (
                max(w.log.records[-1].actual.seconds for _, w, _, _ in played)
                - min(req for _, _, _, req in played))
        for device in system.placement.devices:
            if abs(device.reserved_bps) > 1e-6:
                out.fail(1, f"fleet {k}: device {device.name} still holds "
                            f"{device.reserved_bps} b/s after every close")
        # A fleet leaves cyclic garbage (activities, ports, generators);
        # collecting it here keeps peak memory from depending on when
        # the collector happens to run.
        played.clear()
        gc.collect()
        return summary

    summaries = timed_items(fleet, seconds, size.min_items, max_items,
                            timing, out, check,
                            ops_of=lambda summary: summary.attempted)
    out.items = len(summaries)
    out.attempted = sum(f.attempted for f in summaries)
    first = summaries[:size.min_items]
    out.digest = facts_digest(first)
    startups = [t for f in first for t in f.startups]
    out.metrics.update({
        "failure_ratio": (sum(f.refused for f in first)
                          / sum(f.attempted for f in first), "ratio"),
        "goodput_mbps": (sum(f.on_time_bits for f in first)
                         / sum(f.virtual_s for f in first) / 1e6, "Mb/s"),
        "late_elements": (float(sum(f.late for f in first)), "count"),
        "startup_p50_s": (percentile(startups, 50), "s"),
        "startup_p99_s": (percentile(startups, 99), "s"),
    })
    return out


WORKLOADS: Dict[str, Callable[..., Outcome]] = {
    "soak-day": soak_day,
    "zipf-crowd": zipf_crowd,
    "annotation-mix": annotation_mix,
    "playback": playback,
}
