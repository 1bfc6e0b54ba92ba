"""``python -m repro`` — a one-minute tour, plus observability commands.

With no arguments, prints the version, the Table 1 activity catalog from
the live classes, the Fig. 1 timeline, and runs the quickstart stream,
so a fresh checkout can be sanity-checked with a single command.

``python -m repro trace <scenario>`` runs a named scenario with tracing
enabled and writes a Chrome ``trace_event`` file (load it in Perfetto or
``chrome://tracing``), a JSONL event log, and a plain-text metrics
summary.

``python -m repro faults <scenario>`` runs a named fault-injection
scenario (seeded, deterministic) and prints delivered-vs-negotiated QoS
plus the ``faults.*`` counters; ``--compare`` runs it both with and
without recovery under the identical fault schedule.

``python -m repro overload <scenario>`` runs a named multi-client
overload scenario through the admission controller and prints goodput,
shedding, preemption and breaker facts plus a deterministic summary
line; ``--no-admission`` runs the uncontrolled baseline and
``--compare`` runs both regimes under the identical offered load.

``python -m repro cluster <scenario>`` runs a named scale-out storage
scenario (read storm, node-kill failover, rebalance-after-join) against
a simulated N-node cluster and prints throughput/failover/repair facts
plus a deterministic summary line.

``python -m repro cache <scenario>`` runs a named cache-tier scenario
(Zipf flash crowd, version churn) through the two-level block cache
hierarchy in front of the cluster and prints goodput/hit-ratio facts
plus a deterministic summary line; ``--no-cache`` runs the cache-less
baseline and ``--compare`` runs both under the identical workload.

``python -m repro watch <scenario>`` runs a named supervision scenario
under the ``repro.watch`` layer (SLO engine + invariant monitor +
flight recorder) and prints error-budget burn, breach facts and a
deterministic summary line; ``--bundle-dir`` writes postmortem bundles.

``python -m repro herd <scenario>`` runs a hybrid herd scenario:
foreground interactive sessions as full discrete processes, plus a
vectorized client herd (seeded Zipf popularity + Poisson arrivals)
advanced per epoch through the same admission controller and edge-cache
model; ``--clients N`` scales the crowd and ``--compare-discrete`` runs
the scaled-down herd-vs-discrete equivalence probe alongside.

``python -m repro soak day`` runs the composed broadcast-day soak
scenario (live newscast + VOD Zipf crowd + editing batches + overnight
maintenance) under seeded chaos with the full watch stack supervising;
``python -m repro soak search`` sweeps chaos seeds for a failure and
delta-debugs the fault schedule to a minimal, replayable core.

``python -m repro query <scenario>`` runs a named annotation-query
scenario: loads a seeded corpus into the typed annotation store, runs
its temporal-query battery through the cost-based planner, cross-checks
index-backed vs scan execution row-for-row, and prints the facts plus a
deterministic summary line; ``--mode index|scan`` forces one path.

``python -m repro explain <scenario> --session <id>`` reruns a scenario
with the decision log armed and reconstructs the causal decision chain
for one session (admitted -> degraded -> preempted -> failed over ...);
without ``--session`` it lists every subject and its verdict history.

``python -m repro profile <scenario>`` runs a scenario under cProfile
and prints the top-N hotspot report — the entry point for finding the
next optimization target (see DESIGN.md "Performance").

Every scenario lives in the one :mod:`repro.scenarios` registry.  Family
subcommands take a name within their family (or ``all``); ``trace``,
``explain`` and ``profile`` take any registered scenario as
``family/name``, an alias (``surge``, ``day``, ``node-kill``,
``herd-surge``, ``query-speech``, the family names), or a bare name
unique across families.  An unknown or ambiguous name exits 2 and lists
the choices.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from pathlib import Path

import repro
from repro import AVDatabaseSystem, AttributeSpec, ClassDef, MagneticDisk, Q, VideoValue
from repro.activities.library import ActivityCatalog
from repro.obs import canonical_trace_bytes, current, scoped
from repro.scenarios import REGISTRY, Scenario, resolve
from repro.synth import fig1_timeline, moving_scene


#: Facts that fail a run (exit 1) when present and false: a mode
#: diverging from its reference (index vs scan, herd vs discrete) is a
#: correctness failure, not a tuning matter, so CI gates on the exit code.
CHECKED_FACTS = ("all_agree", "probe_equivalent")


def _resolve(name: str, family: str | None = None) -> list[Scenario] | None:
    """:func:`repro.scenarios.resolve`, reporting a bad name on stderr.

    Returns None for an unknown or ambiguous name; callers translate
    that to exit code 2.
    """
    try:
        return resolve(name, family)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return None


def _takes(scenario: Scenario, knob: str) -> bool:
    return knob in inspect.signature(scenario.run).parameters


def tour() -> None:
    """Print the tour: version, Table 1, Fig. 1, a quickstart stream."""
    print(f"repro {repro.__version__} — an AV database system")
    print("(Gibbs, Breiteneder & Tsichritzis, ICDE 1993)\n")

    print("Table 1 — the activity catalog:\n")
    print(ActivityCatalog.table(include_audio=True))

    print("\nFig. 1 — a Newscast.clip timeline:\n")
    print(fig1_timeline().render_ascii(width=50))

    print("\nquickstart stream:")
    system = AVDatabaseSystem()
    system.add_storage(MagneticDisk(system.simulator, "disk0"))
    system.db.define_class(ClassDef("Clip", attributes=[
        AttributeSpec("title", str, indexed=True),
        AttributeSpec("video", VideoValue),
    ]))
    video = moving_scene(30, 64, 48)
    system.store_value(video, "disk0")
    system.db.insert("Clip", title="demo", video=video)
    session = system.open_session("tour")
    ref = session.select_one("Clip", Q.eq("title", "demo"))
    source = session.new_db_source((ref, "video"))
    window = session.new_video_window("320x240x8@30")
    stream = session.connect(source, window)
    stream.start()
    end = session.run()
    print(f"  presented {len(window.presented)} frames in "
          f"{end.seconds:.2f}s of virtual time; "
          f"{stream.bits_transferred // 8:,} bytes over the channel")
    print("\nsee README.md, examples/ and `pytest benchmarks/ --benchmark-only`")


def trace(scenario_name: str, out_dir: Path, canonical: bool = False) -> int:
    """Run a scenario under a tracing scope and export trace + summary."""
    from repro.obs.export import write_chrome_trace, write_jsonl, write_summary

    scenarios = _resolve(scenario_name)
    if scenarios is None:
        return 2
    [scenario] = scenarios
    stem = scenario_name.replace("/", "-")

    out_dir.mkdir(parents=True, exist_ok=True)
    with scoped(tracing=True):
        facts = scenario.run()
        obs = current()
        trace_path = out_dir / f"{stem}.trace.json"
        jsonl_path = out_dir / f"{stem}.events.jsonl"
        summary_path = out_dir / f"{stem}.summary.txt"
        write_chrome_trace(obs.tracer, trace_path, obs.metrics)
        write_jsonl(obs.tracer, jsonl_path)
        write_summary(obs.metrics, summary_path, obs.tracer,
                      title=f"scenario: {scenario_name}")
        canonical_path = None
        if canonical:
            # Wall-clock stamps stripped, keys sorted: two runs of the
            # same scenario produce byte-identical files, which is what
            # the CI determinism job diffs.
            canonical_path = out_dir / f"{stem}.canonical.json"
            canonical_path.write_bytes(
                canonical_trace_bytes(obs.tracer, obs.metrics))
        events = len(obs.tracer.events)

    print(f"scenario {scenario_name!r}:")
    for key, value in facts.items():
        print(f"  {key} = {value}")
    print(f"{events} trace events")
    print(f"wrote {trace_path}  (open in Perfetto / chrome://tracing)")
    print(f"wrote {jsonl_path}")
    print(f"wrote {summary_path}")
    if canonical_path is not None:
        print(f"wrote {canonical_path}")
    return 0


def run_family(family: str, scenario_name: str, seed: int,
               runs: list[tuple[str, dict]], knobs: dict) -> int:
    """Run a family subcommand: every selected scenario once per run.

    ``runs`` pairs a header label with the run's own keywords; ``knobs``
    (None values dropped) go to every run.  Each run gets a fresh
    observability scope, so counters and decisions never bleed between
    runs in one process, and prints its facts plus the summary line.
    Exits 1 when a :data:`CHECKED_FACTS` fact comes back false, and 2
    on an unknown name or a flag the scenario takes no keyword for.
    """
    scenarios = _resolve(scenario_name, family)
    if scenarios is None:
        return 2
    knobs = {key: value for key, value in knobs.items() if value is not None}
    exit_code = 0
    for scenario in scenarios:
        keys = set(knobs).union(*(extra for _, extra in runs))
        unsupported = sorted(key for key in keys if not _takes(scenario, key))
        if unsupported:
            print(f"{family} scenario {scenario.name!r} takes no "
                  f"{', '.join(map(repr, unsupported))} keyword; "
                  f"drop the flag that sets it",
                  file=sys.stderr)
            return 2
        for label, extra in runs:
            with scoped():
                facts = scenario.run(seed=seed, **knobs, **extra)
            print(f"scenario {scenario.name!r} "
                  f"({label + ', ' if label else ''}seed {seed}):")
            for key, value in facts.items():
                print(f"  {key} = {value}")
            print(scenario.summary_line(facts))
            if any(facts.get(key) is False for key in CHECKED_FACTS):
                exit_code = 1
    return exit_code


def _toggle(label: str, off_label: str, knob: str, compare: bool,
            off: bool) -> list[tuple[str, dict]]:
    """Runs for flags that switch a default-on ``knob`` off, or compare.

    The on run passes nothing (every scenario defaults the knob to on),
    so a scenario without the knob still runs when the flags are unset.
    """
    both = [(label, {}), (off_label, {knob: False})]
    return both if compare else both[off:off + 1]


def _family_runs(args) -> tuple[list[tuple[str, dict]], dict]:
    """A family subcommand's flags as (labelled runs, shared knobs)."""
    if args.command == "faults":
        return _toggle("recovery", "no recovery", "recover", args.compare,
                       args.no_recovery), {}
    if args.command == "overload":
        return _toggle("admission", "no admission", "admission",
                       args.compare, args.no_admission), {}
    if args.command == "cache":
        return (_toggle(f"cached, {args.policy}", "no cache", "cached",
                        args.compare, args.no_cache),
                {"policy": args.policy})
    if args.command == "query":
        return [(f"mode {args.mode}", {})], {"mode": args.mode}
    if args.command == "cluster":
        return [("", {})], {"nodes": args.nodes}
    if args.command == "watch":
        return [("", {})], {"bundle_dir": str(args.bundle_dir)
                            if args.bundle_dir else None}
    return [("", {})], {"clients": args.clients,
                        "compare_discrete": args.compare_discrete}


def soak(args) -> int:
    """Run the broadcast-day soak, or the chaos search over it."""
    from repro.soak import chaos_search, day, default_day
    from repro.soak.search import _failing

    specs = None
    if args.phases:
        by_name = {spec.name: spec for spec in default_day()}
        wanted = [n.strip() for n in args.phases.split(",") if n.strip()]
        unknown = [n for n in wanted if n not in by_name]
        if unknown:
            print(f"unknown phase(s) {', '.join(unknown)}; "
                  f"pick from: {', '.join(by_name)}", file=sys.stderr)
            return 2
        specs = tuple(by_name[n] for n in wanted)

    if args.action == "day":
        # A fresh observability scope per run keeps soak.* counters
        # from bleeding between runs in one process.
        with scoped(tracing=False):
            facts = day(seed=args.seed, phases=specs, scale=args.scale,
                        chaos=not args.no_chaos, chaos_seed=args.chaos_seed,
                        profile=args.profile, plant_leak=args.plant_leak,
                        bundle_dir=str(args.bundle_dir)
                        if args.bundle_dir else None)
        print(f"soak day (seed {args.seed}, "
              f"{'no chaos' if args.no_chaos else args.profile}):")
        for key, value in facts.items():
            print(f"  {key} = {value}")
        print(REGISTRY["soak/day"].summary_line(facts))
        # Non-zero exit on the failure signature so CI can gate on the
        # clean-day acceptance criterion directly.
        return 1 if _failing(facts) else 0

    seeds = ([args.chaos_seed] if args.chaos_seed is not None
             else range(args.chaos_seeds))
    report = chaos_search(chaos_seeds=seeds, seed=args.seed, phases=specs,
                          scale=args.scale, profile=args.profile,
                          plant_leak=args.plant_leak,
                          out_dir=str(args.out) if args.out else None)
    print(f"soak search (workload seed {args.seed}, profile {args.profile}, "
          f"{report['seeds_tried']} chaos seed(s) tried):")
    for key, value in report.items():
        print(f"  {key} = {value}")
    if report["failing_seed"] == "none":
        print("no failing chaos seed found")
        return 0
    # A failure that the minimized schedule does not reproduce means
    # the reduction went wrong — surface that as a non-zero exit.
    return 0 if report["replay_failing"] else 1


def explain(scenario_name: str, session: str | None, seed: int) -> int:
    """Rerun any registered scenario and reconstruct a decision chain."""
    from repro.watch.explain import explain_report, subjects_summary

    scenarios = _resolve(scenario_name)
    if scenarios is None:
        return 2
    [scenario] = scenarios

    with scoped():
        scenario.run(**({"seed": seed} if _takes(scenario, "seed") else {}))
        decisions = current().decisions

    print(f"scenario {scenario.name!r} (seed {seed}): "
          f"{len(decisions)} decision events")
    if session is not None:
        print(explain_report(decisions, session))
    else:
        print("subjects (pass --session <id> for the full chain):")
        for line in subjects_summary(decisions):
            print(f"  {line}")
    return 0


def profile(scenario_name: str, top: int, sort: str,
            out: Path | None) -> int:
    """Profile a scenario and print (or write) the hotspot report."""
    from repro.perf import profile_scenario

    try:
        report, facts = profile_scenario(scenario_name, top=top, sort=sort)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    print(report, end="")
    if isinstance(facts, dict):
        print("scenario facts:")
        for key, value in facts.items():
            print(f"  {key} = {value}")
    if out is not None:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(report)
        print(f"wrote {out}")
    return 0


def _family_parser(sub, family: str, help: str, default: str,
                   seed_help: str) -> argparse.ArgumentParser:
    """A family subcommand with its scenario argument and ``--seed``."""
    parser = sub.add_parser(family, help=help)
    parser.add_argument("scenario", nargs="?", default=default,
                        help=f"{family} scenario name, or 'all' "
                             f"(default: {default})")
    parser.add_argument("--seed", type=int, default=0,
                        help=f"{seed_help} (default: 0)")
    return parser


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="AV database reproduction: tour and trace runner.",
    )
    sub = parser.add_subparsers(dest="command")
    trace_parser = sub.add_parser(
        "trace", help="run a scenario with tracing and export the results"
    )
    trace_parser.add_argument("scenario", nargs="?", default="quickstart",
                              help="any registered scenario "
                                   "(default: quickstart)")
    trace_parser.add_argument("--out", type=Path, default=Path("traces"),
                              help="output directory (default: ./traces)")
    trace_parser.add_argument("--canonical", action="store_true",
                              help="also write the canonical (wall-clock-"
                                   "stripped, rerun-diffable) trace export")
    faults_parser = _family_parser(
        sub, "faults", "run a seeded fault-injection scenario and report QoS",
        "disk-outage", "fault plan seed")
    faults_parser.add_argument("--no-recovery", action="store_true",
                               help="run without retry/degradation defenses")
    faults_parser.add_argument("--compare", action="store_true",
                               help="run both with and without recovery")
    overload_parser = _family_parser(
        sub, "overload", "run a seeded multi-client overload scenario "
                         "through the admission controller",
        "surge", "workload seed")
    overload_parser.add_argument("--no-admission", action="store_true",
                                 help="run the uncontrolled baseline")
    overload_parser.add_argument("--compare", action="store_true",
                                 help="run both with and without admission")
    cluster_parser = _family_parser(
        sub, "cluster", "run a seeded scale-out storage cluster scenario",
        "node-kill", "workload seed")
    cluster_parser.add_argument("--nodes", type=int, default=None,
                                help="override the scenario's node count")
    cache_parser = _family_parser(
        sub, "cache", "run a seeded cache-tier scenario against the cluster",
        "zipf-crowd", "workload seed")
    cache_parser.add_argument("--no-cache", action="store_true",
                              help="run the cache-less baseline")
    cache_parser.add_argument("--compare", action="store_true",
                              help="run both with and without the cache tier")
    cache_parser.add_argument("--policy", default="lru",
                              choices=("lru", "cost-aware"),
                              help="eviction policy (default: lru)")
    watch_parser = _family_parser(
        sub, "watch", "run a scenario under the SLO/invariant watchdog",
        "leak", "scenario seed")
    watch_parser.add_argument("--bundle-dir", type=Path, default=None,
                              help="write postmortem bundles here")
    herd_parser = _family_parser(
        sub, "herd", "run a hybrid vectorized-herd scenario "
                     "(foreground sessions + fluid client crowds)",
        "surge", "population seed")
    herd_parser.add_argument("--clients", type=int, default=None,
                             help="expected crowd size (default: the "
                                  "scenario's own)")
    herd_parser.add_argument("--compare-discrete", action="store_true",
                             help="also run the scaled-down herd-vs-"
                                  "discrete equivalence probe")
    soak_parser = sub.add_parser(
        "soak", help="run the broadcast-day soak or the chaos search"
    )
    soak_parser.add_argument("action", nargs="?", default="day",
                             choices=("day", "search"),
                             help="'day' runs one soak; 'search' sweeps "
                                  "chaos seeds and minimizes the first "
                                  "failure (default: day)")
    soak_parser.add_argument("--seed", type=int, default=0,
                             help="workload seed (default: 0)")
    soak_parser.add_argument("--scale", type=float, default=1.0,
                             help="scale session/job counts by this factor "
                                  "(default: 1.0)")
    soak_parser.add_argument("--phases", default=None,
                             help="comma-separated phase names to run "
                                  "(default: the full broadcast day)")
    soak_parser.add_argument("--profile", default="gentle",
                             choices=("gentle", "aggressive"),
                             help="chaos profile (default: gentle)")
    soak_parser.add_argument("--no-chaos", action="store_true",
                             help="run the fault-free baseline day")
    soak_parser.add_argument("--chaos-seed", type=int, default=None,
                             help="pin one chaos seed (day: defaults to the "
                                  "workload seed; search: sweep just this)")
    soak_parser.add_argument("--chaos-seeds", type=int, default=32,
                             help="search: sweep chaos seeds 0..N-1 "
                                  "(default: 32)")
    soak_parser.add_argument("--plant-leak", action="store_true",
                             help="arm the planted leak latent bug "
                                  "(for exercising the search)")
    soak_parser.add_argument("--bundle-dir", type=Path, default=None,
                             help="day: write postmortem bundles here")
    soak_parser.add_argument("--out", type=Path, default=None,
                             help="search: write minimized plan, report "
                                  "and replay bundles here")
    query_parser = _family_parser(
        sub, "query", "run an annotation-store temporal-query scenario",
        "speech", "corpus seed")
    query_parser.add_argument("--mode", default="auto",
                              choices=("auto", "index", "scan"),
                              help="planner mode (default: auto)")
    explain_parser = sub.add_parser(
        "explain", help="reconstruct a session's causal decision chain"
    )
    explain_parser.add_argument("scenario", nargs="?", default="node-kill",
                                help="any registered scenario "
                                     "(default: node-kill)")
    explain_parser.add_argument("--session", default=None,
                                help="session/stream label to explain "
                                     "(omit to list subjects)")
    explain_parser.add_argument("--seed", type=int, default=0,
                                help="scenario seed (default: 0)")
    profile_parser = sub.add_parser(
        "profile", help="run a scenario under cProfile and report hotspots"
    )
    profile_parser.add_argument("scenario", nargs="?", default="quickstart",
                                help="any registered scenario: family/name, "
                                     "an alias, or a bare name unique "
                                     "across families (default: quickstart)")
    profile_parser.add_argument("--top", type=int, default=15,
                                help="number of hotspots to show (default: 15)")
    profile_parser.add_argument("--sort", default="cumulative",
                                choices=("cumulative", "tottime", "ncalls"),
                                help="pstats sort key (default: cumulative)")
    profile_parser.add_argument("--out", type=Path, default=None,
                                help="also write the report to this file")
    args = parser.parse_args(argv)
    if args.command == "profile":
        return profile(args.scenario, args.top, args.sort, args.out)
    if args.command == "trace":
        return trace(args.scenario, args.out, args.canonical)
    if args.command == "soak":
        return soak(args)
    if args.command == "explain":
        return explain(args.scenario, args.session, args.seed)
    if args.command is not None:
        runs, knobs = _family_runs(args)
        return run_family(args.command, args.scenario, args.seed, runs, knobs)
    tour()
    return 0


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except BrokenPipeError:
        # Downstream consumer (e.g. ``| grep -q``) closed the pipe
        # early; that's its prerogative, not a scenario failure.  Drop
        # stdout so the interpreter's shutdown flush doesn't raise too.
        import os
        import sys
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise SystemExit(0)
