"""Herd-scale benchmark: clients simulated per wall-clock second.

Runs the same phased workload twice — once as one discrete DES process
per client (the reference), once as a vectorized herd population
through the coupler — and reports **clients simulated per second** for
each plus the speedup.  Before any speed claim, the equivalence probe
must pass: a fast simulation that disagrees with the kernel is a bug,
not a result.

Usage::

    python benchmarks/bench_herd_scale.py                  # full run + table
    python benchmarks/bench_herd_scale.py --smoke          # CI gate (>= 50x)
    python benchmarks/bench_herd_scale.py --update --pr N  # + record PR N

The full run drives the herd at 10^5 clients against a discrete
reference at 4x10^3 (running 10^5 discrete clients is exactly the cost
this mode exists to avoid); ``--update`` writes the ``herd_scale``
section of ``BENCH_PERF.json`` and merges ``clients_simulated_per_s``
into PR N's trajectory row (created if missing).  The smoke gate
re-measures up to 3 times before failing (``gate.remeasure``) so
shared-CI noise dips don't flap the job.
"""

from __future__ import annotations

import argparse
import sys
import time

import gate

sys.path.insert(0, str(gate.REPO_ROOT / "src"))

from repro.herd.equivalence import (  # noqa: E402
    equivalence_report,
    run_discrete,
    run_herd,
)
from repro.herd.population import HerdPhase, HerdPopulation  # noqa: E402

STREAM_BPS = 1_000_000.0
EPOCH_S = 0.05
SESSION_EPOCHS = 4

#: expected client counts per mode.  The discrete side is deliberately
#: small — its measured clients/s extrapolates linearly (every client
#: is O(log n) heap work), the herd side is the one being proven.
FULL = {"herd_clients": 100_000, "discrete_clients": 4_000}
SMOKE = {"herd_clients": 50_000, "discrete_clients": 1_000}

#: the acceptance gate: herd clients/s must beat discrete clients/s by
#: at least this factor (the real margin is orders beyond it).
SPEEDUP_GATE = 50.0

#: the equivalence probe's expected population size.
PROBE_CLIENTS = 240


def _phases(rate: float):
    """The surge mix: ramp / peak / cooldown (see repro.herd.scenarios)."""
    return (
        HerdPhase("ramp", 2.0, rate, viral_share=0.35,
                  interactive_share=0.2),
        HerdPhase("peak", 3.0, 4.0 * rate, viral_share=0.6,
                  interactive_share=0.25, background_share=0.1),
        HerdPhase("cool", 2.0, 0.8 * rate, viral_share=0.3),
    )


def _population(clients: int, seed: int = 0) -> HerdPopulation:
    # expected clients of _phases(1.0) = 2 + 12 + 1.6 = 15.6
    return HerdPopulation(_phases(clients / 15.6), seed=seed,
                          catalog_size=32, epoch_s=EPOCH_S)


def _capacity_bps(clients: int) -> float:
    # Keep contention comparable across sizes: one trunk stream slot
    # per 125 expected clients (the peak offers ~2.5x the trunk).
    return STREAM_BPS * max(4, clients // 125)


def measure(mode: str, clients: int, seed: int = 0) -> dict:
    """One timed run; wall time includes population compilation."""
    runner = run_herd if mode == "herd" else run_discrete
    t0 = time.perf_counter()
    population = _population(clients, seed)
    facts = runner(population, capacity_bps=_capacity_bps(clients),
                   stream_bps=STREAM_BPS, session_epochs=SESSION_EPOCHS)
    dt = time.perf_counter() - t0
    simulated = int(facts["clients"])
    return {
        "mode": mode,
        "clients": simulated,
        "wall_s": dt,
        "clients_per_s": simulated / dt,
        "admitted": facts["admitted_full"] + facts["admitted_degraded"],
        "shed": facts["shed"],
    }


def equivalence_probe(seed: int = 0):
    """The honesty gate: herd == discrete on a small same-seed run.

    Returns the report, or None (mismatches on stderr) on divergence.
    """
    population = _population(PROBE_CLIENTS, seed)
    report = equivalence_report(population,
                                capacity_bps=_capacity_bps(PROBE_CLIENTS),
                                stream_bps=STREAM_BPS,
                                session_epochs=SESSION_EPOCHS)
    if not report["equivalent"]:
        print("equivalence probe FAILED: herd diverges from the discrete "
              "kernel:", file=sys.stderr)
        for line in report["mismatches"]:
            print(f"   {line}", file=sys.stderr)
        return None
    print(f"equivalence probe ({report['clients']} clients): ok")
    return report


def run_pair(sizes: dict, repeats: int = 3) -> dict:
    """Best-of-N clients/s for both modes plus the speedup."""
    herd = max((measure("herd", sizes["herd_clients"])
                for _ in range(repeats)), key=lambda m: m["clients_per_s"])
    discrete = max((measure("discrete", sizes["discrete_clients"])
                    for _ in range(repeats)),
                   key=lambda m: m["clients_per_s"])
    return {
        "herd": herd,
        "discrete": discrete,
        "speedup": herd["clients_per_s"] / discrete["clients_per_s"],
    }


def print_table(pair: dict, title: str) -> None:
    print(f"== {title}")
    for mode in ("herd", "discrete"):
        m = pair[mode]
        print(f"   {mode:<9} {m['clients']:>8,} clients in "
              f"{m['wall_s']:.3f}s = {m['clients_per_s']:>14,.0f} clients/s "
              f"(admitted {m['admitted']:,}, shed {m['shed']:,})")
    print(f"   speedup   {pair['speedup']:,.1f}x "
          f"(gate >= {SPEEDUP_GATE:.0f}x)")


def cmd_smoke() -> int:
    """CI gate: equivalence must hold and the speedup must clear the
    gate; re-measure before failing so shared-machine noise dips (which
    depress the herd run more than the discrete one, or vice versa)
    don't flap the job."""
    if equivalence_probe() is None:
        return 1

    def attempt(heading: str) -> dict:
        pair = run_pair(SMOKE, repeats=2)
        print_table(pair, heading)
        return pair

    def failures(pair: dict) -> list:
        if pair["speedup"] >= SPEEDUP_GATE:
            return []
        return [f"speedup {pair['speedup']:,.1f}x below {SPEEDUP_GATE:.0f}x"]

    return gate.remeasure("herd-scale smoke", attempt, failures)


def cmd_run(args) -> int:
    """Full-scale run; ``--update`` records it into BENCH_PERF.json."""
    report = equivalence_probe()
    if report is None:
        if args.update:
            print("refusing to record: herd diverges from the discrete "
                  "kernel", file=sys.stderr)
        return 1
    pair = run_pair(FULL)
    print_table(pair, "herd scale (clients simulated per second)")
    if not args.update:
        return 0

    herd_per_s = round(pair["herd"]["clients_per_s"], 1)
    speedup = round(pair["speedup"], 1)
    section = {
        "seed": 0,
        "gate_speedup": SPEEDUP_GATE,
        "equivalence_clients": report["clients"],
        "equivalent": report["equivalent"],
        "herd_clients": pair["herd"]["clients"],
        "herd_wall_s": round(pair["herd"]["wall_s"], 4),
        "discrete_clients": pair["discrete"]["clients"],
        "discrete_wall_s": round(pair["discrete"]["wall_s"], 4),
        "clients_simulated_per_s": herd_per_s,
        "discrete_clients_per_s": round(
            pair["discrete"]["clients_per_s"], 1),
        "speedup": speedup,
    }
    gate.record(args.pr, row={"clients_simulated_per_s": herd_per_s,
                              "herd_scale_speedup": speedup},
                section="herd_scale", payload=section)
    gate.write_result("herd_scale", "\n".join([
        "herd scale — clients simulated per wall-clock second",
        f"equivalence probe: {report['clients']} clients, ok",
        f"herd     {pair['herd']['clients']:>8,} clients  "
        f"{pair['herd']['clients_per_s']:>14,.0f}/s",
        f"discrete {pair['discrete']['clients']:>8,} clients  "
        f"{pair['discrete']['clients_per_s']:>14,.0f}/s",
        f"speedup  {pair['speedup']:,.1f}x (gate >= {SPEEDUP_GATE:.0f}x)",
    ]))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI gate: equivalence + speedup floor")
    parser.add_argument("--update", action="store_true",
                        help="write BENCH_PERF.json herd_scale section")
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
