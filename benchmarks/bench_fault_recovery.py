"""Exp. R1 — failure recovery under a seeded fault plan.

Continuous media turn failures into visible QoS loss: frames that never
reach the window, elements dropped on the wire, workers that die
mid-presentation.  This bench runs every fault scenario twice under the
*identical* seeded fault schedule — once with its recovery policy
(retry with backoff, link retransmission, supervision, graceful session
degradation) and once without — and compares delivered vs. negotiated
QoS.

Gates:

* recovery must win back at least 50% of the QoS the faults destroyed:
  ``(qos_rec - qos_norec) / (1 - qos_norec) >= 0.5``;
* the whole experiment is deterministic — a second run with the same
  seed must reproduce every number exactly.
"""

from __future__ import annotations

from typing import Dict

from repro.obs import scoped
from repro.scenarios import resolve

SEED = 7
RECOVERY_FLOOR = 0.5


def run_all(seed: int) -> Dict[str, Dict[bool, Dict[str, object]]]:
    results: Dict[str, Dict[bool, Dict[str, object]]] = {}
    for scenario in resolve("all", family="faults"):
        results[scenario.name] = {}
        for recover in (True, False):
            # Fresh observability scope per run: counters must not bleed
            # between scenarios or between the two regimes.
            with scoped():
                results[scenario.name][recover] = scenario.run(
                    seed=seed, recover=recover)
    return results


def qos_recovered(with_rec: float, without: float) -> float:
    """Fraction of the fault-destroyed QoS that recovery won back."""
    destroyed = 1.0 - without
    if destroyed <= 0:
        return 1.0  # nothing destroyed; nothing to recover
    return (with_rec - without) / destroyed


def test_fault_recovery_wins_back_qos(exhibit):
    first = run_all(SEED)
    second = run_all(SEED)

    lines = [
        "Exp. R1 — delivered vs. negotiated QoS under a seeded fault plan",
        f"(seed {SEED}; identical fault schedule with and without recovery)",
        "",
        f"  {'scenario':<18} {'no recovery':>12} {'recovery':>10} "
        f"{'recovered':>10}  injected",
    ]
    recovered_by_scenario = {}
    for name, runs in first.items():
        with_rec = float(runs[True]["delivered_qos"])
        without = float(runs[False]["delivered_qos"])
        fraction = qos_recovered(with_rec, without)
        recovered_by_scenario[name] = fraction
        lines.append(
            f"  {name:<18} {without:>12.3f} {with_rec:>10.3f} "
            f"{fraction:>9.0%}  {runs[True]['faults_injected']}"
        )
    lines += [
        "",
        "  disk-outage deadline misses: "
        f"{first['disk-outage'][True]['deadline_misses']} (recovery, late but "
        f"delivered) vs {first['disk-outage'][False]['deadline_misses']} "
        "(no recovery, frames lost outright)",
        "",
        f"gates: recovered >= {RECOVERY_FLOOR:.0%} of destroyed QoS per "
        "scenario; two runs byte-identical",
    ]
    exhibit("fault_recovery", "\n".join(lines))

    assert first == second, "fault scenarios are not deterministic across runs"
    for name, fraction in recovered_by_scenario.items():
        without = float(first[name][False]["delivered_qos"])
        assert without < 1.0, (
            f"{name}: the no-recovery baseline lost no QoS — the fault plan "
            "is not biting and the recovery comparison is vacuous"
        )
        assert fraction >= RECOVERY_FLOOR, (
            f"{name}: recovery won back only {fraction:.0%} of the destroyed "
            f"QoS (floor {RECOVERY_FLOOR:.0%})"
        )
