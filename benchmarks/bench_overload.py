"""Exp. R2 — goodput under 10x overload, with and without admission.

Sixty seeded Poisson clients offer ten times the trunk's capacity
(scenario ``surge``).  Without admission control nobody is refused:
every stream statistically multiplexes the trunk, effective rates
collapse to ``capacity / active``, deadlines slip and almost no element
arrives on time — congestion collapse.  With the admission controller
the same offered load is arbitrated: full-rate admission while capacity
lasts, bounded queueing with deadlines, watermark shedding of background
work, and preemption of background streams by interactive ones.

Goodput counts only bits delivered on the operative (possibly
renegotiated) schedule by streams that ran to completion — late
elements, abandoned streams and preempted streams are wasted work.

Gates:

* controlled goodput must be at least ``GOODPUT_FACTOR`` x the
  uncontrolled baseline's, and the baseline must really collapse
  (no baseline stream meets its contract end to end);
* zero QoS violations among admitted interactive streams — in both the
  surge and the priority-mix scenario (where interactive admission works
  by preempting background streams);
* the device-outage breaker walks open -> half-open -> closed against
  the injected scheduler outage, strands nothing, and fails fast while
  open;
* the whole experiment is deterministic — a second run with the same
  seed must reproduce every number (and the summary lines) exactly.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.obs import scoped
from repro.scenarios import resolve

SEED = 7
GOODPUT_FACTOR = 2.0


def run_all(seed: int) -> Tuple[Dict[str, Dict[bool, Dict[str, object]]],
                                Dict[str, Dict[bool, str]]]:
    results: Dict[str, Dict[bool, Dict[str, object]]] = {}
    summaries: Dict[str, Dict[bool, str]] = {}
    for scenario in resolve("all", family="overload"):
        name = scenario.name
        results[name] = {}
        summaries[name] = {}
        for admission in (True, False):
            # Fresh observability scope per run: admission.* counters
            # must not bleed between scenarios or regimes.
            with scoped():
                facts = scenario.run(seed=seed, admission=admission)
            results[name][admission] = facts
            summaries[name][admission] = scenario.summary_line(facts)
    return results, summaries


def test_admission_beats_overload_collapse(exhibit):
    first, first_lines = run_all(SEED)
    second, second_lines = run_all(SEED)

    surge = first["surge"]
    controlled, baseline = surge[True], surge[False]
    goodput_ratio = (float(controlled["goodput_bps"])
                     / max(float(baseline["goodput_bps"]), 1.0))
    mix = first["priority-mix"]
    outage = first["device-outage"]

    lines = [
        "Exp. R2 — 10x overload: admission control vs. uncontrolled baseline",
        f"(seed {SEED}; {controlled['clients']} Poisson clients, "
        f"{int(controlled['capacity_bps']) // 1_000_000} Mb/s trunk)",
        "",
        f"  {'surge':<22} {'admission':>12} {'no admission':>14}",
        f"  {'admitted full':<22} {controlled['admitted_full']:>12} "
        f"{baseline['admitted_full']:>14}",
        f"  {'degraded':<22} {controlled['admitted_degraded']:>12} "
        f"{baseline['admitted_degraded']:>14}",
        f"  {'shed / timed out':<22} "
        f"{str(controlled['shed']) + ' / ' + str(controlled['timeouts']):>12} "
        f"{str(baseline['shed']) + ' / ' + str(baseline['timeouts']):>14}",
        f"  {'streams meeting QoS':<22} {controlled['qos_streams']:>12} "
        f"{baseline['qos_streams']:>14}",
        f"  {'interactive violations':<22} "
        f"{controlled['interactive_violations']:>12} "
        f"{baseline['interactive_violations']:>14}",
        f"  {'goodput (Mb/s)':<22} "
        f"{float(controlled['goodput_bps']) / 1e6:>12.2f} "
        f"{float(baseline['goodput_bps']) / 1e6:>14.2f}",
        "",
        f"  goodput ratio: {goodput_ratio:.1f}x "
        f"(gate: >= {GOODPUT_FACTOR:.0f}x)",
        f"  priority-mix: {mix[True]['background_preempted']} background "
        f"streams preempted; interactive admitted "
        f"{mix[True]['interactive_admitted']} with admission vs "
        f"{mix[False]['interactive_admitted']} without "
        f"({mix[False]['interactive_timeouts']} timed out)",
        f"  device-outage breaker: {outage[True]['breaker_path']} "
        f"({outage[True]['fast_failed_frames']} fast-failed, "
        f"{outage[True]['stranded_requests']} stranded)",
        "",
        "gates: goodput ratio, zero admitted-interactive violations, "
        "breaker closes again, two runs byte-identical",
    ]
    exhibit("overload", "\n".join(lines))

    assert first == second, "overload scenarios are not deterministic across runs"
    assert first_lines == second_lines, (
        "overload summary lines are not deterministic across runs"
    )

    # The baseline must genuinely collapse, or the comparison is vacuous.
    assert int(baseline["qos_streams"]) == 0, (
        "uncontrolled baseline still met QoS contracts; the overload is "
        "not biting"
    )
    assert goodput_ratio >= GOODPUT_FACTOR, (
        f"admission control delivered only {goodput_ratio:.2f}x the "
        f"uncontrolled goodput (gate {GOODPUT_FACTOR:.0f}x)"
    )

    # Admitted interactive streams are never degraded or late.
    assert int(controlled["interactive_admitted"]) > 0, (
        "no interactive stream was admitted under surge; the "
        "zero-violations gate is vacuous"
    )
    assert int(controlled["interactive_violations"]) == 0
    assert int(mix[True]["interactive_admitted"]) == 2
    assert int(mix[True]["interactive_violations"]) == 0
    assert int(mix[True]["background_preempted"]) >= 1, (
        "priority-mix admitted interactive work without preempting "
        "background streams on a full trunk"
    )

    # The breaker must open under the outage, probe, and close again —
    # with nothing stranded behind it.
    path = str(outage[True]["breaker_path"])
    assert path.startswith("open") and path.endswith("closed")
    assert "half-open" in path
    assert int(outage[True]["fast_failed_frames"]) > 0
    for facts in (outage[True], outage[False]):
        assert int(facts["stranded_requests"]) == 0
    for facts in (controlled, baseline):
        assert int(facts["stranded_processes"]) == 0
        assert int(facts["tx_gave_up"]) == 0
