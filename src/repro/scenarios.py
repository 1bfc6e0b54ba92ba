"""The one table of named scenarios, and the one rule that resolves names.

Every scenario the CLI can run — the family subcommands (``faults``,
``overload``, ``cluster``, ``cache``, ``watch``, ``soak``, ``herd``,
``query``) and the cross-family ``trace`` / ``profile`` / ``explain``
commands — is one :class:`Scenario` record in :data:`REGISTRY`, keyed
``family/name`` (``overload/surge``, ``soak/day``).  Each ``run`` builds
a fresh system inside the caller's ambient observability scope, is fully
determined by its keyword arguments (all defaulted), and returns a flat
dict of headline facts.

:func:`resolve` turns a command-line name into records by one rule:

1. ``family/name`` names that entry.
2. Under a family subcommand, ``all`` expands to the family's entries
   sorted by name, and a bare name is looked up inside the family.
3. Otherwise an :data:`ALIASES` entry names its target, with the
   alias's run keywords bound; then a bare name unique across the table
   names its entry.

Anything else raises :class:`KeyError` whose message lists the valid
choices — the ``family/name`` candidates when a bare name is ambiguous.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.admission import scenarios as overload
from repro.annotations import scenarios as query
from repro.cache import scenarios as cache
from repro.cluster import scenarios as cluster
from repro.faults import scenarios as faults
from repro.herd import scenarios as herd
from repro.obs import scenarios as trace
from repro.soak import scenarios as soak
from repro.watch import scenarios as watch

__all__ = ["ALIASES", "REGISTRY", "Scenario", "resolve"]

#: A summary field: a fact key, or a ``(label, fact key)`` rename.
SummaryKey = Union[str, Tuple[str, str]]


@dataclass(frozen=True)
class Scenario:
    """One named, seeded scenario and how its summary line reads."""

    family: str
    name: str
    run: Callable[..., Dict[str, object]]
    #: Facts the summary line shows, in order; None shows every fact
    #: in sorted-key order.
    summary_keys: Optional[Tuple[SummaryKey, ...]] = None

    @property
    def key(self) -> str:
        return f"{self.family}/{self.name}"

    def summary_line(self, facts: Dict[str, object],
                     label: Optional[str] = None) -> str:
        """One deterministic line per run, for rerun diffing in CI.

        ``label`` replaces the scenario name after the family prefix
        (benchmarks tag variant runs this way).
        """
        if self.summary_keys is None:
            fields = [(key, key) for key in sorted(facts)]
        else:
            fields = [(key, key) if isinstance(key, str) else key
                      for key in self.summary_keys]
        body = " ".join(f"{name}={facts[key]}"
                        for name, key in fields if key in facts)
        return f"{self.family} {label or self.name}: {body}"


_OVERLOAD_KEYS = (
    "mode", "seed", "clients", "load_factor",
    "admitted_full", "admitted_degraded", "shed", "timeouts",
    "preempted", "abandoned", "completed", "qos_streams",
    "interactive_admitted", "interactive_violations",
    "background_preempted", "interactive_timeouts",
    "delivered_frames", "fast_failed_frames", "breaker_path",
    "stranded_requests", "stranded_processes",
    "goodput_bits", "virtual_seconds", "goodput_bps",
)
_HERD_KEYS = (
    "seed", "clients_expected", "clients", "edge_served",
    "admitted_full", "admitted_degraded", "shed", "completed",
    "preempted", "fg_admitted", "fg_refused", "fg_preempted",
    "fg_completed", "fg_late_elements", "cache_hit_ratio",
    "peak_utilization", "goodput_bits", "trunk_bits",
    "probe_equivalent", "virtual_seconds",
)
_QUERY_KEYS = (("n", "annotations"), "queries", "plans",
               ("agree", "all_agree"))

REGISTRY: Dict[str, Scenario] = {scenario.key: scenario for scenario in (
    Scenario("trace", "quickstart", trace.quickstart),
    Scenario("trace", "newscast", trace.newscast),
    Scenario("trace", "contention", trace.contention),
    Scenario("faults", "disk-outage", faults.disk_outage),
    Scenario("faults", "lossy-channel", faults.lossy_channel),
    Scenario("faults", "crash-recovery", faults.crash_recovery),
    Scenario("faults", "degraded-session", faults.degraded_session),
    Scenario("overload", "surge", overload.surge, _OVERLOAD_KEYS),
    Scenario("overload", "priority-mix", overload.priority_mix,
             _OVERLOAD_KEYS),
    Scenario("overload", "device-outage", overload.device_outage,
             _OVERLOAD_KEYS),
    Scenario("cluster", "read-storm", cluster.read_storm),
    Scenario("cluster", "node-kill", cluster.node_kill),
    Scenario("cluster", "rebalance", cluster.rebalance),
    Scenario("cache", "zipf-crowd", cache.zipf_crowd),
    Scenario("cache", "churn", cache.churn),
    Scenario("watch", "leak", watch.leak),
    Scenario("watch", "node-kill", watch.node_kill),
    Scenario("watch", "slo-burn", watch.slo_burn),
    Scenario("watch", "cache-crowd", watch.cache_crowd),
    Scenario("soak", "day", soak.day),
    Scenario("herd", "surge", herd.surge, _HERD_KEYS),
    Scenario("herd", "flash", herd.flash, _HERD_KEYS),
    Scenario("herd", "day", herd.day, _HERD_KEYS),
    Scenario("query", "speech", query.speech, _QUERY_KEYS),
    Scenario("query", "dance", query.dance, _QUERY_KEYS),
    Scenario("query", "planner", query.planner, _QUERY_KEYS),
)}

#: Legacy spellings -> (``family/name``, run keywords bound on resolve).
ALIASES: Dict[str, Tuple[str, Dict[str, object]]] = {
    # One representative run per family, under the family's name: the
    # trace CLI and CI's canonical-trace loop have always taken these.
    "faults": ("faults/disk-outage", {}),
    "overload": ("overload/priority-mix", {}),
    "cluster": ("cluster/node-kill", {}),
    "cache": ("cache/zipf-crowd", {"sessions": 400}),
    "herd": ("herd/surge", {"clients": 4_000}),
    "query": ("query/speech", {}),
    # Bare names two families share, pinned to their documented owner.
    "surge": ("overload/surge", {}),
    "day": ("soak/day", {}),
    "node-kill": ("watch/node-kill", {}),
    **{f"{family}-{scenario.name}": (scenario.key, {})
       for family in ("herd", "query")
       for scenario in REGISTRY.values() if scenario.family == family},
}


def resolve(name: str, family: Optional[str] = None) -> List[Scenario]:
    """The scenarios ``name`` selects (see the module docstring's rule)."""
    if name in REGISTRY:
        return [REGISTRY[name]]
    if family is not None:
        members = {scenario.name: scenario for scenario in
                   sorted(REGISTRY.values(), key=lambda s: s.name)
                   if scenario.family == family}
        if name == "all":
            return list(members.values())
        if name in members:
            return [members[name]]
        options = ", ".join([*members, "all"])
        raise KeyError(f"unknown {family} scenario {name!r}; "
                       f"pick one of: {options}")
    if name in ALIASES:
        target, kwargs = ALIASES[name]
        scenario = REGISTRY[target]
        if kwargs:
            scenario = replace(scenario,
                               run=functools.partial(scenario.run, **kwargs))
        return [scenario]
    matches = [scenario for scenario in REGISTRY.values()
               if scenario.name == name]
    if len(matches) == 1:
        return matches
    if matches:
        options = ", ".join(scenario.key for scenario in matches)
        raise KeyError(f"ambiguous scenario {name!r}; pick one of: {options}")
    options = ", ".join(sorted([*REGISTRY, *ALIASES]))
    raise KeyError(f"unknown scenario {name!r}; pick one of: {options}")
