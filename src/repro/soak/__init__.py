"""repro.soak — the broadcast-day soak harness.

The paper's AV database is meant to run *continuously*: live newscast
capture, VOD playback and editing all share one storage/session
substrate.  Every other scenario registry exercises a single burst;
this package composes them into a long-horizon **broadcast day** —
morning ramp, midday editing, prime-time crowd, overnight maintenance
— supervised end-to-end by the ``repro.watch`` stack, with a seeded
chaos layer sampling :class:`~repro.faults.plan.FaultPlan` schedules
against it and a chaos-*search* mode that sweeps perturbation seeds
and delta-debugs any failing fault schedule down to a minimal,
replayable core.

* :mod:`repro.soak.phases` — declarative :class:`PhaseSpec` phases and
  the seeded workload timeline (pure data, drawn up front);
* :mod:`repro.soak.chaos` — :class:`ChaosProfile` catalogs and seeded
  :func:`sample_chaos` fault-plan sampling;
* :mod:`repro.soak.ddmin` — delta debugging over fault schedules;
* :mod:`repro.soak.scenarios` — the composed ``day`` scenario;
* :mod:`repro.soak.search` — seed sweep + minimization + artifacts.
"""

from repro.soak.chaos import PROFILES, ChaosProfile, sample_chaos
from repro.soak.ddmin import ddmin
from repro.soak.phases import (
    PhaseSpec,
    TimelineEvent,
    build_timeline,
    default_day,
    timeline_sha256,
)
from repro.soak.scenarios import day, day_chaos_plan
from repro.soak.search import SEARCH_DEMO_SEED, chaos_search

__all__ = [
    "PhaseSpec", "TimelineEvent", "build_timeline", "default_day",
    "timeline_sha256",
    "ChaosProfile", "PROFILES", "sample_chaos",
    "ddmin",
    "day", "day_chaos_plan",
    "chaos_search", "SEARCH_DEMO_SEED",
]
