"""Vectorized client-herd simulation for million-user scale.

The ROADMAP's production north star talks about "millions of users";
the discrete kernel simulates each of them as a generator process, so
a million-client day costs millions of heap operations before a single
interesting event fires.  This package adds the **hybrid fluid mode**:
the sessions you care about stay full-fidelity discrete processes,
while the crowd behind them becomes a compiled *herd population* that
advances per epoch with numpy batch arithmetic.

* :mod:`repro.herd.population` — :class:`HerdPhase` declarations
  compiled into per-epoch arrival/priority/content vectors
  (:class:`HerdPopulation`), all randomness drawn up front;
* :mod:`repro.herd.coupler` — :class:`HerdCoupler`, the epoch tick
  that folds those vectors into the *real*
  :class:`~repro.admission.AdmissionController` as batched cohort
  reservations (contention with foreground streams is bidirectional,
  including preemption), and through the
  :class:`~repro.cache.aggregate.AggregateHitModel` edge tier;
* :mod:`repro.herd.equivalence` — the honesty proof: the same
  population run once as cohorts and once as one process per client
  must produce identical verdict counts, goodput, trunk traffic and
  occupancy curves;
* :mod:`repro.herd.scenarios` — seeded ``surge`` / ``flash`` / ``day``
  hybrid scenarios behind ``python -m repro herd``.
"""

from repro.herd.coupler import HerdCoupler, apportion
from repro.herd.equivalence import (
    compare,
    equivalence_report,
    run_discrete,
    run_herd,
)
from repro.herd.population import HerdPhase, HerdPopulation, PRIORITY_ORDER

__all__ = [
    "HerdCoupler",
    "HerdPhase",
    "HerdPopulation",
    "PRIORITY_ORDER",
    "apportion",
    "compare",
    "equivalence_report",
    "run_discrete",
    "run_herd",
]
