"""Two-level, popularity-aware cache hierarchy for the cluster tier.

The paper's single-system AV database keeps continuous delivery real-time
by pre-allocating device bandwidth; at cluster scale the same promise
breaks the moment a Zipf flash crowd lands on one value's R replicas.
This package adds the missing distribution tier:

* :mod:`repro.cache.block` — version-tagged :class:`BlockCache`, the one
  cache implementation used per storage node and per edge;
* :mod:`repro.cache.policy` — pluggable eviction (:class:`LRUPolicy`,
  :class:`CostAwarePolicy`);
* :mod:`repro.cache.edge` — killable :class:`EdgeCacheNode` delivery
  nodes and the :class:`EdgeStream` read path (hit, read-through,
  pass-through);
* :mod:`repro.cache.hotspot` — sliding-window flash-crowd detection;
* :mod:`repro.cache.aggregate` — :class:`AggregateHitModel`, the fluid
  top-K approximation of the edge tier used by :mod:`repro.herd`;
* :mod:`repro.cache.tier` — :class:`CacheTier` wiring it all to a
  :class:`~repro.cluster.placement.ClusterPlacementManager`, including
  BACKGROUND prefill and temporary replication boost;
* :mod:`repro.cache.scenarios` — seeded ``zipf-crowd`` / ``churn``
  scenarios behind ``python -m repro cache``.
"""

from repro.cache.aggregate import AggregateHitModel
from repro.cache.block import BlockCache, content_stamp, span_blocks
from repro.cache.edge import EdgeCacheNode, EdgeStream
from repro.cache.hotspot import HotContentDetector
from repro.cache.policy import (
    CostAwarePolicy,
    EvictionPolicy,
    LRUPolicy,
    POLICIES,
    make_policy,
)
from repro.cache.tier import CacheTier

__all__ = [
    "AggregateHitModel",
    "BlockCache",
    "CacheTier",
    "CostAwarePolicy",
    "EdgeCacheNode",
    "EdgeStream",
    "EvictionPolicy",
    "HotContentDetector",
    "LRUPolicy",
    "POLICIES",
    "content_stamp",
    "make_policy",
    "span_blocks",
]
