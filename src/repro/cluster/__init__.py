"""Scale-out storage cluster tier (ROADMAP: sharding, multi-backend).

``repro.cluster`` distributes the single-machine storage stack across N
simulated :class:`~repro.cluster.node.StorageNode`s:

* shard placement by rendezvous hashing with replication factor R
  (:class:`~repro.cluster.placement.ClusterPlacementManager`);
* reads routed to the least-loaded live replica through per-node
  admission controllers, with mid-stream failover on node death
  (:class:`~repro.cluster.placement.ClusterStream`);
* background re-replication and join-rebalancing under a bandwidth cap
  (:class:`~repro.cluster.repair.RepairManager`).

Everything is deterministic and runs in virtual time; see
``python -m repro cluster <scenario>`` and
``benchmarks/bench_cluster_scaling.py``.
"""

from repro.cluster.hashing import rank, score, top
from repro.cluster.node import StorageNode
from repro.cluster.placement import (
    ClusterPlacement,
    ClusterPlacementManager,
    ClusterShard,
    ClusterStream,
)
from repro.cluster.repair import RepairManager

__all__ = [
    "ClusterPlacement", "ClusterPlacementManager", "ClusterShard",
    "ClusterStream", "RepairManager", "StorageNode",
    "rank", "score", "top",
]
