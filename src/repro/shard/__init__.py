"""Sharded CTUP execution: partition, route, monitor per shard, merge.

The horizontal-scaling layer over the monitor contract:

* :class:`ShardPlan` — assigns every grid cell (hence every place) to
  one of S disjoint shards;
* :class:`ShardRouter` — fans a location update out only to the shards
  whose cells the move's old/new protection disks can touch;
* :class:`ShardedMonitor` — one full monitor (any scheme) per shard
  behind the ordinary maintain/access phase API;
* :class:`GlobalTopK` — merges per-shard partial top-k lists into the
  exact global answer with a provable refill rule.

See ``docs/architecture.md`` ("Sharding & the global top-k merge") for
the correctness argument.
"""

from repro.shard.merge import GlobalTopK, MergeStats
from repro.shard.monitor import ShardedMonitor
from repro.shard.plan import ShardPlan, plan_for
from repro.shard.router import ShardRouter

__all__ = [
    "GlobalTopK",
    "MergeStats",
    "ShardPlan",
    "ShardRouter",
    "ShardedMonitor",
    "plan_for",
]
