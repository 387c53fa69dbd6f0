"""Scaling subsystem: spatial sharding, sharded solve, batched serving.

See ``docs/scaling.md`` for the design.  The three public pieces:

* :func:`partition_instance` — deterministic geographic partitioner.
* :class:`ShardedSolver` — GEPC solver over ``k`` shards, solved in
  shard order, with post-merge boundary repair.
* :class:`BatchedPlatform` — coalescing operation front-end
  over :class:`~repro.platform.service.EBSNPlatform`.
"""

from repro.scale.batched import (
    BatchedPlatform,
    BatchResult,
    PlatformClosedError,
    coalesce_operations,
)
from repro.scale.partition import (
    Partition,
    Shard,
    partition_instance,
    reachable_matrix,
)
from repro.scale.sharded import ShardedSolver

__all__ = [
    "BatchResult",
    "BatchedPlatform",
    "Partition",
    "PlatformClosedError",
    "Shard",
    "ShardedSolver",
    "coalesce_operations",
    "partition_instance",
    "reachable_matrix",
]
