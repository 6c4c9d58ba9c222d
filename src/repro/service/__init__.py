"""Sharded membership-serving subsystem built on the :mod:`repro.core` filters.

The reproduction's core modules build and query filters in-process, one shot
at a time.  This subpackage turns them into something deployable — the
blacklist-gateway / LSM read-path setting the paper motivates:

* :mod:`repro.service.codec` — a versioned, checksummed binary frame format
  that round-trips every filter (BitArray, BloomFilter, HashExpressor, HABF,
  f-HABF, Xor, WBF and the learned LBF/SLBF/Ada-BF with their score model)
  to and from ``bytes``, so built filters can be persisted and shipped
  between processes.
* :mod:`repro.service.backends` — a registry exposing every filter family
  through the single ``create_filter(keys, negatives, costs)`` interface
  shared with :mod:`repro.kvstore.filter_policy`.
* :mod:`repro.service.shards` — :class:`ShardedFilterStore`, which partitions
  keys across N independently-built filters (in parallel with
  ``workers=N``), answers batches by grouping keys per shard, and records
  each shard's :class:`ShardEntry` (key count, generation, key-set
  fingerprint, backend) so rebuilds can skip clean shards.
* :mod:`repro.service.server` — :class:`MembershipService`, a
  generation-versioned serving core with atomic hot-swap rebuilds
  (incremental by default: only dirty shards are reconstructed) and
  latency-percentile statistics.
* :mod:`repro.service.aserve` — the asyncio front-end:
  :class:`AdaptiveMicroBatcher` coalesces concurrent callers into engine
  batches and :class:`AsyncMembershipServer` exposes TCP/HTTP protocols on
  top of it (see ``docs/SERVING.md``).
* :mod:`repro.service.multiproc` — the multi-process serving tier:
  :class:`SharedFrameArena` lays a whole store's codec frame out in one
  ``multiprocessing.shared_memory`` segment, and :class:`ReplicaPool`, a
  :class:`MembershipService` subclass, runs R worker processes that decode
  it zero-copy and answer the micro-batch windows the parent dispatches
  over pipes; its swap rolls the whole fleet, so rebuilds stay
  generation-consistent.
* :mod:`repro.service.diskstore` — the disk tier: :class:`DiskShardStore`
  persists every shard's codec frame in a page-oriented file behind an
  atomically-renamed directory, serves cold shards zero-copy off an
  ``mmap`` and hot shards from a byte-budgeted LRU, and plugs into
  ``MembershipService(store_path=...)`` / ``ReplicaPool(store_path=...)``
  so key sets larger than RAM serve with bounded resident memory.
* :mod:`repro.service.replication` — the cluster tier: snapshot *deltas*
  (only the dirty shards' codec frames plus per-shard expectations) shipped
  from a builder to N followers over a length-prefixed, CRC-framed TCP
  protocol (:class:`BuilderPublisher` / :class:`FollowerClient`), applied as
  the same atomic ``install_snapshot`` hot-swap — one builder, many
  followers, all answering with the generation they serve.
* :mod:`repro.service.stats` — the stats dataclasses shared by the above
  (since the telemetry layer, views over :mod:`repro.obs` registry
  instruments; ``GET /metrics`` and the ``METRICS`` line command expose the
  same numbers in Prometheus text format).
* :mod:`repro.service.adaptive` — workload-adaptive backend selection:
  :class:`BackendScorer` scores every candidate backend per shard from the
  live telemetry (observed/cost-weighted FPR, traffic, memory) and
  :class:`AdaptivePolicy` migrates losing shards to the winner as part of
  the ordinary atomic rebuild swap, producing mixed-backend stores the
  codec persists unchanged.
"""

from repro.service.adaptive import (
    AdaptivePolicy,
    BackendCandidate,
    BackendScorer,
    MigrationPlan,
    ShardScore,
)
from repro.service.aserve import AdaptiveMicroBatcher, AsyncMembershipServer
from repro.service.backends import (
    available_backends,
    get_backend,
    register_backend,
    resolve_backend,
)
from repro.service.codec import (
    CODEC_VERSION,
    FRAME_MAGIC,
    dump,
    dumps,
    load,
    loads,
    loads_as,
)
from repro.service.diskstore import DEFAULT_PAGE_SIZE, DirectoryEntry, DiskShardStore
from repro.service.multiproc import ReplicaPool, SharedFrameArena
from repro.service.replication import (
    BuilderPublisher,
    FollowerClient,
    SnapshotDelta,
    StaleBaseError,
    apply_delta,
    apply_to_service,
    decode_delta,
    encode_delta,
    full_snapshot,
    make_delta,
)
from repro.service.server import BatchAnswer, MembershipService, Snapshot
from repro.service.shards import (
    EmptyShardFilter,
    ShardEntry,
    ShardRouter,
    ShardedFilterStore,
)
from repro.service.stats import (
    AdaptiveStats,
    MicroBatchStats,
    ServiceStats,
    ShardStats,
)

__all__ = [
    "MembershipService",
    "Snapshot",
    "BatchAnswer",
    "AdaptivePolicy",
    "AdaptiveStats",
    "BackendCandidate",
    "BackendScorer",
    "MigrationPlan",
    "ShardScore",
    "AdaptiveMicroBatcher",
    "AsyncMembershipServer",
    "ReplicaPool",
    "SharedFrameArena",
    "BuilderPublisher",
    "FollowerClient",
    "SnapshotDelta",
    "StaleBaseError",
    "make_delta",
    "full_snapshot",
    "encode_delta",
    "decode_delta",
    "apply_delta",
    "apply_to_service",
    "DiskShardStore",
    "DirectoryEntry",
    "DEFAULT_PAGE_SIZE",
    "MicroBatchStats",
    "ShardedFilterStore",
    "ShardEntry",
    "ShardRouter",
    "EmptyShardFilter",
    "ServiceStats",
    "ShardStats",
    "available_backends",
    "get_backend",
    "register_backend",
    "resolve_backend",
    "dumps",
    "loads",
    "loads_as",
    "dump",
    "load",
    "FRAME_MAGIC",
    "CODEC_VERSION",
]
