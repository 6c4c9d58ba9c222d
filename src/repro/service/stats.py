"""Statistics views for the membership-serving subsystem.

The dataclasses here are *views* over :mod:`repro.obs` registry
instruments (one family per quantity, children labelled per service /
batcher / pool instance): ``stats()`` materialises these snapshots by
reading instrument values, so the ``stats()`` / ``STATS`` / ``GET /stats``
shapes and ``GET /metrics`` report the same numbers.  Counter fields read
counter children.  Each percentile field is a histogram child's exact
p50/p95/p99 over its last :data:`~repro.obs.RECENT_SAMPLES` observations
(``None`` before the first, and always under a
:class:`~repro.obs.NullRegistry`); the exposition reads that child's
buckets, sum and count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.metrics.timing import LatencyPercentiles


@dataclass
class ShardStats:
    """Counters for one shard of a :class:`~repro.service.shards.ShardedFilterStore`.

    Attributes:
        shard: Shard index.
        num_keys: Positive keys routed to this shard at build time.
        queries: Membership tests answered by this shard.
        positives: Tests answered "present".
        size_in_bits: Serialized size of the shard's filter.
        generation: How many times this shard has been (re)built.  An
            incremental rebuild only advances the generations of the shards
            it reconstructed; the service generation advances on every swap.
        backend: Registered name of the backend this shard's filter was
            built with.  Homogeneous stores repeat the store-level name;
            adaptive migrations make shards diverge.
    """

    shard: int
    num_keys: int = 0
    queries: int = 0
    positives: int = 0
    size_in_bits: int = 0
    generation: int = 1
    backend: str = ""


@dataclass
class MicroBatchStats:
    """Counters and distributions for an adaptive serving micro-batcher.

    Produced by :meth:`repro.service.aserve.AdaptiveMicroBatcher.batching_stats`
    and attached to :class:`ServiceStats` by the front-end's ``stats()``.

    Attributes:
        flushes: Windows dispatched to the engine (excludes empty windows).
        full_flushes: Windows closed because they reached ``max_batch`` keys.
        timer_flushes: Windows closed by the adaptive deadline or quiet queue.
        empty_flushes: Windows whose every waiter was cancelled before
            dispatch (nothing reached the engine).
        coalesced_keys: Keys answered through dispatched windows.
        bypassed_batches: Multi-key requests at least ``max_batch`` keys
            large that skipped the queue and dispatched directly.
        cancelled_callers: Waiters dropped because their future was cancelled.
        current_wait_ms: The adaptive window deadline at snapshot time, in
            milliseconds (``max_batch`` divided by the EWMA arrival rate,
            clamped to ``[min_wait_ms, max_wait_ms]``).
        batch_size: Percentiles over keys-per-dispatched-window
            (``repro_batch_size``).
        wait: Percentiles over how long windows stayed open, in seconds
            (``repro_batch_window_seconds``).
        queue_depth: Percentiles over the pending keys when a flush window
            closed, one sample per flush (``repro_batch_queue_depth``).
    """

    flushes: int
    full_flushes: int
    timer_flushes: int
    empty_flushes: int
    coalesced_keys: int
    bypassed_batches: int
    cancelled_callers: int
    current_wait_ms: float
    batch_size: Optional[LatencyPercentiles] = None
    wait: Optional[LatencyPercentiles] = None
    queue_depth: Optional[LatencyPercentiles] = None


@dataclass
class AdaptiveStats:
    """Counters for a service's workload-adaptive backend selection.

    Attached to :class:`ServiceStats` when a
    :class:`~repro.service.adaptive.AdaptivePolicy` is installed (``None``
    otherwise), so ``stats()`` / ``STATS`` / ``GET /stats`` carry the
    adaptive state without changing their shapes for non-adaptive services.

    Attributes:
        evaluations: Rebuilds on which the policy scored the shards.
        migrations: Shard backend migrations applied, cumulative.
        last_migrated: Shards whose backend changed on the most recent
            rebuild (empty when the last evaluation kept every shard).
        shard_backends: Backend name serving each shard, in shard order.
    """

    evaluations: int = 0
    migrations: int = 0
    last_migrated: List[int] = field(default_factory=list)
    shard_backends: List[str] = field(default_factory=list)


@dataclass
class ServiceStats:
    """A point-in-time snapshot of a :class:`~repro.service.server.MembershipService`.

    Attributes:
        generation: Generation number of the snapshot currently serving.
        num_keys: Positive keys in the serving snapshot.
        queries: Total keys tested (scalar and batch combined).
        batches: ``query_many``/``query_batch`` calls accepted.
        rejected_batches: ``query_many`` calls refused (oversized or empty).
        positives: Tests answered "present".
        rebuilds: Completed hot rebuilds (generation swaps after the first load).
        shards_rebuilt: Shards actually reconstructed across every build and
            rebuild (the first load counts all of its shards).
        shards_skipped: Shards an incremental rebuild left untouched because
            their key-set fingerprints matched the previous snapshot.
        shards: Per-shard counters, in shard order.
        latency: Percentiles over per-key query latency
            (``repro_query_seconds``: scalar calls are true per-key
            latencies; each batch contributes its per-key average once).
        rebuild_latency: Percentiles over build/rebuild wall-clock
            durations (``repro_rebuild_seconds``, one per completed swap).
        batching: Micro-batcher counters when the snapshot was taken through
            an async front-end's ``stats()``; ``None`` for a bare service.
        adaptive: Workload-adaptive selection counters when an
            :class:`~repro.service.adaptive.AdaptivePolicy` is installed;
            ``None`` otherwise.
        uptime_seconds: Seconds since this service instance was constructed.
        rss_bytes: Resident set size of the process at snapshot time, or
            ``None`` when the platform hides it (see
            :func:`repro.metrics.memory.process_rss_bytes`).
    """

    generation: int
    num_keys: int
    queries: int
    batches: int
    rejected_batches: int
    positives: int
    rebuilds: int
    shards_rebuilt: int = 0
    shards_skipped: int = 0
    shards: List[ShardStats] = field(default_factory=list)
    latency: Optional[LatencyPercentiles] = None
    rebuild_latency: Optional[LatencyPercentiles] = None
    batching: Optional[MicroBatchStats] = None
    adaptive: Optional[AdaptiveStats] = None
    uptime_seconds: float = 0.0
    rss_bytes: Optional[int] = None
