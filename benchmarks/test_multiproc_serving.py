"""Benchmark: replica-pool serving vs single-process dispatch, 64 clients.

Not a paper figure — this gates the multi-process serving tier.  The same
64 concurrent closed-loop scalar clients from the async-serving benchmark
drive one loaded filter store two ways, both through
:class:`~repro.service.aserve.AdaptiveMicroBatcher`:

* **single-process** — the batcher dispatches windows to a
  :class:`~repro.service.server.MembershipService` in-process, one window in
  flight at a time (the pre-multiproc serving shape);
* **replica pool** — the batcher dispatches to a
  :class:`~repro.service.multiproc.ReplicaPool` of ``NUM_REPLICAS`` worker
  processes, keeping ``NUM_REPLICAS`` windows in flight; every replica
  serves from the *same* shared-memory arena.

With ≥ ``NUM_REPLICAS`` cores the pool must win by ``REQUIRED_SPEEDUP``;
on smaller machines (this container has 1) the numbers are still recorded
honestly in ``BENCH_multiproc_serving.json`` but the throughput gate is
skipped — CI's multi-core runners enforce it.  The memory side of the
claim is asserted everywhere Linux is available: the arena mapping must
show ~zero private bytes per replica, i.e. R replicas pay for one copy of
the filter bytes.
"""

from __future__ import annotations

import asyncio
import json
import os
import time
from pathlib import Path

import pytest

np = pytest.importorskip("numpy")

from repro.metrics.benchmeta import bench_environment
from repro.service import MembershipService
from repro.service.aserve import AdaptiveMicroBatcher
from repro.service.multiproc import ReplicaPool, shared_mapping_memory
from repro.workloads.shalla import generate_shalla_like

NUM_CLIENTS = 64
KEYS_PER_CLIENT = 100
NUM_POSITIVES = 50_000
NUM_REPLICAS = 4
#: With one core per replica the pool must at least double single-process
#: closed-loop throughput (the measured margin on 4+ cores is larger; 2x
#: keeps the gate robust on shared CI runners).
REQUIRED_SPEEDUP = 2.0

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_multiproc_serving.json"

BATCHER_OPTS = {"max_batch": 256, "max_wait_ms": 2.0}


@pytest.fixture(scope="module")
def dataset():
    data = generate_shalla_like(
        num_positives=NUM_POSITIVES, num_negatives=NUM_POSITIVES, seed=31
    )
    half = NUM_CLIENTS * KEYS_PER_CLIENT // 2
    probe = data.negatives[:half] + data.positives[:half]
    assert len(probe) == NUM_CLIENTS * KEYS_PER_CLIENT
    return data, probe


async def _drive_clients(dispatch, probe):
    async def client(index):
        answers = []
        for key in probe[index * KEYS_PER_CLIENT : (index + 1) * KEYS_PER_CLIENT]:
            answers.append(await dispatch(key))
        return answers

    start = time.perf_counter()
    per_client = await asyncio.gather(*[client(i) for i in range(NUM_CLIENTS)])
    elapsed = time.perf_counter() - start
    answers = [answer for group in per_client for answer in group]
    return answers, elapsed


def _closed_loop_qps(engine, probe, rounds: int = 2):
    """Best-of-N closed-loop run through a fresh batcher; returns seconds."""

    async def scenario():
        async with AdaptiveMicroBatcher(engine, **BATCHER_OPTS) as front:
            return await _drive_clients(front.query, probe)

    best = float("inf")
    answers = None
    for _ in range(rounds):
        answers, elapsed = asyncio.run(scenario())
        best = min(best, elapsed)
    return answers, best


@pytest.fixture(scope="module")
def multiproc_report(dataset):
    data, probe = dataset
    negatives = data.negatives[: NUM_POSITIVES // 2]

    service = MembershipService(backend="bloom-dh", num_shards=4, bits_per_key=10.0)
    service.load(data.positives, negatives)
    expected = service.query_many(probe)
    single_answers, single_seconds = _closed_loop_qps(service, probe)
    assert single_answers == expected, "single-process verdicts diverged"

    report = {
        "benchmark": "multiproc_serving",
        **bench_environment(),
        "clients": NUM_CLIENTS,
        "keys_per_client": KEYS_PER_CLIENT,
        "backend": "bloom-dh",
        "replicas": NUM_REPLICAS,
        "single_process_qps": round(len(probe) / single_seconds),
    }

    with ReplicaPool(
        replicas=NUM_REPLICAS, backend="bloom-dh", num_shards=4, bits_per_key=10.0
    ) as pool:
        pool.load(data.positives, negatives)
        pool_answers, pool_seconds = _closed_loop_qps(pool, probe)
        assert pool_answers == expected, "replica-pool verdicts diverged"

        filter_bytes = pool.snapshot.store.size_in_bytes()
        arena = pool.arena
        report.update(
            {
                "replica_pool_qps": round(len(probe) / pool_seconds),
                "speedup": round(single_seconds / pool_seconds, 2),
                "filter_bytes": filter_bytes,
                "arena_frame_bytes": arena.frame_bytes,
            }
        )
        mappings = [
            shared_mapping_memory(pid, arena.name) for pid in pool.replica_pids
        ]
        if all(mapping is not None for mapping in mappings):
            report["arena_private_bytes_per_replica"] = [
                mapping["private"] for mapping in mappings
            ]
            report["arena_shared_bytes_per_replica"] = [
                mapping["shared"] for mapping in mappings
            ]

    RESULT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    return report


def test_replica_pool_speedup(multiproc_report):
    print(
        f"\nsingle={multiproc_report['single_process_qps']:,} q/s  "
        f"pool({NUM_REPLICAS})={multiproc_report['replica_pool_qps']:,} q/s  "
        f"speedup={multiproc_report['speedup']}x  "
        f"cpus={multiproc_report['cpu_count']}"
    )
    cpus = multiproc_report["cpu_count"] or 1
    if cpus < NUM_REPLICAS:
        pytest.skip(
            f"{cpus} CPUs cannot run {NUM_REPLICAS} replicas in parallel; "
            "numbers recorded, gate enforced on multi-core CI"
        )
    assert multiproc_report["speedup"] >= REQUIRED_SPEEDUP, (
        f"replica pool only {multiproc_report['speedup']}x over single-process "
        f"dispatch (required {REQUIRED_SPEEDUP}x at {NUM_REPLICAS} replicas)"
    )


def test_filter_bytes_are_shared(multiproc_report):
    """Per-replica private bytes in the arena mapping must be ~nothing.

    The kernel's smaps accounting is the direct statement of the design
    goal: every page a replica privately dirtied in the filter mapping is a
    page the shared-memory tier failed to share.  Allow one page per
    replica for noise; the filter payload itself must be orders beyond it.
    """
    private = multiproc_report.get("arena_private_bytes_per_replica")
    if private is None:
        pytest.skip("smaps accounting unavailable (not Linux)")
    page = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096
    assert multiproc_report["filter_bytes"] > 10 * page
    for replica_private in private:
        assert replica_private <= page, (
            f"replica privately holds {replica_private} bytes of the arena "
            "mapping; shard bytes are supposed to be shared"
        )


def test_report_written(multiproc_report):
    recorded = json.loads(RESULT_PATH.read_text())
    assert recorded["replicas"] == NUM_REPLICAS
    assert recorded["cpu_count"] == os.cpu_count()
    assert recorded["speedup"] == multiproc_report["speedup"]
