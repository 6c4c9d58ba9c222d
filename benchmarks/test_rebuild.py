"""Micro-benchmark: parallel shard builds and incremental rebuilds.

Two gates guard the rebuild pipeline introduced with the sharded store's
``workers=N`` builds and the service's fingerprint-diffed rebuilds:

* **parallel**: building the shards of one store on a process pool must be
  at least 2x faster than the sequential build of the same store (the gate
  is skipped below 4 cores, where the 2x floor is unreachable — 2 cores cap
  the ideal speedup at exactly 2.0x; the JSON still records the
  measurement, and CI's 4-vCPU runners enforce the gate);
* **incremental**: a rebuild that dirties exactly one shard must be at
  least 4x faster than a full (``incremental=False``) rebuild — the whole
  point of per-shard fingerprints is that rebuild latency tracks the size
  of the *change*, not the size of the key set.

Results land in ``BENCH_rebuild.json`` at the repo root (uploaded by the
matrixed CI bench job) so successive PRs can track the trajectory.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.metrics.benchmeta import bench_environment
from repro.metrics.timing import Stopwatch
from repro.service import codec
from repro.service.server import MembershipService
from repro.service.shards import ShardRouter, ShardedFilterStore
from repro.workloads.shalla import generate_shalla_like

NUM_KEYS = 40_000
NUM_NEGATIVES = 10_000
NUM_SHARDS = 16
BACKEND = "habf"
BITS_PER_KEY = 10.0
PARALLEL_WORKERS = min(os.cpu_count() or 1, 8)
#: Process-pool builds must beat the sequential build by this factor.
REQUIRED_PARALLEL_SPEEDUP = 2.0
#: A 1-dirty-shard rebuild must beat a full rebuild by this factor
#: (measured ~6-7x at 16 shards; 4x keeps the gate robust on noisy CI).
REQUIRED_INCREMENTAL_SPEEDUP = 4.0

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_rebuild.json"


@pytest.fixture(scope="module")
def dataset():
    return generate_shalla_like(
        num_positives=NUM_KEYS, num_negatives=NUM_NEGATIVES, seed=83
    )


def _best_of(action, rounds: int = 2) -> float:
    best = float("inf")
    for _ in range(rounds):
        with Stopwatch() as watch:
            action()
        best = min(best, watch.seconds)
    return best


def _key_for_shard(router: ShardRouter, shard: int, tag: str) -> str:
    for attempt in range(1_000_000):
        key = f"{tag}-{attempt}"
        if router.shard_of(key) == shard:
            return key
    raise AssertionError("no key found for shard")  # pragma: no cover


@pytest.fixture(scope="module")
def rebuild_report(dataset):
    build_kwargs = dict(
        negatives=dataset.negatives,
        num_shards=NUM_SHARDS,
        backend=BACKEND,
        bits_per_key=BITS_PER_KEY,
    )

    # -- parallel: same store, sequential vs process-pool construction ---- #
    stores = {}

    def sequential():
        stores["sequential"] = ShardedFilterStore.build(dataset.positives, **build_kwargs)

    def parallel():
        stores["parallel"] = ShardedFilterStore.build(
            dataset.positives,
            workers=PARALLEL_WORKERS,
            **build_kwargs,
        )

    sequential_seconds = _best_of(sequential)
    parallel_seconds = _best_of(parallel)
    # The speedup must not come from building something different: process
    # workers hand shards back as codec frames, and the assembled store must
    # serialize byte-for-byte like the sequential build.
    assert codec.dumps(stores["parallel"]) == codec.dumps(stores["sequential"])

    # -- incremental: full rebuild vs one dirty shard --------------------- #
    service = MembershipService(
        backend=BACKEND, num_shards=NUM_SHARDS, bits_per_key=BITS_PER_KEY
    )
    service.load(dataset.positives, dataset.negatives)
    full_seconds = _best_of(
        lambda: service.rebuild(
            dataset.positives, dataset.negatives, incremental=False
        )
    )
    router = ShardRouter(NUM_SHARDS, seed=0)
    before = service.stats()
    incremental_seconds = float("inf")
    for round_number in range(3):
        # Each round adds a fresh key routed to shard 0 (and drops the
        # previous round's), so exactly one shard is dirty every time.
        fresh = _key_for_shard(router, 0, f"dirty-{round_number}")
        with Stopwatch() as watch:
            service.rebuild(dataset.positives + [fresh], dataset.negatives)
        incremental_seconds = min(incremental_seconds, watch.seconds)
    after = service.stats()
    assert after.shards_rebuilt - before.shards_rebuilt == 3
    assert after.shards_skipped - before.shards_skipped == 3 * (NUM_SHARDS - 1)

    report = {
        "benchmark": "rebuild",
        **bench_environment(),
        "cpu_count": os.cpu_count(),
        "num_keys": NUM_KEYS,
        "num_shards": NUM_SHARDS,
        "backend": BACKEND,
        "parallel": {
            "workers": PARALLEL_WORKERS,
            "sequential_seconds": round(sequential_seconds, 4),
            "parallel_seconds": round(parallel_seconds, 4),
            "speedup": round(sequential_seconds / parallel_seconds, 2),
            "gated": PARALLEL_WORKERS >= 2,
        },
        "incremental": {
            "full_rebuild_seconds": round(full_seconds, 4),
            "one_dirty_shard_seconds": round(incremental_seconds, 4),
            "speedup": round(full_seconds / incremental_seconds, 2),
            "shards_rebuilt_per_round": 1,
            "shards_skipped_per_round": NUM_SHARDS - 1,
        },
    }
    RESULT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    return report


def test_parallel_build_speedup(rebuild_report):
    entry = rebuild_report["parallel"]
    print(
        f"\nparallel build: sequential={entry['sequential_seconds']}s  "
        f"workers={entry['workers']}: {entry['parallel_seconds']}s  "
        f"speedup={entry['speedup']}x"
    )
    if (os.cpu_count() or 1) < 4:
        # Below 4 cores the 2x floor is unreachable or has no headroom over
        # pool overhead (2 cores cap the ideal speedup at exactly 2.0x).
        # CI's 4-vCPU runners enforce the gate; the measurement above is
        # still recorded in BENCH_rebuild.json either way.
        pytest.skip(
            f"{os.cpu_count() or 1} cores: the {REQUIRED_PARALLEL_SPEEDUP}x "
            "parallel gate needs >= 4 (enforced on CI)"
        )
    assert entry["speedup"] >= REQUIRED_PARALLEL_SPEEDUP, (
        f"parallel shard build only {entry['speedup']}x over sequential "
        f"(required {REQUIRED_PARALLEL_SPEEDUP}x with {entry['workers']} workers)"
    )


def test_incremental_rebuild_speedup(rebuild_report):
    entry = rebuild_report["incremental"]
    print(
        f"\nincremental rebuild: full={entry['full_rebuild_seconds']}s  "
        f"one-dirty-shard={entry['one_dirty_shard_seconds']}s  "
        f"speedup={entry['speedup']}x"
    )
    assert entry["speedup"] >= REQUIRED_INCREMENTAL_SPEEDUP, (
        f"1-dirty-shard rebuild only {entry['speedup']}x over a full rebuild "
        f"(required {REQUIRED_INCREMENTAL_SPEEDUP}x)"
    )


def test_report_written(rebuild_report):
    recorded = json.loads(RESULT_PATH.read_text())
    assert recorded["benchmark"] == "rebuild"
    assert recorded["num_shards"] == NUM_SHARDS
    assert recorded["incremental"]["speedup"] >= REQUIRED_INCREMENTAL_SPEEDUP
