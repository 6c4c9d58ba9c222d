"""Layer counts read from the server's own ``STATS`` and ``METRICS`` endpoints."""

from __future__ import annotations

import json
import socket
from typing import Dict, Tuple

from repro.obs import parse_families

from loadgen import command
from served import NUM_SHARDS

Families = Dict[str, Tuple[str, Dict[str, float]]]


def scrape(sock: socket.socket) -> Tuple[dict, Families]:
    """One ``STATS`` and one ``METRICS`` round trip on an open line connection."""
    stats_line = command(sock, b"STATS\n")
    if not stats_line.startswith(b"S "):
        raise ValueError(f"STATS answered {stats_line[:80]!r}")
    text = command(sock, b"METRICS\n", multiline=True).decode()
    # Drop the "." terminator line before parsing the exposition.
    return json.loads(stats_line[2:]), parse_families(text[: -len(".\n")])


def _series(families: Families, family: str, suffix: str = "", label: str = ""):
    """Values of ``family`` samples named ``family + suffix`` that carry ``label``."""
    samples = families.get(family, ("", {}))[1]
    name = family + suffix
    return [
        value
        for series, value in samples.items()
        if series.partition("{")[0] == name and label in series
    ]


def _mean(families: Families, family: str, label: str = "") -> float:
    """Mean observation of a histogram family (0 when it has none)."""
    count = sum(_series(families, family, "_count", label))
    return sum(_series(families, family, "_sum", label)) / count if count else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_counts(lookups: Tuple[dict, Families], final: Tuple[dict, Families],
                 requests_sent: int) -> Dict[str, float]:
    """The scrape-sourced per-layer metrics.

    ``lookups`` is the scrape taken right after the lookup traffic, before
    the bulk accuracy probe and any idle rebuilds can dilute the lookup-side
    counts; ``final`` is the one at the end of the run, which the
    rebuild-side counts read.  ``requests_sent`` is every ``M`` request the
    load generator sent before the first scrape, the bypass share's
    denominator.  A layer the served stack does not have reads 0, except
    the replica skew, which is 1 for a single serving process.
    """
    stats, families = lookups
    final_stats, final_families = final
    batching = stats.get("batching") or {}
    window = batching.get("batch_size") or {}
    replica_windows = _series(families, "repro_replica_windows_total")
    hits = sum(_series(families, "repro_disk_cache_hits_total"))
    misses = sum(_series(families, "repro_disk_cache_misses_total"))
    return {
        "aserve.queue_wait_ms": _mean(families, "repro_stage_seconds", 'stage="queue_wait"') * 1e3,
        "aserve.window_keys_p50": float(window.get("p50", 0.0)),
        "aserve.bypass_share": _ratio(batching.get("bypassed_batches", 0), requests_sent),
        "multiproc.replica_skew": (
            _ratio(max(replica_windows), min(replica_windows)) if replica_windows else 1.0
        ),
        "diskstore.cold_read_ms": _mean(families, "repro_disk_cold_read_seconds") * 1e3,
        "diskstore.hit_ratio": _ratio(hits, hits + misses),
        "server.rebuild_s": _mean(final_families, "repro_rebuild_seconds"),
        "shards.dirty_per_rebuild": _ratio(
            final_stats["shards_rebuilt"] - NUM_SHARDS, final_stats["rebuilds"]
        ),
        "core.build_s": _mean(final_families, "repro_filter_build_seconds"),
        "diskstore.pages_per_commit": _ratio(
            sum(_series(final_families, "repro_disk_pages_written_total")),
            sum(_series(final_families, "repro_disk_commits_total")),
        ),
    }


def served_bits(stats: dict) -> int:
    """Filter bits the server holds: ``STATS`` shard ``size_in_bits``, summed."""
    return sum(int(shard["size_in_bits"]) for shard in stats["shards"])
