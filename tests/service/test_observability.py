"""Telemetry integration: stats-as-views parity and the /metrics endpoints.

Covers the glue the obs unit tests cannot: the service, batcher and pool
counters and distributions are live views over registry instruments
(``stats()`` and the exposition can never disagree), and ``GET /metrics``
and the ``METRICS`` line command serve a valid exposition covering
query/rebuild/batcher/shard families.
"""

from __future__ import annotations

import asyncio
import json
import random

import pytest

from repro.obs import FprEstimator, Registry, parse_families, render_text
from repro.service import (
    AdaptiveMicroBatcher,
    AsyncMembershipServer,
    MembershipService,
    ReplicaPool,
)

KEYS = [f"key-{i}" for i in range(400)]


@pytest.fixture()
def registry():
    return Registry()


@pytest.fixture()
def service(registry):
    service = MembershipService(
        backend="bloom", num_shards=2, bits_per_key=10.0, registry=registry
    )
    service.load(KEYS)
    return service


class TestStatsAreViews:
    def test_counters_match_instrument_values(self, service, registry):
        service.query(KEYS[0])
        service.query("missing-key")
        service.query_batch(KEYS[:100])
        with pytest.raises(Exception):
            service.query_batch([])
        stats = service.stats()
        label = service._obs_label
        counter = registry.get("repro_service_queries_total")
        assert stats.queries == 102 == int(counter.labels(label).value)
        assert stats.batches == 1
        assert stats.rejected_batches == 1
        assert (
            stats.positives
            == int(registry.get("repro_service_positives_total").labels(label).value)
        )

    def test_rebuild_counters_and_gauges(self, service, registry):
        service.rebuild(KEYS + ["extra-key"])
        stats = service.stats()
        label = service._obs_label
        assert stats.rebuilds == 1
        assert stats.generation == 2
        assert registry.get("repro_service_generation").labels(label).value == 2.0
        assert (
            registry.get("repro_service_keys").labels(label).value
            == len(KEYS) + 1
        )
        assert registry.get("repro_rebuild_seconds").labels(label).count == 2

    def test_query_latency_mirrors_into_histogram(self, service, registry):
        service.query_batch(KEYS[:50])
        label = service._obs_label
        histogram = registry.get("repro_query_seconds")
        assert histogram.labels(label).count == 1  # one per-key-average sample
        assert service.stats().latency.count == 1

    def test_uptime_and_rss_surface_in_stats(self, service):
        stats = service.stats()
        assert stats.uptime_seconds > 0.0
        # /proc is available on the platforms CI runs; tolerate None elsewhere.
        assert stats.rss_bytes is None or stats.rss_bytes > 0

    def test_two_services_share_families_but_not_children(self, registry):
        first = MembershipService(
            backend="bloom", num_shards=1, bits_per_key=8.0, registry=registry
        )
        second = MembershipService(
            backend="bloom", num_shards=1, bits_per_key=8.0, registry=registry
        )
        first.load(KEYS[:10])
        second.load(KEYS[:10])
        first.query(KEYS[0])
        assert first.stats().queries == 1
        assert second.stats().queries == 0

    def test_shard_collector_exports_live_views(self, service, registry):
        service.query_batch(KEYS[:100])
        families = parse_families(render_text(registry))
        samples = families["repro_shard_queries_total"][1]
        assert sum(samples.values()) == 100
        assert families["repro_shard_keys"][0] == "gauge"
        # A rebuild resets the per-shard counters (legal counter reset).
        service.rebuild(KEYS)
        samples = parse_families(render_text(registry))["repro_shard_queries_total"][1]
        assert sum(samples.values()) == 0


class TestFprWiring:
    def test_estimator_families_appear_after_traffic(self, registry):
        estimator = FprEstimator(sample_rate=1.0, rng=random.Random(3))
        service = MembershipService(
            backend="bloom",
            num_shards=2,
            bits_per_key=10.0,
            registry=registry,
            fpr_estimator=estimator,
        )
        service.load(KEYS)
        service.query_batch(KEYS[:50] + [f"neg-{i}" for i in range(50)])
        families = parse_families(render_text(registry))
        sampled = families["repro_shard_fpr_sampled_total"][1]
        assert sum(sampled.values()) >= 50  # every positive verdict sampled
        assert "repro_shard_observed_fpr" in families
        assert service.fpr_estimator is estimator


class TestNetworkExposition:
    def _serve(self, coroutine):
        return asyncio.run(coroutine)

    def test_http_metrics_serves_valid_exposition(self, service):
        async def scenario():
            async with AsyncMembershipServer(service, max_wait_ms=1.0) as server:
                host, port = await server.start_http()
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(b"GET /query?key=key-1 HTTP/1.1\r\n\r\n")
                await writer.drain()
                await reader.read()
                writer.close()
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(b"GET /metrics HTTP/1.1\r\n\r\n")
                await writer.drain()
                raw = await reader.read()
                writer.close()
                return raw

        raw = self._serve(scenario())
        head, _, body = raw.partition(b"\r\n\r\n")
        assert b"200 OK" in head
        assert b"Content-Type: text/plain; version=0.0.4; charset=utf-8" in head
        families = parse_families(body.decode("utf-8"))
        # The catalogue covers every subsystem: service counters, query and
        # rebuild latencies, batcher counters, per-shard views, stage traces.
        for name in (
            "repro_service_queries_total",
            "repro_query_seconds",
            "repro_rebuild_seconds",
            "repro_batch_flushes_total",
            "repro_batch_size",
            "repro_shard_queries_total",
            "repro_stage_seconds",
        ):
            assert name in families, name
        label = service._obs_label
        series = families["repro_service_queries_total"][1]
        assert series[f'repro_service_queries_total{{service="{label}"}}'] >= 1

    def test_metrics_line_command_is_dot_terminated(self, service):
        async def scenario():
            async with AsyncMembershipServer(service, max_wait_ms=1.0) as server:
                host, port = await server.start_tcp()
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(b"Q key-1\nMETRICS\nPING\n")
                await writer.drain()
                assert (await reader.readline()).startswith(b"V ")
                lines = []
                while True:
                    line = (await reader.readline()).decode().rstrip("\n")
                    if line == ".":
                        break
                    lines.append(line)
                pong = await reader.readline()
                writer.close()
                return lines, pong

        lines, pong = self._serve(scenario())
        assert pong == b"PONG\n"
        families = parse_families("\n".join(lines))
        assert "repro_service_queries_total" in families
        assert "repro_batch_flushes_total" in families

    def test_stats_json_includes_uptime_and_rss(self, service):
        async def scenario():
            async with AsyncMembershipServer(service, max_wait_ms=1.0) as server:
                host, port = await server.start_http()
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(b"GET /stats HTTP/1.1\r\n\r\n")
                await writer.drain()
                raw = await reader.read()
                writer.close()
                return raw

        raw = self._serve(scenario())
        payload = json.loads(raw.partition(b"\r\n\r\n")[2])
        assert payload["uptime_seconds"] > 0.0
        assert "rss_bytes" in payload

    def test_batcher_stats_still_read_through_instruments(self, service):
        async def scenario():
            async with AsyncMembershipServer(service, max_wait_ms=1.0) as server:
                front = server.batcher
                answers = await asyncio.gather(
                    *[front.query(key) for key in KEYS[:32]]
                )
                assert all(answers)
                return front.batching_stats()

        stats = self._serve(scenario())
        assert stats.coalesced_keys == 32
        assert stats.flushes == stats.full_flushes + stats.timer_flushes
        assert stats.flushes >= 1


def _exported(registry, family, label):
    """``(count, sum)`` of the one child of histogram ``family`` whose label
    value starts with ``label``, as ``GET /metrics`` renders it."""
    series = parse_families(render_text(registry))[family][1]

    def value(suffix):
        values = [
            number
            for name, number in series.items()
            if name.startswith(f"{family}_{suffix}{{") and f'="{label}' in name
        ]
        assert len(values) == 1, (family, suffix, sorted(series))
        return values[0]

    return value("count"), value("sum")


def _assert_agrees(field, exported):
    count, total = exported
    assert field is not None
    assert field.count == count
    assert field.mean * field.count == pytest.approx(total, rel=1e-9, abs=1e-12)


class TestStatsMatchMetrics:
    """Every distribution ``stats()`` reports is the exported histogram's.

    Each stays under ``RECENT_SAMPLES`` observations, so the exact window
    and the exported count and sum cover the same observations.
    """

    def test_service_and_batcher_distributions(self, service, registry):
        for key in KEYS[:20] + ["missing-1", "missing-2"]:
            service.query(key)
        for start in range(0, 300, 100):
            service.query_batch(KEYS[start : start + 100])
        service.rebuild(KEYS + ["extra-1"])
        service.rebuild(KEYS + ["extra-1", "extra-2"])

        async def burst():
            async with AdaptiveMicroBatcher(
                service, max_batch=64, max_wait_ms=5.0
            ) as front:
                answers = await asyncio.gather(*[front.query(key) for key in KEYS[:32]])
                assert all(answers)
                return front.stats()

        stats = asyncio.run(burst())
        batching = stats.batching
        for field, family, label in (
            (stats.latency, "repro_query_seconds", "svc-"),
            (stats.rebuild_latency, "repro_rebuild_seconds", "svc-"),
            (batching.batch_size, "repro_batch_size", "mb-"),
            (batching.wait, "repro_batch_window_seconds", "mb-"),
            (batching.queue_depth, "repro_batch_queue_depth", "mb-"),
        ):
            _assert_agrees(field, _exported(registry, family, label))

    def test_pool_latency_is_its_exported_child(self, registry):
        with ReplicaPool(
            replicas=2,
            backend="bloom-dh",
            num_shards=2,
            bits_per_key=10.0,
            registry=registry,
        ) as pool:
            pool.load(KEYS)
            for start in range(0, 400, 50):
                pool.query_batch(KEYS[start : start + 50])
            pool.query(KEYS[0])
            latency = pool.stats().latency
            assert latency.count == 9
        _assert_agrees(latency, _exported(registry, "repro_query_seconds", "pool-"))
