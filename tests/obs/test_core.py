"""Unit tests for the metrics core: instruments, registries, null registry."""

from __future__ import annotations

import threading

import pytest

from repro.errors import ConfigurationError
from repro.obs import (
    DEFAULT_SIZE_BUCKETS,
    RECENT_SAMPLES,
    NullRegistry,
    Registry,
    null_registry,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = Registry().counter("t_total", "help")
        assert counter.value == 0.0
        counter.inc()
        counter.inc(4)
        assert counter.value == 5.0

    def test_rejects_negative_increments(self):
        counter = Registry().counter("t_total", "help")
        with pytest.raises(ConfigurationError):
            counter.inc(-1)

    def test_labelled_children_are_independent(self):
        counter = Registry().counter("t_total", "help", ("shard",))
        counter.labels("0").inc(2)
        counter.labels("1").inc(5)
        assert counter.labels("0").value == 2.0
        assert counter.labels("1").value == 5.0
        assert counter.labels(shard="0") is counter.labels("0")

    def test_concurrent_increments_do_not_lose_updates(self):
        counter = Registry().counter("t_total", "help")

        def worker():
            for _ in range(10_000):
                counter.inc()

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == 40_000.0

    def test_label_arity_is_checked(self):
        counter = Registry().counter("t_total", "help", ("a", "b"))
        with pytest.raises(ConfigurationError):
            counter.labels("only-one")
        with pytest.raises(ConfigurationError):
            counter.labels("x", "y", "z")
        with pytest.raises(ConfigurationError):
            counter.labels("x", b="y")  # mixing positional and keyword
        with pytest.raises(ConfigurationError):
            counter.labels(a="x", wrong="y")


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Registry().gauge("t", "help")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(3)
        assert gauge.value == 12.0

    def test_function_backed_value_is_read_at_access(self):
        gauge = Registry().gauge("t", "help")
        box = {"v": 1.0}
        gauge.set_function(lambda: box["v"])
        assert gauge.value == 1.0
        box["v"] = 7.5
        assert gauge.value == 7.5

    def test_broken_callback_reads_zero_instead_of_raising(self):
        gauge = Registry().gauge("t", "help")
        gauge.set_function(lambda: 1 / 0)
        assert gauge.value == 0.0


class TestHistogram:
    def test_observe_updates_sum_count_and_buckets(self):
        histogram = Registry().histogram(
            "t_seconds", "help", buckets=(1.0, 10.0, 100.0)
        )
        for value in (0.5, 5.0, 50.0, 500.0):
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.sum == pytest.approx(555.5)
        bounds, counts, total, count = histogram.labels().snapshot()
        assert bounds == (1.0, 10.0, 100.0)
        assert counts == [1, 1, 1, 1]  # one per bucket including +Inf

    def test_approx_quantile_tracks_the_distribution(self):
        histogram = Registry().histogram("t", "help", buckets=DEFAULT_SIZE_BUCKETS)
        for _ in range(99):
            histogram.observe(3.0)
        histogram.observe(900.0)
        p50 = histogram.approx_quantile(0.5)
        assert 2.0 <= p50 <= 4.0
        assert histogram.approx_quantile(0.995) > 500.0

    def test_buckets_must_increase(self):
        registry = Registry()
        with pytest.raises(ConfigurationError):
            registry.histogram("t", "help", buckets=(5.0, 1.0))
        with pytest.raises(ConfigurationError):
            registry.histogram("t2", "help", buckets=())


class TestRecentWindowRace:
    """Exact percentiles come from a window copied under the observe lock."""

    def test_concurrent_observe_and_percentiles_stay_consistent(self):
        child = Registry().histogram("t", "help", ("x",)).labels("a")
        stop = threading.Event()
        failures = []

        def writer():
            i = 0
            while not stop.is_set():
                child.observe(float(100 + i % 900))
                i += 1

        def reader():
            while not stop.is_set():
                summary = child.percentiles()
                if summary is None:
                    continue
                if summary.count > RECENT_SAMPLES:
                    failures.append(f"window overran its size: {summary.count}")
                values = (summary.p50, summary.p95, summary.p99, summary.mean)
                if not all(100.0 <= value <= 999.0 for value in values):
                    failures.append(f"a value no writer wrote: {summary}")

        threads = [threading.Thread(target=writer) for _ in range(2)] + [
            threading.Thread(target=reader) for _ in range(2)
        ]
        for thread in threads:
            thread.start()
        stop.wait(timeout=0.5)
        stop.set()
        for thread in threads:
            thread.join()
        assert not failures, failures[:3]
        assert child.percentiles().count == min(child.count, RECENT_SAMPLES)

    def test_window_keeps_the_last_samples_and_count_keeps_all(self):
        histogram = Registry().histogram("t", "help")
        assert histogram.percentiles() is None
        total = RECENT_SAMPLES + 3
        for i in range(total):
            histogram.observe(float(i))
        summary = histogram.percentiles()
        assert summary.count == RECENT_SAMPLES
        assert histogram.count == total
        # The three oldest observations (0, 1, 2) left the window.
        assert summary.mean == pytest.approx((3 + total - 1) / 2)


class TestRegistry:
    def test_get_or_create_returns_same_family(self):
        registry = Registry()
        first = registry.counter("x_total", "help", ("service",))
        second = registry.counter("x_total", "other help", ("service",))
        assert first is second

    def test_kind_conflict_is_rejected(self):
        registry = Registry()
        registry.counter("x_total", "help")
        with pytest.raises(ConfigurationError):
            registry.gauge("x_total", "help")

    def test_labelname_conflict_is_rejected(self):
        registry = Registry()
        registry.counter("x_total", "help", ("a",))
        with pytest.raises(ConfigurationError):
            registry.counter("x_total", "help", ("b",))

    def test_invalid_names_are_rejected(self):
        registry = Registry()
        with pytest.raises(ConfigurationError):
            registry.counter("0bad", "help")
        with pytest.raises(ConfigurationError):
            registry.counter("ok_total", "help", ("bad-label",))
        with pytest.raises(ConfigurationError):
            registry.counter("ok_total", "help", ("dup", "dup"))

    def test_collect_lists_every_family(self):
        registry = Registry()
        registry.counter("a_total", "help").inc()
        registry.gauge("b", "help").set(2)
        names = {family.name for family in registry.collect()}
        assert names == {"a_total", "b"}

    def test_weak_collector_drops_with_its_owner(self):
        registry = Registry()

        class Owner:
            def families(self):
                return []

        owner = Owner()
        registry.add_collector(owner.families)
        assert registry.collect() == []  # resolves while alive
        del owner
        import gc

        gc.collect()
        assert registry.collect() == []  # dead ref pruned, no crash


class TestNullRegistry:
    def test_everything_is_a_cheap_noop(self):
        registry = NullRegistry()
        counter = registry.counter("a_total", "help", ("x",))
        counter.labels("v").inc(5)
        assert counter.value == 0.0
        gauge = registry.gauge("b", "help")
        gauge.set(3)
        gauge.set_function(lambda: 9)
        assert gauge.value == 0.0
        histogram = registry.histogram("c", "help")
        histogram.observe(1.0)
        assert histogram.count == 0
        assert histogram.percentiles() is None
        assert registry.collect() == []

    def test_shared_instance(self):
        assert null_registry() is null_registry()
