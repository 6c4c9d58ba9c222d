"""Tests for workload-adaptive backend selection.

Three layers, mirroring the subsystem itself:

* :class:`BackendScorer` / :class:`AdaptivePolicy` unit tests drive the
  scoring and migration decision from hand-built :class:`ShardStats` /
  :class:`ShardFprEstimate` values — no filters are built, so every branch
  (no evidence, hysteresis, keep-assignment, foreign incumbents) is exact.
* Service integration tests run a real :class:`MembershipService` with an
  estimator at ``sample_rate=1.0``; false-positive evidence is injected
  through the estimator's own observation path (deterministic — it does not
  depend on which keys a particular filter happens to leak), and the
  migration must ride the rebuild's atomic generation swap.
* Migration-consistency tests assert the serving contract *during* a
  migrating rebuild under concurrent traffic: no false negatives, monotone
  generations — and the replica-pool variant additionally survives a
  SIGKILLed replica before the roll.
"""

from __future__ import annotations

import os
import random
import signal
import threading
import time

import pytest

from repro.errors import ConfigurationError, ServiceError
from repro.obs import FprEstimator, Registry, ShardFprEstimate
from repro.obs.export import render_text
from repro.service import MembershipService
from repro.service.adaptive import (
    AdaptivePolicy,
    BackendCandidate,
    BackendScorer,
    analytic_bits_per_key,
    analytic_fpr,
)
from repro.service.multiproc import ReplicaPool
from repro.service.stats import ShardStats

CANDIDATES = [
    BackendCandidate("bloom", {"bits_per_key": 10.0}),
    BackendCandidate("xor", {"bits_per_key": 10.0}),
    BackendCandidate("habf", {"bits_per_key": 10.0}),
]

KEYS = [f"member-{i:05d}" for i in range(2400)]
NEGATIVES = [f"flood-{i:05d}" for i in range(1200)]
COSTS = {key: 30.0 for key in NEGATIVES}


def _stats(backend="xor", queries=20000, positives=2000, num_keys=1000):
    return ShardStats(
        shard=0,
        num_keys=num_keys,
        queries=queries,
        positives=positives,
        size_in_bits=10 * num_keys,
        backend=backend,
    )


def _estimate(
    shard=0,
    sampled=500,
    false_positives=60,
    known=55,
    observed_fpr=0.012,
    cost_weighted_fpr=0.08,
    known_cost_fraction=0.95,
    queries=20000,
    positives=2000,
):
    return ShardFprEstimate(
        shard=shard,
        sampled=sampled,
        false_positives=false_positives,
        fp_fraction=false_positives / sampled if sampled else 0.0,
        observed_fpr=observed_fpr,
        cost_weighted_fpr=cost_weighted_fpr,
        queries=queries,
        positives=positives,
        known_false_positives=known,
        known_fp_fraction=known / false_positives if false_positives else 0.0,
        known_fp_cost_fraction=known_cost_fraction,
    )


# --------------------------------------------------------------------- #
# Analytic models
# --------------------------------------------------------------------- #
class TestAnalyticModels:
    def test_xor_beats_bloom_shaped_backends_on_model_fpr(self):
        assert analytic_fpr("xor", 10.0, 1000) < analytic_fpr("bloom", 10.0, 1000)
        # HABF's *model* FPR is the Bloom bound: its advantage is modelled
        # by the suppression priors, not by a lower base rate.
        assert analytic_fpr("habf", 10.0, 1000) == analytic_fpr("bloom", 10.0, 1000)

    def test_xor_memory_model_follows_its_capacity_formula(self):
        from repro.baselines.xor_filter import fingerprint_bits_for_budget

        bits = fingerprint_bits_for_budget(10.0, 10_000)
        # The peeling construction over-allocates ~23% slots over the
        # fingerprint width it actually selects.
        assert analytic_bits_per_key("xor", 10.0, 10_000) > bits
        assert analytic_bits_per_key("bloom", 10.0, 10_000) == 10.0

    def test_empty_shard_has_no_model_fpr(self):
        assert analytic_fpr("bloom", 10.0, 0) == 0.0


# --------------------------------------------------------------------- #
# BackendScorer
# --------------------------------------------------------------------- #
class TestBackendScorer:
    def test_analytic_only_prefers_xor(self):
        scorer = BackendScorer(min_sampled=100)
        scores = scorer.score_shard(_stats(backend="bloom"), None, CANDIDATES)
        assert scores["xor"] > scores["bloom"]
        assert scores["xor"] > scores["habf"]

    def test_known_dominated_live_errors_prefer_negative_aware_backend(self):
        scorer = BackendScorer(min_sampled=100)
        hot = _estimate()  # errors concentrated on known, costly negatives
        scores = scorer.score_shard(_stats(backend="xor"), hot, CANDIDATES)
        assert scores["habf"] > scores["xor"]
        assert scores["habf"] > scores["bloom"]

    def test_unseen_dominated_live_errors_do_not_prefer_habf(self):
        scorer = BackendScorer(min_sampled=100)
        cold = _estimate(
            known=0,
            known_cost_fraction=0.0,
            observed_fpr=0.004,
            cost_weighted_fpr=0.004,
        )
        scores = scorer.score_shard(_stats(backend="xor"), cold, CANDIDATES)
        # Without known error mass there is nothing to suppress: HABF is
        # just a Bloom-shaped challenger against a healthy incumbent.
        assert scores["habf"] <= scores["xor"]

    def test_suppression_priors_are_overridable(self):
        # A mildly-leaking incumbent whose error mass is known: only the
        # suppression prior can put HABF's effective rate below it.
        mild = _estimate(observed_fpr=0.004, cost_weighted_fpr=0.004)
        stats = _stats(backend="xor")
        assert BackendScorer(min_sampled=100).score_shard(
            stats, mild, CANDIDATES
        )["habf"] > BackendScorer(min_sampled=100).score_shard(
            stats, mild, CANDIDATES
        )["xor"]
        humble = BackendScorer(min_sampled=100, suppression={"habf": 0.0})
        scores = humble.score_shard(stats, mild, CANDIDATES)
        assert scores["habf"] <= scores["xor"]

    def test_live_ok_requires_samples_and_signal(self):
        scorer = BackendScorer(min_sampled=100)
        assert not scorer.live_ok(None)
        assert not scorer.live_ok(_estimate(sampled=99))
        assert not scorer.live_ok(_estimate(observed_fpr=None))
        assert scorer.live_ok(_estimate(sampled=100))

    def test_configuration_validation(self):
        with pytest.raises(ConfigurationError, match="unknown scoring layers"):
            BackendScorer(weights={"accuracy": 1.0})
        with pytest.raises(ConfigurationError, match="not all zero"):
            BackendScorer(weights={"fpr": 0.0, "cost": 0.0, "memory": 0.0})
        with pytest.raises(ConfigurationError, match="min_sampled"):
            BackendScorer(min_sampled=0)

    def test_empty_candidates_score_empty(self):
        assert BackendScorer().score_shard(_stats(), None, []) == {}


# --------------------------------------------------------------------- #
# AdaptivePolicy.plan()
# --------------------------------------------------------------------- #
class TestAdaptivePolicy:
    def test_configuration_validation(self):
        with pytest.raises(ConfigurationError, match="at least one candidate"):
            AdaptivePolicy([])
        with pytest.raises(ConfigurationError, match="duplicate"):
            AdaptivePolicy([BackendCandidate("xor"), BackendCandidate("xor")])
        with pytest.raises(ConfigurationError, match="hysteresis"):
            AdaptivePolicy([BackendCandidate("xor")], hysteresis=-0.1)

    def test_no_live_evidence_never_migrates(self):
        policy = AdaptivePolicy(CANDIDATES, scorer=BackendScorer(min_sampled=100))
        plan = policy.plan([_stats(backend="xor")], [None])
        assert plan.migrations == []
        # The incumbent is a candidate, so the plan still pins it.
        assert plan.assignments[0][0] == "xor"
        assert plan.scores[0].winner == "xor"
        assert not plan.scores[0].live

    def test_hot_known_cost_evidence_migrates_to_habf(self):
        policy = AdaptivePolicy(CANDIDATES, scorer=BackendScorer(min_sampled=100))
        plan = policy.plan([_stats(backend="xor")], [_estimate()])
        assert plan.migrations == [0]
        name, kwargs = plan.assignments[0]
        assert name == "habf"
        assert kwargs == {"bits_per_key": 10.0}
        assert plan.scores[0].live
        assert plan.scores[0].margin > 0

    def test_hysteresis_blocks_marginal_challengers(self):
        # Composite scores live in [0, 1], so a margin gate of 2.0 can
        # never be met: the same hot evidence must now keep the incumbent.
        policy = AdaptivePolicy(
            CANDIDATES, scorer=BackendScorer(min_sampled=100), hysteresis=2.0
        )
        plan = policy.plan([_stats(backend="xor")], [_estimate()])
        assert plan.migrations == []
        assert plan.assignments[0][0] == "xor"
        assert plan.scores[0].winner == "xor"
        assert plan.scores[0].margin == 0.0

    def test_keep_assignment_prevents_reverting_migrated_shards(self):
        policy = AdaptivePolicy(CANDIDATES, scorer=BackendScorer(min_sampled=100))
        # A shard already serving on habf, with its evidence freshly reset
        # (the post-migration state): no live signal, no migration — but the
        # plan must keep pinning habf or the rebuild would silently revert
        # the shard to the call-level backend.
        plan = policy.plan([_stats(backend="habf")], [None])
        assert plan.migrations == []
        assert plan.assignments[0][0] == "habf"

    def test_foreign_incumbent_is_scored_but_never_pinned(self):
        policy = AdaptivePolicy(CANDIDATES, scorer=BackendScorer(min_sampled=100))
        plan = policy.plan([_stats(backend="wbf")], [None])
        assert plan.migrations == []
        assert plan.assignments == {}
        assert "wbf" in plan.scores[0].scores

    def test_shard_without_traffic_never_migrates(self):
        policy = AdaptivePolicy(CANDIDATES, scorer=BackendScorer(min_sampled=100))
        idle = _stats(backend="xor", queries=0, positives=0)
        plan = policy.plan([idle], [_estimate()])
        assert plan.migrations == []


# --------------------------------------------------------------------- #
# Service integration
# --------------------------------------------------------------------- #
def _adaptive_service(min_sampled=40, num_shards=4, **kwargs):
    estimator = FprEstimator(sample_rate=1.0, rng=random.Random(7))
    policy = AdaptivePolicy(CANDIDATES, scorer=BackendScorer(min_sampled=min_sampled))
    service = MembershipService(
        backend="xor",
        num_shards=num_shards,
        bits_per_key=10.0,
        fpr_estimator=estimator,
        adaptive_policy=policy,
        **kwargs,
    )
    return service, estimator


def _inject_false_positives(service, estimator, shards, per_shard=80):
    """Deterministically accuse ``shards`` of leaking known negatives.

    Feeding the estimator's own observation path (rather than hoping the
    filter leaks specific keys) keeps the test independent of any backend's
    actual false-positive pattern; the oracle rejects the flood keys, the
    known-negative set claims them, and the costs make them expensive.
    """
    store = service.snapshot.store
    wanted = set(shards)
    injected = {shard: 0 for shard in wanted}
    for key in NEGATIVES:
        shard = store.shard_of(key)
        if shard in wanted and injected[shard] < per_shard:
            estimator.observe(key, True, shard)
            injected[shard] += 1
    assert all(count == per_shard for count in injected.values())


class TestServiceIntegration:
    def test_migration_rides_the_rebuild_and_resets_evidence(self):
        service, estimator = _adaptive_service(registry=Registry())
        service.load(KEYS, negatives=NEGATIVES, costs=COSTS)
        # Real positive traffic supplies the per-shard counters and the
        # sampled positive verdicts the live gate requires.
        for start in range(0, len(KEYS), 256):
            service.query_many(KEYS[start : start + 256])
        _inject_false_positives(service, estimator, shards={0, 1})

        generation = service.rebuild(KEYS, negatives=NEGATIVES, costs=COSTS)

        assert generation == 2
        stats = service.stats()
        assert stats.adaptive is not None
        assert stats.adaptive.last_migrated == [0, 1]
        assert stats.adaptive.migrations == 2
        assert stats.adaptive.evaluations == 1
        assert stats.adaptive.shard_backends == ["habf", "habf", "xor", "xor"]
        assert service.snapshot.store.backend_name == "mixed"
        # Evidence for migrated shards resets (it described the old
        # backend); un-migrated shards keep their tallies.  Checked before
        # any further traffic re-accumulates samples.
        assert estimator.shard_estimate(0, 0, 0).sampled == 0
        assert estimator.shard_estimate(1, 0, 0).sampled == 0
        assert estimator.shard_estimate(2, 0, 0).sampled > 0
        # Migrating must never cost a positive: the new generation still
        # contains every member key.
        assert all(service.query_many(KEYS))
        # The migrated shards' filters were rebuilt with the flood keys as
        # negatives; HABF suppresses known negatives near-perfectly.
        flood_hits = sum(
            service.query(key)
            for key in NEGATIVES
            if service.snapshot.store.shard_of(key) in (0, 1)
        )
        assert flood_hits <= len(NEGATIVES) * 0.05

    def test_migrated_shards_stick_and_stay_clean_on_quiet_rebuilds(self):
        service, estimator = _adaptive_service(registry=Registry())
        service.load(KEYS, negatives=NEGATIVES, costs=COSTS)
        for start in range(0, len(KEYS), 256):
            service.query_many(KEYS[start : start + 256])
        _inject_false_positives(service, estimator, shards={0})
        service.rebuild(KEYS, negatives=NEGATIVES, costs=COSTS)
        assert service.stats().adaptive.last_migrated == [0]

        before = service.stats()
        service.rebuild(KEYS, negatives=NEGATIVES, costs=COSTS)
        after = service.stats()
        # Fresh evidence has not accrued, so nothing migrates — and the
        # keep-assignment means the migrated shard neither reverts nor
        # counts dirty: the whole rebuild is a no-op skip.
        assert after.adaptive.last_migrated == []
        assert after.adaptive.shard_backends == before.adaptive.shard_backends
        assert after.shards_rebuilt == before.shards_rebuilt
        assert after.shards_skipped == before.shards_skipped + 4
        assert all(service.query_many(KEYS))

    def test_without_estimator_the_policy_never_migrates(self):
        policy = AdaptivePolicy(CANDIDATES, scorer=BackendScorer(min_sampled=1))
        service = MembershipService(
            backend="xor",
            num_shards=4,
            bits_per_key=10.0,
            adaptive_policy=policy,
            registry=Registry(),
        )
        service.load(KEYS, negatives=NEGATIVES, costs=COSTS)
        service.query_many(KEYS[:512])
        service.rebuild(KEYS, negatives=NEGATIVES, costs=COSTS)
        stats = service.stats()
        assert stats.adaptive.evaluations == 1
        assert stats.adaptive.migrations == 0
        assert set(stats.adaptive.shard_backends) == {"xor"}

    def test_adaptive_metrics_are_exposed(self):
        registry = Registry()
        service, estimator = _adaptive_service(registry=registry)
        service.load(KEYS, negatives=NEGATIVES, costs=COSTS)
        for start in range(0, len(KEYS), 256):
            service.query_many(KEYS[start : start + 256])
        _inject_false_positives(service, estimator, shards={0})
        service.rebuild(KEYS, negatives=NEGATIVES, costs=COSTS)
        text = render_text(registry)
        assert "repro_adaptive_evaluations_total" in text
        assert "repro_adaptive_migrations_total" in text
        assert 'repro_adaptive_shard_backend{' in text
        assert 'backend="habf"' in text
        assert "repro_adaptive_score{" in text


# --------------------------------------------------------------------- #
# Migration consistency under concurrent traffic
# --------------------------------------------------------------------- #
class TestMigrationConsistency:
    def test_no_false_negatives_and_monotone_generations_during_migration(self):
        service, estimator = _adaptive_service(registry=Registry())
        service.load(KEYS, negatives=NEGATIVES, costs=COSTS)
        for start in range(0, len(KEYS), 256):
            service.query_many(KEYS[start : start + 256])
        _inject_false_positives(service, estimator, shards={0, 1})

        stop = threading.Event()
        failures: list = []
        sequences: list = []

        def hammer():
            seen = []
            while not stop.is_set():
                answer = service.query_batch(KEYS[:64])
                if not all(answer.verdicts):
                    failures.append("false negative mid-migration")
                seen.append(answer.generation)
            sequences.append(seen)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            time.sleep(0.05)
            generation = service.rebuild(KEYS, negatives=NEGATIVES, costs=COSTS)
            time.sleep(0.05)
        finally:
            stop.set()
            for thread in threads:
                thread.join()

        assert not failures
        assert generation == 2
        assert service.stats().adaptive.last_migrated == [0, 1]
        for sequence in sequences:
            assert sequence == sorted(sequence), (
                f"client observed generations out of order: {sequence}"
            )
        observed = {generation for sequence in sequences for generation in sequence}
        assert observed <= {1, 2}


# --------------------------------------------------------------------- #
# Replica-pool: SIGKILL a replica, then migrate the surviving fleet
# --------------------------------------------------------------------- #
class TestReplicaPoolMigration:
    def test_sigkilled_replica_then_adaptive_roll_of_survivors(self):
        estimator = FprEstimator(sample_rate=1.0, rng=random.Random(11))
        policy = AdaptivePolicy(CANDIDATES, scorer=BackendScorer(min_sampled=40))
        with ReplicaPool(
            replicas=3,
            backend="xor",
            num_shards=4,
            bits_per_key=10.0,
            request_timeout=10.0,
            fpr_estimator=estimator,
            adaptive_policy=policy,
        ) as pool:
            pool.load(KEYS, negatives=NEGATIVES, costs=COSTS)
            # Window dispatch feeds the parent-side traffic counters and
            # the estimator (the adaptive evidence path).
            for start in range(0, len(KEYS), 256):
                pool.query_batch(KEYS[start : start + 256])
            store = pool.snapshot.store
            wanted, injected = {0, 1}, {0: 0, 1: 0}
            for key in NEGATIVES:
                shard = store.shard_of(key)
                if shard in wanted and injected[shard] < 80:
                    estimator.observe(key, True, shard)
                    injected[shard] += 1

            victim = pool.replica_pids[0]
            os.kill(victim, signal.SIGKILL)
            time.sleep(0.2)
            # In-flight windows that drew the dead replica surface as
            # ServiceError; the survivors keep answering.
            answered = 0
            for _ in range(6):
                try:
                    assert pool.query_batch(KEYS[:16]).verdicts == [True] * 16
                    answered += 1
                except ServiceError:
                    pass
            assert answered >= 4

            # The next rebuild reaps the corpse and rolls the survivors —
            # carrying the adaptive migration — atomically.
            generation = pool.rebuild(KEYS, negatives=NEGATIVES, costs=COSTS)
            assert generation == 2
            stats = pool.stats()
            assert stats.adaptive is not None
            assert stats.adaptive.last_migrated == [0, 1]
            assert stats.adaptive.shard_backends[:2] == ["habf", "habf"]
            per_replica = pool.stats_by_replica()
            assert len(per_replica) == 2  # the fleet shrank to the survivors
            assert {report["generation"] for report in per_replica} == {2}
            # Every surviving replica serves the migrated store correctly.
            for _ in range(4):
                assert pool.query_batch(KEYS[:32]).verdicts == [True] * 32
