"""FprEstimator tests: extrapolation math, sampling, service integration.

The headline test is the acceptance criterion: fed a uniform-negative
workload through a real bloom-backed service, the live ``observed_fpr``
converges to within 2x of the filter's analytic false-positive rate.
"""

from __future__ import annotations

import math
import random
from itertools import compress

import pytest

from repro.errors import ConfigurationError
from repro.obs import FprEstimator
from repro.service.server import MembershipService


class TestExtrapolation:
    def test_inert_without_an_oracle(self):
        estimator = FprEstimator(sample_rate=1.0)
        assert estimator.active is False
        estimator.observe("k", True, shard=0)
        assert estimator.shard_estimate(0, queries=10, positives=1).sampled == 0

    def test_exact_when_every_positive_is_sampled(self):
        estimator = FprEstimator(sample_rate=1.0)
        estimator.set_key_oracle(["a", "b"])
        # 10 queries on shard 0: 2 true members, 1 false positive, 7 negatives.
        for key, verdict in [("a", True), ("b", True), ("x", True)] + [
            (f"n{i}", False) for i in range(7)
        ]:
            estimator.observe(key, verdict, shard=0)
        estimate = estimator.shard_estimate(0, queries=10, positives=3)
        assert estimate.sampled == 3
        assert estimate.false_positives == 1
        assert estimate.fp_fraction == pytest.approx(1 / 3)
        # est_fp = 3 * 1/3 = 1; est_negatives = 10 - 3 + 1 = 8.
        assert estimate.observed_fpr == pytest.approx(1 / 8)
        # Uniform costs: cost-weighted equals plain observed FPR.
        assert estimate.cost_weighted_fpr == pytest.approx(1 / 8)

    def test_no_signal_yields_none(self):
        estimator = FprEstimator(sample_rate=1.0)
        estimator.set_key_oracle(["a"])
        estimator.observe("a", True, shard=0)  # member, not a false positive
        estimate = estimator.shard_estimate(0, queries=1, positives=1)
        assert estimate.false_positives == 0
        assert estimate.observed_fpr == 0.0 or estimate.observed_fpr is None

    def test_cost_weighted_uses_per_key_costs(self):
        estimator = FprEstimator(sample_rate=1.0, costs={"cheap": 1.0, "dear": 3.0})
        estimator.set_key_oracle(["member"])
        estimator.observe("dear", True, shard=0)  # costly false positive
        estimator.observe("member", True, shard=0)
        estimate = estimator.shard_estimate(0, queries=4, positives=2)
        # est_fp = 2 * 1/2 = 1; est_negatives = 4 - 2 + 1 = 3.
        assert estimate.observed_fpr == pytest.approx(1 / 3)
        # fp cost 3.0 against a mean negative cost of 2.0 doubles the rate
        # relative to uniform: (2 * 3/2) / (3 * 2) = 0.5.
        assert estimate.cost_weighted_fpr == pytest.approx(0.5)

    def test_overall_aggregates_shards(self):
        estimator = FprEstimator(sample_rate=1.0)
        estimator.set_key_oracle(["a"])
        estimator.observe("x", True, shard=0)
        estimator.observe("a", True, shard=1)

        class Stats:
            def __init__(self, shard, queries, positives):
                self.shard, self.queries, self.positives = shard, queries, positives

        overall = estimator.overall([Stats(0, 10, 1), Stats(1, 10, 1)])
        assert overall.shard == -1
        assert overall.sampled == 2
        assert overall.false_positives == 1

    def test_reset_clears_tallies(self):
        estimator = FprEstimator(sample_rate=1.0)
        estimator.set_key_oracle(["a"])
        estimator.observe("x", True, shard=0)
        estimator.reset()
        assert estimator.shard_estimate(0, queries=1, positives=1).sampled == 0

    def test_sample_rate_validation(self):
        with pytest.raises(ConfigurationError):
            FprEstimator(sample_rate=1.2)


class TestSampling:
    def test_fractional_sampling_sees_a_fraction(self):
        estimator = FprEstimator(sample_rate=0.25, rng=random.Random(42))
        estimator.set_key_oracle([])
        for i in range(4000):
            estimator.observe(f"k{i}", True, shard=0)
        sampled = estimator.shard_estimate(0, queries=4000, positives=4000).sampled
        assert 800 <= sampled <= 1200  # ~1000 expected

    def test_negative_verdicts_are_never_sampled(self):
        estimator = FprEstimator(sample_rate=1.0)
        estimator.set_key_oracle(["a"])
        estimator.observe_batch(["x", "y"], [False, False], lambda key: 0)
        assert estimator.shard_estimate(0, queries=2, positives=0).sampled == 0

    def test_custom_oracle_disables_auto_refresh(self):
        estimator = FprEstimator(sample_rate=1.0)
        assert estimator.auto_oracle is True
        estimator.set_oracle(lambda key: key.startswith("member"))
        assert estimator.auto_oracle is False
        estimator.set_key_oracle(["a"])  # key oracle keeps the flag as-is
        assert estimator.auto_oracle is False


def _per_positive_sampling(verdicts, rate, rng):
    """Reference: the indexes ``observe_batch`` sampled when it stepped
    through every positive verdict to count down each geometric gap."""
    if rate < 1.0:
        inv_log_miss = 1.0 / math.log(1.0 - rate)
        skip = int(math.log(1.0 - rng.random()) * inv_log_miss)
    else:
        skip = 0
    sampled = []
    for index in compress(range(len(verdicts)), verdicts):
        if skip > 0:
            skip -= 1
            continue
        if rate < 1.0:
            skip = int(math.log(1.0 - rng.random()) * inv_log_miss)
        sampled.append(index)
    return sampled


class TestSamplingLaw:
    @pytest.mark.parametrize("rate", [0.05, 0.5, 1.0])
    def test_jumps_sample_what_the_per_positive_loop_sampled(self, rate):
        """Jumping from one sampled positive to the next draws the same
        gaps in the same order, so a seeded estimator samples the same keys
        across batches and keeps the same tallies."""
        members = {f"member-{i}" for i in range(600)}
        known = {f"other-{i}" for i in range(0, 600, 3)}
        costs = {key: float(1 + i % 7) for i, key in enumerate(sorted(known))}
        traffic = random.Random(5)
        batches = []
        for _ in range(40):
            keys = [
                f"member-{traffic.randrange(600)}"
                if traffic.random() < 0.4
                else f"other-{traffic.randrange(600)}"
                for _ in range(256)
            ]
            verdicts = [key in members or traffic.random() < 0.3 for key in keys]
            batches.append((keys, verdicts))

        def shard_of(key):
            return len(key) % 3

        asked = []
        estimator = FprEstimator(sample_rate=rate, costs=costs, rng=random.Random(11))
        estimator.set_oracle(lambda key: asked.append(key) or key in members)
        estimator.set_known_negatives(known)
        reference_rng = random.Random(11)
        expected = []
        for keys, verdicts in batches:
            estimator.observe_batch(keys, verdicts, shard_of)
            expected += [
                keys[index]
                for index in _per_positive_sampling(verdicts, rate, reference_rng)
            ]
        assert asked == expected
        tallies = {}
        for key in expected:
            tally = tallies.setdefault(shard_of(key), [0, 0, 0.0, 0, 0.0])
            tally[0] += 1
            if key not in members:
                cost = costs.get(key, 1.0)
                tally[1] += 1
                tally[2] += cost
                if key in known:
                    tally[3] += 1
                    tally[4] += cost
        observed = {
            shard: [
                tally.sampled,
                tally.false_positives,
                tally.fp_cost,
                tally.known_false_positives,
                tally.known_fp_cost,
            ]
            for shard, tally in estimator._tallies.items()
        }
        assert observed == tallies


class TestServiceConvergence:
    """Acceptance: live observed FPR within 2x of analytic on uniform negatives."""

    BITS_PER_KEY = 10.0
    NUM_KEYS = 4000
    NUM_NEGATIVES = 60_000

    def _analytic_bloom_fpr(self):
        from repro.core.bloom import optimal_num_hashes

        k = optimal_num_hashes(self.BITS_PER_KEY)
        return (1.0 - math.exp(-k / self.BITS_PER_KEY)) ** k

    def test_observed_fpr_converges_to_analytic(self):
        estimator = FprEstimator(sample_rate=1.0, rng=random.Random(123))
        service = MembershipService(
            backend="bloom",
            num_shards=4,
            bits_per_key=self.BITS_PER_KEY,
            fpr_estimator=estimator,
        )
        rng = random.Random(99)
        keys = [f"member-{rng.getrandbits(64):016x}" for _ in range(self.NUM_KEYS)]
        service.load(keys)
        assert estimator.active, "rebuild must auto-register the key oracle"
        negatives = [
            f"negative-{rng.getrandbits(64):016x}" for _ in range(self.NUM_NEGATIVES)
        ]
        chunk = 5000
        for start in range(0, len(negatives), chunk):
            service.query_batch(negatives[start : start + chunk])
        stats = service.stats()
        overall = estimator.overall(stats.shards)
        analytic = self._analytic_bloom_fpr()
        assert overall is not None and overall.observed_fpr is not None
        assert analytic / 2 <= overall.observed_fpr <= analytic * 2, (
            f"observed {overall.observed_fpr:.5f} vs analytic {analytic:.5f}"
        )
        # All traffic was negative, so with rate 1.0 the extrapolation is
        # exact: estimated FP count equals the confirmed count.
        assert overall.false_positives == stats.positives
        # Per-shard estimates partition the aggregate.
        per_shard = service.fpr_estimates()
        assert sum(e.sampled for e in per_shard) == overall.sampled

    def test_mixed_traffic_extrapolates_true_members_out(self):
        estimator = FprEstimator(sample_rate=1.0, rng=random.Random(5))
        service = MembershipService(
            backend="bloom",
            num_shards=2,
            bits_per_key=self.BITS_PER_KEY,
            fpr_estimator=estimator,
        )
        rng = random.Random(17)
        keys = [f"member-{rng.getrandbits(64):016x}" for _ in range(2000)]
        service.load(keys)
        negatives = [f"negative-{rng.getrandbits(64):016x}" for _ in range(20_000)]
        service.query_batch(keys)  # all true positives
        for start in range(0, len(negatives), 5000):
            service.query_batch(negatives[start : start + 5000])
        overall = estimator.overall(service.stats().shards)
        analytic = self._analytic_bloom_fpr()
        assert analytic / 2 <= overall.observed_fpr <= analytic * 2
