"""Live false-positive-rate estimation by shadow-sampling positive verdicts.

The paper's evaluation (Figures 10–13) measures observed FPR and
cost-weighted error offline, against a held-out negative set.  A serving
deployment wants the same quantities *live*: the filters' configured FPR is
analytic, but the observed rate depends on the traffic mix actually
arriving, and ROADMAP item 5 (workload-adaptive backend selection) scores
shards by exactly these numbers.

:class:`FprEstimator` attaches to a :class:`~repro.service.server.MembershipService`
and shadow-samples a configurable fraction of **positive verdicts**: for a
sampled key the registered ground-truth oracle — by default the exact key
set the serving generation was built from, which the service re-registers
on every rebuild — says whether the key is genuinely a member.  A positive
verdict the oracle rejects is a confirmed false positive.  Per shard the
estimator keeps the sampled count, confirmed false positives and their
costs, and extrapolates:

* ``fp_fraction`` — false positives among sampled positive verdicts;
* estimated false positives ``= positives × fp_fraction``;
* estimated negatives queried ``= queries − positives + estimated FP``;
* ``observed_fpr = estimated FP / estimated negatives`` — the live
  counterpart of the paper's FPR;
* ``cost_weighted_fpr`` — the live counterpart of Eq. 1/20, using the
  registered per-key costs for sampled false positives and the mean
  negative cost for the denominator (equal to ``observed_fpr`` under
  uniform costs).

The oracle consults a set the service already holds (its build key list),
so sampling costs one hash-set lookup plus one shard routing per *sampled*
key — nothing on unsampled traffic.
"""

from __future__ import annotations

import math
import random
import threading
from dataclasses import dataclass
from itertools import compress
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Union

from repro.errors import ConfigurationError
from repro.hashing.base import Key

__all__ = ["FprEstimator", "ShardFprEstimate"]

CostSpec = Union[Mapping[Key, float], Callable[[Key], float], None]


@dataclass(frozen=True)
class ShardFprEstimate:
    """The live accuracy estimate for one shard.

    Attributes:
        shard: Shard index.
        sampled: Positive verdicts shadow-checked against the oracle.
        false_positives: Sampled verdicts the oracle rejected.
        fp_fraction: ``false_positives / sampled`` (0.0 before any sample).
        observed_fpr: Extrapolated false-positive rate over the shard's
            negative traffic, or ``None`` while there is no signal (no
            samples, or no estimated negative traffic to divide by).
        cost_weighted_fpr: Cost-weighted counterpart (Eq. 1/20 live), or
            ``None`` under the same conditions.
        queries: Shard queries the extrapolation was computed from.
        positives: Shard positive verdicts the extrapolation used.
    """

    shard: int
    sampled: int
    false_positives: int
    fp_fraction: float
    observed_fpr: Optional[float]
    cost_weighted_fpr: Optional[float]
    queries: int
    positives: int
    #: Sampled false positives that hit a *known* negative (a key registered
    #: via :meth:`FprEstimator.set_known_negatives`, normally the negatives
    #: the serving generation was built with).  The adaptive backend scorer
    #: uses the fractions to estimate how much of a shard's error mass a
    #: negative-aware backend could suppress.
    known_false_positives: int = 0
    known_fp_fraction: float = 0.0
    known_fp_cost_fraction: float = 0.0


class _ShardTally:
    __slots__ = (
        "sampled",
        "false_positives",
        "fp_cost",
        "known_false_positives",
        "known_fp_cost",
    )

    def __init__(self) -> None:
        self.sampled = 0
        self.false_positives = 0
        self.fp_cost = 0.0
        self.known_false_positives = 0
        self.known_fp_cost = 0.0


class FprEstimator:
    """Shadow-samples positive verdicts against a ground-truth oracle.

    Args:
        sample_rate: Fraction of positive verdicts checked (1.0 = every
            one; the default 5% keeps the oracle lookup off the hot path).
        costs: Per-key miss costs — a mapping, a callable, or ``None`` for
            uniform costs.  Drives ``cost_weighted_fpr``.
        rng: Injectable randomness (tests pass a seeded ``random.Random``).

    The estimator is inert until an oracle is registered
    (:meth:`set_key_oracle` / :meth:`set_oracle`); a
    :class:`~repro.service.server.MembershipService` it is attached to does
    this automatically with each generation's build keys.
    """

    def __init__(
        self,
        sample_rate: float = 0.05,
        costs: CostSpec = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ConfigurationError(
                f"sample_rate must be in [0, 1], got {sample_rate}"
            )
        self._sample_rate = sample_rate
        self._rng = rng or random.Random()
        self._oracle: Optional[Callable[[Key], bool]] = None
        #: When true (the default), an attached service refreshes the oracle
        #: with each generation's build keys; registering a custom oracle via
        #: :meth:`set_oracle` clears it so the service stops overwriting.
        self.auto_oracle = True
        #: When true (the default), an attached service refreshes the known
        #: negative set with each rebuild's ``negatives`` argument (and the
        #: per-key costs with its ``costs``); set false to pin your own.
        self.auto_known_negatives = True
        self._known_negatives: frozenset = frozenset()
        self._lock = threading.Lock()
        self._tallies: Dict[int, _ShardTally] = {}
        self._cost_fn: Callable[[Key], float] = lambda key: 1.0
        self._mean_negative_cost = 1.0
        self.set_costs(costs)

    # ------------------------------------------------------------------ #
    # Configuration
    # ------------------------------------------------------------------ #
    @property
    def sample_rate(self) -> float:
        return self._sample_rate

    @property
    def active(self) -> bool:
        """True when observations can produce signal (oracle + rate > 0)."""
        return self._oracle is not None and self._sample_rate > 0.0

    def set_oracle(self, oracle: Callable[[Key], bool]) -> None:
        """Register the ground truth: ``oracle(key)`` is true membership.

        Also disables :attr:`auto_oracle`, so a service this estimator is
        attached to stops re-registering its build keys on rebuilds.
        """
        self._oracle = oracle
        self.auto_oracle = False

    def set_key_oracle(self, keys: Iterable[Key]) -> None:
        """Register the exact member key set as the oracle (frozen copy)."""
        members = frozenset(keys)
        self._oracle = members.__contains__

    def set_costs(self, costs: CostSpec) -> None:
        """Register per-key miss costs for the cost-weighted estimate."""
        if costs is None:
            self._cost_fn = lambda key: 1.0
            self._mean_negative_cost = 1.0
        elif callable(costs):
            self._cost_fn = costs
            self._mean_negative_cost = 1.0
        else:
            mapping = dict(costs)
            self._cost_fn = lambda key: float(mapping.get(key, 1.0))
            self._mean_negative_cost = (
                sum(float(value) for value in mapping.values()) / len(mapping)
                if mapping
                else 1.0
            )

    def set_known_negatives(self, keys: Iterable[Key]) -> None:
        """Register the known negatives (the keys a rebuild trained against).

        Sampled false positives are additionally checked against this set so
        :class:`ShardFprEstimate` can split error mass into "known" (the
        portion a negative-aware backend like HABF or WBF could suppress)
        and "unseen".  A service with :attr:`auto_known_negatives` set (the
        default) calls this on every rebuild with that rebuild's negatives.
        """
        self._known_negatives = frozenset(keys)

    def reset(self) -> None:
        """Drop accumulated tallies (e.g. after a backend migration)."""
        with self._lock:
            self._tallies.clear()

    def reset_shards(self, shards: Iterable[int]) -> None:
        """Drop the tallies of specific shards (their backend migrated, so
        accumulated evidence describes the *previous* filter)."""
        with self._lock:
            for shard in shards:
                self._tallies.pop(int(shard), None)

    # ------------------------------------------------------------------ #
    # Observation path
    # ------------------------------------------------------------------ #
    def observe_batch(
        self,
        keys: Sequence[Key],
        verdicts: Sequence[bool],
        shard_of: Callable[[Key], int],
        shards: Optional[Sequence[int]] = None,
    ) -> None:
        """Feed one answered batch; samples a fraction of positive verdicts.

        Positives are listed at C speed and unsampled ones cost nothing
        more; each sampled key pays one ``random()`` draw (the gap to the
        next sample), one shard routing and one oracle lookup — the
        "shadow" work.  Callers that already hold per-key shard
        assignments (the store's vectorized router pass) pass them as
        ``shards`` so sampling skips the per-key re-hash.
        """
        oracle = self._oracle
        if oracle is None or self._sample_rate <= 0.0:
            return
        rate = self._sample_rate
        rng_random = self._rng.random
        cost_fn = self._cost_fn
        # This runs inside the serving engine's dispatch, so per-key Python
        # work on unsampled traffic must stay near zero: positives are
        # listed at C speed (compress), fractional sampling draws geometric
        # gaps between sampled positives instead of a coin per positive
        # (identical Bernoulli(rate) law, by memorylessness) and jumps over
        # each gap, so Python work is per sampled key; per-shard tallies
        # merge under one lock acquisition per batch.
        sampled = compress(range(len(verdicts)), verdicts)
        if rate < 1.0:
            inv_log_miss = 1.0 / math.log(1.0 - rate)
            positives = list(sampled)
            sampled = []
            position = int(math.log(1.0 - rng_random()) * inv_log_miss)
            while position < len(positives):
                sampled.append(positives[position])
                position += 1 + int(math.log(1.0 - rng_random()) * inv_log_miss)
        known = self._known_negatives
        pending: Dict[int, List[float]] = {}
        for index in sampled:
            key = keys[index]
            shard = shards[index] if shards is not None else shard_of(key)
            entry = pending.get(shard)
            if entry is None:
                entry = pending[shard] = [0, 0, 0.0, 0, 0.0]
            entry[0] += 1
            if not oracle(key):
                entry[1] += 1
                cost = float(cost_fn(key))
                entry[2] += cost
                if key in known:
                    entry[3] += 1
                    entry[4] += cost
        if not pending:
            return
        with self._lock:
            for shard, entry in pending.items():
                shard = int(shard)  # ndarray-sourced indexes arrive as int64
                tally = self._tallies.get(shard)
                if tally is None:
                    tally = self._tallies[shard] = _ShardTally()
                tally.sampled += int(entry[0])
                tally.false_positives += int(entry[1])
                tally.fp_cost += entry[2]
                tally.known_false_positives += int(entry[3])
                tally.known_fp_cost += entry[4]

    def observe(self, key: Key, verdict: bool, shard: int) -> None:
        """Scalar-path variant of :meth:`observe_batch` (shard precomputed)."""
        oracle = self._oracle
        if oracle is None or not verdict or self._sample_rate <= 0.0:
            return
        if self._sample_rate < 1.0 and self._rng.random() >= self._sample_rate:
            return
        self._record(key, shard, oracle(key))

    def _record(self, key: Key, shard: int, is_member: bool) -> None:
        cost = float(self._cost_fn(key)) if not is_member else 0.0
        known = not is_member and key in self._known_negatives
        with self._lock:
            tally = self._tallies.get(shard)
            if tally is None:
                tally = self._tallies[shard] = _ShardTally()
            tally.sampled += 1
            if not is_member:
                tally.false_positives += 1
                tally.fp_cost += cost
                if known:
                    tally.known_false_positives += 1
                    tally.known_fp_cost += cost

    # ------------------------------------------------------------------ #
    # Estimates
    # ------------------------------------------------------------------ #
    def shard_estimate(
        self, shard: int, queries: int, positives: int
    ) -> ShardFprEstimate:
        """Extrapolate one shard's estimate from its traffic counters."""
        with self._lock:
            tally = self._tallies.get(shard)
            sampled = tally.sampled if tally else 0
            false_positives = tally.false_positives if tally else 0
            fp_cost = tally.fp_cost if tally else 0.0
            known_fp = tally.known_false_positives if tally else 0
            known_fp_cost = tally.known_fp_cost if tally else 0.0
        if sampled == 0:
            return ShardFprEstimate(
                shard=shard,
                sampled=0,
                false_positives=0,
                fp_fraction=0.0,
                observed_fpr=None,
                cost_weighted_fpr=None,
                queries=queries,
                positives=positives,
            )
        fp_fraction = false_positives / sampled
        estimated_fp = positives * fp_fraction
        estimated_negatives = queries - positives + estimated_fp
        observed_fpr = (
            estimated_fp / estimated_negatives if estimated_negatives > 0 else None
        )
        cost_weighted: Optional[float] = None
        if estimated_negatives > 0 and self._mean_negative_cost > 0:
            estimated_fp_cost = positives * (fp_cost / sampled)
            cost_weighted = estimated_fp_cost / (
                estimated_negatives * self._mean_negative_cost
            )
        return ShardFprEstimate(
            shard=shard,
            sampled=sampled,
            false_positives=false_positives,
            fp_fraction=fp_fraction,
            observed_fpr=observed_fpr,
            cost_weighted_fpr=cost_weighted,
            queries=queries,
            positives=positives,
            known_false_positives=known_fp,
            known_fp_fraction=(
                known_fp / false_positives if false_positives else 0.0
            ),
            known_fp_cost_fraction=(known_fp_cost / fp_cost if fp_cost > 0 else 0.0),
        )

    def estimates(self, shard_stats) -> List[ShardFprEstimate]:
        """Per-shard estimates from a ``stats().shards`` list."""
        return [
            self.shard_estimate(stats.shard, stats.queries, stats.positives)
            for stats in shard_stats
        ]

    def overall(self, shard_stats) -> Optional[ShardFprEstimate]:
        """One aggregate estimate across every shard (``shard=-1``)."""
        queries = sum(stats.queries for stats in shard_stats)
        positives = sum(stats.positives for stats in shard_stats)
        with self._lock:
            sampled = sum(t.sampled for t in self._tallies.values())
            false_positives = sum(t.false_positives for t in self._tallies.values())
            fp_cost = sum(t.fp_cost for t in self._tallies.values())
            known_fp = sum(t.known_false_positives for t in self._tallies.values())
            known_fp_cost = sum(t.known_fp_cost for t in self._tallies.values())
        if sampled == 0:
            return None
        fp_fraction = false_positives / sampled
        estimated_fp = positives * fp_fraction
        estimated_negatives = queries - positives + estimated_fp
        observed = estimated_fp / estimated_negatives if estimated_negatives > 0 else None
        cost_weighted: Optional[float] = None
        if estimated_negatives > 0 and self._mean_negative_cost > 0:
            cost_weighted = (positives * (fp_cost / sampled)) / (
                estimated_negatives * self._mean_negative_cost
            )
        return ShardFprEstimate(
            shard=-1,
            sampled=sampled,
            false_positives=false_positives,
            fp_fraction=fp_fraction,
            observed_fpr=observed,
            cost_weighted_fpr=cost_weighted,
            queries=queries,
            positives=positives,
            known_false_positives=known_fp,
            known_fp_fraction=(
                known_fp / false_positives if false_positives else 0.0
            ),
            known_fp_cost_fraction=(known_fp_cost / fp_cost if fp_cost > 0 else 0.0),
        )
