"""Seeded inputs every workload shares: key sets, rebuild specs, request streams.

Everything here is a pure function of the seed, and the server never
generates inputs: it receives the key set through ``POST /rebuild`` and the
lookups over its TCP line protocol.

The key sets follow the paper's blacklist-gateway setting:

* positives: Shalla-like blacklisted URLs (``repro.workloads.shalla``);
* known negatives: benign URLs with Zipf(1.0) misidentification costs
  (``assign_zipf_costs``), the set HABF's construction steers away from;
* unseen negatives: a disjoint benign pool the filter never saw.

Lookup traffic is one fixed gateway mix: 20% positives, 50% known negatives
drawn in proportion to cost (the hot, expensive set), 30% unseen negatives.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.hashing import vectorized as vec
from repro.service import ShardRouter
from repro.workloads.shalla import generate_shalla_like
from repro.workloads.zipf import assign_zipf_costs

from served import NUM_SHARDS, ROUTER_SEED

ZIPF_SKEW = 1.0
#: Shares of positives, known negatives and unseen negatives in lookup traffic.
MIX = (0.2, 0.5, 0.3)
#: Share of the churned shard's keys each rebuild spec replaces.
CHURN_SHARE = 0.01
#: Distinct churn specs the rebuild schedule cycles through.
CHURN_SPECS = 4

#: Codes in a request's expectation array: a positive must answer 1; any
#: other value indexes the negative probe table (known negatives, then unseen).
POSITIVE = -1


@dataclass(frozen=True)
class Request:
    """One pre-encoded ``M`` line and what each of its keys is."""

    line: bytes
    expect: np.ndarray  # int32, POSITIVE or an index into Inputs.probe_negatives
    keys: List[str]


class Inputs:
    """The seeded key sets, rebuild specs and probe sets of one run.

    Args:
        seed: Drives every draw.
        positives: Size of the positive set; known negatives are half of it
            and the unseen pool four fifths.
    """

    def __init__(self, seed: int, positives: int = 50_000) -> None:
        self.seed = seed
        known = positives // 2
        unseen = positives * 4 // 5
        reserve = max(64, positives // 12)
        data = generate_shalla_like(
            num_positives=positives + reserve,
            num_negatives=known + unseen,
            seed=seed,
        )
        self.positives: List[str] = data.positives[:positives]
        reserve_keys = data.positives[positives:]
        self.negatives: List[str] = data.negatives[:known]
        self.unseen: List[str] = data.negatives[known:]
        self.costs: Dict[str, float] = assign_zipf_costs(
            self.negatives, ZIPF_SKEW, seed=seed
        )
        #: Every negative the final probe asks about: known ones, then unseen.
        self.probe_negatives: List[str] = self.negatives + self.unseen
        self._plan_churn(reserve_keys)
        self._negatives_json = json.dumps(self.negatives).encode()
        self._costs_json = json.dumps(self.costs).encode()

    # ------------------------------------------------------------------ #
    # Rebuild specs
    # ------------------------------------------------------------------ #
    def _plan_churn(self, reserve_keys: Sequence[str]) -> None:
        """Pick one shard and the key swaps each churn spec applies to it.

        Every spec differs from the base set only inside ``churn_shard``, so
        each rebuild (spec to spec, or back to base) is incremental with
        exactly one dirty shard.
        """
        router = ShardRouter(NUM_SHARDS, seed=ROUTER_SEED)
        rng = np.random.default_rng([self.seed, 1])
        self.churn_shard = int(rng.integers(NUM_SHARDS))
        shard_of = router.shard_of_many(vec.KeyBatch(self.positives)).tolist()
        in_shard = [i for i, shard in enumerate(shard_of) if shard == self.churn_shard]
        spare_shards = router.shard_of_many(vec.KeyBatch(list(reserve_keys))).tolist()
        spare = [k for k, s in zip(reserve_keys, spare_shards) if s == self.churn_shard]
        per_spec = max(1, round(CHURN_SHARE * len(in_shard)))
        if len(spare) < per_spec * CHURN_SPECS or len(in_shard) < per_spec * CHURN_SPECS:
            raise ValueError("key set too small for the churn plan")
        drops = rng.permutation(in_shard)[: per_spec * CHURN_SPECS]
        dropped = set(drops.tolist())
        #: Positives no spec ever removes; the only ones lookup traffic asks.
        self.stable_positives = [
            i for i in range(len(self.positives)) if i not in dropped
        ]
        self.churn_keys: List[List[str]] = []
        for index in range(CHURN_SPECS):
            removed = set(drops[index * per_spec : (index + 1) * per_spec].tolist())
            added = spare[index * per_spec : (index + 1) * per_spec]
            keys = [k for i, k in enumerate(self.positives) if i not in removed]
            self.churn_keys.append(keys + added)

    def spec_body(self, keys: Sequence[str]) -> bytes:
        """The ``POST /rebuild`` JSON body for ``keys`` plus the negatives."""
        return b"".join(
            (
                b'{"keys": ',
                json.dumps(list(keys)).encode(),
                b', "negatives": ',
                self._negatives_json,
                b', "costs": ',
                self._costs_json,
                b"}",
            )
        )

    def base_body(self) -> bytes:
        return self.spec_body(self.positives)

    def churn_bodies(self) -> List[bytes]:
        return [self.spec_body(keys) for keys in self.churn_keys]

    # ------------------------------------------------------------------ #
    # Lookup traffic
    # ------------------------------------------------------------------ #
    def request_stream(
        self, stream: int, count: int, keys_low: int, keys_high: int
    ) -> List[Request]:
        """``count`` seeded requests of ``keys_low..keys_high`` keys each.

        ``stream`` separates the connections' streams so two connections
        never send the same sequence.
        """
        rng = np.random.default_rng([self.seed, 2, stream])
        sizes = rng.integers(keys_low, keys_high + 1, size=count)
        total = int(sizes.sum())
        kinds = rng.choice(3, size=total, p=MIX)
        stable = np.asarray(self.stable_positives, dtype=np.int64)
        positive_pick = stable[rng.integers(len(stable), size=total)]
        weights = np.fromiter(
            (self.costs[key] for key in self.negatives), dtype=np.float64
        )
        known_pick = rng.choice(len(self.negatives), size=total, p=weights / weights.sum())
        unseen_pick = rng.integers(len(self.unseen), size=total) + len(self.negatives)
        expect = np.where(
            kinds == 0, POSITIVE, np.where(kinds == 1, known_pick, unseen_pick)
        ).astype(np.int32)
        requests = []
        offset = 0
        for size in sizes.tolist():
            codes = expect[offset : offset + size]
            picks = positive_pick[offset : offset + size]
            keys = [
                self.positives[p] if c == POSITIVE else self.probe_negatives[c]
                for c, p in zip(codes.tolist(), picks.tolist())
            ]
            line = ("M " + " ".join(keys) + "\n").encode()
            requests.append(Request(line, codes, keys))
            offset += size
        return requests

    def probe_requests(self, chunk: int) -> List[Request]:
        """Every positive, known negative and unseen negative, ``chunk`` per line.

        This fixed probe, not the variable-length timed phase, is what the
        accuracy metrics and the no-false-negative check read.
        """
        requests = []
        for start in range(0, len(self.positives), chunk):
            keys = self.positives[start : start + chunk]
            codes = np.full(len(keys), POSITIVE, dtype=np.int32)
            requests.append(Request(("M " + " ".join(keys) + "\n").encode(), codes, keys))
        for start in range(0, len(self.probe_negatives), chunk):
            keys = self.probe_negatives[start : start + chunk]
            codes = np.arange(start, start + len(keys), dtype=np.int32)
            requests.append(Request(("M " + " ".join(keys) + "\n").encode(), codes, keys))
        return requests
