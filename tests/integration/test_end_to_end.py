"""End-to-end integration tests across modules.

These tests exercise the same paths the examples and benches use: generate a
workload, build every filter under one budget, evaluate, and check that the
paper's qualitative claims hold on held-out data and in the LSM substrate.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from repro import HABF, FastHABF, HABFParams
from repro.core.bloom import BloomFilter, optimal_num_hashes
from repro.experiments.registry import build_filter
from repro.kvstore import BloomFilterPolicy, HABFFilterPolicy, LSMTree
from repro.metrics.fpr import evaluate_filter, false_positive_rate, weighted_fpr
from repro.workloads import assign_zipf_costs, generate_shalla_like, generate_ycsb_like

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"


class TestHeadlineClaims:
    """The paper's main comparative claims, end to end on both workloads."""

    @pytest.mark.parametrize("generator", [generate_shalla_like, generate_ycsb_like])
    def test_habf_beats_bloom_at_equal_space(self, generator):
        dataset = generator(1500, 1500, seed=21)
        bits_per_key = 8.0
        total_bits = int(bits_per_key * dataset.num_positives)
        habf = HABF.build(
            dataset.positives,
            dataset.negatives,
            params=HABFParams(total_bits=total_bits, seed=21),
        )
        bloom = BloomFilter(num_bits=total_bits, num_hashes=optimal_num_hashes(bits_per_key))
        bloom.add_all(dataset.positives)
        assert false_positive_rate(habf, dataset.negatives) < false_positive_rate(
            bloom, dataset.negatives
        )

    def test_cost_skew_amplifies_habfs_advantage(self):
        dataset = generate_shalla_like(1500, 1500, seed=22)
        costs = assign_zipf_costs(dataset.negatives, skewness=1.5, seed=22)
        total_bits = int(7 * dataset.num_positives)
        habf = HABF.build(
            dataset.positives,
            dataset.negatives,
            costs=costs,
            params=HABFParams(total_bits=total_bits, seed=22),
        )
        bloom = BloomFilter(num_bits=total_bits, num_hashes=optimal_num_hashes(7))
        bloom.add_all(dataset.positives)
        habf_weighted = weighted_fpr(habf, dataset.negatives, costs)
        bloom_weighted = weighted_fpr(bloom, dataset.negatives, costs)
        habf_plain = false_positive_rate(habf, dataset.negatives)
        bloom_plain = false_positive_rate(bloom, dataset.negatives)
        assert habf_weighted < bloom_weighted
        # The *relative* gain should be at least as large under cost weighting
        # as without it (that is what "cost aware" means).
        assert habf_weighted / max(bloom_weighted, 1e-12) <= (
            habf_plain / max(bloom_plain, 1e-12)
        ) + 0.05

    def test_generalisation_to_unseen_negatives(self):
        """On negatives never seen at construction time, HABF behaves like the
        plain Bloom filter that forms its first round: the unseen FPR should
        track the analytic FPR of that (smaller) Bloom half, and the known
        negatives it optimised for must do strictly better than the unseen
        ones.  This documents the honest limitation of the approach: its gains
        come from the known-negative information, not from magic."""
        from repro.theory.bloom_math import bloom_fpr

        dataset = generate_shalla_like(1500, 1500, seed=23)
        train, held_out = dataset.split_negatives(0.6, seed=23)
        params = HABFParams(total_bits=int(9 * dataset.num_positives), seed=23)
        habf = HABF.build(dataset.positives, train, params=params)

        seen_fpr = false_positive_rate(habf, train)
        unseen_fpr = false_positive_rate(habf, held_out)
        analytic_first_round = bloom_fpr(
            params.bloom_bits / dataset.num_positives, params.k
        )
        assert seen_fpr < unseen_fpr
        assert unseen_fpr <= 2.0 * analytic_first_round

    def test_fast_habf_is_between_bf_and_habf(self):
        dataset = generate_ycsb_like(1500, 1400, seed=24)
        total_bits = int(8 * dataset.num_positives)
        params = HABFParams(total_bits=total_bits, seed=24)
        habf = HABF.build(dataset.positives, dataset.negatives, params=params)
        fast = FastHABF.build(dataset.positives, dataset.negatives, params=params)
        bloom = BloomFilter(num_bits=total_bits, num_hashes=optimal_num_hashes(8))
        bloom.add_all(dataset.positives)
        fpr_habf = false_positive_rate(habf, dataset.negatives)
        fpr_fast = false_positive_rate(fast, dataset.negatives)
        fpr_bloom = false_positive_rate(bloom, dataset.negatives)
        assert fpr_habf <= fpr_fast + 0.01
        assert fpr_fast <= fpr_bloom


class TestRegistryOnHeldOutData:
    def test_every_filter_evaluates_cleanly(self):
        pytest.importorskip("numpy")  # the registry sweep includes the learned filters
        dataset = generate_shalla_like(800, 800, seed=31)
        total_bits = 10 * dataset.num_positives
        for name in ("HABF", "f-HABF", "BF", "Xor", "WBF", "LBF", "SLBF", "Ada-BF"):
            filt = build_filter(name, dataset, total_bits, costs=dataset.costs, seed=31)
            result = evaluate_filter(filt, dataset)
            assert result.fnr == 0.0, f"{name} produced false negatives"
            assert 0.0 <= result.weighted_fpr <= 1.0


class TestLSMIntegration:
    def test_habf_policy_cuts_read_cost_versus_bloom(self):
        stored = [f"row:{i:06d}" for i in range(0, 6000, 2)]
        missing = [f"row:{i:06d}" for i in range(1, 6000, 2)]
        frequency = assign_zipf_costs(missing, skewness=1.0, seed=41)

        def run(policy):
            tree = LSMTree(
                memtable_capacity=256,
                filter_policy=policy,
                negative_hints=missing,
                negative_costs=frequency,
            )
            for key in stored:
                tree.put(key, 1)
            tree.flush()
            for key in missing:
                tree.get(key)
            return tree.stats

        bloom_stats = run(BloomFilterPolicy(bits_per_key=10))
        habf_stats = run(HABFFilterPolicy(bits_per_key=10))
        assert habf_stats.wasted_io_cost <= bloom_stats.wasted_io_cost


class TestExamplesRun:
    """Every example script must execute successfully as a subprocess."""

    @pytest.mark.parametrize(
        "script",
        [
            "quickstart.py",
            "blacklist_gateway.py",
            "lsm_read_path.py",
            "cost_aware_tuning.py",
            "membership_service.py",
            "async_gateway.py --workers 1",
            "async_gateway.py --workers 2",
            "replication_cluster.py",
        ],
    )
    def test_example_executes(self, script):
        name, *arguments = script.split()
        path = EXAMPLES_DIR / name
        assert path.exists(), f"missing example {name}"
        completed = subprocess.run(
            [sys.executable, str(path), *arguments],
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.strip(), "examples should print their results"
