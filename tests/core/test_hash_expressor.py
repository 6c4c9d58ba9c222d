"""Unit tests for the HashExpressor."""

from __future__ import annotations

import pytest

from repro.core.habf import HABF
from repro.core.hash_expressor import HashExpressor
from repro.core.params import HABFParams
from repro.errors import ConfigurationError
from repro.hashing import vectorized
from repro.hashing.registry import GLOBAL_HASH_FAMILY
from repro.service import codec


def make_expressor(num_cells=256, cell_hash_bits=5) -> HashExpressor:
    return HashExpressor(
        num_cells=num_cells, cell_hash_bits=cell_hash_bits, family=GLOBAL_HASH_FAMILY
    )


class TestConstruction:
    def test_invalid_arguments(self):
        with pytest.raises(ConfigurationError):
            make_expressor(num_cells=0)
        with pytest.raises(ConfigurationError):
            HashExpressor(num_cells=10, cell_hash_bits=0, family=GLOBAL_HASH_FAMILY)

    def test_initial_state(self):
        expressor = make_expressor(num_cells=16)
        stats = expressor.stats()
        assert stats.num_cells == 16
        assert stats.occupied_cells == 0
        assert stats.inserted_keys == 0
        assert stats.load_factor == 0.0
        assert all(expressor.is_empty_cell(i) for i in range(16))

    def test_size_accounting(self):
        expressor = make_expressor(num_cells=100, cell_hash_bits=4)
        assert expressor.size_in_bits() == 100 * 5
        assert expressor.cell_hash_bits == 4
        assert expressor.max_storable_index == 15


class TestStorable:
    def test_small_cells_limit_indexes(self):
        expressor = make_expressor(cell_hash_bits=3)
        assert expressor.storable([0, 1, 6])
        assert not expressor.storable([0, 1, 7])  # 7 == 2**3 - 1 is reserved for "empty"

    def test_insert_rejects_unstorable_selection(self):
        expressor = make_expressor(cell_hash_bits=3)
        assert expressor.try_insert("key", [0, 1, 7]) is False
        assert expressor.stats().inserted_keys == 0


class TestInsertAndQuery:
    def test_round_trip_single_key(self):
        expressor = make_expressor()
        selection = [4, 9, 14]
        assert expressor.try_insert("element", selection)
        retrieved = expressor.query("element", k=3)
        assert retrieved is not None
        assert sorted(retrieved) == sorted(selection)

    def test_round_trip_many_keys(self):
        expressor = make_expressor(num_cells=2048)
        inserted = {}
        for i in range(120):
            key = f"adjusted-{i}"
            selection = [(i % 10), 10 + (i % 6), 17 + (i % 4)]
            if expressor.try_insert(key, selection):
                inserted[key] = selection
        # With 2048 cells and ~360 occupied entries most insertions succeed.
        assert len(inserted) >= 100
        for key, selection in inserted.items():
            retrieved = expressor.query(key, k=3)
            assert retrieved is not None, f"zero-FNR violated for {key}"
            assert sorted(retrieved) == sorted(selection)

    def test_duplicate_selection_rejected(self):
        expressor = make_expressor()
        with pytest.raises(ConfigurationError):
            expressor.try_insert("key", [1, 1, 2])

    def test_query_unknown_key_usually_returns_none(self):
        expressor = make_expressor(num_cells=512)
        for i in range(30):
            expressor.try_insert(f"known-{i}", [i % 8, 8 + i % 8, 16 + i % 6])
        spurious = sum(
            1 for i in range(500) if expressor.query(f"unknown-{i}", k=3) is not None
        )
        # HashExpressor has a small FPR; it must stay small at this load.
        assert spurious < 50

    def test_query_empty_expressor_returns_none(self):
        expressor = make_expressor()
        assert expressor.query("anything", k=3) is None

    def test_query_k_validation(self):
        expressor = make_expressor()
        with pytest.raises(ConfigurationError):
            expressor.query("key", k=0)

    def test_can_insert_does_not_commit(self):
        expressor = make_expressor()
        assert expressor.can_insert("key", [1, 2, 3])
        assert expressor.stats().occupied_cells == 0
        assert expressor.query("key", k=3) is None

    def test_failed_insert_leaves_table_unchanged(self):
        expressor = make_expressor(num_cells=4, cell_hash_bits=5)
        # Fill the tiny table until an insertion fails, then verify the failed
        # attempt did not modify any cell.
        results = []
        for i in range(20):
            before = [expressor.cell(j) for j in range(4)]
            ok = expressor.try_insert(f"key-{i}", [i % 20, (i + 3) % 20, (i + 7) % 20])
            after = [expressor.cell(j) for j in range(4)]
            results.append(ok)
            if not ok:
                assert before == after
        assert not all(results), "expected at least one failure on a 4-cell table"

    def test_inserted_keys_counter(self):
        expressor = make_expressor(num_cells=1024)
        successes = 0
        for i in range(20):
            if expressor.try_insert(f"k{i}", [i % 5, 5 + i % 5, 10 + i % 5]):
                successes += 1
        assert expressor.stats().inserted_keys == successes
        assert expressor.inserted_keys == successes


class TestBatchQuery:
    """`query_many_batch` agrees with scalar `query`, including after inserts."""

    @staticmethod
    def _assert_batch_matches_scalar(expressor, keys, k=3):
        selections, valid = expressor.query_many_batch(vectorized.KeyBatch(keys), k)
        for row, key in enumerate(keys):
            expected = expressor.query(key, k)
            if expected is None:
                assert not valid[row], key
            else:
                assert valid[row], key
                assert selections[row].tolist() == expected, key

    @staticmethod
    def _decoded_expressor():
        positives = [f"pos-{i}" for i in range(300)]
        negatives = [f"neg-{i}" for i in range(300)]
        habf = HABF.build(
            positives, negatives, params=HABFParams.from_bits_per_key(6.0, 300, seed=3)
        )
        return codec.loads(codec.dumps(habf)).expressor

    @pytest.mark.parametrize("source", ["built", "decoded"])
    def test_try_insert_after_batch_query_is_seen_by_the_next_one(self, source):
        pytest.importorskip("numpy")
        if source == "built":
            expressor = make_expressor(num_cells=512)
            for i in range(40):
                expressor.try_insert(f"seed-{i}", [i % 7, 7 + i % 7, 14 + i % 5])
        else:
            expressor = self._decoded_expressor()
        probe = [f"fresh-{i}" for i in range(60)]
        self._assert_batch_matches_scalar(expressor, probe)
        inserted = [
            key
            for i, key in enumerate(probe[:20])
            if expressor.query(key, 3) is None
            and expressor.try_insert(key, [i % 5, 5 + i % 6, 11 + i % 7])
        ]
        assert inserted
        assert all(expressor.query(key, 3) is not None for key in inserted)
        self._assert_batch_matches_scalar(expressor, probe)
