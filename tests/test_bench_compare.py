"""The summary rules of ``scripts/bench_compare.py`` (no benchmark is run)."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_compare.py"
_spec = importlib.util.spec_from_file_location("bench_compare", _SCRIPT)
bench_compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_compare)

QPS = {"name": "qps", "better": "higher", "bound": 0.25}
P50 = {"name": "p50", "better": "lower", "bound": 0.25}


def _pairs(parent, change):
    return [
        (None if p is None else {"qps": p}, None if c is None else {"qps": c})
        for p, c in zip(parent, change)
    ]


def test_win_share_counts_every_pair_run():
    # Nine clean wins, one pair whose change run failed: 9 of 10, not 9 of 9.
    pairs = _pairs([100.0] * 10, [150.0] * 9 + [None])
    result = bench_compare.summarise(QPS, pairs)
    assert result["pairs"] == 10 and result["complete_pairs"] == 9
    assert result["win_share"] == pytest.approx(0.9)


def test_ties_count_for_neither_side():
    result = bench_compare.summarise(QPS, _pairs([100.0, 100.0], [100.0, 120.0]))
    assert result["win_share"] == pytest.approx(0.5)


def test_spread_wider_than_the_bound_is_unresolved():
    steady = _pairs([100.0, 101.0, 99.0, 100.0], [100.0, 100.0, 101.0, 99.0])
    assert not bench_compare.summarise(QPS, steady)["unresolved"]
    # The change side's quartiles span half its median: wider than 0.25.
    noisy = _pairs([100.0, 101.0, 99.0, 100.0], [50.0, 150.0, 60.0, 140.0])
    result = bench_compare.summarise(QPS, noisy)
    assert result["unresolved"] and result["spread"] > QPS["bound"]
    assert not result["worse_than_bound"]
    # As wide, but every change run beats every parent run: resolved.
    apart = _pairs([100.0, 101.0, 99.0, 100.0], [150.0, 250.0, 160.0, 240.0])
    assert not bench_compare.summarise(QPS, apart)["unresolved"]


def test_worse_is_measured_in_the_metric_direction():
    pairs = [({"p50": 10.0}, {"p50": 13.0})] * 3
    result = bench_compare.summarise(P50, pairs)
    assert result["worse_by"] == pytest.approx(0.3)
    assert result["worse_than_bound"] and result["win_share"] == 0.0


def test_metric_missing_from_every_run_has_no_summary():
    assert bench_compare.summarise(P50, _pairs([100.0], [120.0])) is None


def test_paired_ratio_is_reported_but_decides_nothing():
    # The seeds spread both sides fourfold, so the metric stays unresolved,
    # yet on every seed the change reads 1% above the parent.  The pair
    # whose parent run failed is left out of the ratio.
    pairs = _pairs([100.0, 200.0, 300.0, 400.0, None], [101.0, 202.0, 303.0, 404.0, 500.0])
    result = bench_compare.summarise(QPS, pairs)
    assert result["unresolved"] and not result["worse_than_bound"]
    ratio = result["ratio"]
    assert ratio["median"] == pytest.approx(1.01)
    assert ratio["q1"] == pytest.approx(1.01) and ratio["q3"] == pytest.approx(1.01)
    mixed = bench_compare.summarise(QPS, _pairs([100.0, 100.0, 100.0], [90.0, 100.0, 130.0]))
    assert (mixed["ratio"]["q1"], mixed["ratio"]["median"], mixed["ratio"]["q3"]) == (
        pytest.approx(0.95), pytest.approx(1.0), pytest.approx(1.15)
    )
