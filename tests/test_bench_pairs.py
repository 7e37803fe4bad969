"""Unit tests of the pair statistics that tools/bench_pairs.py writes."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

DECLARED = [
    {"name": "ops_per_s", "unit": "1/s", "better": "higher"},
    {"name": "latency_s.p50", "unit": "s", "better": "lower"},
]


def _side(ops, latency, attempted=10, failed=0):
    return {"metrics": {"ops_per_s": ops, "latency_s.p50": latency},
            "attempted": attempted, "failed": failed}


def _pairs():
    # Pair 0 ties on both metrics; pair 1 favours the change on both;
    # pair 2 favours the base on both; pair 3 favours the change on both.
    return [
        {"base": _side(10.0, 2.0), "change": _side(10.0, 2.0)},
        {"base": _side(10.0, 2.0), "change": _side(12.0, 1.5, failed=1)},
        {"base": _side(11.0, 1.8), "change": _side(9.0, 2.5)},
        {"base": _side(9.0, 2.2, failed=2), "change": _side(13.0, 1.0)},
    ]


def test_spread_is_inclusive_quartiles():
    assert bench_pairs.spread([5.0, 1.0, 3.0, 2.0, 4.0]) == {"median": 3.0, "q1": 2.0,
                                                             "q3": 4.0}
    assert bench_pairs.spread([1.0, 2.0]) == {"median": 1.5, "q1": 1.25, "q3": 1.75}


def test_tie_counts_for_neither_side():
    pairs = [{"base": _side(10.0, 2.0), "change": _side(10.0, 2.0)}] * 2
    out = bench_pairs.summarize(pairs, DECLARED)
    assert out["ops_per_s"]["change_better_pairs"] == 0
    assert out["latency_s.p50"]["change_better_pairs"] == 0
    assert out["ops_per_s"]["median_ratio"] == 1.0


def test_direction_follows_better():
    out = bench_pairs.summarize(_pairs(), DECLARED)
    # Higher ops_per_s wins pairs 1 and 3; lower latency wins the same two.
    assert out["ops_per_s"]["change_better_pairs"] == 2
    assert out["latency_s.p50"]["change_better_pairs"] == 2
    # Swapping the sides turns the one base win into the only change win.
    swapped = [{"base": p["change"], "change": p["base"]} for p in _pairs()]
    out = bench_pairs.summarize(swapped, DECLARED)
    assert out["ops_per_s"]["change_better_pairs"] == 1
    assert out["latency_s.p50"]["change_better_pairs"] == 1


def test_medians_ratio_and_failed_share():
    out = bench_pairs.summarize(_pairs(), DECLARED)
    ops = out["ops_per_s"]
    assert (ops["unit"], ops["better"]) == ("1/s", "higher")
    assert ops["base"]["median"] == 10.0 and ops["change"]["median"] == 11.0
    assert ops["median_ratio"] == pytest.approx(1.1)
    lat = out["latency_s.p50"]
    assert lat["base"]["median"] == 2.0 and lat["change"]["median"] == 1.75
    assert lat["median_ratio"] == pytest.approx(0.875)
    assert out["failed_share.base"] == pytest.approx(2 / 40)
    assert out["failed_share.change"] == pytest.approx(1 / 40)
