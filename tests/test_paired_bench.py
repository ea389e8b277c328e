"""tools/paired_bench.py's summary: wins, ties, quartiles, the spread rule and the bound."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "paired_bench.py"


@pytest.fixture(scope="module")
def paired():
    spec = importlib.util.spec_from_file_location("paired_bench", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def runs(a_values, b_values, name="latency_p90_ms"):
    def result(v):
        return {"correct": True, "attempted": 1, "failed": 0, "metrics": {name: {"value": v}}}
    return [(result(a), result(b)) for a, b in zip(a_values, b_values, strict=True)]


def test_ties_count_for_neither_side(paired):
    spec = [{"name": "latency_p90_ms", "unit": "ms", "better": "lower", "bound": 0.25}]
    (row,) = paired.summarize(spec, runs([10, 10, 10, 10], [9, 10, 11, 9]))
    assert (row["a_wins"], row["b_wins"]) == (1, 2)


def test_a_gain_needs_nine_tenths_of_the_pairs_and_a_gap_beyond_the_spread(paired):
    spec = [{"name": "latency_p90_ms", "unit": "ms", "better": "lower", "bound": 0.25}]
    a = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]
    (row,) = paired.summarize(spec, runs(a, [x - 1.0 for x in a]))
    assert row["verdict"] == "B better" and row["gain"] and row["b_wins"] == 10
    assert row["a"][1] == 10.0 and row["gap"] == pytest.approx(-1.0)
    assert row["a_spread"] == pytest.approx(row["a"][2] - row["a"][0])
    (row,) = paired.summarize(spec, runs(a, a[:2] + [x - 1.0 for x in a[2:]]))
    assert row["verdict"] == "B better" and not row["gain"]  # 8 of 10 pairs
    (row,) = paired.summarize(spec, runs(a, [x - 0.1 for x in a]))
    assert row["verdict"] == "within A's spread" and not row["gain"]


def test_higher_is_better_metrics_turn_around(paired):
    spec = [{"name": "throughput", "unit": "1/s", "better": "higher", "bound": 0.1}]
    (row,) = paired.summarize(spec, runs([5.0] * 4, [4.0] * 4, "throughput"))
    assert row["verdict"] == "B worse" and (row["a_wins"], row["b_wins"]) == (4, 0)


@pytest.mark.parametrize("a,b,regression", [
    # within the bound (0.1 of A's median, 1.0) and A's spread below it
    ([10.0, 10.1, 9.9, 10.0], [10.8, 10.9, 10.7, 10.8], "no worse than its bound"),
    # worse by more than the bound
    ([10.0, 10.1, 9.9, 10.0], [11.2, 11.3, 11.1, 11.2], "worse than its bound"),
    # A's spread (quartiles 8 and 12) wider than the bound
    ([7.0, 8.0, 10.0, 12.0, 13.0], [10.0] * 5, "unresolved"),
    # ... unless every B run beats every A run
    ([7.0, 8.0, 10.0, 12.0, 13.0], [6.0] * 5, "no worse than its bound"),
])
def test_no_regression_is_judged_by_the_bound_as_a_fraction_of_a(paired, a, b, regression):
    spec = [{"name": "latency_p90_ms", "unit": "ms", "better": "lower", "bound": 0.1}]
    (row,) = paired.summarize(spec, runs(a, b))
    assert row["bound"] == pytest.approx(0.1 * row["a"][1])
    assert row["regression"] == regression


def test_the_bound_turns_around_for_higher_is_better(paired):
    spec = [{"name": "throughput", "unit": "1/s", "better": "higher", "bound": 0.1}]
    (row,) = paired.summarize(spec, runs([5.0] * 4, [4.4] * 4, "throughput"))
    assert row["regression"] == "worse than its bound"
    (row,) = paired.summarize(spec, runs([5.0] * 4, [4.6] * 4, "throughput"))
    assert row["regression"] == "no worse than its bound"
