"""tools/benchpairs.py: each summary entry judges a gain claim and the metric's bound."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "benchpairs.py"
LOWER = {"name": "dataset_ref_s", "better": "lower", "bound": 0.25}
HIGHER = {"name": "ops_per_s", "better": "higher", "bound": 0.1}


def load_tool():
    spec = importlib.util.spec_from_file_location("benchpairs", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def judged(metric, parent, change):
    """The one summary entry of untraced runs pairing parent[i] with change[i]."""
    runs = [{"workload": "w", "seed": 0, "trace": 0, "pair": pair, "side": side,
             "result": {"metrics": {metric["name"]: {"value": value}}}}
            for pair, values in enumerate(zip(parent, change))
            for side, value in zip(("parent", "change"), values)]
    (entry,) = load_tool().summarize(runs, [metric])
    return entry


PARENT = [1.0 + 0.01 * i for i in range(10)]  # median 1.045, interquartile range 0.045


@pytest.mark.parametrize("change, claimable", [
    ([v - 0.1 for v in PARENT], True),  # 10 wins, a gain of 0.1
    ([v - 0.1 for v in PARENT[:9]] + [PARENT[9]], True),  # 9 wins and a tie
    ([v - 0.1 for v in PARENT[:8]] + PARENT[8:], False),  # 8 wins and 2 ties
    ([v - 0.1 for v in PARENT[:8]] + [v + 0.1 for v in PARENT[8:]], False),  # 8 wins
    ([v - 0.04 for v in PARENT], False),  # 10 wins, a gain inside the parent's quartiles
], ids=["all-pairs", "one-tie", "two-ties", "two-losses", "inside-quartiles"])
def test_a_gain_is_claimable_on_nine_in_ten_pairs_beyond_the_parents_quartiles(change,
                                                                                claimable):
    entry = judged(LOWER, PARENT, change)
    assert entry["gain_claimable"] is claimable
    assert entry["within_bound"]


def test_a_gain_needs_ten_pairs():
    entry = judged(LOWER, PARENT[:9], [v - 0.1 for v in PARENT[:9]])
    assert (entry["pairs"], entry["change_wins"], entry["gain_claimable"]) == (9, 9, False)


def test_a_higher_is_better_gain_is_an_increase():
    assert judged(HIGHER, PARENT, [v + 0.1 for v in PARENT])["gain_claimable"]
    assert not judged(HIGHER, PARENT, [v - 0.1 for v in PARENT])["gain_claimable"]


@pytest.mark.parametrize("metric, scale, within", [
    (LOWER, 1.25, True), (LOWER, 1.26, False), (LOWER, 0.5, True),
    (HIGHER, 0.95, True), (HIGHER, 0.85, False), (HIGHER, 2.0, True),
])
def test_within_bound_allows_the_change_median_to_be_worse_by_the_bound(metric, scale, within):
    parent = [1.0] * 5
    entry = judged(metric, parent, [scale] * 5)
    assert entry["within_bound"] is within
    assert entry["gain_claimable"] is False  # five pairs never make a claim
