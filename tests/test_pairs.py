"""The statistics of the pair recorder (tools/pairs.py): quartiles, pair
wins by a metric's direction, the bound check, the claim verdict and the
per-kind peak summary.  No benchmark is run."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "pairs.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("pairs_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LOWER = {"name": "peak_rss_mb", "better": "lower", "bound": 0.15}
HIGHER = {"name": "scaled_throughput_per_s", "better": "higher", "bound": 0.25}


def test_quartiles_are_inclusive(tool):
    assert tool.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == [2.0, 3.0, 4.0]


def test_wins_and_bound_follow_the_metric_direction(tool):
    parent = [100.0, 101.0, 99.0, 100.5]
    change = [70.0, 102.0, 69.0, 71.0]
    lower = tool.metric_summary(LOWER, parent, change)
    assert lower["change_better_in_pairs"] == 3 and lower["within_bound"]
    higher = tool.metric_summary(HIGHER, parent, change)
    assert higher["change_better_in_pairs"] == 1 and not higher["within_bound"]


def test_a_claim_needs_nine_of_ten_wins_and_a_gain_above_the_parent_iqr(tool):
    parent = [100.0 + 0.1 * i for i in range(10)]
    nine = [90.0] * 9 + [101.0]
    assert tool.claim_verdict(LOWER, tool.metric_summary(LOWER, parent, nine))["met"]
    eight = [90.0] * 8 + [101.0] * 2
    assert not tool.claim_verdict(LOWER, tool.metric_summary(LOWER, parent, eight))["met"]
    within_iqr = [p - 0.05 for p in parent]
    assert not tool.claim_verdict(LOWER, tool.metric_summary(LOWER, parent, within_iqr))["met"]


def test_kind_peaks_pair_each_request_kind(tool):
    summary = tool.peak_summary({"analyze": 30.0, "volume": 12.0},
                                {"analyze": 24.0, "volume": 12.0})
    assert summary["analyze"] == {"parent_mib": 30.0, "change_mib": 24.0,
                                  "relative_change": -0.2}
    assert summary["volume"]["relative_change"] == 0.0
