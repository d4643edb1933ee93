"""The statistics of the pair recorder (tools/pairs.py): quartiles, pair
wins by a metric's direction, the bound check, the claim verdict, the
per-kind peak summary and the naming of where a peak is reached.  No
benchmark is run."""

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
    at = "hypersurface.InvariantField.B_eigs < cli.main"
    summary = tool.peak_summary({"analyze": {"mib": 30.0, "at": at},
                                 "volume": {"mib": 12.0, "at": None}},
                                {"analyze": {"mib": 24.0, "at": "fd.gradient < cli.main"},
                                 "volume": {"mib": 12.0, "at": None}})
    assert summary["analyze"] == {"parent_mib": 30.0, "change_mib": 24.0,
                                  "relative_change": -0.2, "parent_peak_at": at,
                                  "change_peak_at": "fd.gradient < cli.main"}
    assert summary["volume"]["relative_change"] == 0.0


# Functions of a stand-in ``laguerre`` module: the peak is a temporary of
# ``inner`` (a C call's) or of a line of ``outer`` itself.
STAND_IN = """
import numpy as np

def inner(n):
    return float(np.ones(n).sum())

def outer(n, own):
    if own:
        return float((np.ones(n) + np.ones(n)).sum()) + inner(n // 4)
    return inner(n) + float(np.ones(n // 4).sum())
"""


@pytest.fixture(scope="module")
def stand_in():
    module = {"__name__": "laguerre.stand_in"}
    exec(compile(STAND_IN, "stand_in.py", "exec"), module)
    return module


@pytest.mark.parametrize("own, at", [(False, "stand_in.inner < stand_in.outer"),
                                     (True, "stand_in.outer")])
def test_the_peak_is_named_by_the_laguerre_functions_running_there(tool, stand_in, own, at):
    # 2^20 doubles are 8 MiB; the hook reads the peak in the function whose
    # temporaries make it, and names its laguerre callers after it.  The
    # peak itself is read without the hook.
    peak = tool.traced_peak(lambda: stand_in["outer"](2 ** 20, own))
    assert peak["at"] == at
    assert peak["mib"] == pytest.approx(8.0 * (1 + own), abs=0.01)


def test_the_peak_outside_the_package_is_named_none(tool):
    assert tool.traced_peak(lambda: bytearray(2 ** 20))["at"] is None
