"""The estimators against samples whose answers are known by hand."""

import statistics

import pytest

from bench import estimators


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))  # 1..100
    assert estimators.percentile(samples, 0.50) == 50
    assert estimators.percentile(samples, 0.99) == 99
    assert estimators.percentile(samples, 1.0) == 100
    assert estimators.percentile(samples, 0.0) == 1
    assert estimators.percentile([7.0], 0.99) == 7.0
    assert estimators.percentile([3, 1, 2], 0.5) == 2  # order does not matter


def test_percentile_rejects_nonsense():
    with pytest.raises(ValueError):
        estimators.percentile([], 0.5)
    with pytest.raises(ValueError):
        estimators.percentile([1], 1.5)


def test_split_windows_buckets_by_timestamp_and_drops_outsiders():
    stamped = [(9.9, "early"), (10.0, "a"), (10.99, "b"), (11.0, "c"), (12.5, "late")]
    assert estimators.split_windows(stamped, 10.0, 1.0, 2) == [["a", "b"], ["c"]]


def test_favourable_quartile_shrugs_off_stalled_windows():
    quiet = [1.0] * 99 + [2.0]          # p99 = 1.0
    stalled = [1.0] * 50 + [80.0] * 50  # a stall: p99 = 80
    windows = [quiet, stalled, stalled, quiet, stalled, quiet, stalled, quiet]

    def p99(window):
        return estimators.percentile(window, 0.99)

    # Half the windows are spoilt and the figure does not move ...
    assert estimators.steady([p99(window) for window in windows], "lower") == 1.0
    # ... where the whole-run statistic, and a median of windows, would.
    assert p99([value for window in windows for value in window]) == 80.0
    assert statistics.median(p99(window) for window in windows) > 40.0


def test_favourable_quartile_is_the_third_for_higher_and_the_first_for_lower():
    values = [10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0]
    assert estimators.steady(values, "higher") == 60.0  # nearest rank: 6th of 8
    assert estimators.steady(values, "lower") == 20.0   # 2nd of 8
    with pytest.raises(ValueError):
        estimators.steady(values, "sideways")
