"""The reporting rule: a median plus the highest percentile with >= 10 samples beyond it."""

import statistics

import pytest

from perfbench import stats


def test_median_and_percentile_interpolate():
    values = [4.0, 1.0, 3.0, 2.0]
    assert stats.median(values) == 2.5
    assert stats.percentile(values, 0) == 1.0
    assert stats.percentile(values, 100) == 4.0
    assert stats.percentile(values, 50) == 2.5
    assert stats.percentile(list(range(101)), 99) == 99.0


@pytest.mark.parametrize(
    "count, expected",
    [
        (20000, 99.0),  # 200 samples beyond p99
        (1000, 99.0),
        (902, 99.0),  # exactly 10 beyond p99
        (901, 90.0),  # p99 would have only 9 beyond
        (92, 90.0),  # exactly 10 beyond p90
        (91, None),
        (10, None),
    ],
)
def test_tail_percentile_needs_ten_samples_beyond(count, expected):
    assert stats.tail_percentile(count) == expected
    if expected is not None:
        assert stats.samples_beyond(count, expected) >= stats.MIN_BEYOND


def test_samples_beyond_counts_order_statistics_above_the_rank():
    # 1000 samples: p99's rank sits at index 989.01, so indices 990..999 lie beyond.
    assert stats.samples_beyond(1000, 99.0) == 10
    assert stats.samples_beyond(20000, 99.0) == 200
    assert stats.samples_beyond(1000, 50.0) == 500


def test_quartile_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 9.5, 10.5, 12.0, 9.0, 10.2, 10.8, 9.9, 11.5]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.quartile_spread(values) == pytest.approx((q3 - q1) / statistics.median(values))


def test_ratio_of_an_empty_base_is_zero():
    assert stats.ratio(3, 0) == 0.0
    assert stats.ratio(1, 4) == 0.25
