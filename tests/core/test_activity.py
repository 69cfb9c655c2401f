"""Exact-value and band tests for the activity analysis (§4.2-4.3, Fig. 3)."""

import pytest

from repro.logs.timeutil import SECONDS_PER_HOUR
from tests.core.helpers import day_ts, make_dataset, make_window, proxy, panel

# Study day 0 is 1970-01-01 (a Thursday); the detailed window of a
# 28/14 window starts on day 14 (a Thursday again).
DETAILED_FIRST = 14


def tx(day: int, hour: float, subscriber: str = "a", size: int = 1000):
    return proxy(day_ts(day, hour * SECONDS_PER_HOUR), subscriber, bytes_down=size)


class TestExactValues:
    def test_no_traffic_raises(self):
        dataset = make_dataset([], [], window=make_window())
        with pytest.raises(ValueError, match="no wearable"):
            panel("activity", dataset)

    def test_active_days_and_hours(self):
        # User "a": two active days in a two-week window, 2 and 1 distinct
        # hours; user "b": one day, one hour.
        records = [
            tx(DETAILED_FIRST, 9.0, "a"),
            tx(DETAILED_FIRST, 10.5, "a"),
            tx(DETAILED_FIRST + 3, 20.0, "a"),
            tx(DETAILED_FIRST + 1, 12.0, "b"),
        ]
        dataset = make_dataset(records, [], window=make_window())
        result = panel("activity", dataset)
        # a: 2 days / 2 weeks = 1.0; b: 0.5.
        assert result.mean_active_days_per_week == pytest.approx(0.75)
        # a: 3 distinct (day, hour) pairs / 2 days = 1.5; b: 1.0.
        assert result.mean_active_hours_per_day == pytest.approx(1.25)

    def test_transaction_size_cdf(self):
        records = [
            tx(DETAILED_FIRST, 9.0, size=2_000),
            tx(DETAILED_FIRST, 9.1, size=4_000),
            tx(DETAILED_FIRST, 9.2, size=50_000),
            tx(DETAILED_FIRST, 9.3, size=3_000),
        ]
        dataset = make_dataset(records, [], window=make_window())
        result = panel("activity", dataset)
        assert result.fraction_tx_under_10kb == pytest.approx(0.75)
        assert result.median_tx_bytes == pytest.approx(3_000.0)
        assert result.mean_tx_bytes == pytest.approx(14_750.0)

    def test_traffic_outside_detailed_window_excluded(self):
        records = [tx(0, 9.0), tx(DETAILED_FIRST, 9.0)]
        dataset = make_dataset(records, [], window=make_window())
        result = panel("activity", dataset)
        assert len(result.transaction_sizes) == 1

    def test_hourly_profile_places_traffic_in_right_bucket(self):
        # Day 14 of a window starting Thursday 1970-01-01 is a Thursday.
        records = [tx(DETAILED_FIRST, 9.5), tx(DETAILED_FIRST, 9.7)]
        dataset = make_dataset(records, [], window=make_window())
        profile = panel("activity", dataset).hourly
        assert profile.weekday_tx[9] > 0
        assert sum(profile.weekend_tx) == 0

    def test_weekend_traffic_in_weekend_bucket(self):
        # Day 16 (Saturday) of the same window.
        records = [tx(DETAILED_FIRST + 2, 11.0)]
        dataset = make_dataset(records, [], window=make_window())
        profile = panel("activity", dataset).hourly
        assert profile.weekend_tx[11] > 0
        assert sum(profile.weekday_tx) == 0


class TestOnSimulation:
    """Band checks against the paper's published activity statistics."""

    def test_mean_days_per_week_near_one(self, medium_study):
        result = medium_study.activity
        assert 0.5 <= result.mean_active_days_per_week <= 2.0

    def test_mean_hours_near_three(self, medium_study):
        result = medium_study.activity
        assert 1.5 <= result.mean_active_hours_per_day <= 5.0

    def test_hours_distribution_shape(self, medium_study):
        result = medium_study.activity
        assert result.fraction_users_under_5h >= 0.6
        assert result.fraction_users_over_10h <= 0.15

    def test_transaction_sizes_centred_on_3kb(self, medium_study):
        result = medium_study.activity
        assert 1_500 <= result.median_tx_bytes <= 8_000
        assert result.fraction_tx_under_10kb >= 0.6

    def test_tx_rate_correlates_with_hours(self, medium_study):
        # Fig. 3(d): "a clear correlation".
        result = medium_study.activity
        assert result.tx_rate_hours_correlation > 0.1
        trend = result.tx_rate_vs_hours
        assert trend[-1].mean_y > trend[0].mean_y

    def test_hourly_profiles_normalised(self, medium_study):
        profile = medium_study.activity.hourly
        for series in (
            profile.weekday_users,
            profile.weekend_users,
            profile.weekday_tx,
            profile.weekend_tx,
            profile.weekday_bytes,
            profile.weekend_bytes,
        ):
            assert len(series) == 24
            assert all(value >= 0.0 for value in series)
            assert max(series) <= 1.0

    def test_commute_hours_differ_weekday_vs_weekend(self, medium_study):
        # Fig. 3(a): morning-commute activity is a weekday phenomenon.
        profile = medium_study.activity.hourly
        weekday_morning = sum(profile.weekday_tx[6:9])
        weekend_morning = sum(profile.weekend_tx[6:9])
        assert weekday_morning > weekend_morning
