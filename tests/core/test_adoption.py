"""Exact-value tests for the adoption analysis (§4.1, Fig. 2)."""

import pytest

from tests.core.helpers import day_ts, make_dataset, make_window, mme, proxy, panel


def presence(subscriber: str, days: list[int]):
    """One attach per listed day."""
    return [mme(day_ts(day, 3600.0), subscriber) for day in days]


class TestDailyCounts:
    def test_counts_distinct_users_per_day(self):
        records = presence("a", [0, 1]) + presence("b", [1]) + [
            mme(day_ts(1, 7200.0), "a")  # second event same day: no double count
        ]
        dataset = make_dataset([], records, window=make_window(28, 14))
        result = panel("adoption", dataset)
        assert result.daily_counts[0] == 1
        assert result.daily_counts[1] == 2
        assert result.daily_counts[2] == 0

    def test_normalisation_by_final_day(self):
        records = presence("a", [0, 27]) + presence("b", [27])
        dataset = make_dataset([], records, window=make_window(28, 14))
        result = panel("adoption", dataset)
        assert result.normalized_daily[-1] == 1.0
        assert result.normalized_daily[0] == 0.5

    def test_events_outside_window_ignored(self):
        records = presence("a", [0]) + [mme(day_ts(99), "ghost")]
        dataset = make_dataset([], records, window=make_window(28, 14))
        result = panel("adoption", dataset)
        assert all(
            "ghost" not in str(count) for count in result.daily_counts
        )  # ghost never counted
        assert sum(result.daily_counts) == 1


class TestGrowth:
    def test_flat_population_zero_growth(self):
        records = []
        for day in range(28):
            records += presence("a", [day]) + presence("b", [day])
        dataset = make_dataset([], records, window=make_window(28, 14))
        result = panel("adoption", dataset)
        assert result.total_growth_percent == pytest.approx(0.0)
        assert result.monthly_growth_percent == pytest.approx(0.0)

    def test_doubling_population(self):
        records = []
        for day in range(28):
            records += presence("a", [day])
            if day >= 21:
                records += presence("b", [day])
        dataset = make_dataset([], records, window=make_window(28, 14))
        result = panel("adoption", dataset)
        assert result.total_growth_percent == pytest.approx(100.0)


class TestRetention:
    def test_first_vs_last_week(self):
        window = make_window(56, 14)
        records = []
        # "keeper" present first and last week; "leaver" only early.
        records += presence("keeper", [0, 55])
        records += presence("leaver", [0, 5])
        dataset = make_dataset([], records, window=window)
        result = panel("adoption", dataset)
        assert result.first_week_users == 2
        assert result.still_active_fraction == pytest.approx(0.5)
        assert result.abandoned_fraction == pytest.approx(0.5)

    def test_mid_window_user_not_abandoned(self):
        window = make_window(56, 14)
        # Last seen on day 40 of 56: inside the 28-day quiet threshold.
        records = presence("mid", [0, 40])
        dataset = make_dataset([], records, window=window)
        result = panel("adoption", dataset)
        assert result.abandoned_fraction == 0.0
        assert result.still_active_fraction == 0.0


class TestDataActive:
    def test_fraction_of_registered_users_with_traffic(self):
        records = presence("a", [0]) + presence("b", [0]) + presence("c", [0])
        traffic = [proxy(day_ts(1), "a")]
        dataset = make_dataset(traffic, records, window=make_window(28, 14))
        result = panel("adoption", dataset)
        assert result.data_active_fraction == pytest.approx(1 / 3)

    def test_traffic_from_unregistered_device_ignored(self):
        records = presence("a", [0])
        traffic = [proxy(day_ts(1), "never-registered")]
        dataset = make_dataset(traffic, records, window=make_window(28, 14))
        result = panel("adoption", dataset)
        assert result.data_active_fraction == 0.0


class TestOnSimulation:
    """Calibration-band checks against the generative targets."""

    def test_growth_positive(self, medium_study):
        result = medium_study.adoption
        assert result.monthly_growth_percent > 0.0

    def test_data_active_near_034(self, medium_study):
        result = medium_study.adoption
        assert 0.2 <= result.data_active_fraction <= 0.5

    def test_retention_bands(self, medium_study):
        result = medium_study.adoption
        assert 0.6 <= result.still_active_fraction <= 0.95
        assert 0.0 <= result.abandoned_fraction <= 0.2
