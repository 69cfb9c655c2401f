"""Exact-value and band tests for the weekly-pattern analysis (§4.2)."""

import pytest

from repro.logs.timeutil import SECONDS_PER_HOUR
from tests.core.helpers import (
    PHONE_IMEI,
    WATCH_IMEI,
    day_ts,
    make_dataset,
    make_window,
    proxy,
    panel,
)

# Day 0 of the helper window is Thursday 1970-01-01; the detailed window
# of the 28/14 default starts on day 14 (Thursday).
D = 14


def wtx(day: int, hour: float, subscriber: str = "w", size: int = 1000):
    return proxy(
        day_ts(day, hour * SECONDS_PER_HOUR),
        subscriber,
        imei=WATCH_IMEI,
        bytes_down=size,
    )


def ptx(day: int, hour: float, subscriber: str = "p", size: int = 1000):
    return proxy(
        day_ts(day, hour * SECONDS_PER_HOUR),
        subscriber,
        imei=PHONE_IMEI,
        bytes_down=size,
    )


class TestExactValues:
    def test_flat_week_has_unit_indices(self):
        # One wearable transaction on each of 14 consecutive days.
        records = [wtx(D + offset, 12.0) for offset in range(14)]
        dataset = make_dataset(records, [], window=make_window())
        result = panel("weekly", dataset)
        assert result.weekday_tx_index == pytest.approx([1.0] * 7)
        assert result.max_daily_tx_deviation == pytest.approx(0.0)

    def test_weekday_bucketing(self):
        # Two tx on the first Thursday (day 14), one on Friday (day 15);
        # one full week observed per weekday after day 14..20 — restrict
        # to a 7-day detailed window for exactness.
        window = make_window(total_days=28, detailed_days=14)
        records = [wtx(D, 10.0), wtx(D, 11.0), wtx(D + 1, 10.0)]
        # Pad: one tx every other weekday so no division by zero.
        records += [wtx(D + offset, 9.0) for offset in range(2, 7)]
        dataset = make_dataset(records, [], window=window)
        result = panel("weekly", dataset)
        thursday = 3  # Mon=0 ... Thu=3
        assert result.weekday_tx_index[thursday] == max(result.weekday_tx_index)

    def test_relative_usage_shares(self):
        # Hour 10: 1 wearable + 3 phone tx (share 0.25);
        # hour 20: 1 wearable + 1 phone (share 0.5).
        records = [
            wtx(D, 10.0),
            ptx(D, 10.1),
            ptx(D, 10.2),
            ptx(D, 10.3),
            wtx(D, 20.0),
            ptx(D, 20.1),
        ]
        dataset = make_dataset(records, [], window=make_window())
        result = panel("weekly", dataset)
        by_hour = result.relative_usage_by_hour
        assert by_hour[20] == pytest.approx(2.0 * by_hour[10])
        # Evening share (0.5) vs rest-of-day share (0.25) => boost 2.
        assert result.evening_relative_boost == pytest.approx(2.0)

    def test_weekend_boost(self):
        # Weekday: share 1/2; weekend (day 16 = Saturday): share 2/3.
        records = [
            wtx(D, 10.0),
            ptx(D, 11.0),
            wtx(D + 2, 10.0),
            wtx(D + 2, 12.0),
            ptx(D + 2, 11.0),
        ]
        dataset = make_dataset(records, [], window=make_window())
        result = panel("weekly", dataset)
        assert result.weekend_relative_boost == pytest.approx((2 / 3) / (1 / 2))

    def test_no_wearable_traffic_raises(self):
        dataset = make_dataset([ptx(D, 10.0)], [], window=make_window())
        with pytest.raises(ValueError, match="no wearable"):
            panel("weekly", dataset)

    def test_out_of_window_ignored(self):
        records = [wtx(D, 10.0), wtx(0, 10.0)]
        dataset = make_dataset(records, [], window=make_window())
        result = panel("weekly", dataset)
        assert sum(result.weekday_tx_index) > 0
        # Only the in-window Thursday transaction counts.
        assert result.weekday_tx_index[3] == max(result.weekday_tx_index)


class TestOnSimulation:
    """Bands around the paper's §4.2 claims."""

    def test_no_strong_weekly_pattern(self, medium_study):
        result = medium_study.weekly
        # "all metrics are almost constants across days"
        assert result.max_daily_tx_deviation < 0.5

    def test_relative_usage_higher_in_evenings(self, medium_study):
        result = medium_study.weekly
        assert result.evening_relative_boost > 1.1

    def test_relative_usage_by_hour_normalised(self, medium_study):
        series = medium_study.weekly.relative_usage_by_hour
        assert len(series) == 24
        assert sum(series) / 24 == pytest.approx(1.0, abs=0.05)

    def test_weekend_boost_is_mild(self, medium_study):
        result = medium_study.weekly
        # "slightly higher" — between flat-ish and +60%.
        assert 0.8 <= result.weekend_relative_boost <= 1.6
