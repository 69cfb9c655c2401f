"""Section 4.2 — weekly pattern and relative wearable usage.

The paper's §4.2 makes two claims not carried by a figure:

* absolute wearable activity is "almost constant across days" of the week;
* relative to total ISP traffic, wearable usage is "slightly higher on
  weekends and evenings".

This module regenerates both as tables.
"""

import pytest

from benchmarks.conftest import emit, fresh_panel
from repro.core.report import format_comparison, format_table
from repro.core.weekly import WEEKDAY_NAMES


@pytest.fixture(scope="module")
def result(paper_study):
    return paper_study.weekly


def test_weekly_flatness(benchmark, paper_study, result, report_dir):
    benchmark.pedantic(
        fresh_panel, args=("weekly", paper_study.dataset), rounds=2, iterations=1
    )
    rows = [
        (
            WEEKDAY_NAMES[dow],
            result.weekday_tx_index[dow],
            result.weekday_bytes_index[dow],
            result.weekday_users_index[dow],
        )
        for dow in range(7)
    ]
    text = format_table(
        ("day", "tx index", "bytes index", "users index"),
        rows,
        title="§4.2 — per-weekday wearable activity (1.0 = weekly mean)",
    )
    text += (
        f"\n\nmax deviation from flat: "
        f"{100 * result.max_daily_tx_deviation:.1f}% "
        "(paper: 'almost constants across days')"
    )
    emit(report_dir, "sec42_weekly_flatness", text)
    assert result.max_daily_tx_deviation < 0.35


def test_relative_usage(benchmark, result, report_dir):
    benchmark.pedantic(
        lambda: list(result.relative_usage_by_hour), rounds=1, iterations=1
    )
    rows = [
        (f"{hour:02d}h", result.relative_usage_by_hour[hour]) for hour in range(24)
    ]
    text = format_table(
        ("hour", "wearable share of ISP traffic (1.0 = mean)"),
        rows,
        title="§4.2 — relative wearable usage by hour",
    )
    text += "\n\n" + format_comparison(
        "§4.2 relative-usage headlines",
        [
            (
                "weekend vs weekday share",
                "slightly higher",
                f"{result.weekend_relative_boost:.2f}x",
            ),
            (
                "evening vs rest-of-day share",
                "higher",
                f"{result.evening_relative_boost:.2f}x",
            ),
        ],
    )
    emit(report_dir, "sec42_relative_usage", text)
    assert result.weekend_relative_boost > 1.02
    assert result.evening_relative_boost > 1.3


def test_evening_hours_above_average(benchmark, result):
    benchmark.pedantic(lambda: result.evening_relative_boost, rounds=1, iterations=1)
    evening_mean = sum(result.relative_usage_by_hour[18:24]) / 6
    assert evening_mean > 1.0
