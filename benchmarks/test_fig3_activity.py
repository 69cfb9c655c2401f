"""Figure 3 — user activity analysis (§4.2-4.3).

Regenerates all four panels:
* Fig. 3(a): hourly active-user/transaction/data profiles, weekday vs
  weekend (commute-hour divergence);
* Fig. 3(b): CDFs of active days per week and active hours per day;
* Fig. 3(c): the transaction-size CDF centred near 3 KB;
* Fig. 3(d): transactions-per-hour vs active-hours-per-day trend.
"""

import pytest

from benchmarks.conftest import emit, fresh_panel
from repro.core.report import format_cdf, format_comparison, format_hourly, format_table


@pytest.fixture(scope="module")
def result(paper_dataset):
    return fresh_panel("activity", paper_dataset)


def test_fig3a_hourly_profiles(benchmark, paper_dataset, result, report_dir):
    benchmark.pedantic(
        fresh_panel, args=("activity", paper_dataset), rounds=3, iterations=1
    )
    text = format_hourly(
        "Fig. 3(a) — hourly transactions (fraction of weekly total)",
        result.hourly.weekday_tx,
        result.hourly.weekend_tx,
    )
    text += "\n\n" + format_hourly(
        "Fig. 3(a) — hourly active users (fraction of weekly actives)",
        result.hourly.weekday_users,
        result.hourly.weekend_users,
    )
    emit(report_dir, "fig3a_hourly", text)
    # Commuting hours are a weekday phenomenon (the paper's only
    # weekday/weekend difference).
    weekday_commute = sum(result.hourly.weekday_tx[6:9])
    weekend_commute = sum(result.hourly.weekend_tx[6:9])
    assert weekday_commute > weekend_commute


def test_fig3b_active_days_and_hours(benchmark, result, report_dir):
    benchmark.pedantic(lambda: result.active_hours_per_day.series(100), rounds=1, iterations=1)
    text = format_cdf(
        result.active_days_per_week, "active days/week", points=10
    )
    text += "\n\n" + format_cdf(
        result.active_hours_per_day, "active hours/day", points=10
    )
    text += "\n\n" + format_comparison(
        "Fig. 3(b) headlines",
        [
            ("mean active days/week", "1", f"{result.mean_active_days_per_week:.2f}"),
            ("mean active hours/day", "3", f"{result.mean_active_hours_per_day:.2f}"),
            (
                "users >10 h/day",
                "7%",
                f"{100 * result.fraction_users_over_10h:.1f}%",
            ),
            (
                "users <5 h/day",
                "80%",
                f"{100 * result.fraction_users_under_5h:.1f}%",
            ),
            (
                "daily share of weekly actives",
                "35%",
                f"{100 * result.daily_active_share_of_weekly:.1f}%",
            ),
        ],
    )
    emit(report_dir, "fig3b_days_hours", text)
    assert 0.6 <= result.mean_active_days_per_week <= 1.6
    assert 2.0 <= result.mean_active_hours_per_day <= 4.5
    assert result.fraction_users_under_5h >= 0.7
    assert result.fraction_users_over_10h <= 0.12


def test_fig3c_transaction_sizes(benchmark, result, report_dir):
    benchmark.pedantic(lambda: result.transaction_sizes.series(100), rounds=1, iterations=1)
    text = format_cdf(result.transaction_sizes, "bytes", points=10)
    text += "\n\n" + format_comparison(
        "Fig. 3(c) headlines",
        [
            ("median transaction", "~3 KB", f"{result.median_tx_bytes / 1000:.1f} KB"),
            (
                "transactions <10 KB",
                "80%",
                f"{100 * result.fraction_tx_under_10kb:.1f}%",
            ),
            ("mean hourly tx/user", "(plotted)", f"{result.hourly_tx_per_user.mean:.1f}"),
            (
                "mean hourly KB/user",
                "(plotted)",
                f"{result.hourly_bytes_per_user.mean / 1000:.1f}",
            ),
        ],
    )
    emit(report_dir, "fig3c_tx_sizes", text)
    assert 2_000 <= result.median_tx_bytes <= 6_000
    assert 0.7 <= result.fraction_tx_under_10kb <= 0.92


def test_fig3d_rate_vs_hours(benchmark, result, report_dir):
    benchmark.pedantic(lambda: list(result.tx_rate_vs_hours), rounds=1, iterations=1)
    rows = [
        (f"{t.bin_low:.1f}-{t.bin_high:.1f} h", t.count, t.mean_y)
        for t in result.tx_rate_vs_hours
    ]
    text = format_table(
        ("active hours/day", "users", "mean tx per active hour"),
        rows,
        title="Fig. 3(d) — transactions/hour vs active hours/day",
    )
    text += f"\n\nPearson correlation: {result.tx_rate_hours_correlation:.3f}"
    emit(report_dir, "fig3d_rate_vs_hours", text)
    # The paper reports "a clear correlation": positive, rising trend.
    assert result.tx_rate_hours_correlation > 0.15
    trend = result.tx_rate_vs_hours
    assert trend[-1].mean_y > trend[0].mean_y
