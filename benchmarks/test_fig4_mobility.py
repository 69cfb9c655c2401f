"""Figure 4(c-d) — mobility of wearable users vs the customer base (§4.4).

Regenerates:
* Fig. 4(c): max-displacement CDFs (wearable users roughly twice as
  mobile; ~20 km/day; 90% under 30 km; +70% dwell-entropy; 60% of data
  users transacting from a single location);
* Fig. 4(d): displacement vs hourly transaction rate.
"""

import pytest

from benchmarks.conftest import emit, fresh_panel
from repro.core.report import format_cdf, format_comparison, format_table


@pytest.fixture(scope="module")
def result(paper_dataset):
    return fresh_panel("mobility", paper_dataset)


def test_fig4c_max_displacement(benchmark, paper_dataset, result, report_dir):
    benchmark.pedantic(
        fresh_panel, args=("mobility", paper_dataset), rounds=2, iterations=1
    )
    text = format_cdf(
        result.wearable_user_displacement, "wearable users km", points=10
    )
    text += "\n\n" + format_cdf(
        result.general_user_displacement, "general users km", points=10
    )
    text += "\n\n" + format_comparison(
        "Fig. 4(c) headlines",
        [
            (
                "wearable user-day mean",
                "20 km",
                f"{result.mean_daily_displacement_wearable_km:.1f} km",
            ),
            (
                "wearable per-user mean",
                "31 km",
                f"{result.mean_user_displacement_wearable_km:.1f} km",
            ),
            (
                "general per-user mean",
                "16 km",
                f"{result.mean_user_displacement_general_km:.1f} km",
            ),
            (
                "wearable/general ratio",
                "~1.9x",
                f"{result.mean_user_displacement_wearable_km / result.mean_user_displacement_general_km:.2f}x",
            ),
            (
                "users <30 km",
                "90%",
                f"{100 * result.fraction_users_under_30km:.1f}%",
            ),
            (
                "entropy excess",
                "+70%",
                f"+{result.entropy_excess_percent:.0f}%",
            ),
            (
                "single tx location",
                "60%",
                f"{100 * result.single_tx_location_fraction:.1f}%",
            ),
        ],
    )
    emit(report_dir, "fig4c_displacement", text)
    # Shape: wearable users are roughly twice as mobile, high single-
    # location share, large positive entropy gap.
    ratio = (
        result.mean_user_displacement_wearable_km
        / result.mean_user_displacement_general_km
    )
    assert 1.5 <= ratio <= 3.2
    assert 12.0 <= result.mean_daily_displacement_wearable_km <= 30.0
    assert result.fraction_users_under_30km >= 0.75
    assert 40.0 <= result.entropy_excess_percent <= 110.0
    assert 0.45 <= result.single_tx_location_fraction <= 0.75


def test_fig4d_displacement_vs_activity(benchmark, result, report_dir):
    benchmark.pedantic(lambda: list(result.displacement_vs_tx_rate), rounds=1, iterations=1)
    rows = [
        (f"{t.bin_low:.0f}-{t.bin_high:.0f} km", t.count, t.mean_y)
        for t in result.displacement_vs_tx_rate
    ]
    text = format_table(
        ("daily displacement", "users", "mean tx per active hour"),
        rows,
        title="Fig. 4(d) — displacement vs hourly activity",
    )
    text += f"\n\nPearson correlation: {result.displacement_tx_correlation:.3f}"
    emit(report_dir, "fig4d_mobility_activity", text)
    # "users traveling a longer distance are the ones generating more
    # transactions and data per hour"
    assert result.displacement_tx_correlation > 0.05
