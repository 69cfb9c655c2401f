"""Figure 2 — SIM-enabled wearable adoption over five months (§4.1).

Regenerates:
* Fig. 2(a): the normalized daily-user series (here as weekly samples)
  with the growth-rate headline (+1.5%/month, +9% over five months);
* Fig. 2(b): the first-week vs last-week retention split (7% gone,
  77% still active) and the 34% data-active headline.
"""

import pytest

from benchmarks.conftest import emit, fresh_panel
from repro.core.report import format_comparison, format_table


@pytest.fixture(scope="module")
def result(paper_dataset):
    return fresh_panel("adoption", paper_dataset)


def test_fig2a_user_growth_series(benchmark, paper_dataset, result, report_dir):
    benchmark.pedantic(
        fresh_panel, args=("adoption", paper_dataset), rounds=3, iterations=1
    )
    weekly = [
        (f"day {day}", result.normalized_daily[day])
        for day in range(0, len(result.normalized_daily), 7)
    ]
    text = format_table(
        ("study day", "users (normalized to final day)"),
        weekly,
        title="Fig. 2(a) — daily SIM-wearable users, normalized",
    )
    text += "\n\n" + format_comparison(
        "Fig. 2(a) headline growth",
        [
            ("growth %/month", "1.5", f"{result.monthly_growth_percent:.2f}"),
            ("growth % over window", "9", f"{result.total_growth_percent:.1f}"),
            (
                "data-active fraction",
                "0.34",
                f"{result.data_active_fraction:.2f}",
            ),
        ],
    )
    emit(report_dir, "fig2a_adoption", text)
    # Shape assertions: monotone-ish growth of the right magnitude.
    assert 0.5 <= result.monthly_growth_percent <= 4.0
    assert 4.0 <= result.total_growth_percent <= 16.0
    assert 0.25 <= result.data_active_fraction <= 0.45


def test_fig2b_first_vs_last_week(benchmark, result, report_dir):
    benchmark.pedantic(lambda: (result.still_active_fraction, result.abandoned_fraction), rounds=1, iterations=1)
    text = format_comparison(
        "Fig. 2(b) — first week vs last week",
        [
            ("first-week users", "(all initial)", result.first_week_users),
            ("abandoned", "7%", f"{100 * result.abandoned_fraction:.1f}%"),
            (
                "still active in last week",
                "77%",
                f"{100 * result.still_active_fraction:.1f}%",
            ),
        ],
    )
    emit(report_dir, "fig2b_retention", text)
    assert 0.03 <= result.abandoned_fraction <= 0.13
    assert 0.65 <= result.still_active_fraction <= 0.9
