"""Figure 5 — per-app popularity and usage (§5.1).

Regenerates:
* Fig. 5(a): daily associated users and used-days per user, per app,
  most popular first (Weather / Google-Maps / Accuweather at the top,
  payment apps high, exponential decay);
* Fig. 5(b): frequency of usage, transactions and data shares per app.
"""

import pytest

from benchmarks.conftest import emit, fresh_panel
from repro.core.report import format_comparison, format_table

TOP_N = 30


@pytest.fixture(scope="module")
def result(paper_study):
    return paper_study.apps


def test_fig5a_app_popularity(benchmark, paper_study, result, report_dir):
    benchmark.pedantic(
        fresh_panel,
        args=("apps", paper_study.dataset, paper_study),
        rounds=3,
        iterations=1,
    )
    rows = [
        (row.app, row.daily_users_pct, row.used_days_per_user_pct)
        for row in result.per_app[:TOP_N]
    ]
    text = format_table(
        ("app", "daily users % of all daily users", "used days per user %"),
        rows,
        title=f"Fig. 5(a) — top {TOP_N} apps by daily associated users",
    )
    emit(report_dir, "fig5a_popularity", text)

    top5 = [row.app for row in result.per_app[:5]]
    # Weather apps lead the ranking, as in the paper.
    assert "Weather" in top5
    assert result.per_app[0].app in ("Weather", "Accuweather", "Messenger")
    # Payment systems near the top of the rank (paper: top-10).
    top15 = [row.app for row in result.per_app[:15]]
    assert "Samsung-Pay" in top15 or "Android-Pay" in top15
    # Exponential-looking decay: top app dwarfs the mid-tail.
    mid = result.per_app[min(30, len(result.per_app) - 1)]
    assert result.per_app[0].daily_users_pct > 10 * mid.daily_users_pct


def test_fig5b_usage_tx_data(benchmark, result, report_dir):
    benchmark.pedantic(lambda: sorted(result.per_app, key=lambda r: r.usage_freq_pct, reverse=True), rounds=1, iterations=1)
    rows = [
        (row.app, row.usage_freq_pct, row.tx_pct, row.data_pct)
        for row in sorted(result.per_app, key=lambda r: r.usage_freq_pct, reverse=True)[
            :TOP_N
        ]
    ]
    text = format_table(
        ("app", "usage freq %", "transactions %", "data %"),
        rows,
        title=f"Fig. 5(b) — top {TOP_N} apps by frequency of usage",
    )
    emit(report_dir, "fig5b_usage", text)

    by_app = {row.app: row for row in result.per_app}
    # Notification apps: many transactions, little data.
    messenger = by_app["Messenger"]
    assert messenger.tx_pct > messenger.data_pct
    # Streaming/messaging-media apps: the opposite.
    whatsapp = by_app["WhatsApp"]
    assert whatsapp.data_pct > whatsapp.tx_pct


def test_fig5_headline_app_counts(benchmark, result, report_dir):
    benchmark.pedantic(lambda: result.apps_per_user.series(50), rounds=1, iterations=1)
    text = format_comparison(
        "Section 4.3 app headcounts",
        [
            ("mean internet apps per user", "8", f"{result.mean_apps_per_user:.1f}"),
            (
                "users with <20 apps",
                "90%",
                f"{100 * result.fraction_users_under_20_apps:.1f}%",
            ),
            (
                "max apps on one user",
                ">100 (installed)",
                f"{result.apps_per_user.maximum:.0f} (observed)",
            ),
            (
                "one-app-per-day users",
                "93%",
                f"{100 * result.fraction_single_app_users:.1f}%",
            ),
        ],
    )
    emit(report_dir, "fig5_headcounts", text)
    assert 4.0 <= result.mean_apps_per_user <= 12.0
    assert 0.85 <= result.fraction_users_under_20_apps <= 0.98
    assert result.fraction_single_app_users >= 0.7
