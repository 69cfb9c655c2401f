"""Figure 7 — transactions and data during a single app usage (§5.2).

Regenerates the per-app single-usage table: messaging/streaming apps
(WhatsApp, Deezer, Snapchat) move the most data per usage even with
moderate transaction counts, while payment and notification apps form a
long light tail.
"""

import pytest

from benchmarks.conftest import emit, fresh_panel
from repro.core.report import format_table

HEAVY_APPS = {"WhatsApp", "Deezer", "Snapchat", "Spotify"}
LIGHT_APPS = {"Samsung-Pay", "Android-Pay", "S-Voice", "TrueCaller"}


@pytest.fixture(scope="module")
def rows(paper_study):
    return paper_study.domains.per_app_usage


def test_fig7_single_usage_table(benchmark, paper_study, rows, report_dir):
    benchmark.pedantic(
        fresh_panel,
        args=("domains", paper_study.dataset, paper_study),
        rounds=3,
        iterations=1,
    )
    table = format_table(
        ("app", "tx / usage", "KB / usage", "usages"),
        [
            (row.app, row.mean_tx_per_usage, row.mean_kb_per_usage, row.usage_count)
            for row in rows
        ],
        title="Fig. 7 — data and transactions during a single usage",
    )
    emit(report_dir, "fig7_single_usage", table)
    assert rows, "no sessions produced"


def test_fig7_heavy_apps_lead(benchmark, rows):
    benchmark.pedantic(lambda: rows[:6], rounds=1, iterations=1)
    top6 = {row.app for row in rows[:6]}
    assert top6 & HEAVY_APPS, f"expected heavy apps at the top, got {top6}"


def test_fig7_light_tail(benchmark, rows):
    benchmark.pedantic(lambda: {row.app: row for row in rows}, rounds=1, iterations=1)
    by_app = {row.app: row for row in rows}
    in_table = [app for app in LIGHT_APPS if app in by_app]
    assert in_table, "no light apps observed"
    heavy_floor = min(
        by_app[app].mean_kb_per_usage for app in HEAVY_APPS if app in by_app
    )
    for app in in_table:
        kb = by_app[app].mean_kb_per_usage
        assert kb < 30.0, f"{app} moved {kb:.0f} KB per usage"
        assert kb < heavy_floor / 5.0


def test_fig7_magnitudes(benchmark, rows):
    benchmark.pedantic(lambda: (rows[0], rows[-1]), rounds=1, iterations=1)
    # Paper's y-axis spans ~1 KB to ~1000 KB per usage.
    top = rows[0]
    assert 200.0 <= top.mean_kb_per_usage <= 5_000.0
    bottom = rows[-1]
    assert bottom.mean_kb_per_usage <= 30.0
