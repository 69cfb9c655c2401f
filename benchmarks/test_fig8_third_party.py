"""Figure 8 — first-party vs third-party domain categories (§5.2).

Regenerates the Application / Utilities / Advertising / Analytics panel
(users, frequency of usage, data as % of daily totals) and checks the
headline: third-party (ads + analytics) data volume sits within an order
of magnitude of first-party volume.
"""

import pytest

from benchmarks.conftest import emit, fresh_panel
from repro.core.report import format_comparison, format_table


@pytest.fixture(scope="module")
def result(paper_study):
    return paper_study.domains


def test_fig8_domain_categories(benchmark, paper_study, result, report_dir):
    benchmark.pedantic(
        fresh_panel,
        args=("domains", paper_study.dataset, paper_study),
        rounds=3,
        iterations=1,
    )
    table = format_table(
        ("domain category", "users %", "frequency %", "data %"),
        [
            (row.category, row.users_pct, row.usage_freq_pct, row.data_pct)
            for row in result.per_domain_category
        ],
        title="Fig. 8 — applications and the services they talk to",
    )
    table += "\n\n" + format_comparison(
        "Fig. 8 headline",
        [
            (
                "third-party/first-party data",
                "same order of magnitude",
                f"{result.third_party_data_ratio:.2f}",
            ),
        ],
    )
    emit(report_dir, "fig8_third_party", table)
    assert {row.category for row in result.per_domain_category} == {
        "application",
        "utilities",
        "advertising",
        "analytics",
    }


def test_fig8_third_party_same_order(benchmark, result):
    benchmark.pedantic(lambda: result.third_party_data_ratio, rounds=1, iterations=1)
    assert 0.05 <= result.third_party_data_ratio <= 1.0


def test_fig8_most_users_touch_third_parties(benchmark, result):
    benchmark.pedantic(lambda: list(result.per_domain_category), rounds=1, iterations=1)
    # Ads/analytics ride along popular free apps, so a large share of
    # users hits them.
    by_category = {row.category: row for row in result.per_domain_category}
    assert by_category["advertising"].users_pct > 30.0
    assert by_category["analytics"].users_pct > 30.0


def test_fig8_application_dominates(benchmark, result):
    benchmark.pedantic(lambda: max(r.data_pct for r in result.per_domain_category), rounds=1, iterations=1)
    by_category = {row.category: row for row in result.per_domain_category}
    assert by_category["application"].data_pct == max(
        row.data_pct for row in result.per_domain_category
    )
    assert by_category["application"].usage_freq_pct > 50.0
