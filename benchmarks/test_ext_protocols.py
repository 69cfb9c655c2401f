"""Extension — protocol visibility of wearable traffic (§3.3 context).

The proxy sees "the SNI for HTTPS traffic and the full URL for HTTP"; the
authors' companion work asks whether wearables are ready for HTTPS.  This
extension quantifies the 2017-era answer over the synthetic population:
how much wearable traffic is still cleartext, which app categories leak,
and whether sensitive categories (finance, health, communication) are
TLS-clean.
"""

import pytest

from benchmarks.conftest import emit, fresh_panel
from repro.core.report import format_table


@pytest.fixture(scope="module")
def result(paper_study):
    return paper_study.protocols


def test_protocol_visibility(benchmark, paper_study, result, report_dir):
    benchmark.pedantic(
        fresh_panel,
        args=("protocols", paper_study.dataset, paper_study),
        rounds=3,
        iterations=1,
    )
    category_rows = sorted(
        result.per_category_http.items(), key=lambda kv: kv[1], reverse=True
    )
    text = format_table(
        ("category", "HTTP fraction"),
        category_rows,
        title="Extension — cleartext share per app category",
    )
    text += "\n\n" + format_table(
        ("metric", "value"),
        [
            ("transactions", result.transactions),
            ("HTTPS fraction", result.https_fraction),
            ("HTTP fraction", result.http_fraction),
            ("sensitive-category HTTP fraction", result.sensitive_http_fraction),
            (
                "sensitive apps with cleartext",
                len(result.sensitive_cleartext_apps),
            ),
        ],
        title="Protocol visibility headlines",
    )
    emit(report_dir, "ext_protocols", text)


def test_https_dominates_but_cleartext_persists(benchmark, result):
    benchmark.pedantic(lambda: result.https_fraction, rounds=1, iterations=1)
    assert 0.75 <= result.https_fraction <= 0.98
    assert result.http_fraction >= 0.02


def test_finance_cleanest_category(benchmark, result):
    benchmark.pedantic(
        lambda: result.per_category_http.get("Finance", 0.0), rounds=1, iterations=1
    )
    finance = result.per_category_http.get("Finance", 1.0)
    worst = max(result.per_category_http.values())
    assert finance < worst / 2.0
