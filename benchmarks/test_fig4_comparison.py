"""Figure 4(a-b) — wearable owners vs the remaining customers (§4.3).

Regenerates:
* Fig. 4(a): the per-customer byte-total CDFs (normalized by the maximum
  user) with the +26% data / +48% transactions headlines;
* Fig. 4(b): the wearable-over-total traffic share CDF (three orders of
  magnitude; 3% share for ~10% of owners).
"""

import pytest

from benchmarks.conftest import emit, fresh_panel
from repro.core.report import format_cdf, format_comparison


@pytest.fixture(scope="module")
def result(paper_dataset):
    return fresh_panel("comparison", paper_dataset)


def test_fig4a_bytes_comparison(benchmark, paper_dataset, result, report_dir):
    benchmark.pedantic(
        fresh_panel, args=("comparison", paper_dataset), rounds=3, iterations=1
    )
    text = format_cdf(
        result.bytes_cdf_wearable_owner,
        "owner bytes (normalized)",
        points=10,
    )
    text += "\n\n" + format_cdf(
        result.bytes_cdf_general, "general bytes (normalized)", points=10
    )
    text += "\n\n" + format_comparison(
        "Fig. 4(a) headlines",
        [
            ("extra data of owners", "+26%", f"+{result.extra_data_percent:.0f}%"),
            ("extra transactions", "+48%", f"+{result.extra_tx_percent:.0f}%"),
            ("owner accounts", "(thousands)", result.n_wearable_accounts),
            ("general accounts", "(tens of millions)", result.n_general_accounts),
        ],
    )
    emit(report_dir, "fig4a_bytes", text)
    assert 10.0 <= result.extra_data_percent <= 45.0
    assert 25.0 <= result.extra_tx_percent <= 75.0


def test_fig4b_wearable_share(benchmark, result, report_dir):
    benchmark.pedantic(lambda: result.wearable_share.series(100), rounds=1, iterations=1)
    text = format_cdf(result.wearable_share, "wearable/total share", points=10)
    text += "\n\n" + format_comparison(
        "Fig. 4(b) headlines",
        [
            (
                "median orders of magnitude",
                "~3",
                f"{result.median_share_orders_of_magnitude:.1f}",
            ),
            (
                "owners with share >= 3%",
                "10%",
                f"{100 * result.fraction_share_at_least_3pct:.1f}%",
            ),
        ],
    )
    emit(report_dir, "fig4b_share", text)
    # Wearable traffic is orders of magnitude below overall traffic …
    assert 2.0 <= result.median_share_orders_of_magnitude <= 3.5
    # … but a tail of owners leans on the wearable.
    assert 0.03 <= result.fraction_share_at_least_3pct <= 0.25
