"""Section 6 — through-device wearable fingerprinting (conclusion).

Regenerates the preliminary through-device analysis: detection of Fitbit /
Xiaomi / AccuWeather / Strava / Runtastic sync traffic in phone flows,
scale-up by the ~16% market coverage, and the behaviour comparison
(similar activity and mobility to SIM users, more modern handsets).

Also serves as the identification ablation: TAC-based identification
(§3.2) vs traffic fingerprinting (§6) on the same population.
"""

import pytest

from benchmarks.conftest import emit, fresh_panel
from repro.core.report import format_comparison, format_table


@pytest.fixture(scope="module")
def result(paper_study):
    return paper_study.through_device


def test_through_device_detection(benchmark, paper_study, result, report_dir):
    benchmark.pedantic(
        fresh_panel,
        args=("through_device", paper_study.dataset),
        rounds=2,
        iterations=1,
    )
    text = format_table(
        ("kind", "detected users"),
        sorted(result.detected_by_kind.items()),
        title="Section 6 — fingerprinted through-device wearables",
    )
    text += "\n\n" + format_comparison(
        "Section 6 headlines",
        [
            ("detected users", "hundreds of thousands", result.detected_users),
            (
                "assumed fingerprint coverage",
                "16%",
                "16%",
            ),
            (
                "estimated total TD users",
                "~6x detected",
                f"{result.estimated_total_td_users:.0f}",
            ),
            (
                "TD vs other: daily tx",
                "similar to SIM users (higher)",
                f"{result.mean_daily_tx_td:.2f} vs {result.mean_daily_tx_other:.2f}",
            ),
            (
                "TD vs other: displacement",
                "similar to SIM users (higher)",
                f"{result.mean_displacement_td_km:.1f} vs {result.mean_displacement_other_km:.1f} km",
            ),
            (
                "TD vs other: phone release year",
                "relatively modern",
                f"{result.mean_phone_year_td:.1f} vs {result.mean_phone_year_other:.1f}",
            ),
        ],
    )
    emit(report_dir, "conclusion_throughdevice", text)
    assert result.detected_users > 0
    assert result.estimated_total_td_users > result.detected_users


def test_td_users_behave_like_sim_wearable_users(benchmark, result):
    benchmark.pedantic(lambda: (result.mean_daily_tx_td, result.mean_displacement_td_km), rounds=1, iterations=1)
    assert result.mean_daily_tx_td > result.mean_daily_tx_other
    assert result.mean_displacement_td_km > result.mean_displacement_other_km


def test_td_users_have_modern_phones(benchmark, result):
    benchmark.pedantic(lambda: result.mean_phone_year_td, rounds=1, iterations=1)
    assert result.mean_phone_year_td >= result.mean_phone_year_other


def test_identification_ablation_tac_vs_fingerprint(
    benchmark, paper_study, result, report_dir
):
    """Ablation: §3.2 TAC identification vs §6 traffic fingerprinting."""
    benchmark.pedantic(lambda: paper_study.census, rounds=1, iterations=1)
    census = paper_study.census
    text = format_table(
        ("method", "wearables identified", "notes"),
        [
            (
                "TAC / device DB (§3.2)",
                census.total_devices,
                "exact; only SIM wearables",
            ),
            (
                "traffic fingerprint (§6)",
                result.detected_users,
                f"~16% coverage; est. total {result.estimated_total_td_users:.0f}",
            ),
        ],
        title="Ablation — wearable identification methods",
    )
    emit(report_dir, "ablation_identification", text)
    assert census.total_devices > 0
    assert result.detected_users > 0
