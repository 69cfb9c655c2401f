"""Extension — the device-model view behind §3.2/§4.1.

"Most users are using LG and Samsung SIM-enabled watches."  This module
regenerates the device census as an analysis: model market shares, OS
split, per-model cellular-data activation, and the weekly manufacturer
share series (flat in the baseline; the Apple-launch scenario bends it).
"""

import pytest

from benchmarks.conftest import emit, fresh_panel
from repro.core.report import format_table


@pytest.fixture(scope="module")
def result(paper_dataset):
    return fresh_panel("devices", paper_dataset)


def test_device_market_view(benchmark, paper_dataset, result, report_dir):
    benchmark.pedantic(
        fresh_panel, args=("devices", paper_dataset), rounds=2, iterations=1
    )
    text = format_table(
        ("model", "manufacturer", "OS", "devices", "data-active"),
        [
            (
                row.model,
                row.manufacturer,
                row.os,
                row.devices,
                f"{100 * row.data_active_fraction:.0f}%",
            )
            for row in result.per_model
        ],
        title="Extension — wearable models on the network",
    )
    text += "\n\n" + format_table(
        ("manufacturer", "share"),
        sorted(
            result.manufacturer_share.items(),
            key=lambda kv: kv[1],
            reverse=True,
        ),
        title="Manufacturer share",
    )
    text += "\n\n" + format_table(
        ("OS", "share"),
        sorted(result.os_share.items(), key=lambda kv: kv[1], reverse=True),
        title="OS share",
    )
    emit(report_dir, "ext_devices", text)


def test_samsung_lg_dominate(benchmark, result):
    benchmark.pedantic(lambda: result.manufacturer_share, rounds=1, iterations=1)
    share = result.manufacturer_share
    assert share["Samsung"] + share["LG"] > 0.8
    assert share["Samsung"] == max(share.values())


def test_activation_is_model_independent(benchmark, result):
    """Data activation is a user trait, not a device trait, in this
    population — per-model activation rates cluster around the global 34%."""
    benchmark.pedantic(lambda: result.per_model, rounds=1, iterations=1)
    meaningful = [row for row in result.per_model if row.devices >= 30]
    assert meaningful
    for row in meaningful:
        assert 0.2 <= row.data_active_fraction <= 0.5, row


def test_weekly_shares_flat_without_a_launch(benchmark, result):
    benchmark.pedantic(
        lambda: result.weekly_manufacturer_share, rounds=1, iterations=1
    )
    samsung = [
        value
        for value in result.weekly_manufacturer_share["Samsung"]
        if value > 0
    ]
    assert max(samsung) - min(samsung) < 0.1
