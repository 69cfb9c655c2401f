"""Tests for the device-model analysis."""

import pytest

from repro.devicedb.tac import make_imei
from tests.core.helpers import day_ts, make_dataset, make_window, mme, proxy, panel

WATCH_A = make_imei("35884708", 1)  # Samsung Gear S3
WATCH_B = make_imei("35884708", 2)  # second Gear S3
WATCH_LG = make_imei("35291808", 1)  # LG Urbane


class TestExactValues:
    def build(self):
        records = [
            mme(day_ts(0, 100), "a", imei=WATCH_A),
            mme(day_ts(1, 100), "a", imei=WATCH_A),
            mme(day_ts(0, 100), "b", imei=WATCH_B),
            mme(day_ts(7, 100), "c", imei=WATCH_LG),  # appears in week 1
        ]
        traffic = [proxy(day_ts(1, 200), "a", imei=WATCH_A)]
        return make_dataset(traffic, records, window=make_window(28, 14))

    def test_model_counts(self):
        result = panel("devices", self.build())
        assert result.total_devices == 3
        by_model = {row.model: row for row in result.per_model}
        assert by_model["Gear S3"].devices == 2
        assert by_model["Watch Urbane LTE"].devices == 1

    def test_data_activation_per_model(self):
        result = panel("devices", self.build())
        gear = next(row for row in result.per_model if row.model == "Gear S3")
        assert gear.data_active_devices == 1
        assert gear.data_active_fraction == pytest.approx(0.5)

    def test_manufacturer_share(self):
        result = panel("devices", self.build())
        assert result.manufacturer_share["Samsung"] == pytest.approx(2 / 3)
        assert result.manufacturer_share["LG"] == pytest.approx(1 / 3)

    def test_weekly_share_series(self):
        result = panel("devices", self.build())
        samsung = result.weekly_manufacturer_share["Samsung"]
        assert samsung[0] == pytest.approx(1.0)  # only Samsung in week 0

    def test_empty_raises(self):
        dataset = make_dataset([], [], window=make_window())
        with pytest.raises(ValueError, match="no wearable"):
            panel("devices", dataset)


class TestOnSimulation:
    @pytest.fixture(scope="class")
    def result(self, medium_dataset):
        return panel("devices", medium_dataset)

    def test_samsung_lg_dominate(self, result):
        share = result.manufacturer_share
        assert share.get("Samsung", 0) + share.get("LG", 0) > 0.7

    def test_tizen_is_the_top_os(self, result):
        # Samsung's Tizen watches lead the §3.2 market.
        assert max(result.os_share, key=result.os_share.get) == "Tizen"

    def test_shares_sum_to_one(self, result):
        assert sum(result.manufacturer_share.values()) == pytest.approx(1.0)
        assert sum(result.os_share.values()) == pytest.approx(1.0)

    def test_weekly_shares_are_stable_in_baseline(self, result):
        samsung = result.weekly_manufacturer_share["Samsung"]
        observed = [value for value in samsung if value > 0]
        assert max(observed) - min(observed) < 0.2

    def test_per_model_sorted(self, result):
        counts = [row.devices for row in result.per_model]
        assert counts == sorted(counts, reverse=True)


class TestAppleLaunchVisibility:
    def test_apple_share_rises_after_launch(self):
        from repro.core.dataset import StudyDataset
        from repro.simnet.config import SimulationConfig
        from repro.simnet.scenarios import (
            LaunchScenario,
            simulate_apple_watch_launch,
        )

        config = SimulationConfig.medium(seed=8)
        launch_day = config.total_days // 2
        output = simulate_apple_watch_launch(
            config, LaunchScenario(launch_day=launch_day)
        )
        result = panel("devices", StudyDataset.from_simulation(output))
        apple = result.weekly_manufacturer_share.get("Apple")
        assert apple is not None
        launch_week = launch_day // 7
        assert max(apple[:launch_week]) == 0.0
        assert apple[-1] > 0.05
