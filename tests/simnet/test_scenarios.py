"""Tests for the Apple Watch launch scenario."""

import pytest

from repro.core.dataset import StudyDataset
from repro.core.pipeline import WearableStudy
from repro.simnet.config import SimulationConfig
from repro.simnet.scenarios import (
    APPLE_WATCH_MODEL,
    LaunchScenario,
    growth_rates_around,
    launch_device_database,
    simulate_apple_watch_launch,
)


@pytest.fixture(scope="module")
def launch_output():
    config = SimulationConfig.medium(seed=5)
    return simulate_apple_watch_launch(
        config, LaunchScenario(launch_day=config.total_days // 2)
    )


class TestLaunchDeviceDatabase:
    def test_apple_watch_registered(self):
        database = launch_device_database()
        assert database.lookup_tac(APPLE_WATCH_MODEL.tac) == APPLE_WATCH_MODEL
        assert APPLE_WATCH_MODEL.tac in database.wearable_tacs()

    def test_builtins_still_present(self):
        database = launch_device_database()
        assert database.lookup_tac("35884708") is not None  # Gear S3


class TestScenarioValidation:
    def test_launch_day_bounds(self):
        config = SimulationConfig.small(seed=1)
        with pytest.raises(ValueError, match="launch_day"):
            simulate_apple_watch_launch(
                config, LaunchScenario(launch_day=config.total_days)
            )

    def test_uptake_bounds(self):
        config = SimulationConfig.small(seed=1)
        with pytest.raises(ValueError, match="uptake"):
            simulate_apple_watch_launch(
                config, LaunchScenario(launch_day=10, uptake_fraction=0.0)
            )


class TestLaunchEffects:
    def test_apple_devices_appear_only_after_launch(self, launch_output):
        config = launch_output.config
        launch_ts = (
            config.study_start + (config.total_days // 2) * 86_400
        )
        apple = [
            r
            for r in launch_output.mme_records
            if r.tac == APPLE_WATCH_MODEL.tac
        ]
        assert apple, "no Apple Watch registrations generated"
        assert min(r.timestamp for r in apple) >= launch_ts

    def test_census_sees_apple(self, launch_output):
        census = WearableStudy(StudyDataset.from_simulation(launch_output)).census
        assert census.devices_per_manufacturer.get("Apple", 0) > 0

    def test_growth_accelerates_after_launch(self, launch_output):
        dataset = StudyDataset.from_simulation(launch_output)
        adoption = WearableStudy(dataset).adoption
        break_day = launch_output.config.total_days // 2
        before, after = growth_rates_around(adoption.daily_counts, break_day)
        assert after > before + 1.0  # clearly sharper, in %/month


class TestGrowthRatesAround:
    def test_flat_series(self):
        counts = [100] * 60
        before, after = growth_rates_around(counts, 30)
        assert before == pytest.approx(0.0)
        assert after == pytest.approx(0.0)

    def test_break_detected(self):
        counts = [100] * 30 + [100 + 3 * i for i in range(30)]
        before, after = growth_rates_around(counts, 30)
        assert after > before

    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            growth_rates_around([1, 2, 3], 10)
        with pytest.raises(ValueError):
            growth_rates_around([1] * 20, 3)
