"""Robustness: the simulator and pipeline hold up under varied configs.

Property-style sweeps over configuration space (kept tiny so each draw
runs in well under a second): whatever the knobs, the generated trace
stays structurally valid and the pipeline completes with sane outputs.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.dataset import StudyDataset
from repro.core.pipeline import WearableStudy
from repro.logs.validate import validate_trace
from repro.simnet.config import SimulationConfig
from repro.simnet.simulator import Simulator

tiny_configs = st.builds(
    SimulationConfig,
    seed=st.integers(min_value=0, max_value=10_000),
    total_days=st.integers(min_value=14, max_value=35),
    detailed_days=st.integers(min_value=7, max_value=14),
    n_wearable_users=st.integers(min_value=25, max_value=60),
    n_general_users=st.integers(min_value=15, max_value=40),
    data_active_fraction=st.floats(min_value=0.2, max_value=0.8),
    monthly_growth_rate=st.floats(min_value=0.0, max_value=0.05),
    churn_fraction=st.floats(min_value=0.0, max_value=0.15),
    single_location_tx_fraction=st.floats(min_value=0.0, max_value=1.0),
    through_device_fraction=st.floats(min_value=0.05, max_value=0.4),
    through_device_detectable_fraction=st.floats(min_value=0.3, max_value=0.9),
    sectors_x=st.just(8),
    sectors_y=st.just(8),
    box_km=st.just(100.0),
)


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(config=tiny_configs)
def test_any_config_yields_a_valid_trace(config):
    output = Simulator(config).run()
    dataset = StudyDataset.from_simulation(output)
    report = validate_trace(dataset)
    assert report.ok, report.summary()


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(config=tiny_configs)
def test_pipeline_completes_with_sane_outputs(config):
    output = Simulator(config).run()
    study = WearableStudy(StudyDataset.from_simulation(output))

    adoption = study.adoption
    assert 0.0 <= adoption.data_active_fraction <= 1.0
    assert 0.0 <= adoption.abandoned_fraction <= 1.0
    assert all(count >= 0 for count in adoption.daily_counts)

    # Wearable traffic can legitimately be empty at extreme configs;
    # activity analysis must either succeed or fail cleanly.
    dataset = study.dataset
    if (dataset.wearable_proxy_mask & dataset.detailed_proxy_mask).any():
        activity = study.activity
        assert activity.median_tx_bytes > 0
        assert 0.0 <= activity.fraction_tx_under_10kb <= 1.0
        assert activity.mean_active_days_per_week >= 0.0
    else:
        with pytest.raises(ValueError):
            study.activity

    mobility = study.mobility
    assert mobility.mean_user_displacement_wearable_km >= 0.0
    assert 0.0 <= mobility.single_tx_location_fraction <= 1.0


def test_degenerate_single_location_everyone():
    """single_location_tx_fraction=1: the measured share saturates."""
    config = SimulationConfig.small(seed=9)
    from dataclasses import replace

    config = replace(config, single_location_tx_fraction=1.0)
    output = Simulator(config).run()
    study = WearableStudy(StudyDataset.from_simulation(output))
    assert study.mobility.single_tx_location_fraction > 0.9


def test_zero_growth_configuration():
    """A flat adoption target measures near-zero growth.

    Uses a longer window and a larger cohort than the ``small`` preset:
    over a few weeks the adopter wave that compensates fading users hasn't
    fully balanced out yet, and per-day counts of ~50 users carry several
    percent of binomial noise.
    """
    from dataclasses import replace

    config = replace(
        SimulationConfig.small(seed=4),
        total_days=84,
        detailed_days=14,
        n_wearable_users=200,
        monthly_growth_rate=0.0,
        churn_fraction=0.0,
    )
    output = Simulator(config).run()
    study = WearableStudy(StudyDataset.from_simulation(output))
    assert abs(study.adoption.monthly_growth_percent) < 3.0
