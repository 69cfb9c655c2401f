"""Extension — the Apple Watch launch counterfactual (§4.1 / §6).

"We expect that this rise will be sharper once the Apple watch is
supported by this ISP."  This benchmark runs that counterfactual:
the same operator with and without a mid-window Apple Watch Series 3
launch, analysed by the unchanged §4.1 pipeline, and reports the growth
inflection plus the post-launch device census.
"""

import pytest
from dataclasses import replace

from benchmarks.conftest import PAPER_SEED, emit, fresh_panel
from repro.core.dataset import StudyDataset
from repro.core.report import format_table
from repro.simnet.config import SimulationConfig
from repro.simnet.scenarios import (
    LaunchScenario,
    growth_rates_around,
    simulate_apple_watch_launch,
)
from repro.simnet.simulator import Simulator

#: The scenario only needs the adoption series, so the general population
#: (which exists for the Fig. 4 comparisons) is trimmed to keep the two
#: extra simulations cheap.
SCENARIO_CONFIG = replace(
    SimulationConfig.paper(seed=PAPER_SEED), n_general_users=20
)
LAUNCH_DAY = SCENARIO_CONFIG.total_days // 2


@pytest.fixture(scope="module")
def baseline_adoption():
    output = Simulator(SCENARIO_CONFIG).run()
    return fresh_panel("adoption", StudyDataset.from_simulation(output))


@pytest.fixture(scope="module")
def launch_output():
    return simulate_apple_watch_launch(
        SCENARIO_CONFIG, LaunchScenario(launch_day=LAUNCH_DAY)
    )


@pytest.fixture(scope="module")
def launch_adoption(launch_output):
    return fresh_panel("adoption", StudyDataset.from_simulation(launch_output))


def test_apple_watch_launch_counterfactual(
    benchmark, baseline_adoption, launch_output, launch_adoption, report_dir
):
    benchmark.pedantic(
        growth_rates_around,
        args=(launch_adoption.daily_counts, LAUNCH_DAY),
        rounds=3,
        iterations=1,
    )
    base_before, base_after = growth_rates_around(
        baseline_adoption.daily_counts, LAUNCH_DAY
    )
    launch_before, launch_after = growth_rates_around(
        launch_adoption.daily_counts, LAUNCH_DAY
    )
    census = fresh_panel("census", StudyDataset.from_simulation(launch_output))
    text = format_table(
        ("series", "growth %/mo before", "growth %/mo after"),
        [
            ("baseline operator", base_before, base_after),
            ("with Apple Watch launch", launch_before, launch_after),
        ],
        title=f"Extension — Apple Watch launch at day {LAUNCH_DAY}",
    )
    text += "\n\n" + format_table(
        ("manufacturer", "active wearables"),
        sorted(
            census.devices_per_manufacturer.items(),
            key=lambda kv: kv[1],
            reverse=True,
        ),
        title="Post-launch device census",
    )
    emit(report_dir, "ext_apple_watch", text)

    # The rise is indeed "sharper": post-launch growth clearly exceeds
    # both its own pre-launch rate and the baseline's.
    assert launch_after > launch_before + 1.0
    assert launch_after > base_after + 1.0
    # The baseline has no comparable break.
    assert abs(base_after - base_before) < 2.5


def test_apple_enters_the_census(benchmark, launch_output):
    census = fresh_panel("census", StudyDataset.from_simulation(launch_output))
    benchmark.pedantic(lambda: census.devices_per_manufacturer, rounds=1, iterations=1)
    assert census.devices_per_manufacturer.get("Apple", 0) > 0
    # Samsung/LG still dominate shortly after launch (§3.2's market).
    samsung_lg = census.devices_per_manufacturer.get(
        "Samsung", 0
    ) + census.devices_per_manufacturer.get("LG", 0)
    assert samsung_lg > census.devices_per_manufacturer["Apple"]
