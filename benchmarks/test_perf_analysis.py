"""Analysis benchmarks: batch pipeline vs sharded map-reduce.

The sharded map-reduce loads the trace once and folds one account shard
at a time in process, so each shard step holds only its own shard's
rows on top of the trace's columns.  These benchmarks time two
configurations over one exported ``medium`` trace:

* the classic batch pipeline (load everything, ``run_all``) — baseline;
* the 4-shard map-reduce — same partials, merged, so its overhead over
  batch is the price of sharding.

Each run also asserts the differential contract on the spot: every
report field merges exactly, so the merged report must equal the batch
report as a whole, bit for bit.
"""

import pytest

from repro.core.dataset import StudyDataset
from repro.core.parallel import analyze_parallel
from repro.core.pipeline import WearableStudy
from repro.simnet.config import SimulationConfig
from repro.simnet.simulator import Simulator

SEED = 2018
SHARDS = 4


@pytest.fixture(scope="module")
def analysis_trace(tmp_path_factory):
    """The medium simulation exported as a trace directory."""
    out = tmp_path_factory.mktemp("perf-analysis") / "trace"
    Simulator(SimulationConfig.medium(seed=SEED)).run().write(out)
    return out


@pytest.fixture(scope="module")
def batch_report(analysis_trace):
    return WearableStudy(StudyDataset.load(analysis_trace)).run_all()


def test_perf_batch_analysis(benchmark, analysis_trace):
    """Baseline: strict load + full batch pipeline."""

    def run():
        dataset = StudyDataset.load(analysis_trace)
        return WearableStudy(dataset).run_all()

    report = benchmark.pedantic(run, rounds=3, iterations=1)
    assert report.adoption.daily_counts


def test_perf_parallel_serial_fallback(benchmark, analysis_trace, batch_report):
    """The 4-shard map-reduce: measures the sharding overhead alone."""

    def run():
        return analyze_parallel(analysis_trace, shards=SHARDS)

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.report == batch_report
    total = result.proxy_rows + result.mme_rows
    assert 0 < result.peak_resident_records < total
