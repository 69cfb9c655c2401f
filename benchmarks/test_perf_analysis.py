"""Analysis benchmarks: batch pipeline vs sharded map-reduce.

The parallel layer's contract is *memory*, not raw CPU: every shard
worker re-scans the trace but only retains its own shard's records, so
peak residency is the largest shard while the batch path holds the whole
trace.  These benchmarks time three configurations over one exported
``medium`` trace:

* the classic batch pipeline (load everything, ``run_all``) — baseline;
* the serial map-reduce fallback (``workers=1``) — same partials and
  merge, so its overhead over batch is the price of shard re-scanning;
* the process-pool run — the wall-clock win when cores are available.

Each run also asserts the differential contract on the spot: every
report field merges exactly, so the merged report must equal the batch
report as a whole, bit for bit.
"""

import os

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
    """Map-reduce with workers=1: measures the sharding overhead alone."""

    def run():
        return analyze_parallel(analysis_trace, shards=SHARDS, workers=1)

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.report == batch_report
    total = result.proxy_rows + result.mme_rows
    assert 0 < result.peak_resident_records < total


def test_perf_parallel_pool(benchmark, analysis_trace, batch_report):
    """Map-reduce over a process pool; exactness must survive the pool."""
    workers = min(SHARDS, os.cpu_count() or 1)

    def run():
        return analyze_parallel(analysis_trace, shards=SHARDS, workers=workers)

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.report == batch_report
    assert result.workers == workers


def test_parallel_pool_speedup_over_fallback(analysis_trace):
    """With >=4 cores the pool must beat the serial fallback.

    Generous factor (1.2x with 4 workers) because CI boxes share cores;
    single-core machines only check that both paths agree.
    """
    import time

    started = time.perf_counter()
    serial = analyze_parallel(analysis_trace, shards=SHARDS, workers=1)
    serial_s = time.perf_counter() - started

    started = time.perf_counter()
    pooled = analyze_parallel(analysis_trace, shards=SHARDS, workers=SHARDS)
    pooled_s = time.perf_counter() - started

    assert pooled.report == serial.report  # bit-identical, any worker count
    if (os.cpu_count() or 1) >= SHARDS:
        assert pooled_s * 1.2 < serial_s, (
            f"expected >=1.2x speedup with {SHARDS} workers: "
            f"serial {serial_s:.2f}s vs pooled {pooled_s:.2f}s"
        )
