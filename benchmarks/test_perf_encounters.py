"""Encounter-join benchmarks: batch, streaming, and sharded kernels.

The encounter join (§ext, ``repro.core.encounters``) is the only
per-*pair* analysis in the pipeline — worst case quadratic in cell
occupancy — so it gets its own perf module.  Three timings over one
``medium`` trace (115k cells and 445k candidate pairs at seed 2018, so
the join crosses many of its pair chunks):

* the batch path (streamed dwell intervals → numpy clip columns sorted
  into cells → chunked all-pairs merge walk → panels) — baseline, what
  ``analyze --figures encounters`` pays;
* the streaming join alone (single-pass dwell extraction,
  ``stream_dwell_intervals``, feeding the index);
* the four-way sector-sharded join plus merge — ``analyze_parallel``'s
  routing (``_sector_intervals``), one join per shard and the merge,
  which must reproduce the serial accumulators bit-for-bit.

The last two also assert their panel equals the batch panel, so
``make bench-perf-check`` runs this module with timing disabled as a
correctness pass.
"""

import pytest

from benchmarks.conftest import fresh_panel
from repro.core.dataset import StudyDataset
from repro.core.encounters import stream_dwell_intervals
from repro.core.parallel import EncountersPartial, _sector_intervals
from repro.simnet.config import SimulationConfig
from repro.simnet.simulator import Simulator

SEED = 2018
SHARDS = 4


@pytest.fixture(scope="module")
def encounters_trace(tmp_path_factory):
    out = tmp_path_factory.mktemp("perf-encounters") / "trace"
    Simulator(SimulationConfig.medium(seed=SEED)).run().write(out)
    return out


@pytest.fixture(scope="module")
def encounters_dataset(encounters_trace):
    return StudyDataset.load(encounters_trace)


def _account_side(dataset):
    partial = EncountersPartial()
    partial.consume(dataset)
    return partial


def test_perf_batch_encounters(benchmark, encounters_dataset):
    """Baseline: the full batch join + figure panels."""
    result = benchmark.pedantic(
        fresh_panel, args=("encounters", encounters_dataset), rounds=3, iterations=1
    )
    assert result.n_pairs > 0
    assert result.n_events >= result.n_pairs


def test_perf_streaming_join(benchmark, encounters_dataset):
    """Dwell intervals streamed off the MME rows, joined unsharded."""
    window = encounters_dataset.window

    def run():
        partial = _account_side(encounters_dataset)
        partial.consume_intervals(
            stream_dwell_intervals(iter(encounters_dataset.mme_records), window),
            window.study_start,
        )
        return partial

    partial = benchmark.pedantic(run, rounds=3, iterations=1)
    assert partial.finalize() == fresh_panel("encounters", encounters_dataset)


def test_perf_sharded_join_and_merge(benchmark, encounters_dataset):
    """The dwell intervals routed to four sector shards, each shard
    joined independently, then merged."""
    study_start = encounters_dataset.window.study_start

    def run():
        merged = _account_side(encounters_dataset)
        first, *rest = _sector_intervals(encounters_dataset, SHARDS)
        merged.consume_intervals(first, study_start)
        for intervals in rest:
            piece = EncountersPartial()
            piece.consume_intervals(intervals, study_start)
            merged.merge(piece)
        return merged

    merged = benchmark.pedantic(run, rounds=3, iterations=1)
    assert merged.finalize() == fresh_panel("encounters", encounters_dataset)
