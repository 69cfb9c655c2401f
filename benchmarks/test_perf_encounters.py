"""Encounter-join benchmarks: batch, streaming, and sharded kernels.

The encounter join (§ext, ``repro.core.encounters``) is the only
per-*pair* analysis in the pipeline — worst case quadratic in cell
occupancy — so it gets its own perf module.  Three timings over one
``medium`` trace:

* the batch path (streamed dwell intervals → cell index → all-pairs
  join → panels) — baseline, what ``analyze --figures encounters`` pays;
* the streaming join alone (single-pass dwell extraction feeding the
  index), the per-worker kernel of the parallel path;
* the four-way sector-sharded join plus merge — the map-reduce shape,
  which must reproduce the serial accumulators bit-for-bit.
"""

import pytest

from benchmarks.conftest import fresh_panel
from repro.core.dataset import StudyDataset
from repro.core.parallel import EncountersPartial
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
    """The parallel path's per-worker kernel, unsharded."""

    def run():
        partial = _account_side(encounters_dataset)
        partial.consume_stream(
            iter(encounters_dataset.mme_records), encounters_dataset.window
        )
        return partial

    partial = benchmark.pedantic(run, rounds=3, iterations=1)
    assert partial.finalize() == fresh_panel("encounters", encounters_dataset)


def test_perf_sharded_join_and_merge(benchmark, encounters_dataset):
    """Four sector shards joined independently, then merged."""

    def run():
        merged = _account_side(encounters_dataset)
        merged.consume_stream(
            iter(encounters_dataset.mme_records),
            encounters_dataset.window,
            shard=0,
            shards=SHARDS,
        )
        for shard in range(1, SHARDS):
            piece = EncountersPartial()
            piece.consume_stream(
                iter(encounters_dataset.mme_records),
                encounters_dataset.window,
                shard=shard,
                shards=SHARDS,
            )
            merged.merge(piece)
        return merged

    merged = benchmark.pedantic(run, rounds=3, iterations=1)
    assert merged.finalize() == fresh_panel("encounters", encounters_dataset)
