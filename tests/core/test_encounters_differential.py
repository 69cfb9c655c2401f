"""Differential layer for the encounter join specifically.

``tests/core/test_parallel.py`` already pins ``encounters`` in the
bit-exact tier over the CSV shard matrix (strict and chaos lenient).
This module covers the remaining acceptance axes:

* the **binary** trace format — its shard loads must feed the join the
  same records as CSV;
* the **gzip-compressed CSV** trace format, strict and lenient;
* **order-normalized pair sets** — per-shard partials cover the serial
  pair set exactly, with per-pair event counts summing shard by shard;
* lenient ingestion over a clean binary trace (scrub path, no faults).
"""

import pytest

from repro.core.dataset import StudyDataset
from repro.core.parallel import EncountersPartial, analyze_parallel

BIN_MATRIX = [(1, 1), (4, 1), (7, 4)]


@pytest.fixture(scope="module")
def bin_trace_dir(small_output, tmp_path_factory):
    base = tmp_path_factory.mktemp("trace-bin") / "small"
    small_output.write(base, format="bin")
    return base


@pytest.fixture(scope="module")
def batch_encounters(small_study):
    return small_study.encounters


class TestBinaryFormat:
    @pytest.mark.parametrize(("shards", "workers"), BIN_MATRIX)
    def test_bin_parallel_matches_batch(
        self, bin_trace_dir, batch_encounters, shards, workers
    ):
        run = analyze_parallel(
            bin_trace_dir, shards=shards, workers=workers, format="bin"
        )
        assert run.report.encounters == batch_encounters

    def test_bin_lenient_matches_batch(self, bin_trace_dir, batch_encounters):
        run = analyze_parallel(
            bin_trace_dir, shards=4, lenient=True, format="bin"
        )
        assert run.report.encounters == batch_encounters


class TestGzipFormat:
    @pytest.mark.parametrize(("shards", "workers"), BIN_MATRIX)
    def test_gz_parallel_matches_batch(
        self, small_trace_dir_gz, batch_encounters, shards, workers
    ):
        run = analyze_parallel(small_trace_dir_gz, shards=shards, workers=workers)
        assert run.report.encounters == batch_encounters

    def test_gz_lenient_matches_batch(
        self, small_trace_dir_gz, batch_encounters
    ):
        run = analyze_parallel(small_trace_dir_gz, shards=4, lenient=True)
        assert run.report.encounters == batch_encounters


class TestPairSetSharding:
    """The join's pair-shard routing on the real simulated trace."""

    @pytest.fixture(scope="class")
    def dataset(self, small_trace_dir):
        return StudyDataset.load(small_trace_dir)

    @pytest.fixture(scope="class")
    def serial(self, dataset):
        partial = EncountersPartial()
        partial.consume_stream(iter(dataset.mme_records), dataset.window)
        return partial

    @pytest.mark.parametrize("shards", [2, 4, 7])
    def test_shard_pair_sets_partition_the_serial_set(
        self, dataset, serial, shards
    ):
        pieces = []
        for shard in range(shards):
            piece = EncountersPartial()
            piece.consume_stream(
                iter(dataset.mme_records),
                dataset.window,
                shard=shard,
                shards=shards,
            )
            pieces.append(piece)
        # Order-normalized pair sets: each encounter pair is an
        # unordered edge; normalize before comparing across assembly
        # orders.  A pair that meets in sectors owned by different
        # shards legitimately shows up in several slices — it is the
        # *events* that are disjoint, so per-shard counts must sum to
        # the serial count pair by pair.
        union: set[frozenset] = set()
        for piece in pieces:
            union |= {frozenset(pair) for pair in piece.pair_events}
        assert union == {frozenset(pair) for pair in serial.pair_events}
        summed: dict[tuple, int] = {}
        for piece in pieces:
            for pair, count in piece.pair_events.items():
                summed[pair] = summed.get(pair, 0) + count
        assert summed == serial.pair_events
        # ... which is exactly what the merge computes.
        merged = pieces[0]
        for piece in pieces[1:]:
            merged.merge(piece)
        assert merged.pair_events == serial.pair_events

    def test_join_found_real_encounters(self, serial):
        # Guard against a vacuous differential: the simulated town must
        # actually produce co-presence.
        assert serial.pair_events
        assert sum(serial.pair_events.values()) >= len(serial.pair_events)
