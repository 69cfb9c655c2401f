"""Unit tests for the study dataset container."""

from dataclasses import replace
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dataset import (
    Scrubber,
    StudyDataset,
    StudyWindow,
    load_artifacts,
)
from repro.logs import columns
from repro.logs.columns import record_columns
from repro.logs.io import subscriber_shard
from repro.logs.quarantine import QuarantineCollector
from repro.logs.records import MmeRecord, ProxyRecord
from repro.logs.timeutil import SECONDS_PER_DAY
from repro.simnet.topology import Sector, SectorMap
from repro.stats.geo import GeoPoint

from tests.core.scrub_oracle import RowScrubber, assert_tables_equal, oracle_table


class TestStudyWindow:
    def setup_method(self):
        self.window = StudyWindow(study_start=0.0, total_days=28, detailed_days=14)

    def test_boundaries(self):
        assert self.window.study_end == 28 * SECONDS_PER_DAY
        assert self.window.detailed_start == 14 * SECONDS_PER_DAY
        assert self.window.detailed_first_day == 14

    def test_day_of(self):
        assert self.window.day_of(0.0) == 0
        assert self.window.day_of(SECONDS_PER_DAY * 3 + 5) == 3

    def test_membership(self):
        assert self.window.in_study(0.0)
        assert not self.window.in_study(-1.0)
        assert not self.window.in_study(28 * SECONDS_PER_DAY)
        assert self.window.in_detailed(15 * SECONDS_PER_DAY)
        assert not self.window.in_detailed(13 * SECONDS_PER_DAY)


class TestPartitions:
    def test_proxy_partition_is_complete(self, small_dataset):
        total = len(small_dataset.proxy_records)
        assert (
            len(small_dataset.wearable_proxy) + len(small_dataset.phone_proxy)
            == total
        )

    def test_wearable_proxy_tacs(self, small_dataset):
        tacs = small_dataset.wearable_tacs
        assert all(r.tac in tacs for r in small_dataset.wearable_proxy)
        assert all(r.tac not in tacs for r in small_dataset.phone_proxy)

    def test_mme_partition_is_complete(self, small_dataset):
        total = len(small_dataset.mme_records)
        assert (
            len(small_dataset.wearable_mme) + len(small_dataset.phone_mme) == total
        )

    def test_detailed_subset(self, small_dataset):
        window = small_dataset.window
        assert all(
            window.in_detailed(r.timestamp)
            for r in small_dataset.wearable_proxy_detailed
        )

    def test_wearable_accounts_resolve(self, small_dataset):
        directory = small_dataset.account_directory
        assert small_dataset.wearable_accounts <= set(directory.values())

    def test_account_of(self, small_dataset):
        subscriber = small_dataset.proxy_records[0].subscriber_id
        assert small_dataset.account_of(subscriber) is not None
        assert small_dataset.account_of("unknown") is None


class TestLoadRoundtrip:
    def test_load_matches_in_memory(self, small_output, tmp_path):
        small_output.write(tmp_path / "trace")
        loaded = StudyDataset.load(tmp_path / "trace")
        in_memory = StudyDataset.from_simulation(small_output)
        assert loaded.proxy_records == in_memory.proxy_records
        assert loaded.mme_records == in_memory.mme_records
        assert loaded.wearable_tacs == in_memory.wearable_tacs
        assert loaded.account_directory == in_memory.account_directory
        assert loaded.window == in_memory.window
        assert len(loaded.sector_map) == len(in_memory.sector_map)


class TestShard:
    def test_every_shard_hashes_each_subscriber_once(self, small_output):
        dataset = StudyDataset.from_simulation(small_output)
        subscribers = set(dataset.proxy.column("subscriber_id").values)
        subscribers |= set(dataset.mme.column("subscriber_id").values)
        with patch(
            "repro.core.dataset.subscriber_shard", wraps=subscriber_shard
        ) as hashed:
            parts = [dataset.shard(shard, 4) for shard in range(4)]
        assert hashed.call_count == len(subscribers)
        assert sum(len(part.proxy) for part in parts) == len(dataset.proxy)
        assert sum(len(part.mme) for part in parts) == len(dataset.mme)


class TestLoadArtifacts:
    def test_side_files_only(self, small_output, tmp_path):
        small_output.write(tmp_path / "trace")
        artifacts = load_artifacts(tmp_path / "trace")
        in_memory = StudyDataset.from_simulation(small_output)
        assert artifacts.window == in_memory.window
        assert artifacts.account_directory == in_memory.account_directory
        assert len(artifacts.sector_map) == len(in_memory.sector_map)
        dataset = artifacts.dataset([], [])
        assert dataset.wearable_tacs == in_memory.wearable_tacs
        assert dataset.quarantine is None

    def test_missing_directory_and_metadata_raise(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="trace directory not found"):
            load_artifacts(tmp_path / "absent")
        with pytest.raises(FileNotFoundError, match="metadata.json"):
            load_artifacts(tmp_path)


#: A tiny MME stream vocabulary that hits every scrubber defect class:
#: malformed IMEIs, unknown sectors, out-of-order timestamps and (with
#: the ``repeat`` flag below) exact back-to-back duplicates.
_MME = st.builds(
    MmeRecord,
    timestamp=st.integers(0, 30).map(float),
    subscriber_id=st.sampled_from(["a", "b"]),
    imei=st.sampled_from(["358847080000011", "35884708000001x", "123"]),
    sector_id=st.sampled_from(["S1", "S2", "bogus"]),
)


def column_scrub(scrubber, records):
    """``scrubber``'s kept rows of a record stream, fed as columns."""
    columns = record_columns(scrubber.record_type, records)
    return scrubber.scrub((part, None) for part in columns).records


class TestScrubber:
    """The column scrubber, fed in chunks with its carry checkpointed
    between them, against one pass of the row oracle
    (``tests/core/scrub_oracle.py``; ``tests/core/test_scrubber.py``
    checks it by file and by poll)."""

    SECTORS = SectorMap(
        [Sector("S1", GeoPoint(0.0, 0.0)), Sector("S2", GeoPoint(0.0, 0.1))]
    )

    def run(self, chunks, *, checkpoint=False):
        collector = QuarantineCollector()
        scrubber = Scrubber(MmeRecord, collector, self.SECTORS)
        kept = []
        for chunk in chunks:
            if checkpoint:
                # A restarted service: a fresh scrubber restored from the
                # previous one's checkpointed carry.
                state = scrubber.to_state()
                scrubber = Scrubber(MmeRecord, collector, self.SECTORS)
                scrubber.restore_state(state)
            kept.extend(column_scrub(scrubber, chunk))
        return kept, scrubber.disorder, collector.report()

    def oracle(self, stream):
        collector = QuarantineCollector()
        scrubber = RowScrubber(MmeRecord, collector, self.SECTORS)
        kept = list(scrubber.scrub(iter(stream)))
        return kept, scrubber.disorder, collector.report()

    @given(
        entries=st.lists(st.tuples(_MME, st.booleans()), max_size=60),
        cuts=st.lists(st.integers(0, 120), max_size=6),
        checkpoint=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_chunked_scrub_equals_one_pass(self, entries, cuts, checkpoint):
        stream = [r for r, repeat in entries for _ in range(1 + repeat)]
        bounds = [0, *sorted(min(c, len(stream)) for c in cuts), len(stream)]
        chunks = [stream[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
        assert self.run(chunks, checkpoint=checkpoint) == self.oracle(stream)

    def test_every_defect_class_is_accounted(self):
        good = MmeRecord(5.0, "a", "358847080000011", "S1")
        stream = [
            good,
            good,  # duplicate
            MmeRecord(6.0, "a", "123", "S1"),  # malformed IMEI
            MmeRecord(7.0, "a", "358847080000011", "bogus"),  # unknown sector
            MmeRecord(4.0, "b", "358847080000011", "S2"),  # out of order
        ]
        kept, disorder, report = self.run([stream])
        assert kept == [good, stream[4]]
        assert disorder == 1
        assert report.rows_quarantined == {"mme": 3}
        assert [issue.code for issue in report.issues] == [
            "mme-duplicate",
            "mme-imei",
            "mme-sector",
            "mme-order",
        ]


_TIMES = st.sampled_from([5.0, 3.0, 5.0, 6.5])
_IMEIS = st.sampled_from(
    ["358847080000029", "358847080000011", "35884708000001x", "123"]
)
_PROXY_ROWS = st.builds(
    ProxyRecord,
    timestamp=_TIMES,
    subscriber_id=st.sampled_from(["b", "a", "c"]),
    imei=_IMEIS,
    host=st.sampled_from(["z.example", "a.example"]),
    path=st.sampled_from(["/z", "", "/a"]),
    protocol=st.sampled_from(["https", "http"]),
    bytes_up=st.integers(0, 2),
    bytes_down=st.integers(0, 2),
)
_MME_ROWS = st.builds(
    MmeRecord,
    timestamp=_TIMES,
    subscriber_id=st.sampled_from(["b", "a", "c"]),
    imei=_IMEIS,
    sector_id=st.sampled_from(["S2", "S1", "bogus"]),
    event=st.sampled_from(["handover", "attach", "tracking_area_update"]),
)


class TestScrubbedTable:
    """``Scrubber.table`` (scrub column batches, re-sort as columns)
    against the row oracle: keep the rows ``RowScrubber`` yields, sort
    them by ``record_sort_key`` on disorder, and wrap them with
    ``ColumnTable.from_records``."""

    def sectors(self, record_type):
        return TestScrubber.SECTORS if record_type is MmeRecord else None

    def row_path(self, record_type, stream):
        collector = QuarantineCollector()
        scrubber = RowScrubber(record_type, collector, self.sectors(record_type))
        table, _kept = oracle_table(iter(stream), scrubber)
        return table, scrubber.disorder, collector.report()

    def table_path(self, record_type, stream, chunk):
        collector = QuarantineCollector()
        scrubber = Scrubber(record_type, collector, self.sectors(record_type))
        with patch.object(columns, "ROW_CHUNK", chunk), patch(
            "repro.core.dataset.ROW_CHUNK", chunk
        ):
            table = scrubber.table(
                (parts, None) for parts in record_columns(record_type, stream)
            )
        return table, scrubber.disorder, collector.report()

    def check(self, record_type, stream, chunk):
        want, want_disorder, want_report = self.row_path(record_type, stream)
        got, disorder, report = self.table_path(record_type, stream, chunk)
        assert_tables_equal(got, want)
        assert got.records == want.records
        assert disorder == want_disorder
        assert [i.code for i in report.issues] == [
            i.code for i in want_report.issues
        ]
        assert report == want_report
        return disorder

    @given(
        record_type=st.sampled_from([ProxyRecord, MmeRecord]),
        data=st.data(),
        chunk=st.integers(1, 7),
        presorted=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_the_row_path(self, record_type, data, chunk, presorted):
        rows = _PROXY_ROWS if record_type is ProxyRecord else _MME_ROWS
        entries = data.draw(
            st.lists(st.tuples(rows, st.integers(0, 2)), max_size=40)
        )
        stream = [r for r, repeat in entries for _ in range(1 + repeat)]
        if presorted:
            stream.sort(key=lambda record: record.timestamp)
        self.check(record_type, stream, chunk)

    PROXY = ProxyRecord(5.0, "a", "358847080000011", "h", "/p", "https", 1, 1)
    MME = MmeRecord(5.0, "a", "358847080000011", "S1", "handover")

    @pytest.mark.parametrize(
        "record, field, low, high",
        [
            (PROXY, "subscriber_id", "a", "b"),
            (PROXY, "host", "a.example", "z.example"),
            (PROXY, "path", "/a", "/z"),
            (PROXY, "protocol", "http", "https"),
            (PROXY, "bytes_up", 1, 9),
            (PROXY, "bytes_down", 1, 9),
            (MME, "subscriber_id", "a", "b"),
            (MME, "sector_id", "S1", "S2"),
            (MME, "event", "attach", "handover"),
        ],
    )
    @pytest.mark.parametrize("chunk", [1, 2, 7])
    def test_timestamp_ties_break_on_later_fields(
        self, record, field, low, high, chunk
    ):
        """Rows with one timestamp that differ only in ``field``, the
        larger value first, after a later row that makes the log
        disordered."""
        later = replace(record, timestamp=9.0)
        stream = [
            later,
            replace(record, **{field: high}),
            replace(record, **{field: low}),
        ]
        assert self.check(type(record), stream, chunk) == 1
