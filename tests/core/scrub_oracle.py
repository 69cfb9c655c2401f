"""The row-at-a-time lenient pass that the column scrubber must equal.

:class:`RowScrubber` is the lenient scrubber as it was before it worked
on columns, kept verbatim: a lazy generator that scrubs one record at a
time.  :func:`bin_rows` reads a ``.bin`` log leniently one row at a time:
every row is built as a record, and each quarantine event is recorded
after the rows before it have been yielded.  CSV needs no twin:
:func:`~repro.logs.io.read_csv_records` is already a lazy row reader.
Chained lazily, a reader and :class:`RowScrubber` record read- and
scrub-layer events in row order, which is the order the column pass
(:class:`~repro.core.dataset.Scrubber`) must reproduce.

:func:`oracle_table` is a lenient load by that path: the kept records,
sorted by ``record_sort_key`` on disorder, as a table.
:func:`column_table` is the program's own lenient load of one log.
"""

from __future__ import annotations

import gzip
from pathlib import Path
from typing import Iterable, Iterator

from repro.core.dataset import Scrubber, StudyDataset
from repro.devicedb.tac import IMEI_LENGTH
from repro.logs import binfmt
from repro.logs.columns import ColumnTable
from repro.logs.io import log_kind, read_csv_records, trace_format
from repro.logs.quarantine import QuarantineCollector
from repro.logs.records import record_sort_key, record_to_row, row_to_record
from repro.simnet.topology import SectorMap


class RowScrubber:
    """The lenient semantic row filter, one record at a time."""

    def __init__(
        self,
        record_type: type,
        collector: QuarantineCollector,
        sector_map: SectorMap | None = None,
    ) -> None:
        self.record_type = record_type
        self.kind = log_kind(record_type)
        self.collector = collector
        self.sector_map = sector_map
        self._index = 0
        self._last_seen = None
        self._previous_ts = float("-inf")
        self.disorder = 0

    def scrub(self, records: Iterable) -> Iterator:
        kind = self.kind
        collector = self.collector
        sector_map = self.sector_map
        last_seen = self._last_seen
        previous_ts = self._previous_ts
        index = self._index - 1
        try:
            for index, record in enumerate(records, self._index):
                if record == last_seen:
                    collector.quarantine_row(
                        kind,
                        f"{kind}-duplicate",
                        "exact duplicate of the previous row",
                        f"{kind}[{index}]",
                    )
                    continue
                last_seen = record
                imei = record.imei
                if len(imei) != IMEI_LENGTH or not imei.isdigit():
                    collector.quarantine_row(
                        kind,
                        f"{kind}-imei",
                        "malformed IMEI",
                        f"{kind}[{index}] {imei!r}",
                    )
                    continue
                if sector_map is not None and record.sector_id not in sector_map:
                    collector.quarantine_row(
                        kind,
                        f"{kind}-sector",
                        "sector missing from the cell plan",
                        f"{kind}[{index}] {record.sector_id}",
                    )
                    continue
                timestamp = record.timestamp
                if timestamp < previous_ts:
                    self.disorder += 1
                    collector.note(
                        f"{kind}-order",
                        "records out of time order (kept; log re-sorted)",
                        f"{kind}[{index}]",
                    )
                previous_ts = timestamp
                yield record
        finally:
            self._index = index + 1
            self._last_seen = last_seen
            self._previous_ts = previous_ts

    def to_state(self) -> dict:
        return {
            "v": 1,
            "index": self._index,
            "last_seen": (
                list(record_to_row(self._last_seen))
                if self._last_seen is not None
                else None
            ),
            "previous_ts": self._previous_ts,
            "disorder": self.disorder,
        }

    def restore_state(self, state: dict) -> None:
        self._index = int(state["index"])
        last = state["last_seen"]
        self._last_seen = (
            row_to_record(self.record_type, tuple(last)) if last is not None else None
        )
        self._previous_ts = float(state["previous_ts"])
        self.disorder = int(state["disorder"])


def bin_rows(
    path: Path, record_type: type, collector: QuarantineCollector
) -> Iterator:
    """A lenient ``.bin`` read, one row at a time (no truncated payloads)."""
    source = Path(path)
    kind = log_kind(record_type)
    with source.open("rb") as handle:
        binfmt._read_file_header(handle, source, record_type)
        block = 0
        while True:
            header = binfmt._read_exact(handle, binfmt._BLOCK_HEADER.size)
            if not header:
                return
            if len(header) < binfmt._BLOCK_HEADER.size:
                collector.note(
                    f"{kind}-truncated",
                    "binary log truncated inside a block header;"
                    " unknown rows lost",
                    f"{source.name}: block {block}",
                )
                return
            magic, comp_len, rows, *_ = binfmt._BLOCK_HEADER.unpack(header)
            if magic != binfmt.BLOCK_MAGIC:
                if not binfmt._resync(handle, header, source, kind, collector):
                    return
                continue
            payload = binfmt._read_exact(handle, comp_len)
            cols = binfmt._unpack_columns(gzip.decompress(payload), record_type, rows)
            for row, values in enumerate(zip(*binfmt._row_lists(cols))):
                collector.saw_row(kind)
                try:
                    record = record_type(*values)
                except ValueError as exc:
                    collector.quarantine_row(
                        kind,
                        f"{kind}-value",
                        "row with an unparseable or out-of-domain value",
                        f"{source.name}: block {block} row {row}: {exc}",
                    )
                    continue
                yield record
            block += 1


def row_reader(path: Path, record_type: type, collector: QuarantineCollector):
    if trace_format(path) == "bin":
        return bin_rows(path, record_type, collector)
    return read_csv_records(path, record_type, collector)


def oracle_table(
    records: Iterable, scrubber: RowScrubber
) -> tuple[ColumnTable, list]:
    """The row path's table and its kept records, in parsed order."""
    kept = list(scrubber.scrub(records))
    ordered = sorted(kept, key=record_sort_key) if scrubber.disorder else kept
    return ColumnTable.from_records(scrubber.record_type, ordered), kept


def oracle_load(path: Path, record_type: type, sector_map: SectorMap | None):
    """``(table, disorder, report)`` of one log by the row path."""
    collector = QuarantineCollector()
    scrubber = RowScrubber(record_type, collector, sector_map)
    table, _kept = oracle_table(row_reader(path, record_type, collector), scrubber)
    return table, scrubber.disorder, collector.report()


def column_table(path: Path, record_type: type, sector_map: SectorMap | None):
    """``(table, disorder, report)`` of one log by the program's lenient load."""
    collector = QuarantineCollector()
    scrubber = Scrubber(record_type, collector, sector_map)
    stem = log_kind(record_type)
    parts = StudyDataset._lenient_parts(
        path.parent, stem, record_type, scrubber.pending, trace_format(path)
    )
    return scrubber.table(parts), scrubber.disorder, collector.report()


def assert_tables_equal(got: ColumnTable, want: ColumnTable) -> None:
    """Equal rows, dictionaries in the same order, the same dtypes."""
    assert len(got) == len(want)
    for name in want.fields:
        column, expected = got.column(name), want.column(name)
        if hasattr(expected, "codes"):
            assert column.values.tolist() == expected.values.tolist(), name
            assert column.codes.dtype == expected.codes.dtype, name
            assert column.codes.tolist() == expected.codes.tolist(), name
        else:
            assert column.dtype == expected.dtype, name
            assert column.tolist() == expected.tolist(), name
