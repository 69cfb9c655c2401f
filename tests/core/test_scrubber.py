"""The column scrubber against the row oracle, by file and by poll.

A generated log — duplicates (a duplicate of a dropped row among them),
malformed IMEIs and unknown sectors, NaN timestamps and negative byte
counts, garbage between blocks or lines, disorder, and equal timestamps
that differ only in later fields — is written as a ``.bin`` log with
1-7-row blocks or as CSV.  The program's lenient load of it, and a
lenient service tailer that reads it in arbitrary polls with its carry
checkpointed between them, must keep the same rows, count the same
disorder and report the same quarantine (``QuarantineReport.to_dict()``:
counts, examples and issue order) as the row oracle of
``tests/core/scrub_oracle.py``.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from unittest.mock import patch

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.dataset import Scrubber, StudyDataset
from repro.logs import binfmt
from repro.logs.binfmt import write_bin_rows
from repro.logs.columns import ColumnTable
from repro.logs.quarantine import QuarantineCollector
from repro.logs.records import MmeRecord, ProxyRecord, fields_for, record_sort_key
from repro.serve.tailer import StreamTailer
from repro.simnet.topology import Sector, SectorMap
from repro.stats.geo import GeoPoint

from tests.core.scrub_oracle import (
    assert_tables_equal,
    column_table,
    oracle_load,
)

SECTORS = SectorMap(
    [Sector("S1", GeoPoint(0.0, 0.0)), Sector("S2", GeoPoint(0.0, 0.1))]
)

_TIMES = st.sampled_from([5.0, 3.0, 5.0, 6.5, math.nan])
_IMEIS = st.sampled_from(
    ["358847080000029", "358847080000011", "35884708000001x", "123"]
)
_BYTES = st.sampled_from([0, 2, -1])
_PROXY = st.tuples(
    _TIMES,
    st.sampled_from(["b", "a", "c"]),
    _IMEIS,
    st.sampled_from(["z.example", "a.example"]),
    st.sampled_from(["/z", "", "/a"]),
    st.sampled_from(["https", "http"]),
    _BYTES,
    _BYTES,
)
_MME = st.tuples(
    _TIMES,
    st.sampled_from(["b", "a", "c"]),
    _IMEIS,
    st.sampled_from(["S2", "S1", "bogus"]),
    st.sampled_from(["handover", "attach", "tracking_area_update"]),
)
#: Noise without a block magic, a comma or a line break.
_GARBAGE = st.text(alphabet="abcdef#@!$%^&*0123456789", min_size=1, max_size=80)


@st.composite
def logs(draw, record_type):
    """``("row", values)`` and ``("raw", noise)`` entries, ending on a row
    (trailing noise is an unfinished append to a tailer).  A row may be
    repeated, and followed by a twin that differs from it in one later
    field only."""
    rows = _PROXY if record_type is ProxyRecord else _MME
    width = len(fields_for(record_type))
    entries = []
    for values, repeat, noise, twin in draw(
        st.lists(
            st.tuples(
                rows,
                st.integers(0, 2),
                st.one_of(st.none(), _GARBAGE),
                st.one_of(st.none(), st.tuples(st.integers(1, width - 1), rows)),
            ),
            min_size=1,
            max_size=40,
        )
    ):
        if noise is not None:
            entries.append(("raw", noise))
        entries.extend([("row", values)] * (1 + repeat))
        if twin is not None:
            field, other = twin
            entries.append(
                ("row", (*values[:field], other[field], *values[field + 1 :]))
            )
    return entries


def write_log(directory: Path, record_type, entries, fmt: str, block_rows: int):
    stem = "proxy" if record_type is ProxyRecord else "mme"
    path = directory / f"{stem}.{fmt}"
    if fmt == "bin":
        write_bin_rows(
            path,
            [
                (tag, value if tag == "row" else value.encode())
                for tag, value in entries
            ],
            record_type,
            block_rows=block_rows,
        )
        return path
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(fields_for(record_type))
        for tag, value in entries:
            if tag == "row":
                writer.writerow(value)
            else:
                handle.write(value + "\r\n")
    return path


def sectors_for(record_type):
    return SECTORS if record_type is MmeRecord else None


def tailed(path: Path, record_type, cuts: list[int], checkpoint: bool):
    """A lenient tailer's kept records over ``path`` grown to each cut,
    with every piece of its state checkpointed between polls when asked."""
    data = path.read_bytes()
    grow = path.parent / "grow"
    grow.mkdir()
    target = grow / path.name
    target.write_bytes(b"")
    stem = path.name.split(".", 1)[0]
    collector = QuarantineCollector()
    scrubber = Scrubber(record_type, collector, sectors_for(record_type))
    tailer = StreamTailer(
        grow, stem, record_type, quarantine=collector, scrub=scrubber
    )
    kept = []
    low = 0
    for cut in [*sorted(min(c, len(data)) for c in cuts), len(data)]:
        with target.open("ab") as handle:
            handle.write(data[low:cut])
        low = max(low, cut)
        if checkpoint:
            states = (collector.to_state(), scrubber.to_state(), tailer.to_state())
            collector = QuarantineCollector.from_state(states[0])
            scrubber = Scrubber(record_type, collector, sectors_for(record_type))
            scrubber.restore_state(states[1])
            tailer = StreamTailer(
                grow, stem, record_type, quarantine=collector, scrub=scrubber
            )
            tailer.restore_state(states[2])
        kept.extend(tailer.poll().records)
    kept.extend(tailer.poll().records)
    return kept, scrubber.disorder, collector.report()


relation = settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


class TestColumnScrubber:
    @relation
    @given(
        record_type=st.sampled_from([ProxyRecord, MmeRecord]),
        data=st.data(),
        fmt=st.sampled_from(["bin", "csv"]),
        block_rows=st.integers(1, 7),
        chunk=st.integers(1, 9),
        cuts=st.lists(st.integers(0, 4000), max_size=5),
        checkpoint=st.booleans(),
    )
    def test_equals_the_row_oracle(
        self, tmp_path_factory, record_type, data, fmt, block_rows, chunk, cuts,
        checkpoint,
    ):
        entries = data.draw(logs(record_type))
        directory = tmp_path_factory.mktemp("scrub")
        path = write_log(directory, record_type, entries, fmt, block_rows)
        want, want_disorder, want_report = oracle_load(
            path, record_type, sectors_for(record_type)
        )
        with patch("repro.logs.columns.ROW_CHUNK", chunk), patch(
            "repro.core.dataset.ROW_CHUNK", chunk
        ):
            got, disorder, report = column_table(
                path, record_type, sectors_for(record_type)
            )
            polled, poll_disorder, poll_report = tailed(
                path, record_type, cuts, checkpoint
            )
        assert_tables_equal(got, want)
        assert disorder == want_disorder
        assert report.to_dict() == want_report.to_dict()
        if poll_disorder:
            polled.sort(key=record_sort_key)
        assert polled == want.records
        assert poll_disorder == want_disorder
        assert poll_report.to_dict() == want_report.to_dict()


class TestRecordsBuilt:
    """A lenient ``.bin`` load builds a record only for a row its block's
    column masks flag."""

    ROW = (5.0, "a", "358847080000011", "h", "/p", "https", 1, 1)

    def built(self, tmp_path, rows) -> tuple[int, ColumnTable]:
        write_bin_rows(
            tmp_path / "proxy.bin", [("row", row) for row in rows], ProxyRecord
        )
        checks = []
        original = ProxyRecord.__post_init__

        def counted(record):
            checks.append(record)
            original(record)

        scrubber = Scrubber(ProxyRecord, QuarantineCollector())
        with patch.object(ProxyRecord, "__post_init__", counted), patch.object(
            ColumnTable, "_record_chunks", side_effect=AssertionError("rows built")
        ), patch.object(
            binfmt, "record_maker", side_effect=AssertionError("rows built")
        ):
            table = scrubber.table(
                StudyDataset._lenient_parts(
                    tmp_path, "proxy", ProxyRecord, scrubber.pending, "bin"
                )
            )
        return len(checks), table

    def test_a_clean_block_builds_no_record(self, tmp_path):
        rows = [(5.0 + i, *self.ROW[1:]) for i in range(7)]
        built, table = self.built(tmp_path, rows)
        assert built == 0
        assert len(table) == 7

    def test_a_failing_row_builds_one(self, tmp_path):
        rows = [(5.0 + i, *self.ROW[1:]) for i in range(7)]
        rows[3] = (math.nan, *self.ROW[1:])
        built, table = self.built(tmp_path, rows)
        assert built == 1
        assert len(table) == 6
