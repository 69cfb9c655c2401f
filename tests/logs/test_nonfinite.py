"""Non-finite timestamps are out-of-domain values in every wire format.

A ``nan`` or ``inf`` timestamp has no place in time: window masks drop a
NaN silently, and the column sorts and the ``searchsorted`` kernels order
it differently from the scalar rules.  A strict load raises
``LogReadError(code="value")`` on such a row, and a lenient load
quarantines it under ``<stream>-value``, for CSV, ``.csv.gz`` and
``.bin``, through the ``.bin`` batch block check as well as the
row-by-row path a failing block takes.
"""

from __future__ import annotations

import gzip
import shutil

import numpy as np
import pytest

from repro.core.dataset import StudyDataset
from repro.logs.binfmt import write_bin_rows
from repro.logs.io import LogReadError, read_records
from repro.logs.records import (
    MME_FIELDS,
    PROXY_FIELDS,
    MmeRecord,
    ProxyRecord,
    record_to_row,
)

SIDE_FILES = ("metadata.json", "accounts.csv", "devices.csv", "sectors.csv")
STREAMS = {"proxy": (ProxyRecord, PROXY_FIELDS), "mme": (MmeRecord, MME_FIELDS)}
#: The damaged row, and a row with a negative byte count (proxy only).
DAMAGED, NEGATIVE = 23, 31


def write_trace(output, source, target, stream, value, suffix, negative=False):
    """A trace of the first rows of each log, ``stream``'s row
    :data:`DAMAGED` with timestamp ``value``."""
    target.mkdir()
    for name in SIDE_FILES:
        shutil.copyfile(source / name, target / name)
    for stem, (record_type, fields) in STREAMS.items():
        records = getattr(output, f"{stem}_records")[:60]
        rows = [list(record_to_row(record)) for record in records]
        if stem == stream:
            rows[DAMAGED][0] = value
            if negative:
                rows[NEGATIVE][fields.index("bytes_up")] = -5
        path = target / f"{stem}{suffix}"
        if suffix == ".bin":
            write_bin_rows(
                path, [("row", tuple(row)) for row in rows], record_type, block_rows=16
            )
            continue
        text = ",".join(fields) + "\n" + "".join(
            ",".join(repr(v) if isinstance(v, float) else str(v) for v in row) + "\n"
            for row in rows
        )
        if suffix == ".csv.gz":
            path.write_bytes(gzip.compress(text.encode("utf-8")))
        else:
            path.write_text(text, encoding="utf-8")
    return target


@pytest.mark.parametrize("suffix", [".csv", ".csv.gz", ".bin"])
@pytest.mark.parametrize("stream", sorted(STREAMS))
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
class TestNonFiniteTimestamp:
    def test_strict_load_raises(
        self, small_output, small_trace_dir, tmp_path, suffix, stream, value
    ):
        trace = write_trace(
            small_output, small_trace_dir, tmp_path / "t", stream, value, suffix
        )
        with pytest.raises(LogReadError) as raised:
            StudyDataset.load(trace)
        assert raised.value.code == "value"
        assert "timestamp must be finite" in str(raised.value)
        with pytest.raises(LogReadError) as rows:
            list(read_records(trace / f"{stream}{suffix}", STREAMS[stream][0]))
        assert rows.value.code == "value"

    def test_lenient_load_quarantines(
        self, small_output, small_trace_dir, tmp_path, suffix, stream, value
    ):
        trace = write_trace(
            small_output, small_trace_dir, tmp_path / "t", stream, value, suffix
        )
        dataset = StudyDataset.load(trace, lenient=True)
        report = dataset.quarantine
        assert report.count(f"{stream}-value") == 1
        assert report.rows_quarantined == {stream: 1}
        assert len(getattr(dataset, stream)) == 59
        assert np.isfinite(getattr(dataset, stream).column("timestamp")).all()


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_bin_block_checked_row_by_row(small_output, small_trace_dir, tmp_path, value):
    """A block that fails its batch check for another row (a negative
    byte count) is checked row by row, and the non-finite row is
    quarantined there too."""
    trace = write_trace(
        small_output, small_trace_dir, tmp_path / "t", "proxy", value, ".bin",
        negative=True,
    )
    report = StudyDataset.load(trace, lenient=True).quarantine
    assert report.count("proxy-value") == 2
    with pytest.raises(LogReadError, match="timestamp must be finite"):
        StudyDataset.load(trace)
