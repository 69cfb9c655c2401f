"""Unit tests for :class:`repro.serve.tailer.StreamTailer`.

Every format is fed as arbitrary byte prefixes of a finished file —
cuts land mid-line, mid-member and mid-block — and the tailer must (a)
never surface a partial row, (b) surface every complete row exactly
once across polls, and (c) restore from its checkpoint state to the
identical consumption point.
"""

import gzip
from pathlib import Path

import pytest

from repro.logs import binfmt
from repro.logs.io import LogReadError, read_csv_records
from repro.logs.quarantine import QuarantineCollector
from repro.logs.records import ProxyRecord
from repro.logs.records import record_to_row, row_to_record
from repro.serve.tailer import StreamTailer

from tests.logs.test_binfmt import proxy_records


def write_csv_bytes(records) -> bytes:
    import csv as csv_mod
    import io

    from repro.logs.records import fields_for

    out = io.StringIO()
    writer = csv_mod.writer(out)
    writer.writerow(fields_for(ProxyRecord))
    for record in records:
        writer.writerow(record_to_row(record))
    return out.getvalue().encode("utf-8")


def gzip_member(payload: bytes) -> bytes:
    import io

    buf = io.BytesIO()
    with gzip.GzipFile(fileobj=buf, mode="wb", mtime=0) as handle:
        handle.write(payload)
    return buf.getvalue()


class ReadLog:
    """A file handle that logs the byte range of every read."""

    def __init__(self, handle, reads: list) -> None:
        self._handle = handle
        self._reads = reads

    def read(self, size=-1):
        start = self._handle.tell()
        data = self._handle.read(size)
        self._reads.append((start, start + len(data)))
        return data

    def __getattr__(self, name):
        return getattr(self._handle, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._handle.close()


class TestRowCodec:
    def test_roundtrip(self):
        record = proxy_records(1)[0]
        assert row_to_record(ProxyRecord, record_to_row(record)) == record


class TestPlainCsv:
    def test_prefix_growth_never_loses_or_splits_rows(self, tmp_path):
        records = proxy_records(97)
        blob = write_csv_bytes(records)
        path = tmp_path / "proxy.csv"
        tailer = StreamTailer(tmp_path, "proxy", ProxyRecord)
        seen = []
        # Prime-stride cuts guarantee many mid-line boundaries.
        for cut in list(range(0, len(blob), 611)) + [len(blob)]:
            path.write_bytes(blob[:cut])
            seen.extend(tailer.poll().records)
        assert seen == records

    def test_missing_file_polls_empty(self, tmp_path):
        tailer = StreamTailer(tmp_path, "proxy", ProxyRecord)
        assert tailer.poll().records == []
        assert tailer.path is None

    def test_offset_only_advances_past_complete_lines(self, tmp_path):
        blob = write_csv_bytes(proxy_records(3))
        path = tmp_path / "proxy.csv"
        path.write_bytes(blob[:-5])  # torn final line
        tailer = StreamTailer(tmp_path, "proxy", ProxyRecord)
        got = tailer.poll().records
        assert len(got) == 2
        assert blob[: tailer.offset].endswith(b"\n")
        path.write_bytes(blob)
        assert len(tailer.poll()) == 1

    def test_strict_raises_on_bad_row(self, tmp_path):
        path = tmp_path / "proxy.csv"
        blob = write_csv_bytes(proxy_records(2))
        path.write_bytes(blob + b"not,a,valid,row\n")
        tailer = StreamTailer(tmp_path, "proxy", ProxyRecord)
        with pytest.raises(LogReadError) as err:
            tailer.poll()
        assert err.value.code == "fields"

    def test_lenient_accounting_matches_batch_reader(self, tmp_path):
        records = proxy_records(40)
        blob = write_csv_bytes(records)
        lines = blob.splitlines(keepends=True)
        # A short row and an out-of-domain value, mid-file.
        lines.insert(10, b"garbage line\n")
        corrupted = lines[:20] + [lines[20].replace(b"http", b"carrier")] + lines[21:]
        blob = b"".join(corrupted)
        path = tmp_path / "proxy.csv"
        path.write_bytes(blob)

        batch = QuarantineCollector()
        expected = list(read_csv_records(path, ProxyRecord, batch))

        serve = QuarantineCollector()
        tailer = StreamTailer(tmp_path, "proxy", ProxyRecord, quarantine=serve)
        got = []
        fresh = tmp_path / "grow" / "proxy.csv"
        fresh.parent.mkdir()
        tailer = StreamTailer(fresh.parent, "proxy", ProxyRecord, quarantine=serve)
        for cut in list(range(0, len(blob), 301)) + [len(blob)]:
            fresh.write_bytes(blob[:cut])
            got.extend(tailer.poll().records)
        assert got == expected
        assert serve.report() == batch.report()


class TestGzipCsv:
    def test_member_by_member_growth(self, tmp_path):
        records = proxy_records(60)
        blob = write_csv_bytes(records)
        lines = blob.splitlines(keepends=True)
        members = [
            gzip_member(b"".join(lines[:20])),
            gzip_member(b"".join(lines[20:45])),
            gzip_member(b"".join(lines[45:])),
        ]
        path = tmp_path / "proxy.csv.gz"
        tailer = StreamTailer(tmp_path, "proxy", ProxyRecord, format="csv")
        seen = []
        written = b""
        for member in members:
            # Expose the member one half at a time: the incomplete half
            # must read as "not arrived yet".
            path.write_bytes(written + member[: len(member) // 2])
            assert tailer.poll().records == []
            written += member
            path.write_bytes(written)
            seen.extend(tailer.poll().records)
        assert seen == records

    def test_line_spanning_members_is_carried(self, tmp_path):
        records = proxy_records(10)
        blob = write_csv_bytes(records)
        split = len(blob) // 2
        # Cut mid-line: the torn halves live in different members.
        members = gzip_member(blob[:split]) + gzip_member(blob[split:])
        path = tmp_path / "proxy.csv.gz"
        tailer = StreamTailer(tmp_path, "proxy", ProxyRecord)
        path.write_bytes(members[: len(members) - 4])
        first = tailer.poll().records
        path.write_bytes(members)
        assert first + tailer.poll().records == records

    def test_corrupt_member_kills_the_stream(self, tmp_path):
        records = proxy_records(30)
        blob = write_csv_bytes(records)
        member = bytearray(gzip_member(blob))
        member[len(member) // 2] ^= 0xFF
        path = tmp_path / "proxy.csv.gz"
        path.write_bytes(bytes(member))
        collector = QuarantineCollector()
        tailer = StreamTailer(
            tmp_path, "proxy", ProxyRecord, quarantine=collector
        )
        tailer.poll()
        assert tailer.dead
        assert collector.count("proxy-truncated") >= 1
        assert tailer.poll().records == []

    def test_corrupt_member_strict_raises(self, tmp_path):
        member = bytearray(gzip_member(write_csv_bytes(proxy_records(30))))
        member[len(member) // 2] ^= 0xFF
        (tmp_path / "proxy.csv.gz").write_bytes(bytes(member))
        tailer = StreamTailer(tmp_path, "proxy", ProxyRecord)
        with pytest.raises(LogReadError) as err:
            tailer.poll()
        assert err.value.code == "truncated"


class TestBin:
    def test_block_boundary_growth(self, tmp_path):
        records = proxy_records(300)
        full = tmp_path / "full.bin"
        binfmt.write_bin_records(full, records, ProxyRecord, block_rows=64)
        blob = full.read_bytes()
        grow = tmp_path / "grow"
        grow.mkdir()
        path = grow / "proxy.bin"
        tailer = StreamTailer(grow, "proxy", ProxyRecord, format="bin")
        seen = []
        for frac in (0.01, 0.25, 0.5, 0.77, 1.0):
            path.write_bytes(blob[: int(len(blob) * frac)])
            seen.extend(tailer.poll().records)
        assert seen == records

    @pytest.mark.parametrize("restart", [False, True])
    def test_examples_name_blocks_as_a_batch_read_does(self, tmp_path, restart):
        """A row quarantined in a later poll names its block by its
        number in the whole file, also after a restart from the state."""
        rows = [record_to_row(r) for r in proxy_records(6)]
        rows[4] = (float("nan"), *rows[4][1:])
        (tmp_path / "full").mkdir()
        full = tmp_path / "full" / "proxy.bin"
        binfmt.write_bin_rows(
            full, [("row", row) for row in rows], ProxyRecord, block_rows=2
        )
        blocks = [offset for offset, _header in binfmt.iter_blocks(full)]
        grow = tmp_path / "grow"
        grow.mkdir()
        path = grow / "proxy.bin"
        collector = QuarantineCollector()
        tailer = StreamTailer(grow, "proxy", ProxyRecord, quarantine=collector)
        path.write_bytes(full.read_bytes()[: blocks[2]])
        assert len(tailer.poll()) == 4
        if restart:
            state = tailer.to_state()
            tailer = StreamTailer(grow, "proxy", ProxyRecord, quarantine=collector)
            tailer.restore_state(state)
        path.write_bytes(full.read_bytes())
        assert len(tailer.poll()) == 1
        batch = QuarantineCollector()
        list(binfmt.read_bin_records(full, ProxyRecord, batch))
        assert collector.report().to_dict() == batch.report().to_dict()
        (issue,) = collector.report().issues
        assert issue.examples == [
            "proxy.bin: block 2 row 0: timestamp must be finite, got nan"
        ]

    def test_a_poll_reads_no_block_before_its_offset(self, tmp_path, monkeypatch):
        """An idle poll and an appended poll read the file header and the
        bytes from the stored offset on: no block before it."""
        records = proxy_records(300)
        full = tmp_path / "full.bin"
        binfmt.write_bin_records(full, records, ProxyRecord, block_rows=32)
        blob = full.read_bytes()
        blocks = [offset for offset, _header in binfmt.iter_blocks(full)]
        grow = tmp_path / "grow"
        grow.mkdir()
        path = grow / "proxy.bin"
        path.write_bytes(blob[: blocks[5]])
        tailer = StreamTailer(grow, "proxy", ProxyRecord, format="bin")
        assert tailer.poll().records == records[: 5 * 32]
        reads: list[tuple[int, int]] = []
        real_open = Path.open

        def logged_open(self, *args, **kwargs):
            handle = real_open(self, *args, **kwargs)
            return ReadLog(handle, reads) if self == path else handle

        monkeypatch.setattr(Path, "open", logged_open)
        for append in (b"", blob[blocks[5] :]):
            with real_open(path, "ab") as handle:
                handle.write(append)
            stored = tailer.offset
            reads.clear()
            rows = tailer.poll()
            assert reads
            before = [(a, b) for a, b in reads if b > blocks[0] and a < stored]
            assert before == [], f"read {before} before offset {stored}"
        assert rows.records == records[5 * 32 :]
        assert tailer.offset == len(blob)

    def test_unfinished_file_header_is_pending(self, tmp_path):
        header = binfmt.file_header_bytes(ProxyRecord)
        (tmp_path / "proxy.bin").write_bytes(header[:6])
        tailer = StreamTailer(tmp_path, "proxy", ProxyRecord, format="bin")
        assert tailer.poll().records == []
        assert not tailer.dead


class TestState:
    @pytest.mark.parametrize("suffix", ["csv", "bin"])
    def test_restore_resumes_at_the_same_point(self, tmp_path, suffix):
        records = proxy_records(200)
        if suffix == "csv":
            blob = write_csv_bytes(records)
        else:
            full = tmp_path / "full.bin"
            binfmt.write_bin_records(full, records, ProxyRecord, block_rows=32)
            blob = full.read_bytes()
        grow = tmp_path / "grow"
        grow.mkdir()
        path = grow / f"proxy.{suffix}"
        tailer = StreamTailer(grow, "proxy", ProxyRecord)
        path.write_bytes(blob[: len(blob) // 2])
        first = tailer.poll().records
        state = tailer.to_state()

        resumed = StreamTailer(grow, "proxy", ProxyRecord)
        resumed.restore_state(state)
        path.write_bytes(blob)
        assert first + resumed.poll().records == records

    def test_state_is_json_safe(self, tmp_path):
        blob = write_csv_bytes(proxy_records(5))
        (tmp_path / "proxy.csv").write_bytes(blob[:-3])
        tailer = StreamTailer(tmp_path, "proxy", ProxyRecord)
        tailer.poll()
        import json

        state = tailer.to_state()
        assert json.loads(json.dumps(state)) == state

    def test_version_mismatch_rejected(self, tmp_path):
        tailer = StreamTailer(tmp_path, "proxy", ProxyRecord)
        state = tailer.to_state()
        state["v"] = 99
        with pytest.raises(ValueError):
            StreamTailer(tmp_path, "proxy", ProxyRecord).restore_state(state)

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            StreamTailer(tmp_path, "proxy", ProxyRecord, format="tsv")
