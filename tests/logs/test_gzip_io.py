"""Tests for transparent gzip support across the I/O stack."""

import gzip

import pytest

from repro.core.dataset import StudyDataset
from repro.logs.io import (
    read_mme_log,
    read_proxy_log,
    write_mme_log,
    write_proxy_log,
)
from repro.logs.records import MmeRecord, ProxyRecord


@pytest.fixture()
def records():
    return [
        ProxyRecord(
            timestamp=100.0 + i,
            subscriber_id=f"s{i}",
            imei="358847080000011",
            host="api.example.com",
            bytes_down=1000 + i,
        )
        for i in range(20)
    ]


class TestGzipRoundtrips:
    def test_csv_gz_roundtrip(self, tmp_path, records):
        path = tmp_path / "proxy.csv.gz"
        assert write_proxy_log(path, records) == 20
        assert list(read_proxy_log(path)) == records

    def test_written_file_is_actually_gzip(self, tmp_path, records):
        path = tmp_path / "proxy.csv.gz"
        write_proxy_log(path, records)
        with gzip.open(path, "rt") as handle:
            assert handle.readline().startswith("timestamp")

    def test_mme_gz_roundtrip(self, tmp_path):
        mme = [
            MmeRecord(1.0, "s", "358847080000011", "S001-001"),
            MmeRecord(2.0, "s", "358847080000011", "S001-002", event="handover"),
        ]
        path = tmp_path / "mme.csv.gz"
        write_mme_log(path, mme)
        assert list(read_mme_log(path)) == mme

    def test_compression_shrinks_large_logs(self, tmp_path, records):
        plain = tmp_path / "proxy.csv"
        compressed = tmp_path / "proxy.csv.gz"
        big = records * 100
        write_proxy_log(plain, big)
        write_proxy_log(compressed, big)
        assert compressed.stat().st_size < plain.stat().st_size / 2


class TestCompressedTraceDirectory:
    def test_write_and_load_compressed_trace(self, small_output, tmp_path):
        paths = small_output.write(tmp_path / "trace", compress=True)
        assert paths["proxy"].name == "proxy.csv.gz"
        assert paths["mme"].name == "mme.csv.gz"
        dataset = StudyDataset.load(tmp_path / "trace")
        assert dataset.proxy_records == small_output.proxy_records
        assert dataset.mme_records == small_output.mme_records

    def test_plain_trace_still_loads(self, small_output, tmp_path):
        small_output.write(tmp_path / "trace", compress=False)
        dataset = StudyDataset.load(tmp_path / "trace")
        assert dataset.proxy_records == small_output.proxy_records

    def test_missing_logs_reported(self, small_output, tmp_path):
        small_output.write(tmp_path / "trace")
        for log in ("proxy.csv", "mme.csv"):
            (tmp_path / "trace" / log).unlink()
        # The one probe names every variant it tried.
        with pytest.raises(
            FileNotFoundError, match=r"proxy\.csv, .*proxy\.csv\.gz, .*proxy\.bin"
        ):
            StudyDataset.load(tmp_path / "trace")


class TestGzipWriteLevel:
    """Exports use a faster compresslevel; readers are level-agnostic."""

    def test_write_level_is_not_the_slow_default(self):
        from repro.logs.io import GZIP_COMPRESSLEVEL

        assert 1 <= GZIP_COMPRESSLEVEL < 9

    def test_empty_gz_roundtrip(self, tmp_path):
        path = tmp_path / "empty.csv.gz"
        assert write_proxy_log(path, []) == 0
        assert list(read_proxy_log(path)) == []

    def test_headerless_gz_file_raises(self, tmp_path):
        from repro.logs.io import LogReadError, read_csv_records

        path = tmp_path / "bad.csv.gz"
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write("")
        with pytest.raises(LogReadError, match="header"):
            list(read_csv_records(path, ProxyRecord))

    def test_truncated_gz_row_reports_location(self, tmp_path, records):
        from repro.logs.io import LogReadError

        path = tmp_path / "trunc.csv.gz"
        write_proxy_log(path, records)
        with gzip.open(path, "rt", encoding="utf-8") as handle:
            lines = handle.readlines()
        # Drop a column from the first data row.
        lines[1] = ",".join(lines[1].split(",")[:-1]) + "\n"
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.writelines(lines)
        with pytest.raises(LogReadError, match="2"):
            list(read_proxy_log(path))

    def test_level6_output_still_readable_by_plain_gzip(self, tmp_path, records):
        path = tmp_path / "proxy.csv.gz"
        write_proxy_log(path, records)
        with gzip.open(path, "rt", encoding="utf-8") as handle:
            body = handle.read()
        assert body.count("\n") == len(records) + 1  # header + rows


class TestGzipDeterminism:
    """Regression: gzip writes used to embed the wall-clock mtime and
    the output filename in the member header, so two identical exports
    produced different bytes and the golden-trace SHAs only held for
    plain CSV.  Writers now pin ``mtime=0`` and an empty filename."""

    def test_same_records_same_bytes_across_runs(self, tmp_path, records):
        import hashlib
        import time

        first = tmp_path / "a" / "proxy.csv.gz"
        second = tmp_path / "b" / "other-name.csv.gz"
        first.parent.mkdir()
        second.parent.mkdir()
        write_proxy_log(first, records)
        time.sleep(1.1)  # cross a whole mtime second
        write_proxy_log(second, records)
        digest = lambda p: hashlib.sha256(p.read_bytes()).hexdigest()
        assert digest(first) == digest(second)

    def test_member_header_has_zero_mtime_and_no_filename(
        self, tmp_path, records
    ):
        path = tmp_path / "proxy.csv.gz"
        write_proxy_log(path, records)
        head = path.read_bytes()[:10]
        assert head[:2] == b"\x1f\x8b"
        assert head[4:8] == b"\x00\x00\x00\x00"  # MTIME == 0
        assert not head[3] & 0x08  # FNAME flag clear
