"""Unit tests for :mod:`repro.logs.binfmt` — the binary columnar format.

Covers the wire contract (framed blocks, embedded schema, strict
magic/version rejection), byte determinism, the numpy column codec
against the wire layout, time-range block skipping, and lenient
ingestion semantics (truncated tails with exact row accounting,
mid-file garbage resync).
"""

import gzip
import struct

import pytest

from repro.logs import binfmt
from repro.logs.binfmt import (
    BLOCK_MAGIC,
    DEFAULT_BLOCK_ROWS,
    FILE_MAGIC,
    VERSION,
    bucket_of,
    file_header_bytes,
    read_bin_records,
    write_bin_records,
)
from repro.logs.io import LogReadError
from repro.logs.quarantine import QuarantineCollector
from repro.logs.records import MmeRecord, ProxyRecord


def proxy_records(n: int = 200) -> list[ProxyRecord]:
    return [
        ProxyRecord(
            timestamp=1_513_296_000.0 + i * 0.5,
            subscriber_id=f"s{i % 37:04d}",
            imei="358847080000011",
            host=f"api{i % 9}.example.com",
            bytes_down=100 + i,
            bytes_up=i % 7,
            protocol="https" if i % 3 else "http",
            path="/sync" if i % 3 == 0 else "",
        )
        for i in range(n)
    ]


def mme_records(n: int = 120) -> list[MmeRecord]:
    events = ("attach", "detach", "handover", "tracking_area_update")
    return [
        MmeRecord(
            timestamp=1_513_296_000.0 + i,
            subscriber_id=f"s{i % 11:04d}",
            imei="358847080000011",
            sector_id=f"S{i % 5:03d}-001",
            event=events[i % len(events)],
        )
        for i in range(n)
    ]


class TestRoundtrip:
    def test_proxy_roundtrip(self, tmp_path):
        records = proxy_records()
        path = tmp_path / "proxy.bin"
        assert write_bin_records(path, records, ProxyRecord) == len(records)
        assert list(read_bin_records(path, ProxyRecord)) == records

    def test_mme_roundtrip(self, tmp_path):
        records = mme_records()
        path = tmp_path / "mme.bin"
        write_bin_records(path, records, MmeRecord)
        assert list(read_bin_records(path, MmeRecord)) == records

    def test_empty_roundtrip(self, tmp_path):
        path = tmp_path / "proxy.bin"
        assert write_bin_records(path, [], ProxyRecord) == 0
        assert list(read_bin_records(path, ProxyRecord)) == []

    def test_multi_block_roundtrip(self, tmp_path):
        records = proxy_records(500)
        path = tmp_path / "proxy.bin"
        write_bin_records(path, records, ProxyRecord, block_rows=64)
        assert list(read_bin_records(path, ProxyRecord)) == records

    def test_float_timestamps_are_exact(self, tmp_path):
        # Binary floats round-trip bit for bit; no repr() involved.
        records = [
            ProxyRecord(
                timestamp=1_513_296_000.123456789,
                subscriber_id="s1",
                imei="358847080000011",
                host="h",
                bytes_down=1,
            )
        ]
        path = tmp_path / "proxy.bin"
        write_bin_records(path, records, ProxyRecord)
        (loaded,) = read_bin_records(path, ProxyRecord)
        assert loaded.timestamp == records[0].timestamp


class TestDeterminism:
    def test_same_records_same_bytes(self, tmp_path):
        records = proxy_records()
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        write_bin_records(a, records, ProxyRecord)
        write_bin_records(b, records, ProxyRecord)
        assert a.read_bytes() == b.read_bytes()

    def test_block_payloads_carry_no_mtime(self, tmp_path):
        path = tmp_path / "proxy.bin"
        write_bin_records(path, proxy_records(10), ProxyRecord)
        data = path.read_bytes()
        offset = data.index(BLOCK_MAGIC)
        header = binfmt._BLOCK_HEADER.unpack_from(data, offset)
        comp_len = header[1]
        payload = data[
            offset + binfmt._BLOCK_HEADER.size :
            offset + binfmt._BLOCK_HEADER.size + comp_len
        ]
        # gzip member MTIME field (bytes 4..8) must be zero.
        assert payload[:2] == b"\x1f\x8b"
        assert payload[4:8] == b"\x00\x00\x00\x00"
        gzip.decompress(payload)  # and it is a complete member


class TestNumpyParity:
    """The numpy column codec against the wire layout (little-endian
    float64 / int64), encoded independently with :mod:`struct`."""

    FLOATS = [0.0, -1.5, 1e300, 3.141592653589793, 1_700_000_000.25]
    INTS = [0, -1, 2**62, 42, -(2**63)]

    def test_encode_bytes_identical(self):
        assert binfmt._pack_numeric(self.FLOATS, "d") == struct.pack(
            f"<{len(self.FLOATS)}d", *self.FLOATS
        )
        assert binfmt._pack_numeric(self.INTS, "q") == struct.pack(
            f"<{len(self.INTS)}q", *self.INTS
        )

    def test_decode_results_identical(self, tmp_path):
        packed = struct.pack(f"<{len(self.INTS)}q", *self.INTS)
        assert binfmt._unpack_numeric(memoryview(packed), "q").tolist() == self.INTS
        records = mme_records(300)
        path = tmp_path / "mme.bin"
        write_bin_records(path, records, MmeRecord)
        assert list(read_bin_records(path, MmeRecord)) == records


class TestStrictRejection:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "proxy.bin"
        write_bin_records(path, proxy_records(5), ProxyRecord)
        data = bytearray(path.read_bytes())
        data[:4] = b"XXXX"
        path.write_bytes(bytes(data))
        with pytest.raises(LogReadError) as excinfo:
            list(read_bin_records(path, ProxyRecord))
        assert excinfo.value.code == "magic"

    def test_unknown_version(self, tmp_path):
        path = tmp_path / "proxy.bin"
        write_bin_records(path, proxy_records(5), ProxyRecord)
        data = bytearray(path.read_bytes())
        struct.pack_into("<H", data, 4, VERSION + 41)
        path.write_bytes(bytes(data))
        with pytest.raises(LogReadError) as excinfo:
            list(read_bin_records(path, ProxyRecord))
        assert excinfo.value.code == "version"

    def test_kind_mismatch(self, tmp_path):
        path = tmp_path / "mme.bin"
        write_bin_records(path, mme_records(5), MmeRecord)
        with pytest.raises(LogReadError) as excinfo:
            list(read_bin_records(path, ProxyRecord))
        assert excinfo.value.code == "magic"

    def test_structural_errors_raise_even_in_lenient(self, tmp_path):
        path = tmp_path / "proxy.bin"
        path.write_bytes(b"not a binary log at all")
        collector = QuarantineCollector()
        with pytest.raises(LogReadError):
            list(read_bin_records(path, ProxyRecord, collector))

    def test_out_of_domain_value_strict(self, tmp_path):
        from repro.logs.binfmt import write_bin_rows
        from repro.logs.io import fields_for

        path = tmp_path / "proxy.bin"
        good = proxy_records(3)
        getter = [tuple(getattr(r, f) for f in fields_for(ProxyRecord)) for r in good]
        bad = list(getter[0])
        bad[6] = -5  # bytes_up < 0 fails __post_init__
        entries = [("row", tuple(bad))] + [("row", g) for g in getter[1:]]
        write_bin_rows(path, entries, ProxyRecord)
        with pytest.raises(LogReadError) as excinfo:
            list(read_bin_records(path, ProxyRecord))
        assert excinfo.value.code == "value"


class TestHeaderAndSchema:
    def test_file_magic_and_version(self, tmp_path):
        header = file_header_bytes(ProxyRecord)
        assert header[:4] == FILE_MAGIC
        assert struct.unpack_from("<H", header, 4)[0] == VERSION

    def test_bucket_is_stable_byte(self):
        for key in ("s0001", "s0002", "anything"):
            assert 0 <= bucket_of(key) < 256
            assert bucket_of(key) == bucket_of(key)


class TestShardedReads:
    """Block-skipping reads.  Only the time range skips blocks: account
    shards are selected per row by ``StudyDataset.load``."""

    def test_time_range_skip(self, tmp_path):
        records = proxy_records(300)
        path = tmp_path / "proxy.bin"
        write_bin_records(path, records, ProxyRecord, block_rows=25)
        lo = records[100].timestamp
        hi = records[200].timestamp
        got = list(
            read_bin_records(path, ProxyRecord, time_range=(lo, hi))
        )
        assert got == [r for r in records if lo <= r.timestamp <= hi]


class TestLenientIngestion:
    def test_truncated_tail_exact_accounting(self, tmp_path):
        records = proxy_records(256)
        path = tmp_path / "proxy.bin"
        write_bin_records(path, records, ProxyRecord, block_rows=64)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 40])  # cut into final block
        collector = QuarantineCollector()
        kept = list(read_bin_records(path, ProxyRecord, collector))
        report = collector.report()
        assert kept == records[:192]
        assert report.count("proxy-truncated") >= 1
        # Exact accounting: every row either survived or is quarantined.
        assert report.rows_read["proxy"] == 256
        assert report.rows_quarantined["proxy"] == 64

    def test_garbage_between_blocks_resyncs(self, tmp_path):
        records = proxy_records(128)
        path = tmp_path / "proxy.bin"
        write_bin_records(path, records, ProxyRecord, block_rows=64)
        data = path.read_bytes()
        second = data.index(BLOCK_MAGIC, data.index(BLOCK_MAGIC) + 4)
        spliced = data[:second] + b"#!corrupted segment!#" + data[second:]
        path.write_bytes(spliced)
        collector = QuarantineCollector()
        kept = list(read_bin_records(path, ProxyRecord, collector))
        assert kept == records  # every real row survives the resync
        assert collector.report().count("proxy-fields") == 1

    def test_flipped_block_header_magic_quarantines_one_block(self, tmp_path):
        """A flipped byte inside a block *header* magic makes that block
        unframeable; the reader resyncs on the next magic and loses only
        the damaged block's rows (surfaced as one pseudo-row issue)."""
        records = proxy_records(256)
        path = tmp_path / "proxy.bin"
        write_bin_records(path, records, ProxyRecord, block_rows=64)
        data = bytearray(path.read_bytes())
        second = data.index(BLOCK_MAGIC, data.index(BLOCK_MAGIC) + 4)
        data[second] ^= 0xFF  # corrupt the second block's magic
        path.write_bytes(bytes(data))
        collector = QuarantineCollector()
        kept = list(read_bin_records(path, ProxyRecord, collector))
        report = collector.report()
        # Blocks 1, 3 and 4 survive intact; block 2 (rows 64..127) is
        # skipped by the resync scan.
        assert kept == records[:64] + records[128:]
        assert report.count("proxy-fields") == 1
        # The unframeable region can't expose a row count, so accounting
        # charges it as a single quarantined pseudo-row.
        assert report.rows_read["proxy"] == len(kept) + 1
        assert report.rows_quarantined["proxy"] == 1

    def test_flipped_payload_byte_quarantines_exact_block(self, tmp_path):
        """A flipped byte inside a block's gzip member fails decompress;
        exactly that block's rows are quarantined and every other block
        survives, with exact accounting."""
        records = proxy_records(256)
        path = tmp_path / "proxy.bin"
        write_bin_records(path, records, ProxyRecord, block_rows=64)
        data = bytearray(path.read_bytes())
        second = data.index(BLOCK_MAGIC, data.index(BLOCK_MAGIC) + 4)
        payload_start = second + binfmt._BLOCK_HEADER.size
        data[payload_start + 30] ^= 0xFF  # inside the gzip member
        path.write_bytes(bytes(data))
        collector = QuarantineCollector()
        kept = list(read_bin_records(path, ProxyRecord, collector))
        report = collector.report()
        assert kept == records[:64] + records[128:]
        assert report.count("proxy-truncated") == 64
        # Exact accounting: the header still frames the block, so all 64
        # damaged rows are charged individually.
        assert report.rows_read["proxy"] == 256
        assert report.rows_quarantined["proxy"] == 64

    def test_flipped_payload_byte_strict_raises(self, tmp_path):
        records = proxy_records(256)
        path = tmp_path / "proxy.bin"
        write_bin_records(path, records, ProxyRecord, block_rows=64)
        data = bytearray(path.read_bytes())
        second = data.index(BLOCK_MAGIC, data.index(BLOCK_MAGIC) + 4)
        data[second + binfmt._BLOCK_HEADER.size + 30] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(LogReadError) as excinfo:
            list(read_bin_records(path, ProxyRecord))
        assert excinfo.value.code == "truncated"

    def test_lenient_never_block_skips(self, tmp_path):
        """Time-range reads with a collector still see every row (exact
        quarantine accounting trumps the skip optimisation)."""
        records = proxy_records(300)
        path = tmp_path / "proxy.bin"
        write_bin_records(path, records, ProxyRecord, block_rows=32)
        collector = QuarantineCollector()
        lo = records[100].timestamp
        hi = records[200].timestamp
        kept = list(
            read_bin_records(path, ProxyRecord, collector, time_range=(lo, hi))
        )
        assert kept == [r for r in records if lo <= r.timestamp <= hi]
        assert collector.report().rows_read["proxy"] == 300

    def test_default_block_rows_sane(self):
        assert 1024 <= DEFAULT_BLOCK_ROWS <= 65536
