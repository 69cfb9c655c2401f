"""Unit tests for the public block-level API of :mod:`repro.logs.binfmt`.

``iter_blocks`` / ``resume_offset`` / the ``start_offset``/``end_offset``
bounds on ``read_bin_records`` are the contract the ``repro.serve``
tailer builds on: a growing ``.bin`` stream must be resumable at exact
block boundaries, an unfinished block must read as "not arrived yet"
rather than truncated, and a bounded read of ``[resume_i, resume_j)``
must yield exactly the rows of the blocks in between.
"""

import struct

import pytest

from repro.logs import binfmt
from repro.logs.binfmt import (
    file_header_bytes,
    iter_blocks,
    read_bin_records,
    resume_offset,
    write_bin_records,
)
from repro.logs.io import LogReadError
from repro.logs.quarantine import QuarantineCollector
from repro.logs.records import ProxyRecord

from tests.logs.test_binfmt import proxy_records


@pytest.fixture()
def multi_block(tmp_path):
    """A five-block proxy log plus its records."""
    records = proxy_records(300)
    path = tmp_path / "proxy.bin"
    write_bin_records(path, records, ProxyRecord, block_rows=64)
    return path, records


class TestIterBlocks:
    def test_offsets_ascend_and_cover_the_file(self, multi_block):
        path, records = multi_block
        blocks = list(iter_blocks(path, ProxyRecord))
        assert len(blocks) == 5
        offsets = [offset for offset, _ in blocks]
        assert offsets == sorted(offsets)
        assert offsets[0] == len(file_header_bytes(ProxyRecord))
        assert sum(header.rows for _, header in blocks) == len(records)
        # The last block's frame ends exactly at EOF.
        last_offset, last_header = blocks[-1]
        frame = binfmt._BLOCK_HEADER.size + last_header.comp_len
        assert last_offset + frame == path.stat().st_size

    def test_header_time_ranges_match_rows(self, multi_block):
        path, records = multi_block
        start = 0
        for _, header in iter_blocks(path, ProxyRecord):
            batch = records[start : start + header.rows]
            assert header.min_ts == min(r.timestamp for r in batch)
            assert header.max_ts == max(r.timestamp for r in batch)
            start += header.rows

    def test_truncated_tail_stops_cleanly(self, multi_block):
        path, _ = multi_block
        blocks = list(iter_blocks(path, ProxyRecord))
        # Cut in the middle of the last block's payload.
        cut = blocks[-1][0] + binfmt._BLOCK_HEADER.size + 3
        path.write_bytes(path.read_bytes()[:cut])
        assert list(iter_blocks(path, ProxyRecord)) == blocks[:-1]

    def test_bad_block_magic_raises(self, multi_block):
        path, _ = multi_block
        blocks = list(iter_blocks(path, ProxyRecord))
        data = bytearray(path.read_bytes())
        data[blocks[2][0]] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(LogReadError) as err:
            list(iter_blocks(path, ProxyRecord))
        assert err.value.code == "magic"

    def test_empty_file_has_no_blocks(self, tmp_path):
        path = tmp_path / "proxy.bin"
        write_bin_records(path, [], ProxyRecord)
        assert list(iter_blocks(path, ProxyRecord)) == []


class TestResumeOffset:
    def test_empty_file_resumes_after_header(self, tmp_path):
        path = tmp_path / "proxy.bin"
        write_bin_records(path, [], ProxyRecord)
        assert resume_offset(path, ProxyRecord) == path.stat().st_size

    def test_complete_file_resumes_at_eof(self, multi_block):
        path, _ = multi_block
        assert resume_offset(path, ProxyRecord) == path.stat().st_size

    def test_partial_tail_resumes_at_last_complete_block(self, multi_block):
        path, _ = multi_block
        blocks = list(iter_blocks(path, ProxyRecord))
        whole = path.read_bytes()
        # Any cut inside the final frame resumes before it.
        path.write_bytes(whole[: blocks[-1][0] + 7])
        assert resume_offset(path, ProxyRecord) == blocks[-1][0]

    def test_garbage_between_blocks_is_skipped(self, multi_block):
        """The offset moves past spliced garbage once the block after it
        is complete, exactly where the lenient reader resyncs."""
        path, records = multi_block
        blocks = list(iter_blocks(path, ProxyRecord))
        whole = path.read_bytes()
        cut = blocks[3][0]
        garbage = b"not a block header at all, just noise"
        spliced = whole[:cut] + garbage + whole[cut:]
        path.write_bytes(spliced)
        assert resume_offset(path, ProxyRecord) == len(spliced)
        collector = QuarantineCollector()
        assert list(read_bin_records(path, ProxyRecord, collector)) == records
        assert collector.count("proxy-fields") == 1
        # Until the block after the garbage is complete, the offset stays
        # before the garbage: the block may still be being appended.
        for end in (cut + 5, cut + len(garbage) + 70):
            path.write_bytes(spliced[:end])
            assert resume_offset(path, ProxyRecord) == cut

    def test_truncated_file_header_is_truncated_error(self, tmp_path):
        path = tmp_path / "proxy.bin"
        path.write_bytes(file_header_bytes(ProxyRecord)[:5])
        with pytest.raises(LogReadError) as err:
            resume_offset(path, ProxyRecord)
        assert err.value.code == "truncated"


class TestBoundedReads:
    def test_start_offset_reads_the_suffix(self, multi_block):
        path, records = multi_block
        blocks = list(iter_blocks(path, ProxyRecord))
        skipped = sum(h.rows for _, h in blocks[:2])
        got = list(
            read_bin_records(path, ProxyRecord, start_offset=blocks[2][0])
        )
        assert got == records[skipped:]

    def test_end_offset_bounds_the_read(self, multi_block):
        path, records = multi_block
        blocks = list(iter_blocks(path, ProxyRecord))
        kept = sum(h.rows for _, h in blocks[:3])
        got = list(
            read_bin_records(path, ProxyRecord, end_offset=blocks[3][0])
        )
        assert got == records[:kept]

    def test_block_window_reads_exactly_those_blocks(self, multi_block):
        path, records = multi_block
        blocks = list(iter_blocks(path, ProxyRecord))
        before = sum(h.rows for _, h in blocks[:1])
        inside = sum(h.rows for _, h in blocks[1:4])
        got = list(
            read_bin_records(
                path,
                ProxyRecord,
                start_offset=blocks[1][0],
                end_offset=blocks[4][0],
            )
        )
        assert got == records[before : before + inside]

    def test_growing_stream_replay_matches_full_read(self, multi_block):
        """Reading [resume_i, resume_j) windows re-assembles the file."""
        path, records = multi_block
        whole = path.read_bytes()
        grow = path.with_name("grow.bin")
        seen: list[ProxyRecord] = []
        offset = None
        for frac in (0.3, 0.6, 0.85, 1.0):
            grow.write_bytes(whole[: int(len(whole) * frac)])
            end = resume_offset(grow, ProxyRecord)
            if offset is not None and end <= offset:
                continue
            seen.extend(
                read_bin_records(
                    grow, ProxyRecord, start_offset=offset, end_offset=end
                )
            )
            offset = end
        assert seen == records

    def test_end_offset_hides_unfinished_tail_from_lenient(self, multi_block):
        """A bounded lenient read never quarantines the growing block."""
        path, _ = multi_block
        blocks = list(iter_blocks(path, ProxyRecord))
        whole = path.read_bytes()
        path.write_bytes(whole[: blocks[-1][0] + 11])
        collector = QuarantineCollector()
        list(
            read_bin_records(
                path,
                ProxyRecord,
                collector,
                end_offset=blocks[-1][0],
            )
        )
        assert collector.report().ok

    def test_start_offset_must_be_at_or_after_data(self, multi_block):
        path, _ = multi_block
        with pytest.raises(ValueError):
            list(read_bin_records(path, ProxyRecord, start_offset=1))
