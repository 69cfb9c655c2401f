"""Compact, versioned binary columnar trace format (``.bin``).

CSV remains the interchange format for trace directories, but the
row-by-row ``dict`` round-trip in :mod:`repro.logs.io` is the ceiling on
every throughput goal in the roadmap.  This module stores the same
records as **length-prefixed, gzip-member-framed blocks of fixed-width
column batches**, so the hot paths (engine spill/export, analysis
reads) move bytes with :mod:`struct`/:mod:`array` instead of parsing
text.

Wire layout (all integers little-endian)::

    file   := file-header block*
    file-header
           := magic[4]="RPBF" version:u16 kind:u8 flags:u8
              schema_len:u32 schema[schema_len]      # compact JSON
    block  := block-header payload[comp_len]
    block-header (64 bytes)
           := magic[4]="RPBB" comp_len:u32 rows:u32
              min_bucket:u16 max_bucket:u16
              min_ts:f64 max_ts:f64 bucket_bitmap[32]
    payload := gzip( column* )                        # one gzip member
    column  := f64[rows]                              # float column
             | i64[rows]                              # int column
             | n_uniques:u32 width:u8 blob_len:u32    # str column,
               u32[n_uniques] utf8[blob_len]          #   dict-encoded:
               (u16|u32)[rows]                        #   unique char
                                                      #   lengths + blob,
                                                      #   then one index
                                                      #   per row (u16 if
                                                      #   n_uniques fits)

Per-block headers carry the min/max timestamp, so strict time-range
reads skip whole blocks without decompressing them, and a 256-entry
subscriber *bucket* bitmap (``crc32(subscriber_id) & 0xFF``).  No reader
uses the bitmap: analysis shards are keyed by billing *account*, which a
subscriber bucket cannot encode, so shard selection happens per row in
:meth:`repro.core.dataset.StudyDataset.load`.  The bitmap stays in the
v1 layout so existing files keep their bytes.

Version / compatibility policy: the file header carries an explicit
``version`` and a self-describing column schema.  Readers reject a bad
magic (``code="magic"``), an unknown version, or a schema that does not
match the record type (``code="version"``) — there is no silent
best-effort decoding across format revisions.  CSV is the migration
path between incompatible binary versions (``repro convert``).

Strict/lenient semantics mirror the CSV reader: strict raises
:class:`~repro.logs.io.LogReadError`; with a quarantine collector,
undecodable bytes between blocks are skipped after resyncing on the
block magic (:func:`resume_offset` skips them the same way, so a tailer
keeps following a stream past them), rows that fail record validation
are quarantined individually, and a truncated tail block is quarantined
with **exact** row accounting (the block header says how many rows were
lost).

Both readers run one block loop (``_decoded_blocks``):
:func:`read_bin_records` builds records from each decoded block, and
:func:`read_bin_table` — the strict analysis load — appends each block's
columns to a :class:`~repro.logs.columns.ColumnTable`, recoding the
block's string dictionaries into one dictionary per field, and builds no
rows.

Numeric columns are packed and unpacked with numpy (a hard dependency
of the package).
"""

from __future__ import annotations

import gzip
import json
import os
import struct
import sys
import time
import zlib
from array import array
from itertools import islice
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, Type

import numpy as np

from repro import obs
from repro.logs.columns import ColumnTable, TableAssembler, record_maker, type_codes
from repro.logs.io import LogReadError, log_kind
from repro.logs.quarantine import QuarantineCollector
from repro.logs.records import (
    MmeRecord,
    ProxyRecord,
    _VALID_EVENTS,
    _VALID_PROTOCOLS,
    fields_for,
)
from zlib import crc32

__all__ = [
    "BIN_COMPRESSLEVEL",
    "BLOCK_MAGIC",
    "BlockHeader",
    "DEFAULT_BLOCK_ROWS",
    "FILE_MAGIC",
    "VERSION",
    "bucket_of",
    "file_header_bytes",
    "iter_blocks",
    "pack_block",
    "read_bin_records",
    "read_bin_rows",
    "read_bin_table",
    "resume_offset",
    "write_bin_records",
    "write_bin_rows",
]

FILE_MAGIC = b"RPBF"
BLOCK_MAGIC = b"RPBB"
VERSION = 1

#: Rows per block.  Large enough to amortise per-block framing and gzip
#: member overhead, small enough that block skipping has useful
#: granularity on multi-million-row traces.
DEFAULT_BLOCK_ROWS = 8192

#: Compression level for block payloads.  Binary columns compress far
#: better than CSV text, so level 1 already beats ``.csv.gz`` on size
#: while spending a fraction of the CPU.
BIN_COMPRESSLEVEL = 1

_FILE_HEADER = struct.Struct("<4sHBB")
_SCHEMA_LEN = struct.Struct("<I")
_BLOCK_HEADER = struct.Struct("<4sIIHHdd32s")
#: String column header: distinct-value count, index width (2 or 4
#: bytes), uniques-blob byte length.
_STR_COL = struct.Struct("<IBI")

_KIND_CODES = {ProxyRecord: 1, MmeRecord: 2}
_BIG_ENDIAN = sys.byteorder == "big"


def bucket_of(subscriber_id: str) -> int:
    """256-way subscriber bucket recorded in block headers."""
    return crc32(subscriber_id.encode("utf-8")) & 0xFF


# --------------------------------------------------------------- schema
def _schema_bytes(record_type: type) -> bytes:
    schema = {
        "kind": log_kind(record_type),
        "fields": [
            [name, code]
            for name, code in zip(fields_for(record_type), type_codes(record_type))
        ],
    }
    return json.dumps(schema, separators=(",", ":"), sort_keys=True).encode("ascii")


def file_header_bytes(record_type: type) -> bytes:
    """The deterministic file header for a stream of ``record_type``."""
    kind_code = _KIND_CODES.get(record_type)
    if kind_code is None:
        raise TypeError(f"unknown record type: {record_type!r}")
    schema = _schema_bytes(record_type)
    return (
        _FILE_HEADER.pack(FILE_MAGIC, VERSION, kind_code, 0)
        + _SCHEMA_LEN.pack(len(schema))
        + schema
    )


# ------------------------------------------------------ column packing
def _pack_numeric(values: Sequence, typecode: str) -> bytes:
    dtype = "<f8" if typecode == "d" else "<i8"
    return np.asarray(values, dtype=dtype).tobytes()


def _unpack_numeric(buffer: memoryview, typecode: str) -> np.ndarray:
    dtype = "<f8" if typecode == "d" else "<i8"
    return np.frombuffer(buffer, dtype=dtype)


def _pack_str_column(values: Sequence[str]) -> bytes:
    """Dictionary-encode a string column.

    Log string columns (hosts, protocols, sector ids, subscriber ids)
    repeat heavily, so each distinct value is stored once followed by a
    fixed-width index per row.  That shrinks the pre-compression payload
    several-fold — and gzip time scales with input size, so the encoding
    is also what makes the writer fast.  Worst case (all values
    distinct) costs one u16/u32 per row over storing the strings flat.
    """
    # One dict probe per value; indices are assigned in first-occurrence
    # order, so the encoding is deterministic for a fixed record stream.
    uniques: dict[str, int] = {}
    lookup = uniques.get
    next_index = 0
    indices = []
    append = indices.append
    for value in values:
        index = lookup(value)
        if index is None:
            uniques[value] = index = next_index
            next_index += 1
        append(index)
    width = 2 if len(uniques) <= 0xFFFF else 4
    idx = array("H" if width == 2 else "I", indices)
    lens = array("I", map(len, uniques))
    blob = "".join(uniques).encode("utf-8")
    if _BIG_ENDIAN:
        idx.byteswap()
        lens.byteswap()
    return (
        _STR_COL.pack(len(uniques), width, len(blob))
        + lens.tobytes()
        + blob
        + idx.tobytes()
    )


def pack_block(rows: Sequence[tuple], record_type: type) -> bytes:
    """Pack typed row tuples (field order) into one framed block.

    Exposed for the fault injector, which re-encodes mutated rows that
    would never pass :func:`write_bin_records`' record constructors.
    """
    if not rows:
        raise ValueError("cannot pack an empty block")
    return pack_columns(list(zip(*rows)), record_type)


def pack_columns(cols: Sequence[Sequence], record_type: type) -> bytes:
    """Pack per-field value columns into one framed block.

    The columnar twin of :func:`pack_block`; the writer extracts columns
    directly so rows never materialise as tuples.
    """
    if not cols or not cols[0]:
        raise ValueError("cannot pack an empty block")
    codes = type_codes(record_type)
    ts_col = cols[0]
    # The bitmap/min/max summary only depends on the *distinct* buckets,
    # and subscriber ids repeat heavily within a block, so hash uniques.
    buckets = {
        crc32(subscriber_id.encode("utf-8")) & 0xFF
        for subscriber_id in set(cols[1])
    }
    bitmap = 0
    for bucket in buckets:
        bitmap |= 1 << bucket
    min_bucket = min(buckets)
    max_bucket = max(buckets)
    pieces = []
    for col, code in zip(cols, codes):
        if code == "f":
            pieces.append(_pack_numeric(col, "d"))
        elif code == "i":
            pieces.append(_pack_numeric(col, "q"))
        else:
            pieces.append(_pack_str_column(col))
    payload = gzip.compress(
        b"".join(pieces), compresslevel=BIN_COMPRESSLEVEL, mtime=0
    )
    header = _BLOCK_HEADER.pack(
        BLOCK_MAGIC,
        len(payload),
        len(ts_col),
        min_bucket,
        max_bucket,
        min(ts_col),
        max(ts_col),
        bitmap.to_bytes(32, "little"),
    )
    return header + payload


def _unpack_columns(payload: bytes, record_type: type, rows: int) -> list:
    """Decode one decompressed block payload into per-field columns.

    Numeric fields come back as numpy arrays (float64 / int64); string
    fields as ``(values, index)`` pairs: the block's distinct values and
    one index per row into them.
    """
    codes = type_codes(record_type)
    view = memoryview(payload)
    offset = 0
    cols: list = []
    for code in codes:
        if code in ("f", "i"):
            end = offset + rows * 8
            cols.append(
                _unpack_numeric(view[offset:end], "d" if code == "f" else "q")
            )
            offset = end
        else:
            n_uniques, width, blob_len = _STR_COL.unpack_from(payload, offset)
            offset += _STR_COL.size
            if width not in (2, 4):
                raise ValueError(f"bad string index width {width}")
            lens_end = offset + n_uniques * 4
            lens = array("I")
            lens.frombytes(view[offset:lens_end])
            if _BIG_ENDIAN:
                lens.byteswap()
            offset = lens_end
            blob = str(view[offset : offset + blob_len], "utf-8")
            offset += blob_len
            uniq = []
            append = uniq.append
            pos = 0
            for length in lens:
                append(blob[pos : pos + length])
                pos += length
            if pos != len(blob):
                raise ValueError("string column blob length mismatch")
            idx = np.frombuffer(
                view[offset : offset + rows * width],
                dtype="<u2" if width == 2 else "<u4",
            )
            offset += rows * width
            if len(idx) and int(idx.max()) >= len(uniq):
                raise ValueError("string index out of range")
            cols.append((uniq, idx))
    if offset != len(payload):
        raise ValueError("block payload has trailing bytes")
    if any(len(col[1] if isinstance(col, tuple) else col) != rows for col in cols):
        raise ValueError("column length does not match block row count")
    return cols


def _row_lists(cols: Sequence, keep: np.ndarray | None = None) -> list[list]:
    """Per-field Python value lists of a decoded block's (kept) rows."""
    lists = []
    for col in cols:
        if isinstance(col, tuple):
            uniq, idx = col
            if keep is not None:
                idx = idx[keep]
            lists.append(list(map(uniq.__getitem__, idx.tolist())))
        else:
            lists.append((col if keep is None else col[keep]).tolist())
    return lists


# ------------------------------------------------------ column getters
_GETTERS: dict[type, list[Callable]] = {}


def _fast_getters(record_type: type) -> list[Callable]:
    """One prebound slot-descriptor ``__get__`` per field.

    ``map(getter, batch)`` extracts a whole column in C, which beats an
    ``attrgetter`` row-tuple pass followed by ``zip(*rows)``.
    """
    getters = _GETTERS.get(record_type)
    if getters is None:
        getters = [
            getattr(record_type, name).__get__
            for name in fields_for(record_type)
        ]
        _GETTERS[record_type] = getters
    return getters


def _block_valid(record_type: type, cols: Sequence) -> bool:
    """Batch equivalent of the record ``__post_init__`` checks.

    String checks look at the block's distinct values, numeric checks at
    the whole column; a block that fails goes row by row.
    """
    if not np.isfinite(cols[0]).all():
        return False
    if record_type is ProxyRecord:
        return (
            set(cols[5][0]) <= _VALID_PROTOCOLS
            and all(cols[1][0])
            and all(cols[3][0])
            and not (cols[6] < 0).any()
            and not (cols[7] < 0).any()
        )
    return set(cols[4][0]) <= _VALID_EVENTS and all(cols[1][0]) and all(cols[3][0])


# -------------------------------------------------------------- writer
def write_bin_records(
    path: str | Path,
    records: Iterable,
    record_type: Type[ProxyRecord] | Type[MmeRecord],
    *,
    category: str = "log",
    block_rows: int = DEFAULT_BLOCK_ROWS,
) -> int:
    """Write records as framed binary blocks; returns the row count.

    Counterpart of :func:`repro.logs.io.write_csv_records` — same
    observability counters with ``format="bin"``.  Output bytes are a
    pure function of the record stream (gzip members carry ``mtime=0``
    and no filename), so identical runs produce SHA-identical files.
    """
    target = Path(path)
    kind = log_kind(record_type)
    on = obs.enabled()
    started = time.perf_counter() if on else 0.0
    getters = _fast_getters(record_type)
    count = 0
    with target.open("wb") as handle:
        handle.write(file_header_bytes(record_type))
        # Chunk through C iterators (islice + one map per column) rather
        # than a per-record Python loop; the difference is ~5x on
        # extraction, and the columns go straight into pack_columns
        # without ever materialising row tuples.
        iterator = iter(records)
        while True:
            batch = list(islice(iterator, block_rows))
            if not batch:
                break
            cols = [list(map(get, batch)) for get in getters]
            handle.write(pack_columns(cols, record_type))
            count += len(batch)
    if on:
        registry = obs.metrics()
        registry.counter(
            "repro_io_rows_written_total",
            stream=kind,
            format="bin",
            category=category,
        ).add(count)
        registry.counter(
            "repro_io_bytes_written_total", stream=kind, category=category
        ).add(target.stat().st_size)
        registry.histogram(
            "repro_io_write_seconds", stream=kind, category=category
        ).observe(time.perf_counter() - started)
    return count


def write_bin_rows(
    path: str | Path,
    entries: Iterable[tuple[str, object]],
    record_type: Type[ProxyRecord] | Type[MmeRecord],
    *,
    block_rows: int = DEFAULT_BLOCK_ROWS,
) -> int:
    """Low-level writer over ``("row", values)`` / ``("raw", bytes)`` entries.

    Used by the fault injector: ``row`` entries are typed value tuples
    written without any validation (so out-of-domain values survive the
    round trip, exactly like editing a CSV line), and ``raw`` entries
    are arbitrary bytes spliced *between* blocks — the binary analogue
    of a garbage line in a text log.
    """
    target = Path(path)
    count = 0
    with target.open("wb") as handle:
        handle.write(file_header_bytes(record_type))
        batch: list[tuple] = []

        def flush() -> None:
            nonlocal count
            if batch:
                handle.write(pack_block(batch, record_type))
                count += len(batch)
                batch.clear()

        for tag, value in entries:
            if tag == "row":
                batch.append(tuple(value))
                if len(batch) >= block_rows:
                    flush()
            else:
                flush()
                handle.write(value)
        flush()
    return count


# -------------------------------------------------------------- reader
def _read_exact(handle, size: int) -> bytes:
    """Read exactly ``size`` bytes unless EOF intervenes."""
    chunks = []
    remaining = size
    while remaining > 0:
        chunk = handle.read(remaining)
        if not chunk:
            break
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _read_file_header(
    handle, source: Path, record_type: type | None
) -> int:
    """Validate the file header; returns the first block's byte offset.

    With ``record_type=None`` only the structural checks run (magic,
    version, schema framing) — the stream kind and column schema are
    accepted as-is, which is what offset-level tools like
    :func:`iter_blocks` need.
    """
    head = _read_exact(handle, _FILE_HEADER.size)
    if len(head) < _FILE_HEADER.size:
        raise LogReadError(
            source, 0, "file too short for binfmt header", code="truncated"
        )
    magic, version, kind_code, _flags = _FILE_HEADER.unpack(head)
    if magic != FILE_MAGIC:
        raise LogReadError(
            source, 0, f"bad magic {magic!r}: not a repro binary log", code="magic"
        )
    if version != VERSION:
        raise LogReadError(
            source,
            0,
            f"unsupported binfmt version {version} (supported: {VERSION})",
            code="version",
        )
    if record_type is not None and kind_code != _KIND_CODES[record_type]:
        raise LogReadError(
            source,
            0,
            f"stream kind {kind_code} does not match {log_kind(record_type)}",
            code="magic",
        )
    raw_len = _read_exact(handle, _SCHEMA_LEN.size)
    if len(raw_len) < _SCHEMA_LEN.size:
        raise LogReadError(
            source, 0, "file truncated inside schema header", code="truncated"
        )
    (schema_len,) = _SCHEMA_LEN.unpack(raw_len)
    schema = _read_exact(handle, schema_len)
    if len(schema) < schema_len:
        raise LogReadError(
            source, 0, "file truncated inside schema header", code="truncated"
        )
    if record_type is not None and schema != _schema_bytes(record_type):
        raise LogReadError(
            source,
            0,
            "embedded schema does not match this reader's record layout",
            code="version",
        )
    return _FILE_HEADER.size + _SCHEMA_LEN.size + schema_len


class BlockHeader(NamedTuple):
    """Decoded 64-byte block header (see the module wire layout)."""

    comp_len: int
    rows: int
    min_bucket: int
    max_bucket: int
    min_ts: float
    max_ts: float
    bitmap: bytes


def iter_blocks(
    path: str | Path, record_type: type | None = None
) -> Iterator[tuple[int, BlockHeader]]:
    """Yield ``(byte_offset, header)`` for every *complete* block.

    Scans block headers only — payloads are seeked over, never read or
    decompressed — so the whole file costs one 64-byte read per block.
    An incomplete tail (a short block header, or a payload the file does
    not yet fully contain) ends the scan cleanly instead of raising: on
    a growing stream those bytes simply have not arrived yet.  Bad block
    magic raises :class:`~repro.logs.io.LogReadError` — offset-level
    iteration has no way to resynchronise safely.
    """
    source = Path(path)
    with source.open("rb") as handle:
        offset = _read_file_header(handle, source, record_type)
        file_size = os.fstat(handle.fileno()).st_size
        while offset + _BLOCK_HEADER.size <= file_size:
            handle.seek(offset)
            raw = _read_exact(handle, _BLOCK_HEADER.size)
            if len(raw) < _BLOCK_HEADER.size:
                return
            (
                magic,
                comp_len,
                rows,
                min_bucket,
                max_bucket,
                min_ts,
                max_ts,
                bitmap,
            ) = _BLOCK_HEADER.unpack(raw)
            if magic != BLOCK_MAGIC:
                raise LogReadError(
                    source,
                    offset,
                    f"bad block magic {magic!r} at byte {offset}",
                    code="magic",
                )
            end = offset + _BLOCK_HEADER.size + comp_len
            if end > file_size:
                return
            yield offset, BlockHeader(
                comp_len, rows, min_bucket, max_bucket, min_ts, max_ts, bitmap
            )
            offset = end


def resume_offset(path: str | Path, record_type: type | None = None) -> int:
    """Byte offset just past the last complete block.

    This is where a tailer resumes reading a growing ``.bin`` stream:
    everything before it has been consumed as whole blocks, everything
    after it is a block still being appended.  On a file with no blocks
    yet it is the first-block offset (just past the file header).

    Undecodable bytes between blocks are skipped the way the lenient
    reader resyncs (the next block magic ends them), so garbage spliced
    into a stream never stops the offset from advancing: it moves past
    the garbage once the block after it is complete.
    """
    source = Path(path)
    with source.open("rb") as handle:
        offset = _read_file_header(handle, source, record_type)
        file_size = os.fstat(handle.fileno()).st_size
        while True:
            header = _read_exact(handle, _BLOCK_HEADER.size)
            if len(header) < _BLOCK_HEADER.size:
                return offset
            magic, comp_len, *_rest = _BLOCK_HEADER.unpack(header)
            if magic != BLOCK_MAGIC:
                if not _skip_garbage(handle, header)[1]:
                    return offset
                continue
            end = handle.tell() + comp_len
            if end > file_size:
                return offset
            handle.seek(end)
            offset = end


def read_bin_records(
    path: str | Path,
    record_type: Type[ProxyRecord] | Type[MmeRecord],
    quarantine: QuarantineCollector | None = None,
    *,
    category: str = "log",
    time_range: tuple[float, float] | None = None,
    start_offset: int | None = None,
    end_offset: int | None = None,
) -> Iterator:
    """Stream records from a binary log written by :func:`write_bin_records`.

    Strict by default; ``quarantine`` switches to lenient ingestion with
    the same contract as the CSV reader.  ``time_range=(t0, t1)`` keeps
    only rows inside the range and, in strict mode, skips whole blocks
    via their header min/max timestamps (lenient reads decode every
    block so row accounting stays exact).
    ``start_offset`` resumes the read at a block boundary previously
    obtained from :func:`iter_blocks` / :func:`resume_offset` — the file
    header is still validated, then the reader seeks straight there.
    ``end_offset`` stops the read at a block boundary: tailers of a
    growing stream bound the read at :func:`resume_offset` so a block
    still being appended is never mistaken for a truncated tail.
    """
    make = record_maker(record_type)
    for cols, keep, records in _decoded_blocks(
        path,
        record_type,
        quarantine,
        category=category,
        time_range=time_range,
        start_offset=start_offset,
        end_offset=end_offset,
    ):
        yield from records if records is not None else make(*_row_lists(cols, keep))


def read_bin_table(
    path: str | Path,
    record_type: Type[ProxyRecord] | Type[MmeRecord],
    *,
    category: str = "log",
) -> ColumnTable:
    """Decode a whole binary log, strictly, into one :class:`ColumnTable`.

    The same block loop as :func:`read_bin_records` (same checks, same
    :class:`~repro.logs.io.LogReadError` codes and messages), but no row
    is built: each block's columns go straight into the table, its
    string dictionaries recoded into one dictionary per field.
    """
    assembler = TableAssembler(record_type)
    for cols, keep, _records in _decoded_blocks(
        path, record_type, None, category=category
    ):
        assembler.add(cols, keep)
    return assembler.table()


#: What decompressing and unpacking a damaged block payload raises.
#: zlib.error is not an OSError: a byte flipped *inside* a gzip member
#: surfaces as a bare decompress failure, not a BadGzipFile.
_PAYLOAD_ERRORS = (OSError, EOFError, ValueError, struct.error, zlib.error)


def _decoded_blocks(
    path: str | Path,
    record_type: type,
    quarantine: QuarantineCollector | None,
    *,
    category: str,
    time_range: tuple[float, float] | None = None,
    start_offset: int | None = None,
    end_offset: int | None = None,
) -> Iterator[tuple[list, np.ndarray | None, list | None]]:
    """The one ``.bin`` block loop: ``(columns, keep, records)`` per
    decoded block.

    ``columns`` is :func:`_unpack_columns`' output; ``keep`` indexes the
    rows that passed validation and ``time_range`` (None = every row).
    A block that failed its batch checks was validated row by row, and
    ``records`` then holds the kept rows' records (None otherwise).
    Header checks, resync, truncation accounting, row validation and the
    read counters all live here.
    """
    source = Path(path)
    kind = log_kind(record_type)
    on = obs.enabled()
    rows_out = 0
    started = time.perf_counter() if on else 0.0
    try:
        with source.open("rb") as handle:
            try:
                data_start = _read_file_header(handle, source, record_type)
            except LogReadError as exc:
                if quarantine is not None and exc.code == "truncated":
                    quarantine.note(
                        f"{kind}-truncated",
                        "binary log truncated inside the file header",
                        f"{source.name}: {exc.reason}",
                    )
                    return
                raise
            if start_offset is not None:
                if start_offset < data_start:
                    raise ValueError(
                        f"start_offset {start_offset} is inside the file "
                        f"header (first block at {data_start})"
                    )
                handle.seek(start_offset)
            block_index = 0
            while True:
                if end_offset is not None and handle.tell() >= end_offset:
                    return
                header = _read_exact(handle, _BLOCK_HEADER.size)
                if not header:
                    return
                if len(header) < _BLOCK_HEADER.size:
                    # Tail cut inside a block header: the row count is
                    # unrecoverable, so this is a structural note only.
                    if quarantine is None:
                        raise LogReadError(
                            source,
                            block_index,
                            "file truncated inside a block header",
                            code="truncated",
                        )
                    quarantine.note(
                        f"{kind}-truncated",
                        "binary log truncated inside a block header;"
                        " unknown rows lost",
                        f"{source.name}: block {block_index}",
                    )
                    return
                (
                    magic,
                    comp_len,
                    rows,
                    _min_bucket,
                    _max_bucket,
                    min_ts,
                    max_ts,
                    _bitmap,
                ) = _BLOCK_HEADER.unpack(header)
                if magic != BLOCK_MAGIC:
                    if quarantine is None:
                        raise LogReadError(
                            source,
                            block_index,
                            f"bad block magic {magic[:4]!r}",
                            code="magic",
                        )
                    if not _resync(handle, header, source, kind, quarantine):
                        return
                    continue
                payload = _read_exact(handle, comp_len)
                if len(payload) < comp_len:
                    # Tail cut inside a block payload: the header told
                    # us exactly how many rows are gone.
                    if quarantine is None:
                        raise LogReadError(
                            source,
                            block_index,
                            f"file truncated inside block payload"
                            f" ({rows} rows lost)",
                            code="truncated",
                        )
                    for _ in range(rows):
                        quarantine.saw_row(kind)
                        quarantine.quarantine_row(
                            kind,
                            f"{kind}-truncated",
                            "row lost in truncated final binary block",
                            f"{source.name}: block {block_index}",
                        )
                    return
                block_index += 1
                if (
                    quarantine is None
                    and time_range is not None
                    and (max_ts < time_range[0] or min_ts > time_range[1])
                ):
                    continue
                try:
                    cols = _unpack_columns(
                        gzip.decompress(payload), record_type, rows
                    )
                except _PAYLOAD_ERRORS as exc:
                    if quarantine is None:
                        raise LogReadError(
                            source,
                            block_index - 1,
                            f"undecodable block payload: {exc}"
                            f" ({rows} rows lost)",
                            code="truncated",
                        ) from exc
                    for _ in range(rows):
                        quarantine.saw_row(kind)
                        quarantine.quarantine_row(
                            kind,
                            f"{kind}-truncated",
                            "row lost in undecodable binary block",
                            f"{source.name}: block {block_index - 1}",
                        )
                    continue
                if _block_valid(record_type, cols):
                    if quarantine is not None:
                        for _ in range(rows):
                            quarantine.saw_row(kind)
                    keep = None
                    if time_range is not None:
                        low, high = time_range
                        keep = np.flatnonzero((cols[0] >= low) & (cols[0] <= high))
                    yield cols, keep, None
                    rows_out += rows if keep is None else len(keep)
                    continue
                # Slow path: at least one row in this block is invalid.
                # The valid rows before each quarantined one are yielded
                # first, so a consumer that quarantines rows too (the
                # lenient scrub) records its events in row order.
                kept: list[int] = []
                records: list = []
                for row_index, values in enumerate(zip(*_row_lists(cols))):
                    if quarantine is not None:
                        quarantine.saw_row(kind)
                    try:
                        record = record_type(*values)
                    except ValueError as exc:
                        if quarantine is None:
                            raise LogReadError(
                                source,
                                block_index - 1,
                                f"row {row_index}: {exc}",
                                code="value",
                            ) from exc
                        if kept:
                            yield cols, np.array(kept, dtype=np.intp), records
                            rows_out += len(kept)
                            kept, records = [], []
                        quarantine.quarantine_row(
                            kind,
                            f"{kind}-value",
                            "row with an unparseable or out-of-domain value",
                            f"{source.name}: block {block_index - 1}"
                            f" row {row_index}: {exc}",
                        )
                        continue
                    if time_range is not None and not (
                        time_range[0] <= record.timestamp <= time_range[1]
                    ):
                        continue
                    kept.append(row_index)
                    records.append(record)
                if kept:
                    yield cols, np.array(kept, dtype=np.intp), records
                    rows_out += len(kept)
    except FileNotFoundError:
        if quarantine is None:
            raise
        quarantine.note(f"{kind}-missing", "log file missing", str(source))
    finally:
        if on:
            registry = obs.metrics()
            registry.counter(
                "repro_io_rows_read_total",
                stream=kind,
                format="bin",
                category=category,
            ).add(rows_out)
            registry.histogram(
                "repro_io_read_seconds", stream=kind, category=category
            ).observe(time.perf_counter() - started)


def _skip_garbage(handle, consumed: bytes) -> tuple[int, bool]:
    """Seek past undecodable bytes to the next block magic.

    ``consumed`` is the already-read chunk that failed the magic check.
    Returns the garbage byte count and whether a next block was found
    (the handle is then positioned at its header; otherwise at EOF).
    """
    data = consumed
    searched_from = 1  # offset 0 is the known-bad magic
    while True:
        idx = data.find(BLOCK_MAGIC, searched_from)
        if idx != -1:
            # Rewind to the recovered block header.
            handle.seek(idx - len(data), 1)
            return idx, True
        chunk = handle.read(1 << 16)
        if not chunk:
            return len(data), False
        searched_from = max(1, len(data) - len(BLOCK_MAGIC) + 1)
        data += chunk


def _resync(
    handle,
    consumed: bytes,
    source: Path,
    kind: str,
    quarantine: QuarantineCollector,
) -> bool:
    """Skip undecodable bytes between blocks, accounting for them.

    Returns True when a next block was found (the handle is positioned
    at its header); False at EOF.  The garbage region is accounted as
    one quarantined pseudo-row under ``<kind>-fields`` — the binary
    analogue of one unparseable text line.
    """
    garbage, found = _skip_garbage(handle, consumed)
    quarantine.saw_row(kind)
    quarantine.quarantine_row(
        kind,
        f"{kind}-fields",
        "undecodable bytes between binary blocks",
        f"{source.name}: {garbage} garbage bytes",
    )
    return found


def read_bin_rows(
    path: str | Path, record_type: Type[ProxyRecord] | Type[MmeRecord]
) -> list[tuple]:
    """Decode every row as a raw typed tuple, skipping validation.

    The fault injector uses this to round-trip traces whose values are
    *meant* to be out of domain.
    """
    source = Path(path)
    rows: list[tuple] = []
    with source.open("rb") as handle:
        _read_file_header(handle, source, record_type)
        while True:
            header = _read_exact(handle, _BLOCK_HEADER.size)
            if not header:
                return rows
            if len(header) < _BLOCK_HEADER.size:
                raise LogReadError(
                    source, 0, "file truncated inside a block header",
                    code="truncated",
                )
            magic, comp_len, n, *_rest = _BLOCK_HEADER.unpack(header)
            if magic != BLOCK_MAGIC:
                raise LogReadError(source, 0, "bad block magic", code="magic")
            payload = _read_exact(handle, comp_len)
            if len(payload) < comp_len:
                raise LogReadError(
                    source, 0, "file truncated inside block payload",
                    code="truncated",
                )
            try:
                cols = _unpack_columns(
                    gzip.decompress(payload), record_type, n
                )
            except _PAYLOAD_ERRORS as exc:
                raise LogReadError(
                    source,
                    0,
                    f"undecodable block payload: {exc} ({n} rows lost)",
                    code="truncated",
                ) from exc
            rows.extend(zip(*_row_lists(cols)))
