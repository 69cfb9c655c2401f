"""Compact, versioned binary columnar trace format (``.bin``).

CSV remains the interchange format for trace directories, but the
row-by-row ``dict`` round-trip in :mod:`repro.logs.io` is the ceiling on
every throughput goal in the roadmap.  This module stores the same
records as **length-prefixed, gzip-member-framed blocks of fixed-width
column batches**, so the hot paths (engine spill/export, shard-filtered
analysis reads) move bytes with :mod:`struct`/:mod:`array` instead of
parsing text.

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

Per-block headers carry the min/max timestamp and a 256-entry subscriber
*bucket* bitmap (``crc32(subscriber_id) & 0xFF``), so shard-filtered and
time-range reads skip whole blocks without decompressing them.  The
bucket filter composes with the analysis shard function whenever
``256 % shards == 0`` and no billing directory re-keys subscribers —
exactly the default analysis configuration.

Version / compatibility policy: the file header carries an explicit
``version`` and a self-describing column schema.  Readers reject a bad
magic (``code="magic"``), an unknown version, or a schema that does not
match the record type (``code="version"``) — there is no silent
best-effort decoding across format revisions.  CSV is the migration
path between incompatible binary versions (``repro convert``).

Strict/lenient semantics mirror the CSV reader: strict raises
:class:`~repro.logs.io.LogReadError`; with a quarantine collector,
undecodable bytes between blocks are skipped after resyncing on the
block magic, rows that fail record validation are quarantined
individually, and a truncated tail block is quarantined with **exact**
row accounting (the block header says how many rows were lost).

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
from math import gcd
from pathlib import Path
from typing import (
    Callable,
    Iterable,
    Iterator,
    Mapping,
    NamedTuple,
    Sequence,
    Type,
)

import numpy as np

from repro import obs
from repro.logs.io import (
    LogReadError,
    log_kind,
    shard_keep_predicate,
)
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
    "read_bin_records_shard",
    "read_bin_rows",
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
def _type_codes(record_type: type) -> tuple[str, ...]:
    """Column type codes in field order (``f``/``i``/``s``)."""
    from repro.logs.io import _field_types

    types = _field_types(record_type)
    codes = []
    for name in fields_for(record_type):
        type_ = types[name]
        codes.append("f" if type_ is float else "i" if type_ is int else "s")
    return tuple(codes)


def _schema_bytes(record_type: type) -> bytes:
    schema = {
        "kind": log_kind(record_type),
        "fields": [
            [name, code]
            for name, code in zip(fields_for(record_type), _type_codes(record_type))
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


def _unpack_numeric(buffer: memoryview, typecode: str) -> list:
    dtype = "<f8" if typecode == "d" else "<i8"
    return np.frombuffer(buffer, dtype=dtype).tolist()


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
    codes = _type_codes(record_type)
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


def _unpack_columns(
    payload: bytes, record_type: type, rows: int
) -> list[list]:
    """Decode one decompressed block payload into per-column value lists."""
    codes = _type_codes(record_type)
    view = memoryview(payload)
    offset = 0
    cols: list[list] = []
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
            idx = array("H" if width == 2 else "I")
            idx.frombytes(view[offset : offset + rows * width])
            if _BIG_ENDIAN:
                idx.byteswap()
            offset += rows * width
            try:
                cols.append(list(map(uniq.__getitem__, idx)))
            except IndexError:
                raise ValueError("string index out of range") from None
    if offset != len(payload):
        raise ValueError("block payload has trailing bytes")
    if any(len(col) != rows for col in cols):
        raise ValueError("column length does not match block row count")
    return cols


# -------------------------------------------------- fast record makers
_BATCH_MAKERS: dict[type, Callable] = {}
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


def _batch_maker(record_type: type) -> Callable:
    """Columns-in, record-list-out constructor with the loop inlined.

    Batch validation (:func:`_block_valid`) has already vetted the whole
    block, so per-record ``__post_init__`` checks would only repeat work
    8192 times per block.  The records are frozen slotted dataclasses;
    binding each slot descriptor's ``__set__`` once beats
    ``object.__setattr__``, which re-resolves the descriptor by name on
    every call, and inlining the loop into one generated function drops
    the per-record ``map`` dispatch as well.
    """
    maker = _BATCH_MAKERS.get(record_type)
    if maker is not None:
        return maker
    names = fields_for(record_type)
    args = ", ".join(f"c_{name}" for name in names)
    row = ", ".join(names)
    namespace = {"_new": object.__new__, "_cls": record_type, "_zip": zip}
    lines = [
        f"def make_all({args}):",
        "    new = _new; cls = _cls",
        "    out = []",
        "    append = out.append",
    ]
    for name in names:
        namespace[f"_set_{name}"] = getattr(record_type, name).__set__
        lines.append(f"    set_{name} = _set_{name}")
    lines.append(f"    for {row} in _zip({args}):")
    lines.append("        r = new(cls)")
    for name in names:
        lines.append(f"        set_{name}(r, {name})")
    lines.append("        append(r)")
    lines.append("    return out")
    exec("\n".join(lines), namespace)  # noqa: S102 - static, local template
    maker = namespace["make_all"]
    _BATCH_MAKERS[record_type] = maker
    return maker


def _block_valid(record_type: type, cols: Sequence[Sequence]) -> bool:
    """Batch equivalent of the record ``__post_init__`` checks."""
    if record_type is ProxyRecord:
        return (
            set(cols[5]) <= _VALID_PROTOCOLS
            and all(cols[1])
            and all(cols[3])
            and min(cols[6]) >= 0
            and min(cols[7]) >= 0
        )
    return set(cols[4]) <= _VALID_EVENTS and all(cols[1]) and all(cols[3])


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
    """
    source = Path(path)
    with source.open("rb") as handle:
        offset = _read_file_header(handle, source, record_type)
    for block_offset, header in iter_blocks(source, record_type):
        offset = block_offset + _BLOCK_HEADER.size + header.comp_len
    return offset


def _shard_block_skipper(
    shard: int | None,
    shards: int,
    account_directory: Mapping[str, str] | None,
) -> Callable[[bytes], bool] | None:
    """Block-level predicate: True when a block cannot contain the shard.

    Valid only when subscriber ids hash directly (no billing directory —
    the header buckets are ``crc32(id) & 0xFF`` of the *subscriber*, so
    an account-keyed partition cannot be inferred from them).

    Write ``crc32(id) = 256·q + b`` with ``b`` the header bucket.  Then
    ``crc32(id) % shards = (256·q + b) % shards``, and as ``q`` varies
    ``256·q mod shards`` ranges over exactly the multiples of
    ``g = gcd(256, shards)`` — so bucket ``b`` can hold a subscriber of
    shard ``s`` **only if** ``(s - b) % g == 0``.  That necessary
    condition makes the bitmap test conservative (a bucket-superset
    filter, never skipping a block that could contain the shard) for
    *every* shard count:

    * ``shards | 256`` (``g == shards``): the condition collapses to
      ``b % shards == s`` — also sufficient, i.e. an exact filter;
    * even non-divisors (e.g. 6 → ``g = 2``): half the buckets are
      excluded — a real, if partial, skip;
    * odd shard counts (``g == 1``): every bucket passes, the filter
      cannot exclude anything — return None rather than test bitmaps
      that always match.
    """
    if shard is None or account_directory is not None:
        return None
    fold = gcd(256, shards)
    if fold == 1:
        return None
    wanted = 0
    for bucket in range(256):
        if (shard - bucket) % fold == 0:
            wanted |= 1 << bucket
    def skip(bitmap_bytes: bytes) -> bool:
        return not (int.from_bytes(bitmap_bytes, "little") & wanted)

    return skip


def read_bin_records(
    path: str | Path,
    record_type: Type[ProxyRecord] | Type[MmeRecord],
    quarantine: QuarantineCollector | None = None,
    *,
    category: str = "log",
    time_range: tuple[float, float] | None = None,
    shard: int | None = None,
    shards: int = 1,
    account_directory: Mapping[str, str] | None = None,
    start_offset: int | None = None,
    end_offset: int | None = None,
) -> Iterator:
    """Stream records from a binary log written by :func:`write_bin_records`.

    Strict by default; ``quarantine`` switches to lenient ingestion with
    the same contract as the CSV reader.  ``time_range=(t0, t1)`` and
    ``shard``/``shards`` enable block skipping via the per-block headers
    (skips are disabled in lenient mode so row accounting stays exact).
    ``start_offset`` resumes the read at a block boundary previously
    obtained from :func:`iter_blocks` / :func:`resume_offset` — the file
    header is still validated, then the reader seeks straight there.
    ``end_offset`` stops the read at a block boundary: tailers of a
    growing stream bound the read at :func:`resume_offset` so a block
    still being appended is never mistaken for a truncated tail.
    """
    source = Path(path)
    kind = log_kind(record_type)
    on = obs.enabled()
    rows_out = 0
    started = time.perf_counter() if on else 0.0
    keep = None
    if shard is not None:
        keep = shard_keep_predicate(shard, shards, account_directory)
    block_skip = None
    if quarantine is None:
        block_skip = _shard_block_skipper(shard, shards, account_directory)
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
                    bitmap,
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
                if block_skip is not None and block_skip(bitmap):
                    continue
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
                # zlib.error is not an OSError: a byte flipped *inside*
                # a gzip member surfaces as a bare decompress failure,
                # not a BadGzipFile.
                except (
                    OSError,
                    EOFError,
                    ValueError,
                    struct.error,
                    zlib.error,
                ) as exc:
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
                    make_all = _batch_maker(record_type)
                    if keep is None and time_range is None:
                        yield from make_all(*cols)
                        rows_out += rows
                        continue
                    for record in make_all(*cols):
                        if keep is not None and not keep(record):
                            continue
                        if time_range is not None and not (
                            time_range[0] <= record.timestamp <= time_range[1]
                        ):
                            continue
                        yield record
                        rows_out += 1
                    continue
                # Slow path: at least one row in this block is invalid.
                for row_index, values in enumerate(zip(*cols)):
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
                        quarantine.quarantine_row(
                            kind,
                            f"{kind}-value",
                            "row with an unparseable or out-of-domain value",
                            f"{source.name}: block {block_index - 1}"
                            f" row {row_index}: {exc}",
                        )
                        continue
                    if keep is not None and not keep(record):
                        continue
                    if time_range is not None and not (
                        time_range[0] <= record.timestamp <= time_range[1]
                    ):
                        continue
                    yield record
                    rows_out += 1
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


def _resync(
    handle,
    consumed: bytes,
    source: Path,
    kind: str,
    quarantine: QuarantineCollector,
) -> bool:
    """Scan forward for the next block magic after undecodable bytes.

    ``consumed`` is the already-read chunk that failed the magic check.
    Returns True when a next block was found (the handle is positioned
    at its header); False at EOF.  The garbage region is accounted as
    one quarantined pseudo-row under ``<kind>-fields`` — the binary
    analogue of one unparseable text line.
    """
    data = consumed
    searched_from = 1  # offset 0 is the known-bad magic
    while True:
        idx = data.find(BLOCK_MAGIC, searched_from)
        if idx != -1:
            # Rewind to the recovered block header.
            handle.seek(idx - len(data), 1)
            garbage = idx
            break
        chunk = handle.read(1 << 16)
        if not chunk:
            garbage = len(data)
            break
        searched_from = max(1, len(data) - len(BLOCK_MAGIC) + 1)
        data += chunk
    quarantine.saw_row(kind)
    quarantine.quarantine_row(
        kind,
        f"{kind}-fields",
        "undecodable bytes between binary blocks",
        f"{source.name}: {garbage} garbage bytes",
    )
    return idx != -1


def read_bin_records_shard(
    path: str | Path,
    record_type: Type[ProxyRecord] | Type[MmeRecord],
    shard: int,
    shards: int,
    account_directory: Mapping[str, str] | None = None,
    quarantine: QuarantineCollector | None = None,
    *,
    category: str = "log",
) -> Iterator:
    """Stream one account shard from a binary log, skipping whole blocks.

    Mirrors :func:`repro.logs.io.read_csv_records_shard`; when the
    shard count folds evenly onto the 256 header buckets (and no
    billing directory re-keys subscribers), blocks with no matching
    bucket are skipped without decompression.
    """
    return read_bin_records(
        path,
        record_type,
        quarantine,
        category=category,
        shard=shard,
        shards=shards,
        account_directory=account_directory,
    )


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
            cols = _unpack_columns(gzip.decompress(payload), record_type, n)
            rows.extend(zip(*cols))
