"""Streaming readers and writers for log records.

A log is stored in one of :data:`TRACE_FORMATS`:

* **CSV** with a header row (``csv``), optionally gzip-compressed
  (``csv.gz``) — interoperable with command-line tooling, the default
  for the simulator's trace exports;
* the **binary columnar** format (``bin``, :mod:`repro.logs.binfmt`),
  which :func:`read_records` and :func:`write_records` dispatch to by
  path suffix.

Readers are generators: a seven-week proxy trace is consumed row by row and
never materialised.  Two failure disciplines are supported:

* **strict** (the default): malformed rows raise :class:`LogReadError`
  carrying the file name, line number and a machine-readable issue code so
  broken exports are easy to locate;
* **lenient**: pass a :class:`~repro.logs.quarantine.QuarantineCollector`
  and bad rows are recorded and *skipped* instead of raising — truncated
  gzip members and mid-stream decode failures end the stream gracefully,
  keeping every row parsed so far.  This is how the pipeline survives the
  dirty, partial exports real cellular vantage points produce.

Readers always stream the whole log.  Account-shard selection is a
mask over a loaded table's subscriber dictionary
(:meth:`repro.core.dataset.StudyDataset.shard`, one
:func:`subscriber_shard` call per distinct subscriber);
:func:`shard_keep_predicate` is the same partition as a per-row
predicate.
"""

from __future__ import annotations

import codecs
import csv
import gzip
import io
import time
from collections import deque
from dataclasses import fields as dataclass_fields
from functools import lru_cache
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Mapping, Type, TypeVar
from zlib import crc32

from repro import obs
from repro.logs.quarantine import QuarantineCollector
from repro.logs.records import (
    MME_FIELDS,
    PROXY_FIELDS,
    MmeRecord,
    ProxyRecord,
    fields_for,
)

RecordT = TypeVar("RecordT", ProxyRecord, MmeRecord)

#: Compression level for gzip *writes*.  The library default (9) is ~2x
#: slower than level 6 on log exports for a marginal size win; readers are
#: unaffected by the level a file was written at.
GZIP_COMPRESSLEVEL = 6


class _DeterministicGzipText(io.TextIOWrapper):
    """Text wrapper over a gzip member whose bytes are run-independent.

    ``gzip.open(path, "wt")`` embeds the wall-clock MTIME and the file's
    basename (FNAME) in the member header, so two byte-identical record
    streams written a second apart produce different ``.gz`` bytes.  We
    build the chain by hand — ``mtime=0``, no filename — and keep the
    raw handle so closing the wrapper closes the whole stack
    (:class:`gzip.GzipFile` never closes a ``fileobj`` it was handed).
    """

    def __init__(self, raw: IO[bytes], member: gzip.GzipFile) -> None:
        super().__init__(member, encoding="utf-8", newline="")
        self._raw_file = raw

    def close(self) -> None:
        try:
            super().close()
        finally:
            self._raw_file.close()


def _open_text(path: Path, mode: str) -> IO[str]:
    """Open a log file as text, transparently compressing ``.gz`` paths.

    Real operator exports arrive gzip-compressed; every reader and writer
    in this module accepts either form based purely on the suffix.  Writes
    use :data:`GZIP_COMPRESSLEVEL` rather than the slow library default
    and produce deterministic bytes (``mtime=0``, no embedded filename),
    so identical runs yield SHA-identical artifacts.
    """
    if path.suffix == ".gz":
        if "w" in mode or "a" in mode or "x" in mode:
            raw = path.open(mode + "b")
            member = gzip.GzipFile(
                filename="",
                mode=mode + "b",
                compresslevel=GZIP_COMPRESSLEVEL,
                fileobj=raw,
                mtime=0,
            )
            return _DeterministicGzipText(raw, member)
        return gzip.open(path, mode + "t", encoding="utf-8", newline="")
    return path.open(mode, newline="", encoding="utf-8")


class LogReadError(ValueError):
    """A log file contained a row (or a stream) that could not be parsed.

    ``code`` is the defect class suffix used by the shared issue
    vocabulary (:mod:`repro.logs.quarantine`): ``"fields"`` for rows with
    missing columns, ``"value"`` for unparseable or out-of-domain values
    and ``"truncated"`` for streams that died mid-read (bad gzip member,
    empty file, decode error).
    """

    def __init__(
        self, path: Path, line_number: int, reason: str, code: str = "value"
    ) -> None:
        super().__init__(f"{path}:{line_number}: {reason}")
        self.path = path
        self.line_number = line_number
        self.reason = reason
        self.code = code


def log_kind(record_type: type) -> str:
    """Short stream name used in issue codes (``proxy`` / ``mme``)."""
    if record_type is ProxyRecord:
        return "proxy"
    if record_type is MmeRecord:
        return "mme"
    return record_type.__name__.lower()


#: Human labels for per-row quarantine codes.
_ROW_MESSAGES = {
    "fields": "row with missing fields",
    "value": "row with an unparseable or out-of-domain value",
}

#: Exceptions that mean the underlying *stream* died (truncated gzip
#: member, undecodable bytes, NUL bytes confusing the csv module, ...).
_STREAM_ERRORS = (EOFError, gzip.BadGzipFile, UnicodeDecodeError, csv.Error, OSError)


def _plain_chunks(raw: IO[bytes], size: int) -> Iterator[bytes]:
    while True:
        data = raw.read(size)
        if not data:
            return
        yield data


def _gzip_chunks(raw: IO[bytes], size: int) -> Iterator[bytes]:
    """Incrementally decompress gzip members, never discarding output.

    ``gzip.GzipFile.read`` raises on a truncated member and throws away
    whatever that call had already decompressed.  Here every decodable
    byte is yielded *before* the truncation error surfaces, so lenient
    readers keep the partial tail of a cut-off export.
    """
    import zlib

    decomp = zlib.decompressobj(31)
    fed = False
    buffered = b""  # compressed bytes belonging to the next member
    while True:
        if buffered:
            data, buffered = buffered, b""
        else:
            data = raw.read(size)
        if not data:
            if decomp is not None and fed and not decomp.eof:
                raise EOFError(
                    "Compressed file ended before the end-of-stream"
                    " marker was reached"
                )
            return
        if decomp is None:
            decomp = zlib.decompressobj(31)
            fed = False
        try:
            out = decomp.decompress(data)
        except zlib.error as exc:
            raise gzip.BadGzipFile(str(exc)) from exc
        fed = True
        if out:
            yield out
        if decomp.eof:
            buffered = decomp.unused_data.lstrip(b"\x00")
            decomp = None


class _LenientLineSource:
    """Iterator of text lines that survives a mid-stream death.

    ``TextIOWrapper`` buffers decoded text internally, so when a gzip
    member dies mid-read the partially decoded final line is silently
    discarded along with the exception — lenient ingestion could not
    account for it.  This reader does its own chunked binary reads and
    incremental UTF-8 decoding: when the stream dies the exception is
    recorded on :attr:`stream_error` and whatever text had decoded but
    not yet formed a complete line is kept on :attr:`partial_tail`, so
    the caller can quarantine the torn row instead of losing it.

    A *clean* EOF flushes the buffer as a final (unterminated but
    complete) line, matching the text-layer behaviour strict reads get.
    """

    _CHUNK = 1 << 16

    def __init__(self, path: Path) -> None:
        self._raw = path.open("rb")
        if path.suffix == ".gz":
            self._chunks = _gzip_chunks(self._raw, self._CHUNK)
        else:
            self._chunks = _plain_chunks(self._raw, self._CHUNK)
        self._decoder = codecs.getincrementaldecoder("utf-8")()
        self._buffer = ""
        self._lines: deque[str] = deque()
        self._eof = False
        self.stream_error: BaseException | None = None
        self.partial_tail: str | None = None

    def __iter__(self) -> "_LenientLineSource":
        return self

    def __next__(self) -> str:
        while not self._lines:
            if self._eof:
                raise StopIteration
            try:
                data = next(self._chunks, None)
            except _STREAM_ERRORS as exc:
                self._die(exc)
                continue
            if data is None:
                self._finish()
                continue
            try:
                text = self._decoder.decode(data)
            except UnicodeDecodeError as exc:
                self._die(exc)
                continue
            self._push(text)
        return self._lines.popleft()

    def _push(self, text: str) -> None:
        pieces = (self._buffer + text).splitlines(keepends=True)
        if pieces and not pieces[-1].endswith(("\n", "\r")):
            self._buffer = pieces.pop()
        else:
            self._buffer = ""
        self._lines.extend(pieces)

    def _finish(self) -> None:
        self._eof = True
        try:
            tail = self._decoder.decode(b"", final=True)
        except UnicodeDecodeError as exc:
            self._die(exc)
            return
        if tail:
            self._push(tail)
        if self._buffer:
            self._lines.append(self._buffer)
            self._buffer = ""

    def _die(self, exc: BaseException) -> None:
        self._eof = True
        self.stream_error = exc
        if self._buffer:
            self.partial_tail = self._buffer
            self._buffer = ""

    def close(self) -> None:
        self._raw.close()


@lru_cache(maxsize=None)
def _field_types(record_type: Type[RecordT]) -> dict[str, type]:
    """Map each dataclass field name to its concrete python type.

    Cached per record type: :func:`_coerce_row` consults this map once per
    *row*, and rebuilding it from the dataclass field metadata dominated
    the read path (every call walks ``dataclasses.fields`` and does string
    comparisons).  The map is tiny and immutable in practice, so an
    unbounded cache keyed by the record class is safe.
    """
    types: dict[str, type] = {}
    for spec in dataclass_fields(record_type):
        if spec.type in ("float", float):
            types[spec.name] = float
        elif spec.type in ("int", int):
            types[spec.name] = int
        else:
            types[spec.name] = str
    return types


def _coerce_row(
    record_type: Type[RecordT],
    row: dict[str, str],
    path: Path,
    line_number: int,
) -> RecordT:
    """Build one record from a string-valued mapping."""
    types = _field_types(record_type)
    missing = [name for name in types if name not in row or row[name] is None]
    if missing:
        raise LogReadError(
            path,
            line_number,
            "missing field " + ", ".join(repr(name) for name in missing),
            code="fields",
        )
    converted: dict[str, object] = {}
    for name, type_ in types.items():
        try:
            converted[name] = type_(row[name])
        except (TypeError, ValueError) as exc:
            raise LogReadError(
                path, line_number, f"bad value for {name!r}: {exc}", code="value"
            ) from exc
    try:
        return record_type(**converted)  # type: ignore[arg-type]
    except ValueError as exc:
        raise LogReadError(path, line_number, str(exc), code="value") from exc


def _account_stream_death(
    quarantine: QuarantineCollector,
    kind: str,
    source: Path,
    lines: _LenientLineSource,
) -> None:
    """Account for a stream that died mid-read under lenient ingestion.

    When the death tore a row in half (a partially decoded final line),
    that row is *quarantined* — it enters the row accounting exactly
    once under ``<kind>-truncated``.  Only a death with no torn row
    (cut on a line boundary) falls back to the structural note, so the
    issue code is recorded exactly once either way.
    """
    tail = (lines.partial_tail or "").strip("\r\n")
    if tail:
        quarantine.saw_row(kind)
        quarantine.quarantine_row(
            kind,
            f"{kind}-truncated",
            "partial row lost at truncated stream tail",
            f"{source.name}: {tail[:120]!r} ({lines.stream_error})",
        )
        return
    quarantine.note(
        f"{kind}-truncated",
        "log stream unreadable or truncated mid-read; tail rows lost",
        f"{source.name}: {lines.stream_error}",
    )


def _stream_of(field_names: tuple[str, ...]) -> str:
    """Stream label for a header tuple (``proxy`` / ``mme`` / ``other``)."""
    if field_names == PROXY_FIELDS:
        return "proxy"
    if field_names == MME_FIELDS:
        return "mme"
    return "other"


def write_csv_records(
    path: str | Path,
    records: Iterable[RecordT],
    field_names: tuple[str, ...],
    *,
    category: str = "log",
) -> int:
    """Write records as CSV with a header row; return the row count.

    ``category`` labels the observability counters: final trace exports
    use the default ``"log"``, engine spill chunks pass ``"chunk"`` so
    the two never double-count in row-accounting summaries.
    """
    target = Path(path)
    count = 0
    on = obs.enabled()
    started = time.perf_counter() if on else 0.0
    with _open_text(target, "w") as handle:
        writer = csv.writer(handle)
        writer.writerow(field_names)
        for record in records:
            writer.writerow([getattr(record, name) for name in field_names])
            count += 1
    if on:
        registry = obs.metrics()
        stream = _stream_of(field_names)
        fmt = "csv.gz" if target.suffix == ".gz" else "csv"
        registry.counter(
            "repro_io_rows_written_total",
            stream=stream,
            format=fmt,
            category=category,
        ).add(count)
        registry.counter(
            "repro_io_bytes_written_total", stream=stream, category=category
        ).add(target.stat().st_size)
        registry.histogram(
            "repro_io_write_seconds", stream=stream, category=category
        ).observe(time.perf_counter() - started)
    return count


def read_csv_records(
    path: str | Path,
    record_type: Type[RecordT],
    quarantine: QuarantineCollector | None = None,
    *,
    category: str = "log",
) -> Iterator[RecordT]:
    """Stream records from a CSV file written by :func:`write_csv_records`.

    Strict by default.  With a ``quarantine`` collector, malformed rows
    are recorded and skipped, and a stream that dies mid-read (truncated
    gzip member, decode error) ends the iteration gracefully after noting
    a ``<kind>-truncated`` issue — every row parsed before the failure is
    still yielded.

    When observability is enabled the stream reports
    ``repro_io_rows_read_total{stream,format,category}`` and a per-file
    read-duration histogram once, at stream end — never per row.
    """
    source = Path(path)
    kind = log_kind(record_type)
    on = obs.enabled()
    rows_out = 0
    started = time.perf_counter() if on else 0.0
    try:
        if quarantine is None:
            with _open_text(source, "r") as handle:
                reader = csv.DictReader(handle)
                if reader.fieldnames is None:
                    raise LogReadError(
                        source, 1, "empty file (no header row)", code="truncated"
                    )
                for line_number, row in enumerate(reader, start=2):
                    yield _coerce_row(record_type, row, source, line_number)
                    rows_out += 1
            return
        lines = _LenientLineSource(source)
        try:
            reader = csv.DictReader(lines)
            if reader.fieldnames is None:
                quarantine.note(
                    f"{kind}-truncated",
                    "log file empty (no header row)",
                    str(source),
                )
                return
            for line_number, row in enumerate(reader, start=2):
                quarantine.saw_row(kind)
                try:
                    record = _coerce_row(record_type, row, source, line_number)
                except LogReadError as exc:
                    quarantine.quarantine_row(
                        kind,
                        f"{kind}-{exc.code}",
                        _ROW_MESSAGES.get(exc.code, "unparseable row"),
                        f"{source.name}:{line_number}: {exc.reason}",
                    )
                    continue
                yield record
                rows_out += 1
        finally:
            lines.close()
        if lines.stream_error is not None:
            _account_stream_death(quarantine, kind, source, lines)
    except FileNotFoundError:
        if quarantine is None:
            raise
        quarantine.note(f"{kind}-missing", "log file missing", str(source))
    except _STREAM_ERRORS as exc:
        if quarantine is None:
            raise LogReadError(
                source,
                0,
                f"unreadable or truncated stream: {exc}",
                code="truncated",
            ) from exc
        quarantine.note(
            f"{kind}-truncated",
            "log stream unreadable or truncated mid-read; tail rows lost",
            f"{source.name}: {exc}",
        )
    finally:
        if on:
            registry = obs.metrics()
            fmt = "csv.gz" if source.suffix == ".gz" else "csv"
            registry.counter(
                "repro_io_rows_read_total",
                stream=kind,
                format=fmt,
                category=category,
            ).add(rows_out)
            registry.histogram(
                "repro_io_read_seconds", stream=kind, category=category
            ).observe(time.perf_counter() - started)


# ------------------------------------------------------ account shards
def subscriber_shard(
    subscriber_id: str,
    shards: int,
    account_directory: Mapping[str, str] | None = None,
) -> int:
    """Deterministic account shard of a subscriber's records.

    Uses the engine's partition function — ``crc32(account_id) % shards``
    — via the billing directory, so an analysis shard holds exactly the
    subscribers whose *account* the simulation engine would place in the
    same shard: per-account aggregations (ownership, shares) stay
    shard-local.  Subscribers missing from the directory (possible in
    lenient mode, where corrupt rows may carry garbage ids) hash their
    own id, which is still a consistent, total assignment.
    """
    if account_directory is not None:
        key = account_directory.get(subscriber_id, subscriber_id)
    else:
        key = subscriber_id
    return crc32(key.encode("utf-8")) % shards


def check_shard(shard: int, shards: int) -> None:
    """Raise ``ValueError`` unless ``shard`` is one of ``shards`` shards."""
    if shards < 1:
        raise ValueError("shards must be >= 1")
    if not 0 <= shard < shards:
        raise ValueError(f"shard must be in [0, {shards}), got {shard}")


def shard_keep_predicate(
    shard: int,
    shards: int,
    account_directory: Mapping[str, str] | None = None,
) -> Callable[[RecordT], bool]:
    """Predicate keeping only the records belonging to ``shard``."""
    check_shard(shard, shards)

    def keep(record: RecordT) -> bool:
        return (
            subscriber_shard(record.subscriber_id, shards, account_directory)
            == shard
        )

    return keep


# ------------------------------------------------------ format dispatch
#: Trace formats a log file can be stored in; ``bin`` is the binary
#: columnar format (:mod:`repro.logs.binfmt`), everything else is text.
TRACE_FORMATS = ("csv", "csv.gz", "bin")


def trace_format(path: str | Path) -> str:
    """Wire format of a log path, from its suffix (``csv`` / ``bin``)."""
    return "bin" if str(path).endswith(".bin") else "csv"


def format_suffix(format: str) -> str:
    """File suffix for a trace format name (``csv.gz`` → ``.csv.gz``)."""
    if format not in TRACE_FORMATS:
        raise ValueError(
            f"unknown trace format {format!r} (expected one of {TRACE_FORMATS})"
        )
    return "." + format


def write_records(
    path: str | Path,
    records: Iterable[RecordT],
    record_type: Type[RecordT],
    *,
    category: str = "log",
) -> int:
    """Write records in the format implied by the path suffix."""
    if trace_format(path) == "bin":
        from repro.logs import binfmt

        return binfmt.write_bin_records(
            path, records, record_type, category=category
        )
    return write_csv_records(
        path, records, fields_for(record_type), category=category
    )


def read_records(
    path: str | Path,
    record_type: Type[RecordT],
    quarantine: QuarantineCollector | None = None,
    *,
    category: str = "log",
) -> Iterator[RecordT]:
    """Stream records in the format implied by the path suffix."""
    if trace_format(path) == "bin":
        from repro.logs import binfmt

        return binfmt.read_bin_records(
            path, record_type, quarantine, category=category
        )
    return read_csv_records(path, record_type, quarantine, category=category)


def write_proxy_log(path: str | Path, records: Iterable[ProxyRecord]) -> int:
    """Write a transparent-proxy transaction log as CSV (or binary).

    Despite the historical name this dispatches on the path suffix, so
    ``proxy.bin`` callers get the binary fast path transparently.
    """
    return write_records(path, records, ProxyRecord)


def read_proxy_log(
    path: str | Path, quarantine: QuarantineCollector | None = None
) -> Iterator[ProxyRecord]:
    """Stream a transparent-proxy transaction log (CSV or binary)."""
    return read_records(path, ProxyRecord, quarantine)


def write_mme_log(path: str | Path, records: Iterable[MmeRecord]) -> int:
    """Write an MME mobility event log (CSV or binary, by suffix)."""
    return write_records(path, records, MmeRecord)


def read_mme_log(
    path: str | Path, quarantine: QuarantineCollector | None = None
) -> Iterator[MmeRecord]:
    """Stream an MME mobility event log (CSV or binary)."""
    return read_records(path, MmeRecord, quarantine)
