"""Incremental readers for growing trace streams.

A :class:`StreamTailer` wraps one log file that another process is still
appending to and turns "whatever arrived since last time" into one
:class:`~repro.logs.columns.ColumnTable`, one
:meth:`~StreamTailer.poll` at a time.  The consumption point is a plain
byte offset plus a tiny carry, so the whole tailer state fits in a
checkpoint and survives a restart bit-for-bit.

Per wire format:

* **plain CSV** — the offset advances past the last complete line; a
  partial trailing line stays in the file and is re-read next poll;
* **gzip CSV** (``.csv.gz``) — appends arrive as whole gzip members, so
  the offset only advances across *complete* members (a member still
  being flushed decompresses without reaching its end marker and is left
  alone).  A line spanning a member boundary is kept in a byte carry;
* **binary** (``.bin``) — :func:`repro.logs.binfmt.resume_offset`,
  starting at the stored offset, finds the end of the last complete
  block and the reader is bounded there, so a block still being
  appended is never mistaken for a truncated tail, and a poll reads the
  file header and the new bytes only.  Garbage bytes between blocks are
  skipped with the batch reader's resync rule once the block after them
  is complete; tailing goes on.  The decoded blocks go straight into
  the table (a :class:`~repro.logs.columns.TableAssembler`, as
  :func:`~repro.logs.binfmt.read_bin_table` does): no row is built.

Failure discipline mirrors the batch readers: strict mode raises
:class:`~repro.logs.io.LogReadError` on the first defect; with a
quarantine collector bad rows are recorded and skipped with the same
issue codes, row numbering and accounting the batch lenient read
produces on the same prefix.  A CSV poll parses its lines into records
and assembles them into the table a chunk at a time.  With a
:class:`~repro.core.dataset.Scrubber` a poll runs the lenient batch
load's own column pass: the new blocks (or the new lines, a chunk of
records at a time) are scrubbed as columns, the reader records its
events into the scrubber's :attr:`~repro.core.dataset.Scrubber.pending`
quarantine so they interleave with the scrub events in row order, and
the poll returns the scrubber's table of the kept rows.  The one
deliberate difference from a batch read: an *incomplete* tail (partial
line, unfinished gzip member, unfinished block) is "not arrived yet"
here, where a batch read of the same bytes would call it truncated — a
growing stream is not a damaged one.
"""

from __future__ import annotations

import base64
import csv
import gzip
import zlib
from pathlib import Path
from typing import Iterable, Iterator

from repro import obs
from repro.core.dataset import Scrubber, StudyDataset
from repro.logs import binfmt
from repro.logs.columns import ColumnTable, TableAssembler, record_columns
from repro.logs.io import (
    LogReadError,
    _ROW_MESSAGES,
    _coerce_row,
    log_kind,
)
from repro.logs.quarantine import QuarantineCollector

#: Compressed bytes fed to the decompressor per step (matches the batch
#: reader's chunk size, which bounds how much of a corrupt member's
#: decodable prefix is salvaged).
_CHUNK = 1 << 16


class StreamTailer:
    """Tails one log stream of a trace directory.

    The file may not exist yet (a simulation that has not flushed its
    first export): :meth:`poll` keeps probing with
    :meth:`StudyDataset._log_path` and latches onto whichever format
    variant appears first.  Once resolved, the format is pinned — it is
    part of the checkpoint state.
    """

    STATE_VERSION = 1

    def __init__(
        self,
        base: str | Path,
        stem: str,
        record_type: type,
        *,
        format: str = "auto",
        quarantine: QuarantineCollector | None = None,
        scrub: Scrubber | None = None,
    ) -> None:
        """``scrub`` filters each poll's parsed rows (see the module
        docstring); the reader then records into its pending quarantine.
        """
        self.base = Path(base)
        self.stem = stem
        self.record_type = record_type
        self.format = format
        self.kind = log_kind(record_type)
        #: Where the reader records quarantine events.
        self.quarantine = scrub.pending if scrub is not None else quarantine
        self.scrub = scrub
        self._parsed = 0
        self._suffix: str | None = None
        self._offset = 0
        self._carry = b""
        self._header: list[str] | None = None
        self._line_number = 2
        #: ``.bin``: blocks read so far, the number of the next one.
        self._blocks = 0
        self._dead = False
        self.rows_read = 0
        self._resolve()  # also rejects an unknown format

    # -------------------------------------------------------------- state
    def to_state(self) -> dict:
        return {
            "v": self.STATE_VERSION,
            "suffix": self._suffix,
            "offset": self._offset,
            "carry": base64.b64encode(self._carry).decode("ascii"),
            "header": list(self._header) if self._header is not None else None,
            "line_number": self._line_number,
            "blocks": self._blocks,
            "dead": self._dead,
            "rows_read": self.rows_read,
        }

    def restore_state(self, state: dict) -> None:
        if state.get("v") != self.STATE_VERSION:
            raise ValueError(
                f"unsupported tailer state version: {state.get('v')!r}"
            )
        self._suffix = state["suffix"]
        self._offset = int(state["offset"])
        self._carry = base64.b64decode(state["carry"])
        header = state["header"]
        self._header = list(header) if header is not None else None
        self._line_number = int(state["line_number"])
        self._blocks = int(state.get("blocks", 0))
        self._dead = bool(state["dead"])
        self.rows_read = int(state["rows_read"])

    # ------------------------------------------------------------ probing
    @property
    def path(self) -> Path | None:
        """The resolved log path (None until the file first appears)."""
        if self._suffix is None:
            return None
        return self.base / f"{self.stem}{self._suffix}"

    @property
    def offset(self) -> int:
        return self._offset

    @property
    def dead(self) -> bool:
        return self._dead

    def _resolve(self) -> Path | None:
        if self._suffix is None:
            try:
                found = StudyDataset._log_path(self.base, self.stem, self.format)
            except FileNotFoundError:
                return None
            self._suffix = found.name[len(self.stem) :]
        return self.path

    # ------------------------------------------------------------ polling
    def poll(self) -> ColumnTable:
        """Every row that arrived since the last poll (the kept ones,
        with a scrubber), as one table."""
        assembler = TableAssembler(self.record_type)
        if self._dead:
            return assembler.table()
        path = self._resolve()
        if path is None or not path.exists():
            return assembler.table()
        self._parsed = 0
        if self.scrub is not None:
            table = self.scrub.scrub(self._parts(path))
        else:
            for columns, keep in self._parts(path):
                assembler.add(columns, keep)
            table = assembler.table()
        self.rows_read += self._parsed
        if obs.enabled() and (len(table) or self._parsed):
            registry = obs.metrics()
            if len(table):
                registry.counter(
                    "repro_serve_rows_ingested_total", stream=self.kind
                ).add(len(table))
            # The ``.bin`` reader already counts its own rows under
            # ``category="serve"``; the text paths count here, pre-scrub
            # (parity with the batch reader's counter).
            if self._parsed and self._suffix != ".bin":
                registry.counter(
                    "repro_io_rows_read_total",
                    stream=self.kind,
                    format="csv.gz" if self._suffix == ".csv.gz" else "csv",
                    category="serve",
                ).add(self._parsed)
        return table

    def _parts(self, path: Path) -> Iterable:
        """The new rows as column parts, :meth:`TableAssembler.add`'s
        layout: a ``.bin`` log's decoded blocks, or parsed CSV rows a
        chunk at a time."""
        if self._suffix == ".bin":
            return self._poll_bin(path)
        rows = self._poll_text(path)
        return ((columns, None) for columns in record_columns(self.record_type, rows))

    # ------------------------------------------------------- csv variants
    def _poll_text(self, path: Path) -> Iterable:
        if self._suffix == ".csv.gz":
            return self._poll_csv_gz(path)
        return self._poll_csv(path)

    def _poll_csv(self, path: Path) -> Iterable:
        with path.open("rb") as handle:
            handle.seek(self._offset)
            data = handle.read()
        cut = data.rfind(b"\n")
        if cut < 0:
            return ()
        chunk = data[: cut + 1]
        self._offset += len(chunk)
        return self._consume_text(path, chunk)

    def _poll_csv_gz(self, path: Path) -> Iterable:
        with path.open("rb") as handle:
            handle.seek(self._offset)
            data = handle.read()
        if not data:
            return ()
        out = bytearray()
        pos = 0
        error: Exception | None = None
        while pos < len(data):
            # The batch reader tolerates NUL padding between members.
            if data[pos : pos + 1] == b"\x00":
                pos += 1
                self._offset += 1
                continue
            decomp = zlib.decompressobj(31)
            member_out = bytearray()
            mpos = pos
            try:
                while mpos < len(data) and not decomp.eof:
                    piece = data[mpos : mpos + _CHUNK]
                    member_out += decomp.decompress(piece)
                    mpos += len(piece)
            except zlib.error as exc:
                error = gzip.BadGzipFile(str(exc))
                out += member_out
                break
            if not decomp.eof:
                # Member still being appended: not arrived yet.
                break
            member_len = (mpos - pos) - len(decomp.unused_data)
            out += member_out
            pos += member_len
            self._offset += member_len
        if error is not None:
            return self._stream_death(path, bytes(out), error)
        return self._consume_member_bytes(path, bytes(out))

    def _consume_member_bytes(self, path: Path, payload: bytes) -> Iterable:
        buffer = self._carry + payload
        cut = buffer.rfind(b"\n")
        if cut < 0:
            self._carry = buffer
            return ()
        self._carry = buffer[cut + 1 :]
        return self._consume_text(path, buffer[: cut + 1])

    def _consume_text(self, path: Path, payload: bytes) -> Iterator:
        try:
            text = payload.decode("utf-8")
        except UnicodeDecodeError as exc:
            return self._stream_death(path, b"", exc)
        return self._parse_rows(path, csv.reader(text.splitlines()))

    def _parse_rows(self, path: Path, rows) -> Iterator:
        """Parse CSV rows into records as they are pulled."""
        for values in rows:
            if not values:
                continue
            if self._header is None:
                self._header = values
                continue
            number = self._line_number
            self._line_number += 1
            if self.quarantine is not None:
                self.quarantine.saw_row(self.kind)
            row = dict(zip(self._header, values))
            try:
                record = _coerce_row(self.record_type, row, path, number)
            except LogReadError as exc:
                if self.quarantine is None:
                    raise
                self.quarantine.quarantine_row(
                    self.kind,
                    f"{self.kind}-{exc.code}",
                    _ROW_MESSAGES.get(exc.code, "unparseable row"),
                    f"{path.name}:{number}: {exc.reason}",
                )
                continue
            self._parsed += 1
            yield record

    def _stream_death(
        self, path: Path, salvage: bytes, error: Exception
    ) -> Iterator:
        """The stream died mid-member: keep the decodable prefix, stop.

        Mirrors the batch lenient accounting: complete salvaged lines
        still parse, a torn final row is quarantined once under
        ``<kind>-truncated``, and a cut on a line boundary leaves only
        the structural note.  The tailer is dead afterwards — exactly
        like a batch read, everything past the defect is lost.
        """
        self._dead = True
        if self.quarantine is None:
            raise LogReadError(
                path,
                0,
                f"unreadable or truncated stream: {error}",
                code="truncated",
            ) from error
        buffer = self._carry + salvage
        self._carry = b""
        cut = buffer.rfind(b"\n")
        yield from self._parse_rows(
            path,
            csv.reader(
                buffer[: cut + 1].decode("utf-8", errors="replace").splitlines()
            ),
        )
        tail = buffer[cut + 1 :]
        stripped = tail.decode("utf-8", errors="replace").strip("\r\n")
        if stripped:
            self.quarantine.saw_row(self.kind)
            self.quarantine.quarantine_row(
                self.kind,
                f"{self.kind}-truncated",
                "partial row lost at truncated stream tail",
                f"{path.name}: {stripped[:120]!r} ({error})",
            )
        else:
            self.quarantine.note(
                f"{self.kind}-truncated",
                "log stream unreadable or truncated mid-read; tail rows lost",
                f"{path.name}: {error}",
            )

    # ------------------------------------------------------------- binary
    def _poll_bin(self, path: Path) -> Iterable:
        """The new complete blocks, decoded: ``(columns, keep)`` each."""
        try:
            end = binfmt.resume_offset(
                path, self.record_type, start=self._offset or None
            )
        except LogReadError as exc:
            if exc.code == "truncated":
                # File header still being written: not arrived yet.
                return ()
            raise
        if end <= self._offset:
            return ()
        blocks = binfmt._decoded_blocks(
            path,
            self.record_type,
            self.quarantine,
            category="serve",
            start_offset=self._offset or None,
            end_offset=end,
            first_block=self._blocks,
        )
        self._offset = end
        return self._counted(blocks)

    def _counted(self, blocks: Iterator) -> Iterator:
        """``blocks`` with their rows counted; the block number carries
        over to the next poll, so examples name blocks as a batch read
        does."""
        while True:
            try:
                cols, keep = next(blocks)
            except StopIteration as stop:
                self._blocks = stop.value
                return
            self._parsed += len(cols[0]) if keep is None else len(keep)
            yield cols, keep
