"""Versioned, torn-write-safe snapshots of the service state.

A checkpoint is one JSON file ``checkpoint-<generation>.json`` wrapping
the service payload in an envelope::

    {"schema": "repro.serve/checkpoint/v1",
     "sha256": "<hex digest of the canonical payload encoding>",
     "payload": {...}}

The payload is encoded once, canonically: those bytes are what the
digest covers and what the file holds.  Its bulk is the service's replay
buffers, which each shard state stores column by column
(:func:`table_state`): a dictionary's values as a JSON list of strings;
codes, timestamps and byte counts as little-endian ``<i4``/``<f8``/
``<i8`` arrays, zlib-compressed at level 1 and base64-encoded.  A
medium-preset checkpoint is about 5.6 MB.

Writes go through a temporary file in the same directory, an ``fsync``
and an atomic rename, so a crash mid-write leaves at worst a stray
``*.tmp``.  The digest guards against the subtler failure — a torn or
bit-rotted file that still parses as JSON — and against schema drift:
loading walks checkpoints newest-first and silently skips any that fail
to parse, carry the wrong schema, or do not hash to their recorded
digest.
Old generations beyond ``keep`` are pruned after each successful write,
so the directory stays small but always holds a fallback.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import re
import zlib
from pathlib import Path

import numpy as np

from repro import obs
from repro.logs.columns import ColumnTable, Dictionary, object_array, type_codes
from repro.logs.records import fields_for

#: Envelope schema identifier; bump on incompatible payload changes.
CHECKPOINT_SCHEMA = "repro.serve/checkpoint/v1"

_NAME = re.compile(r"^checkpoint-(\d{8})\.json$")

#: Little-endian dtype of each column type's array (``s``: the
#: dictionary codes).
_WIRE = {"f": "<f8", "i": "<i8", "s": "<i4"}


def table_state(table: ColumnTable) -> dict:
    """A table's columns, JSON-safe: a dictionary's values as a list of
    strings; codes, timestamps and byte counts as little-endian arrays,
    zlib level 1, base64."""
    state: dict = {}
    for name, code in zip(table.fields, type_codes(table.record_type)):
        column = table.column(name)
        if isinstance(column, Dictionary):
            state[name] = {
                "values": column.values.tolist(),
                "codes": _pack(column.codes, _WIRE[code]),
            }
        else:
            state[name] = _pack(column, _WIRE[code])
    return state


def table_from_state(record_type: type, state: dict) -> ColumnTable:
    """Invert :func:`table_state`."""
    columns: dict = {}
    for name, code in zip(fields_for(record_type), type_codes(record_type)):
        entry = state[name]
        if code == "s":
            columns[name] = Dictionary(
                _unpack(entry["codes"], _WIRE[code]),
                object_array(entry["values"]),
            )
        else:
            columns[name] = _unpack(entry, _WIRE[code])
    return ColumnTable(record_type, columns)


def _pack(array: np.ndarray, wire: str) -> str:
    raw = np.asarray(array, dtype=wire).tobytes()
    return base64.b64encode(zlib.compress(raw, 1)).decode("ascii")


def _unpack(text: str, wire: str) -> np.ndarray:
    """The array in native byte order (``<f8`` -> ``f8``)."""
    raw = zlib.decompress(base64.b64decode(text))
    return np.frombuffer(raw, dtype=wire).astype(wire[1:])


def _canonical(payload: dict) -> bytes:
    """The byte encoding the digest covers (stable across processes)."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


class CheckpointStore:
    """Reads and writes the checkpoint directory."""

    def __init__(self, directory: str | Path, *, keep: int = 3) -> None:
        if keep < 1:
            raise ValueError("keep must be at least 1")
        self.directory = Path(directory)
        self.keep = keep

    # ------------------------------------------------------------ writing
    def write(self, generation: int, payload: dict) -> Path:
        """Persist one generation atomically; returns the final path."""
        self.directory.mkdir(parents=True, exist_ok=True)
        target = self.directory / f"checkpoint-{generation:08d}.json"
        # One encoding of the payload: its canonical bytes are hashed
        # and written.
        body = _canonical(payload)
        head = json.dumps(
            {
                "schema": CHECKPOINT_SCHEMA,
                "sha256": hashlib.sha256(body).hexdigest(),
            },
            separators=(",", ":"),
        )
        tmp = target.with_suffix(".json.tmp")
        with tmp.open("wb") as handle:
            handle.write(head[:-1].encode("utf-8") + b',"payload":' + body + b"}")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, target)
        if obs.enabled():
            obs.metrics().counter("repro_serve_checkpoints_total").inc()
        self._prune()
        return target

    def _prune(self) -> None:
        entries = self._entries()
        for _, path in entries[: -self.keep]:
            try:
                path.unlink()
            except OSError:
                pass

    # ------------------------------------------------------------ reading
    def _entries(self) -> list[tuple[int, Path]]:
        """All checkpoint files present, oldest generation first."""
        if not self.directory.is_dir():
            return []
        entries = []
        for path in self.directory.iterdir():
            match = _NAME.match(path.name)
            if match is not None:
                entries.append((int(match.group(1)), path))
        entries.sort()
        return entries

    def load_latest(self) -> tuple[int, dict] | None:
        """The newest checkpoint that validates, or None.

        Torn files — unparseable JSON, wrong schema, digest mismatch —
        are skipped (and counted on the metrics registry), falling back
        to the next older generation.
        """
        for generation, path in reversed(self._entries()):
            payload = self._load_one(path)
            if payload is not None:
                return generation, payload
            if obs.enabled():
                obs.metrics().counter(
                    "repro_serve_checkpoints_rejected_total"
                ).inc()
        return None

    @staticmethod
    def _load_one(path: Path) -> dict | None:
        try:
            with path.open("r", encoding="utf-8") as handle:
                envelope = json.load(handle)
        except (OSError, ValueError):
            return None
        if not isinstance(envelope, dict):
            return None
        if envelope.get("schema") != CHECKPOINT_SCHEMA:
            return None
        payload = envelope.get("payload")
        if not isinstance(payload, dict):
            return None
        digest = hashlib.sha256(_canonical(payload)).hexdigest()
        if digest != envelope.get("sha256"):
            return None
        return payload


__all__ = [
    "CHECKPOINT_SCHEMA",
    "CheckpointStore",
    "table_from_state",
    "table_state",
]
