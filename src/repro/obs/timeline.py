"""Live run telemetry: the JSON-lines event log and heartbeat sampler.

:mod:`repro.obs.metrics` and :mod:`repro.obs.spans` answer *where did the
time go* after a run finishes; this module answers *what is the run doing
right now*.  Three pieces:

* :class:`EventWriter` — an append-only JSON-lines event log under the
  versioned schema ``repro.obs/events/v1``.  One JSON object per line,
  each stamped with wall-clock time (``t_unix``), the emitting process
  (``pid``) and a per-process monotonic sequence number (``seq``).  The
  file is opened in append mode, every event is flushed as one short
  line, and events stay well under the POSIX atomic-append size — so
  pool worker *processes* append to the same file the parent opened and
  the log interleaves without corruption.
* :class:`HeartbeatSampler` — a daemon thread that emits a ``heartbeat``
  event every ``interval_s`` seconds with the process's current RSS, its
  CPU utilisation over the last interval and its open file-descriptor
  count.  The CLI starts one in the orchestrating process and
  :func:`repro.obs.map_shards` one in every pool task, so a stalled
  shard is visible as a flat-lining heartbeat even while the parent
  blocks in ``pool.map``.
* :class:`ProgressState` / :class:`ProgressPrinter` — a live stderr
  renderer over the event log.  Rather than plumb callbacks from worker
  processes back to the parent, the renderer *tails the log file*: the
  event log is the transport, which is why ``--progress`` works even for
  shards running in other processes.

Event taxonomy (``repro.obs/events/v1``)
----------------------------------------
Every event carries ``type``, ``t_unix``, ``pid``, ``wid`` and ``seq``.
``wid`` identifies the emitting *writer* (a pool process that handles
several shards opens a fresh writer per shard); ``seq`` is strictly
increasing per ``wid``, which is how a reader detects lost or reordered
lines.  Types:

``header``
    first line of the file only: ``schema``, ``created_unix`` and
    free-form ``meta`` (command, argv, seed…).
``heartbeat``
    ``rss_kb`` (current resident set), ``cpu_percent`` (of one core,
    over the last interval), ``open_fds``; any field may be absent on
    platforms that cannot supply it.
``progress``
    cumulative ``rows`` for one unit of work: ``shard``/``stage``
    (``generate``/``spill``) inside shard workers, ``stage="export"``
    with a ``stream`` label during the streaming merge.  ``rows`` is
    **non-decreasing** per ``(pid, shard, stage, stream)`` — the
    validator enforces it, tests assert it.
``phase``
    a coarse named stage transition (``analyze.mobility``, …) so the
    progress line can say what the run is doing between row updates.
``summary``
    one terminal event with the normalized rows-in/rows-out/issues
    totals.

:func:`validate_events_file` is the schema gate ``make obs-smoke`` runs
against a freshly produced log.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence, TextIO

__all__ = [
    "EVENTS_SCHEMA",
    "EVENT_TYPES",
    "EventWriter",
    "HeartbeatSampler",
    "NULL_EVENTS",
    "ProgressPrinter",
    "ProgressState",
    "read_events",
    "sample_process",
    "validate_events",
    "validate_events_file",
]

EVENTS_SCHEMA = "repro.obs/events/v1"

EVENT_TYPES = ("header", "heartbeat", "progress", "phase", "summary")


# ----------------------------------------------------------- process probes
def _rss_kb() -> float | None:
    """Current resident set size in KiB (Linux /proc; None elsewhere)."""
    try:
        with open("/proc/self/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return float(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return None


def _open_fds() -> int | None:
    """Open file descriptor count (Linux /proc; None elsewhere)."""
    try:
        return len(os.listdir("/proc/self/fd"))
    except OSError:
        return None


def sample_process() -> dict[str, float | int]:
    """One instantaneous process sample (no CPU%, which needs a delta)."""
    sample: dict[str, float | int] = {}
    rss = _rss_kb()
    if rss is not None:
        sample["rss_kb"] = rss
    fds = _open_fds()
    if fds is not None:
        sample["open_fds"] = fds
    return sample


# --------------------------------------------------------------- the writer
class EventWriter:
    """Append-only JSON-lines event log (one process's handle on it).

    The first opener of the file writes the ``header`` event; appenders
    (worker processes pointed at the same path) detect the non-empty
    file and skip it.  ``emit`` is thread-safe within the process and
    each event is written and flushed as a single line, so concurrent
    appenders interleave whole events.
    """

    def __init__(
        self,
        path: str | Path,
        meta: Mapping[str, Any] | None = None,
    ) -> None:
        self.path = Path(path)
        self.enabled = True
        if self.path.parent != Path(""):
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._seq = 0
        # Unique per writer, not per process: a pool worker that handles
        # several shards opens one writer per shard, each with its own
        # seq stream.
        self._wid = f"{os.getpid():x}-{os.urandom(3).hex()}"
        self._fh: TextIO | None = self.path.open(
            "a", encoding="utf-8", buffering=1
        )
        if self.path.stat().st_size == 0:
            self.emit(
                "header",
                schema=EVENTS_SCHEMA,
                created_unix=time.time(),
                meta=dict(meta or {}),
            )

    def emit(self, event_type: str, **fields: Any) -> dict | None:
        """Append one event; returns the record (None once closed)."""
        record: dict[str, Any] = {
            "type": event_type,
            "t_unix": round(time.time(), 6),
            "pid": os.getpid(),
            "wid": self._wid,
        }
        record.update(fields)
        with self._lock:
            if self._fh is None:
                return None
            record["seq"] = self._seq
            self._seq += 1
            # One write call per event: short lines append atomically
            # even when worker processes share the file.
            self._fh.write(
                json.dumps(record, separators=(",", ":")) + "\n"
            )
        return record

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    def __enter__(self) -> "EventWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class _NullEventWriter:
    """Shared no-op writer handed out when timeline capture is off."""

    __slots__ = ()

    path = None
    enabled = False

    def emit(self, event_type: str, **fields: Any) -> None:
        return None

    def close(self) -> None:
        return None


NULL_EVENTS = _NullEventWriter()


# ----------------------------------------------------------- the heartbeat
class HeartbeatSampler:
    """Background daemon thread emitting periodic ``heartbeat`` events.

    CPU utilisation is the ``process_time`` delta over the wall delta
    since the previous beat (100 == one core saturated; sharded parents
    mostly wait, workers mostly burn).  ``stop()`` emits one final beat
    so even sub-interval runs leave at least one sample.
    """

    def __init__(
        self,
        writer: EventWriter | _NullEventWriter,
        interval_s: float = 0.5,
    ) -> None:
        if interval_s <= 0:
            raise ValueError("interval_s must be > 0")
        self._writer = writer
        self._interval = interval_s
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._last_wall = time.perf_counter()
        self._last_cpu = time.process_time()

    def _beat(self) -> None:
        wall = time.perf_counter()
        cpu = time.process_time()
        delta = wall - self._last_wall
        cpu_percent = (
            100.0 * (cpu - self._last_cpu) / delta if delta > 0 else 0.0
        )
        self._last_wall, self._last_cpu = wall, cpu
        self._writer.emit(
            "heartbeat",
            cpu_percent=round(max(0.0, cpu_percent), 1),
            **sample_process(),
        )

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            self._beat()

    def start(self) -> "HeartbeatSampler":
        if not self._writer.enabled or self._thread is not None:
            return self
        self._last_wall = time.perf_counter()
        self._last_cpu = time.process_time()
        self._thread = threading.Thread(
            target=self._run, name="obs-heartbeat", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._thread = None
        if self._writer.enabled:
            self._beat()

    def __enter__(self) -> "HeartbeatSampler":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


# -------------------------------------------------------------- validation
def _fail(where: str, reason: str) -> None:
    raise ValueError(f"{where}: {reason}")


def _check_common(event: Any, where: str) -> None:
    if not isinstance(event, dict):
        _fail(where, "event is not an object")
    if event.get("type") not in EVENT_TYPES:
        _fail(where, f"unknown event type {event.get('type')!r}")
    if not isinstance(event.get("t_unix"), (int, float)):
        _fail(where, "missing t_unix timestamp")
    if not isinstance(event.get("pid"), int):
        _fail(where, "missing integer pid")
    if not isinstance(event.get("wid"), str) or not event["wid"]:
        _fail(where, "missing writer id (wid)")
    if not isinstance(event.get("seq"), int) or event["seq"] < 0:
        _fail(where, "missing non-negative integer seq")


def validate_events(events: Sequence[Mapping]) -> None:
    """Raise :class:`ValueError` unless ``events`` matches events/v1.

    Checks the header, per-event structure, per-writer ``seq``
    monotonicity and — the property the live renderer and the smoke test
    rely on — that ``progress.rows`` never decreases for one
    ``(wid, shard, stage, stream)`` unit of work.
    """
    if not events:
        _fail("$", "empty event log")
    header = events[0]
    _check_common(header, "$[0]")
    if header.get("type") != "header":
        _fail("$[0]", "first event must be the header")
    if header.get("schema") != EVENTS_SCHEMA:
        _fail(
            "$[0].schema",
            f"expected {EVENTS_SCHEMA!r}, got {header.get('schema')!r}",
        )
    if not isinstance(header.get("created_unix"), (int, float)):
        _fail("$[0].created_unix", "missing creation timestamp")

    last_seq: dict[str, int] = {}
    last_rows: dict[tuple, int] = {}
    for index, event in enumerate(events):
        where = f"$[{index}]"
        _check_common(event, where)
        if index > 0 and event["type"] == "header":
            _fail(where, "header allowed only as the first event")
        wid = event["wid"]
        if wid in last_seq and event["seq"] <= last_seq[wid]:
            _fail(
                where,
                f"seq {event['seq']} not increasing for writer {wid} "
                f"(last {last_seq[wid]})",
            )
        last_seq[wid] = event["seq"]

        if event["type"] == "heartbeat":
            for field in ("rss_kb", "cpu_percent", "open_fds"):
                if field in event and not isinstance(
                    event[field], (int, float)
                ):
                    _fail(where, f"heartbeat {field} is not numeric")
            if event.get("cpu_percent", 0) < 0:
                _fail(where, "heartbeat cpu_percent is negative")
        elif event["type"] == "progress":
            rows = event.get("rows")
            if not isinstance(rows, int) or rows < 0:
                _fail(where, "progress missing non-negative integer rows")
            if "shard" in event and (
                not isinstance(event["shard"], int) or event["shard"] < 0
            ):
                _fail(where, "progress shard must be a non-negative int")
            key = (
                wid,
                event.get("shard"),
                event.get("stage"),
                event.get("stream"),
            )
            if key in last_rows and rows < last_rows[key]:
                _fail(
                    where,
                    f"progress rows decreased ({last_rows[key]} -> {rows}) "
                    f"for shard={event.get('shard')} "
                    f"stage={event.get('stage')} stream={event.get('stream')}",
                )
            last_rows[key] = rows
        elif event["type"] == "phase":
            if not isinstance(event.get("stage"), str) or not event["stage"]:
                _fail(where, "phase missing stage name")


def read_events(path: str | Path) -> list[dict]:
    """Parse an event log; raises :class:`ValueError` on broken lines."""
    events: list[dict] = []
    with Path(path).open("r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{number}: not a JSON event ({exc})"
                ) from exc
    return events


def validate_events_file(path: str | Path) -> list[dict]:
    """Load and validate an event log; returns the parsed events."""
    events = read_events(path)
    validate_events(events)
    return events


# ---------------------------------------------------------- live rendering
class ProgressState:
    """Folds a stream of events into one live status line."""

    def __init__(self) -> None:
        self.started_unix: float | None = None
        self.last_unix: float = 0.0
        self.shard_rows: dict[int, int] = {}
        self.shards_spilled: set[int] = set()
        self.export_rows: dict[str, int] = {}
        self.phase: str | None = None
        self.heartbeat: dict | None = None
        self._parent_pid: int | None = None

    def update(self, event: Mapping) -> None:
        kind = event.get("type")
        t_unix = float(event.get("t_unix", 0.0))
        self.last_unix = max(self.last_unix, t_unix)
        if kind == "header":
            self.started_unix = float(event.get("created_unix", t_unix))
            self._parent_pid = event.get("pid")
            return
        if self.started_unix is None:
            self.started_unix = t_unix
        if kind == "progress":
            rows = int(event.get("rows", 0))
            shard = event.get("shard")
            stage = event.get("stage")
            if shard is not None:
                previous = self.shard_rows.get(int(shard), 0)
                self.shard_rows[int(shard)] = max(previous, rows)
                if stage == "spill":
                    self.shards_spilled.add(int(shard))
            elif stage == "export":
                stream = str(event.get("stream", "?"))
                self.export_rows[stream] = max(
                    self.export_rows.get(stream, 0), rows
                )
        elif kind == "phase":
            self.phase = str(event.get("stage", "")) or None
        elif kind == "heartbeat":
            # Prefer the orchestrating process's heartbeat; fall back to
            # whichever process spoke last.
            if (
                self._parent_pid is None
                or event.get("pid") == self._parent_pid
                or self.heartbeat is None
            ):
                self.heartbeat = dict(event)

    # ------------------------------------------------------------ rendering
    def line(self, now_unix: float | None = None) -> str:
        now = self.last_unix if now_unix is None else now_unix
        elapsed = max(0.0, now - (self.started_unix or now))
        parts = [f"{elapsed:6.1f}s"]
        if self.phase:
            parts.append(self.phase)
        if self.shard_rows:
            total = sum(self.shard_rows.values())
            parts.append(
                f"generate {total:,} rows "
                f"({len(self.shards_spilled)}/{len(self.shard_rows)} "
                "shards spilled)"
            )
        if self.export_rows:
            streams = " ".join(
                f"{stream} {rows:,}"
                for stream, rows in sorted(self.export_rows.items())
            )
            parts.append(f"export {streams}")
        beat = self.heartbeat
        if beat:
            health = []
            if "rss_kb" in beat:
                health.append(f"rss {beat['rss_kb'] / 1024.0:.0f}MB")
            if "cpu_percent" in beat:
                health.append(f"cpu {beat['cpu_percent']:.0f}%")
            if "open_fds" in beat:
                health.append(f"fds {beat['open_fds']}")
            if health:
                parts.append(" ".join(health))
        return " | ".join(parts)


class ProgressPrinter:
    """Tails an event log and renders a live progress line to a stream.

    On a TTY the line redraws in place (``\\r`` + erase); on anything
    else (CI logs, pipes) it prints a fresh line whenever the rendered
    text changes.  The tail is resilient to reading mid-write: partial
    trailing lines are buffered until their newline arrives.
    """

    def __init__(
        self,
        path: str | Path,
        stream: TextIO,
        interval_s: float = 0.5,
    ) -> None:
        self.path = Path(path)
        self.state = ProgressState()
        self._stream = stream
        self._interval = interval_s
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._buffer = ""
        self._offset = 0
        self._last_line = ""
        self._wrote_tty_line = False

    # ------------------------------------------------------------- tailing
    def _drain(self) -> None:
        try:
            with self.path.open("r", encoding="utf-8") as handle:
                handle.seek(self._offset)
                chunk = handle.read()
                self._offset = handle.tell()
        except OSError:
            return
        if not chunk:
            return
        self._buffer += chunk
        while "\n" in self._buffer:
            line, self._buffer = self._buffer.split("\n", 1)
            line = line.strip()
            if not line:
                continue
            try:
                self.state.update(json.loads(line))
            except (json.JSONDecodeError, ValueError, TypeError):
                continue  # telemetry must never take the run down

    def _render(self, final: bool = False) -> None:
        line = self.state.line(now_unix=time.time())
        is_tty = getattr(self._stream, "isatty", lambda: False)()
        if is_tty:
            self._stream.write("\r\x1b[2K" + line)
            if final:
                self._stream.write("\n")
            self._stream.flush()
            self._wrote_tty_line = True
        elif line != self._last_line or final:
            self._stream.write(line + "\n")
            self._stream.flush()
        self._last_line = line

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            self._drain()
            self._render()

    # ------------------------------------------------------------ lifecycle
    def start(self) -> "ProgressPrinter":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._run, name="obs-progress", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._thread = None
        self._drain()
        self._render(final=True)

    def __enter__(self) -> "ProgressPrinter":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
