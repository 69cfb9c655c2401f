"""Shared issue vocabulary and quarantine bookkeeping for dirty traces.

Real operator exports arrive dirty: truncated gzip members, rows with the
wrong column count, IMEIs with letters in them, sectors missing from the
cell plan.  Two subsystems need to talk about those defects with one
vocabulary:

* **validation** (:mod:`repro.logs.validate`) inspects an already-loaded
  trace and *reports* violations;
* **lenient ingestion** (:mod:`repro.logs.io`, :meth:`repro.core.dataset.
  StudyDataset.load` with ``lenient=True``) *survives* them — bad rows are
  quarantined instead of raising, and the pipeline completes on whatever
  parsed.

Both express findings as :class:`Issue` values — a stable ``code``, a
human message, a count and a bounded list of examples.  Lenient ingestion
accumulates them through a :class:`QuarantineCollector` and exposes the
final :class:`QuarantineReport`, which validation merges into its own
:class:`~repro.logs.validate.ValidationReport` so a corrupted-then-loaded
trace tells one coherent story.  A lenient column load holds its events
in a :class:`PendingIssues` until the rows before them are scrubbed.

Issue codes are ``<stream>-<defect>`` strings.  Ingestion-side codes:

=====================  ====================================================
``proxy-missing``      whole proxy log file absent          (file skipped)
``proxy-truncated``    unreadable / truncated (gzip) file   (tail lost)
``proxy-fields``       row with missing columns             (row dropped)
``proxy-value``        unparseable or out-of-domain value   (row dropped)
``proxy-imei``         malformed IMEI                       (row dropped)
``proxy-duplicate``    exact duplicate of the previous row  (row dropped)
``proxy-order``        timestamp out of order               (row kept,
                                                             log re-sorted)
=====================  ====================================================

with the same suffixes under ``mme-*`` plus ``mme-sector`` (sector not in
the cell plan, row dropped).  Validation reuses ``*-order``, ``*-imei``
and ``mme-sector`` verbatim and adds its own semantic codes
(``*-window``, ``*-subscriber``, ``proxy-tac``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro import obs

#: How many offending examples each issue keeps.
MAX_EXAMPLES = 5

#: Streams in the order a lenient load reads them; reports list issues
#: in this order (unknown streams last).
_STREAM_ORDER = ("proxy", "mme")


def _stream_rank(issue: "Issue") -> int:
    stream = issue.code.split("-", 1)[0]
    if stream in _STREAM_ORDER:
        return _STREAM_ORDER.index(stream)
    return len(_STREAM_ORDER)


@dataclass(slots=True)
class Issue:
    """One class of violation with representative examples."""

    code: str
    message: str
    count: int = 0
    examples: list[str] = field(default_factory=list)

    def record(self, example: str) -> None:
        self.extend([example], 1)

    def extend(self, examples: list[str], count: int) -> None:
        """Add ``count`` occurrences whose first examples are ``examples``."""
        self.count += count
        room = MAX_EXAMPLES - len(self.examples)
        if room > 0:
            self.examples.extend(examples[:room])

    def to_dict(self) -> dict:
        return {
            "code": self.code,
            "message": self.message,
            "count": self.count,
            "examples": list(self.examples),
        }


class IssueSet:
    """Order-preserving accumulator of :class:`Issue` values by code."""

    def __init__(self) -> None:
        self._issues: dict[str, Issue] = {}

    def record(self, code: str, message: str, example: str) -> None:
        self.extend(code, message, [example], 1)

    def extend(
        self, code: str, message: str, examples: list[str], count: int
    ) -> None:
        """Add ``count`` occurrences of ``code``; ``examples`` are the first."""
        issue = self._issues.get(code)
        if issue is None:
            issue = Issue(code=code, message=message)
            self._issues[code] = issue
        issue.extend(examples, count)

    def count(self, code: str) -> int:
        issue = self._issues.get(code)
        return issue.count if issue is not None else 0

    def __len__(self) -> int:
        return len(self._issues)

    def to_list(self) -> list[Issue]:
        return list(self._issues.values())


@dataclass(slots=True)
class QuarantineReport:
    """Outcome of one lenient ingestion run.

    ``rows_read`` counts every data row *seen* per stream (``proxy`` /
    ``mme``), whether or not it survived; ``rows_quarantined`` counts the
    subset that was dropped.  ``issues`` carries one entry per defect
    class in first-seen order.
    """

    rows_read: dict[str, int] = field(default_factory=dict)
    rows_quarantined: dict[str, int] = field(default_factory=dict)
    issues: list[Issue] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when ingestion saw a perfectly clean trace."""
        return not self.issues

    @property
    def total_quarantined(self) -> int:
        return sum(self.rows_quarantined.values())

    def count(self, code: str) -> int:
        """Occurrences of one issue code (0 when absent)."""
        for issue in self.issues:
            if issue.code == code:
                return issue.count
        return 0

    def codes(self) -> frozenset[str]:
        return frozenset(issue.code for issue in self.issues)

    def summary(self) -> str:
        lines = ["quarantine report:"]
        for kind in sorted(set(self.rows_read) | set(self.rows_quarantined)):
            read = self.rows_read.get(kind, 0)
            bad = self.rows_quarantined.get(kind, 0)
            lines.append(f"  {kind}: {read:,} rows read, {bad:,} quarantined")
        if self.ok:
            lines.append("  no issues found")
        for issue in self.issues:
            lines.append(f"  [{issue.code}] {issue.message} ({issue.count}x)")
            for example in issue.examples:
                lines.append(f"      e.g. {example}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "rows_read": dict(self.rows_read),
            "rows_quarantined": dict(self.rows_quarantined),
            "total_quarantined": self.total_quarantined,
            "ok": self.ok,
            "issues": [issue.to_dict() for issue in self.issues],
        }

    def write_json(self, path: str | Path) -> Path:
        """Serialise the report to a JSON file; returns the path."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        with target.open("w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=False)
            handle.write("\n")
        return target


class _Recorder:
    """The protocol a lenient reader records into: :meth:`saw_rows` for
    the rows it meets (a ``.bin`` reader a block at a time),
    :meth:`quarantine_row` for dropped rows and :meth:`note` for defects
    that drop none (missing files, truncated streams, ordering
    repairs).  Both go through :meth:`record`: ``count`` occurrences of
    ``code``, ``examples`` the first of them, ``rows`` of which dropped
    a row of stream ``kind``."""

    def saw_row(self, kind: str) -> None:
        self.saw_rows(kind, 1)

    def quarantine_row(
        self, kind: str, code: str, message: str, example: str, count: int = 1
    ) -> None:
        """Record ``count`` dropped rows under ``code``, all with ``example``."""
        examples = [example] * min(count, MAX_EXAMPLES)
        self.record(code, message, examples, count, kind=kind, rows=count)

    def note(self, code: str, message: str, example: str) -> None:
        self.record(code, message, [example], 1)


class QuarantineCollector(_Recorder):
    """Mutable accumulator threaded through the lenient read path.

    Quarantine activity is also first-class observability: every
    :meth:`record` adds the rows dropped to
    ``repro_quarantine_rows_total{stream}`` and the occurrences to
    ``repro_quarantine_issues_total{code}`` on the active registry
    (no-ops when observability is disabled), so corrupted ingests show
    up in the Prometheus export and run reports.
    """

    def __init__(self) -> None:
        self._issues = IssueSet()
        self._rows_read: dict[str, int] = {}
        self._rows_quarantined: dict[str, int] = {}

    # ------------------------------------------------------------ recording
    def saw_rows(self, kind: str, count: int) -> None:
        self._rows_read[kind] = self._rows_read.get(kind, 0) + count

    def record(
        self,
        code: str,
        message: str,
        examples: list[str],
        count: int,
        *,
        kind: str | None = None,
        rows: int = 0,
    ) -> None:
        self._issues.extend(code, message, examples, count)
        registry = obs.metrics()
        if rows:
            self._rows_quarantined[kind] = (
                self._rows_quarantined.get(kind, 0) + rows
            )
            registry.counter("repro_quarantine_rows_total", stream=kind).add(rows)
        registry.counter("repro_quarantine_issues_total", code=code).add(count)

    # ------------------------------------------------------------ inspection
    def count(self, code: str) -> int:
        return self._issues.count(code)

    def report(self) -> QuarantineReport:
        """Freeze the current state into a :class:`QuarantineReport`.

        Issues are listed stream by stream (proxy, then mme), in
        first-seen order within a stream — the order a lenient load
        records them — so a service that polls the streams in turn
        reports them in the same order.
        """
        return QuarantineReport(
            rows_read=dict(self._rows_read),
            rows_quarantined=dict(self._rows_quarantined),
            issues=sorted(self._issues.to_list(), key=_stream_rank),
        )

    # ------------------------------------------------------------ checkpoint
    def to_state(self) -> dict:
        """JSON-safe snapshot for :mod:`repro.serve` checkpoints."""
        return {
            "v": 1,
            "rows_read": dict(self._rows_read),
            "rows_quarantined": dict(self._rows_quarantined),
            "issues": [issue.to_dict() for issue in self._issues.to_list()],
        }

    @classmethod
    def from_state(cls, state: dict) -> "QuarantineCollector":
        if state.get("v") != 1:
            raise ValueError(
                f"unsupported QuarantineCollector state version: "
                f"{state.get('v')!r}"
            )
        collector = cls()
        collector._rows_read = dict(state["rows_read"])
        collector._rows_quarantined = dict(state["rows_quarantined"])
        for entry in state["issues"]:
            issue = Issue(
                code=entry["code"],
                message=entry["message"],
                count=entry["count"],
                examples=list(entry["examples"]),
            )
            collector._issues._issues[issue.code] = issue
        return collector


class PendingIssues(_Recorder):
    """One stream's quarantine events, held until they can be recorded
    in row order.

    A lenient column load reads a batch of rows before it scrubs them,
    yet a report lists issues in the order a row-by-row pass first meets
    them.  So each event is held at a position: a reader's after the
    rows parsed before it (``(parsed, 0)``), a scrub event at its own
    row (``(row, 1)``), and :meth:`flush` records the held codes in
    order of their first position.  Row counts pass straight through.
    Per code only the count, the first :data:`MAX_EXAMPLES` examples,
    the rows dropped and the first position are held.
    """

    def __init__(self, collector: QuarantineCollector) -> None:
        self.collector = collector
        #: Rows the reader has parsed since the last ``flush(restart=True)``.
        self.parsed = 0
        self._held: dict[str, list] = {}

    def saw_rows(self, kind: str, count: int) -> None:
        self.collector.saw_rows(kind, count)
        self.parsed += count

    def record(
        self,
        code: str,
        message: str,
        examples: list[str],
        count: int,
        *,
        kind: str | None = None,
        rows: int = 0,
    ) -> None:
        self.parsed -= rows
        position = (self.parsed, 0)
        self.hold(position, code, message, examples, count, kind=kind, rows=rows)

    def hold(
        self,
        position: tuple[int, int],
        code: str,
        message: str,
        examples: list[str],
        count: int,
        *,
        kind: str | None = None,
        rows: int = 0,
    ) -> None:
        """Hold ``count`` occurrences of ``code``, the first at ``position``."""
        held = self._held.get(code)
        if held is None:
            held = self._held[code] = [position, Issue(code, message), kind, 0]
        held[1].extend(examples, count)
        held[3] += rows

    def flush(self, *, restart: bool = False) -> None:
        """Record every held event; ``restart`` also starts the positions
        again from 0 (the reader is done)."""
        for _position, issue, kind, rows in sorted(
            self._held.values(), key=lambda held: held[0]
        ):
            self.collector.record(
                issue.code, issue.message, issue.examples, issue.count,
                kind=kind, rows=rows,
            )
        self._held.clear()
        if restart:
            self.parsed = 0


__all__ = [
    "MAX_EXAMPLES",
    "Issue",
    "IssueSet",
    "PendingIssues",
    "QuarantineCollector",
    "QuarantineReport",
]
