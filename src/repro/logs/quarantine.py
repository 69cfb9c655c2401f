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
trace tells one coherent story.

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
        self.count += 1
        if len(self.examples) < MAX_EXAMPLES:
            self.examples.append(example)

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
        issue = self._issues.get(code)
        if issue is None:
            issue = Issue(code=code, message=message)
            self._issues[code] = issue
        issue.record(example)

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


class QuarantineCollector:
    """Mutable accumulator threaded through the lenient read path.

    The I/O layer calls :meth:`saw_row` for every data row it encounters
    and :meth:`quarantine_row` when one is dropped; structural defects
    that do not map to a single row (missing files, truncated streams,
    ordering repairs) go through :meth:`note`.
    """

    def __init__(self) -> None:
        self._issues = IssueSet()
        self._rows_read: dict[str, int] = {}
        self._rows_quarantined: dict[str, int] = {}

    # ------------------------------------------------------------ recording
    def saw_row(self, kind: str) -> None:
        self._rows_read[kind] = self._rows_read.get(kind, 0) + 1

    def quarantine_row(
        self, kind: str, code: str, message: str, example: str
    ) -> None:
        """Record one dropped row under ``code``.

        Quarantine activity is also first-class observability: every
        dropped row increments ``repro_quarantine_rows_total{stream}``
        and ``repro_quarantine_issues_total{code}`` on the active
        registry (no-ops when observability is disabled), so corrupted
        ingests show up in the Prometheus export and run reports.
        """
        self._rows_quarantined[kind] = self._rows_quarantined.get(kind, 0) + 1
        self._issues.record(code, message, example)
        registry = obs.metrics()
        registry.counter("repro_quarantine_rows_total", stream=kind).inc()
        registry.counter("repro_quarantine_issues_total", code=code).inc()

    def note(self, code: str, message: str, example: str) -> None:
        """Record a defect that did not drop a row."""
        self._issues.record(code, message, example)
        obs.metrics().counter(
            "repro_quarantine_issues_total", code=code
        ).inc()

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


__all__ = [
    "MAX_EXAMPLES",
    "Issue",
    "IssueSet",
    "QuarantineCollector",
    "QuarantineReport",
]
