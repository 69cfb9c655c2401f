"""Trace integrity validation.

Before analysing an exported trace directory — real or synthetic — an
operator pipeline wants structural guarantees: every IMEI well-formed,
every sector in the cell plan, every subscriber in the billing directory,
timestamps ordered and inside the declared window.  :func:`validate_trace`
checks all of it and returns a :class:`ValidationReport` listing each
violation with a bounded number of examples, rather than dying on the
first bad row.

Issues are expressed in the shared vocabulary of
:mod:`repro.logs.quarantine`, so a report over a leniently loaded trace
(where ingestion already quarantined rows) folds the ingestion issues in
and the two stages tell one coherent story.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.dataset import StudyDataset
from repro.devicedb.tac import IMEI_LENGTH
from repro.logs.columns import Dictionary
from repro.logs.quarantine import MAX_EXAMPLES, Issue, IssueSet
from repro.logs.timeutil import SECONDS_PER_HOUR

__all__ = [
    "MAX_EXAMPLES",
    "Issue",
    "ValidationReport",
    "WINDOW_SLACK_S",
    "validate_trace",
]

#: Sessions may spill slightly past the last midnight of the window.
WINDOW_SLACK_S = 1 * SECONDS_PER_HOUR


@dataclass(slots=True)
class ValidationReport:
    """Outcome of a trace validation run."""

    proxy_records: int = 0
    mme_records: int = 0
    issues: list[Issue] = field(default_factory=list)
    #: Rows lenient ingestion dropped before validation ever saw the
    #: dataset (0 for strict loads).
    rows_quarantined: int = 0

    @property
    def ok(self) -> bool:
        return not self.issues

    def summary(self) -> str:
        lines = [
            f"proxy records: {self.proxy_records:,}",
            f"mme records:   {self.mme_records:,}",
        ]
        if self.rows_quarantined:
            lines.append(f"quarantined:   {self.rows_quarantined:,} rows")
        if self.ok:
            lines.append("no issues found")
        for issue in self.issues:
            lines.append(f"[{issue.code}] {issue.message} ({issue.count}x)")
            for example in issue.examples:
                lines.append(f"    e.g. {example}")
        return "\n".join(lines)


#: Each log's checks of one value per dictionary entry, in the order a
#: row is checked after its order and window checks: (code, message).
VALUE_CHECKS = {
    "proxy": (
        ("imei", "malformed IMEI in proxy log"),
        ("tac", "proxy IMEI with TAC unknown to the device database"),
        ("subscriber", "proxy subscriber missing from the billing directory"),
    ),
    "mme": (
        ("sector", "MME sector missing from the cell plan"),
        ("subscriber", "MME subscriber missing from the billing directory"),
        ("imei", "malformed IMEI in MME log"),
    ),
}


def validate_trace(dataset: StudyDataset) -> ValidationReport:
    """Validate a loaded trace; returns a report instead of raising.

    Each check is a row mask over a log's columns: the IMEI, TAC,
    billing-directory and cell-plan checks run once per dictionary entry,
    the order and window checks over the timestamp column.  The TAC check
    applies to well-formed IMEIs only.  Issues are listed as a row-by-row
    pass would meet them (:func:`_record`), the proxy log's first.

    When the dataset was loaded leniently, the ingestion-side quarantine
    issues are folded into the report (first, in ingestion order) so one
    summary covers everything wrong with the trace.
    """
    window = dataset.window
    directory = dataset.account_directory
    device_db = dataset.device_db
    lo = window.study_start
    hi = window.study_end + WINDOW_SLACK_S

    def malformed(imei: str) -> bool:
        return len(imei) != IMEI_LENGTH or not imei.isdigit()

    def unknown_tac(imei: str) -> bool:
        return not malformed(imei) and device_db.lookup_imei(imei) is None

    # code -> (field, whether a value fails, example format); ``{:.8}``
    # shows a string's first 8 characters, the TAC.
    value_checks = {
        "imei": ("imei", malformed, " {!r}"),
        "tac": ("imei", unknown_tac, " tac={:.8}"),
        "subscriber": ("subscriber_id", lambda s: s not in directory, " {}"),
        "sector": ("sector_id", lambda s: s not in dataset.sector_map, " {}"),
    }
    issues = IssueSet()
    for stream, name, table in (
        ("proxy", "proxy", dataset.proxy),
        ("mme", "MME", dataset.mme),
    ):
        timestamps = table.column("timestamp")
        backwards = np.zeros(len(table), dtype=bool)
        backwards[1:] = timestamps[1:] < timestamps[:-1]
        outside = ~((lo <= timestamps) & (timestamps < hi))
        checks = [
            ("order", f"{name} records out of time order", backwards, "", None),
            (
                "window",
                f"{name} timestamp outside the declared window",
                outside,
                " ts={}",
                timestamps,
            ),
        ]
        for code, message in VALUE_CHECKS[stream]:
            field, fails, form = value_checks[code]
            column = table.column(field)
            checks.append(
                (code, message, table.entry_mask(field, fails), form, column)
            )
        _record(issues, stream, checks)

    merged: list[Issue] = []
    rows_quarantined = 0
    if dataset.quarantine is not None:
        merged.extend(dataset.quarantine.issues)
        rows_quarantined = dataset.quarantine.total_quarantined
    merged.extend(issues.to_list())

    return ValidationReport(
        proxy_records=len(dataset.proxy),
        mme_records=len(dataset.mme),
        issues=merged,
        rows_quarantined=rows_quarantined,
    )


def _record(issues: IssueSet, stream: str, checks: list[tuple]) -> None:
    """Add one log's ``checks`` to ``issues`` as a row-by-row pass over
    the log would meet them: by first failing row, then check order.

    Each check is (code, message, row mask, example format, the column
    the example shows or None); its examples are its first
    :data:`MAX_EXAMPLES` failing rows, ``<stream>[<row>]`` followed by
    the format applied to the row's value.
    """
    found = []
    for rank, (code, message, mask, form, column) in enumerate(checks):
        rows = np.flatnonzero(mask)
        if len(rows):
            found.append((int(rows[0]), rank, code, message, rows, form, column))
    for *_, code, message, rows, form, column in sorted(found, key=lambda f: f[:2]):
        shown = rows[:MAX_EXAMPLES]
        if column is None:
            values = [None] * len(shown)
        elif isinstance(column, Dictionary):
            values = column.values[column.codes[shown]].tolist()
        else:
            values = column[shown].tolist()
        examples = [
            f"{stream}[{row}]" + form.format(value)
            for row, value in zip(shown.tolist(), values)
        ]
        issues.extend(f"{stream}-{code}", message, examples, len(rows))
