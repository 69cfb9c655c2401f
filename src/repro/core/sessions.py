"""Usage sessionisation: the paper's one-minute gap rule (§5.1).

A *single usage* of an app is a maximal run of its transactions where
consecutive transactions are less than a gap apart — the paper uses one
minute ("until when the two consecutive transactions are made at least one
minute apart").  Sessions feed Fig. 5(b) (frequency of usage), Fig. 7
(transactions/data per single usage) and the apps-run-per-day headline.

:func:`session_table` is the rule over columns: one stable lexsort of the
attributed rows by (subscriber, app) pair, pairs in first-row order, then
timestamp, split wherever the pair changes or the gap is at least the
session gap, and the sessions listed stably by start.  The result,
:class:`SessionTable`, is columns, one row per session.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.app_mapping import Attribution
from repro.logs.columns import Dictionary, first_seen

#: The paper's session gap.
DEFAULT_SESSION_GAP_S = 60.0

#: Transactions from which a usage counts as interactive: foreground
#: usages carry several transactions; one- or two-transaction touches are
#: background syncs, notifications or stray third-party beacons rather
#: than deliberate use.
INTERACTIVE_TX = 3


@dataclass(frozen=True)
class SessionTable:
    """Usage sessions as columns, listed stably by start."""

    subscriber: Dictionary
    app: Dictionary
    start: np.ndarray
    end: np.ndarray
    tx_count: np.ndarray
    bytes_total: np.ndarray

    def __len__(self) -> int:
        return len(self.start)


def session_table(
    attribution: Attribution, gap_seconds: float = DEFAULT_SESSION_GAP_S
) -> SessionTable:
    """Split the attributed rows into usage sessions.

    Rows without a resolved app are skipped — they cannot be assigned to
    a usage.  The rest are grouped per (subscriber, app), pairs in the
    order of their first row, and each pair's rows ordered stably by
    timestamp; a session ends where the next row of its pair is at least
    ``gap_seconds`` later.  Sessions are listed stably by start.
    """
    if gap_seconds <= 0:
        raise ValueError("gap_seconds must be positive")
    table = attribution.table
    rows = np.flatnonzero(attribution.app >= 0)
    subscribers = table.column("subscriber_id")
    subscriber = subscribers.codes[rows]
    app = attribution.app[rows]
    timestamp = table.column("timestamp")[rows]
    _, pair = first_seen(subscriber.astype(np.int64) * len(attribution.apps) + app)
    order = np.lexsort((timestamp, pair))
    timestamp = timestamp[order]
    pair = pair[order]
    split = np.ones(len(order), dtype=bool)
    split[1:] = (pair[1:] != pair[:-1]) | (
        timestamp[1:] - timestamp[:-1] >= gap_seconds
    )
    starts = np.flatnonzero(split)
    ends = np.append(starts[1:], len(order))
    size = table.column("bytes_up")[rows] + table.column("bytes_down")[rows]
    totals = np.add.reduceat(size[order], starts) if len(starts) else size[:0]
    listing = np.argsort(timestamp[starts], kind="stable")
    first = order[starts[listing]]
    return SessionTable(
        Dictionary(subscriber[first], subscribers.values),
        Dictionary(app[first], attribution.apps),
        timestamp[starts[listing]],
        timestamp[ends[listing] - 1],
        (ends - starts)[listing],
        totals[listing],
    )
