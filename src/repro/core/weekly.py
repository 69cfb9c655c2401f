"""Weekly patterns and wearable-vs-ISP relative usage (§4.2).

Section 4.2 makes two claims beyond the Fig. 3(a) hourly profiles:

* "we do not observe a clear weekly pattern as all metrics are almost
  constants across days" — transactions and data are spread evenly over
  the days of the week;
* "when we look at the wearable traffic in comparison with the overall
  traffic of the ISP, we observe that the relative usage of wearables is
  slightly higher on weekends and evenings".

:class:`StreamingWeekly` computes both from the full proxy table:
per-day-of-week activity series for wearable traffic, and the wearable
share of *total* ISP traffic per hour-of-day and per day-type,
normalised so 1.0 means "the average share".  A dataset is folded in as
group-bys over the detailed-window rows' weekday, hour and day columns
(the dataset's :attr:`~repro.core.dataset.StudyDataset.detailed_proxy_time`,
equal to the ``datetime`` helpers of :mod:`repro.logs.timeutil`).
Counts and byte totals are summed as int64 and added to the float
day-of-week series once per dataset, which equals adding them row by
row while the totals stay below 2**53.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from repro.core.dataset import StudyDataset, StudyWindow
from repro.logs.columns import distinct, first_seen, group_sum, runs
from repro.state import decode_value, encode_value

WEEKDAY_NAMES = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")

#: Evening hours used for the "higher in the evenings" comparison.
EVENING_HOURS = frozenset(range(18, 24))


@dataclass(frozen=True, slots=True)
class WeeklyResult:
    """Everything Section 4.2 reports beyond the hourly profiles."""

    #: Average wearable transactions / bytes / active users per day of
    #: week (Mon..Sun), each normalised by its weekly mean so a flat week
    #: reads as seven 1.0 values.
    weekday_tx_index: list[float]
    weekday_bytes_index: list[float]
    weekday_users_index: list[float]
    #: Max relative deviation of daily transactions from the weekly mean
    #: ("no clear weekly pattern" = small).
    max_daily_tx_deviation: float
    #: Wearable share of total ISP transactions per hour of day,
    #: normalised by the mean share (1.0 = average).
    relative_usage_by_hour: list[float]
    #: Wearable share of total ISP transactions, weekend over weekday.
    weekend_relative_boost: float
    #: Wearable share of total ISP transactions, evening hours over the
    #: rest of the day.
    evening_relative_boost: float


def _index(values: list[float]) -> list[float]:
    mean = sum(values) / len(values)
    if mean == 0:
        return [0.0] * len(values)
    return [value / mean for value in values]


class StreamingWeekly:
    """Mergeable §4.2 aggregation over the full proxy stream.

    Consumes *every* proxy row — the wearable share of total ISP
    traffic needs the phone traffic in the denominators.  State is a
    handful of fixed-size hour/day-of-week accumulators plus one
    ``(subscriber, date)`` set per day of week: O(active wearable
    user-days), independent of row count.  Counters are integers
    (byte totals are integral-valued floats, exact well below 2**53) and
    the user/date accumulators are sets, so :meth:`merge` is exact.
    """

    def __init__(self, window: StudyWindow, wearable_tacs: frozenset[str]) -> None:
        self._window = window
        self._tacs = wearable_tacs
        self._dow_tx = [0.0] * 7
        self._dow_bytes = [0.0] * 7
        self._dow_users: list[set[tuple[str, int]]] = [set() for _ in range(7)]
        self._hour_wearable = [0] * 24
        self._hour_total = [0] * 24
        self._daytype_wearable = {True: 0, False: 0}  # keyed by is_weekend
        self._daytype_total = {True: 0, False: 0}
        self._seen_dates: dict[int, set[int]] = defaultdict(set)

    def merge(self, other: "StreamingWeekly") -> "StreamingWeekly":
        """Fold another shard's weekly state into this one."""
        for dow in range(7):
            self._dow_tx[dow] += other._dow_tx[dow]
            self._dow_bytes[dow] += other._dow_bytes[dow]
            self._dow_users[dow] |= other._dow_users[dow]
        for hour in range(24):
            self._hour_wearable[hour] += other._hour_wearable[hour]
            self._hour_total[hour] += other._hour_total[hour]
        for key in (True, False):
            self._daytype_wearable[key] += other._daytype_wearable[key]
            self._daytype_total[key] += other._daytype_total[key]
        for dow, dates in other._seen_dates.items():
            self._seen_dates[dow] |= dates
        return self

    def consume(self, dataset: StudyDataset) -> "StreamingWeekly":
        """Fold a dataset's detailed-window proxy rows in.

        Wearable rows are the dataset's wearable mask, drawn from the
        same device database as the TAC set this fold carries in its
        state.
        """
        time = dataset.detailed_proxy_time
        rows = np.flatnonzero(dataset.detailed_proxy_mask)
        hour = time.hour.astype(np.int64)
        dow = time.weekday.astype(np.int64)
        date = time.day.astype(np.int64)
        weekend = dow >= 5

        keys, group = first_seen(dow)
        groups, dates = distinct(group, date)
        dates = dates.tolist()
        for index, start, end in runs(groups):
            self._seen_dates[int(keys[index])].update(dates[start:end])
        for hour_index, count in enumerate(np.bincount(hour, minlength=24).tolist()):
            self._hour_total[hour_index] += count
        self._daytype_total[True] += int(weekend.sum())
        self._daytype_total[False] += int((~weekend).sum())

        wearable = dataset.wearable_proxy_mask[rows]
        hour = hour[wearable]
        dow = dow[wearable]
        weekend = weekend[wearable]
        proxy = dataset.proxy
        rows = rows[wearable]
        size = proxy.column("bytes_up")[rows] + proxy.column("bytes_down")[rows]
        subscribers = proxy.column("subscriber_id")
        codes = subscribers.codes[rows]
        tx = np.bincount(dow, minlength=7).tolist()
        volume = group_sum(dow, size, 7).tolist()
        for day in range(7):
            self._dow_tx[day] += tx[day]
            self._dow_bytes[day] += volume[day]
        days, users, dates = distinct(dow, codes, date[wearable])
        members = list(zip(subscribers.values[users].tolist(), dates.tolist()))
        for day, start, end in runs(days):
            self._dow_users[day].update(members[start:end])
        for hour_index, count in enumerate(np.bincount(hour, minlength=24).tolist()):
            self._hour_wearable[hour_index] += count
        self._daytype_wearable[True] += int(weekend.sum())
        self._daytype_wearable[False] += int((~weekend).sum())
        return self

    def result(self) -> WeeklyResult:
        if sum(self._dow_tx) == 0:
            raise ValueError("no wearable transactions in the detailed window")

        day_count = {dow: len(dates) for dow, dates in self._seen_dates.items()}

        def per_day(series: list[float]) -> list[float]:
            return [
                series[dow] / day_count[dow] if day_count.get(dow) else 0.0
                for dow in range(7)
            ]

        tx_index = _index(per_day(self._dow_tx))
        bytes_index = _index(per_day(self._dow_bytes))
        users_index = _index(
            per_day([float(len(users)) for users in self._dow_users])
        )
        max_deviation = max(abs(value - 1.0) for value in tx_index)

        shares = [
            self._hour_wearable[hour] / self._hour_total[hour]
            if self._hour_total[hour]
            else 0.0
            for hour in range(24)
        ]
        relative_by_hour = _index(shares)

        def share(weekend: bool) -> float:
            total = self._daytype_total[weekend]
            return self._daytype_wearable[weekend] / total if total else 0.0

        weekday_share = share(False)
        weekend_boost = share(True) / weekday_share if weekday_share else 0.0

        evening_wearable = sum(self._hour_wearable[h] for h in EVENING_HOURS)
        evening_total = sum(self._hour_total[h] for h in EVENING_HOURS)
        rest_wearable = sum(self._hour_wearable) - evening_wearable
        rest_total = sum(self._hour_total) - evening_total
        evening_share = (
            evening_wearable / evening_total if evening_total else 0.0
        )
        rest_share = rest_wearable / rest_total if rest_total else 0.0
        evening_boost = evening_share / rest_share if rest_share else 0.0

        return WeeklyResult(
            weekday_tx_index=tx_index,
            weekday_bytes_index=bytes_index,
            weekday_users_index=users_index,
            max_daily_tx_deviation=max_deviation,
            relative_usage_by_hour=relative_by_hour,
            weekend_relative_boost=weekend_boost,
            evening_relative_boost=evening_boost,
        )

    def to_state(self) -> dict:
        """Self-contained JSON-safe snapshot (window + TACs included)."""
        return {
            "v": 1,
            "window": {
                "study_start": self._window.study_start,
                "total_days": self._window.total_days,
                "detailed_days": self._window.detailed_days,
            },
            "tacs": encode_value(self._tacs),
            "dow_tx": list(self._dow_tx),
            "dow_bytes": list(self._dow_bytes),
            "dow_users": encode_value(self._dow_users),
            "hour_wearable": list(self._hour_wearable),
            "hour_total": list(self._hour_total),
            "daytype_wearable": encode_value(self._daytype_wearable),
            "daytype_total": encode_value(self._daytype_total),
            "seen_dates": encode_value(dict(self._seen_dates)),
        }

    @classmethod
    def from_state(cls, state: dict) -> "StreamingWeekly":
        if state.get("v") != 1:
            raise ValueError(
                f"unsupported StreamingWeekly state: {state.get('v')!r}"
            )
        meta = state["window"]
        window = StudyWindow(
            study_start=meta["study_start"],
            total_days=meta["total_days"],
            detailed_days=meta["detailed_days"],
        )
        weekly = cls(window, frozenset(decode_value(state["tacs"])))
        weekly._dow_tx = list(state["dow_tx"])
        weekly._dow_bytes = list(state["dow_bytes"])
        weekly._dow_users = decode_value(state["dow_users"])
        weekly._hour_wearable = list(state["hour_wearable"])
        weekly._hour_total = list(state["hour_total"])
        weekly._daytype_wearable = decode_value(state["daytype_wearable"])
        weekly._daytype_total = decode_value(state["daytype_total"])
        weekly._seen_dates = defaultdict(set, decode_value(state["seen_dates"]))
        return weekly
