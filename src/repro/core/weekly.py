"""Weekly patterns and wearable-vs-ISP relative usage (§4.2).

Section 4.2 makes two claims beyond the Fig. 3(a) hourly profiles:

* "we do not observe a clear weekly pattern as all metrics are almost
  constants across days" — transactions and data are spread evenly over
  the days of the week;
* "when we look at the wearable traffic in comparison with the overall
  traffic of the ISP, we observe that the relative usage of wearables is
  slightly higher on weekends and evenings".

:class:`WeeklyPartial` computes both from the full proxy table:
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

from dataclasses import dataclass, field

import numpy as np

from repro.core.dataset import StudyDataset
from repro.core.folds import _PartialState, _set_union
from repro.logs.columns import distinct, first_seen, group_sum, runs

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


@dataclass
class WeeklyPartial(_PartialState):
    """Mergeable §4.2 aggregation over the full proxy stream.

    Consumes *every* proxy row — the wearable share of total ISP
    traffic needs the phone traffic in the denominators.  State is a
    handful of fixed-size hour/day-of-week accumulators plus one
    ``(subscriber, date)`` set per day of week: O(active wearable
    user-days), independent of row count.  Counters are integers
    (byte totals are integral-valued floats, exact well below 2**53) and
    the user/date accumulators are sets, so :meth:`merge` is exact.
    """

    dow_tx: list[float] = field(default_factory=lambda: [0.0] * 7)
    dow_bytes: list[float] = field(default_factory=lambda: [0.0] * 7)
    dow_users: list[set[tuple[str, int]]] = field(
        default_factory=lambda: [set() for _ in range(7)]
    )
    hour_wearable: list[int] = field(default_factory=lambda: [0] * 24)
    hour_total: list[int] = field(default_factory=lambda: [0] * 24)
    #: Keyed by is_weekend.
    daytype_wearable: dict[bool, int] = field(
        default_factory=lambda: {True: 0, False: 0}
    )
    daytype_total: dict[bool, int] = field(
        default_factory=lambda: {True: 0, False: 0}
    )
    #: Day of week -> the study days seen on it, keys in first-row order.
    seen_dates: dict[int, set[int]] = field(default_factory=dict)

    def merge(self, other: "WeeklyPartial") -> None:
        """Fold another shard's weekly state into this one."""
        for dow in range(7):
            self.dow_tx[dow] += other.dow_tx[dow]
            self.dow_bytes[dow] += other.dow_bytes[dow]
            self.dow_users[dow] |= other.dow_users[dow]
        for hour in range(24):
            self.hour_wearable[hour] += other.hour_wearable[hour]
            self.hour_total[hour] += other.hour_total[hour]
        for key in (True, False):
            self.daytype_wearable[key] += other.daytype_wearable[key]
            self.daytype_total[key] += other.daytype_total[key]
        _set_union(self.seen_dates, other.seen_dates)

    def consume(self, dataset: StudyDataset) -> None:
        """Fold a dataset's detailed-window proxy rows in; wearable rows
        are the dataset's wearable mask."""
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
            self.seen_dates.setdefault(int(keys[index]), set()).update(
                dates[start:end]
            )
        for hour_index, count in enumerate(np.bincount(hour, minlength=24).tolist()):
            self.hour_total[hour_index] += count
        self.daytype_total[True] += int(weekend.sum())
        self.daytype_total[False] += int((~weekend).sum())

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
            self.dow_tx[day] += tx[day]
            self.dow_bytes[day] += volume[day]
        days, users, dates = distinct(dow, codes, date[wearable])
        members = list(zip(subscribers.values[users].tolist(), dates.tolist()))
        for day, start, end in runs(days):
            self.dow_users[day].update(members[start:end])
        for hour_index, count in enumerate(np.bincount(hour, minlength=24).tolist()):
            self.hour_wearable[hour_index] += count
        self.daytype_wearable[True] += int(weekend.sum())
        self.daytype_wearable[False] += int((~weekend).sum())

    def finalize(self) -> WeeklyResult:
        if sum(self.dow_tx) == 0:
            raise ValueError("no wearable transactions in the detailed window")

        day_count = {dow: len(dates) for dow, dates in self.seen_dates.items()}

        def per_day(series: list[float]) -> list[float]:
            return [
                series[dow] / day_count[dow] if day_count.get(dow) else 0.0
                for dow in range(7)
            ]

        tx_index = _index(per_day(self.dow_tx))
        bytes_index = _index(per_day(self.dow_bytes))
        users_index = _index(
            per_day([float(len(users)) for users in self.dow_users])
        )
        max_deviation = max(abs(value - 1.0) for value in tx_index)

        shares = [
            self.hour_wearable[hour] / self.hour_total[hour]
            if self.hour_total[hour]
            else 0.0
            for hour in range(24)
        ]
        relative_by_hour = _index(shares)

        def share(weekend: bool) -> float:
            total = self.daytype_total[weekend]
            return self.daytype_wearable[weekend] / total if total else 0.0

        weekday_share = share(False)
        weekend_boost = share(True) / weekday_share if weekday_share else 0.0

        evening_wearable = sum(self.hour_wearable[h] for h in EVENING_HOURS)
        evening_total = sum(self.hour_total[h] for h in EVENING_HOURS)
        rest_wearable = sum(self.hour_wearable) - evening_wearable
        rest_total = sum(self.hour_total) - evening_total
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
