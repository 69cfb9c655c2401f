"""User activity analysis over the detailed window (§4.2-4.3, Fig. 3).

Everything here consumes the wearable transactions of the detailed
seven-week window and produces:

* the Fig. 3(a) hourly profiles (active users / transactions / data, split
  weekday vs weekend, normalised by average weekly totals);
* the Fig. 3(b) CDFs of active days per week and active hours per day;
* the Fig. 3(c) transaction-size CDF and per-user hourly averages;
* the Fig. 3(d) relation between hours of activity and hourly transaction
  rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.dataset import StudyDataset, StudyWindow
from repro.core.folds import _PartialState, _add_members, _int_add, _set_union
from repro.logs.columns import (
    add_counts as _add_counts,
    distinct,
    first_seen,
    group_sum,
    runs,
)
from repro.stats.cdf import ECDF
from repro.stats.correlation import BinnedTrend, binned_means, pearson


@dataclass(frozen=True, slots=True)
class HourlyProfile:
    """Fig. 3(a): per hour-of-day series, weekday and weekend.

    Each list has 24 entries; values are fractions of the average weekly
    total (users: of distinct weekly-active users; tx/bytes: of the weekly
    sums), exactly the paper's normalisation.
    """

    weekday_users: list[float]
    weekend_users: list[float]
    weekday_tx: list[float]
    weekend_tx: list[float]
    weekday_bytes: list[float]
    weekend_bytes: list[float]


@dataclass(frozen=True, slots=True)
class ActivityResult:
    """Everything Sections 4.2-4.3 report about wearable activity."""

    hourly: HourlyProfile
    #: Per-user CDFs (Fig. 3(b)).
    active_days_per_week: ECDF
    active_hours_per_day: ECDF
    #: Per-transaction size CDF in bytes (Fig. 3(c)).
    transaction_sizes: ECDF
    #: Per-user hourly averages (Fig. 3(c) overlays).
    hourly_tx_per_user: ECDF
    hourly_bytes_per_user: ECDF
    #: Fig. 3(d): mean tx-per-active-hour binned by active hours per day.
    tx_rate_vs_hours: list[BinnedTrend]
    tx_rate_hours_correlation: float
    #: Headline statistics.
    mean_active_days_per_week: float
    mean_active_hours_per_day: float
    fraction_users_over_10h: float
    fraction_users_under_5h: float
    fraction_tx_under_10kb: float
    median_tx_bytes: float
    mean_tx_bytes: float
    #: Average share of a week's active users that are active on one day
    #: (paper: ~35%).
    daily_active_share_of_weekly: float


@dataclass
class ActivityPartial(_PartialState):
    """§4.2-4.3 activity: per-user sets, exact counters and an exact
    transaction-size histogram."""

    #: Version 1 states carry a sampled size reservoir instead of
    #: ``sizes`` and cannot be restored.
    STATE_VERSION = 2

    day_type_days: dict[bool, set[int]] = field(
        default_factory=lambda: {True: set(), False: set()}
    )
    hour_users: dict[tuple[bool, int], set[tuple[str, int]]] = field(
        default_factory=dict
    )
    hour_tx: dict[tuple[bool, int], int] = field(default_factory=dict)
    hour_bytes: dict[tuple[bool, int], int] = field(default_factory=dict)
    weekly_users: dict[int, set[str]] = field(default_factory=dict)
    daily_users: dict[int, set[str]] = field(default_factory=dict)
    user_days: dict[str, set[int]] = field(default_factory=dict)
    user_day_hours: dict[str, set[tuple[int, int]]] = field(
        default_factory=dict
    )
    user_tx: dict[str, int] = field(default_factory=dict)
    user_bytes: dict[str, int] = field(default_factory=dict)
    #: Transaction size in bytes -> number of transactions (Fig. 3(c)).
    sizes: dict[int, int] = field(default_factory=dict)

    def consume(self, dataset: StudyDataset) -> None:
        window = dataset.window
        first_day = window.detailed_first_day
        time = dataset.detailed_proxy_time
        detailed = np.flatnonzero(dataset.detailed_proxy_mask)
        keep = np.flatnonzero(
            dataset.wearable_proxy_mask[detailed]
            & (time.day >= first_day)
            & (time.day < window.total_days)
        )
        rows = detailed[keep]
        proxy = dataset.proxy
        subscribers = proxy.column("subscriber_id")
        codes = subscribers.codes[rows]
        offset = time.day[keep].astype(np.int64) - first_day
        hour = time.hour[keep].astype(np.int64)
        weekend = (time.weekday[keep] >= 5).astype(np.int64)
        size = proxy.column("bytes_up")[rows] + proxy.column("bytes_down")[rows]

        flags, days = distinct(weekend, offset)
        days = (days + first_day).tolist()
        for flag, start, end in runs(flags):
            self.day_type_days[bool(flag)].update(days[start:end])

        keys, group = first_seen(weekend * 24 + hour)
        slots = [(bool(key >= 24), key % 24) for key in keys.tolist()]
        groups, users, days = distinct(group, codes, offset)
        _add_members(
            self.hour_users,
            slots,
            groups,
            list(
                zip(
                    subscribers.values[users].tolist(),
                    (days + first_day).tolist(),
                )
            ),
        )
        _add_counts(self.hour_tx, slots, np.bincount(group, minlength=len(slots)))
        _add_counts(self.hour_bytes, slots, group_sum(group, size, len(slots)))

        for target, key_column in (
            (self.weekly_users, offset // 7),
            (self.daily_users, offset + first_day),
        ):
            keys, group = first_seen(key_column)
            groups, users = distinct(group, codes)
            _add_members(
                target, keys.tolist(), groups, subscribers.values[users].tolist()
            )

        keys, group = first_seen(codes)
        names = subscribers.values[keys].tolist()
        groups, days = distinct(group, offset)
        _add_members(self.user_days, names, groups, (days + first_day).tolist())
        groups, days, hours = distinct(group, offset, hour)
        _add_members(
            self.user_day_hours,
            names,
            groups,
            list(zip((days + first_day).tolist(), hours.tolist())),
        )
        _add_counts(self.user_tx, names, np.bincount(group, minlength=len(names)))
        _add_counts(self.user_bytes, names, group_sum(group, size, len(names)))

        keys, group = first_seen(size)
        _add_counts(self.sizes, keys.tolist(), np.bincount(group, minlength=len(keys)))

    def merge(self, other: "ActivityPartial") -> None:
        for key in (True, False):
            self.day_type_days[key] |= other.day_type_days[key]
        _set_union(self.hour_users, other.hour_users)
        _int_add(self.hour_tx, other.hour_tx)
        _int_add(self.hour_bytes, other.hour_bytes)
        _set_union(self.weekly_users, other.weekly_users)
        _set_union(self.daily_users, other.daily_users)
        _set_union(self.user_days, other.user_days)
        _set_union(self.user_day_hours, other.user_day_hours)
        _int_add(self.user_tx, other.user_tx)
        _int_add(self.user_bytes, other.user_bytes)
        _int_add(self.sizes, other.sizes)

    def finalize(self, window: StudyWindow) -> ActivityResult:
        if not self.sizes:
            raise ValueError("no wearable transactions in the detailed window")
        weeks = max(1, window.detailed_days // 7)
        sizes_ecdf = ECDF.from_counts(self.sizes)
        tx_count = len(sizes_ecdf)
        bytes_total = sum(size * count for size, count in self.sizes.items())

        weekly_active = sum(
            len(users) for users in self.weekly_users.values()
        ) / max(1, len(self.weekly_users))
        weekly_tx = tx_count / weeks
        weekly_bytes = bytes_total / weeks

        def hourly_series(weekend: bool):
            n_days = max(1, len(self.day_type_days[weekend]))
            users = [
                len(self.hour_users.get((weekend, hour), ()))
                / n_days
                / max(1.0, weekly_active)
                for hour in range(24)
            ]
            tx = [
                self.hour_tx.get((weekend, hour), 0)
                / n_days
                / max(1.0, weekly_tx)
                for hour in range(24)
            ]
            data = [
                self.hour_bytes.get((weekend, hour), 0)
                / n_days
                / max(1.0, weekly_bytes)
                for hour in range(24)
            ]
            return users, tx, data

        weekday_users, weekday_tx, weekday_bytes = hourly_series(False)
        weekend_users, weekend_tx, weekend_bytes = hourly_series(True)

        # Per-user folds over *sorted* subscribers: the same fold order
        # for any shard count.
        users_sorted = sorted(self.user_days)
        days_per_week = [
            len(self.user_days[u]) / weeks for u in users_sorted
        ]
        hours_per_day = [
            len(self.user_day_hours[u]) / len(self.user_days[u])
            for u in users_sorted
        ]
        tx_per_hour = [
            self.user_tx[u] / max(1, len(self.user_day_hours[u]))
            for u in users_sorted
        ]
        bytes_per_hour = [
            self.user_bytes[u] / max(1, len(self.user_day_hours[u]))
            for u in users_sorted
        ]
        hours_ecdf = ECDF(hours_per_day)

        xs = hours_per_day
        ys = tx_per_hour
        trend = binned_means(xs, ys, bins=8)
        correlation = pearson(xs, ys) if len(xs) >= 2 else 0.0

        first_day = window.detailed_first_day
        shares = []
        for day in sorted(self.daily_users):
            week = (day - first_day) // 7
            weekly = self.weekly_users.get(week)
            if weekly:
                shares.append(len(self.daily_users[day]) / len(weekly))
        daily_share = sum(shares) / len(shares) if shares else 0.0

        return ActivityResult(
            hourly=HourlyProfile(
                weekday_users=weekday_users,
                weekend_users=weekend_users,
                weekday_tx=weekday_tx,
                weekend_tx=weekend_tx,
                weekday_bytes=weekday_bytes,
                weekend_bytes=weekend_bytes,
            ),
            active_days_per_week=ECDF(days_per_week),
            active_hours_per_day=hours_ecdf,
            transaction_sizes=sizes_ecdf,
            hourly_tx_per_user=ECDF(tx_per_hour),
            hourly_bytes_per_user=ECDF(bytes_per_hour),
            tx_rate_vs_hours=trend,
            tx_rate_hours_correlation=correlation,
            mean_active_days_per_week=sum(days_per_week) / len(days_per_week),
            mean_active_hours_per_day=hours_ecdf.mean,
            fraction_users_over_10h=1.0 - hours_ecdf(10.0),
            fraction_users_under_5h=hours_ecdf.fraction_below(5.0),
            fraction_tx_under_10kb=sizes_ecdf.fraction_below(10_000.0),
            median_tx_bytes=sizes_ecdf.median,
            mean_tx_bytes=bytes_total / tx_count,
            daily_active_share_of_weekly=daily_share,
        )
