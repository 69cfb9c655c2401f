"""Adoption trends over the five-month window (§4.1, Fig. 2).

Inputs are the five months of MME presence plus the proxy log; outputs are
the Fig. 2(a) normalized daily-user series, the growth rates, the
Fig. 2(b) first-vs-last-week retention split and the data-active fraction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.dataset import StudyDataset, StudyWindow
from repro.core.folds import _PartialState, _min_merge
from repro.logs.columns import distinct, first_seen, runs

#: A user whose last MME registration is at least this many days before
#: the window end is counted as having abandoned the wearable.
ABANDON_QUIET_DAYS = 28


@dataclass(frozen=True, slots=True)
class AdoptionResult:
    """Everything Section 4.1 reports."""

    #: Distinct wearable subscribers registered with the MME, per study day.
    daily_counts: list[int]
    #: The same series divided by the final-day count — the exact
    #: normalisation of Fig. 2(a) ("divided by the latest number of users").
    normalized_daily: list[float]
    #: Net growth per 30 days (paper: ~1.5%).
    monthly_growth_percent: float
    #: Net growth over the whole window (paper: ~9%).
    total_growth_percent: float
    #: Users registered at least once during the first week.
    first_week_users: int
    #: Fraction of first-week users not seen for the final
    #: :data:`ABANDON_QUIET_DAYS` days (paper: 7% "were not present").
    abandoned_fraction: float
    #: Fraction of first-week users registered again during the last week
    #: (paper: 77% "were still active").
    still_active_fraction: float
    #: Fraction of registered wearable users that ever generated a proxy
    #: transaction (paper: 34%).
    data_active_fraction: float


@dataclass
class AdoptionPartial(_PartialState):
    """§4.1 adoption: per-day user sets + first/last registration days."""

    total_days: int
    daily: list[set[str]] = field(default_factory=list)
    first_seen: dict[str, int] = field(default_factory=dict)
    last_seen: dict[str, int] = field(default_factory=dict)
    data_users: set[str] = field(default_factory=set)

    def __post_init__(self) -> None:
        if not self.daily:
            self.daily = [set() for _ in range(self.total_days)]

    def consume(self, dataset: StudyDataset) -> None:
        day = dataset.mme_days
        rows = (
            dataset.wearable_mme_mask
            & (day >= 0)
            & (day < dataset.window.total_days)
        )
        subscribers = dataset.mme.column("subscriber_id")
        codes = subscribers.codes[rows]
        days = day[rows]
        keys, group = first_seen(codes)
        low = np.full(len(keys), np.iinfo(np.int64).max)
        np.minimum.at(low, group, days)
        high = np.full(len(keys), -1, dtype=np.int64)
        np.maximum.at(high, group, days)
        for subscriber, first, last in zip(
            subscribers.values[keys].tolist(), low.tolist(), high.tolist()
        ):
            mine = self.first_seen.get(subscriber)
            if mine is None or first < mine:
                self.first_seen[subscriber] = first
            mine = self.last_seen.get(subscriber)
            if mine is None or last > mine:
                self.last_seen[subscriber] = last
        pair_days, pair_codes = distinct(days, codes)
        names = subscribers.values[pair_codes].tolist()
        for day_index, start, end in runs(pair_days):
            self.daily[day_index].update(names[start:end])
        self.data_users.update(
            dataset.proxy.distinct("subscriber_id", dataset.wearable_proxy_mask)
        )

    def merge(self, other: "AdoptionPartial") -> None:
        for day, users in enumerate(other.daily):
            self.daily[day] |= users
        _min_merge(self.first_seen, other.first_seen)
        for key, value in other.last_seen.items():
            mine = self.last_seen.get(key)
            if mine is None or value > mine:
                self.last_seen[key] = value
        self.data_users |= other.data_users

    def finalize(self, window: StudyWindow) -> AdoptionResult:
        daily_counts = [len(users) for users in self.daily]
        final = daily_counts[-1] if daily_counts and daily_counts[-1] else 1
        normalized = [count / final for count in daily_counts]
        start_level = sum(daily_counts[:7]) / 7.0
        end_level = sum(daily_counts[-7:]) / 7.0
        if start_level > 0:
            total_growth = end_level / start_level - 1.0
            months = window.total_days / 30.0
            monthly_growth = (1.0 + total_growth) ** (1.0 / months) - 1.0
        else:
            total_growth = 0.0
            monthly_growth = 0.0
        first_week = {s for s, day in self.first_seen.items() if day < 7}
        last_week_start = window.total_days - 7
        still = sum(
            1 for s in first_week if self.last_seen[s] >= last_week_start
        )
        abandoned = sum(
            1
            for s in first_week
            if self.last_seen[s] < window.total_days - ABANDON_QUIET_DAYS
        )
        registered = set(self.first_seen)
        data_users = self.data_users & registered
        denominator = len(first_week) if first_week else 1
        return AdoptionResult(
            daily_counts=daily_counts,
            normalized_daily=normalized,
            monthly_growth_percent=100.0 * monthly_growth,
            total_growth_percent=100.0 * total_growth,
            first_week_users=len(first_week),
            abandoned_fraction=abandoned / denominator,
            still_active_fraction=still / denominator,
            data_active_fraction=(
                len(data_users) / len(registered) if registered else 0.0
            ),
        )
