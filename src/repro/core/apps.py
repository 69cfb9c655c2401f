"""App and category popularity (§5.1, Figs. 5 and 6) plus app headcounts.

All metrics follow the paper's normalisation: per-app (or per-category)
daily averages expressed as a percentage of the daily total across all
apps.  Sessions come from the one-minute-gap sessionisation; a *used day*
is a (user, app, day) with at least one attributed transaction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.app_mapping import Attribution
from repro.core.dataset import StudyDataset, StudyWindow
from repro.core.folds import (
    _PartialState,
    _add_members,
    _detailed,
    _int_add,
    _min_merge,
    _min_sort_keys,
    _set_union,
)
from repro.core.sessions import INTERACTIVE_TX, SessionTable
from repro.logs.columns import (
    add_counts as _add_counts,
    distinct,
    first_seen,
    group_sum,
)
from repro.logs.timeutil import day_indices
from repro.stats.cdf import ECDF

#: A user whose average distinct-interactive-apps-per-active-day is at or
#: below this threshold counts as a one-app-per-day user (paper: 93%).
SINGLE_APP_THRESHOLD = 1.05


@dataclass(frozen=True, slots=True)
class AppDailyStats:
    """One row of Figs. 5(a) and 5(b)."""

    app: str
    category: str
    #: Fig. 5(a): average daily users of the app as % of all daily users.
    daily_users_pct: float
    #: Fig. 5(a): average fraction of window days a user uses the app, %.
    used_days_per_user_pct: float
    #: Fig. 5(b): the app's share of usage sessions per day, %.
    usage_freq_pct: float
    #: Fig. 5(b): the app's share of transactions, %.
    tx_pct: float
    #: Fig. 5(b): the app's share of transferred data, %.
    data_pct: float


@dataclass(frozen=True, slots=True)
class CategoryStats:
    """One bar group of Fig. 6."""

    category: str
    users_pct: float
    usage_freq_pct: float
    tx_pct: float
    data_pct: float


@dataclass(frozen=True, slots=True)
class AppsResult:
    """Figs. 5-6 series plus the Section 4.3 app headcounts."""

    per_app: list[AppDailyStats]
    per_category: list[CategoryStats]
    #: Category names ranked by each Fig. 6 metric, best first.
    category_rank_users: list[str]
    category_rank_freq: list[str]
    category_rank_tx: list[str]
    category_rank_data: list[str]
    #: Distinct apps observed per user over the window (paper: mean 8,
    #: 90% under 20, a few heavy users above 100).
    apps_per_user: ECDF
    mean_apps_per_user: float
    fraction_users_under_20_apps: float
    #: Fraction of users running a single app per active day (paper: 93%).
    fraction_single_app_users: float


@dataclass
class AppsPartial(_PartialState):
    """§5.1 app popularity from shard-local attribution + sessions."""

    app_day_users: dict[str, set[tuple[str, int]]] = field(
        default_factory=dict
    )
    any_day_users: dict[int, set[str]] = field(default_factory=dict)
    app_users: dict[str, set[str]] = field(default_factory=dict)
    app_tx: dict[str, int] = field(default_factory=dict)
    app_bytes: dict[str, int] = field(default_factory=dict)
    user_apps: dict[str, set[str]] = field(default_factory=dict)
    #: Canonical sort key of the app's first in-window attributed record —
    #: replicates the batch accumulator's dict insertion order so tied
    #: sorts produce the *identical* row order.
    app_first: dict[str, tuple] = field(default_factory=dict)
    app_sessions: dict[str, int] = field(default_factory=dict)
    user_day_interactive: dict[tuple[str, int], set[str]] = field(
        default_factory=dict
    )

    def consume(
        self,
        dataset: StudyDataset,
        attribution: Attribution,
        sessions: SessionTable,
    ) -> None:
        window = dataset.window
        table = attribution.table
        timestamp = table.column("timestamp")
        rows = np.flatnonzero(_detailed(window, timestamp) & (attribution.app >= 0))
        subscribers = table.column("subscriber_id")
        subscriber = subscribers.codes[rows]
        app = attribution.app[rows]
        day = day_indices(timestamp[rows], window.study_start)
        size = table.column("bytes_up")[rows] + table.column("bytes_down")[rows]

        keys, group = first_seen(app)
        apps = attribution.apps[keys].tolist()
        groups, users, days = distinct(group, subscriber, day)
        _add_members(
            self.app_day_users,
            apps,
            groups,
            list(zip(subscribers.values[users].tolist(), days.tolist())),
        )
        groups, users = distinct(group, subscriber)
        _add_members(self.app_users, apps, groups, subscribers.values[users].tolist())
        _add_counts(self.app_tx, apps, np.bincount(group, minlength=len(apps)))
        _add_counts(self.app_bytes, apps, group_sum(group, size, len(apps)))
        _min_sort_keys(self.app_first, apps, group, table, rows)

        days, group = first_seen(day)
        groups, users = distinct(group, subscriber)
        _add_members(
            self.any_day_users,
            days.tolist(),
            groups,
            subscribers.values[users].tolist(),
        )
        keys, group = first_seen(subscriber)
        groups, codes = distinct(group, app)
        _add_members(
            self.user_apps,
            subscribers.values[keys].tolist(),
            groups,
            attribution.apps[codes].tolist(),
        )

        rows = np.flatnonzero(_detailed(window, sessions.start))
        keys, group = first_seen(sessions.app.codes[rows])
        _add_counts(
            self.app_sessions,
            sessions.app.values[keys].tolist(),
            np.bincount(group, minlength=len(keys)),
        )
        rows = rows[sessions.tx_count[rows] >= INTERACTIVE_TX]
        subscriber = sessions.subscriber.codes[rows].astype(np.int64)
        day = day_indices(sessions.start[rows], window.study_start)
        keys, group = first_seen(subscriber * (window.total_days + 1) + day)
        pairs = list(
            zip(
                sessions.subscriber.values[keys // (window.total_days + 1)].tolist(),
                (keys % (window.total_days + 1)).tolist(),
            )
        )
        groups, codes = distinct(group, sessions.app.codes[rows])
        _add_members(
            self.user_day_interactive,
            pairs,
            groups,
            sessions.app.values[codes].tolist(),
        )

    def merge(self, other: "AppsPartial") -> None:
        _set_union(self.app_day_users, other.app_day_users)
        _set_union(self.any_day_users, other.any_day_users)
        _set_union(self.app_users, other.app_users)
        _int_add(self.app_tx, other.app_tx)
        _int_add(self.app_bytes, other.app_bytes)
        _set_union(self.user_apps, other.user_apps)
        _min_merge(self.app_first, other.app_first)
        _int_add(self.app_sessions, other.app_sessions)
        _set_union(self.user_day_interactive, other.user_day_interactive)

    def finalize(self, window: StudyWindow, app_categories) -> AppsResult:
        if not self.app_tx:
            raise ValueError("no attributed wearable transactions in window")
        n_days = window.detailed_days
        mean_daily_total_users = sum(
            len(users) for users in self.any_day_users.values()
        ) / n_days
        total_sessions = sum(self.app_sessions.values())
        total_tx = sum(self.app_tx.values())
        total_bytes = sum(self.app_bytes.values())

        per_app: list[AppDailyStats] = []
        for app in sorted(self.app_tx, key=self.app_first.__getitem__):
            used_days = len(self.app_day_users[app])
            users = len(self.app_users[app])
            per_app.append(
                AppDailyStats(
                    app=app,
                    category=app_categories.get(app, "Tools"),
                    daily_users_pct=(
                        100.0
                        * (used_days / n_days)
                        / mean_daily_total_users
                        if mean_daily_total_users > 0
                        else 0.0
                    ),
                    used_days_per_user_pct=100.0
                    * used_days
                    / max(1, users)
                    / n_days,
                    usage_freq_pct=100.0
                    * self.app_sessions.get(app, 0)
                    / max(1, total_sessions),
                    tx_pct=100.0 * self.app_tx[app] / total_tx,
                    data_pct=100.0
                    * self.app_bytes[app]
                    / max(1, total_bytes),
                )
            )
        per_app.sort(key=lambda row: row.daily_users_pct, reverse=True)

        category_rows: dict[str, list[float]] = {}
        for row in per_app:
            sums = category_rows.setdefault(
                row.category, [0.0, 0.0, 0.0, 0.0]
            )
            sums[0] += row.daily_users_pct
            sums[1] += row.usage_freq_pct
            sums[2] += row.tx_pct
            sums[3] += row.data_pct
        per_category = [
            CategoryStats(
                category=category,
                users_pct=sums[0],
                usage_freq_pct=sums[1],
                tx_pct=sums[2],
                data_pct=sums[3],
            )
            for category, sums in category_rows.items()
        ]
        per_category.sort(key=lambda row: row.users_pct, reverse=True)

        def rank(metric) -> list[str]:
            return [
                row.category
                for row in sorted(per_category, key=metric, reverse=True)
            ]

        apps_counts = [
            float(len(self.user_apps[u])) for u in sorted(self.user_apps)
        ]
        apps_ecdf = ECDF(apps_counts)

        per_user_days: dict[str, list[int]] = {}
        for (subscriber, _day), apps in self.user_day_interactive.items():
            per_user_days.setdefault(subscriber, []).append(len(apps))
        single_app_users = [
            subscriber
            for subscriber, counts in per_user_days.items()
            if sum(counts) / len(counts) <= SINGLE_APP_THRESHOLD
        ]
        single_fraction = (
            len(single_app_users) / len(per_user_days)
            if per_user_days
            else 0.0
        )
        return AppsResult(
            per_app=per_app,
            per_category=per_category,
            category_rank_users=rank(lambda row: row.users_pct),
            category_rank_freq=rank(lambda row: row.usage_freq_pct),
            category_rank_tx=rank(lambda row: row.tx_pct),
            category_rank_data=rank(lambda row: row.data_pct),
            apps_per_user=apps_ecdf,
            mean_apps_per_user=apps_ecdf.mean,
            fraction_users_under_20_apps=apps_ecdf.fraction_below(20.0),
            fraction_single_app_users=single_fraction,
        )
