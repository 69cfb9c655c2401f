"""Per-usage microscopics and third-party domain analysis (§5.2, Figs. 7-8).

Fig. 7 reports, per app, the transactions and data moved during *one
usage* (a one-minute-gap session).  Fig. 8 splits all wearable traffic by
domain category — Application (first party), Utilities (CDNs),
Advertising, Analytics — and shows that third-party volumes sit in the
same order of magnitude as first-party volumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.app_mapping import CATEGORY_UNKNOWN, Attribution
from repro.core.dataset import StudyDataset
from repro.core.folds import (
    _PartialState,
    _add_members,
    _detailed,
    _int_add,
    _keep_smallest,
    _min_merge,
    _min_sort_keys,
    _set_union,
)
from repro.core.sessions import SessionTable
from repro.logs.columns import (
    add_counts as _add_counts,
    distinct,
    first_seen,
    group_sum,
)
from repro.simnet.appcatalog import (
    DOMAIN_ADVERTISING,
    DOMAIN_ANALYTICS,
    DOMAIN_APPLICATION,
    DOMAIN_CATEGORIES,
)


@dataclass(frozen=True, slots=True)
class SingleUsageStats:
    """One bar pair of Fig. 7."""

    app: str
    mean_tx_per_usage: float
    mean_kb_per_usage: float
    usage_count: int


@dataclass(frozen=True, slots=True)
class DomainCategoryStats:
    """One bar group of Fig. 8."""

    category: str
    users_pct: float
    usage_freq_pct: float
    data_pct: float


@dataclass(frozen=True, slots=True)
class DomainsResult:
    """Figs. 7-8 series."""

    #: Fig. 7: per-app single-usage statistics, largest data first.
    per_app_usage: list[SingleUsageStats]
    #: Fig. 8: the four domain categories.
    per_domain_category: list[DomainCategoryStats]
    #: Bytes to advertising+analytics over bytes to first party — the
    #: "same order of magnitude" claim means this sits within [0.1, 10].
    third_party_data_ratio: float


def _pair_first(attribution: Attribution, pairs: set[tuple[str, str]]) -> dict:
    """The smallest canonical sort key of the attributed rows of each
    (subscriber, app) pair, whatever their time."""
    table = attribution.table
    subscribers = table.column("subscriber_id")
    width = len(attribution.apps)
    subscriber_code = {
        name: code for code, name in enumerate(subscribers.values.tolist())
    }
    app_code = {name: code for code, name in enumerate(attribution.apps.tolist())}
    wanted = {
        subscriber_code[subscriber] * width + app_code[app]: (subscriber, app)
        for subscriber, app in pairs
    }
    key = subscribers.codes.astype(np.int64) * width + attribution.app
    rows = np.flatnonzero(
        (attribution.app >= 0) & np.isin(key, np.fromiter(wanted, np.int64))
    )
    keys, group = first_seen(key[rows])
    smallest: dict = {}
    _min_sort_keys(smallest, [wanted[k] for k in keys.tolist()], group, table, rows)
    return smallest


@dataclass
class DomainsPartial(_PartialState):
    """§5.2 single-usage microscopics + domain-category split."""

    usage_tx: dict[str, int] = field(default_factory=dict)
    usage_bytes: dict[str, int] = field(default_factory=dict)
    usage_count: dict[str, int] = field(default_factory=dict)
    #: Replicates the batch session-traversal insertion order: min over
    #: the app's in-window sessions of (session start, first record key
    #: of its (subscriber, app) group).
    usage_first: dict[str, tuple] = field(default_factory=dict)
    dom_users: dict[str, set[str]] = field(default_factory=dict)
    dom_tx: dict[str, int] = field(default_factory=dict)
    dom_data: dict[str, int] = field(default_factory=dict)

    def consume(
        self,
        dataset: StudyDataset,
        attribution: Attribution,
        sessions: SessionTable,
    ) -> None:
        window = dataset.window
        rows = np.flatnonzero(_detailed(window, sessions.start))
        start = sessions.start[rows]
        keys, group = first_seen(sessions.app.codes[rows])
        apps = sessions.app.values[keys].tolist()
        _add_counts(
            self.usage_tx, apps, group_sum(group, sessions.tx_count[rows], len(apps))
        )
        _add_counts(
            self.usage_bytes,
            apps,
            group_sum(group, sessions.bytes_total[rows], len(apps)),
        )
        _add_counts(self.usage_count, apps, np.bincount(group, minlength=len(apps)))
        # Each app's first usage: its earliest start, ties broken by the
        # first record key of the usage's (subscriber, app) pair.
        earliest = np.full(len(apps), np.inf)
        np.minimum.at(earliest, group, start)
        tied = np.flatnonzero(start == earliest[group])
        first = rows[tied]
        pairs = list(
            zip(
                sessions.subscriber.values[sessions.subscriber.codes[first]].tolist(),
                sessions.app.values[sessions.app.codes[first]].tolist(),
            )
        )
        pair_first = _pair_first(attribution, set(pairs))
        _keep_smallest(
            self.usage_first,
            apps,
            group[tied],
            [(at, pair_first[pair]) for at, pair in zip(start[tied].tolist(), pairs)],
        )

        table = attribution.table
        category = attribution.category
        known = category.values != CATEGORY_UNKNOWN
        rows = np.flatnonzero(
            _detailed(window, table.column("timestamp")) & known[category.codes]
        )
        keys, group = first_seen(category.codes[rows])
        categories = category.values[keys].tolist()
        subscribers = table.column("subscriber_id")
        groups, users = distinct(group, subscribers.codes[rows])
        _add_members(
            self.dom_users, categories, groups, subscribers.values[users].tolist()
        )
        _add_counts(
            self.dom_tx, categories, np.bincount(group, minlength=len(categories))
        )
        size = table.column("bytes_up")[rows] + table.column("bytes_down")[rows]
        _add_counts(self.dom_data, categories, group_sum(group, size, len(categories)))

    def merge(self, other: "DomainsPartial") -> None:
        _int_add(self.usage_tx, other.usage_tx)
        _int_add(self.usage_bytes, other.usage_bytes)
        _int_add(self.usage_count, other.usage_count)
        _min_merge(self.usage_first, other.usage_first)
        _set_union(self.dom_users, other.dom_users)
        _int_add(self.dom_tx, other.dom_tx)
        _int_add(self.dom_data, other.dom_data)

    def finalize(self, min_usages: int = 5) -> DomainsResult:
        """Fig. 7 keeps apps with at least ``min_usages`` sessions — a
        handful of heavy sessions would otherwise rank a barely-used tail
        app above the figure's named apps."""
        rows = [
            SingleUsageStats(
                app=app,
                mean_tx_per_usage=self.usage_tx[app] / self.usage_count[app],
                mean_kb_per_usage=self.usage_bytes[app]
                / self.usage_count[app]
                / 1000.0,
                usage_count=self.usage_count[app],
            )
            for app in sorted(
                self.usage_count, key=self.usage_first.__getitem__
            )
            if self.usage_count[app] >= min_usages
        ]
        rows.sort(key=lambda row: row.mean_kb_per_usage, reverse=True)

        total_users = (
            len(set().union(*self.dom_users.values()))
            if self.dom_users
            else 0
        )
        total_tx = sum(self.dom_tx.values())
        total_data = sum(self.dom_data.values())
        per_category = [
            DomainCategoryStats(
                category=category,
                users_pct=100.0
                * len(self.dom_users[category])
                / max(1, total_users),
                usage_freq_pct=100.0
                * self.dom_tx[category]
                / max(1, total_tx),
                data_pct=100.0 * self.dom_data[category] / max(1, total_data),
            )
            for category in DOMAIN_CATEGORIES
            if category in self.dom_tx
        ]
        third_party = self.dom_data.get(
            DOMAIN_ADVERTISING, 0
        ) + self.dom_data.get(DOMAIN_ANALYTICS, 0)
        first_party = self.dom_data.get(DOMAIN_APPLICATION, 0)
        ratio = third_party / first_party if first_party else 0.0
        return DomainsResult(
            per_app_usage=rows,
            per_domain_category=per_category,
            third_party_data_ratio=ratio,
        )
