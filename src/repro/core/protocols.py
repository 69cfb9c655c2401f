"""Protocol visibility: what the transparent proxy actually sees (§3.3).

The proxy logs "the SNI for HTTPS traffic and the full URL for HTTP" — so
every plaintext transaction exposes its URL path to the operator, while
TLS transactions expose only the server name.  This extension analysis
(motivated by the authors' companion work, *Are Wearables Ready for
HTTPS?*) quantifies that exposure for the wearable population:

* the overall HTTPS share of wearable transactions;
* per app and per Play-store category: the fraction of each app's traffic
  still in cleartext;
* the cleartext exposure of *sensitive* categories (Finance,
  Health-Fitness, Communication) where plain HTTP is an actual finding.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.app_mapping import Attribution
from repro.core.dataset import StudyDataset
from repro.core.folds import (
    _PartialState,
    _detailed,
    _int_add,
    _min_merge,
    _min_sort_keys,
)
from repro.logs.columns import add_counts as _add_counts, first_seen, object_array
from repro.logs.records import PROTOCOL_HTTP

#: Categories where cleartext traffic is security-relevant.
SENSITIVE_CATEGORIES = frozenset({"Finance", "Health-Fitness", "Communication"})


@dataclass(frozen=True, slots=True)
class AppProtocolStats:
    """Protocol split for one app."""

    app: str
    category: str
    transactions: int
    http_fraction: float
    #: Fraction of this app's transactions exposing a URL path.
    url_visible_fraction: float


@dataclass(frozen=True, slots=True)
class ProtocolResult:
    """The protocol-visibility analysis."""

    transactions: int
    https_fraction: float
    http_fraction: float
    #: Per-app splits, most cleartext first.
    per_app: list[AppProtocolStats]
    #: Category → HTTP fraction.
    per_category_http: dict[str, float]
    #: Apps in sensitive categories with any cleartext traffic.
    sensitive_cleartext_apps: list[str]
    #: HTTP fraction over sensitive-category traffic only.
    sensitive_http_fraction: float


@dataclass
class ProtocolsPartial(_PartialState):
    """§3.3 protocol visibility from shard-local attribution."""

    total: int = 0
    http_total: int = 0
    app_tx: dict[str, int] = field(default_factory=dict)
    app_http: dict[str, int] = field(default_factory=dict)
    app_url: dict[str, int] = field(default_factory=dict)
    app_first: dict[str, tuple] = field(default_factory=dict)
    category_tx: dict[str, int] = field(default_factory=dict)
    category_http: dict[str, int] = field(default_factory=dict)

    def consume(
        self, dataset: StudyDataset, attribution: Attribution, app_categories
    ) -> None:
        table = attribution.table
        rows = np.flatnonzero(_detailed(dataset.window, table.column("timestamp")))
        protocols = table.column("protocol")
        is_http = (protocols.values == PROTOCOL_HTTP)[protocols.codes[rows]]
        self.total += len(rows)
        self.http_total += int(is_http.sum())
        attributed = attribution.app[rows] >= 0
        rows = rows[attributed]
        is_http = is_http[attributed]
        app = attribution.app[rows]
        keys, group = first_seen(app)
        apps = attribution.apps[keys].tolist()
        _add_counts(self.app_tx, apps, np.bincount(group, minlength=len(apps)))
        _min_sort_keys(self.app_first, apps, group, table, rows)
        names: dict[str, int] = {}
        app_category = np.array(
            [
                names.setdefault(app_categories.get(name, "Tools"), len(names))
                for name in attribution.apps.tolist()
            ],
            dtype=np.int64,
        )
        categories = object_array(list(names))
        paths = table.column("path")
        has_path = (paths.values != "")[paths.codes[rows]]
        for target, selected, labels, codes in (
            (self.category_tx, slice(None), categories, app_category[app]),
            (self.app_http, is_http, attribution.apps, app),
            (self.category_http, is_http, categories, app_category[app]),
            (self.app_url, is_http & has_path, attribution.apps, app),
        ):
            keys, group = first_seen(codes[selected])
            _add_counts(
                target,
                labels[keys].tolist(),
                np.bincount(group, minlength=len(keys)),
            )

    def merge(self, other: "ProtocolsPartial") -> None:
        self.total += other.total
        self.http_total += other.http_total
        _int_add(self.app_tx, other.app_tx)
        _int_add(self.app_http, other.app_http)
        _int_add(self.app_url, other.app_url)
        _min_merge(self.app_first, other.app_first)
        _int_add(self.category_tx, other.category_tx)
        _int_add(self.category_http, other.category_http)

    def finalize(self, app_categories) -> ProtocolResult:
        if self.total == 0:
            raise ValueError("no wearable transactions in the detailed window")
        per_app = [
            AppProtocolStats(
                app=app,
                category=app_categories.get(app, "Tools"),
                transactions=self.app_tx[app],
                http_fraction=self.app_http.get(app, 0) / self.app_tx[app],
                url_visible_fraction=self.app_url.get(app, 0)
                / self.app_tx[app],
            )
            for app in sorted(self.app_tx, key=self.app_first.__getitem__)
        ]
        per_app.sort(key=lambda row: row.http_fraction, reverse=True)
        per_category = {
            category: self.category_http.get(category, 0)
            / self.category_tx[category]
            for category in self.category_tx
        }
        sensitive_apps = sorted(
            row.app
            for row in per_app
            if row.category in SENSITIVE_CATEGORIES and row.http_fraction > 0
        )
        sensitive_tx = sum(
            self.category_tx[c]
            for c in SENSITIVE_CATEGORIES
            if c in self.category_tx
        )
        sensitive_http = sum(
            self.category_http[c]
            for c in SENSITIVE_CATEGORIES
            if c in self.category_http
        )
        return ProtocolResult(
            transactions=self.total,
            https_fraction=1.0 - self.http_total / self.total,
            http_fraction=self.http_total / self.total,
            per_app=per_app,
            per_category_http=per_category,
            sensitive_cleartext_apps=sensitive_apps,
            sensitive_http_fraction=(
                sensitive_http / sensitive_tx if sensitive_tx else 0.0
            ),
        )
