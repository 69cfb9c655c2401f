"""SNI/URL → app mapping with timeframe attribution (§3.3).

The paper maps connections to apps using experimentally collected host
signatures ("experimental data on app Internet communication ... and the
information reported by Androlizer") and resolves shared hosts by grouping
"a set of connections in the same timeframe with a given app".

Two pieces reproduce that:

* :class:`SignatureCatalog` — host → (app, domain category).  Hosts owned
  by exactly one app resolve directly; hosts shared across apps (CDNs, ad
  networks, analytics backends) resolve to a domain category only.
* :func:`attribute_table` — the timeframe rule over a column table: a
  shared-host transaction inherits the app of the nearest
  directly-attributed transaction of the same subscriber within an
  attribution window.  Each host dictionary entry is classified once,
  and the nearest direct row is one per-subscriber ``searchsorted``
  (:func:`~repro.logs.columns.group_searchsorted`) over the direct rows
  in stable timestamp order — the ``bisect_left`` of the scalar rule,
  with the earlier candidate winning an equal gap.  The result,
  :class:`Attribution`, is columns: each row's app code and domain
  category beside the proxy table it attributes.

The domain categories follow Seneviratne et al. as the paper does:
Application (first party), Utilities (CDNs), Advertising, Analytics.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from repro.logs.columns import (
    ColumnTable,
    Dictionary,
    encode_strings,
    group_searchsorted,
    object_array,
)
from repro.simnet.appcatalog import AppCatalog

CATEGORY_UNKNOWN = "unknown"

#: Default attribution window: transactions of one app usage sit well
#: inside a minute of each other (the paper's session gap, Section 5.1).
DEFAULT_ATTRIBUTION_WINDOW_S = 60.0


@dataclass(frozen=True, slots=True)
class AppMatch:
    """Classification of one host: owning app (if unique) and category."""

    app: str | None
    domain_category: str


class SignatureCatalog:
    """Host signatures assembled from per-app domain ground truth."""

    def __init__(
        self,
        exclusive: dict[str, AppMatch],
        shared: dict[str, str],
    ) -> None:
        self._exclusive = exclusive
        self._shared = shared

    @classmethod
    def from_app_catalog(cls, catalog: AppCatalog) -> "SignatureCatalog":
        """Build signatures from an app catalog's domain profiles.

        A host used by exactly one app maps to that app; a host used by
        several maps to its (consistent) domain category only.
        """
        owners: dict[str, set[str]] = defaultdict(set)
        categories: dict[str, str] = {}
        for app in catalog:
            for share in app.domains:
                owners[share.host].add(app.name)
                previous = categories.get(share.host)
                if previous is not None and previous != share.category:
                    raise ValueError(
                        f"host {share.host!r} has conflicting categories "
                        f"{previous!r} and {share.category!r}"
                    )
                categories[share.host] = share.category
        exclusive: dict[str, AppMatch] = {}
        shared: dict[str, str] = {}
        for host, apps in owners.items():
            if len(apps) == 1:
                exclusive[host] = AppMatch(next(iter(apps)), categories[host])
            else:
                shared[host] = categories[host]
        return cls(exclusive, shared)

    def classify_host(self, host: str) -> AppMatch:
        """Resolve one host.

        Falls back to suffix matching (``foo.api.example.com`` matches a
        signature for ``api.example.com``) before declaring a host unknown.
        """
        match = self._exclusive.get(host)
        if match is not None:
            return match
        category = self._shared.get(host)
        if category is not None:
            return AppMatch(None, category)
        # Suffix walk: strip leading labels one at a time.
        probe = host
        while "." in probe:
            probe = probe.split(".", 1)[1]
            match = self._exclusive.get(probe)
            if match is not None:
                return match
            category = self._shared.get(probe)
            if category is not None:
                return AppMatch(None, category)
        return AppMatch(None, CATEGORY_UNKNOWN)

    @property
    def known_hosts(self) -> frozenset[str]:
        """Every host with a registered signature."""
        return frozenset(self._exclusive) | frozenset(self._shared)


@dataclass(frozen=True)
class Attribution:
    """The §3.3 attribution of every row of a proxy table, as columns."""

    #: The attributed rows.
    table: ColumnTable
    #: Each row's app, a code into :attr:`apps`; -1 when unresolved.
    app: np.ndarray
    #: App names.
    apps: np.ndarray
    #: Each row's domain category.
    category: Dictionary

    def __len__(self) -> int:
        return len(self.app)


def attribute_table(
    table: ColumnTable,
    signatures: SignatureCatalog,
    window_seconds: float = DEFAULT_ATTRIBUTION_WINDOW_S,
) -> Attribution:
    """Attribute every row of a proxy table to an app where possible.

    Directly-signed hosts resolve immediately.  Shared hosts (third
    parties) inherit the app of the *nearest in time* directly-attributed
    transaction of the same subscriber within ``window_seconds`` — the
    paper's "set of connections in the same timeframe" rule.  The
    candidates are the subscriber's direct rows on either side of the
    ``bisect_left`` position of the shared row's timestamp among its
    direct rows in stable timestamp order; the earlier wins an equal
    gap, and a gap of at most ``window_seconds`` attributes.  Rows that
    stay unresolved keep app -1 with their domain category.
    """
    hosts = table.column("host")
    matches = [signatures.classify_host(host) for host in hosts.values.tolist()]
    codes: dict[str, int] = {}
    entry_app = np.fromiter(
        (
            -1 if match.app is None else codes.setdefault(match.app, len(codes))
            for match in matches
        ),
        dtype=np.int32,
        count=len(matches),
    )
    entry_category = encode_strings([match.domain_category for match in matches])
    app = entry_app[hosts.codes]
    category = entry_category.codes[hosts.codes]
    known = entry_category.values != CATEGORY_UNKNOWN
    shared = np.flatnonzero((app < 0) & known[category])
    direct = np.flatnonzero(app >= 0)
    if len(shared) and len(direct):
        subscriber = table.column("subscriber_id").codes
        timestamp = table.column("timestamp")
        direct = direct[np.lexsort((timestamp[direct], subscriber[direct]))]
        owner = subscriber[direct]
        times = timestamp[direct]
        wanted = subscriber[shared]
        at = timestamp[shared]
        after = group_searchsorted(owner, times, wanted, at, side="left")
        before = after - 1
        gaps = []
        for candidate in (before, after):
            clipped = np.clip(candidate, 0, len(direct) - 1)
            valid = (candidate == clipped) & (owner[clipped] == wanted)
            gaps.append(np.where(valid, np.abs(times[clipped] - at), np.inf))
        later = gaps[1] < gaps[0]
        best = np.where(later, after, before)
        near = np.where(later, gaps[1], gaps[0]) <= window_seconds
        app[shared[near]] = app[direct[best[near]]]
    return Attribution(
        table,
        app,
        object_array(list(codes)),
        Dictionary(category, entry_category.values),
    )
