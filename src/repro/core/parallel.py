"""Mergeable partials: every figure panel, batch, sharded and served.

Each figure panel exists once, as a ``*Partial`` aggregate with explicit
``consume`` (fold a dataset in), ``merge`` (fold another partial in) and
``finalize`` (produce the report field).  :data:`PANELS` holds the one
consume and finalize call per panel; the execution modes only differ in
how they feed it:

* batch :class:`~repro.core.pipeline.WearableStudy` is the shards=1
  fold: each property builds its panel's partial over the whole dataset
  and finalizes it;
* :func:`analyze_parallel` splits the trace into **account shards** —
  ``crc32(account_id) % shards``, the same partition the simulation
  engine uses — so every per-user and per-account aggregation is
  shard-local.  It decodes and scrubs each log once
  (:meth:`~repro.core.dataset.StudyDataset.load`), routes the MME dwell
  intervals to the shard owning each sector, and then, one shard at a
  time and in shard order, builds one :class:`ShardPartials` from the
  shard's column slices (:meth:`~repro.core.dataset.StudyDataset.shard`)
  and the intervals of the sectors it joins; it merges them in shard
  order and finalizes.  Memory: O(trace) columns, about 44 bytes per
  row, plus one shard's slices at a time;
* :mod:`repro.serve` folds growing deltas into the same partials.

Every partial folds a dataset's column tables
(:attr:`~repro.core.dataset.StudyDataset.proxy`,
:attr:`~repro.core.dataset.StudyDataset.mme`) as group-bys over
dictionary codes and time buckets (:mod:`repro.logs.columns`): integer
sums in int64, keys inserted in the order of their first row, so each
partial's state equals what a row-by-row loop would build.  The six
split-safe ones — census, adoption, activity, comparison, weekly
(:class:`~repro.core.weekly.StreamingWeekly`) and devices — read the
tables directly.  Apps, domains and protocols fold the §3.3 attribution
and §5.1 sessions of :class:`PanelInputs`, themselves column kernels
(:func:`~repro.core.app_mapping.attribute_table`,
:func:`~repro.core.sessions.session_table`); mobility, through-device
and the encounter join read the MME table through the timeline kernels
of :mod:`repro.core.mobility` (dwell intervals, daily displacement,
``sector_at``).  No partial builds a row object.

Merging is exact — integer counts, set unions, min/max, an exact
transaction-size histogram, and float folds taken over *sorted* keys or
with ``math.fsum`` — so every :class:`~repro.core.pipeline.StudyReport`
field is bit-identical for batch, any shard count, and serve (the
table lives in ``docs/architecture.md``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields
from functools import cached_property
from math import fsum, log10
from pathlib import Path
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro import obs

from repro.core.activity import ActivityResult, HourlyProfile
from repro.core.adoption import ABANDON_QUIET_DAYS, AdoptionResult
from repro.core.app_mapping import (
    CATEGORY_UNKNOWN,
    Attribution,
    SignatureCatalog,
    attribute_table,
)
from repro.core.apps import (
    SINGLE_APP_THRESHOLD,
    AppDailyStats,
    AppsResult,
    CategoryStats,
)
from repro.core.comparison import ComparisonResult
from repro.core.dataset import (
    StudyDataset,
    StudyWindow,
    load_artifacts,
)
from repro.core.devices import DeviceResult, ModelStats
from repro.core.encounters import (
    EncountersResult,
    build_cell_index,
    consume_classification,
    join_cells,
    sector_shard,
    summarize_encounters,
)
from repro.core.domains import (
    DomainCategoryStats,
    DomainsResult,
    SingleUsageStats,
)
from repro.core.identification import DeviceCensus
from repro.core.mobility import (
    DwellIntervals,
    MobilityResult,
    daily_displacement,
    dwell_entropy,
    dwell_intervals,
    sector_at,
    timeline_rows,
)
from repro.core.protocols import (
    SENSITIVE_CATEGORIES,
    AppProtocolStats,
    ProtocolResult,
)
from repro.core.sessions import (
    INTERACTIVE_TX,
    SessionTable,
    session_table,
)
from repro.core.throughdevice import (
    ASSUMED_COVERAGE,
    TD_FINGERPRINT_HOSTS,
    ThroughDeviceResult,
)
from repro.core.weekly import StreamingWeekly
from repro.devicedb.database import DeviceDatabase
from repro.logs.columns import (
    ColumnTable,
    add_counts as _add_counts,
    distinct,
    first_seen,
    group_ends,
    group_sum,
    object_array,
    runs,
)
from repro.logs.io import read_records
from repro.logs.quarantine import QuarantineCollector, QuarantineReport
from repro.logs.records import PROTOCOL_HTTP, MmeRecord
from repro.logs.timeutil import SECONDS_PER_DAY, day_indices
from repro.simnet.appcatalog import (
    DOMAIN_ADVERTISING,
    DOMAIN_ANALYTICS,
    DOMAIN_APPLICATION,
    DOMAIN_CATEGORIES,
    AppCatalog,
    builtin_app_catalog,
)
from repro.state import decode_value, encode_value
from repro.stats.cdf import ECDF
from repro.stats.correlation import binned_means, pearson

if TYPE_CHECKING:
    from repro.core.pipeline import StudyReport


def _set_union(target: dict, other: dict) -> None:
    for key, values in other.items():
        existing = target.get(key)
        if existing is None:
            target[key] = set(values)
        else:
            existing |= values


def _int_add(target: dict, other: dict) -> None:
    for key, value in other.items():
        target[key] = target.get(key, 0) + value


def _min_merge(target: dict, other: dict) -> None:
    for key, value in other.items():
        mine = target.get(key)
        if mine is None or value < mine:
            target[key] = value


def _disjoint_update(target: dict, other: dict) -> None:
    target.update(other)


def _add_members(target: dict, keys: list, groups: np.ndarray, members: list) -> None:
    """``target[keys[g]] |= members``: ``groups`` is sorted and gives the
    key index of each member; new keys inserted in ``keys`` order."""
    for key in keys:
        target.setdefault(key, set())
    for group, start, end in runs(groups):
        target[keys[group]].update(members[start:end])


def _keep_smallest(target: dict, labels: list, groups: np.ndarray, keys: list) -> None:
    """``target[labels[g]] = min(target[labels[g]], keys of group g)``,
    new labels inserted in ``labels`` order (every group has a key)."""
    smallest: dict[int, tuple] = {}
    for index, key in zip(groups.tolist(), keys):
        mine = smallest.get(index)
        if mine is None or key < mine:
            smallest[index] = key
    for index, label in enumerate(labels):
        key = smallest[index]
        mine = target.get(label)
        if mine is None or key < mine:
            target[label] = key


def _min_sort_keys(
    target: dict, labels: list, groups: np.ndarray, table: ColumnTable, rows: np.ndarray
) -> None:
    """``target[labels[g]]``: the smallest canonical sort key of group
    ``g``'s ``rows``, kept when smaller than the present one.  The
    smallest key is among the rows at the group's earliest timestamp, so
    only those rows' keys are built."""
    timestamps = table.column("timestamp")[rows]
    earliest = np.full(len(labels), np.inf)
    np.minimum.at(earliest, groups, timestamps)
    tied = np.flatnonzero(timestamps == earliest[groups])
    _keep_smallest(target, labels, groups[tied], table.sort_keys(rows[tied]))


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


def _detailed(window: StudyWindow, timestamps: np.ndarray) -> np.ndarray:
    """Which ``timestamps`` :meth:`StudyWindow.in_detailed` admits."""
    return (timestamps >= window.detailed_start) & (timestamps < window.study_end)


def _general(dataset: StudyDataset, table: ColumnTable) -> np.ndarray:
    """Rows of subscribers outside every wearable-owner account."""
    owners = dataset.wearable_accounts
    directory = dataset.account_directory
    return table.entry_mask(
        "subscriber_id", lambda subscriber: directory.get(subscriber) not in owners
    )


def _entry_codes(names: np.ndarray, dictionary) -> np.ndarray:
    """The code of each of ``names`` in ``dictionary``; -1 where absent."""
    codes = {name: code for code, name in enumerate(dictionary.values.tolist())}
    return np.fromiter(
        (codes.get(name, -1) for name in names.tolist()),
        dtype=np.int64,
        count=len(names),
    )


def _daily_displacement(
    dataset: StudyDataset, rows: np.ndarray
) -> tuple[list[str], np.ndarray, list[float], list[float]]:
    """Per subscriber of MME ``rows``, in first-row order: names,
    dictionary codes, every subscriber-day's max displacement (days in
    order) and the mean over days, summed in day order."""
    subscribers = dataset.mme.column("subscriber_id")
    codes, _ = first_seen(subscribers.codes[rows])
    owner, displacement = daily_displacement(
        dataset.mme, rows, dataset.window.study_start, dataset.sector_map
    )
    entries = len(subscribers.values)
    rank = np.zeros(entries, dtype=np.int64)
    rank[codes] = np.arange(len(codes))
    days = displacement[np.argsort(rank[owner], kind="stable")].tolist()
    means = np.bincount(owner, weights=displacement, minlength=entries)[
        codes
    ] / np.bincount(owner, minlength=entries)[codes]
    return subscribers.values[codes].tolist(), codes, days, means.tolist()


class _PartialState:
    """Explicit ``to_state()``/``from_state()`` for the partials.

    State is the versioned, pickle-free JSON-safe encoding of
    :mod:`repro.state`; the round trip is *behaviour-preserving* —
    ``from_state(p.to_state())`` consumes, merges and finalises exactly
    like ``p`` (dict insertion order survives, so even the
    first-occurrence row ordering the batch comparison relies on is
    intact).  The :mod:`repro.serve` checkpoints are built from these,
    and the service also uses the round trip as its deep copy before a
    (mutating) merge-and-finalize pass.

    Fields holding stateful objects rather than plain containers are
    named in ``_STATE_OBJECTS`` and delegate to that object's own
    ``to_state``/``from_state``.
    """

    STATE_VERSION = 1
    _STATE_OBJECTS: dict = {}

    def to_state(self) -> dict:
        state: dict = {"v": self.STATE_VERSION}
        for spec in fields(self):
            value = getattr(self, spec.name)
            if spec.name in self._STATE_OBJECTS:
                state[spec.name] = value.to_state()
            else:
                state[spec.name] = encode_value(value)
        return state

    @classmethod
    def from_state(cls, state: dict):
        if state.get("v") != cls.STATE_VERSION:
            raise ValueError(
                f"unsupported {cls.__name__} state version: "
                f"{state.get('v')!r}"
            )
        kwargs = {}
        for spec in fields(cls):
            if spec.name in cls._STATE_OBJECTS:
                kwargs[spec.name] = cls._STATE_OBJECTS[spec.name].from_state(
                    state[spec.name]
                )
            else:
                kwargs[spec.name] = decode_value(state[spec.name])
        return cls(**kwargs)


# ===================================================================== census
@dataclass
class CensusPartial(_PartialState):
    """§3.2 device census: the distinct wearable IMEI set."""

    imeis: set[str] = field(default_factory=set)

    def consume(self, dataset: StudyDataset) -> None:
        self.imeis.update(dataset.mme.distinct("imei", dataset.wearable_mme_mask))

    def merge(self, other: "CensusPartial") -> None:
        self.imeis |= other.imeis

    def finalize(self, device_db: DeviceDatabase) -> DeviceCensus:
        per_model: dict[str, int] = {}
        per_manufacturer: dict[str, int] = {}
        per_os: dict[str, int] = {}
        for imei in sorted(self.imeis):
            model = device_db.lookup_imei(imei)
            if model is None:
                continue
            per_model[model.model] = per_model.get(model.model, 0) + 1
            per_manufacturer[model.manufacturer] = (
                per_manufacturer.get(model.manufacturer, 0) + 1
            )
            per_os[model.os] = per_os.get(model.os, 0) + 1
        return DeviceCensus(
            total_devices=len(self.imeis),
            devices_per_model=per_model,
            devices_per_manufacturer=per_manufacturer,
            devices_per_os=per_os,
        )


# =================================================================== adoption
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


# =================================================================== activity
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


# ================================================================= comparison
@dataclass
class ComparisonPartial(_PartialState):
    """§4.3 owners-vs-general: per-account totals (account-disjoint)."""

    account_bytes: dict[str, int] = field(default_factory=dict)
    account_tx: dict[str, int] = field(default_factory=dict)
    account_wearable_bytes: dict[str, int] = field(default_factory=dict)
    owner_accounts: set[str] = field(default_factory=set)

    def consume(self, dataset: StudyDataset) -> None:
        proxy = dataset.proxy
        subscribers = proxy.column("subscriber_id")
        directory = dataset.account_directory
        accounts: dict[str, int] = {}
        entry_account = np.fromiter(
            (
                accounts.setdefault(directory[subscriber], len(accounts))
                if subscriber in directory
                else -1
                for subscriber in subscribers.values
            ),
            dtype=np.int64,
            count=len(subscribers.values),
        )
        account = entry_account[subscribers.codes]
        names = object_array(list(accounts))
        size = proxy.column("bytes_up") + proxy.column("bytes_down")
        rows = dataset.detailed_proxy_mask & (account >= 0)
        keys, group = first_seen(account[rows])
        labels = names[keys].tolist()
        _add_counts(
            self.account_bytes, labels, group_sum(group, size[rows], len(labels))
        )
        _add_counts(
            self.account_tx, labels, np.bincount(group, minlength=len(labels))
        )
        rows &= dataset.wearable_proxy_mask
        keys, group = first_seen(account[rows])
        labels = names[keys].tolist()
        _add_counts(
            self.account_wearable_bytes,
            labels,
            group_sum(group, size[rows], len(labels)),
        )
        self.owner_accounts |= dataset.wearable_accounts

    def merge(self, other: "ComparisonPartial") -> None:
        _int_add(self.account_bytes, other.account_bytes)
        _int_add(self.account_tx, other.account_tx)
        _int_add(self.account_wearable_bytes, other.account_wearable_bytes)
        self.owner_accounts |= other.owner_accounts

    def finalize(self) -> ComparisonResult:
        owner_bytes: list[float] = []
        owner_tx: list[float] = []
        general_bytes: list[float] = []
        general_tx: list[float] = []
        shares: list[float] = []
        for account in sorted(self.account_bytes):
            total = self.account_bytes[account]
            if account in self.owner_accounts:
                owner_bytes.append(float(total))
                owner_tx.append(float(self.account_tx[account]))
                wearable_part = self.account_wearable_bytes.get(account, 0)
                if wearable_part > 0 and total > 0:
                    shares.append(wearable_part / total)
            else:
                general_bytes.append(float(total))
                general_tx.append(float(self.account_tx[account]))
        if not owner_bytes or not general_bytes:
            raise ValueError(
                "need traffic from both owner and general accounts"
            )
        mean_owner_bytes = sum(owner_bytes) / len(owner_bytes)
        mean_general_bytes = sum(general_bytes) / len(general_bytes)
        mean_owner_tx = sum(owner_tx) / len(owner_tx)
        mean_general_tx = sum(general_tx) / len(general_tx)
        max_bytes = max(max(owner_bytes), max(general_bytes))
        share_ecdf = ECDF(shares) if shares else ECDF([0.0])
        orders = (
            sorted(-log10(share) for share in shares)[len(shares) // 2]
            if shares
            else 0.0
        )
        return ComparisonResult(
            n_wearable_accounts=len(owner_bytes),
            n_general_accounts=len(general_bytes),
            mean_bytes_wearable_owner=mean_owner_bytes,
            mean_bytes_general=mean_general_bytes,
            mean_tx_wearable_owner=mean_owner_tx,
            mean_tx_general=mean_general_tx,
            extra_data_percent=100.0
            * (mean_owner_bytes / mean_general_bytes - 1.0),
            extra_tx_percent=100.0 * (mean_owner_tx / mean_general_tx - 1.0),
            bytes_cdf_wearable_owner=ECDF(
                [b / max_bytes for b in owner_bytes]
            ),
            bytes_cdf_general=ECDF([b / max_bytes for b in general_bytes]),
            wearable_share=share_ecdf,
            median_share_orders_of_magnitude=orders,
            fraction_share_at_least_3pct=(
                1.0 - share_ecdf.fraction_below(0.03) if shares else 0.0
            ),
        )


# =================================================================== mobility
@dataclass
class MobilityPartial(_PartialState):
    """§4.4 mobility, reduced per subscriber inside the shard.

    Timelines never leave the shard: each shard keeps per-subscriber
    displacement means, entropies and transaction-join summaries —
    all subscriber-keyed, hence disjoint across shards.
    """

    wearable_days: list[float] = field(default_factory=list)
    general_days: list[float] = field(default_factory=list)
    wearable_user_mean: dict[str, float] = field(default_factory=dict)
    general_user_mean: dict[str, float] = field(default_factory=dict)
    wearable_entropy: dict[str, float] = field(default_factory=dict)
    general_entropy: dict[str, float] = field(default_factory=dict)
    tx_sector_count: dict[str, int] = field(default_factory=dict)
    tx_counts: dict[str, int] = field(default_factory=dict)
    tx_hour_count: dict[str, int] = field(default_factory=dict)

    def consume(self, dataset: StudyDataset) -> None:
        mme = dataset.mme
        window = dataset.window
        detailed = dataset.detailed_mme_mask
        wearable = np.flatnonzero(detailed & dataset.wearable_mme_mask)
        general = np.flatnonzero(
            detailed & ~dataset.wearable_mme_mask & _general(dataset, mme)
        )
        for rows, days_out, mean_out, entropy_out in (
            (
                wearable,
                self.wearable_days,
                self.wearable_user_mean,
                self.wearable_entropy,
            ),
            (general, self.general_days, self.general_user_mean, self.general_entropy),
        ):
            names, codes, days, means = _daily_displacement(dataset, rows)
            days_out.extend(days)
            mean_out.update(zip(names, means))
            entropy = dwell_entropy(dwell_intervals(mme, rows, window.study_start))
            entropy_out.update(zip(names, entropy[codes].tolist()))

        # Each detailed wearable transaction of a subscriber with a
        # timeline, joined onto that timeline.  A subscriber absent from
        # the MME dictionary has code -1, which reads the padding entry.
        proxy = dataset.proxy
        subscribers = proxy.column("subscriber_id")
        timeline_code = _entry_codes(subscribers.values, mme.column("subscriber_id"))
        has_timeline = np.zeros(len(mme.column("subscriber_id").values) + 1, bool)
        has_timeline[mme.column("subscriber_id").codes[wearable]] = True
        rows = np.flatnonzero(
            dataset.wearable_proxy_mask
            & dataset.detailed_proxy_mask
            & has_timeline[timeline_code][subscribers.codes]
        )
        at = proxy.column("timestamp")[rows]
        sector = sector_at(
            mme,
            timeline_rows(mme, wearable),
            timeline_code[subscribers.codes[rows]],
            at,
        )
        keys, group = first_seen(subscribers.codes[rows])
        names = subscribers.values[keys].tolist()
        located = sector >= 0
        sectors = distinct(group[located], sector[located])[0]
        offset = at - window.study_start
        hours = distinct(
            group,
            day_indices(at, window.study_start),
            np.floor_divide(np.remainder(offset, SECONDS_PER_DAY), 3600).astype(
                np.int64
            ),
        )[0]
        _add_counts(self.tx_counts, names, np.bincount(group, minlength=len(names)))
        self.tx_sector_count.update(
            zip(names, np.bincount(sectors, minlength=len(names)).tolist())
        )
        self.tx_hour_count.update(
            zip(names, np.bincount(hours, minlength=len(names)).tolist())
        )

    def merge(self, other: "MobilityPartial") -> None:
        self.wearable_days.extend(other.wearable_days)
        self.general_days.extend(other.general_days)
        _disjoint_update(self.wearable_user_mean, other.wearable_user_mean)
        _disjoint_update(self.general_user_mean, other.general_user_mean)
        _disjoint_update(self.wearable_entropy, other.wearable_entropy)
        _disjoint_update(self.general_entropy, other.general_entropy)
        _disjoint_update(self.tx_sector_count, other.tx_sector_count)
        _int_add(self.tx_counts, other.tx_counts)
        _disjoint_update(self.tx_hour_count, other.tx_hour_count)

    def finalize(self) -> MobilityResult:
        if not self.wearable_entropy or not self.general_entropy:
            raise ValueError(
                "need MME events for both wearable and general users"
            )
        wearable_user_values = [
            self.wearable_user_mean[s] for s in sorted(self.wearable_user_mean)
        ]
        general_user_values = [
            self.general_user_mean[s] for s in sorted(self.general_user_mean)
        ]
        mean_wearable_user = sum(wearable_user_values) / len(
            wearable_user_values
        )
        mean_general_user = sum(general_user_values) / len(
            general_user_values
        )
        wearable_entropy = [
            self.wearable_entropy[s] for s in sorted(self.wearable_entropy)
        ]
        general_entropy = [
            self.general_entropy[s] for s in sorted(self.general_entropy)
        ]
        mean_entropy_wearable = sum(wearable_entropy) / len(wearable_entropy)
        mean_entropy_general = sum(general_entropy) / len(general_entropy)

        data_users = [
            s for s in sorted(self.tx_sector_count) if self.tx_sector_count[s]
        ]
        single = [s for s in data_users if self.tx_sector_count[s] == 1]
        single_fraction = len(single) / len(data_users) if data_users else 0.0

        xs: list[float] = []
        ys: list[float] = []
        for subscriber in data_users:
            displacement = self.wearable_user_mean.get(subscriber)
            if displacement is None:
                continue
            xs.append(displacement)
            ys.append(
                self.tx_counts[subscriber]
                / max(1, self.tx_hour_count.get(subscriber, 0))
            )
        trend = binned_means(xs, ys, bins=8) if xs else []
        correlation = pearson(xs, ys) if len(xs) >= 2 else 0.0

        under_30 = sum(1 for v in wearable_user_values if v < 30.0)
        return MobilityResult(
            wearable_daily_displacement=ECDF(self.wearable_days),
            general_daily_displacement=ECDF(self.general_days),
            wearable_user_displacement=ECDF(wearable_user_values),
            general_user_displacement=ECDF(general_user_values),
            mean_user_displacement_wearable_km=mean_wearable_user,
            mean_user_displacement_general_km=mean_general_user,
            # ``wearable_days`` arrives in shard order: fsum makes the
            # mean independent of it.
            mean_daily_displacement_wearable_km=fsum(self.wearable_days)
            / len(self.wearable_days),
            fraction_users_under_30km=under_30 / len(wearable_user_values),
            mean_entropy_wearable_bits=mean_entropy_wearable,
            mean_entropy_general_bits=mean_entropy_general,
            entropy_excess_percent=100.0
            * (mean_entropy_wearable / mean_entropy_general - 1.0)
            if mean_entropy_general > 0
            else 0.0,
            single_tx_location_fraction=single_fraction,
            displacement_vs_tx_rate=trend,
            displacement_tx_correlation=correlation,
        )


# ======================================================================= apps
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


# ==================================================================== domains
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


# ============================================================= through-device
@dataclass
class ThroughDevicePartial(_PartialState):
    """§6 through-device fingerprinting, per general subscriber."""

    detected_kind: dict[str, str] = field(default_factory=dict)
    tx_count: dict[str, int] = field(default_factory=dict)
    byte_count: dict[str, int] = field(default_factory=dict)
    phone_imei: dict[str, str] = field(default_factory=dict)
    displacement_mean: dict[str, float] = field(default_factory=dict)

    def consume(self, dataset: StudyDataset) -> None:
        proxy = dataset.proxy
        rows = np.flatnonzero(
            ~dataset.wearable_proxy_mask
            & dataset.detailed_proxy_mask
            & _general(dataset, proxy)
        )
        subscribers = proxy.column("subscriber_id")
        keys, group = first_seen(subscribers.codes[rows])
        names = subscribers.values[keys].tolist()
        _add_counts(self.tx_count, names, np.bincount(group, minlength=len(names)))
        size = proxy.column("bytes_up")[rows] + proxy.column("bytes_down")[rows]
        _add_counts(self.byte_count, names, group_sum(group, size, len(names)))
        first, _ = group_ends(group, len(names))
        imeis = proxy.column("imei")
        for name, imei in zip(
            names, imeis.values[imeis.codes[rows[first]]].tolist()
        ):
            self.phone_imei.setdefault(name, imei)
        hosts = proxy.column("host")
        kinds = [TD_FINGERPRINT_HOSTS.get(host) for host in hosts.values.tolist()]
        marked = np.flatnonzero(
            np.array([kind is not None for kind in kinds], dtype=bool)[
                hosts.codes[rows]
            ]
        )
        keys, group = first_seen(group[marked])
        _, last = group_ends(group, len(keys))
        for key, host in zip(
            keys.tolist(), hosts.codes[rows[marked[last]]].tolist()
        ):
            self.detected_kind[names[key]] = kinds[host]
        general = np.flatnonzero(
            dataset.detailed_mme_mask
            & ~dataset.wearable_mme_mask
            & _general(dataset, dataset.mme)
        )
        names, _, _, means = _daily_displacement(dataset, general)
        self.displacement_mean.update(zip(names, means))

    def merge(self, other: "ThroughDevicePartial") -> None:
        _disjoint_update(self.detected_kind, other.detected_kind)
        _int_add(self.tx_count, other.tx_count)
        _int_add(self.byte_count, other.byte_count)
        _disjoint_update(self.phone_imei, other.phone_imei)
        _disjoint_update(self.displacement_mean, other.displacement_mean)

    def finalize(
        self,
        window: StudyWindow,
        device_db: DeviceDatabase,
        assumed_coverage: float = ASSUMED_COVERAGE,
    ) -> ThroughDeviceResult:
        if not 0.0 < assumed_coverage <= 1.0:
            raise ValueError("assumed_coverage must be in (0, 1]")
        general_users = set(self.tx_count)
        td_users = set(self.detected_kind)
        other_users = general_users - td_users
        if not td_users or not other_users:
            raise ValueError(
                "need both detected and undetected general users"
            )
        by_kind: dict[str, int] = {}
        for kind in self.detected_kind.values():
            by_kind[kind] = by_kind.get(kind, 0) + 1
        days = max(1, window.detailed_days)

        def mean_daily(counter: dict[str, int], users: set[str]) -> float:
            return sum(counter[u] for u in users) / len(users) / days

        def mean_displacement(users: set[str]) -> float:
            values = [
                self.displacement_mean[s]
                for s in sorted(users)
                if s in self.displacement_mean
            ]
            return sum(values) / len(values) if values else 0.0

        def mean_year(users: set[str]) -> float:
            years: list[int] = []
            for subscriber in sorted(users):
                imei = self.phone_imei.get(subscriber)
                if imei is None:
                    continue
                model = device_db.lookup_imei(imei)
                if model is not None:
                    years.append(model.release_year)
            return sum(years) / len(years) if years else 0.0

        return ThroughDeviceResult(
            detected_users=len(td_users),
            detected_by_kind=by_kind,
            detected_fraction_of_general=len(td_users) / len(general_users),
            estimated_total_td_users=len(td_users) / assumed_coverage,
            mean_daily_tx_td=mean_daily(self.tx_count, td_users),
            mean_daily_tx_other=mean_daily(self.tx_count, other_users),
            mean_daily_bytes_td=mean_daily(self.byte_count, td_users),
            mean_daily_bytes_other=mean_daily(self.byte_count, other_users),
            mean_displacement_td_km=mean_displacement(td_users),
            mean_displacement_other_km=mean_displacement(other_users),
            mean_phone_year_td=mean_year(td_users),
            mean_phone_year_other=mean_year(other_users),
        )


# ==================================================================== devices
@dataclass
class DevicesPartial(_PartialState):
    """Device-model adoption from the MME stream (imei-keyed, disjoint)."""

    total_weeks: int
    imei_first: dict[str, tuple] = field(default_factory=dict)
    weekly: list[dict[str, set[str]]] = field(default_factory=list)
    data_imeis: set[str] = field(default_factory=set)

    def __post_init__(self) -> None:
        if not self.weekly:
            self.weekly = [{} for _ in range(self.total_weeks)]

    def consume(self, dataset: StudyDataset) -> None:
        mme = dataset.mme
        imeis = mme.column("imei")
        models = [dataset.device_db.lookup_imei(imei) for imei in imeis.values]
        manufacturers: dict[str, int] = {}
        entry_manufacturer = np.fromiter(
            (
                manufacturers.setdefault(model.manufacturer, len(manufacturers))
                if model is not None
                else -1
                for model in models
            ),
            dtype=np.int64,
            count=len(models),
        )
        rows = np.flatnonzero(
            dataset.wearable_mme_mask & (entry_manufacturer >= 0)[imeis.codes]
        )
        codes = imeis.codes[rows]
        keys, group = first_seen(codes)
        _min_sort_keys(
            self.imei_first, imeis.values[keys].tolist(), group, mme, rows
        )

        week = dataset.mme_days[rows] // 7
        in_range = (week >= 0) & (week < self.total_weeks)
        week = week[in_range]
        codes = codes[in_range]
        makers = list(manufacturers)
        keys, group = first_seen(week * len(makers) + entry_manufacturer[codes])
        slots = [divmod(key, len(makers)) for key in keys.tolist()]
        for week_index, maker in slots:
            self.weekly[week_index].setdefault(makers[maker], set())
        groups, members = distinct(group, codes)
        values = imeis.values[members].tolist()
        for index, start, end in runs(groups):
            week_index, maker = slots[index]
            self.weekly[week_index][makers[maker]].update(values[start:end])
        self.data_imeis.update(
            dataset.proxy.distinct("imei", dataset.wearable_proxy_mask)
        )

    def merge(self, other: "DevicesPartial") -> None:
        _min_merge(self.imei_first, other.imei_first)
        for week in range(self.total_weeks):
            _set_union(self.weekly[week], other.weekly[week])
        self.data_imeis |= other.data_imeis

    def finalize(self, device_db: DeviceDatabase) -> DeviceResult:
        if not self.imei_first:
            raise ValueError("no wearable devices observed in the MME log")
        per_model_devices: dict[str, set[str]] = {}
        per_model_active: dict[str, set[str]] = {}
        model_meta: dict[str, tuple[str, str]] = {}
        # Iterate IMEIs by their first appearance in the canonical
        # stream, replicating the batch accumulator's insertion order so
        # tied device counts sort into the identical row order.
        for imei in sorted(self.imei_first, key=self.imei_first.__getitem__):
            model = device_db.lookup_imei(imei)
            if model is None:  # pragma: no cover - db identical everywhere
                continue
            per_model_devices.setdefault(model.model, set()).add(imei)
            model_meta[model.model] = (model.manufacturer, model.os)
            if imei in self.data_imeis:
                per_model_active.setdefault(model.model, set()).add(imei)
        per_model = [
            ModelStats(
                model=name,
                manufacturer=model_meta[name][0],
                os=model_meta[name][1],
                devices=len(devices),
                data_active_devices=len(per_model_active.get(name, ())),
            )
            for name, devices in per_model_devices.items()
        ]
        per_model.sort(key=lambda row: row.devices, reverse=True)
        total = sum(row.devices for row in per_model)
        manufacturer_count: dict[str, int] = {}
        os_count: dict[str, int] = {}
        for row in per_model:
            manufacturer_count[row.manufacturer] = (
                manufacturer_count.get(row.manufacturer, 0) + row.devices
            )
            os_count[row.os] = os_count.get(row.os, 0) + row.devices
        weekly_share: dict[str, list[float]] = {}
        for week, per_manufacturer in enumerate(self.weekly):
            week_total = sum(
                len(imeis) for imeis in per_manufacturer.values()
            )
            if week_total == 0:
                continue
            for manufacturer, imeis in per_manufacturer.items():
                weekly_share.setdefault(
                    manufacturer, [0.0] * self.total_weeks
                )[week] = len(imeis) / week_total
        return DeviceResult(
            per_model=per_model,
            manufacturer_share={
                name: count / total
                for name, count in manufacturer_count.items()
            },
            os_share={
                name: count / total for name, count in os_count.items()
            },
            weekly_manufacturer_share=weekly_share,
            total_devices=total,
        )


# ================================================================== protocols
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


# ================================================================= encounters
@dataclass
class EncountersPartial(_PartialState):
    """§ext encounter join + panels — the first *pair*-keyed partial.

    Two independently sharded sides feed one partial:

    * the **join side** (``pair_events`` / ``partners`` / ``sub_events``
      / ``seen_subscribers``) partitions by *sector*
      (:func:`repro.core.encounters.sector_shard`): the dwell intervals
      of the whole MME stream are routed to the shard owning each
      interval's sector, and each shard indexes and joins only those
      cells, so each encounter event is produced by exactly one shard
      and the merge is plain integer addition + partner-set union
      (``seen_subscribers`` holds the subscribers of the intervals a
      partial was fed, so the shards' sets union to the whole stream's);
    * the **account side** (SIM classification, detailed proxy traffic,
      billing pairing maps) partitions by account like every other
      partial, merging as disjoint-key unions.

    The float statistics (Pearson correlations, binned trend, explained
    fractions) are computed only at finalize by
    :func:`repro.core.encounters.summarize_encounters`, a deterministic
    sorted-key fold — equal accumulators give bit-identical results.
    """

    pair_events: dict[tuple[str, str], int] = field(default_factory=dict)
    partners: dict[str, set[str]] = field(default_factory=dict)
    sub_events: dict[str, int] = field(default_factory=dict)
    seen_subscribers: set[str] = field(default_factory=set)
    wearable_subs: set[str] = field(default_factory=set)
    phone_subs: set[str] = field(default_factory=set)
    tx_count: dict[str, int] = field(default_factory=dict)
    tx_bytes: dict[str, int] = field(default_factory=dict)
    account_wearables: dict[str, set[str]] = field(default_factory=dict)
    account_phones: dict[str, set[str]] = field(default_factory=dict)

    def consume(self, dataset: StudyDataset) -> None:
        """Account side, from one account shard's dataset."""
        consume_classification(
            dataset,
            wearable_subs=self.wearable_subs,
            phone_subs=self.phone_subs,
            tx_count=self.tx_count,
            tx_bytes=self.tx_bytes,
            account_wearables=self.account_wearables,
            account_phones=self.account_phones,
        )

    def consume_intervals(self, intervals, study_start: float) -> int:
        """Join side over given dwell intervals, already routed to this
        partial's sectors: index and join their cells.  Every subscriber
        with an interval here joins ``seen_subscribers``.  Returns the
        number of encounter events found.
        """
        index = build_cell_index(intervals, study_start, seen=self.seen_subscribers)
        return join_cells(
            index,
            pair_events=self.pair_events,
            partners=self.partners,
            sub_events=self.sub_events,
        )

    def merge(self, other: "EncountersPartial") -> None:
        _int_add(self.pair_events, other.pair_events)
        _set_union(self.partners, other.partners)
        _int_add(self.sub_events, other.sub_events)
        self.seen_subscribers |= other.seen_subscribers
        self.wearable_subs |= other.wearable_subs
        self.phone_subs |= other.phone_subs
        _int_add(self.tx_count, other.tx_count)
        _int_add(self.tx_bytes, other.tx_bytes)
        _set_union(self.account_wearables, other.account_wearables)
        _set_union(self.account_phones, other.account_phones)

    def finalize(self) -> EncountersResult:
        return summarize_encounters(
            pair_events=self.pair_events,
            partners=self.partners,
            sub_events=self.sub_events,
            seen_subscribers=self.seen_subscribers,
            wearable_subs=self.wearable_subs,
            phone_subs=self.phone_subs,
            tx_count=self.tx_count,
            tx_bytes=self.tx_bytes,
            account_wearables=self.account_wearables,
            account_phones=self.account_phones,
        )


# ===================================================================== panels
class PanelInputs:
    """One dataset plus what several panels share, computed once.

    The apps, domains and protocols panels all read the app attribution
    (§3.3) and the one-minute-gap sessions (§5.1) of the dataset's
    wearable traffic; both are cached here as columns
    (:attr:`attribution`, :attr:`usage`).  :attr:`attributed` and
    :attr:`sessions` are aliases of them, kept only for the benchmark's
    traced batch replay, which takes their ``len()``.
    """

    def __init__(
        self, dataset: StudyDataset, app_catalog: AppCatalog | None = None
    ) -> None:
        """``app_catalog`` supplies the host signatures and the public
        Play-store categorisation; it defaults to the built-in catalog the
        simulator also uses (the analogue of the paper's lab-collected
        signature set)."""
        self.dataset = dataset
        self._catalog = app_catalog or builtin_app_catalog()

    @cached_property
    def signatures(self) -> SignatureCatalog:
        with obs.span("analyze.signatures"):
            return SignatureCatalog.from_app_catalog(self._catalog)

    @cached_property
    def app_categories(self) -> dict[str, str]:
        return {app.name: app.category for app in self._catalog}

    @cached_property
    def attribution(self) -> Attribution:
        """The dataset's wearable transactions with resolved apps."""
        dataset = self.dataset
        with obs.span("analyze.attributed"):
            return attribute_table(
                dataset.proxy.take(dataset.wearable_proxy_mask), self.signatures
            )

    @cached_property
    def usage(self) -> SessionTable:
        """One-minute-gap usage sessions over the attributed traffic."""
        with obs.span("analyze.sessions"):
            return session_table(self.attribution)

    @property
    def attributed(self) -> Attribution:
        return self.attribution

    @property
    def sessions(self) -> SessionTable:
        return self.usage

    def partial(self, name: str):
        """Panel ``name``'s partial, fed this whole dataset."""
        return PANELS[name].build(self)


def _fed(partial, *inputs):
    partial.consume(*inputs)
    return partial


@dataclass(frozen=True)
class Panel:
    """How one report field is built from a dataset and finalized."""

    #: ``build(inputs)`` -> the partial fed one :class:`PanelInputs`.
    build: Callable
    #: ``finalize(partial, window, device_db, app_categories)`` -> result.
    finalize: Callable


#: Every ``StudyReport`` panel in execution order, with its one consume
#: and one finalize call; ``ShardPartials`` and ``WearableStudy`` both go
#: through this table.  The encounters entry covers the account side
#: only: the sector-routed join side needs the dwell intervals of the
#: whole MME log and is fed through ``EncountersPartial.consume_intervals``.
PANELS: dict[str, Panel] = {
    "census": Panel(
        lambda s: _fed(CensusPartial(), s.dataset),
        lambda p, window, db, categories: p.finalize(db),
    ),
    "adoption": Panel(
        lambda s: _fed(
            AdoptionPartial(total_days=s.dataset.window.total_days), s.dataset
        ),
        lambda p, window, db, categories: p.finalize(window),
    ),
    "activity": Panel(
        lambda s: _fed(ActivityPartial(), s.dataset),
        lambda p, window, db, categories: p.finalize(window),
    ),
    "comparison": Panel(
        lambda s: _fed(ComparisonPartial(), s.dataset),
        lambda p, window, db, categories: p.finalize(),
    ),
    "mobility": Panel(
        lambda s: _fed(MobilityPartial(), s.dataset),
        lambda p, window, db, categories: p.finalize(),
    ),
    "apps": Panel(
        lambda s: _fed(AppsPartial(), s.dataset, s.attribution, s.usage),
        lambda p, window, db, categories: p.finalize(window, categories),
    ),
    "domains": Panel(
        lambda s: _fed(DomainsPartial(), s.dataset, s.attribution, s.usage),
        lambda p, window, db, categories: p.finalize(),
    ),
    "through_device": Panel(
        lambda s: _fed(ThroughDevicePartial(), s.dataset),
        lambda p, window, db, categories: p.finalize(window, db),
    ),
    "weekly": Panel(
        lambda s: StreamingWeekly(
            s.dataset.window, s.dataset.wearable_tacs
        ).consume(s.dataset),
        lambda p, window, db, categories: p.result(),
    ),
    "protocols": Panel(
        lambda s: _fed(
            ProtocolsPartial(), s.dataset, s.attribution, s.app_categories
        ),
        lambda p, window, db, categories: p.finalize(categories),
    ),
    "devices": Panel(
        lambda s: _fed(
            DevicesPartial(total_weeks=max(1, s.dataset.window.total_days // 7)),
            s.dataset,
        ),
        lambda p, window, db, categories: p.finalize(db),
    ),
    "encounters": Panel(
        lambda s: _fed(EncountersPartial(), s.dataset),
        lambda p, window, db, categories: p.finalize(),
    ),
}


# ==================================================================== bundles
@dataclass
class ShardPartials(_PartialState):
    """One shard's partial aggregates for every figure panel."""

    _STATE_OBJECTS = {
        "census": CensusPartial,
        "adoption": AdoptionPartial,
        "activity": ActivityPartial,
        "comparison": ComparisonPartial,
        "mobility": MobilityPartial,
        "apps": AppsPartial,
        "domains": DomainsPartial,
        "through_device": ThroughDevicePartial,
        "weekly": StreamingWeekly,
        "protocols": ProtocolsPartial,
        "devices": DevicesPartial,
        "encounters": EncountersPartial,
    }

    census: CensusPartial
    adoption: AdoptionPartial
    activity: ActivityPartial
    comparison: ComparisonPartial
    mobility: MobilityPartial
    apps: AppsPartial
    domains: DomainsPartial
    through_device: ThroughDevicePartial
    weekly: StreamingWeekly
    protocols: ProtocolsPartial
    devices: DevicesPartial
    encounters: EncountersPartial

    @classmethod
    def compute(
        cls,
        dataset: StudyDataset,
        *,
        shard: int = 0,
        app_catalog: AppCatalog | None = None,
    ) -> "ShardPartials":
        """Map step: every partial aggregate from one shard's dataset.

        ``shard`` labels the caller's shard; the partials do not depend
        on it.  Only the encounter *account* side is fed here — the
        join side needs the intervals of the full MME log, which the
        dataset does not hold when account-sharded; ``_analyze_shard``
        feeds it the intervals of its sectors and the serve finalize
        those of every shard (``encounters.consume_intervals``).
        """
        inputs = PanelInputs(dataset, app_catalog)
        with obs.span("shard.attribute"):
            inputs.usage  # attribute and sessionise under their own span
        with obs.span("shard.aggregate"):
            return cls(**{name: inputs.partial(name) for name in PANELS})

    def merge(self, other: "ShardPartials") -> "ShardPartials":
        """Reduce step: fold another shard's partials into this one."""
        for name in PANELS:
            getattr(self, name).merge(getattr(other, name))
        return self

    def finalize(
        self,
        window: StudyWindow,
        device_db: DeviceDatabase,
        app_categories,
        quarantine: QuarantineReport | None = None,
    ) -> StudyReport:
        """Produce the same :class:`StudyReport` object the batch path does."""
        from repro.core.pipeline import StudyReport

        events = obs.events()
        results = {}
        for name, panel in PANELS.items():
            events.emit("phase", stage=f"analyze.{name}")
            with obs.span(f"analyze.{name}"):
                results[name] = panel.finalize(
                    getattr(self, name), window, device_db, app_categories
                )
        return StudyReport(quarantine=quarantine, **results)


# =============================================================== orchestration
@dataclass
class AnalysisShardStats:
    """What one analysis shard consumed, and how long it took."""

    shard: int
    proxy_records: int
    mme_records: int
    elapsed_seconds: float

    @property
    def resident_records(self) -> int:
        """Records this shard held in memory at its peak."""
        return self.proxy_records + self.mme_records


def _full_mme_stream(trace_dir: str, *, lenient: bool, format: str):
    """The unsharded canonical MME stream of a trace directory.

    Strict mode streams straight off the log (engine traces are written
    in canonical order), holding O(1) rows.  Lenient mode runs the same
    read and :class:`~repro.core.dataset.Scrubber` pass a lenient
    :meth:`StudyDataset.load` does — parse salvage, semantic row drops,
    dedup, re-sort on disorder — so the kept rows equal the serial
    lenient load's exactly; the defect accounting is discarded.
    :func:`analyze_parallel` does not read the log again: it takes the
    join's intervals from its one load (:func:`_sector_intervals`).
    """
    base = Path(trace_dir)
    if not lenient:
        return read_records(
            StudyDataset._log_path(base, "mme", format), MmeRecord
        )
    return iter(
        StudyDataset._load_log(
            base,
            MmeRecord,
            format,
            QuarantineCollector(),
            sector_map=load_artifacts(base).sector_map,
        ).records
    )


def _sector_intervals(dataset: StudyDataset, shards: int) -> list[DwellIntervals]:
    """The dwell intervals of the dataset's MME log
    (:func:`~repro.core.mobility.dwell_intervals` over the detailed
    window), routed to the shard owning each interval's sector
    (:func:`sector_shard`, one hash per sector dictionary entry)."""
    intervals = dwell_intervals(
        dataset.mme,
        np.flatnonzero(dataset.detailed_mme_mask),
        dataset.window.study_start,
    )
    owner = np.array(
        [sector_shard(sector, shards) for sector in intervals.sector.values.tolist()],
        dtype=np.int64,
    )[intervals.sector.codes]
    return [intervals.take(owner == shard) for shard in range(shards)]


def _analyze_shard(
    dataset: StudyDataset, shard: int, shards: int, intervals: DwellIntervals
) -> tuple[ShardPartials, AnalysisShardStats]:
    """One account shard's partials: its rows of ``dataset``
    (:meth:`StudyDataset.shard`) and the dwell ``intervals`` routed to
    its sectors.  The shard's dataset, with the partitions its panels
    build, is dropped before the join runs."""
    started = time.perf_counter()
    events = obs.events()
    with obs.tracer().span("analyze.shard", shard=shard) as shard_span:
        part = dataset.shard(shard, shards)
        proxy_rows, mme_rows = len(part.proxy), len(part.mme)
        partials = ShardPartials.compute(part, shard=shard)
        del part
        events.emit(
            "progress", shard=shard, stage="aggregate", rows=proxy_rows + mme_rows
        )
        # Encounter join side: pairs straddle account shards, so the join
        # partitions by *sector* instead — this shard joins the intervals
        # routed to its sectors.
        with obs.span("shard.encounters"):
            encounter_events = partials.encounters.consume_intervals(
                intervals, dataset.window.study_start
            )
        events.emit(
            "progress", shard=shard, stage="encounters", rows=encounter_events
        )
    if obs.enabled():
        registry = obs.metrics()
        registry.counter(
            "repro_analysis_proxy_records_total", shard=shard
        ).add(proxy_rows)
        registry.counter(
            "repro_analysis_mme_records_total", shard=shard
        ).add(mme_rows)
        registry.counter(
            "repro_analysis_encounter_events_total", shard=shard
        ).add(encounter_events)
    return partials, AnalysisShardStats(
        shard=shard,
        proxy_records=proxy_rows,
        mme_records=mme_rows,
        elapsed_seconds=(
            shard_span.wall_s
            if shard_span is not None
            else time.perf_counter() - started
        ),
    )


@dataclass
class ParallelAnalysisRun:
    """The merged report plus per-shard accounting."""

    report: StudyReport
    shard_stats: list[AnalysisShardStats]
    #: Always 1: the shards run in the calling process.
    workers: int = 1

    @property
    def proxy_rows(self) -> int:
        return sum(s.proxy_records for s in self.shard_stats)

    @property
    def mme_rows(self) -> int:
        return sum(s.mme_records for s in self.shard_stats)

    @property
    def peak_resident_records(self) -> int:
        """Largest row count any single shard held, O(largest shard),
        on top of the whole trace as columns (about 44 bytes per row)."""
        if not self.shard_stats:
            return 0
        return max(s.resident_records for s in self.shard_stats)


def analyze_parallel(
    trace_dir: str | Path,
    *,
    shards: int = 1,
    workers: int | None = None,
    lenient: bool = False,
    app_catalog=None,
    format: str = "auto",
) -> ParallelAnalysisRun:
    """Map-reduce the full study over account shards, in this process.

    Loads the trace once (:meth:`StudyDataset.load`, strict or
    ``lenient``, in the ``format`` asked for: ``auto`` / ``csv`` /
    ``bin``), so each log is decoded and scrubbed once; routes the MME
    log's dwell intervals to the shard owning each sector
    (:func:`_sector_intervals`); then builds each shard's partials in
    shard order (:func:`_analyze_shard`), merges them in that order and
    finalizes.  The report carries the load's quarantine accounting, the
    same as a serial lenient load's, and equals the batch report
    bit for bit.  Memory: the trace as columns, about 44 bytes per row,
    plus one shard's slices at a time, until the last shard is built.

    ``workers`` is accepted and ignored.
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")

    with obs.span("analyze.parallel", shards=shards):
        with obs.span("analyze.load"):
            dataset = StudyDataset.load(
                trace_dir, lenient=lenient, format=format
            )
            obs.events().emit(
                "progress",
                stage="load",
                rows=len(dataset.proxy) + len(dataset.mme),
            )
            routed = _sector_intervals(dataset, shards)
            window, device_db = dataset.window, dataset.device_db
            quarantine = dataset.quarantine

        with obs.span("analyze.shards"):
            results = [
                _analyze_shard(dataset, shard, shards, intervals)
                for shard, intervals in enumerate(routed)
            ]
            # Merge and finalize read none of the trace's columns; freed
            # here, they do not add to the peak while the partials merge.
            del dataset, routed

        with obs.span("analyze.merge"):
            merged = results[0][0]
            for partials, _ in results[1:]:
                merged.merge(partials)

        with obs.span("analyze.finalize"):
            catalog = app_catalog or builtin_app_catalog()
            app_categories = {app.name: app.category for app in catalog}
            report = merged.finalize(
                window, device_db, app_categories, quarantine=quarantine
            )

    stats = [stat for _, stat in results]
    if obs.enabled():
        registry = obs.metrics()
        registry.gauge("repro_analysis_shards").set(shards)
        registry.gauge("repro_analysis_peak_resident_records").set(
            max((s.resident_records for s in stats), default=0)
        )
    return ParallelAnalysisRun(report=report, shard_stats=stats)
