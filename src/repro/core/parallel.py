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
  shard-local; each worker streams only its shard's rows
  (:func:`repro.logs.io.read_csv_records_shard`), builds one
  :class:`ShardPartials` and ships it back (peak memory: O(largest
  shard)), and the parent merges them in shard order and finalizes;
* :mod:`repro.serve` folds growing deltas into the same partials.

Merging is exact — integer counts, set unions, min/max, an exact
transaction-size histogram, and float folds taken over *sorted* keys or
with ``math.fsum`` — so every :class:`~repro.core.pipeline.StudyReport`
field is bit-identical for batch, any shard or worker count, and serve
(the table lives in ``docs/architecture.md``).

Workers record their own observability (spans, metrics, timeline
progress events) exactly like the simulation engine's shard workers; the
parent merges snapshots deterministically in shard order.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from functools import cached_property
from itertools import chain, repeat
from math import fsum, log10
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from repro import obs
from repro.obs.timeline import HeartbeatSampler

from repro.core.activity import ActivityResult, HourlyProfile
from repro.core.adoption import ABANDON_QUIET_DAYS, AdoptionResult
from repro.core.app_mapping import (
    CATEGORY_UNKNOWN,
    AttributedRecord,
    SignatureCatalog,
    attribute_records,
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
    _scrub_records,
)
from repro.core.devices import DeviceResult, ModelStats
from repro.core.encounters import (
    EncountersResult,
    build_cell_index,
    consume_classification,
    join_cells,
    stream_dwell_intervals,
    summarize_encounters,
)
from repro.core.domains import (
    DomainCategoryStats,
    DomainsResult,
    SingleUsageStats,
)
from repro.core.identification import DeviceCensus
from repro.core.mobility import MobilityResult, build_timelines
from repro.core.protocols import (
    SENSITIVE_CATEGORIES,
    AppProtocolStats,
    ProtocolResult,
)
from repro.core.sessions import UsageSession, sessionize
from repro.core.throughdevice import (
    ASSUMED_COVERAGE,
    TD_FINGERPRINT_HOSTS,
    ThroughDeviceResult,
)
from repro.core.weekly import StreamingWeekly
from repro.devicedb.database import DeviceDatabase
from repro.logs.io import read_records
from repro.logs.quarantine import QuarantineCollector, QuarantineReport
from repro.logs.records import PROTOCOL_HTTP, MmeRecord, record_sort_key
from repro.simnet.topology import SectorMap
from repro.logs.timeutil import SECONDS_PER_DAY, hour_of_day, is_weekend
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
from repro.stats.entropy import dwell_weighted_entropy
from repro.stats.geo import GeoPoint, max_displacement_km

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
        self.imeis.update(r.imei for r in dataset.wearable_mme)

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
        window = dataset.window
        for record in dataset.wearable_mme:
            day = window.day_of(record.timestamp)
            if not 0 <= day < window.total_days:
                continue
            subscriber = record.subscriber_id
            self.daily[day].add(subscriber)
            mine = self.first_seen.get(subscriber)
            if mine is None or day < mine:
                self.first_seen[subscriber] = day
            mine = self.last_seen.get(subscriber)
            if mine is None or day > mine:
                self.last_seen[subscriber] = day
        self.data_users.update(
            record.subscriber_id for record in dataset.wearable_proxy
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
        for record in dataset.wearable_proxy_detailed:
            day = window.day_of(record.timestamp)
            if not first_day <= day < window.total_days:
                continue
            weekend = is_weekend(record.timestamp)
            hour = hour_of_day(record.timestamp)
            subscriber = record.subscriber_id
            size = record.total_bytes
            key = (weekend, hour)
            self.day_type_days[weekend].add(day)
            self.hour_users.setdefault(key, set()).add((subscriber, day))
            self.hour_tx[key] = self.hour_tx.get(key, 0) + 1
            self.hour_bytes[key] = self.hour_bytes.get(key, 0) + size
            self.weekly_users.setdefault((day - first_day) // 7, set()).add(
                subscriber
            )
            self.daily_users.setdefault(day, set()).add(subscriber)
            self.user_days.setdefault(subscriber, set()).add(day)
            self.user_day_hours.setdefault(subscriber, set()).add((day, hour))
            self.user_tx[subscriber] = self.user_tx.get(subscriber, 0) + 1
            self.user_bytes[subscriber] = (
                self.user_bytes.get(subscriber, 0) + size
            )
            self.sizes[size] = self.sizes.get(size, 0) + 1

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
        sizes_ecdf = ECDF(
            chain.from_iterable(
                repeat(size, count) for size, count in self.sizes.items()
            )
        )
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
        # for any shard or worker count.
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
        window = dataset.window
        wearable_tacs = dataset.wearable_tacs
        directory = dataset.account_directory
        wearable_bytes = self.account_wearable_bytes
        for record in dataset.proxy_records:
            if not window.in_detailed(record.timestamp):
                continue
            account = directory.get(record.subscriber_id)
            if account is None:
                continue
            size = record.total_bytes
            self.account_bytes[account] = self.account_bytes.get(account, 0) + size
            self.account_tx[account] = self.account_tx.get(account, 0) + 1
            if record.tac in wearable_tacs:
                wearable_bytes[account] = wearable_bytes.get(account, 0) + size
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
    """§4.4 mobility, reduced per subscriber inside the worker.

    Timelines never leave the worker: each shard ships per-subscriber
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
        window = dataset.window
        study_start = window.study_start
        sector_map = dataset.sector_map
        owner_accounts = dataset.wearable_accounts
        detailed_wearable = [
            r for r in dataset.wearable_mme if window.in_detailed(r.timestamp)
        ]
        detailed_general = [
            r
            for r in dataset.phone_mme
            if window.in_detailed(r.timestamp)
            and dataset.account_of(r.subscriber_id) not in owner_accounts
        ]
        wearable_timelines = build_timelines(detailed_wearable)
        general_timelines = build_timelines(detailed_general)

        def reduce_side(timelines, days_out, mean_out, entropy_out) -> None:
            for subscriber, timeline in timelines.items():
                values: list[float] = []
                for sectors in timeline.daily_sectors(study_start).values():
                    points: list[GeoPoint] = []
                    for sector in sectors:
                        location = sector_map.get(sector)
                        if location is not None:
                            points.append(location)
                    values.append(max_displacement_km(points))
                if values:
                    days_out.extend(values)
                    mean_out[subscriber] = sum(values) / len(values)
                entropy_out[subscriber] = dwell_weighted_entropy(
                    timeline.dwell_seconds(study_start)
                )

        reduce_side(
            wearable_timelines,
            self.wearable_days,
            self.wearable_user_mean,
            self.wearable_entropy,
        )
        reduce_side(
            general_timelines,
            self.general_days,
            self.general_user_mean,
            self.general_entropy,
        )

        tx_sectors: dict[str, set[str]] = {}
        tx_hours: dict[str, set[tuple[int, int]]] = {}
        for record in dataset.wearable_proxy_detailed:
            subscriber = record.subscriber_id
            timeline = wearable_timelines.get(subscriber)
            if timeline is None:
                continue
            sector = timeline.sector_at(record.timestamp)
            tx_sectors.setdefault(subscriber, set())
            if sector is not None:
                tx_sectors[subscriber].add(sector)
            self.tx_counts[subscriber] = self.tx_counts.get(subscriber, 0) + 1
            day = window.day_of(record.timestamp)
            hour = int(
                (record.timestamp - study_start) % SECONDS_PER_DAY // 3600
            )
            tx_hours.setdefault(subscriber, set()).add((day, hour))
        for subscriber, sectors in tx_sectors.items():
            self.tx_sector_count[subscriber] = len(sectors)
        for subscriber, hours in tx_hours.items():
            self.tx_hour_count[subscriber] = len(hours)

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

    def consume(self, dataset: StudyDataset, attributed, sessions) -> None:
        window = dataset.window
        for item in attributed:
            if item.app is None:
                continue
            record = item.record
            if not window.in_detailed(record.timestamp):
                continue
            day = window.day_of(record.timestamp)
            subscriber = record.subscriber_id
            app = item.app
            self.app_day_users.setdefault(app, set()).add((subscriber, day))
            self.any_day_users.setdefault(day, set()).add(subscriber)
            self.app_users.setdefault(app, set()).add(subscriber)
            self.app_tx[app] = self.app_tx.get(app, 0) + 1
            self.app_bytes[app] = self.app_bytes.get(app, 0) + record.total_bytes
            self.user_apps.setdefault(subscriber, set()).add(app)
            key = record_sort_key(record)
            mine = self.app_first.get(app)
            if mine is None or key < mine:
                self.app_first[app] = key
        for session in sessions:
            if not window.in_detailed(session.start):
                continue
            self.app_sessions[session.app] = (
                self.app_sessions.get(session.app, 0) + 1
            )
            if session.is_interactive:
                day = window.day_of(session.start)
                self.user_day_interactive.setdefault(
                    (session.subscriber_id, day), set()
                ).add(session.app)

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

    def consume(self, dataset: StudyDataset, attributed, sessions) -> None:
        window = dataset.window
        pair_first: dict[tuple[str, str], tuple] = {}
        for item in attributed:
            if item.app is None:
                continue
            pair = (item.record.subscriber_id, item.app)
            key = record_sort_key(item.record)
            mine = pair_first.get(pair)
            if mine is None or key < mine:
                pair_first[pair] = key
        for session in sessions:
            if not window.in_detailed(session.start):
                continue
            app = session.app
            self.usage_tx[app] = self.usage_tx.get(app, 0) + session.tx_count
            self.usage_bytes[app] = (
                self.usage_bytes.get(app, 0) + session.bytes_total
            )
            self.usage_count[app] = self.usage_count.get(app, 0) + 1
            order_key = (
                session.start,
                pair_first[(session.subscriber_id, app)],
            )
            mine = self.usage_first.get(app)
            if mine is None or order_key < mine:
                self.usage_first[app] = order_key
        for item in attributed:
            category = item.domain_category
            if category == CATEGORY_UNKNOWN:
                continue
            record = item.record
            if not window.in_detailed(record.timestamp):
                continue
            self.dom_users.setdefault(category, set()).add(
                record.subscriber_id
            )
            self.dom_tx[category] = self.dom_tx.get(category, 0) + 1
            self.dom_data[category] = (
                self.dom_data.get(category, 0) + record.total_bytes
            )

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
        window = dataset.window
        owner_accounts = dataset.wearable_accounts
        for record in dataset.phone_proxy:
            if not window.in_detailed(record.timestamp):
                continue
            if dataset.account_of(record.subscriber_id) in owner_accounts:
                continue
            subscriber = record.subscriber_id
            self.tx_count[subscriber] = self.tx_count.get(subscriber, 0) + 1
            self.byte_count[subscriber] = (
                self.byte_count.get(subscriber, 0) + record.total_bytes
            )
            self.phone_imei.setdefault(subscriber, record.imei)
            kind = TD_FINGERPRINT_HOSTS.get(record.host)
            if kind is not None:
                self.detected_kind[subscriber] = kind
        detailed_mme = [
            r
            for r in dataset.phone_mme
            if window.in_detailed(r.timestamp)
            and dataset.account_of(r.subscriber_id) not in owner_accounts
        ]
        study_start = window.study_start
        for subscriber, timeline in build_timelines(detailed_mme).items():
            per_day: list[float] = []
            for sectors in timeline.daily_sectors(study_start).values():
                points: list[GeoPoint] = []
                for sector in sectors:
                    location = dataset.sector_map.get(sector)
                    if location is not None:
                        points.append(location)
                per_day.append(max_displacement_km(points))
            if per_day:
                self.displacement_mean[subscriber] = sum(per_day) / len(
                    per_day
                )

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
        window = dataset.window
        device_db = dataset.device_db
        for record in dataset.wearable_mme:
            model = device_db.lookup_imei(record.imei)
            if model is None:
                continue
            key = record_sort_key(record)
            mine = self.imei_first.get(record.imei)
            if mine is None or key < mine:
                self.imei_first[record.imei] = key
            day = window.day_of(record.timestamp)
            week = day // 7
            if 0 <= week < self.total_weeks:
                self.weekly[week].setdefault(model.manufacturer, set()).add(
                    record.imei
                )
        self.data_imeis.update(r.imei for r in dataset.wearable_proxy)

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

    def consume(self, dataset: StudyDataset, attributed, app_categories) -> None:
        window = dataset.window
        for item in attributed:
            record = item.record
            if not window.in_detailed(record.timestamp):
                continue
            self.total += 1
            is_http = record.protocol == PROTOCOL_HTTP
            if is_http:
                self.http_total += 1
            if item.app is None:
                continue
            app = item.app
            self.app_tx[app] = self.app_tx.get(app, 0) + 1
            key = record_sort_key(record)
            mine = self.app_first.get(app)
            if mine is None or key < mine:
                self.app_first[app] = key
            category = app_categories.get(app, "Tools")
            self.category_tx[category] = self.category_tx.get(category, 0) + 1
            if is_http:
                self.app_http[app] = self.app_http.get(app, 0) + 1
                self.category_http[category] = (
                    self.category_http.get(category, 0) + 1
                )
                if record.path:
                    self.app_url[app] = self.app_url.get(app, 0) + 1

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
      (:func:`repro.core.encounters.sector_shard`): every worker streams
      the full MME log but only indexes its own sectors' cells, so each
      encounter event is produced by exactly one worker and the merge is
      plain integer addition + partner-set union (``seen_subscribers``
      is replicated identically on every worker and unions
      idempotently);
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

    def consume_stream(
        self,
        records,
        window: StudyWindow,
        *,
        shard: int = 0,
        shards: int = 1,
    ) -> int:
        """Join side: index + join this worker's sector slice.

        ``records`` is the canonically ordered *full* MME stream (not
        the account shard); sector routing happens inside
        :func:`build_cell_index`.  Returns the number of encounter
        events found in this slice.
        """
        index = build_cell_index(
            stream_dwell_intervals(
                records, window, seen=self.seen_subscribers
            ),
            window.study_start,
            shard=shard,
            shards=shards,
        )
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
    wearable traffic; both are cached here.
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
    def attributed(self) -> list[AttributedRecord]:
        """Wearable transactions with resolved apps (whole dataset)."""
        with obs.span("analyze.attributed"):
            return attribute_records(self.dataset.wearable_proxy, self.signatures)

    @cached_property
    def sessions(self) -> list[UsageSession]:
        """One-minute-gap usage sessions over the attributed traffic."""
        with obs.span("analyze.sessions"):
            return sessionize(self.attributed)

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
#: only: the sector-routed join side needs the canonically ordered MME
#: stream and is fed through ``EncountersPartial.consume_stream``.
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
        lambda s: _fed(AppsPartial(), s.dataset, s.attributed, s.sessions),
        lambda p, window, db, categories: p.finalize(window, categories),
    ),
    "domains": Panel(
        lambda s: _fed(DomainsPartial(), s.dataset, s.attributed, s.sessions),
        lambda p, window, db, categories: p.finalize(),
    ),
    "through_device": Panel(
        lambda s: _fed(ThroughDevicePartial(), s.dataset),
        lambda p, window, db, categories: p.finalize(window, db),
    ),
    "weekly": Panel(
        lambda s: StreamingWeekly(
            s.dataset.window, s.dataset.wearable_tacs
        ).consume(s.dataset.proxy_records),
        lambda p, window, db, categories: p.result(),
    ),
    "protocols": Panel(
        lambda s: _fed(
            ProtocolsPartial(), s.dataset, s.attributed, s.app_categories
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
        join side needs the full MME stream, which the dataset does not
        hold when account-sharded; ``_analyze_shard`` (and the serve
        finalize) feed it via ``encounters.consume_stream``.
        """
        inputs = PanelInputs(dataset, app_catalog)
        with obs.span("shard.attribute"):
            inputs.sessions  # attribute and sessionise under their own span
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
    metrics_snapshot: dict | None = None
    span_tree: dict | None = None
    #: Wall-clock sampling-profiler snapshot (merged like the span tree,
    #: in shard order); only shipped when the parent profiles.
    profile: dict | None = None

    @property
    def resident_records(self) -> int:
        """Records this shard held in memory at its peak."""
        return self.proxy_records + self.mme_records


@dataclass(frozen=True)
class _AnalysisPayload:
    """Everything an analysis worker needs; must stay picklable."""

    trace_dir: str
    shard: int
    shards: int
    lenient: bool
    observe: bool = False
    parent_pid: int = 0
    events_path: str | None = None
    format: str = "auto"
    profile_hz: float | None = None


@dataclass
class _ShardResult:
    """A worker's shipped-back partials plus accounting."""

    partials: ShardPartials
    quarantine: QuarantineReport | None
    stats: AnalysisShardStats


def _full_mme_stream(trace_dir: str, *, lenient: bool, format: str):
    """The unsharded canonical MME stream for the encounter join.

    Strict mode streams straight off the log (engine traces are written
    in canonical order), holding O(1) rows.  Lenient mode replays the
    same scrub a lenient :meth:`StudyDataset.load` performs — parse
    salvage, semantic row drops, dedup, re-sort on disorder — so the
    kept rows equal the serial lenient load's exactly; the defect
    accounting is discarded because the shard's own load already shipped
    the identical stream-global quarantine report.  (The scrub
    materialises the kept MME rows, the one place the join's
    O(largest-shard) bound loosens to O(MME log) — acceptable because
    the MME log is the small log, and only in lenient mode.)
    """
    base = Path(trace_dir)
    if not lenient:
        return read_records(
            StudyDataset._log_path(base, "mme", format), MmeRecord
        )
    collector = QuarantineCollector()
    return iter(
        _scrub_records(
            StudyDataset._lenient_log(base, "mme", MmeRecord, collector, format),
            "mme",
            collector,
            sector_map=SectorMap.read_csv(base / "sectors.csv"),
        )
    )


def _analyze_shard(payload: _AnalysisPayload) -> _ShardResult:
    """Worker entry point: load one shard and build its partials.

    Mirrors the engine's ``_run_shard_to_spool``: a spawned/forked
    worker installs its own enabled observability, runs a heartbeat, and
    ships its metrics snapshot and span subtree back for deterministic
    shard-order merging in the parent.
    """
    installed: "obs.Observability | None" = None
    previous: "obs.Observability | None" = None
    in_worker = os.getpid() != payload.parent_pid
    if payload.observe and in_worker:
        installed = obs.Observability(
            enabled=True,
            events_path=payload.events_path,
            profile_hz=payload.profile_hz,
        )
        previous = obs.install(installed)
        installed.profiler.start()
    started = time.perf_counter()
    events = obs.events()
    shard = payload.shard
    sampler = (
        HeartbeatSampler(events).start()
        if events.enabled and in_worker
        else None
    )
    try:
        with obs.tracer().span("analyze.shard", shard=shard) as shard_span:
            with obs.span("shard.load"):
                dataset = StudyDataset.load(
                    payload.trace_dir,
                    lenient=payload.lenient,
                    shard=shard,
                    shards=payload.shards,
                    format=payload.format,
                )
            rows = len(dataset.proxy_records) + len(dataset.mme_records)
            events.emit("progress", shard=shard, stage="load", rows=rows)
            partials = ShardPartials.compute(dataset, shard=shard)
            events.emit("progress", shard=shard, stage="aggregate", rows=rows)
            # Encounter join side: pairs straddle account shards, so the
            # join partitions by *sector* instead — every worker streams
            # the full MME log once more and joins only the cells whose
            # sector hashes to its shard index.
            with obs.span("shard.encounters"):
                encounter_events = partials.encounters.consume_stream(
                    _full_mme_stream(
                        payload.trace_dir,
                        lenient=payload.lenient,
                        format=payload.format,
                    ),
                    dataset.window,
                    shard=shard,
                    shards=payload.shards,
                )
            events.emit(
                "progress",
                shard=shard,
                stage="encounters",
                rows=encounter_events,
            )
        if obs.enabled():
            registry = obs.metrics()
            registry.counter(
                "repro_analysis_proxy_records_total", shard=shard
            ).add(len(dataset.proxy_records))
            registry.counter(
                "repro_analysis_mme_records_total", shard=shard
            ).add(len(dataset.mme_records))
            registry.counter(
                "repro_analysis_encounter_events_total", shard=shard
            ).add(encounter_events)
        elapsed = (
            shard_span.wall_s
            if shard_span is not None
            else time.perf_counter() - started
        )
        metrics_snapshot = None
        span_tree = None
        profile = None
        if installed is not None:
            # Stop sampling before snapshotting so the shipped profile is
            # final; close() in the finally is then a harmless double-stop.
            installed.profiler.stop()
            metrics_snapshot = installed.metrics.snapshot()
            span_tree = installed.tracer.tree().to_dict()
            if installed.profiler.enabled:
                profile = installed.profiler.snapshot()
        return _ShardResult(
            partials=partials,
            quarantine=dataset.quarantine,
            stats=AnalysisShardStats(
                shard=shard,
                proxy_records=len(dataset.proxy_records),
                mme_records=len(dataset.mme_records),
                elapsed_seconds=elapsed,
                metrics_snapshot=metrics_snapshot,
                span_tree=span_tree,
                profile=profile,
            ),
        )
    finally:
        if sampler is not None:
            sampler.stop()
        if installed is not None:
            obs.install(previous)
            installed.close()


@dataclass
class ParallelAnalysisRun:
    """The merged report plus per-shard accounting."""

    report: StudyReport
    shard_stats: list[AnalysisShardStats]
    #: worker count actually used (after clamping to the shard count).
    workers: int = 1

    @property
    def proxy_rows(self) -> int:
        return sum(s.proxy_records for s in self.shard_stats)

    @property
    def mme_rows(self) -> int:
        return sum(s.mme_records for s in self.shard_stats)

    @property
    def peak_resident_records(self) -> int:
        """Largest record count any single worker held in memory —
        the pipeline's memory bound (O(largest shard), not O(trace))."""
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
    """Map-reduce the full study over account shards.

    ``workers=1`` is the fully serial fallback (same partials, same
    merge order, same report — bit-for-bit).  ``lenient=True`` loads
    each shard with quarantine-and-continue ingestion; every worker
    observes the identical full-stream defects, so the report carries
    the same quarantine accounting as a serial lenient load.

    ``format`` selects the log encoding to load (``auto`` / ``csv`` /
    ``bin``); binary traces use per-block shard headers to skip other
    shards' blocks without decompressing them.
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    base = Path(trace_dir)
    if workers is None:
        workers = min(shards, os.cpu_count() or 1)
    workers = max(1, min(workers, shards))

    observe = obs.enabled()
    parent_pid = os.getpid()
    active_events = obs.events()
    events_path = str(active_events.path) if active_events.enabled else None
    active_profiler = obs.profiler()
    profile_hz = active_profiler.hz if active_profiler.enabled else None
    payloads = [
        _AnalysisPayload(
            trace_dir=str(base),
            shard=shard,
            shards=shards,
            lenient=lenient,
            observe=observe,
            parent_pid=parent_pid,
            events_path=events_path,
            format=format,
            profile_hz=profile_hz,
        )
        for shard in range(shards)
    ]

    # NOTE: like the engine, ``workers`` is deliberately NOT a span
    # attribute — the span *tree* must be identical for any worker count.
    with obs.span("analyze.parallel", shards=shards):
        with obs.span("analyze.shards"):
            if workers <= 1:
                results = [_analyze_shard(payload) for payload in payloads]
            else:
                with ProcessPoolExecutor(max_workers=workers) as pool:
                    results = list(pool.map(_analyze_shard, payloads))
            results.sort(key=lambda item: item.stats.shard)
            if obs.enabled():
                registry = obs.metrics()
                tracer = obs.tracer()
                profiler = obs.profiler()
                for result in results:
                    if result.stats.metrics_snapshot is not None:
                        registry.merge_snapshot(result.stats.metrics_snapshot)
                    if result.stats.span_tree is not None:
                        tracer.attach_subtree(result.stats.span_tree)
                    if result.stats.profile is not None:
                        profiler.merge(result.stats.profile)

        with obs.span("analyze.merge"):
            merged = results[0].partials
            for result in results[1:]:
                merged.merge(result.partials)

        with obs.span("analyze.finalize"):
            catalog = app_catalog or builtin_app_catalog()
            app_categories = {app.name: app.category for app in catalog}
            window, device_db = _load_finalize_artifacts(base)
            report = merged.finalize(
                window,
                device_db,
                app_categories,
                quarantine=results[0].quarantine,
            )

    stats = [result.stats for result in results]
    if obs.enabled():
        registry = obs.metrics()
        registry.gauge("repro_analysis_shards").set(shards)
        registry.gauge("repro_analysis_workers").set(workers)
        registry.gauge("repro_analysis_peak_resident_records").set(
            max((s.resident_records for s in stats), default=0)
        )
    return ParallelAnalysisRun(report=report, shard_stats=stats, workers=workers)


def _load_finalize_artifacts(
    base: Path,
) -> tuple[StudyWindow, DeviceDatabase]:
    """The side artefacts the reduce step needs (no log records)."""
    import json

    with (base / "metadata.json").open("r", encoding="utf-8") as handle:
        meta = json.load(handle)
    window = StudyWindow(
        study_start=float(meta["study_start"]),
        total_days=int(meta["total_days"]),
        detailed_days=int(meta["detailed_days"]),
    )
    device_db = DeviceDatabase.read_csv(base / "devices.csv")
    return window, device_db
