"""The row bodies trace validation and the two extensions ran, as oracles.

:func:`~repro.logs.validate.validate_trace`,
:func:`~repro.core.cohorts.analyze_cohorts` and
:func:`~repro.core.throughdevice_full.analyze_through_device_full` read a
dataset's column tables.  Below are the row loops they replaced, kept
verbatim the way ``tests/core/scrub_oracle.py`` keeps the row scrubber
and ``tests/core/test_cross_row_folds.py`` the cross-row folds.  They
take the rows explicitly, in table order, and split them into wearable
and phone rows with the dataset's TAC rule (§3.2) where the bodies read
the dataset's row partitions.
"""

from __future__ import annotations

from collections import defaultdict

from repro.core.cohorts import CohortResult, CohortRow
from repro.core.mobility import build_timelines
from repro.core.throughdevice import TD_FINGERPRINT_HOSTS
from repro.core.throughdevice_full import (
    GroupBehaviour,
    ThroughDeviceFullResult,
    _cosine,
    _hourly_share,
)
from repro.devicedb.tac import IMEI_LENGTH
from repro.logs.quarantine import Issue, IssueSet
from repro.logs.timeutil import hour_of_day
from repro.logs.validate import WINDOW_SLACK_S, ValidationReport
from repro.stats.cdf import ECDF
from repro.stats.entropy import dwell_weighted_entropy
from repro.stats.geo import GeoPoint, max_displacement_km
from tests.core.helpers import phone_rows, wearable_rows


def reference_validate(dataset, proxy_rows, mme_rows) -> ValidationReport:
    issues = IssueSet()
    window = dataset.window
    directory = dataset.account_directory
    sector_map = dataset.sector_map
    device_db = dataset.device_db
    lo = window.study_start
    hi = window.study_end + WINDOW_SLACK_S

    previous = float("-inf")
    for index, record in enumerate(proxy_rows):
        where = f"proxy[{index}]"
        if record.timestamp < previous:
            issues.record(
                "proxy-order", "proxy records out of time order", where
            )
        previous = record.timestamp
        if not lo <= record.timestamp < hi:
            issues.record(
                "proxy-window",
                "proxy timestamp outside the declared window",
                f"{where} ts={record.timestamp}",
            )
        if len(record.imei) != IMEI_LENGTH or not record.imei.isdigit():
            issues.record(
                "proxy-imei", "malformed IMEI in proxy log", f"{where} {record.imei!r}"
            )
        elif device_db.lookup_imei(record.imei) is None:
            issues.record(
                "proxy-tac",
                "proxy IMEI with TAC unknown to the device database",
                f"{where} tac={record.imei[:8]}",
            )
        if record.subscriber_id not in directory:
            issues.record(
                "proxy-subscriber",
                "proxy subscriber missing from the billing directory",
                f"{where} {record.subscriber_id}",
            )

    previous = float("-inf")
    for index, record in enumerate(mme_rows):
        where = f"mme[{index}]"
        if record.timestamp < previous:
            issues.record("mme-order", "MME records out of time order", where)
        previous = record.timestamp
        if not lo <= record.timestamp < hi:
            issues.record(
                "mme-window",
                "MME timestamp outside the declared window",
                f"{where} ts={record.timestamp}",
            )
        if record.sector_id not in sector_map:
            issues.record(
                "mme-sector",
                "MME sector missing from the cell plan",
                f"{where} {record.sector_id}",
            )
        if record.subscriber_id not in directory:
            issues.record(
                "mme-subscriber",
                "MME subscriber missing from the billing directory",
                f"{where} {record.subscriber_id}",
            )
        if len(record.imei) != IMEI_LENGTH or not record.imei.isdigit():
            issues.record(
                "mme-imei", "malformed IMEI in MME log", f"{where} {record.imei!r}"
            )

    merged: list[Issue] = []
    rows_quarantined = 0
    if dataset.quarantine is not None:
        merged.extend(dataset.quarantine.issues)
        rows_quarantined = dataset.quarantine.total_quarantined
    merged.extend(issues.to_list())

    return ValidationReport(
        proxy_records=len(proxy_rows),
        mme_records=len(mme_rows),
        issues=merged,
        rows_quarantined=rows_quarantined,
    )


def reference_cohorts(dataset, mme_rows, max_offset_weeks=None) -> CohortResult:
    window = dataset.window
    total_weeks = window.total_days // 7
    if total_weeks < 2:
        raise ValueError("need at least two observed weeks")
    if max_offset_weeks is None:
        max_offset_weeks = total_weeks - 1

    user_weeks: dict[str, set[int]] = defaultdict(set)
    for record in wearable_rows(dataset, mme_rows):
        day = window.day_of(record.timestamp)
        if not 0 <= day < total_weeks * 7:
            continue
        user_weeks[record.subscriber_id].add(day // 7)

    if not user_weeks:
        raise ValueError("no wearable registrations observed")

    cohort_members: dict[int, list[str]] = defaultdict(list)
    for subscriber, weeks in user_weeks.items():
        cohort_members[min(weeks)].append(subscriber)

    cohorts: list[CohortRow] = []
    offset_weighted: dict[int, float] = defaultdict(float)
    offset_weight: dict[int, int] = defaultdict(int)
    for cohort_week in sorted(cohort_members):
        members = cohort_members[cohort_week]
        horizon = min(max_offset_weeks, total_weeks - 1 - cohort_week)
        retention: list[float] = []
        for offset in range(horizon + 1):
            alive = sum(
                1
                for subscriber in members
                if cohort_week + offset in user_weeks[subscriber]
            )
            fraction = alive / len(members)
            retention.append(fraction)
            offset_weighted[offset] += fraction * len(members)
            offset_weight[offset] += len(members)
        cohorts.append(
            CohortRow(
                cohort_week=cohort_week,
                size=len(members),
                retention=tuple(retention),
            )
        )

    mean_retention = [
        offset_weighted[offset] / offset_weight[offset]
        for offset in sorted(offset_weight)
    ]

    lifetimes = [
        (max(weeks) - min(weeks)) for weeks in user_weeks.values()
    ]
    n = len(lifetimes)
    survival = [
        sum(1 for lifetime in lifetimes if lifetime >= k) / n
        for k in range(max(lifetimes) + 1)
    ]

    return CohortResult(
        cohorts=cohorts,
        mean_retention_by_offset=mean_retention,
        lifetime_survival=survival,
        total_users=n,
    )


def reference_through_device_full(
    dataset, proxy_rows, mme_rows
) -> ThroughDeviceFullResult:
    window = dataset.window
    owner_accounts = dataset.wearable_accounts
    fingerprints = set(TD_FINGERPRINT_HOSTS)

    # ---------------------------------------------------------- partitions
    td_users: set[str] = set()
    phone_tx: dict[str, int] = defaultdict(int)
    phone_bytes: dict[str, int] = defaultdict(int)
    phone_daily_bytes: dict[tuple[str, int], int] = defaultdict(int)
    sync_tx = 0
    sync_bytes = 0
    sync_user_days: set[tuple[str, int]] = set()
    sync_hourly = [0] * 24
    for record in phone_rows(dataset, proxy_rows):
        if not window.in_detailed(record.timestamp):
            continue
        if dataset.account_of(record.subscriber_id) in owner_accounts:
            continue
        subscriber = record.subscriber_id
        day = window.day_of(record.timestamp)
        phone_tx[subscriber] += 1
        phone_bytes[subscriber] += record.total_bytes
        phone_daily_bytes[(subscriber, day)] += record.total_bytes
        if record.host in fingerprints:
            td_users.add(subscriber)
            sync_tx += 1
            sync_bytes += record.total_bytes
            sync_user_days.add((subscriber, day))
            sync_hourly[hour_of_day(record.timestamp)] += 1

    if not td_users:
        raise ValueError("no fingerprintable through-device users in trace")
    general_users = set(phone_tx) - td_users

    # ------------------------------------------------------- SIM wearables
    wearable_tx: dict[str, int] = defaultdict(int)
    wearable_bytes: dict[str, int] = defaultdict(int)
    wearable_hourly = [0] * 24
    for record in wearable_rows(dataset, proxy_rows):
        if not window.in_detailed(record.timestamp):
            continue
        wearable_tx[record.subscriber_id] += 1
        wearable_bytes[record.subscriber_id] += record.total_bytes
        wearable_hourly[hour_of_day(record.timestamp)] += 1

    # ------------------------------------------------------------ mobility
    detailed_phone_mme = [
        r
        for r in phone_rows(dataset, mme_rows)
        if window.in_detailed(r.timestamp)
        and dataset.account_of(r.subscriber_id) not in owner_accounts
    ]
    phone_timelines = build_timelines(detailed_phone_mme)
    wearable_timelines = build_timelines(
        r for r in wearable_rows(dataset, mme_rows) if window.in_detailed(r.timestamp)
    )

    def mobility_means(
        users: set[str], timelines
    ) -> tuple[float, float]:
        displacements: list[float] = []
        entropies: list[float] = []
        for subscriber in users:
            timeline = timelines.get(subscriber)
            if timeline is None:
                continue
            per_day: list[float] = []
            for sectors in timeline.daily_sectors(window.study_start).values():
                points: list[GeoPoint] = []
                for sector in sectors:
                    location = dataset.sector_map.get(sector)
                    if location is not None:
                        points.append(location)
                per_day.append(max_displacement_km(points))
            if per_day:
                displacements.append(sum(per_day) / len(per_day))
            entropies.append(
                dwell_weighted_entropy(
                    timeline.dwell_seconds(window.study_start)
                )
            )
        mean_displacement = (
            sum(displacements) / len(displacements) if displacements else 0.0
        )
        mean_entropy = sum(entropies) / len(entropies) if entropies else 0.0
        return mean_displacement, mean_entropy

    days = max(1, window.detailed_days)

    def group(
        users: set[str],
        tx: dict[str, int],
        volume: dict[str, int],
        timelines,
    ) -> GroupBehaviour:
        if not users:
            return GroupBehaviour(0, 0.0, 0.0, 0.0, 0.0)
        displacement, entropy = mobility_means(users, timelines)
        return GroupBehaviour(
            users=len(users),
            mean_daily_tx=sum(tx[u] for u in users) / len(users) / days,
            mean_daily_bytes=sum(volume[u] for u in users) / len(users) / days,
            mean_displacement_km=displacement,
            mean_entropy_bits=entropy,
        )

    sim_users = set(wearable_tx)
    td_group = group(td_users, phone_tx, phone_bytes, phone_timelines)
    general_group = group(general_users, phone_tx, phone_bytes, phone_timelines)
    sim_group = group(sim_users, wearable_tx, wearable_bytes, wearable_timelines)

    def daily_bytes_ecdf(users: set[str]) -> ECDF:
        values = [
            float(total)
            for (subscriber, _day), total in phone_daily_bytes.items()
            if subscriber in users
        ]
        return ECDF(values) if values else ECDF([0.0])

    return ThroughDeviceFullResult(
        sync_tx_per_user_day=sync_tx / max(1, len(sync_user_days)),
        sync_bytes_per_user_day=sync_bytes / max(1, len(sync_user_days)),
        sync_hourly_profile=_hourly_share(sync_hourly),
        daily_bytes_td=daily_bytes_ecdf(td_users),
        daily_bytes_general=daily_bytes_ecdf(general_users),
        through_device=td_group,
        sim_wearable=sim_group,
        general=general_group,
        hourly_similarity_td_vs_sim=_cosine(
            _hourly_share(sync_hourly), _hourly_share(wearable_hourly)
        ),
    )
