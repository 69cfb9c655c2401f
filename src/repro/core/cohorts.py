"""Adoption-cohort retention analysis (extends §4.1).

Fig. 2(b) compares exactly two snapshots: the first week against the last.
A longitudinal ISP would track the full retention surface — for each
*adoption cohort* (users first registered in week *w*), the fraction still
registering 1, 2, 3 … weeks later — plus a survival curve over all users.
This module computes both from the same MME log, generalising the paper's
single data point: the wearable rows (:attr:`StudyDataset.wearable_mme_mask`)
and their study days (:attr:`StudyDataset.mme_days`) reduced to each
subscriber's distinct registration weeks.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from repro.core.dataset import StudyDataset
from repro.logs.columns import distinct


@dataclass(frozen=True, slots=True)
class CohortRow:
    """Retention of one adoption cohort."""

    cohort_week: int
    size: int
    #: retention[k] = fraction of the cohort registering in week
    #: cohort_week + k (retention[0] == 1.0 by construction).
    retention: tuple[float, ...]


@dataclass(frozen=True, slots=True)
class CohortResult:
    """The retention surface plus aggregate curves."""

    cohorts: list[CohortRow]
    #: Mean retention at each week-offset, weighted by cohort size,
    #: over cohorts that can be observed that far.
    mean_retention_by_offset: list[float]
    #: Fraction of all users whose last registration is >= k weeks after
    #: their first (survival function over user lifetime).
    lifetime_survival: list[float]
    #: Users observed in total.
    total_users: int


def analyze_cohorts(
    dataset: StudyDataset,
    max_offset_weeks: int | None = None,
) -> CohortResult:
    """Compute cohort retention from wearable MME registrations."""
    window = dataset.window
    total_weeks = window.total_days // 7
    if total_weeks < 2:
        raise ValueError("need at least two observed weeks")
    if max_offset_weeks is None:
        max_offset_weeks = total_weeks - 1

    # Each wearable SIM's distinct registration weeks, by subscriber code
    # and then week; ``first`` and ``last`` bound each subscriber's run.
    rows = np.flatnonzero(dataset.wearable_mme_mask)
    days = dataset.mme_days[rows]
    kept = (days >= 0) & (days < total_weeks * 7)
    subscriber, week = distinct(
        dataset.mme.column("subscriber_id").codes[rows[kept]], days[kept] // 7
    )
    if not len(subscriber):
        raise ValueError("no wearable registrations observed")
    first = np.flatnonzero(np.append(True, subscriber[1:] != subscriber[:-1]))
    last = np.append(first[1:], len(subscriber)) - 1
    cohort = np.repeat(week[first], last - first + 1)
    # alive[c][k]: members of cohort c registering k weeks after joining.
    alive = np.zeros((total_weeks, total_weeks), dtype=np.int64)
    np.add.at(alive, (cohort, week - cohort), 1)
    alive = alive.tolist()

    cohorts: list[CohortRow] = []
    offset_weighted: dict[int, float] = defaultdict(float)
    offset_weight: dict[int, int] = defaultdict(int)
    for cohort_week in np.unique(week[first]).tolist():
        size = alive[cohort_week][0]
        horizon = min(max_offset_weeks, total_weeks - 1 - cohort_week)
        retention: list[float] = []
        for offset in range(horizon + 1):
            fraction = alive[cohort_week][offset] / size
            retention.append(fraction)
            offset_weighted[offset] += fraction * size
            offset_weight[offset] += size
        cohorts.append(
            CohortRow(
                cohort_week=cohort_week,
                size=size,
                retention=tuple(retention),
            )
        )

    mean_retention = [
        offset_weighted[offset] / offset_weight[offset]
        for offset in sorted(offset_weight)
    ]

    lifetimes = (week[last] - week[first]).tolist()
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
