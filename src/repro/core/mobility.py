"""Mobility analysis from MME sector timelines (§4.4, Fig. 4(c-d)).

The MME log gives, per SIM, a time-ordered list of sector attachments.
From it this module rebuilds per-subscriber :class:`SectorTimeline` objects
and derives:

* daily **max displacement** (great-circle distance between the two
  furthest antennas of the day) for wearable users and for the general
  base — Fig. 4(c);
* **dwell-time-weighted Shannon entropy** of visited sectors — the paper's
  "+70% higher entropy" comparison;
* the fraction of data-active wearable users transacting from a **single
  location** (joining proxy timestamps onto the timeline);
* the Fig. 4(d) relation between displacement and hourly transaction rate.

The analysis folds read the MME log as columns: :func:`timeline_rows`
puts a row selection in timeline order (by subscriber, each subscriber's
events stably by timestamp, as :class:`SectorTimeline` sorts them),
:func:`dwell_intervals` applies the :meth:`SectorTimeline.dwell_intervals`
rule to it, :func:`dwell_entropy` and :func:`daily_displacement` reduce
it per subscriber, and :func:`sector_at` is one ``searchsorted`` per
looked-up row.  :class:`SectorTimeline` and :func:`build_timelines`,
the row form, are kept only for the benchmark's traced batch replay.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from math import fsum
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from repro.core.dataset import StudyDataset
from repro.core.folds import _PartialState, _disjoint_update, _general, _int_add
from repro.logs.columns import (
    ColumnTable,
    Dictionary,
    add_counts as _add_counts,
    distinct,
    first_seen,
    group_searchsorted,
    runs,
)
from repro.logs.records import MmeRecord
from repro.logs.timeutil import SECONDS_PER_DAY, day_indices
from repro.simnet.topology import SectorMap
from repro.stats.cdf import ECDF
from repro.stats.correlation import BinnedTrend, binned_means, pearson
from repro.stats.entropy import entropy_bits
from repro.stats.geo import haversine_km


class SectorTimeline:
    """One subscriber's time-ordered sector attachments."""

    def __init__(self, events: Sequence[tuple[float, str]]) -> None:
        if not events:
            raise ValueError("timeline needs at least one event")
        # Sort by timestamp ONLY: Python's sort is stable, so two
        # attachments at the same instant keep their MME record order.
        # Sorting bare tuples would tie-break alphabetically by sector id
        # and ``sector_at`` could report a sector the subscriber already
        # left.
        self._events = sorted(events, key=lambda event: event[0])

    def sector_at(self, timestamp: float) -> str | None:
        """The sector attached at ``timestamp`` (last event at or before).

        Returns None for timestamps before the first event.
        """
        lo, hi = 0, len(self._events)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._events[mid][0] <= timestamp:
                lo = mid + 1
            else:
                hi = mid
        if lo == 0:
            return None
        return self._events[lo - 1][1]

    def daily_sectors(self, study_start: float) -> dict[int, set[str]]:
        """Distinct sectors visited per study day.

        Attachments before ``study_start`` are dropped: floor division
        would file them under negative day indices, silently skewing
        daily max-displacement and distinct-sector counts.
        """
        per_day: dict[int, set[str]] = defaultdict(set)
        for timestamp, sector in self._events:
            if timestamp < study_start:
                continue
            per_day[int((timestamp - study_start) // SECONDS_PER_DAY)].add(sector)
        return dict(per_day)

    def dwell_intervals(
        self, study_start: float
    ) -> list[tuple[str, float, float]]:
        """Attachment intervals ``(sector, start, end)`` in time order.

        Each attachment dwells until the next event or the end of its
        study day, whichever comes first (overnight attachment is not
        extrapolated); zero-length intervals are omitted.  This is the
        interval form of :meth:`dwell_seconds` and the batch-side input
        to the encounter join (:mod:`repro.core.encounters`).
        """
        intervals: list[tuple[str, float, float]] = []
        for index, (timestamp, sector) in enumerate(self._events):
            day_end = (
                study_start
                + (int((timestamp - study_start) // SECONDS_PER_DAY) + 1)
                * SECONDS_PER_DAY
            )
            if index + 1 < len(self._events):
                until = min(self._events[index + 1][0], day_end)
            else:
                until = day_end
            if until > timestamp:
                intervals.append((sector, timestamp, until))
        return intervals

    def dwell_seconds(self, study_start: float) -> dict[str, float]:
        """Total attached time per sector.

        Each attachment dwells until the next event or the end of its day,
        whichever comes first (overnight attachment is not extrapolated).
        """
        dwell: dict[str, float] = defaultdict(float)
        for sector, start, until in self.dwell_intervals(study_start):
            dwell[sector] += until - start
        return dict(dwell)


def build_timelines(
    records: Iterable[MmeRecord],
) -> dict[str, SectorTimeline]:
    """Group MME events into per-subscriber timelines."""
    events: dict[str, list[tuple[float, str]]] = defaultdict(list)
    for record in records:
        events[record.subscriber_id].append((record.timestamp, record.sector_id))
    return {
        subscriber: SectorTimeline(items) for subscriber, items in events.items()
    }


class DwellIntervals(NamedTuple):
    """Dwell intervals as columns, one row per interval."""

    subscriber: Dictionary
    sector: Dictionary
    start: np.ndarray
    end: np.ndarray

    def take(self, rows: np.ndarray) -> "DwellIntervals":
        """The intervals ``rows`` selects (dictionaries kept whole)."""
        return DwellIntervals(
            Dictionary(self.subscriber.codes[rows], self.subscriber.values),
            Dictionary(self.sector.codes[rows], self.sector.values),
            self.start[rows],
            self.end[rows],
        )


def timeline_rows(table: ColumnTable, rows: np.ndarray) -> np.ndarray:
    """MME ``rows`` in timeline order: by subscriber code, each
    subscriber's events stably by timestamp."""
    return rows[
        np.lexsort(
            (table.column("timestamp")[rows], table.column("subscriber_id").codes[rows])
        )
    ]


def dwell_intervals(
    table: ColumnTable, rows: np.ndarray, study_start: float
) -> DwellIntervals:
    """:meth:`SectorTimeline.dwell_intervals` of every subscriber of MME
    ``rows``: each event dwells until the subscriber's next event or the
    end of its study day, whichever comes first, and zero-length
    intervals are omitted.  Each subscriber's intervals come in timeline
    order, subscribers by code."""
    order = timeline_rows(table, rows)
    subscribers = table.column("subscriber_id")
    sectors = table.column("sector_id")
    subscriber = subscribers.codes[order]
    start = table.column("timestamp")[order]
    end = (
        study_start
        + (np.floor_divide(start - study_start, SECONDS_PER_DAY) + 1)
        * SECONDS_PER_DAY
    )
    same = np.flatnonzero(subscriber[1:] == subscriber[:-1])
    end[same] = np.minimum(start[same + 1], end[same])
    keep = end > start
    return DwellIntervals(
        Dictionary(subscriber[keep], subscribers.values),
        Dictionary(sectors.codes[order][keep], sectors.values),
        start[keep],
        end[keep],
    )


def dwell_entropy(intervals: DwellIntervals) -> np.ndarray:
    """:func:`~repro.stats.entropy.dwell_weighted_entropy` of each
    subscriber's :meth:`SectorTimeline.dwell_seconds`, per subscriber
    dictionary entry (0 without intervals): dwell is summed per sector
    in timeline order, sectors taken in first-interval order."""
    width = len(intervals.sector.values)
    keys, pair = first_seen(
        intervals.subscriber.codes.astype(np.int64) * width + intervals.sector.codes
    )
    dwell = np.bincount(
        pair, weights=intervals.end - intervals.start, minlength=len(keys)
    ).tolist()
    entropy = np.zeros(len(intervals.subscriber.values))
    for code, low, high in runs(keys // max(1, width)):
        entropy[code] = entropy_bits(dwell[low:high])
    return entropy


def daily_displacement(
    table: ColumnTable, rows: np.ndarray, study_start: float, sector_map: SectorMap
) -> tuple[np.ndarray, np.ndarray]:
    """Each (subscriber, study day) of MME ``rows`` with the day's max
    displacement (:func:`~repro.stats.geo.max_displacement_km` of its
    distinct sectors' locations), by subscriber code and then day:
    returns the subscriber codes and the displacements.

    Sectors missing from ``sector_map`` are skipped.  Each distinct pair
    of located sectors on one day is measured once; the day's value is
    the largest (0 below two locations)."""
    subscriber, day, sector = distinct(
        table.column("subscriber_id").codes[rows],
        day_indices(table.column("timestamp")[rows], study_start),
        table.column("sector_id").codes[rows],
    )
    new_day = np.ones(len(day), dtype=bool)
    new_day[1:] = (subscriber[1:] != subscriber[:-1]) | (day[1:] != day[:-1])
    group = np.cumsum(new_day) - 1
    points = [sector_map.get(name) for name in table.column("sector_id").values]
    located = np.flatnonzero(
        np.array([point is not None for point in points], dtype=bool)[sector]
    )
    group_of, sector = group[located], sector[located]
    # Every pair of one day's located sectors: each with each later one.
    index = np.arange(len(sector))
    later = np.searchsorted(group_of, group_of, side="right") - index - 1
    first = np.repeat(index, later)
    second = (
        first + 1 + np.arange(len(first)) - np.repeat(np.cumsum(later) - later, later)
    )
    width = len(points)
    keys, pair = np.unique(
        sector[first].astype(np.int64) * width + sector[second], return_inverse=True
    )
    distance = np.array(
        [
            haversine_km(points[key // width], points[key % width])
            for key in keys.tolist()
        ]
    )
    displacement = np.zeros(int(new_day.sum()))
    np.maximum.at(displacement, group_of[first], distance[pair] if len(keys) else 0.0)
    return subscriber[new_day], displacement


def sector_at(
    table: ColumnTable,
    timeline: np.ndarray,
    subscriber: np.ndarray,
    timestamp: np.ndarray,
) -> np.ndarray:
    """:meth:`SectorTimeline.sector_at` for each (subscriber code,
    timestamp): the sector code of the subscriber's last event at or
    before the timestamp among the MME rows ``timeline`` (in timeline
    order), -1 before the first."""
    owner = table.column("subscriber_id").codes[timeline]
    last = (
        group_searchsorted(
            owner, table.column("timestamp")[timeline], subscriber, timestamp, "right"
        )
        - 1
    )
    clipped = np.maximum(last, 0)
    found = (last >= 0) & (owner[clipped] == subscriber)
    return np.where(found, table.column("sector_id").codes[timeline[clipped]], -1)


@dataclass(frozen=True, slots=True)
class MobilityResult:
    """Everything Section 4.4 reports."""

    #: Per user-day max displacement CDFs, km (Fig. 4(c)).
    wearable_daily_displacement: ECDF
    general_daily_displacement: ECDF
    #: Per-user mean daily displacement CDFs, km.
    wearable_user_displacement: ECDF
    general_user_displacement: ECDF
    #: Headline means (paper: 31 km vs 16 km per user; ~20 km per user-day).
    mean_user_displacement_wearable_km: float
    mean_user_displacement_general_km: float
    mean_daily_displacement_wearable_km: float
    #: Fraction of wearable users whose mean daily displacement is under
    #: 30 km (paper: 90%).
    fraction_users_under_30km: float
    #: Dwell-weighted location entropy (bits), means and the ratio the
    #: paper reports as "+70% higher".
    mean_entropy_wearable_bits: float
    mean_entropy_general_bits: float
    entropy_excess_percent: float
    #: Fraction of data-active wearable users whose transactions all come
    #: from one sector (paper: 60%).
    single_tx_location_fraction: float
    #: Fig. 4(d): mean tx-per-active-hour binned by daily displacement.
    displacement_vs_tx_rate: list[BinnedTrend]
    displacement_tx_correlation: float


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
