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
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.logs.records import MmeRecord
from repro.logs.timeutil import SECONDS_PER_DAY
from repro.stats.cdf import ECDF
from repro.stats.correlation import BinnedTrend


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
