"""Sector-co-presence encounters and their relation to traffic (§ext).

Alipour et al. (PAPERS.md) relate mobile *encounters* — two devices
co-located in time and space — to web-traffic behaviour.  The study's
MME sector attachments and proxy transaction streams are exactly the
inputs needed, so this module adds the first per-*pair* analysis of the
reproduction: sector-co-presence encounter detection as a scalable
spatio-temporal join, plus three figure panels on top of it.

Encounter definition
--------------------
Dwell intervals come from :meth:`SectorTimeline.dwell_intervals` (each
attachment dwells until the next event or the end of its study day).
Time is cut into :data:`BUCKET_SECONDS` buckets relative to the study
start; a dwell interval is clipped into every bucket it overlaps.  Two
subscribers *encounter* each other in cell ``(sector, bucket)`` when the
total intersection of their clipped dwell intervals inside that cell is
at least :data:`MIN_OVERLAP_SECONDS`.  Every qualifying cell contributes
one encounter *event* to the pair; a pair's *partners* relation is the
event-count-agnostic edge set.  Only the detailed window is joined — the
rest of the study has no per-transaction proxy rows to correlate
against.

The join as a sharded column kernel
-----------------------------------
The cell index is an inverted index ``(sector, bucket) → subscriber →
clipped intervals``, held as numpy columns (:class:`CellIndex`): one row
per clip, stably sorted by (sector, bucket, subscriber) with subscribers
and sectors coded in sorted string order, so a cell's members appear in
sorted id order and a member's clips in input order.  Each cell is
joined independently (all member pairs, interval-list intersection), so
the join partitions perfectly by *sector*: worker ``s`` of ``n`` indexes
only sectors with ``crc32(sector_id) % n == s`` and never sees another
worker's cells.  An encounter event belongs to exactly one cell, hence
exactly one worker — per-shard event counts merge by plain integer
addition and partner sets by union, both exact under the merge contract
(:mod:`repro.core.parallel`).  Peak memory per worker is its interval
and clip columns and one bounded chunk of candidate pairs.

The join walks every candidate pair's two clip lists in lockstep across
the whole chunk.  Overlaps are summed one at a time in the order of the
classic two-pointer merge walk, so every total — and hence every
:data:`MIN_OVERLAP_SECONDS` decision — is bit-identical to a sequential
Python sum however fractional the endpoints are.

The analysis paths take their intervals as columns from
:func:`repro.core.mobility.dwell_intervals`.  :func:`stream_dwell_intervals`
produces the same intervals without materialising timelines: over the
canonically time-ordered MME stream it keeps one pending attachment per
subscriber and closes intervals as the stream advances.  Same-timestamp
events keep MME record order, as they do in the stably sorted
timelines.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Mapping, ValuesView
from dataclasses import dataclass
from itertools import pairwise
from typing import Iterable, Iterator
from zlib import crc32

import numpy as np

from repro.core.dataset import StudyDataset, StudyWindow
from repro.core.mobility import DwellIntervals
from repro.logs.columns import (
    Dictionary,
    add_counts,
    encode_strings,
    first_seen,
    group_sum,
)
from repro.logs.records import MmeRecord
from repro.logs.timeutil import SECONDS_PER_DAY
from repro.stats.cdf import ECDF
from repro.stats.correlation import BinnedTrend, binned_means, pearson

#: Width of the join's time buckets (one hour, as in Alipour et al.).
BUCKET_SECONDS = 3600.0
#: Minimum co-presence inside one cell to count as an encounter event.
MIN_OVERLAP_SECONDS = 60.0
#: A paired wearable is "fully explained" when at least this fraction of
#: its non-household partners are also partners of its paired phone.
EXPLAINED_THRESHOLD = 0.9

__all__ = [
    "BUCKET_SECONDS",
    "EXPLAINED_THRESHOLD",
    "MIN_OVERLAP_SECONDS",
    "CellIndex",
    "EncountersResult",
    "build_cell_index",
    "join_cells",
    "sector_shard",
    "stream_dwell_intervals",
    "summarize_encounters",
]


def sector_shard(sector_id: str, shards: int) -> int:
    """Shard owning a sector's join cells (``crc32(sector_id) % shards``).

    Deliberately the same hash family as the account partition
    (:func:`repro.logs.io.subscriber_shard`) but keyed on the *sector*:
    encounter pairs straddle billing accounts, so the join stage routes
    by where the encounter happens, not by who is involved.
    """
    return crc32(sector_id.encode("utf-8")) % shards


class CellIndex(Mapping):
    """Read-only ``(sector, bucket) → subscriber → clips`` view over columns.

    Built by :func:`build_cell_index`; every array is read-only.

    * ``sectors`` / ``subscribers``: distinct ids in sorted order; the
      other columns hold positions in them (codes).
    * ``clip_start`` / ``clip_end``: one row per clip, sorted stably by
      (sector, bucket, subscriber) — equal keys keep input order.
    * ``member_clips``: member ``m`` (one subscriber in one cell) owns
      clip rows ``member_clips[m]:member_clips[m + 1]``;
      ``member_subscriber[m]`` is its subscriber code.
    * ``cell_members``: cell ``c`` owns members
      ``cell_members[c]:cell_members[c + 1]``; ``cell_sector[c]`` and
      ``cell_bucket[c]`` are its key.

    Cells iterate in sorted key order.  A cell value is a lazy
    ``subscriber → [(clip_start, clip_end), ...]`` mapping whose
    ``len`` is read from ``cell_members`` without building it.
    """

    __slots__ = (
        "sectors",
        "subscribers",
        "clip_start",
        "clip_end",
        "member_clips",
        "member_subscriber",
        "cell_members",
        "cell_sector",
        "cell_bucket",
    )

    def __init__(
        self,
        sectors: list[str],
        subscribers: list[str],
        sector: np.ndarray,
        bucket: np.ndarray,
        subscriber: np.ndarray,
        clip_start: np.ndarray,
        clip_end: np.ndarray,
    ) -> None:
        """Group clip columns already in (sector, bucket, subscriber) order."""
        new_cell = np.ones(len(sector), dtype=bool)
        new_cell[1:] = (sector[1:] != sector[:-1]) | (bucket[1:] != bucket[:-1])
        new_member = new_cell.copy()
        new_member[1:] |= subscriber[1:] != subscriber[:-1]
        first_clip = np.flatnonzero(new_member)
        first_member = np.flatnonzero(new_cell[first_clip])
        self.sectors = tuple(sectors)
        self.subscribers = np.array(subscribers, dtype=object)
        self.clip_start = clip_start
        self.clip_end = clip_end
        self.member_clips = np.append(first_clip, len(sector))
        self.member_subscriber = subscriber[first_clip]
        self.cell_members = np.append(first_member, len(first_clip))
        self.cell_sector = sector[first_clip[first_member]]
        self.cell_bucket = bucket[first_clip[first_member]]
        for name in self.__slots__[1:]:
            getattr(self, name).flags.writeable = False

    def __len__(self) -> int:
        return len(self.cell_sector)

    def __iter__(self) -> Iterator[tuple[str, int]]:
        sectors = self.sectors
        for sector, bucket in zip(
            self.cell_sector.tolist(), self.cell_bucket.tolist()
        ):
            yield sectors[sector], bucket

    def __getitem__(self, key: tuple[str, int]) -> "_Cell":
        sector, bucket = key
        code = bisect_left(self.sectors, sector)
        if code < len(self.sectors) and self.sectors[code] == sector:
            low, high = np.searchsorted(self.cell_sector, [code, code + 1])
            cell = low + int(np.searchsorted(self.cell_bucket[low:high], bucket))
            if cell < high and self.cell_bucket[cell] == bucket:
                members = self.cell_members
                return _Cell(self, int(members[cell]), int(members[cell + 1]))
        raise KeyError(key)

    def values(self) -> ValuesView:
        return _CellValues(self)


class _Cell(Mapping):
    """One cell: ``subscriber → [(clip_start, clip_end), ...]``."""

    __slots__ = ("_index", "_low", "_high")

    def __init__(self, index: CellIndex, low: int, high: int) -> None:
        self._index = index
        self._low = low
        self._high = high

    def __len__(self) -> int:
        return self._high - self._low

    def __repr__(self) -> str:
        return repr(dict(self))

    def __iter__(self) -> Iterator[str]:
        index = self._index
        codes = index.member_subscriber[self._low : self._high]
        return iter(index.subscribers[codes].tolist())

    def __getitem__(self, subscriber: str) -> list[tuple[float, float]]:
        index = self._index
        for member, name in enumerate(self, self._low):
            if name == subscriber:
                low, high = index.member_clips[member : member + 2].tolist()
                return list(
                    zip(
                        index.clip_start[low:high].tolist(),
                        index.clip_end[low:high].tolist(),
                    )
                )
        raise KeyError(subscriber)


class _CellValues(ValuesView):
    """Cells in key order, sliced off ``cell_members`` without lookups."""

    def __iter__(self) -> Iterator[_Cell]:
        index = self._mapping
        members = index.cell_members.tolist()
        for low, high in zip(members[:-1], members[1:]):
            yield _Cell(index, low, high)


def _sorted_codes(column: Dictionary) -> tuple[list[str], np.ndarray]:
    """The distinct values a dictionary column uses, sorted, and its
    codes remapped to positions in them."""
    present = np.unique(column.codes)
    names = column.values[present].tolist()
    order = sorted(range(len(names)), key=names.__getitem__)
    rank = np.zeros(len(column.values), dtype=np.int64)
    rank[present[order]] = np.arange(len(order))
    return [names[index] for index in order], rank[column.codes]


def build_cell_index(
    intervals: Iterable[tuple[str, str, float, float]],
    study_start: float,
    *,
    shard: int = 0,
    shards: int = 1,
    seen: set[str] | None = None,
) -> CellIndex:
    """Time-bucketed per-sector inverted index over dwell intervals.

    ``intervals`` is :class:`~repro.core.mobility.DwellIntervals`
    columns, or yields ``(subscriber, sector, start, end)`` and is
    drained into columns; ``seen``, when given, collects the subscriber
    of every interval.  Intervals in sectors not owned by ``shard`` (per
    :func:`sector_shard`, decided once per distinct sector) are then
    dropped, which is what keeps the sharded join disjoint.  Each
    interval is clipped into every :data:`BUCKET_SECONDS` bucket it
    overlaps, relative to ``study_start``; intervals are half-open, so
    one ending exactly on a bucket edge stays out of the next bucket.
    The clip arithmetic is the scalar float arithmetic, element-wise:
    bucket ``floor((start - study_start) / BUCKET_SECONDS)`` (Python
    ``//``), clip ``[max(start, edge), min(end, edge + BUCKET_SECONDS))``
    with ``edge = study_start + bucket * BUCKET_SECONDS``.  One stable
    lexsort by (sector, bucket, subscriber) then lays the clips out as
    :class:`CellIndex` describes, so timeline order and canonical stream
    order produce identical cells.
    """
    if not isinstance(intervals, DwellIntervals):
        rows = list(intervals)
        names, sector_ids, starts, ends = zip(*rows) if rows else ([],) * 4
        intervals = DwellIntervals(
            encode_strings(names),
            encode_strings(sector_ids),
            np.array(starts, dtype=np.float64),
            np.array(ends, dtype=np.float64),
        )
    subscribers, subscriber = _sorted_codes(intervals.subscriber)
    sectors, sector = _sorted_codes(intervals.sector)
    start, end = intervals.start, intervals.end
    if seen is not None:
        seen.update(subscribers)
    if shards > 1:
        owned = np.array(
            [sector_shard(name, shards) == shard for name in sectors], dtype=bool
        )
        keep = owned[sector]
        subscriber, sector, start, end = (
            column[keep] for column in (subscriber, sector, start, end)
        )

    first = np.floor_divide(start - study_start, BUCKET_SECONDS).astype(np.int64)
    offset_end = end - study_start
    last = np.floor_divide(offset_end, BUCKET_SECONDS).astype(np.int64)
    last[np.remainder(offset_end, BUCKET_SECONDS) == 0.0] -= 1
    clips = np.maximum(last - first + 1, 0)
    source = np.repeat(np.arange(len(clips)), clips)
    bucket = np.arange(len(source)) - np.repeat(np.cumsum(clips) - clips, clips)
    bucket += first[source]
    order = np.lexsort((subscriber[source], bucket, sector[source]))
    source = source[order]
    bucket = bucket[order]
    del order
    edge = study_start + bucket * BUCKET_SECONDS
    clip_start = np.maximum(start[source], edge)
    edge += BUCKET_SECONDS
    clip_end = np.minimum(end[source], edge, out=edge)
    return CellIndex(
        sectors,
        subscribers,
        sector[source],
        bucket,
        subscriber[source],
        clip_start,
        clip_end,
    )


#: Candidate pairs :func:`join_cells` evaluates per chunk (rounded to
#: whole rows): bounds the join's transient arrays.
_CHUNK_PAIRS = 1 << 15


def _overlap_totals(
    index: CellIndex, first: np.ndarray, second: np.ndarray
) -> np.ndarray:
    """Total clipped overlap of members ``first[k]`` and ``second[k]``.

    The two-pointer merge walk over both members' clip lists, run for
    every pair in lockstep: each round adds the current clips' overlap
    (when positive) to the pair's total and advances the side whose
    clip ends first (the first member's on ties), until either list is
    exhausted.  Each total is the sequential float sum a scalar walk
    produces, term for term.  A pair of single clips finishes after the
    first round, one vectorised min/max.
    """
    clip_start, clip_end = index.clip_start, index.clip_end
    clips = index.member_clips
    left, left_stop = clips[first], clips[first + 1]
    right, right_stop = clips[second], clips[second + 1]
    totals = np.zeros(len(first))
    pair = np.arange(len(first))
    while len(pair):
        left_end = clip_end[left]
        right_end = clip_end[right]
        overlap_start = np.maximum(clip_start[left], clip_start[right])
        overlap_end = np.minimum(left_end, right_end)
        hit = overlap_end > overlap_start
        totals[pair[hit]] += overlap_end[hit] - overlap_start[hit]
        advance_left = left_end <= right_end
        left = left + advance_left
        right = right + ~advance_left
        live = (left < left_stop) & (right < right_stop)
        pair, left, left_stop, right, right_stop = (
            column[live] for column in (pair, left, left_stop, right, right_stop)
        )
    return totals


def join_cells(
    index: CellIndex,
    *,
    pair_events: dict[tuple[str, str], int],
    partners: dict[str, set[str]],
    sub_events: dict[str, int],
) -> int:
    """Join every cell of the index into the encounter accumulators.

    Every pair of members of a cell is a candidate; it is an encounter
    event when :func:`_overlap_totals` reaches
    :data:`MIN_OVERLAP_SECONDS`.  Candidates are enumerated in sorted
    order — cell, then first member, then second member — as *rows*
    (one member with each later member of its cell) and evaluated in
    chunks of whole rows, about :data:`_CHUNK_PAIRS` pairs each, so the
    transient arrays stay bounded however many cells there are.  The
    events reach the accumulators as if added one at a time in that
    order (see :func:`_accumulate`): equal inputs produce byte-identical
    partial-state encodings.  Returns the number of encounter events.
    """
    members = index.cell_members
    row_len = (
        np.repeat(members[1:], np.diff(members))
        - np.arange(len(index.member_subscriber))
        - 1
    )
    rows = np.flatnonzero(row_len)
    row_len = row_len[rows]
    # Chunk k: the rows whose last pair falls in [k, k + 1) · _CHUNK_PAIRS.
    chunk = (np.cumsum(row_len) - 1) // _CHUNK_PAIRS
    bounds = (np.flatnonzero(np.diff(chunk)) + 1).tolist()
    events = 0
    for low, high in pairwise([0, *bounds, len(rows)]):
        lengths = row_len[low:high]
        first = np.repeat(rows[low:high], lengths)
        second = first + 1 + np.arange(len(first)) - np.repeat(
            np.cumsum(lengths) - lengths, lengths
        )
        found = _overlap_totals(index, first, second) >= MIN_OVERLAP_SECONDS
        events += _accumulate(
            index.subscribers,
            index.member_subscriber[first[found]],
            index.member_subscriber[second[found]],
            pair_events=pair_events,
            partners=partners,
            sub_events=sub_events,
        )
    return events


def _accumulate(
    names: np.ndarray,
    first: np.ndarray,
    second: np.ndarray,
    *,
    pair_events: dict[tuple[str, str], int],
    partners: dict[str, set[str]],
    sub_events: dict[str, int],
) -> int:
    """Add the events ``(names[first[k]], names[second[k]])`` in order.

    Each distinct pair is added once, at its first occurrence, with its
    event count.  A key (pair, subscriber or partner-set member) is first
    touched by the first event of some pair, so keys are inserted in the
    same order as when adding events one at a time; a pair's later events
    would only add to counts and re-add set members.  Returns the number
    of events.
    """
    width = len(names)
    keys, first_at, counts = np.unique(
        first * width + second, return_index=True, return_counts=True
    )
    order = np.argsort(first_at)
    keys = keys[order]
    for a, b, count in zip(
        names[keys // width].tolist(),
        names[keys % width].tolist(),
        counts[order].tolist(),
    ):
        pair_events[a, b] = pair_events.get((a, b), 0) + count
        sub_events[a] = sub_events.get(a, 0) + count
        sub_events[b] = sub_events.get(b, 0) + count
        partners.setdefault(a, set()).add(b)
        partners.setdefault(b, set()).add(a)
    return len(first)


def _day_end(timestamp: float, study_start: float) -> float:
    return (
        study_start
        + (int((timestamp - study_start) // SECONDS_PER_DAY) + 1)
        * SECONDS_PER_DAY
    )


def stream_dwell_intervals(
    records: Iterable[MmeRecord],
    window: StudyWindow,
    *,
    seen: set[str] | None = None,
) -> Iterator[tuple[str, str, float, float]]:
    """Dwell intervals from a canonically ordered full MME stream.

    Single pass, O(live subscribers) state: one pending attachment per
    subscriber, closed by that subscriber's next event or its study-day
    end — exactly the :meth:`SectorTimeline.dwell_intervals` rule over
    the detailed window, without materialising timelines.  Yields
    ``(subscriber, sector, start, end)``; a subscriber's intervals come
    out in timeline order (interleaved across subscribers).

    The stream must be in canonical time order (engine traces are
    written sorted; lenient ingestion re-sorts) — a decreasing timestamp
    raises rather than silently mis-closing intervals.  ``seen``, when
    given, collects every subscriber with at least one interval.
    """
    pending: dict[str, tuple[float, str]] = {}
    previous_ts = float("-inf")
    for record in records:
        timestamp = record.timestamp
        if timestamp < previous_ts:
            raise ValueError(
                "MME stream is not in canonical time order "
                f"({timestamp} after {previous_ts})"
            )
        previous_ts = timestamp
        if not window.in_detailed(timestamp):
            continue
        subscriber = record.subscriber_id
        previous = pending.get(subscriber)
        if previous is not None:
            start, sector = previous
            until = min(timestamp, _day_end(start, window.study_start))
            if until > start:
                if seen is not None:
                    seen.add(subscriber)
                yield subscriber, sector, start, until
        pending[subscriber] = (timestamp, record.sector_id)
    for subscriber, (start, sector) in pending.items():
        until = _day_end(start, window.study_start)
        if until > start:
            if seen is not None:
                seen.add(subscriber)
            yield subscriber, sector, start, until


@dataclass(frozen=True, slots=True)
class EncountersResult:
    """The three encounter panels (§ext, Alipour et al. replication)."""

    #: Subscribers contributing at least one dwell interval to the join.
    n_subscribers: int
    #: Distinct encountering pairs / total encounter events.
    n_pairs: int
    n_events: int
    #: Pair mix by SIM class of the two members.
    pairs_wearable_wearable: int
    pairs_wearable_phone: int
    pairs_phone_phone: int
    #: Encounter degree (distinct partners) per subscriber, by class —
    #: zero-degree subscribers included.
    wearable_degree: ECDF
    phone_degree: ECDF
    mean_wearable_degree: float
    mean_phone_degree: float
    #: Panel 1: encounter events vs proxy traffic per wearable
    #: subscriber (Pearson + binned trend over transaction counts, plus
    #: the byte-volume correlation).
    encounter_tx_correlation: float
    encounter_bytes_correlation: float
    encounter_vs_tx_rate: list[BinnedTrend]
    #: Panel 3: through-device contact inference over billing pairs.
    paired_wearables: int
    colocated_with_phone_fraction: float
    mean_explained_fraction: float
    fully_explained_fraction: float


def summarize_encounters(
    *,
    pair_events: dict[tuple[str, str], int],
    partners: dict[str, set[str]],
    sub_events: dict[str, int],
    seen_subscribers: set[str],
    wearable_subs: set[str],
    phone_subs: set[str],
    tx_count: dict[str, int],
    tx_bytes: dict[str, int],
    account_wearables: dict[str, set[str]],
    account_phones: dict[str, set[str]],
) -> EncountersResult:
    """Fold the join + per-account accumulators into the figure panels.

    Every fold iterates *sorted* keys, so equal accumulators produce
    bit-identical results however they were assembled.
    """
    if not wearable_subs or not phone_subs:
        raise ValueError(
            "need detailed-window MME events for both wearable and phone SIMs"
        )

    # Pair mix by class: a subscriber id belongs to exactly one SIM.
    ww = wp = pp = 0
    for a, b in pair_events:
        a_wear = a in wearable_subs
        b_wear = b in wearable_subs
        if a_wear and b_wear:
            ww += 1
        elif a_wear or b_wear:
            wp += 1
        else:
            pp += 1

    wearable_ids = sorted(wearable_subs)
    phone_ids = sorted(phone_subs)
    wearable_degrees = [float(len(partners.get(s, ()))) for s in wearable_ids]
    phone_degrees = [float(len(partners.get(s, ()))) for s in phone_ids]

    # Panel 1: encounter activity vs proxy traffic, wearable subscribers.
    xs = [float(sub_events.get(s, 0)) for s in wearable_ids]
    tx_ys = [float(tx_count.get(s, 0)) for s in wearable_ids]
    byte_ys = [float(tx_bytes.get(s, 0)) for s in wearable_ids]
    tx_correlation = pearson(xs, tx_ys) if len(xs) >= 2 else 0.0
    byte_correlation = pearson(xs, byte_ys) if len(xs) >= 2 else 0.0
    trend = binned_means(xs, tx_ys, bins=8) if xs else []

    # Panel 3: is a wearable's contact graph explained by its paired
    # phone?  Pairing is the billing join — same account, one wearable
    # SIM plus at least one phone SIM.
    paired = 0
    colocated = 0
    explained: list[float] = []
    fully = 0
    for account in sorted(account_wearables):
        phones = account_phones.get(account)
        if not phones:
            continue
        phone_partner_union: set[str] = set()
        for phone in phones:
            phone_partner_union |= partners.get(phone, set())
        for wearable in sorted(account_wearables[account]):
            paired += 1
            contacts = partners.get(wearable, set())
            if contacts & phones:
                colocated += 1
            outside = contacts - phones
            if not contacts:
                continue
            fraction = (
                len(outside & phone_partner_union) / len(outside)
                if outside
                else 1.0
            )
            explained.append(fraction)
            if fraction >= EXPLAINED_THRESHOLD:
                fully += 1

    return EncountersResult(
        n_subscribers=len(seen_subscribers),
        n_pairs=len(pair_events),
        n_events=sum(pair_events.values()),
        pairs_wearable_wearable=ww,
        pairs_wearable_phone=wp,
        pairs_phone_phone=pp,
        wearable_degree=ECDF(wearable_degrees),
        phone_degree=ECDF(phone_degrees),
        mean_wearable_degree=sum(wearable_degrees) / len(wearable_degrees),
        mean_phone_degree=sum(phone_degrees) / len(phone_degrees),
        encounter_tx_correlation=tx_correlation,
        encounter_bytes_correlation=byte_correlation,
        encounter_vs_tx_rate=trend,
        paired_wearables=paired,
        colocated_with_phone_fraction=colocated / paired if paired else 0.0,
        mean_explained_fraction=(
            sum(explained) / len(explained) if explained else 0.0
        ),
        fully_explained_fraction=fully / len(explained) if explained else 0.0,
    )


def consume_classification(
    dataset: StudyDataset,
    *,
    wearable_subs: set[str],
    phone_subs: set[str],
    tx_count: dict[str, int],
    tx_bytes: dict[str, int],
    account_wearables: dict[str, set[str]],
    account_phones: dict[str, set[str]],
) -> None:
    """Fold one dataset's per-account side into the accumulators.

    SIM classification (detailed-window MME by TAC), per-subscriber
    detailed proxy traffic, and the billing pairing maps.  This side
    partitions by *account* — in the parallel path each worker feeds its
    account-shard dataset, and the merged accumulators are exact
    disjoint-key unions.
    """
    mme = dataset.mme
    detailed = dataset.detailed_mme_mask
    wearable = dataset.wearable_mme_mask
    wearable_subs.update(mme.distinct("subscriber_id", detailed & wearable))
    phone_subs.update(mme.distinct("subscriber_id", detailed & ~wearable))
    proxy = dataset.proxy
    rows = np.flatnonzero(dataset.detailed_proxy_mask)
    subscribers = proxy.column("subscriber_id")
    keys, group = first_seen(subscribers.codes[rows])
    names = subscribers.values[keys].tolist()
    add_counts(tx_count, names, np.bincount(group, minlength=len(names)))
    size = proxy.column("bytes_up")[rows] + proxy.column("bytes_down")[rows]
    add_counts(tx_bytes, names, group_sum(group, size, len(names)))
    for subscriber in sorted(wearable_subs):
        account = dataset.account_of(subscriber)
        if account is not None:
            account_wearables.setdefault(account, set()).add(subscriber)
    for subscriber in sorted(phone_subs):
        account = dataset.account_of(subscriber)
        if account is not None:
            account_phones.setdefault(account, set()).add(subscriber)
