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

The join as a sharded inverted index
------------------------------------
The cell index is an inverted index ``(sector, bucket) → subscriber →
clipped intervals``.  Each cell is joined independently (all pairs in
the cell, interval-list intersection), so the join partitions perfectly
by *sector*: worker ``s`` of ``n`` builds the index only for sectors
with ``crc32(sector_id) % n == s`` and never sees another worker's
cells.  An encounter event belongs to exactly one cell, hence exactly
one worker — per-shard event counts merge by plain integer addition and
partner sets by union, both exact under the merge contract
(:mod:`repro.core.parallel`).  Peak memory per worker is the pending
map (one entry per live subscriber) plus that worker's sector slice of
the index.

:func:`stream_dwell_intervals` produces the :class:`SectorTimeline`
dwell intervals without materialising timelines: over the canonically
time-ordered MME stream it keeps one pending attachment per subscriber
and closes intervals as the stream advances.  Same-timestamp events keep
MME record order, as they do in the stably sorted timelines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator
from zlib import crc32

from repro.core.dataset import StudyDataset, StudyWindow
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


def _bucket_clips(
    start: float, end: float, study_start: float
) -> Iterator[tuple[int, float, float]]:
    """Clip ``[start, end)`` into ``(bucket, clip_start, clip_end)`` runs.

    Buckets index :data:`BUCKET_SECONDS` windows relative to the study
    start.  An interval ending exactly on a bucket edge does *not* enter
    the next bucket (intervals are half-open).
    """
    first = int((start - study_start) // BUCKET_SECONDS)
    last = int((end - study_start) // BUCKET_SECONDS)
    if (end - study_start) % BUCKET_SECONDS == 0.0:
        last -= 1
    for bucket in range(first, last + 1):
        bucket_start = study_start + bucket * BUCKET_SECONDS
        bucket_end = bucket_start + BUCKET_SECONDS
        yield bucket, max(start, bucket_start), min(end, bucket_end)


def build_cell_index(
    intervals: Iterable[tuple[str, str, float, float]],
    study_start: float,
    *,
    shard: int = 0,
    shards: int = 1,
) -> dict[tuple[str, int], dict[str, list[tuple[float, float]]]]:
    """Time-bucketed per-sector inverted index over dwell intervals.

    ``intervals`` yields ``(subscriber, sector, start, end)``; intervals
    in sectors not owned by ``shard`` (per :func:`sector_shard`) are
    dropped, which is what keeps the sharded join disjoint.  Per-cell
    interval lists preserve input order, so timeline order and canonical
    stream order produce identical cells.
    """
    index: dict[tuple[str, int], dict[str, list[tuple[float, float]]]] = {}
    for subscriber, sector, start, end in intervals:
        if shards > 1 and sector_shard(sector, shards) != shard:
            continue
        for bucket, clip_start, clip_end in _bucket_clips(
            start, end, study_start
        ):
            cell = index.setdefault((sector, bucket), {})
            cell.setdefault(subscriber, []).append((clip_start, clip_end))
    return index


def _overlap_seconds(
    left: list[tuple[float, float]], right: list[tuple[float, float]]
) -> float:
    """Total intersection of two sorted disjoint interval lists."""
    total = 0.0
    i = j = 0
    while i < len(left) and j < len(right):
        start = max(left[i][0], right[j][0])
        end = min(left[i][1], right[j][1])
        if end > start:
            total += end - start
        if left[i][1] <= right[j][1]:
            i += 1
        else:
            j += 1
    return total


def join_cells(
    index: dict[tuple[str, int], dict[str, list[tuple[float, float]]]],
    *,
    pair_events: dict[tuple[str, str], int],
    partners: dict[str, set[str]],
    sub_events: dict[str, int],
) -> int:
    """Join every cell of the index into the encounter accumulators.

    All-pairs within a cell, thresholded on total clipped overlap.
    Cells are visited in sorted key order and members in sorted id
    order, so accumulator *insertion* order is canonical (equal inputs
    produce byte-identical partial-state encodings).  Returns the number
    of encounter events found.
    """
    events = 0
    for key in sorted(index):
        cell = index[key]
        if len(cell) < 2:
            continue
        members = sorted(cell)
        for i, a in enumerate(members):
            a_intervals = cell[a]
            for b in members[i + 1 :]:
                if _overlap_seconds(a_intervals, cell[b]) < MIN_OVERLAP_SECONDS:
                    continue
                events += 1
                pair = (a, b)
                pair_events[pair] = pair_events.get(pair, 0) + 1
                sub_events[a] = sub_events.get(a, 0) + 1
                sub_events[b] = sub_events.get(b, 0) + 1
                partners.setdefault(a, set()).add(b)
                partners.setdefault(b, set()).add(a)
    return events


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
    window = dataset.window
    for record in dataset.wearable_mme:
        if window.in_detailed(record.timestamp):
            wearable_subs.add(record.subscriber_id)
    for record in dataset.phone_mme:
        if window.in_detailed(record.timestamp):
            phone_subs.add(record.subscriber_id)
    for record in dataset.proxy_records:
        if not window.in_detailed(record.timestamp):
            continue
        subscriber = record.subscriber_id
        tx_count[subscriber] = tx_count.get(subscriber, 0) + 1
        tx_bytes[subscriber] = tx_bytes.get(subscriber, 0) + record.total_bytes
    for subscriber in sorted(wearable_subs):
        account = dataset.account_of(subscriber)
        if account is not None:
            account_wearables.setdefault(account, set()).add(subscriber)
    for subscriber in sorted(phone_subs):
        account = dataset.account_of(subscriber)
        if account is not None:
            account_phones.setdefault(account, set()).add(subscriber)
