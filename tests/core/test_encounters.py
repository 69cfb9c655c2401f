"""Exact-value, boundary and property tests for the encounter join (§ext).

The kernel pieces (bucket clipping, cell index, all-pairs join) are
tested on hand-crafted intervals with known overlap arithmetic and
property-tested against ``reference_join``, a scalar dict-of-dicts
oracle kept here; the panel folds are tested through
``summarize_encounters`` with hand-built accumulators (the simulator
never attaches owner-account phone SIMs to the MME, so panel 3 only
lights up on crafted data); the streaming interval extractor and the
sharded partials are property-tested against their batch counterparts.
"""

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import encounters
from repro.core.encounters import (
    BUCKET_SECONDS,
    MIN_OVERLAP_SECONDS,
    build_cell_index,
    join_cells,
    sector_shard,
    stream_dwell_intervals,
    summarize_encounters,
)
from repro.core.mobility import build_timelines
from repro.core.parallel import EncountersPartial, _sector_intervals
from repro.logs.timeutil import SECONDS_PER_DAY
from repro.stats.cdf import ECDF
from tests.core.helpers import (
    PHONE_IMEI,
    PHONE_IMEI_2,
    WATCH_IMEI,
    WATCH_IMEI_2,
    day_ts,
    make_dataset,
    make_window,
    mme,
    panel,
    proxy,
)

D = 14  # first detailed day
HOUR = BUCKET_SECONDS


def run_join(intervals, study_start=0.0):
    """Index + join hand-crafted ``(sub, sector, start, end)`` intervals."""
    index = build_cell_index(intervals, study_start)
    pair_events: dict[tuple[str, str], int] = {}
    partners: dict[str, set[str]] = {}
    sub_events: dict[str, int] = {}
    events = join_cells(
        index, pair_events=pair_events, partners=partners, sub_events=sub_events
    )
    return events, pair_events, partners, sub_events


def reference_join(intervals, study_start, *, shard=0, shards=1):
    """Scalar oracle: dict-of-dicts cell index plus a two-pointer merge walk.

    Returns ``(index, events, pair_events, partners, sub_events)``, the
    accumulators filled one event at a time.
    """
    index: dict = {}
    for sub, sector, start, end in intervals:
        if shards > 1 and sector_shard(sector, shards) != shard:
            continue
        first = int((start - study_start) // HOUR)
        last = int((end - study_start) // HOUR)
        if (end - study_start) % HOUR == 0.0:
            last -= 1
        for bucket in range(first, last + 1):
            edge = study_start + bucket * HOUR
            clip = (max(start, edge), min(end, edge + HOUR))
            index.setdefault((sector, bucket), {}).setdefault(sub, []).append(clip)
    events, pair_events, partners, sub_events = 0, {}, {}, {}
    for key in sorted(index):
        cell = index[key]
        members = sorted(cell)
        for n, a in enumerate(members):
            for b in members[n + 1 :]:
                left, right = cell[a], cell[b]
                total, i, j = 0.0, 0, 0
                while i < len(left) and j < len(right):
                    start = max(left[i][0], right[j][0])
                    end = min(left[i][1], right[j][1])
                    if end > start:
                        total += end - start
                    if left[i][1] <= right[j][1]:
                        i += 1
                    else:
                        j += 1
                if total < MIN_OVERLAP_SECONDS:
                    continue
                events += 1
                pair_events[a, b] = pair_events.get((a, b), 0) + 1
                sub_events[a] = sub_events.get(a, 0) + 1
                sub_events[b] = sub_events.get(b, 0) + 1
                partners.setdefault(a, set()).add(b)
                partners.setdefault(b, set()).add(a)
    return index, events, pair_events, partners, sub_events


class TestJoinKernel:
    def test_simple_overlap_is_one_event(self):
        events, pairs, partners, sub_events = run_join(
            [("a", "S", 0.0, 1800.0), ("b", "S", 900.0, 2000.0)]
        )
        assert events == 1
        assert pairs == {("a", "b"): 1}
        assert partners == {"a": {"b"}, "b": {"a"}}
        assert sub_events == {"a": 1, "b": 1}

    def test_below_threshold_is_ignored(self):
        events, pairs, _, _ = run_join(
            [("a", "S", 0.0, 1800.0), ("b", "S", 1750.0, 1800.0)]
        )
        assert events == 0 and pairs == {}

    def test_exactly_threshold_counts(self):
        events, _, _, _ = run_join(
            [
                ("a", "S", 0.0, MIN_OVERLAP_SECONDS),
                ("b", "S", 0.0, MIN_OVERLAP_SECONDS),
            ]
        )
        assert events == 1

    def test_different_sectors_never_meet(self):
        events, _, _, _ = run_join(
            [("a", "S", 0.0, 1800.0), ("b", "T", 0.0, 1800.0)]
        )
        assert events == 0

    def test_cohabiting_cell_with_empty_overlap(self):
        # Same cell, disjoint time: candidate pair, zero intersection.
        events, pairs, _, _ = run_join(
            [("a", "S", 0.0, 100.0), ("b", "S", 200.0, 300.0)]
        )
        assert events == 0 and pairs == {}

    def test_overlap_spanning_bucket_edge_counts_per_cell(self):
        # [3500, 3700) × 2 → 100 s in bucket 0 and 100 s in bucket 1.
        events, pairs, _, sub_events = run_join(
            [("a", "S", 3500.0, 3700.0), ("b", "S", 3500.0, 3700.0)]
        )
        assert events == 2
        assert pairs == {("a", "b"): 2}
        assert sub_events == {"a": 2, "b": 2}

    def test_interval_ending_on_edge_stays_out_of_next_bucket(self):
        # Half-open intervals: a ends exactly where b begins — they never
        # share a cell, let alone a second of overlap.
        events, pairs, _, _ = run_join(
            [("a", "S", 0.0, HOUR), ("b", "S", HOUR, 2 * HOUR)]
        )
        assert events == 0 and pairs == {}

    def test_bucket_grid_is_anchored_at_study_start(self):
        start = 12_345.0
        events, _, _, _ = run_join(
            [("a", "S", start, start + 100.0), ("b", "S", start, start + 100.0)],
            study_start=start,
        )
        assert events == 1

    def test_threshold_reached_only_across_two_clips(self):
        # a leaves S for T and comes back: its two S clips overlap b by
        # 30.5 s and 29.5 s, exactly 60 s together and < 60 s apiece.
        intervals = [
            ("a", "S", 0.0, 30.5),
            ("a", "T", 30.5, 100.0),
            ("a", "S", 100.0, 129.5),
            ("b", "S", 0.0, 200.0),
        ]
        assert build_cell_index(intervals, 0.0)["S", 0]["a"] == [
            (0.0, 30.5),
            (100.0, 129.5),
        ]
        events, pairs, _, _ = run_join(intervals)
        assert events == 1 and pairs == {("a", "b"): 1}
        short = intervals[:2] + [("a", "S", 100.0, 129.25), intervals[3]]
        events, pairs, _, _ = run_join(short)
        assert events == 0 and pairs == {}

    def test_overlaps_sum_in_merge_walk_order(self):
        # a's three S clips lie inside b's one: walk order sums 4.8, 13.9
        # and 41.3 (as floats) to exactly 60.0; summing the last two
        # first would round to just below and miss the threshold.
        clips = [(6.2, 11.0), (26.0, 39.9), (76.3, 117.6)]
        overlaps = [end - start for start, end in clips]
        assert (overlaps[0] + overlaps[1]) + overlaps[2] == 60.0
        assert overlaps[0] + (overlaps[1] + overlaps[2]) < 60.0
        intervals = [("b", "S", 0.0, 200.0)]
        for (start, end), (after, _) in zip(clips, clips[1:] + [(200.0, 0)]):
            intervals += [("a", "S", start, end), ("a", "T", end, after)]
        events, pairs, _, _ = run_join(intervals)
        assert events == 1 and pairs == {("a", "b"): 1}

    def test_unsorted_clips_follow_the_merge_walk(self):
        # Clips out of time order: on the tie at 3600 the walk advances
        # a's list and still meets a's second clip, 30 + 30 = 60 s.
        intervals = [
            ("a", "S", 3570.0, 3600.0),
            ("a", "S", 1500.0, 1530.0),
            ("b", "S", 1000.0, 3600.0),
        ]
        _, *expected = reference_join(intervals, 0.0)
        assert expected[0] == 1
        assert list(run_join(intervals)) == expected

    def test_cell_member_counts(self):
        index = build_cell_index(
            [
                ("c", "S", 0.0, 10.0),
                ("a", "S", 5.0, 4000.0),
                ("b", "T", 0.0, 10.0),
                ("a", "S", 4000.0, 4010.0),
            ],
            0.0,
        )
        assert len(index) == 3
        assert list(index) == [("S", 0), ("S", 1), ("T", 0)]
        assert [len(cell) for cell in index.values()] == [2, 1, 1]
        assert list(index["S", 0]) == ["a", "c"]
        assert index["S", 1]["a"] == [(3600.0, 4000.0), (4000.0, 4010.0)]
        assert ("S", 2) not in index and ("U", 0) not in index

    def test_singleton_cells_are_skipped(self):
        events, _, _, _ = run_join([("a", "S", 0.0, 7200.0)])
        assert events == 0

    def test_sector_routing_partitions_cells(self):
        intervals = [
            (sub, sector, 0.0, 1800.0)
            for sub in ("a", "b")
            for sector in ("HOME", "WORK", "FAR", "X", "Y")
        ]
        full = build_cell_index(intervals, 0.0)
        shards = 3
        slices = [
            build_cell_index(intervals, 0.0, shard=s, shards=shards)
            for s in range(shards)
        ]
        merged: dict = {}
        for piece in slices:
            assert not (set(piece) & set(merged))
            merged.update(piece)
        assert merged == full
        for s, piece in enumerate(slices):
            assert all(
                sector_shard(sector, shards) == s for sector, _ in piece
            )


def _ordered(mapping):
    return list(mapping.items())


# Offsets into a three-hour window: bucket edges, half seconds and
# arbitrary fractional seconds.
_POINT = st.one_of(
    st.integers(min_value=0, max_value=3).map(lambda k: k * HOUR),
    st.integers(min_value=0, max_value=3 * int(HOUR)).map(lambda s: s + 0.5),
    st.floats(min_value=0.0, max_value=3 * HOUR, allow_nan=False),
)
_SUBS = st.sampled_from(["a", "b", "c", "d", "e"])
_SECTORS = st.sampled_from(["HOME", "WORK", "FAR"])


@st.composite
def _dwell_chains(draw):
    """Per-subscriber dwell chains: sorted touching intervals hopping
    between sectors (the shape ``stream_dwell_intervals`` yields), in
    input order interleaved across subscribers, optionally shuffled."""
    intervals = []
    for sub in draw(st.lists(_SUBS, min_size=2, max_size=5, unique=True)):
        points = sorted(set(draw(st.lists(_POINT, min_size=2, max_size=8))))
        for start, end in zip(points, points[1:]):
            intervals.append((sub, draw(_SECTORS), start, end))
    if draw(st.booleans()):
        intervals = draw(st.permutations(intervals))
    return intervals


class TestKernelMatchesReference:
    @given(
        intervals=_dwell_chains(),
        shards=st.sampled_from([1, 2, 3, 4, 7]),
        data=st.data(),
        chunk=st.integers(min_value=1, max_value=6),
        study_start=st.sampled_from([0.0, 0.1, 1_514_764_800.0, 1_514_764_800.1]),
    )
    @settings(max_examples=200, deadline=None)
    def test_index_and_accumulators_equal_reference(
        self, intervals, shards, data, chunk, study_start
    ):
        shard = data.draw(st.integers(min_value=0, max_value=shards - 1))
        intervals = [
            (sub, sector, study_start + start, study_start + end)
            for sub, sector, start, end in intervals
        ]
        index, events, pairs, partners, sub_events = reference_join(
            intervals, study_start, shard=shard, shards=shards
        )
        got = build_cell_index(
            iter(intervals), study_start, shard=shard, shards=shards
        )
        assert {key: dict(cell) for key, cell in got.items()} == index
        assert [len(cell) for cell in got.values()] == [
            len(index[key]) for key in sorted(index)
        ]
        got_pairs: dict = {}
        got_partners: dict = {}
        got_sub_events: dict = {}
        # Chunks of a few pairs put chunk boundaries inside the data.
        with mock.patch.object(encounters, "_CHUNK_PAIRS", chunk):
            got_events = join_cells(
                got,
                pair_events=got_pairs,
                partners=got_partners,
                sub_events=got_sub_events,
            )
        assert got_events == events
        assert _ordered(got_pairs) == _ordered(pairs)
        assert _ordered(got_sub_events) == _ordered(sub_events)
        assert [(sub, list(met)) for sub, met in got_partners.items()] == [
            (sub, list(met)) for sub, met in partners.items()
        ]


class TestStreamDwellIntervals:
    def test_rejects_decreasing_timestamps(self):
        records = [
            mme(day_ts(D, 100.0), "a"),
            mme(day_ts(D, 50.0), "a"),
        ]
        with pytest.raises(ValueError, match="canonical time order"):
            list(stream_dwell_intervals(iter(records), make_window()))

    def test_last_attachment_dwells_until_day_end(self):
        records = [mme(day_ts(D, 80_000.0), "a", sector="HOME")]
        out = list(stream_dwell_intervals(iter(records), make_window()))
        assert out == [("a", "HOME", day_ts(D, 80_000.0), day_ts(D + 1))]

    def test_outside_detailed_window_is_ignored(self):
        seen: set[str] = set()
        records = [mme(day_ts(2, 100.0), "a")]  # summary-only period
        out = list(
            stream_dwell_intervals(iter(records), make_window(), seen=seen)
        )
        assert out == [] and seen == set()

    def test_seen_collects_contributors(self):
        seen: set[str] = set()
        records = [
            mme(day_ts(D, 0.0), "a", sector="HOME"),
            mme(day_ts(D, 100.0), "b", sector="WORK"),
        ]
        list(stream_dwell_intervals(iter(records), make_window(), seen=seen))
        assert seen == {"a", "b"}


# Small pools force subscriber collisions (multi-event timelines) and
# same-timestamp ties; two days of offsets exercise the day-end close.
_EVENTS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2 * int(SECONDS_PER_DAY) - 1),
        st.sampled_from(["a", "b", "c", "d"]),
        st.sampled_from(["HOME", "WORK", "FAR"]),
    ),
    min_size=1,
    max_size=30,
)


def _records(events):
    """Canonically ordered MME records, ties keeping generation order."""
    return sorted(
        (
            mme(day_ts(D, offset), sub, sector=sector)
            for offset, sub, sector in events
        ),
        key=lambda r: r.timestamp,
    )


class TestStreamMatchesBatch:
    @given(events=_EVENTS)
    @settings(max_examples=50, deadline=None)
    def test_stream_equals_timeline_intervals(self, events):
        window = make_window()
        records = _records(events)
        streamed: dict[str, list] = {}
        for sub, sector, start, end in stream_dwell_intervals(
            iter(records), window
        ):
            streamed.setdefault(sub, []).append((sector, start, end))
        timelines = build_timelines(records)
        batch = {
            sub: timeline.dwell_intervals(window.study_start)
            for sub, timeline in timelines.items()
        }
        batch = {sub: ivs for sub, ivs in batch.items() if ivs}
        assert streamed == batch


class TestShardedPartials:
    @given(events=_EVENTS, shards=st.sampled_from([2, 3, 5, 7]))
    @settings(max_examples=40, deadline=None)
    def test_sharded_union_equals_serial_join(self, events, shards):
        """The intervals ``analyze_parallel`` routes to each shard,
        joined per shard and merged, equal one join of the stream."""
        window = make_window()
        records = _records(events)
        serial = EncountersPartial()
        serial.consume_intervals(
            stream_dwell_intervals(iter(records), window), window.study_start
        )
        pieces = []
        for intervals in _sector_intervals(make_dataset([], records), shards):
            piece = EncountersPartial()
            piece.consume_intervals(intervals, window.study_start)
            pieces.append(piece)
        # Events are disjoint across shards: per-shard event counts sum
        # to the serial total with nothing double-counted.
        assert sum(
            sum(p.pair_events.values()) for p in pieces
        ) == sum(serial.pair_events.values())
        merged = pieces[0]
        for piece in pieces[1:]:
            merged.merge(piece)
        assert merged.pair_events == serial.pair_events
        assert merged.partners == serial.partners
        assert merged.sub_events == serial.sub_events
        assert merged.seen_subscribers == serial.seen_subscribers

    @given(events=_EVENTS, seed=st.integers(min_value=0, max_value=99))
    @settings(max_examples=25, deadline=None)
    def test_merge_order_is_immaterial(self, events, seed):
        window = make_window()
        shards = 4
        routed = _sector_intervals(make_dataset([], _records(events)), shards)

        def build(order):
            pieces = []
            for shard in order:
                piece = EncountersPartial()
                piece.consume_intervals(routed[shard], window.study_start)
                pieces.append(piece)
            merged = pieces[0]
            for piece in pieces[1:]:
                merged.merge(piece)
            return merged.to_state()

        order = list(range(shards))
        shuffled = order[:]
        random.Random(seed).shuffle(shuffled)
        assert build(order) == build(shuffled)


def two_household_mme():
    """Two parallel trajectories plus a stranger and a loner.

    Day ``D``: wearable ``w1`` and its account-mate phone ``p1`` move
    HOME → FAR together at +2 h; stranger phone ``s1`` shows up at HOME
    at +1 h then spends the rest of the day at WORK with wearable
    ``w2``.
    """
    return [
        mme(day_ts(D, 0.0), "w1", imei=WATCH_IMEI, sector="HOME"),
        mme(day_ts(D, 0.0), "p1", imei=PHONE_IMEI, sector="HOME"),
        mme(day_ts(D, 0.0), "w2", imei=WATCH_IMEI_2, sector="WORK"),
        mme(day_ts(D, HOUR), "s1", imei=PHONE_IMEI_2, sector="HOME"),
        mme(day_ts(D, 2 * HOUR), "w1", imei=WATCH_IMEI, sector="FAR",
            event="handover"),
        mme(day_ts(D, 2 * HOUR), "p1", imei=PHONE_IMEI, sector="FAR",
            event="handover"),
        mme(day_ts(D, 2 * HOUR), "s1", imei=PHONE_IMEI_2, sector="WORK",
            event="handover"),
    ]


def two_household_dataset():
    proxy_records = [
        proxy(day_ts(D, 100.0), "w1", imei=WATCH_IMEI),
        proxy(day_ts(D, 200.0), "w1", imei=WATCH_IMEI),
        proxy(day_ts(D, 300.0), "w1", imei=WATCH_IMEI),
    ]
    return make_dataset(
        proxy_records,
        two_household_mme(),
        account_directory={"w1": "A", "p1": "A", "w2": "B", "s1": "C"},
        window=make_window(),
    )


class TestAnalyzeEncounters:
    """Exact encounter arithmetic on the two-household scenario.

    Per-pair events: (p1,w1) share HOME buckets 0-1 and FAR buckets 2-23
    → 24; (s1,w1) and (p1,s1) share HOME bucket 1 → 1 each; (s1,w2)
    share WORK buckets 2-23 → 22.  48 events over 4 pairs.
    """

    @pytest.fixture(scope="class")
    def result(self):
        return panel("encounters", two_household_dataset())

    def test_headline_counts(self, result):
        assert result.n_subscribers == 4
        assert result.n_pairs == 4
        assert result.n_events == 48

    def test_pair_mix(self, result):
        assert result.pairs_wearable_wearable == 0
        assert result.pairs_wearable_phone == 3
        assert result.pairs_phone_phone == 1

    def test_degrees(self, result):
        # w1 met {p1, s1}; w2 met {s1}; p1 met {w1, s1}; s1 met everyone.
        assert result.mean_wearable_degree == pytest.approx(1.5)
        assert result.mean_phone_degree == pytest.approx(2.5)
        assert result.wearable_degree == ECDF([1.0, 2.0])
        assert result.phone_degree == ECDF([2.0, 3.0])

    def test_traffic_correlation(self, result):
        # Two wearables: (25 events, 3 tx) and (22 events, 0 tx) — a
        # perfectly monotone two-point relation.
        assert result.encounter_tx_correlation == pytest.approx(1.0)
        assert result.encounter_bytes_correlation == pytest.approx(1.0)
        assert result.encounter_vs_tx_rate

    def test_through_device_panel(self, result):
        # Only w1 is billing-paired; p1 tracked it everywhere and also
        # met its single outside partner s1.
        assert result.paired_wearables == 1
        assert result.colocated_with_phone_fraction == pytest.approx(1.0)
        assert result.mean_explained_fraction == pytest.approx(1.0)
        assert result.fully_explained_fraction == pytest.approx(1.0)

    def test_matches_streaming_partial(self, result):
        """Three sector-routed joins (``_sector_intervals``), merged,
        equal the study's single-pass join."""
        dataset = two_household_dataset()
        merged = EncountersPartial()
        merged.consume(dataset)
        for intervals in _sector_intervals(dataset, 3):
            partial = EncountersPartial()
            partial.consume_intervals(intervals, dataset.window.study_start)
            merged.merge(partial)
        assert merged.finalize() == result


class TestSummarizePanels:
    """Hand-built accumulators for the fold edge cases the simulator
    cannot reach (it never attaches owner-account phones to the MME)."""

    @staticmethod
    def fold(**overrides):
        base = dict(
            pair_events={
                ("pa", "wa"): 1,
                ("wb", "x1"): 1,
                ("wb", "x2"): 1,
                ("pb", "x1"): 1,
            },
            partners={
                "pa": {"wa"},
                "wa": {"pa"},
                "wb": {"x1", "x2"},
                "x1": {"wb", "pb"},
                "x2": {"wb"},
                "pb": {"x1"},
            },
            sub_events={"pa": 1, "wa": 1, "wb": 2, "x1": 2, "x2": 1, "pb": 1},
            seen_subscribers={"pa", "wa", "wb", "x1", "x2", "pb", "wc", "wd"},
            wearable_subs={"wa", "wb", "wc", "wd"},
            phone_subs={"pa", "pb", "pc", "x1", "x2"},
            tx_count={},
            tx_bytes={},
            account_wearables={
                "A": {"wa"},
                "B": {"wb"},
                "C": {"wc"},
                "D": {"wd"},
            },
            account_phones={"A": {"pa"}, "B": {"pb"}, "C": {"pc"}},
        )
        base.update(overrides)
        return summarize_encounters(**base)

    def test_explained_fractions(self):
        result = self.fold()
        # wa, wb, wc are paired (account D has no phone SIM).
        assert result.paired_wearables == 3
        # Only wa ever met its own phone.
        assert result.colocated_with_phone_fraction == pytest.approx(1 / 3)
        # wa: no outside partners → 1.0 by convention; wb: pb explains
        # x1 but not x2 → 0.5; wc: no contacts at all → not scored.
        assert result.mean_explained_fraction == pytest.approx(0.75)
        assert result.fully_explained_fraction == pytest.approx(0.5)

    def test_zero_degree_subscribers_enter_ecdfs(self):
        result = self.fold()
        assert result.wearable_degree == ECDF([0.0, 0.0, 1.0, 2.0])
        assert result.mean_wearable_degree == pytest.approx(0.75)

    def test_single_wearable_correlation_is_zero(self):
        result = self.fold(
            wearable_subs={"wa"},
            account_wearables={"A": {"wa"}},
        )
        assert result.encounter_tx_correlation == 0.0
        assert result.encounter_bytes_correlation == 0.0

    def test_missing_class_is_rejected(self):
        with pytest.raises(ValueError, match="both wearable and phone"):
            self.fold(phone_subs=set())
        with pytest.raises(ValueError, match="both wearable and phone"):
            self.fold(wearable_subs=set())

    def test_no_paired_wearables_yields_zero_fractions(self):
        result = self.fold(account_phones={"Z": {"pz"}})
        assert result.paired_wearables == 0
        assert result.colocated_with_phone_fraction == 0.0
        assert result.mean_explained_fraction == 0.0
        assert result.fully_explained_fraction == 0.0
