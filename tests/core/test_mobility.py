"""Exact-value and band tests for the mobility analysis (§4.4, Fig. 4(c-d))."""

import pytest

from repro.core.mobility import SectorTimeline, build_timelines
from repro.logs.timeutil import SECONDS_PER_HOUR
from repro.stats.geo import haversine_km
from tests.core.helpers import (
    PHONE_IMEI,
    SECTORS,
    WATCH_IMEI,
    day_ts,
    make_dataset,
    make_window,
    mme,
    panel,
    proxy,
)

D = 14  # first detailed day

HOME_WORK_KM = haversine_km(
    SECTORS.location_of("HOME"), SECTORS.location_of("WORK")
)


class TestSectorTimeline:
    def test_sector_at(self):
        timeline = SectorTimeline([(100.0, "HOME"), (200.0, "WORK")])
        assert timeline.sector_at(50.0) is None
        assert timeline.sector_at(100.0) == "HOME"
        assert timeline.sector_at(150.0) == "HOME"
        assert timeline.sector_at(200.0) == "WORK"
        assert timeline.sector_at(10_000.0) == "WORK"

    def test_daily_sectors(self):
        timeline = SectorTimeline(
            [(day_ts(0, 100), "HOME"), (day_ts(0, 200), "WORK"), (day_ts(1, 50), "HOME")]
        )
        daily = timeline.daily_sectors(0.0)
        assert daily[0] == {"HOME", "WORK"}
        assert daily[1] == {"HOME"}

    def test_dwell_until_next_event(self):
        timeline = SectorTimeline(
            [(day_ts(0, 0), "HOME"), (day_ts(0, 3600), "WORK")]
        )
        dwell = timeline.dwell_seconds(0.0)
        assert dwell["HOME"] == pytest.approx(3600.0)
        # Last event dwells until end of day.
        assert dwell["WORK"] == pytest.approx(86_400.0 - 3600.0)

    def test_dwell_does_not_cross_midnight(self):
        timeline = SectorTimeline([(day_ts(0, 80_000), "HOME")])
        dwell = timeline.dwell_seconds(0.0)
        assert dwell["HOME"] == pytest.approx(6_400.0)

    def test_empty_timeline_rejected(self):
        with pytest.raises(ValueError):
            SectorTimeline([])

    def test_pre_study_events_dropped_from_daily_sectors(self):
        """Regression: attachments before study_start used to land in
        negative day buckets (floor division), skewing daily counts."""
        timeline = SectorTimeline(
            [(-100.0, "FAR"), (day_ts(0, 100), "HOME"), (day_ts(1, 50), "WORK")]
        )
        daily = timeline.daily_sectors(0.0)
        assert daily == {0: {"HOME"}, 1: {"WORK"}}
        assert all(day >= 0 for day in daily)

    def test_pre_study_events_dropped_with_non_midnight_start(self):
        """Same regression against a study_start inside a calendar day."""
        start = 5_000.0
        timeline = SectorTimeline([(start - 1.0, "FAR"), (start + 10.0, "HOME")])
        assert timeline.daily_sectors(start) == {0: {"HOME"}}

    def test_same_timestamp_ties_keep_record_order(self):
        """Regression: sorting events as bare tuples tie-broke equal
        timestamps alphabetically by sector id — ``sector_at`` then
        reported a sector the subscriber had already left."""
        # WORK would sort before its same-instant ZONE successor
        # alphabetically reversed; input order must win.
        timeline = SectorTimeline(
            [(100.0, "ZONE"), (100.0, "HOME"), (200.0, "WORK")]
        )
        assert timeline.sector_at(150.0) == "HOME"
        timeline = SectorTimeline(
            [(100.0, "HOME"), (100.0, "ZONE"), (200.0, "WORK")]
        )
        assert timeline.sector_at(150.0) == "ZONE"

    def test_dwell_intervals_match_dwell_seconds(self):
        timeline = SectorTimeline(
            [
                (day_ts(0, 0), "HOME"),
                (day_ts(0, 3600), "WORK"),
                (day_ts(0, 3600), "HOME"),
                (day_ts(1, 80_000), "FAR"),
            ]
        )
        intervals = timeline.dwell_intervals(0.0)
        # Zero-length (WORK) intervals omitted; starts non-decreasing.
        assert [s for s, _, _ in intervals] == ["HOME", "HOME", "FAR"]
        assert all(end > start for _, start, end in intervals)
        totals: dict[str, float] = {}
        for sector, start, end in intervals:
            totals[sector] = totals.get(sector, 0.0) + (end - start)
        assert totals == timeline.dwell_seconds(0.0)

    def test_build_timelines_groups_by_subscriber(self):
        records = [
            mme(100.0, "a", sector="HOME"),
            mme(200.0, "b", sector="WORK"),
            mme(300.0, "a", sector="WORK"),
        ]
        timelines = build_timelines(records)
        assert set(timelines) == {"a", "b"}
        assert timelines["a"].sector_at(250.0) == "HOME"


def build_dataset():
    """One mobile wearable user, one stationary, one general user."""
    mme_records = [
        # Wearable "mobile": HOME -> WORK on day D (≈111 km displacement).
        mme(day_ts(D, 8 * 3600), "mobile", imei=WATCH_IMEI, sector="HOME"),
        mme(day_ts(D, 9 * 3600), "mobile", imei=WATCH_IMEI, sector="WORK",
            event="handover"),
        # Wearable "still": HOME only.
        mme(day_ts(D, 8 * 3600), "still", imei=WATCH_IMEI, sector="HOME"),
        # General user on a phone: HOME only.
        mme(day_ts(D, 8 * 3600), "gen", imei=PHONE_IMEI, sector="HOME"),
    ]
    proxy_records = [
        # "mobile" transacts at HOME then at WORK: two tx locations.
        proxy(day_ts(D, 8 * 3600 + 60), "mobile", imei=WATCH_IMEI),
        proxy(day_ts(D, 10 * 3600), "mobile", imei=WATCH_IMEI),
        # "still" transacts twice at HOME: single location.
        proxy(day_ts(D, 8 * 3600 + 120), "still", imei=WATCH_IMEI),
        proxy(day_ts(D, 9 * 3600), "still", imei=WATCH_IMEI),
    ]
    return make_dataset(proxy_records, mme_records, window=make_window())


class TestExactValues:
    def test_displacements(self):
        result = panel("mobility", build_dataset())
        assert result.mean_user_displacement_wearable_km == pytest.approx(
            HOME_WORK_KM / 2, rel=0.01
        )
        assert result.mean_user_displacement_general_km == 0.0

    def test_single_location_fraction(self):
        result = panel("mobility", build_dataset())
        assert result.single_tx_location_fraction == pytest.approx(0.5)

    def test_entropy_ordering(self):
        result = panel("mobility", build_dataset())
        # The two-sector wearable day has positive dwell entropy; the
        # general user never leaves home.
        assert result.mean_entropy_wearable_bits > 0.0
        assert result.mean_entropy_general_bits == 0.0

    def test_requires_both_groups(self):
        dataset = make_dataset(
            [], [mme(day_ts(D, 100), "w", imei=WATCH_IMEI)], window=make_window()
        )
        with pytest.raises(ValueError, match="both"):
            panel("mobility", dataset)


class TestOnSimulation:
    """Bands around the paper's Section 4.4 findings."""

    def test_wearable_users_more_mobile(self, medium_study):
        result = medium_study.mobility
        assert (
            result.mean_user_displacement_wearable_km
            > 1.3 * result.mean_user_displacement_general_km
        )

    def test_daily_displacement_reasonable(self, medium_study):
        result = medium_study.mobility
        assert 5.0 <= result.mean_daily_displacement_wearable_km <= 60.0

    def test_entropy_gap_positive(self, medium_study):
        result = medium_study.mobility
        assert result.entropy_excess_percent > 20.0

    def test_single_location_near_60pct(self, medium_study):
        result = medium_study.mobility
        assert 0.35 <= result.single_tx_location_fraction <= 0.85

    def test_mobility_correlates_with_activity(self, medium_study):
        # Fig. 4(d): longer-distance users transact more per hour.
        result = medium_study.mobility
        assert result.displacement_tx_correlation > 0.0

    def test_most_users_under_30km(self, medium_study):
        result = medium_study.mobility
        assert result.fraction_users_under_30km >= 0.6
