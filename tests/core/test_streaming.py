"""Streaming folds: the panels fed as deltas or shards equal one pass.

Every panel is a mergeable partial.  The service feeds the split-safe
ones time-ordered deltas of a growing trace, and ``analyze_parallel``
feeds every panel one account shard at a time; both must reproduce the
whole-dataset fold exactly — not within a band — because every merge is
exact.
"""

import pytest

from repro.core.dataset import StudyDataset, StudyWindow
from repro.core.parallel import ActivityPartial
from repro.devicedb import builtin_database
from repro.logs.records import ProxyRecord
from repro.logs.timeutil import SECONDS_PER_DAY, SECONDS_PER_HOUR, parse_timestamp
from repro.simnet.topology import Sector, SectorMap
from repro.stats.geo import GeoPoint
from tests.core.helpers import fold, panel, split_by_account, split_by_time


class TestStreamingAdoption:
    @pytest.fixture(scope="class")
    def results(self, small_dataset):
        whole = panel("adoption", small_dataset)
        streamed = fold("adoption", split_by_time(small_dataset))
        return whole, streamed

    def test_daily_counts_identical(self, results):
        whole, streamed = results
        assert streamed.daily_counts == whole.daily_counts
        assert streamed.normalized_daily == whole.normalized_daily

    def test_growth_identical(self, results):
        whole, streamed = results
        assert streamed.monthly_growth_percent == whole.monthly_growth_percent
        assert streamed.total_growth_percent == whole.total_growth_percent

    def test_retention_identical(self, results):
        whole, streamed = results
        assert streamed.first_week_users == whole.first_week_users
        assert streamed.abandoned_fraction == whole.abandoned_fraction
        assert streamed.still_active_fraction == whole.still_active_fraction

    def test_data_active_identical(self, results):
        whole, streamed = results
        assert streamed.data_active_fraction == whole.data_active_fraction


class TestStreamingActivity:
    @pytest.fixture(scope="class")
    def results(self, small_dataset):
        whole = panel("activity", small_dataset)
        streamed = fold("activity", split_by_time(small_dataset))
        return whole, streamed

    def test_exact_aggregates_match(self, results):
        whole, streamed = results
        assert streamed.transaction_sizes == whole.transaction_sizes
        assert streamed.mean_tx_bytes == whole.mean_tx_bytes
        assert streamed.median_tx_bytes == whole.median_tx_bytes
        assert streamed.mean_active_days_per_week == whole.mean_active_days_per_week
        assert streamed.mean_active_hours_per_day == whole.mean_active_hours_per_day

    def test_median_estimate_close(self, results):
        """The median was a P² estimate; it is now read off the exact
        size histogram, so the delta-fed value equals the whole one."""
        whole, streamed = results
        assert streamed.median_tx_bytes == whole.median_tx_bytes
        assert whole.median_tx_bytes == whole.transaction_sizes.quantile(0.5)

    def test_reservoir_quantiles_close(self, results):
        """Quantiles came from a reservoir sample; the histogram keeps
        every transaction, so they are exact."""
        whole, streamed = results
        for q in (0.25, 0.5, 0.9):
            assert streamed.transaction_sizes.quantile(q) == (
                whole.transaction_sizes.quantile(q)
            ), q

    def test_under_10kb_exact(self, results):
        whole, streamed = results
        assert streamed.fraction_tx_under_10kb == whole.fraction_tx_under_10kb
        sizes = whole.transaction_sizes
        assert whole.fraction_tx_under_10kb == sizes.fraction_below(10_000.0)

    def test_empty_stream_raises(self, small_dataset):
        with pytest.raises(ValueError, match="no wearable"):
            ActivityPartial().finalize(small_dataset.window)


class TestNonMidnightStudyStart:
    """Regression: activity hour buckets must be wall-clock hours.

    An earlier streaming activity fold bucketed hours with
    ``(ts - study_start) % 86_400 // 3_600``, which only matches
    ``hour_of_day`` when ``study_start`` is midnight-aligned.  With a
    05:30 study start, two transactions inside the same wall-clock hour
    landed in *different* offset buckets, inflating
    ``mean_active_hours_per_day``.
    """

    # Midnight UTC plus 5.5 hours: deliberately not day-aligned.
    MIDNIGHT = parse_timestamp("2017-12-15T00:00:00")
    START = MIDNIGHT + 5 * SECONDS_PER_HOUR + 1800

    @pytest.fixture(scope="class")
    def wearable_imei(self):
        tac = sorted(builtin_database().wearable_tacs())[0]
        return tac + "0000011"

    def _dataset(self, records, total_days=14):
        window = StudyWindow(
            study_start=self.START, total_days=total_days, detailed_days=total_days
        )
        return StudyDataset(
            proxy_records=records,
            mme_records=[],
            device_db=builtin_database(),
            sector_map=SectorMap(
                [Sector("S001-001", GeoPoint(40.0, -3.0))]
            ),
            account_directory={},
            window=window,
        )

    def test_same_wall_clock_hour_is_one_active_hour(self, wearable_imei):
        """01:00 and 01:30 on the same day are ONE active hour.

        Under the old offset arithmetic (study start 05:30) they fell into
        buckets 19 and 20, i.e. two active hours.
        """
        day1 = self.MIDNIGHT + SECONDS_PER_DAY
        records = [
            ProxyRecord(
                timestamp=day1 + SECONDS_PER_HOUR + offset,
                subscriber_id="s1",
                imei=wearable_imei,
                host="api.example.com",
                bytes_down=512,
            )
            for offset in (0.0, 1800.0)
        ]
        dataset = self._dataset(records)
        assert panel("activity", dataset).mean_active_hours_per_day == 1.0
        streamed = fold("activity", split_by_time(dataset, parts=2))
        assert streamed.mean_active_hours_per_day == 1.0

    def test_streaming_matches_batch_across_hours_and_days(self, wearable_imei):
        """Dense synthetic stream: deltas fold to the identical result."""
        records = []
        for user in range(5):
            for day in range(1, 13):
                for hour in (0, 5, 6, 11, 18, 23):
                    if (user + day + hour) % 3 == 0:
                        continue
                    records.append(
                        ProxyRecord(
                            timestamp=self.MIDNIGHT
                            + day * SECONDS_PER_DAY
                            + hour * SECONDS_PER_HOUR
                            + 60.0 * user,
                            subscriber_id=f"u{user}",
                            imei=wearable_imei,
                            host="cloud.example.com",
                            bytes_down=1000 + hour,
                        )
                    )
        records.sort(key=lambda record: record.timestamp)
        dataset = self._dataset(records)
        whole = panel("activity", dataset)
        assert fold("activity", split_by_time(dataset, parts=7)) == whole


class TestStreamingMergeDifferential:
    """Partials split by account shard then merged must equal one
    partial consuming the whole dataset — field for field."""

    def _check(self, dataset, name):
        assert fold(name, split_by_account(dataset)) == panel(name, dataset)

    def test_adoption_merge_exact(self, small_dataset):
        self._check(small_dataset, "adoption")

    def test_weekly_merge_exact(self, small_dataset):
        self._check(small_dataset, "weekly")

    def test_activity_merge_exact_aggregates(self, small_dataset):
        self._check(small_dataset, "activity")
