"""Differential layer: one implementation per panel, fed three ways.

Every panel exists once, as a mergeable partial; the golden fixtures
(``tests/core/test_golden.py``) pin what it produces.  This module
checks the property the execution modes rest on: feeding a panel the
whole dataset, time-ordered deltas (the service's shape) or account
shards (``analyze_parallel``'s shape) gives identical results

* on the pristine small simulation,
* with a deliberately non-midnight-aligned ``study_start``, and
* on a corrupted trace that was ingested leniently (quarantine-and-
  continue).
"""

import pytest

from repro.core.dataset import StudyDataset, StudyWindow
from repro.core.weekly import StreamingWeekly
from repro.devicedb import builtin_database
from repro.logs.faults import FaultSpec, corrupt_trace
from repro.logs.records import ProxyRecord
from repro.logs.timeutil import SECONDS_PER_DAY, SECONDS_PER_HOUR, parse_timestamp
from repro.simnet.topology import Sector, SectorMap
from repro.stats.geo import GeoPoint
from tests.core.helpers import fold, panel, split_by_account, split_by_time


class TestStreamingWeeklyDifferential:
    @pytest.fixture(scope="class")
    def results(self, small_dataset):
        batch = panel("weekly", small_dataset)
        streaming = fold("weekly", split_by_time(small_dataset, parts=5))
        return batch, streaming

    def test_exact_equality(self, results):
        batch, streaming = results
        assert streaming == batch

    def test_indices_are_well_formed(self, results):
        batch, streaming = results
        assert len(streaming.weekday_tx_index) == 7
        assert len(streaming.relative_usage_by_hour) == 24
        assert streaming.max_daily_tx_deviation == batch.max_daily_tx_deviation

    def test_empty_stream_raises(self, small_dataset):
        empty = StreamingWeekly(small_dataset.window, small_dataset.wearable_tacs)
        with pytest.raises(ValueError, match="no wearable"):
            empty.result()


class TestNonMidnightWeekly:
    """Weekly buckets must be wall-clock, not study-start-relative."""

    MIDNIGHT = parse_timestamp("2017-12-15T00:00:00")
    START = MIDNIGHT + 5 * SECONDS_PER_HOUR + 1800

    @pytest.fixture(scope="class")
    def wearable_imei(self):
        tac = sorted(builtin_database().wearable_tacs())[0]
        return tac + "0000011"

    @pytest.fixture(scope="class")
    def phone_imei(self):
        db = builtin_database()
        imei = "99000000" + "0000042"
        assert imei[:8] not in db.wearable_tacs()
        return imei

    def _dataset(self, records, total_days=14):
        window = StudyWindow(
            study_start=self.START, total_days=total_days, detailed_days=total_days
        )
        return StudyDataset(
            proxy_records=records,
            mme_records=[],
            device_db=builtin_database(),
            sector_map=SectorMap([Sector("S001-001", GeoPoint(40.0, -3.0))]),
            account_directory={},
            window=window,
        )

    def test_streaming_matches_batch(self, wearable_imei, phone_imei):
        records = []
        for day in range(1, 13):
            for hour in (0, 6, 12, 19, 23):
                for user, imei in (("w0", wearable_imei), ("p0", phone_imei)):
                    if (day + hour + len(user)) % 4 == 0:
                        continue
                    records.append(
                        ProxyRecord(
                            timestamp=self.MIDNIGHT
                            + day * SECONDS_PER_DAY
                            + hour * SECONDS_PER_HOUR
                            + (60.0 if imei == wearable_imei else 120.0),
                            subscriber_id=user,
                            imei=imei,
                            host="cloud.example.com",
                            bytes_down=900 + hour,
                        )
                    )
        records.sort(key=lambda record: record.timestamp)
        dataset = self._dataset(records)
        batch = panel("weekly", dataset)
        assert fold("weekly", split_by_time(dataset, parts=4)) == batch
        # Wall-clock buckets: wearable traffic only at these hours.
        active = [
            hour
            for hour, value in enumerate(batch.relative_usage_by_hour)
            if value > 0
        ]
        assert active == [0, 6, 12, 19, 23]


class TestQuarantinedTraceDifferential:
    """After lenient ingestion of a corrupted trace, the account-sharded
    fold of the surviving rows must equal the whole-dataset fold."""

    @pytest.fixture(scope="class")
    def lenient_dataset(self, small_trace_dir, tmp_path_factory):
        out = tmp_path_factory.mktemp("diff-corrupt") / "trace"
        corrupt_trace(small_trace_dir, out, FaultSpec.chaos(seed=23, rate=0.03))
        dataset = StudyDataset.load(out, lenient=True)
        assert dataset.quarantine is not None
        assert not dataset.quarantine.ok  # faults really landed
        return dataset

    def test_activity_agrees(self, lenient_dataset):
        sharded = fold("activity", split_by_account(lenient_dataset, 4))
        assert sharded == panel("activity", lenient_dataset)

    def test_adoption_agrees(self, lenient_dataset):
        sharded = fold("adoption", split_by_account(lenient_dataset, 4))
        assert sharded == panel("adoption", lenient_dataset)

    def test_weekly_agrees_exactly(self, lenient_dataset):
        sharded = fold("weekly", split_by_account(lenient_dataset, 4))
        assert sharded == panel("weekly", lenient_dataset)
