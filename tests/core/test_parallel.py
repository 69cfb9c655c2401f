"""Differential layer: the parallel map-reduce analysis vs the batch pipeline.

Batch analysis is the shards=1 fold of the same mergeable partials
``repro.core.parallel`` merges across account shards, and every merge is
exact (integer counts, set unions, min/max, an exact size histogram,
sorted-key or ``fsum`` float folds).  There is one exactness tier: the
merged report equals the batch report field for field — ``==`` on the
whole :class:`StudyReport` — at every shard count, and so does the
report of a ``repro serve`` service that has ingested the whole trace.

The shards run in the calling process.  ``analyze_parallel`` still
accepts a ``workers`` keyword and ignores it; the tests parametrized by
it check that it changes nothing.
"""

import math

import pytest

from repro import obs
from repro.core.dataset import StudyDataset
from repro.core.parallel import ShardPartials, analyze_parallel
from repro.logs.faults import FaultSpec, corrupt_trace
from repro.serve.service import AnalysisService, ServeConfig
from repro.stats.cdf import ECDF

from tests.core import golden
from tests.serve.conftest import drain, feed_prefix, make_growing_dir

SHARD_COUNTS = [1, 4, 7]


@pytest.fixture(scope="module")
def batch_report(small_study):
    return small_study.run_all()


@pytest.fixture(scope="module")
def parallel_runs(small_trace_dir):
    """One ``analyze_parallel`` run per (shards, workers) combination."""
    runs = {}
    for shards in SHARD_COUNTS:
        for workers in (1, 4):
            runs[(shards, workers)] = analyze_parallel(
                small_trace_dir, shards=shards, workers=workers
            )
    return runs


class TestParallelVsBatch:
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    @pytest.mark.parametrize("workers", [1, 4])
    def test_exact_tier_is_bit_identical(
        self, parallel_runs, batch_report, shards, workers
    ):
        """The exact tier is the whole report."""
        assert parallel_runs[(shards, workers)].report == batch_report

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_activity_exact_fields(self, parallel_runs, batch_report, shards):
        par = parallel_runs[(shards, 1)].report.activity
        assert par == batch_report.activity
        # The size CDF is the complete transaction multiset.
        assert len(par.transaction_sizes) == len(
            batch_report.activity.transaction_sizes
        )

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_activity_float_folds_close(self, parallel_runs, batch_report, shards):
        """Sorted-key folds make the per-user floats equal, not just close."""
        par = parallel_runs[(shards, 1)].report.activity
        batch = batch_report.activity
        assert par.tx_rate_hours_correlation == batch.tx_rate_hours_correlation
        assert par.tx_rate_vs_hours == batch.tx_rate_vs_hours

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_activity_sampled_quantiles_in_band(
        self, parallel_runs, batch_report, shards
    ):
        """Transaction sizes used to be reservoir-sampled per shard and
        agreed with batch only within bands; the exact size histogram
        makes every quantile equal."""
        par = parallel_runs[(shards, 1)].report.activity
        batch = batch_report.activity
        assert par.median_tx_bytes == batch.median_tx_bytes
        for q in (0.25, 0.5, 0.75, 0.99):
            assert par.transaction_sizes.quantile(q) == (
                batch.transaction_sizes.quantile(q)
            ), q

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_mobility_close(self, parallel_runs, batch_report, shards):
        """Shard-order user-day lists fold through ``fsum``: equal means."""
        par = parallel_runs[(shards, 1)].report.mobility
        assert par == batch_report.mobility


class TestServeVsBatch:
    @pytest.mark.parametrize("shards", [1, 4])
    def test_caught_up_service_equals_batch(
        self, small_trace_dir, batch_report, tmp_path, shards
    ):
        """The service's incremental partials finalize to the batch
        report once it has ingested the whole trace."""
        grow = make_growing_dir(small_trace_dir, tmp_path / "grow")
        service = AnalysisService(ServeConfig(trace_dir=grow, shards=shards))
        for frac in (0.3, 1.0):
            for suffix in ("proxy.csv", "mme.csv"):
                feed_prefix(small_trace_dir, grow, suffix, frac)
            drain(service)
        assert service.report()[1] == batch_report


class TestWorkerInvariance:
    """At a fixed shard count the report must not depend on the ignored
    ``workers`` keyword: the shards merge in shard order either way."""

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_reports_bit_identical(self, parallel_runs, shards):
        one = parallel_runs[(shards, 1)].report
        four = parallel_runs[(shards, 4)].report
        assert one == four

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_row_accounting_identical(self, parallel_runs, shards):
        one = parallel_runs[(shards, 1)]
        four = parallel_runs[(shards, 4)]
        assert one.proxy_rows == four.proxy_rows
        assert one.mme_rows == four.mme_rows
        assert [s.shard for s in one.shard_stats] == [
            s.shard for s in four.shard_stats
        ]


class TestMemoryBound:
    def test_peak_residency_is_one_shard_not_the_trace(self, parallel_runs):
        """The map-reduce memory bound: a shard step only ever holds its
        own shard's rows, so peak residency is the largest shard."""
        run = parallel_runs[(4, 4)]
        total = run.proxy_rows + run.mme_rows
        assert run.peak_resident_records < total
        assert run.peak_resident_records == max(
            s.resident_records for s in run.shard_stats
        )
        # Shards partition the rows: nothing lost, nothing duplicated.
        assert sum(s.resident_records for s in run.shard_stats) == total
        assert all(s.resident_records > 0 for s in run.shard_stats)

    def test_more_shards_lower_peak(self, parallel_runs):
        assert (
            parallel_runs[(7, 1)].peak_resident_records
            < parallel_runs[(1, 1)].peak_resident_records
        )


class TestShardPartialProtocol:
    def test_merge_is_associative_on_partials(self, small_trace_dir):
        """merge(merge(a, b), c) == merge(a, merge(b, c)) at report level."""
        from repro.core.dataset import StudyDataset

        parts = [
            ShardPartials.compute(
                StudyDataset.load(small_trace_dir, shard=shard, shards=3),
                shard=shard,
            )
            for shard in range(3)
        ]
        left = parts[0].merge(parts[1]).merge(parts[2])
        # ``merge`` mutates the receiver, so recompute for the right fold.
        parts = [
            ShardPartials.compute(
                StudyDataset.load(small_trace_dir, shard=shard, shards=3),
                shard=shard,
            )
            for shard in range(3)
        ]
        right = parts[0].merge(parts[1].merge(parts[2]))
        from repro.core.dataset import load_artifacts
        from repro.simnet.appcatalog import builtin_app_catalog

        artifacts = load_artifacts(small_trace_dir)
        window, device_db = artifacts.window, artifacts.device_db
        cats = {app.name: app.category for app in builtin_app_catalog()}
        assert left.finalize(window, device_db, cats) == right.finalize(
            window, device_db, cats
        )

    def test_shard_zero_required(self, small_trace_dir):
        with pytest.raises(ValueError, match="shards"):
            analyze_parallel(small_trace_dir, shards=0)


class TestShardedLoadPartition:
    """`StudyDataset.load(shard=...)` restricts to one account shard."""

    @pytest.fixture(scope="class")
    def traces(self, small_output, small_trace_dir, tmp_path_factory):
        root = tmp_path_factory.mktemp("partition")
        small_output.write(root / "bin", format="bin")
        spec = FaultSpec.chaos(seed=29, rate=0.03)
        corrupt_trace(small_trace_dir, root / "csv-lenient", spec)
        corrupt_trace(root / "bin", root / "bin-lenient", spec)
        return {
            ("csv", "strict"): small_trace_dir,
            ("bin", "strict"): root / "bin",
            ("csv", "lenient"): root / "csv-lenient",
            ("bin", "lenient"): root / "bin-lenient",
        }

    @pytest.mark.parametrize("mode", ["strict", "lenient"])
    @pytest.mark.parametrize("fmt", ["csv", "bin"])
    def test_shards_partition_the_trace(self, traces, fmt, mode):
        from repro.core.dataset import StudyDataset
        from repro.logs.io import shard_keep_predicate

        trace = traces[(fmt, mode)]
        lenient = mode == "lenient"
        full = StudyDataset.load(trace, lenient=lenient, format=fmt)
        pieces = [
            StudyDataset.load(
                trace, lenient=lenient, shard=shard, shards=3, format=fmt
            )
            for shard in range(3)
        ]
        # Each shard is exactly the full load's rows of that shard, in
        # the full load's (canonical) order; the shards cover the load.
        for shard, piece in enumerate(pieces):
            keep = shard_keep_predicate(shard, 3, full.account_directory)
            assert piece.proxy_records == [
                r for r in full.proxy_records if keep(r)
            ]
            assert piece.mme_records == [r for r in full.mme_records if keep(r)]
            # Defects are stream-global: every shard reports all of them.
            assert piece.quarantine == full.quarantine
        assert sum(len(p.proxy_records) for p in pieces) == len(
            full.proxy_records
        )
        assert sum(len(p.mme_records) for p in pieces) == len(full.mme_records)
        if lenient:
            assert not full.quarantine.ok

    def test_account_mates_stay_together(self, small_trace_dir):
        """All subscribers of one account land in the same shard — the
        property that makes per-account aggregation shard-local."""
        from repro.core.dataset import StudyDataset
        from repro.logs.io import subscriber_shard

        full = StudyDataset.load(small_trace_dir)
        directory = full.account_directory
        by_account: dict[str, set[int]] = {}
        for sub, account in directory.items():
            by_account.setdefault(account, set()).add(
                subscriber_shard(sub, 5, directory)
            )
        assert by_account  # non-degenerate
        assert all(len(shards) == 1 for shards in by_account.values())


class TestChaosParallel:
    """Lenient parallel analysis of a corrupted trace: the whole stream
    is scrubbed once, before sharding (duplicate/order defects are
    stream-global), so quarantine accounting and the report match serial
    exactly."""

    @pytest.fixture(scope="class")
    def chaos_trace(self, small_trace_dir, tmp_path_factory):
        out = tmp_path_factory.mktemp("par-chaos") / "trace"
        corrupt_trace(small_trace_dir, out, FaultSpec.chaos(seed=23, rate=0.03))
        return out

    @pytest.fixture(scope="class")
    def chaos_runs(self, chaos_trace):
        return {
            workers: analyze_parallel(
                chaos_trace, shards=4, workers=workers, lenient=True
            )
            for workers in (1, 4)
        }

    def test_worker_invariance_under_chaos(self, chaos_runs):
        assert chaos_runs[1].report == chaos_runs[4].report

    def test_quarantine_matches_serial(self, chaos_trace, chaos_runs):
        from repro.core.dataset import StudyDataset

        serial = StudyDataset.load(chaos_trace, lenient=True)
        assert serial.quarantine is not None
        assert not serial.quarantine.ok  # faults really landed
        for run in chaos_runs.values():
            assert run.report.quarantine is not None
            assert (
                run.report.quarantine.to_dict() == serial.quarantine.to_dict()
            )

    def test_report_matches_batch_on_survivors(self, chaos_trace, chaos_runs):
        from repro.core.dataset import StudyDataset
        from repro.core.pipeline import WearableStudy

        batch = WearableStudy(
            StudyDataset.load(chaos_trace, lenient=True)
        ).run_all()
        assert chaos_runs[4].report == batch


class TestExactSumProperty:
    """Byte totals come from an exact integer size histogram, so
    shard-split totals recombine to the fsum answer."""

    def test_sharded_byte_total_equals_fsum(self, parallel_runs, small_dataset):
        run = parallel_runs[(7, 1)].report
        proxy = small_dataset.proxy
        rows = small_dataset.wearable_proxy_mask & small_dataset.detailed_proxy_mask
        values = (
            proxy.column("bytes_up")[rows] + proxy.column("bytes_down")[rows]
        ).astype(float).tolist()
        expected = math.fsum(values)
        assert run.activity.mean_tx_bytes * len(values) == pytest.approx(
            expected, rel=1e-12
        )


class TestECDFEquality:
    def test_value_based_equality(self):
        assert ECDF([3.0, 1.0, 2.0]) == ECDF([1.0, 2.0, 3.0])
        assert ECDF([1.0, 2.0]) != ECDF([1.0, 2.0, 2.0])
        assert ECDF([1.0]) != object()
        assert hash(ECDF([2.0, 1.0])) == hash(ECDF([1.0, 2.0]))


class TestOneDecode:
    """``analyze_parallel`` decodes each log once, in the parent: the
    merged ``repro_io_rows_read_total{category="log"}`` of a 4-shard run
    equals what one ``StudyDataset.load`` of the trace counts."""

    @pytest.fixture(scope="class")
    def traces(self, small_output, small_trace_dir, tmp_path_factory):
        root = tmp_path_factory.mktemp("one-decode")
        small_output.write(root / "bin", format="bin")
        spec = golden.CORRUPT_SPEC
        corrupt_trace(small_trace_dir, root / "csv-lenient", spec)
        corrupt_trace(root / "bin", root / "bin-lenient", spec)
        return {
            ("csv", "strict"): small_trace_dir,
            ("bin", "strict"): root / "bin",
            ("csv", "lenient"): root / "csv-lenient",
            ("bin", "lenient"): root / "bin-lenient",
        }

    @staticmethod
    def rows_read(call) -> float:
        with obs.observe() as ob:
            call()
            return ob.metrics.sum_counter(
                "repro_io_rows_read_total", category="log"
            )

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("mode", ["strict", "lenient"])
    @pytest.mark.parametrize("fmt", ["csv", "bin"])
    def test_rows_read_equal_one_load(self, traces, fmt, mode, workers):
        trace = traces[(fmt, mode)]
        lenient = mode == "lenient"
        once = self.rows_read(
            lambda: StudyDataset.load(trace, lenient=lenient, format=fmt)
        )
        assert once > 0
        sharded = self.rows_read(
            lambda: analyze_parallel(
                trace, shards=4, workers=workers, lenient=lenient, format=fmt
            )
        )
        assert sharded == once
