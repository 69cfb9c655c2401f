"""Chaos acceptance: the full pipeline survives a corrupted trace.

The closed loop the fault-injection harness exists for:

1. export the small simulation in each wire format (csv.gz and bin);
2. corrupt it with the chaos preset (every row fault class plus
   truncation);
3. ingest leniently — every injected fault class must surface in the
   quarantine report under its expected issue code;
4. run *all* paper analyses to completion on the surviving rows.

Run standalone via ``make chaos``.
"""

import pytest

from repro.core.dataset import StudyDataset
from repro.core.pipeline import WearableStudy
from repro.logs.faults import FAULT_ISSUE_CODES, FaultSpec, corrupt_trace
from repro.logs.io import LogReadError


@pytest.fixture(scope="module")
def chaos_spec():
    return FaultSpec.chaos(seed=1234, rate=0.02)


@pytest.fixture(scope="module", params=["csv.gz", "bin"])
def chaos_pristine(request, small_output, small_trace_dir_gz, tmp_path_factory):
    """The pristine small trace in each wire format the pipeline ships."""
    if request.param == "csv.gz":
        return small_trace_dir_gz
    out = tmp_path_factory.mktemp("chaos-bin") / "pristine"
    small_output.write(out, format="bin")
    return out


@pytest.fixture(scope="module")
def chaos_trace(chaos_pristine, tmp_path_factory, chaos_spec):
    out = tmp_path_factory.mktemp("chaos") / "trace"
    report = corrupt_trace(chaos_pristine, out, chaos_spec)
    return out, report


@pytest.fixture(scope="module")
def chaos_dataset(chaos_trace):
    directory, _ = chaos_trace
    return StudyDataset.load(directory, lenient=True)


class TestChaosIngestion:
    def test_every_injected_fault_is_observed(self, chaos_trace, chaos_dataset):
        _, injection = chaos_trace
        quarantine = chaos_dataset.quarantine
        assert quarantine is not None and not quarantine.ok
        expected = injection.expected_issue_codes()
        assert expected  # the chaos preset really injected something
        for code in expected:
            assert quarantine.count(code) > 0, f"no quarantine entries for {code}"

    def test_dropped_rows_show_as_deficit(
        self, chaos_pristine, chaos_trace, chaos_dataset
    ):
        _, injection = chaos_trace
        pristine = StudyDataset.load(chaos_pristine)
        quarantine = chaos_dataset.quarantine
        # rows_read counts everything the reader saw; dropped rows are the
        # only fault class invisible to the reader, so the deficit between
        # the pristine row count and rows_read is dropped + whatever the
        # truncation chopped off the end of the stream (gzip-member bytes
        # for csv.gz, whole trailing blocks for bin).
        deficit = len(pristine.proxy_records) - quarantine.rows_read["proxy"]
        assert deficit >= injection.counts.get("proxy.dropped", 0) > 0

    def test_strict_load_refuses_the_same_trace(self, chaos_trace):
        directory, _ = chaos_trace
        with pytest.raises(LogReadError) as excinfo:
            StudyDataset.load(directory)
        # csv.gz surfaces a row-level fault or the truncated member; bin
        # can also trip on an unframeable block ("magic").
        assert excinfo.value.code in {"value", "fields", "truncated", "magic"}

    def test_issue_code_map_covers_every_fault_class(self, chaos_spec):
        # Guard the vocabulary: every chaos-injectable row fault maps to an
        # issue-code template (only "dropped" is legitimately silent).
        for fault in chaos_spec.row_rates:
            template = FAULT_ISSUE_CODES.get(fault)
            if fault == "dropped":
                assert template is None
            else:
                assert template


class TestChaosAnalyses:
    def test_full_study_runs_to_completion(self, chaos_dataset):
        report = WearableStudy(chaos_dataset).run_all()
        assert report.quarantine is chaos_dataset.quarantine
        assert report.adoption.daily_counts
        assert report.activity.mean_tx_bytes > 0
        assert report.weekly.weekday_tx_index
        assert len(report.weekly.relative_usage_by_hour) == 24

    def test_quarantine_travels_with_the_report(self, chaos_dataset):
        study = WearableStudy(chaos_dataset)
        assert study.quarantine is chaos_dataset.quarantine
        assert study.quarantine.total_quarantined > 0


class TestTruncatedTailParity:
    """Satellite regression: a truncated final gzip member used to lose
    its partial block silently under lenient ingestion.  Both the CSV
    and binary lenient readers now quarantine the truncated tail under
    a distinct ``*-truncated`` code with exact row accounting — and the
    accounting is identical for a serial load and a 4-way sharded
    map-reduce run.
    """

    @pytest.fixture(scope="class", params=["csv.gz", "bin"])
    def truncated_trace(
        self, request, small_output, tmp_path_factory
    ):
        base = tmp_path_factory.mktemp(f"trunc-{request.param}")
        pristine = base / "pristine"
        small_output.write(
            pristine,
            **(
                {"compress": True}
                if request.param == "csv.gz"
                else {"format": "bin"}
            ),
        )
        if request.param == "bin":
            # Re-block the proxy log with small blocks so a byte-level
            # truncation chops the tail rather than the single default
            # 8192-row block (which would quarantine the whole stream).
            from repro.logs.binfmt import read_bin_records, write_bin_records
            from repro.logs.records import ProxyRecord

            log = pristine / "proxy.bin"
            rows = list(read_bin_records(log, ProxyRecord))
            write_bin_records(log, rows, ProxyRecord, block_rows=256)
        out = base / "trace"
        corrupt_trace(
            pristine,
            out,
            FaultSpec(
                seed=99, truncate_fraction=0.25, truncate_files=("proxy",)
            ),
        )
        return out

    def test_tail_quarantined_with_exact_accounting(self, truncated_trace):
        dataset = StudyDataset.load(truncated_trace, lenient=True)
        quarantine = dataset.quarantine
        assert quarantine.count("proxy-truncated") > 0
        # Exact accounting: every proxy row the stream ever contained is
        # either kept or quarantined — nothing vanishes silently.
        kept = len(dataset.proxy_records)
        assert quarantine.rows_read["proxy"] == (
            kept + quarantine.rows_quarantined["proxy"]
        )

    def test_serial_and_parallel_quarantine_identical(self, truncated_trace):
        from repro.core.parallel import analyze_parallel

        serial = analyze_parallel(truncated_trace, shards=1, lenient=True)
        parallel = analyze_parallel(truncated_trace, shards=4, lenient=True)
        assert (
            serial.report.quarantine.to_dict()
            == parallel.report.quarantine.to_dict()
        )

    def test_serial_load_matches_sharded_accounting(self, truncated_trace):
        from repro.core.parallel import analyze_parallel

        dataset = StudyDataset.load(truncated_trace, lenient=True)
        sharded = analyze_parallel(truncated_trace, shards=4, lenient=True)
        mine = dataset.quarantine
        theirs = sharded.report.quarantine
        assert mine.rows_read == theirs.rows_read
        assert mine.rows_quarantined == theirs.rows_quarantined
        assert mine.count("proxy-truncated") == theirs.count(
            "proxy-truncated"
        )


class TestMissingLogFile:
    def test_dropped_mme_log_is_survivable(self, small_trace_dir, tmp_path):
        out = tmp_path / "no-mme"
        report = corrupt_trace(
            small_trace_dir, out, FaultSpec(seed=5, drop_files=("mme",))
        )
        assert "mme-missing" in report.expected_issue_codes()
        dataset = StudyDataset.load(out, lenient=True)
        assert dataset.mme_records == []
        assert dataset.quarantine.count("mme-missing") == 1
        # Proxy-side analyses still run.
        result = WearableStudy(dataset).activity
        assert result.mean_tx_bytes > 0
