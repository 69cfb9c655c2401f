"""Unit tests for the fault-injection harness (:mod:`repro.logs.faults`)."""

import gzip

import pytest

from repro.core.dataset import StudyDataset
from repro.logs.binfmt import _BLOCK_HEADER, iter_blocks
from repro.logs.faults import (
    FAULT_CLASSES,
    FaultSpec,
    corrupt_trace,
)
from repro.logs.io import LogReadError
from repro.logs.records import ProxyRecord

BLOCK_HEADER_BYTES = _BLOCK_HEADER.size


def _bytes_of(directory):
    return {
        path.name: path.read_bytes()
        for path in sorted(directory.iterdir())
        if path.is_file()
    }


class TestFaultSpec:
    def test_rejects_out_of_range_rates(self):
        with pytest.raises(ValueError, match="drop_rate"):
            FaultSpec(drop_rate=1.5)
        with pytest.raises(ValueError, match="truncate_fraction"):
            FaultSpec(truncate_fraction=-0.1)

    def test_rejects_unknown_stems(self):
        with pytest.raises(ValueError, match="unknown log stem"):
            FaultSpec(drop_files=("devices",))

    def test_chaos_preset_covers_every_row_fault(self):
        spec = FaultSpec.chaos(seed=3, rate=0.05)
        assert all(rate == 0.05 for rate in spec.row_rates.values())
        assert spec.truncates("proxy")
        assert not spec.truncates("mme")

    def test_with_rate(self):
        spec = FaultSpec(seed=1).with_rate(0.25)
        assert set(spec.row_rates.values()) == {0.25}
        assert spec.seed == 1


class TestCorruptTrace:
    def test_requires_a_trace_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="metadata.json"):
            corrupt_trace(tmp_path / "nope", tmp_path / "out", FaultSpec())

    def test_zero_rate_is_byte_identical_noop(self, small_trace_dir, tmp_path):
        report = corrupt_trace(small_trace_dir, tmp_path / "copy", FaultSpec(seed=9))
        assert _bytes_of(tmp_path / "copy") == _bytes_of(small_trace_dir)
        assert report.injected_classes() == frozenset()
        assert report.expected_issue_codes() == frozenset()

    def test_deterministic_for_fixed_seed(self, small_trace_dir, tmp_path):
        spec = FaultSpec.chaos(seed=11, rate=0.03)
        first = corrupt_trace(small_trace_dir, tmp_path / "a", spec)
        second = corrupt_trace(small_trace_dir, tmp_path / "b", spec)
        assert _bytes_of(tmp_path / "a") == _bytes_of(tmp_path / "b")
        assert first.counts == second.counts

    def test_different_seeds_differ(self, small_trace_dir, tmp_path):
        corrupt_trace(small_trace_dir, tmp_path / "a", FaultSpec(seed=1, drop_rate=0.05))
        corrupt_trace(small_trace_dir, tmp_path / "b", FaultSpec(seed=2, drop_rate=0.05))
        assert (
            (tmp_path / "a" / "proxy.csv").read_bytes()
            != (tmp_path / "b" / "proxy.csv").read_bytes()
        )

    def test_source_untouched(self, small_trace_dir, tmp_path):
        before = _bytes_of(small_trace_dir)
        corrupt_trace(
            small_trace_dir, tmp_path / "out", FaultSpec.chaos(seed=5, rate=0.1)
        )
        assert _bytes_of(small_trace_dir) == before

    def test_side_artifacts_copied_verbatim(self, small_trace_dir, tmp_path):
        corrupt_trace(
            small_trace_dir, tmp_path / "out", FaultSpec.chaos(seed=5, rate=0.1)
        )
        for name in ("devices.csv", "sectors.csv", "accounts.csv", "metadata.json"):
            assert (tmp_path / "out" / name).read_bytes() == (
                small_trace_dir / name
            ).read_bytes()

    def test_drop_file_removes_log(self, small_trace_dir, tmp_path):
        report = corrupt_trace(
            small_trace_dir, tmp_path / "out", FaultSpec(drop_files=("mme",))
        )
        assert not (tmp_path / "out" / "mme.csv").exists()
        assert (tmp_path / "out" / "proxy.csv").exists()
        assert report.total("dropped_file") == 1
        assert "mme-missing" in report.expected_issue_codes()

    def test_truncation_shortens_the_file(self, small_trace_dir_gz, tmp_path):
        spec = FaultSpec(truncate_fraction=0.5, truncate_files=("proxy",))
        report = corrupt_trace(small_trace_dir_gz, tmp_path / "out", spec)
        original = (small_trace_dir_gz / "proxy.csv.gz").stat().st_size
        truncated = (tmp_path / "out" / "proxy.csv.gz").stat().st_size
        assert truncated == original // 2
        assert report.total("truncated") == 1
        # The truncated gzip member is genuinely unreadable to the end.
        with pytest.raises((EOFError, gzip.BadGzipFile, OSError)):
            with gzip.open(tmp_path / "out" / "proxy.csv.gz", "rt") as handle:
                for _ in handle:
                    pass


class TestSingleFaultAccounting:
    """One fault class at a time: injected counts match observation."""

    @pytest.fixture()
    def pristine_counts(self, small_trace_dir):
        dataset = StudyDataset.load(small_trace_dir)
        return len(dataset.proxy_records), len(dataset.mme_records)

    def _lenient(self, directory):
        dataset = StudyDataset.load(directory, lenient=True)
        return dataset, dataset.quarantine

    def test_dropped_rows_show_as_row_deficit(
        self, small_trace_dir, tmp_path, pristine_counts
    ):
        report = corrupt_trace(
            small_trace_dir, tmp_path / "out", FaultSpec(seed=4, drop_rate=0.05)
        )
        _, quarantine = self._lenient(tmp_path / "out")
        proxy_n, mme_n = pristine_counts
        assert quarantine.rows_read["proxy"] == proxy_n - report.counts.get(
            "proxy.dropped", 0
        )
        assert quarantine.rows_read["mme"] == mme_n - report.counts.get(
            "mme.dropped", 0
        )

    def test_duplicates_quarantined_exactly(self, small_trace_dir, tmp_path):
        report = corrupt_trace(
            small_trace_dir, tmp_path / "out", FaultSpec(seed=4, duplicate_rate=0.04)
        )
        _, quarantine = self._lenient(tmp_path / "out")
        assert quarantine.count("proxy-duplicate") == report.counts["proxy.duplicated"]
        assert quarantine.count("mme-duplicate") == report.counts["mme.duplicated"]

    def test_bad_imeis_quarantined_exactly(self, small_trace_dir, tmp_path):
        report = corrupt_trace(
            small_trace_dir, tmp_path / "out", FaultSpec(seed=4, bad_imei_rate=0.04)
        )
        _, quarantine = self._lenient(tmp_path / "out")
        assert quarantine.count("proxy-imei") == report.counts["proxy.bad_imei"]
        assert quarantine.count("mme-imei") == report.counts["mme.bad_imei"]

    def test_bad_sectors_quarantined_exactly(self, small_trace_dir, tmp_path):
        report = corrupt_trace(
            small_trace_dir, tmp_path / "out", FaultSpec(seed=4, bad_sector_rate=0.04)
        )
        _, quarantine = self._lenient(tmp_path / "out")
        assert report.counts["mme.bad_sector"] > 0
        assert quarantine.count("mme-sector") == report.counts["mme.bad_sector"]
        assert "proxy.bad_sector" not in report.counts  # proxy has no sectors

    def test_bad_bytes_quarantined_exactly(self, small_trace_dir, tmp_path):
        report = corrupt_trace(
            small_trace_dir, tmp_path / "out", FaultSpec(seed=4, bad_bytes_rate=0.04)
        )
        _, quarantine = self._lenient(tmp_path / "out")
        assert report.counts["proxy.bad_bytes"] > 0
        assert quarantine.count("proxy-value") == report.counts["proxy.bad_bytes"]
        assert "mme.bad_bytes" not in report.counts  # mme has no byte columns

    def test_garbage_rows_quarantined_exactly(self, small_trace_dir, tmp_path):
        report = corrupt_trace(
            small_trace_dir, tmp_path / "out", FaultSpec(seed=4, garbage_rate=0.03)
        )
        _, quarantine = self._lenient(tmp_path / "out")
        assert quarantine.count("proxy-fields") == report.counts["proxy.garbage"]
        assert quarantine.count("mme-fields") == report.counts["mme.garbage"]

    def test_shuffled_timestamps_noted_and_resorted(
        self, small_trace_dir, tmp_path
    ):
        report = corrupt_trace(
            small_trace_dir, tmp_path / "out", FaultSpec(seed=4, shuffle_rate=0.03)
        )
        dataset, quarantine = self._lenient(tmp_path / "out")
        assert report.counts["proxy.shuffled"] > 0
        assert quarantine.count("proxy-order") > 0
        # The loaded log has been repaired into time order.
        timestamps = [record.timestamp for record in dataset.proxy_records]
        assert timestamps == sorted(timestamps)
        # No rows are lost to shuffling: they are kept, only re-sorted.
        assert quarantine.rows_quarantined.get("proxy", 0) == 0

    def test_report_total_rejects_unknown_class(self, small_trace_dir, tmp_path):
        report = corrupt_trace(small_trace_dir, tmp_path / "out", FaultSpec())
        with pytest.raises(KeyError):
            report.total("not-a-fault")
        for fault in FAULT_CLASSES:
            assert report.total(fault) == 0


class TestGzipRoundTrip:
    def test_row_faults_on_gzip_trace(self, small_trace_dir_gz, tmp_path):
        spec = FaultSpec(seed=8, duplicate_rate=0.05)
        report = corrupt_trace(small_trace_dir_gz, tmp_path / "out", spec)
        dataset = StudyDataset.load(tmp_path / "out", lenient=True)
        assert (
            dataset.quarantine.count("proxy-duplicate")
            == report.counts["proxy.duplicated"]
        )

    def test_zero_rate_gzip_noop(self, small_trace_dir_gz, tmp_path):
        corrupt_trace(small_trace_dir_gz, tmp_path / "copy", FaultSpec(seed=1))
        assert _bytes_of(tmp_path / "copy") == _bytes_of(small_trace_dir_gz)


class TestDamagedBinPayload:
    """The injector's raw ``.bin`` reader on a block whose payload is
    damaged: a ``LogReadError``, never a bare ``zlib.error``."""

    @pytest.fixture()
    def damaged(self, small_output, tmp_path):
        trace = tmp_path / "trace"
        small_output.write(trace, format="bin")
        path = trace / "proxy.bin"
        offset, header = next(iter_blocks(path, ProxyRecord))
        data = bytearray(path.read_bytes())
        start = offset + BLOCK_HEADER_BYTES + header.comp_len // 2
        data[start : start + 8] = b"\xa5" * 8
        path.write_bytes(bytes(data))
        return trace

    def test_corrupt_trace_raises_log_read_error(self, damaged, tmp_path):
        spec = FaultSpec(seed=1, duplicate_rate=0.01)
        with pytest.raises(LogReadError, match="undecodable block") as info:
            corrupt_trace(damaged, tmp_path / "out", spec)
        assert info.value.code == "truncated"

    def test_cli_exits_2_with_one_stderr_line(self, damaged, tmp_path, capsys):
        from repro.cli import main

        argv = ["corrupt", str(damaged), "--out", str(tmp_path / "out")]
        assert main([*argv, "--seed", "1", "--rate", "0.01"]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1, lines
        assert lines[0].startswith("error [proxy-truncated]: ")
        assert "undecodable block payload" in lines[0]
