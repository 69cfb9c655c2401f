"""Differential suite for ``repro convert`` and the ``--format`` flags.

The conversion contract is *losslessness*: CSV -> bin -> CSV must
reproduce the original log files byte for byte (golden SHA), for traces
produced at any shard count, and an analysis over the binary encoding
must equal the analysis over the CSV encoding exactly.  Structural
decode failures (bad magic, unknown version) must surface as a clean
one-line CLI error with exit code 2, never a traceback.
"""

import hashlib
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.logs.binfmt import (
    VERSION,
    read_bin_records,
    write_bin_records,
)
from repro.logs.records import MmeRecord, ProxyRecord
from repro.simnet.config import SimulationConfig
from repro.simnet.engine import ShardedSimulationEngine


def sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def convert(src, dst, to: str) -> int:
    return main(["convert", str(src), "--out", str(dst), "--to", to])


# --------------------------------------------------------------- golden SHA
class TestGoldenRoundtrip:
    @pytest.fixture(scope="class", params=[1, 4])
    def trace(self, request, tmp_path_factory, small_output):
        """The small preset exported as CSV at shard counts 1 and 4."""
        base = tmp_path_factory.mktemp(f"k{request.param}") / "trace"
        if request.param == 1:
            small_output.write(base)
        else:
            config = SimulationConfig.small(seed=7)
            engine = ShardedSimulationEngine(config, shards=request.param)
            with engine.run_streaming() as run:
                run.write(base)
        return base

    def test_csv_bin_csv_is_byte_identical(self, trace, tmp_path):
        assert convert(trace, tmp_path / "bin", "bin") == 0
        assert convert(tmp_path / "bin", tmp_path / "back", "csv") == 0
        for name in ("proxy.csv", "mme.csv"):
            assert sha(tmp_path / "back" / name) == sha(trace / name), name

    def test_side_artifacts_copied_verbatim(self, trace, tmp_path):
        assert convert(trace, tmp_path / "bin", "bin") == 0
        for name in (
            "devices.csv",
            "sectors.csv",
            "accounts.csv",
            "metadata.json",
        ):
            assert sha(tmp_path / "bin" / name) == sha(trace / name), name

    def test_binary_conversion_is_deterministic(self, trace, tmp_path):
        assert convert(trace, tmp_path / "one", "bin") == 0
        assert convert(trace, tmp_path / "two", "bin") == 0
        assert sha(tmp_path / "one" / "proxy.bin") == sha(
            tmp_path / "two" / "proxy.bin"
        )
        assert sha(tmp_path / "one" / "mme.bin") == sha(
            tmp_path / "two" / "mme.bin"
        )


class TestAnalyzeEquivalence:
    """The figures must not depend on the wire format or worker count."""

    @pytest.fixture(scope="class")
    def both_formats(self, tmp_path_factory, small_trace_dir):
        bin_dir = tmp_path_factory.mktemp("fmt") / "bin"
        assert convert(small_trace_dir, bin_dir, "bin") == 0
        return small_trace_dir, bin_dir

    def test_reports_identical_csv_vs_bin(self, both_formats):
        from repro.core.dataset import StudyDataset
        from repro.core.export import report_to_dict
        from repro.core.pipeline import WearableStudy

        csv_dir, bin_dir = both_formats
        csv_report = WearableStudy(StudyDataset.load(csv_dir)).run_all()
        bin_report = WearableStudy(
            StudyDataset.load(bin_dir, format="bin")
        ).run_all()
        assert report_to_dict(csv_report) == report_to_dict(bin_report)

    def test_sharded_analysis_identical_csv_vs_bin(self, both_formats):
        from repro.core.export import report_to_dict
        from repro.core.parallel import analyze_parallel

        csv_dir, bin_dir = both_formats
        a = analyze_parallel(csv_dir, shards=4)
        b = analyze_parallel(bin_dir, shards=4, format="bin")
        assert report_to_dict(a.report) == report_to_dict(b.report)
        assert a.proxy_rows == b.proxy_rows
        assert a.mme_rows == b.mme_rows


# ------------------------------------------------------- property round-trip
def _safe_text(min_size=1):
    return st.text(
        alphabet=st.characters(
            blacklist_categories=("Cs",), blacklist_characters="\r\n,\""
        ),
        min_size=min_size,
        max_size=24,
    )


_timestamps = st.floats(
    min_value=0.0,
    max_value=4e9,
    allow_nan=False,
    allow_infinity=False,
)

proxy_strategy = st.builds(
    ProxyRecord,
    timestamp=_timestamps,
    subscriber_id=_safe_text(),
    imei=_safe_text(),
    host=_safe_text(),
    path=_safe_text(min_size=0),
    protocol=st.sampled_from(("http", "https")),
    bytes_up=st.integers(min_value=0, max_value=2**48),
    bytes_down=st.integers(min_value=0, max_value=2**48),
)

mme_strategy = st.builds(
    MmeRecord,
    timestamp=_timestamps,
    subscriber_id=_safe_text(),
    imei=_safe_text(),
    sector_id=_safe_text(),
    event=st.sampled_from(
        ("attach", "detach", "handover", "tracking_area_update")
    ),
)


class TestPropertyRoundtrip:
    @settings(max_examples=40, deadline=None)
    @given(records=st.lists(proxy_strategy, max_size=60))
    def test_proxy_bin_roundtrip(self, tmp_path_factory, records):
        path = tmp_path_factory.mktemp("prop") / "proxy.bin"
        assert write_bin_records(path, records, ProxyRecord) == len(records)
        assert list(read_bin_records(path, ProxyRecord)) == records

    @settings(max_examples=40, deadline=None)
    @given(records=st.lists(mme_strategy, max_size=60))
    def test_mme_bin_roundtrip(self, tmp_path_factory, records):
        path = tmp_path_factory.mktemp("prop") / "mme.bin"
        assert write_bin_records(path, records, MmeRecord) == len(records)
        assert list(read_bin_records(path, MmeRecord)) == records


# ----------------------------------------------------------- decode failures
class TestStructuralErrors:
    @pytest.fixture()
    def bin_trace(self, tmp_path, small_trace_dir):
        out = tmp_path / "bin"
        assert convert(small_trace_dir, out, "bin") == 0
        return out

    def _patched(self, bin_trace, mutate):
        data = bytearray((bin_trace / "proxy.bin").read_bytes())
        mutate(data)
        (bin_trace / "proxy.bin").write_bytes(bytes(data))
        return bin_trace

    def test_bad_magic_one_line_exit_2(self, bin_trace, tmp_path, capsys):
        self._patched(bin_trace, lambda d: d.__setitem__(slice(0, 4), b"XXXX"))
        code = convert(bin_trace, tmp_path / "out", "csv")
        captured = capsys.readouterr()
        assert code == 2
        lines = [l for l in captured.err.splitlines() if l.strip()]
        assert len(lines) == 1
        assert lines[0].startswith("error [proxy-magic]:")
        assert "Traceback" not in captured.err

    def test_unknown_version_one_line_exit_2(
        self, bin_trace, tmp_path, capsys
    ):
        self._patched(
            bin_trace,
            lambda d: struct.pack_into("<H", d, 4, VERSION + 99),
        )
        code = convert(bin_trace, tmp_path / "out", "csv")
        captured = capsys.readouterr()
        assert code == 2
        lines = [l for l in captured.err.splitlines() if l.strip()]
        assert len(lines) == 1
        assert lines[0].startswith("error [proxy-version]:")
        assert str(VERSION + 99) in lines[0]

    def test_missing_trace_dir_exit_2(self, tmp_path, capsys):
        code = convert(tmp_path / "nope", tmp_path / "out", "bin")
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_log_exit_2(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        code = convert(empty, tmp_path / "out", "bin")
        assert code == 2
        assert "proxy" in capsys.readouterr().err
