"""Every execution mode against the golden report fixtures.

Batch analysis, ``analyze_parallel`` at several shard counts (each also
with the ``workers`` keyword it accepts and ignores) and a ``repro
serve`` service that catches up with a growing copy of the trace must
all reproduce the stored small-preset reports (see
``tests/core/golden.py``), strict and lenient, over CSV and ``.bin``
traces.  The medium preset has a strict entry, checked for batch over
CSV and ``.bin`` and a 4-shard ``analyze_parallel`` over ``.bin``, and a
lenient entry over a corrupted ``.bin`` copy, checked for batch and
``analyze_parallel`` at 1 and 4 shards.  The fixtures are the oracle;
there is no switch to regenerate them from the code under test.
"""

import dataclasses
import re

import pytest

from repro.core.dataset import StudyDataset
from repro.core.parallel import analyze_parallel
from repro.core.pipeline import WearableStudy
from repro.logs.faults import corrupt_trace
from repro.serve.service import AnalysisService, ServeConfig

from tests.core import golden
from tests.serve.conftest import drain, feed_prefix, make_growing_dir

MODES = ("strict", "lenient")

#: Fixture entry each trace is checked against: the clean ``.bin`` copy
#: must reproduce the CSV strict report exactly.
ENTRY = {
    "strict": "strict",
    "lenient": "lenient",
    "strict_bin": "strict",
    "lenient_bin": "lenient_bin",
}


@pytest.fixture(scope="module")
def fixture():
    return golden.load_golden()


@pytest.fixture(scope="module")
def traces(small_output, small_trace_dir, tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    small_output.write(root / "bin", format="bin")
    corrupt_trace(small_trace_dir, root / "corrupt", golden.CORRUPT_SPEC)
    corrupt_trace(root / "bin", root / "corrupt-bin", golden.CORRUPT_SPEC)
    return {
        "strict": small_trace_dir,
        "lenient": root / "corrupt",
        "strict_bin": root / "bin",
        "lenient_bin": root / "corrupt-bin",
    }


def assert_golden(report, fixture, trace):
    problems = golden.golden_mismatches(report, fixture["modes"][ENTRY[trace]])
    assert not problems, "\n".join(problems)


def is_lenient(trace: str) -> bool:
    return trace.startswith("lenient")


class TestFixture:
    def test_provenance_is_recorded(self, fixture):
        assert re.fullmatch(r"[0-9a-f]{40}", fixture["generated_at"])
        assert fixture["preset"] == golden.PRESET
        assert fixture["seed"] == golden.SEED
        assert set(fixture["modes"]) == set(ENTRY.values())

    def test_every_report_field_is_pinned(self, fixture):
        for entry in fixture["modes"].values():
            assert set(entry["digests"]) == set(golden.FIELDS)

    def test_a_changed_field_is_caught(self, small_study, fixture):
        report = small_study.run_all()
        assert not golden.golden_mismatches(report, fixture["modes"]["strict"])
        activity = dataclasses.replace(
            report.activity, mean_tx_bytes=report.activity.mean_tx_bytes * 1.01
        )
        adoption = dataclasses.replace(
            report.adoption, first_week_users=report.adoption.first_week_users + 1
        )
        broken = dataclasses.replace(report, activity=activity, adoption=adoption)
        problems = golden.golden_mismatches(broken, fixture["modes"]["strict"])
        assert [line.split(":")[0] for line in problems] == [
            "activity",
            "adoption",
        ]


class TestBatch:
    @pytest.mark.parametrize("trace", sorted(ENTRY))
    def test_batch_matches_golden(self, traces, fixture, trace):
        dataset = StudyDataset.load(traces[trace], lenient=is_lenient(trace))
        assert_golden(WearableStudy(dataset).run_all(), fixture, trace)


class TestParallel:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("shards", [1, 4, 7])
    @pytest.mark.parametrize("workers", [1, 4])
    def test_parallel_matches_golden(self, traces, fixture, mode, shards, workers):
        run = analyze_parallel(
            traces[mode], shards=shards, workers=workers, lenient=is_lenient(mode)
        )
        assert_golden(run.report, fixture, mode)

    @pytest.mark.parametrize("trace", ["strict_bin", "lenient_bin"])
    @pytest.mark.parametrize("shards", [1, 4])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_parallel_bin_matches_golden(
        self, traces, fixture, trace, shards, workers
    ):
        run = analyze_parallel(
            traces[trace], shards=shards, workers=workers, lenient=is_lenient(trace)
        )
        assert_golden(run.report, fixture, trace)


class TestServe:
    @pytest.mark.parametrize("trace", sorted(ENTRY))
    def test_caught_up_service_matches_golden(
        self, traces, fixture, tmp_path, trace
    ):
        full = traces[trace]
        suffix = ".bin" if trace.endswith("_bin") else ".csv"
        grow = make_growing_dir(full, tmp_path / "grow")
        service = AnalysisService(
            ServeConfig(trace_dir=grow, shards=4, lenient=is_lenient(trace))
        )
        for frac in (0.45, 1.0):
            for stem in ("proxy", "mme"):
                feed_prefix(full, grow, stem + suffix, frac)
            drain(service)
        assert_golden(service.report()[1], fixture, trace)


class TestMedium:
    """The medium preset (the suite's ``medium_output``): strict over CSV
    and ``.bin``, lenient over a corrupted ``.bin`` copy."""

    @pytest.fixture(scope="class")
    def medium_fixture(self):
        return golden.load_golden(golden.MEDIUM_PATH)

    @pytest.fixture(scope="class")
    def medium_traces(self, medium_output, tmp_path_factory):
        root = tmp_path_factory.mktemp("golden-medium")
        medium_output.write(root / "bin", format="bin")
        corrupt_trace(root / "bin", root / "corrupt-bin", golden.CORRUPT_SPEC)
        return {"strict_bin": root / "bin", "lenient_bin": root / "corrupt-bin"}

    def assert_entry(self, report, medium_fixture, entry):
        problems = golden.golden_mismatches(
            report, medium_fixture["modes"][entry]
        )
        assert not problems, "\n".join(problems)

    def test_provenance_is_recorded(self, medium_fixture):
        assert re.fullmatch(r"[0-9a-f]{40}", medium_fixture["generated_at"])
        assert medium_fixture["preset"] == golden.MEDIUM_PRESET
        assert medium_fixture["seed"] == golden.MEDIUM_SEED
        assert set(medium_fixture["modes"]) == {"strict", "lenient_bin"}
        added = medium_fixture["modes"]["lenient_bin"]["generated_at"]
        assert re.fullmatch(r"[0-9a-f]{40}", added)
        for entry in medium_fixture["modes"].values():
            assert set(entry["digests"]) == set(golden.FIELDS)

    def test_batch_matches_golden(self, medium_study, medium_fixture):
        self.assert_entry(medium_study.run_all(), medium_fixture, "strict")

    def test_batch_bin_matches_golden(self, medium_traces, medium_fixture):
        dataset = StudyDataset.load(medium_traces["strict_bin"], format="bin")
        self.assert_entry(
            WearableStudy(dataset).run_all(), medium_fixture, "strict"
        )

    def test_parallel_bin_matches_golden(self, medium_traces, medium_fixture):
        run = analyze_parallel(medium_traces["strict_bin"], shards=4)
        self.assert_entry(run.report, medium_fixture, "strict")

    def test_lenient_bin_batch_matches_golden(
        self, medium_traces, medium_fixture
    ):
        dataset = StudyDataset.load(medium_traces["lenient_bin"], lenient=True)
        self.assert_entry(
            WearableStudy(dataset).run_all(), medium_fixture, "lenient_bin"
        )

    @pytest.mark.parametrize("shards", [1, 4])
    def test_lenient_bin_parallel_matches_golden(
        self, medium_traces, medium_fixture, shards
    ):
        run = analyze_parallel(
            medium_traces["lenient_bin"], shards=shards, lenient=True
        )
        self.assert_entry(run.report, medium_fixture, "lenient_bin")
