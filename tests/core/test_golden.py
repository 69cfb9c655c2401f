"""Every execution mode against the golden report fixture.

Batch analysis, ``analyze_parallel`` at every shard × worker count and a
``repro serve`` service that catches up with a growing copy of the trace
must all reproduce the stored small-preset reports (see
``tests/core/golden.py``), strict and lenient.  The fixture is the
oracle; there is no switch to regenerate it from the code under test.
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


@pytest.fixture(scope="module")
def fixture():
    return golden.load_golden()


@pytest.fixture(scope="module")
def traces(small_trace_dir, tmp_path_factory):
    corrupted = tmp_path_factory.mktemp("golden") / "corrupt"
    corrupt_trace(small_trace_dir, corrupted, golden.CORRUPT_SPEC)
    return {"strict": small_trace_dir, "lenient": corrupted}


def assert_golden(report, fixture, mode):
    problems = golden.golden_mismatches(report, fixture["modes"][mode])
    assert not problems, "\n".join(problems)


class TestFixture:
    def test_provenance_is_recorded(self, fixture):
        assert re.fullmatch(r"[0-9a-f]{40}", fixture["generated_at"])
        assert fixture["preset"] == golden.PRESET
        assert fixture["seed"] == golden.SEED
        assert set(fixture["modes"]) == set(MODES)

    def test_every_report_field_is_pinned(self, fixture):
        for entry in fixture["modes"].values():
            pinned = set(entry["digests"]) | set(entry["values"])
            assert pinned == set(golden.FIELDS)

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
            "adoption",
            "activity.mean_tx_bytes",
        ]


class TestBatch:
    @pytest.mark.parametrize("mode", MODES)
    def test_batch_matches_golden(self, traces, fixture, mode):
        dataset = StudyDataset.load(traces[mode], lenient=mode == "lenient")
        assert_golden(WearableStudy(dataset).run_all(), fixture, mode)


class TestParallel:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("shards", [1, 4, 7])
    @pytest.mark.parametrize("workers", [1, 4])
    def test_parallel_matches_golden(self, traces, fixture, mode, shards, workers):
        run = analyze_parallel(
            traces[mode], shards=shards, workers=workers, lenient=mode == "lenient"
        )
        assert_golden(run.report, fixture, mode)


class TestServe:
    @pytest.mark.parametrize("mode", MODES)
    def test_caught_up_service_matches_golden(self, traces, fixture, tmp_path, mode):
        full = traces[mode]
        grow = make_growing_dir(full, tmp_path / "grow")
        service = AnalysisService(
            ServeConfig(trace_dir=grow, shards=4, lenient=mode == "lenient")
        )
        for frac in (0.45, 1.0):
            for suffix in ("proxy.csv", "mme.csv"):
                feed_prefix(full, grow, suffix, frac)
            drain(service)
        assert_golden(service.report()[1], fixture, mode)
