"""CLI surface of the sampling profiler.

Covers the ``--profile-out`` artifact triple end to end through a real
sharded ``analyze`` (its shards run in process) and a pooled sharded
``simulate`` (workers sample inside their own processes and the parent
merges in shard order), ``obs summarize`` schema-sniffing the
positional and rendering hotspot tables, and ``obs compare --hotspots``
alignment including its error paths.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.obs.profiler import (
    SamplingProfiler,
    build_profile,
    validate_profile_file,
    write_profile,
)


def _profile_doc(stacks, command="analyze"):
    profiler = SamplingProfiler(hz=10.0)
    for span, frames in stacks:
        profiler.record_sample(span, frames)
    return build_profile(
        profiler.snapshot(), meta={"command": command}, hz=10.0
    )


STACKS = [
    ("analyze.shard[shard=0]/shard.load", ["cli:main", "io:read", "io:parse"]),
    ("analyze.shard[shard=0]/shard.load", ["cli:main", "io:read", "io:parse"]),
    ("analyze.shard[shard=1]/shard.load", ["cli:main", "agg:fold"]),
]


@pytest.fixture()
def profile_path(tmp_path):
    path = tmp_path / "p.json"
    write_profile(path, _profile_doc(STACKS))
    return path


class TestAnalyzeProfileOut:
    @pytest.fixture(scope="class")
    def profiled_analyze(self, small_trace_dir, tmp_path_factory):
        out = tmp_path_factory.mktemp("profiled-analyze")
        profile_out = out / "p.json"
        code = main(
            [
                "analyze",
                str(small_trace_dir),
                "--figures",
                "fig2a",
                "--shards",
                "4",
                "--profile-out",
                str(profile_out),
                "--profile-hz",
                "97",
            ]
        )
        assert code == 0
        return profile_out

    def test_artifact_schema_valid(self, profiled_analyze):
        doc = validate_profile_file(profiled_analyze)
        assert doc["hz"] == 97.0
        assert doc["meta"]["command"] == "analyze"
        assert doc["samples"] > 0

    def test_worker_spans_attributed(self, profiled_analyze):
        doc = validate_profile_file(profiled_analyze)
        spans = {entry["span"] for entry in doc["spans"]}
        assert any("analyze.shard[shard=" in span for span in spans)

    def test_sibling_exports_written(self, profiled_analyze):
        collapsed = profiled_analyze.with_name("p.collapsed.txt")
        speedscope = profiled_analyze.with_name("p.speedscope.json")
        assert collapsed.exists() and speedscope.exists()
        doc = validate_profile_file(profiled_analyze)
        folded = sum(
            int(line.rsplit(" ", 1)[1])
            for line in collapsed.read_text(encoding="utf-8").splitlines()
        )
        assert folded == doc["samples"]
        payload = json.loads(speedscope.read_text(encoding="utf-8"))
        assert payload["profiles"][0]["endValue"] == doc["samples"]

    def test_self_compare_exits_zero(self, profiled_analyze, capsys):
        code = main(
            [
                "obs",
                "compare",
                "--hotspots",
                str(profiled_analyze),
                str(profiled_analyze),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "aligned" in out

    def test_no_profile_flag_means_no_sampler(
        self, small_trace_dir, tmp_path, capsys
    ):
        code = main(
            ["analyze", str(small_trace_dir), "--figures", "fig2a"]
        )
        assert code == 0
        assert "wrote profile" not in capsys.readouterr().err


class TestSimulateProfileOut:
    def test_pool_worker_profiles_merged(self, tmp_path):
        """The engine's pool workers sample their shards and ship the
        profiles back.  A worker's spans are roots of its own tracer, so
        its samples sit under a bare ``simulate.shard[shard=k]`` path; a
        shard run in the parent would nest under ``cli.simulate``."""
        profile_out = tmp_path / "p.json"
        code = main(
            [
                "simulate",
                "--preset",
                "small",
                "--seed",
                "7",
                "--shards",
                "4",
                "--workers",
                "2",
                "--out",
                str(tmp_path / "trace"),
                "--profile-out",
                str(profile_out),
                "--profile-hz",
                "97",
            ]
        )
        assert code == 0
        doc = validate_profile_file(profile_out)
        assert doc["meta"]["command"] == "simulate"
        spans = {entry["span"] for entry in doc["spans"]}
        assert any(span.startswith("simulate.shard[shard=") for span in spans)


class TestSummarizeProfile:
    def test_profile_positional_renders_hotspots(self, profile_path, capsys):
        assert main(["obs", "summarize", str(profile_path)]) == 0
        out = capsys.readouterr().out
        assert "profile: analyze" in out
        assert "io:parse" in out
        assert "self%" in out

    def test_top_limits_rows(self, profile_path, capsys):
        assert (
            main(["obs", "summarize", str(profile_path), "--top", "1"]) == 0
        )
        out = capsys.readouterr().out
        assert "io:parse" in out
        assert "more frames" in out

    def test_profile_flag_appends_hotspots_to_stage_table(
        self, profile_path, tmp_path, capsys
    ):
        from repro.obs.export import build_run_report, write_run_report
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.spans import Tracer

        tracer = Tracer(enabled=True)
        with tracer.span("cli.analyze"):
            pass
        report = build_run_report(
            MetricsRegistry(enabled=True).snapshot(),
            tracer.tree(),
            {"command": "analyze"},
        )
        report_path = tmp_path / "report.json"
        write_run_report(report_path, report)
        code = main(
            [
                "obs",
                "summarize",
                str(report_path),
                "--profile",
                str(profile_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "cli.analyze" in out
        assert "hotspots" in out
        assert "io:parse" in out

    def test_invalid_profile_positional_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps({"schema": "repro.obs/profile/v1", "samples": "x"}),
            encoding="utf-8",
        )
        assert main(["obs", "summarize", str(bad)]) == 2
        assert "not a valid profile" in capsys.readouterr().err

    def test_missing_file_exits_two(self, tmp_path, capsys):
        assert main(["obs", "summarize", str(tmp_path / "nope.json")]) == 2
        assert "cannot read" in capsys.readouterr().err


class TestCompareHotspots:
    def test_diverging_frame_named(self, profile_path, tmp_path, capsys):
        shifted = STACKS + [
            ("analyze.shard[shard=1]/shard.load", ["cli:main", "hot:new"])
        ] * 5
        other_path = tmp_path / "q.json"
        write_profile(other_path, _profile_doc(shifted))
        json_out = tmp_path / "cmp.json"
        code = main(
            [
                "obs",
                "compare",
                "--hotspots",
                str(profile_path),
                str(other_path),
                "--json",
                str(json_out),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "hot:new" in out
        assert out.index("hot:new") < out.index("io:parse")
        payload = json.loads(json_out.read_text(encoding="utf-8"))
        assert payload["schema"] == "repro.obs/profile-compare/v1"
        assert any(f["frame"] == "hot:new" for f in payload["frames"])

    def test_invalid_input_exits_two(self, profile_path, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}", encoding="utf-8")
        code = main(
            ["obs", "compare", "--hotspots", str(profile_path), str(bad)]
        )
        assert code == 2
        assert "not a valid profile" in capsys.readouterr().err

    def test_missing_input_exits_two(self, profile_path, tmp_path, capsys):
        code = main(
            [
                "obs",
                "compare",
                "--hotspots",
                str(profile_path),
                str(tmp_path / "nope.json"),
            ]
        )
        assert code == 2
        assert "cannot read" in capsys.readouterr().err

    def test_run_reports_rejected_with_hotspots(
        self, tmp_path, capsys
    ):
        # a run report is not a profile; --hotspots must refuse it
        report_path = tmp_path / "report.json"
        report_path.write_text(
            json.dumps({"schema": "repro.obs/run-report/v1"}),
            encoding="utf-8",
        )
        code = main(
            [
                "obs",
                "compare",
                "--hotspots",
                str(report_path),
                str(report_path),
            ]
        )
        assert code == 2
