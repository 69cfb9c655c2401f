"""End-to-end tests for the command-line interface."""

import json

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def trace_dir(tmp_path_factory):
    """A small exported trace shared by the CLI tests."""
    out = tmp_path_factory.mktemp("cli") / "trace"
    code = main(
        ["simulate", "--scale", "small", "--seed", "11", "--out", str(out)]
    )
    assert code == 0
    return out


class TestSimulate:
    def test_creates_all_artifacts(self, trace_dir):
        for name in (
            "proxy.csv",
            "mme.csv",
            "devices.csv",
            "sectors.csv",
            "accounts.csv",
            "metadata.json",
        ):
            assert (trace_dir / name).exists(), name

    def test_overrides_apply(self, tmp_path, capsys):
        out = tmp_path / "trace"
        code = main(
            [
                "simulate",
                "--scale",
                "small",
                "--seed",
                "3",
                "--out",
                str(out),
                "--wearable-users",
                "30",
                "--general-users",
                "15",
            ]
        )
        assert code == 0
        from repro.core.dataset import StudyDataset

        dataset = StudyDataset.load(out)
        # 30 wearable + 15 general accounts => 30 + 45 SIMs.
        assert len(dataset.account_directory) == 75

    def test_anonymize_flag(self, tmp_path):
        out = tmp_path / "anon"
        code = main(
            [
                "simulate",
                "--scale",
                "small",
                "--seed",
                "11",
                "--out",
                str(out),
                "--anonymize",
            ]
        )
        assert code == 0
        from repro.core.dataset import StudyDataset

        anonymized = StudyDataset.load(out)
        # Pseudonymous subscriber ids start with the 'p' prefix.
        assert all(
            s.startswith("p") for s in list(anonymized.account_directory)[:10]
        )


class TestSimulateSharded:
    def test_workers_and_shards_flags_roundtrip(self, tmp_path, capsys):
        serial = tmp_path / "serial"
        sharded = tmp_path / "sharded"
        base = ["simulate", "--scale", "small", "--seed", "11"]
        assert main(base + ["--out", str(serial)]) == 0
        assert (
            main(base + ["--out", str(sharded), "--shards", "4", "--workers", "2"])
            == 0
        )
        # The trace is byte-identical for any shard/worker count.
        for name in ("proxy.csv", "mme.csv", "accounts.csv"):
            assert (sharded / name).read_bytes() == (serial / name).read_bytes()

    def test_per_shard_timings_reported(self, tmp_path, capsys):
        out = tmp_path / "trace"
        code = main(
            [
                "simulate",
                "--scale",
                "small",
                "--seed",
                "11",
                "--out",
                str(out),
                "--shards",
                "3",
            ]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "shard 0:" in err
        assert "shard 2:" in err
        assert "peak resident" in err

    def test_invalid_shard_count_rejected(self, tmp_path):
        code = main(
            [
                "simulate",
                "--scale",
                "small",
                "--out",
                str(tmp_path / "x"),
                "--shards",
                "0",
            ]
        )
        assert code == 2


class TestValidate:
    def test_clean_trace_exit_zero(self, trace_dir, capsys):
        assert main(["validate", str(trace_dir)]) == 0
        out = capsys.readouterr().out
        assert "no issues" in out

    def test_corrupt_trace_exit_nonzero(self, trace_dir, tmp_path, capsys):
        import shutil

        broken = tmp_path / "broken"
        shutil.copytree(trace_dir, broken)
        # Drop the accounts directory: every record becomes orphaned.
        (broken / "accounts.csv").write_text("subscriber_id,account_id\n")
        assert main(["validate", str(broken)]) == 1
        assert "subscriber" in capsys.readouterr().out


class TestAnalyze:
    def test_prints_selected_figure(self, trace_dir, capsys):
        assert main(["analyze", str(trace_dir), "--figures", "fig8"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 8" in out

    def test_unknown_figure_rejected(self, trace_dir, capsys):
        assert main(["analyze", str(trace_dir), "--figures", "fig99"]) == 2

    def test_figures_tolerate_whitespace_and_dupes(self, trace_dir, tmp_path):
        """`--figures "fig2a, fig8"` must not report ' fig8' as unknown."""
        out_dir = tmp_path / "figs"
        code = main(
            [
                "analyze",
                str(trace_dir),
                "--figures",
                " fig2a, fig8 ,fig2a,, ",
                "--out",
                str(out_dir),
            ]
        )
        assert code == 0
        written = {p.stem for p in out_dir.glob("*.txt")}
        assert written == {"fig2a", "fig8"}

    def test_figures_only_whitespace_means_all(self, trace_dir, tmp_path):
        out_dir = tmp_path / "figs"
        assert main(["analyze", str(trace_dir), "--figures", " , ", "--out", str(out_dir)]) == 0
        from repro.core.figures import FIGURE_RENDERERS

        assert {p.stem for p in out_dir.glob("*.txt")} == set(FIGURE_RENDERERS)

    def test_writes_all_figures_to_directory(self, trace_dir, tmp_path):
        out_dir = tmp_path / "figs"
        assert main(["analyze", str(trace_dir), "--out", str(out_dir)]) == 0
        from repro.core.figures import FIGURE_RENDERERS

        written = {p.stem for p in out_dir.glob("*.txt")}
        assert written == set(FIGURE_RENDERERS)


class TestScoreboard:
    def test_prints_paper_vs_measured(self, trace_dir, capsys):
        assert main(["scoreboard", str(trace_dir)]) == 0
        out = capsys.readouterr().out
        assert "paper" in out
        assert "measured" in out
        assert "growth %/month" in out


class TestCleanErrors:
    """No tracebacks: bad inputs produce one-line diagnostics + exit 2."""

    def test_missing_trace_dir(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "nope")]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "trace directory not found" in err

    def test_file_instead_of_directory(self, tmp_path, capsys):
        bogus = tmp_path / "not-a-trace"
        bogus.mkdir()
        assert main(["analyze", str(bogus)]) == 2
        err = capsys.readouterr().err
        assert "metadata.json" in err

    def test_strict_analyze_of_corrupt_trace_names_the_code(
        self, trace_dir, tmp_path, capsys
    ):
        out = tmp_path / "bad"
        assert (
            main(
                [
                    "corrupt",
                    str(trace_dir),
                    "--out",
                    str(out),
                    "--seed",
                    "3",
                    "--rate",
                    "0.05",
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["analyze", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error [proxy-" in err or "error [mme-" in err
        assert "--lenient" in err  # the hint

    def test_quarantine_report_requires_lenient(self, trace_dir, tmp_path, capsys):
        code = main(
            [
                "analyze",
                str(trace_dir),
                "--quarantine-report",
                str(tmp_path / "q.json"),
            ]
        )
        assert code == 2
        assert "--lenient" in capsys.readouterr().err


class TestCorrupt:
    @pytest.fixture(scope="class")
    def corrupted(self, trace_dir, tmp_path_factory):
        out = tmp_path_factory.mktemp("cli-corrupt") / "trace"
        code = main(
            [
                "corrupt",
                str(trace_dir),
                "--out",
                str(out),
                "--seed",
                "21",
                "--rate",
                "0.03",
                "--truncate",
                "0.0",
            ]
        )
        assert code == 0
        return out

    def test_writes_fault_manifest(self, corrupted):
        manifest = json.loads((corrupted / "faults.json").read_text())
        assert manifest["seed"] == 21
        assert any(count > 0 for count in manifest["counts"].values())

    def test_lenient_analyze_completes_with_report(
        self, corrupted, tmp_path, capsys
    ):
        report_path = tmp_path / "quarantine.json"
        code = main(
            [
                "analyze",
                str(corrupted),
                "--lenient",
                "--quarantine-report",
                str(report_path),
                "--figures",
                "fig8",
            ]
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["total_quarantined"] > 0
        assert "quarantined" in capsys.readouterr().err

    def test_zero_rate_copy_is_identical(self, trace_dir, tmp_path):
        out = tmp_path / "copy"
        assert (
            main(
                [
                    "corrupt",
                    str(trace_dir),
                    "--out",
                    str(out),
                    "--rate",
                    "0.0",
                    "--truncate",
                    "0.0",
                ]
            )
            == 0
        )
        assert (out / "proxy.csv").read_bytes() == (
            trace_dir / "proxy.csv"
        ).read_bytes()

    def test_drop_file_flag(self, trace_dir, tmp_path):
        out = tmp_path / "dropped"
        code = main(
            [
                "corrupt",
                str(trace_dir),
                "--out",
                str(out),
                "--rate",
                "0.0",
                "--truncate",
                "0.0",
                "--drop-file",
                "mme",
            ]
        )
        assert code == 0
        assert not (out / "mme.csv").exists()
        # …and a lenient validate still exits cleanly with issues reported.
        assert main(["validate", str(out), "--lenient"]) == 1


class TestAnalyzeParallel:
    def test_parallel_figures_match_serial(self, trace_dir, tmp_path):
        serial = tmp_path / "serial"
        par = tmp_path / "par"
        assert (
            main(
                ["analyze", str(trace_dir), "--figures", "fig2a,fig8", "--out", str(serial)]
            )
            == 0
        )
        assert (
            main(
                [
                    "analyze",
                    str(trace_dir),
                    "--figures",
                    "fig2a,fig8",
                    "--out",
                    str(par),
                    "--shards",
                    "4",
                ]
            )
            == 0
        )
        for name in ("fig2a", "fig8"):
            assert (par / f"{name}.txt").read_text() == (
                serial / f"{name}.txt"
            ).read_text(), name

    def test_shard_accounting_reported(self, trace_dir, tmp_path, capsys):
        code = main(
            [
                "analyze",
                str(trace_dir),
                "--figures",
                "fig8",
                "--out",
                str(tmp_path / "figs"),
                "--shards",
                "3",
            ]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "3 shard(s)" in err
        assert "peak shard residency" in err

    def test_invalid_shards_rejected(self, trace_dir, capsys):
        assert main(["analyze", str(trace_dir), "--shards", "0"]) == 2
        assert "--shards" in capsys.readouterr().err

    def test_parallel_lenient_quarantine_report(self, trace_dir, tmp_path):
        broken = tmp_path / "broken"
        assert (
            main(
                [
                    "corrupt",
                    str(trace_dir),
                    "--out",
                    str(broken),
                    "--seed",
                    "5",
                    "--rate",
                    "0.03",
                ]
            )
            == 0
        )
        qpath = tmp_path / "quarantine.json"
        code = main(
            [
                "analyze",
                str(broken),
                "--figures",
                "fig8",
                "--out",
                str(tmp_path / "figs"),
                "--shards",
                "4",
                "--lenient",
                "--quarantine-report",
                str(qpath),
            ]
        )
        assert code == 0
        report = json.loads(qpath.read_text())
        assert report["total_quarantined"] > 0

    def test_parallel_run_report_has_shard_spans(self, trace_dir, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            [
                "analyze",
                str(trace_dir),
                "--figures",
                "fig8",
                "--out",
                str(tmp_path / "figs"),
                "--shards",
                "2",
                "--metrics-out",
                str(out),
            ]
        )
        assert code == 0
        text = out.read_text()
        assert "analyze.parallel" in text
        assert "analyze.shard" in text
        assert "analyze.merge" in text
