"""Integration tests: pool determinism, quarantine metrics, CLI artifacts.

These are the acceptance gates for the observability subsystem:

* for the process pool (the simulation engine's) the merged span tree's
  *structure* is identical for ``workers=1`` and ``workers=2`` at a
  fixed seed (and so are the merged counters);
* quarantine issue codes from a corrupted trace surface as labeled
  counters in the Prometheus export;
* the CLI writes a schema-valid run report and a Perfetto-loadable
  Chrome trace.
"""

from __future__ import annotations

import json
import os

import pytest

from repro import obs
from repro.cli import main
from repro.core.dataset import StudyDataset
from repro.logs.faults import FaultSpec, corrupt_trace
from repro.obs.export import (
    validate_chrome_trace_file,
    validate_run_report_file,
)
from repro.obs.metrics import render_prometheus
from repro.simnet.config import SimulationConfig
from repro.simnet.engine import ShardedSimulationEngine


def _engine(workers: int, tmp_path):
    """The sharded engine's simulate-and-export, as an observable call."""
    engine = ShardedSimulationEngine(
        SimulationConfig.small(seed=20), shards=4, workers=workers
    )

    def simulate() -> None:
        with engine.run_streaming(spool_dir=tmp_path / "spool") as run:
            run.write(tmp_path / "out")

    return simulate


def _observed(call):
    """Run ``call`` under obs; return (span structure, sorted counters)."""
    with obs.observe() as ob:
        call()
        tree = ob.tracer.tree()
        snap = ob.metrics.snapshot()
    counters = sorted(
        (c["name"], tuple(sorted(c["labels"].items())), c["value"])
        for c in snap["counters"]
    )
    return tree.structure(), counters


class TestEngineDeterminism:
    @pytest.mark.parametrize("case", [_engine], ids=["engine"])
    def test_span_tree_invariant_to_workers(self, case, tmp_path):
        serial = _observed(case(1, tmp_path / "w1"))
        pooled = _observed(case(2, tmp_path / "w2"))
        assert serial[0] == pooled[0]
        assert serial[1] == pooled[1]

    def test_worker_count_not_in_span_attrs(self, tmp_path):
        structure, _ = _observed(_engine(2, tmp_path))

        def attr_keys(node) -> set[str]:
            name, attrs, children = node
            keys = {key for key, _ in attrs}
            for child in children:
                keys |= attr_keys(child)
            return keys

        assert "workers" not in attr_keys(structure)
        assert "shards" in attr_keys(structure)

    def test_per_shard_record_counters_match_stats(self, tmp_path):
        config = SimulationConfig.small(seed=20)
        with obs.observe() as ob:
            engine = ShardedSimulationEngine(config, shards=3, workers=2)
            run = engine.run_streaming(spool_dir=tmp_path / "spool")
            run.cleanup()
            registry = ob.metrics
            for stats in run.shard_stats:
                assert registry.counter_value(
                    "repro_engine_proxy_records_total", shard=stats.shard
                ) == stats.proxy_records
                assert registry.counter_value(
                    "repro_engine_mme_records_total", shard=stats.shard
                ) == stats.mme_records

    def test_parallel_shard_stats_carry_snapshots(self, tmp_path):
        """Pooled shards' span subtrees land in the merged tree."""
        config = SimulationConfig.small(seed=20)
        with obs.observe() as ob:
            engine = ShardedSimulationEngine(config, shards=2, workers=2)
            run = engine.run_streaming(spool_dir=tmp_path / "spool2")
            run.cleanup()
            tree = ob.tracer.tree()
        (fan_out,) = [
            node for _, node in tree.walk() if node.name == "simulate.shards"
        ]
        assert [(c.name, c.attrs) for c in fan_out.children] == [
            ("simulate.shard", {"shard": 0}),
            ("simulate.shard", {"shard": 1}),
        ]
        assert all(c.pid != os.getpid() for c in fan_out.children)
        for stats in run.shard_stats:
            assert stats.elapsed_seconds > 0


class TestQuarantineMetrics:
    @pytest.fixture(scope="class")
    def corrupted_trace(self, tmp_path_factory):
        base = tmp_path_factory.mktemp("quarantine-metrics")
        pristine = base / "pristine"
        engine = ShardedSimulationEngine(SimulationConfig.small(seed=13))
        run = engine.run_streaming(spool_dir=base / "spool")
        run.write(pristine)
        run.cleanup()
        corrupted = base / "corrupted"
        corrupt_trace(pristine, corrupted, FaultSpec(seed=5, drop_rate=0.0,
                                                     bad_imei_rate=0.05,
                                                     garbage_rate=0.05))
        return corrupted

    def test_quarantine_codes_become_labeled_counters(self, corrupted_trace):
        with obs.observe() as ob:
            StudyDataset.load(corrupted_trace, lenient=True)
            snap = ob.metrics.snapshot()
        text = render_prometheus(snap)
        assert "# TYPE repro_quarantine_issues_total counter" in text
        assert 'repro_quarantine_issues_total{code="proxy-imei"}' in text
        # Row-level quarantine totals are labeled by stream.
        assert 'repro_quarantine_rows_total{stream="proxy"}' in text

    def test_quarantine_counts_match_report(self, corrupted_trace):
        with obs.observe() as ob:
            dataset = StudyDataset.load(corrupted_trace, lenient=True)
            total = ob.metrics.sum_counter("repro_quarantine_rows_total")
        assert dataset.quarantine is not None
        assert total == sum(dataset.quarantine.rows_quarantined.values())


class TestQuarantineCounters:
    """The quarantine counters of a lenient load of the small preset,
    corrupted by ``FaultSpec.chaos`` (every row fault at 2 % and a torn
    proxy tail), count exactly what its report says, in both formats."""

    #: ``repro_io_rows_read_total{stream}``: every row that parsed
    #: (kept, or dropped by the scrubber), per format.
    ROWS_READ = {
        "csv": {"proxy": 7_848, "mme": 7_691},
        "bin": {"proxy": 7_847, "mme": 7_691},
    }

    @pytest.fixture(scope="class", params=["csv", "bin"])
    def loaded(self, request, small_output, tmp_path_factory):
        fmt = request.param
        base = tmp_path_factory.mktemp(f"quarantine-counters-{fmt}")
        small_output.write(base / "pristine", format=fmt)
        corrupt_trace(base / "pristine", base / "corrupted", FaultSpec.chaos(seed=3))
        with obs.observe() as ob:
            dataset = StudyDataset.load(base / "corrupted", lenient=True)
        return fmt, dataset, ob.metrics

    def test_rows_quarantined(self, loaded):
        _fmt, dataset, registry = loaded
        rows = dataset.quarantine.rows_quarantined
        assert set(rows) == {"proxy", "mme"}
        for stream, count in rows.items():
            assert registry.counter_value(
                "repro_quarantine_rows_total", stream=stream
            ) == count
        assert registry.sum_counter("repro_quarantine_rows_total") == sum(
            rows.values()
        )

    def test_issue_counts(self, loaded):
        _fmt, dataset, registry = loaded
        issues = dataset.quarantine.issues
        assert len(issues) >= 8
        for issue in issues:
            assert registry.counter_value(
                "repro_quarantine_issues_total", code=issue.code
            ) == issue.count, issue.code
        assert registry.sum_counter("repro_quarantine_issues_total") == sum(
            issue.count for issue in issues
        )

    def test_rows_read(self, loaded):
        fmt, dataset, registry = loaded
        report = dataset.quarantine
        for stream, table in (("proxy", dataset.proxy), ("mme", dataset.mme)):
            read = registry.counter_value(
                "repro_io_rows_read_total", stream=stream, format=fmt, category="log"
            )
            assert read == self.ROWS_READ[fmt][stream]
            dropped = sum(
                report.count(f"{stream}-{defect}")
                for defect in ("duplicate", "imei", "sector")
            )
            assert read == len(table) + dropped


class TestCliArtifacts:
    @pytest.fixture(scope="class")
    def artifacts(self, tmp_path_factory):
        base = tmp_path_factory.mktemp("cli-obs")
        metrics_out = base / "metrics.json"
        trace_out = base / "trace.json"
        code = main(
            [
                "simulate",
                "--preset",
                "small",
                "--seed",
                "17",
                "--shards",
                "4",
                "--workers",
                "2",
                "--out",
                str(base / "trace"),
                "--metrics-out",
                str(metrics_out),
                "--trace-out",
                str(trace_out),
            ]
        )
        assert code == 0
        return base, metrics_out, trace_out

    def test_run_report_is_schema_valid(self, artifacts):
        _, metrics_out, _ = artifacts
        report = validate_run_report_file(metrics_out)
        assert report["meta"]["command"] == "simulate"
        # Per-shard spans and row counters made it into the report.
        names = {c["name"] for c in report["metrics"]["counters"]}
        assert "repro_engine_proxy_records_total" in names
        assert "repro_io_rows_written_total" in names

    def test_chrome_trace_is_loadable(self, artifacts):
        _, _, trace_out = artifacts
        trace = validate_chrome_trace_file(trace_out)
        names = {e["name"] for e in trace["traceEvents"]}
        assert "simulate.shard" in names
        assert "cli.simulate" in names

    def test_normalized_summary_line(self, artifacts, capsys, tmp_path):
        base, _, _ = artifacts
        code = main(["validate", str(base / "trace")])
        assert code == 0
        err = capsys.readouterr().err
        assert "validate:" in err
        assert "rows in /" in err
        assert "issues," in err

    def test_metrics_out_prometheus_suffix(self, artifacts, tmp_path):
        base, _, _ = artifacts
        prom = tmp_path / "metrics.prom"
        code = main(
            ["validate", str(base / "trace"), "--metrics-out", str(prom)]
        )
        assert code == 0
        text = prom.read_text(encoding="utf-8")
        assert "# TYPE repro_io_rows_read_total counter" in text

    def test_obs_summarize_renders_stage_table(
        self, artifacts, capsys
    ):
        _, metrics_out, _ = artifacts
        code = main(["obs", "summarize", str(metrics_out)])
        assert code == 0
        out = capsys.readouterr().out
        assert "run report: simulate" in out
        assert "simulate.shard [shard=0]" in out
        assert "repro_engine_proxy_records_total" in out

    def test_obs_summarize_rejects_invalid_report(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.json"
        bogus.write_text(json.dumps({"schema": "nope"}), encoding="utf-8")
        code = main(["obs", "summarize", str(bogus)])
        assert code == 2
        assert "not a valid run report" in capsys.readouterr().err

    def test_verbose_stats_prints_table(self, artifacts, capsys):
        base, _, _ = artifacts
        code = main(
            ["validate", str(base / "trace"), "--verbose-stats"]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "validate.check" in err
        assert "stage" in err
