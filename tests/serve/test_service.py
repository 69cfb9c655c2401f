"""The ``repro.serve`` differential contract and crash recovery.

The invariant pinned here is the one the subsystem exists for: a
service fed a trace *incrementally* — in arbitrary byte-sized steps,
through kills and restores — produces, at every poll boundary, exactly
the report batch ``analyze_parallel`` computes on the same prefix with
the same ``shards``/``lenient`` settings.  Covered: plain CSV,
``.csv.gz`` and ``.bin`` wire formats, strict and lenient modes,
fault-injected traces, checkpoint/restore (including a torn newest
checkpoint), and subprocess SIGTERM/SIGKILL against the real CLI.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.export import report_to_dict
from repro.core.parallel import analyze_parallel
from repro.logs import binfmt
from repro.logs.records import MmeRecord, ProxyRecord, fields_for
from repro.serve.checkpoint import CheckpointStore
from repro.serve.service import AnalysisService, ServeConfig, ServiceNotReady

from tests.serve.conftest import (
    drain,
    feed_prefix,
    make_growing_dir,
    snapshot_prefix_dir,
)

GROWTH_FRACS = (0.45, 1.0)


def batch_report_dict(trace_dir, *, shards, lenient, fmt):
    run = analyze_parallel(
        trace_dir, shards=shards, workers=1, lenient=lenient, format=fmt
    )
    return report_to_dict(run.report)


def service_report_dict(service):
    _, report = service.report()
    return report_to_dict(report)


@pytest.fixture(scope="module")
def bin_trace_dir(small_output, small_trace_dir, tmp_path_factory):
    """The small trace re-encoded as many-block binary logs."""
    base = tmp_path_factory.mktemp("bin") / "small"
    make_growing_dir(small_trace_dir, base)
    binfmt.write_bin_records(
        base / "proxy.bin", small_output.proxy_records, ProxyRecord,
        block_rows=512,
    )
    binfmt.write_bin_records(
        base / "mme.bin", small_output.mme_records, MmeRecord, block_rows=512,
    )
    return base


@pytest.fixture(scope="module")
def bin_corrupt_trace_dir(small_output, small_trace_dir, tmp_path_factory):
    """Binary logs with malformed-IMEI and duplicate rows spliced in."""
    base = tmp_path_factory.mktemp("bin-corrupt") / "small"
    make_growing_dir(small_trace_dir, base)

    def entries(records, record_type, every):
        names = fields_for(record_type)
        imei_at = names.index("imei")
        for index, record in enumerate(records):
            row = tuple(getattr(record, name) for name in names)
            if index % every == 37:
                bad = list(row)
                bad[imei_at] = "BAD-IMEI"
                yield "row", tuple(bad)
            elif index % every == 11:
                yield "row", row
                yield "row", row  # back-to-back duplicate
            else:
                yield "row", row

    binfmt.write_bin_rows(
        base / "proxy.bin",
        entries(small_output.proxy_records, ProxyRecord, 101),
        ProxyRecord,
        block_rows=512,
    )
    binfmt.write_bin_rows(
        base / "mme.bin",
        entries(small_output.mme_records, MmeRecord, 101),
        MmeRecord,
        block_rows=512,
    )
    return base


def grow_and_compare(full, tmp_path, *, lenient, fmt, suffixes, shards=2):
    """Feed byte prefixes; at each boundary, service ≡ batch on prefix."""
    grow = make_growing_dir(full, tmp_path / "grow")
    service = AnalysisService(
        ServeConfig(
            trace_dir=grow, shards=shards, lenient=lenient, format=fmt
        )
    )
    for step, frac in enumerate(GROWTH_FRACS):
        for suffix in suffixes:
            feed_prefix(full, grow, suffix, frac)
        drain(service)
        prefix = snapshot_prefix_dir(
            service, grow, tmp_path / f"prefix{step}"
        )
        try:
            ours = service_report_dict(service)
        except ServiceNotReady:
            with pytest.raises(ValueError):
                analyze_parallel(
                    prefix, shards=shards, workers=1, lenient=lenient,
                    format=fmt,
                )
            continue
        theirs = batch_report_dict(
            prefix, shards=shards, lenient=lenient, fmt=fmt
        )
        assert ours == theirs, f"diverged at growth step {step} ({frac})"
    return service


class TestDifferentialGrowth:
    def test_plain_csv_strict(self, small_trace_dir, tmp_path):
        grow_and_compare(
            small_trace_dir, tmp_path, lenient=False, fmt="auto",
            suffixes=("proxy.csv", "mme.csv"),
        )

    def test_csv_gz_strict(self, small_trace_dir_gz, tmp_path):
        grow_and_compare(
            small_trace_dir_gz, tmp_path, lenient=False, fmt="csv",
            suffixes=("proxy.csv.gz", "mme.csv.gz"),
        )

    def test_csv_lenient_with_faults(self, small_corrupt_trace_dir, tmp_path):
        service = grow_and_compare(
            small_corrupt_trace_dir, tmp_path, lenient=True, fmt="auto",
            suffixes=("proxy.csv", "mme.csv"),
        )
        # The faults actually exercised the quarantine path.
        assert not service.collector.report().ok

    def test_bin_strict(self, bin_trace_dir, tmp_path):
        grow_and_compare(
            bin_trace_dir, tmp_path, lenient=False, fmt="bin",
            suffixes=("proxy.bin", "mme.bin"),
        )

    def test_bin_lenient_with_faults(self, bin_corrupt_trace_dir, tmp_path):
        service = grow_and_compare(
            bin_corrupt_trace_dir, tmp_path, lenient=True, fmt="bin",
            suffixes=("proxy.bin", "mme.bin"),
        )
        report = service.collector.report()
        assert report.count("proxy-imei") > 0
        assert report.count("proxy-duplicate") > 0

    def test_workers_do_not_change_the_report(self, small_trace_dir, tmp_path):
        grow = make_growing_dir(small_trace_dir, tmp_path / "grow")
        for suffix in ("proxy.csv", "mme.csv"):
            feed_prefix(small_trace_dir, grow, suffix, 1.0)
        serial = AnalysisService(
            ServeConfig(trace_dir=grow, shards=3, workers=1)
        )
        pooled = AnalysisService(
            ServeConfig(trace_dir=grow, shards=3, workers=2)
        )
        drain(serial)
        drain(pooled)
        assert service_report_dict(serial) == service_report_dict(pooled)


class TestCheckpointRestore:
    def _config(self, grow, ckpt, **overrides):
        base = dict(
            trace_dir=grow, shards=2,
            checkpoint_dir=ckpt, checkpoint_interval=0.0,
        )
        base.update(overrides)
        return ServeConfig(**base)

    def test_kill_and_restore_mid_stream(self, small_trace_dir, tmp_path):
        grow = make_growing_dir(small_trace_dir, tmp_path / "grow")
        ckpt = tmp_path / "ckpt"
        first = AnalysisService(self._config(grow, ckpt))
        for suffix in ("proxy.csv", "mme.csv"):
            feed_prefix(small_trace_dir, grow, suffix, 0.5)
        drain(first)
        assert first.checkpoint(force=True)
        del first  # hard kill: nothing flushed beyond the checkpoint

        # A fresh process restores and finishes the stream.
        second = AnalysisService(self._config(grow, ckpt))
        assert second.restore()
        assert second.rows_total > 0
        for suffix in ("proxy.csv", "mme.csv"):
            feed_prefix(small_trace_dir, grow, suffix, 1.0)
        drain(second)
        assert service_report_dict(second) == batch_report_dict(
            small_trace_dir, shards=2, lenient=False, fmt="auto"
        )

    def test_torn_newest_checkpoint_falls_back(
        self, small_trace_dir, tmp_path
    ):
        grow = make_growing_dir(small_trace_dir, tmp_path / "grow")
        ckpt = tmp_path / "ckpt"
        first = AnalysisService(self._config(grow, ckpt))
        for frac in (0.3, 0.7):
            for suffix in ("proxy.csv", "mme.csv"):
                feed_prefix(small_trace_dir, grow, suffix, frac)
            drain(first)
            first.checkpoint(force=True)
        newest = max(ckpt.glob("checkpoint-*.json"))
        newest.write_bytes(newest.read_bytes()[:50])  # torn mid-write

        second = AnalysisService(self._config(grow, ckpt))
        assert second.restore()  # the older snapshot
        for suffix in ("proxy.csv", "mme.csv"):
            feed_prefix(small_trace_dir, grow, suffix, 1.0)
        drain(second)
        assert service_report_dict(second) == batch_report_dict(
            small_trace_dir, shards=2, lenient=False, fmt="auto"
        )

    def test_restored_lenient_quarantine_matches_batch(
        self, small_corrupt_trace_dir, tmp_path
    ):
        grow = make_growing_dir(small_corrupt_trace_dir, tmp_path / "grow")
        ckpt = tmp_path / "ckpt"
        first = AnalysisService(self._config(grow, ckpt, lenient=True))
        for suffix in ("proxy.csv", "mme.csv"):
            feed_prefix(small_corrupt_trace_dir, grow, suffix, 0.6)
        drain(first)
        first.checkpoint(force=True)

        second = AnalysisService(self._config(grow, ckpt, lenient=True))
        second.restore()
        for suffix in ("proxy.csv", "mme.csv"):
            feed_prefix(small_corrupt_trace_dir, grow, suffix, 1.0)
        drain(second)
        batch = analyze_parallel(
            small_corrupt_trace_dir, shards=2, workers=1, lenient=True
        )
        assert (
            second.collector.report().to_dict()
            == batch.report.quarantine.to_dict()
        )
        assert service_report_dict(second) == report_to_dict(batch.report)

    def test_config_mismatch_is_rejected(self, small_trace_dir, tmp_path):
        grow = make_growing_dir(small_trace_dir, tmp_path / "grow")
        ckpt = tmp_path / "ckpt"
        first = AnalysisService(self._config(grow, ckpt))
        for suffix in ("proxy.csv", "mme.csv"):
            feed_prefix(small_trace_dir, grow, suffix, 0.4)
        drain(first)
        first.checkpoint(force=True)

        mismatched = AnalysisService(self._config(grow, ckpt, shards=5))
        with pytest.raises(ValueError, match="different analysis settings"):
            mismatched.restore()

    def test_pre_histogram_checkpoint_is_refused(self, small_trace_dir, tmp_path):
        """A version-1 checkpoint (sampled activity reservoir, seed in the
        config fingerprint) fails loudly instead of restoring."""
        grow = make_growing_dir(small_trace_dir, tmp_path / "grow")
        ckpt = tmp_path / "ckpt"
        for suffix in ("proxy.csv", "mme.csv"):
            feed_prefix(small_trace_dir, grow, suffix, 0.5)
        first = AnalysisService(self._config(grow, ckpt))
        drain(first)
        payload = first._payload()
        payload["v"] = 1
        payload["config"]["seed"] = 0
        CheckpointStore(ckpt).write(first.generation, payload)

        restarted = AnalysisService(self._config(grow, ckpt))
        with pytest.raises(
            ValueError, match="unsupported checkpoint payload version: 1"
        ):
            restarted.restore()


class TestSubprocessCrash:
    """Kill the real daemon; a restart must lose and double-count nothing."""

    def _spawn(self, trace, ckpt, port=0):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(
            Path(__file__).resolve().parents[2] / "src"
        )
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--trace", str(trace), "--port", str(port),
                "--checkpoint-dir", str(ckpt),
                "--checkpoint-interval", "0.1",
                "--poll-interval", "0.05",
                "--shards", "2",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        line = proc.stdout.readline()
        assert "listening on" in line, line
        return proc

    def _wait_for_checkpoint(self, ckpt, timeout=30.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if any(ckpt.glob("checkpoint-*.json")):
                return
            time.sleep(0.05)
        raise AssertionError("no checkpoint appeared")

    @pytest.mark.parametrize("sig", [signal.SIGTERM, signal.SIGKILL])
    def test_killed_daemon_resumes_exactly(
        self, small_output, small_trace_dir, tmp_path, sig
    ):
        grow = make_growing_dir(small_trace_dir, tmp_path / "grow")
        ckpt = tmp_path / "ckpt"
        for suffix in ("proxy.csv", "mme.csv"):
            feed_prefix(small_trace_dir, grow, suffix, 0.5)
        proc = self._spawn(grow, ckpt)
        try:
            self._wait_for_checkpoint(ckpt)
        finally:
            proc.send_signal(sig)
            proc.wait(timeout=30)
        if sig == signal.SIGTERM:
            assert proc.returncode == 0

        # Restart in-process over the same checkpoint dir and finish.
        service = AnalysisService(
            ServeConfig(
                trace_dir=grow, shards=2, checkpoint_dir=ckpt
            )
        )
        assert service.restore()
        for suffix in ("proxy.csv", "mme.csv"):
            feed_prefix(small_trace_dir, grow, suffix, 1.0)
        drain(service)
        expected_rows = len(small_output.proxy_records) + len(
            small_output.mme_records
        )
        assert service.rows_total == expected_rows
        assert service_report_dict(service) == batch_report_dict(
            small_trace_dir, shards=2, lenient=False, fmt="auto"
        )
