"""The benchmark's child processes: set-up and the timed phase.

``run.py`` starts each phase in a fresh interpreter with a pinned
``PYTHONHASHSEED``; a phase prints one JSON object as its last line of
standard output.

    phases.py setup   --workload W --preset P --seed N --out DIR
                      [--repeat K] [--traced] [--reference]
    phases.py measure --workload W --setup FILE --work DIR --seconds S
                      [--traced] [--serial-baseline]
"""

from __future__ import annotations

import argparse
import gc
import json
import shutil
import sys
import time
from pathlib import Path

import checks
import workloads as wl
from repro.core.dataset import StudyDataset
from repro.core.pipeline import WearableStudy

#: The shortest time a workload's passes may fill, when ``--seconds`` is
#: not 0.  One serve pass times only two refreshes and one restart, each
#: a few seconds, and a shared 2-vCPU host's speed swings by 15-20 % from
#: one ten-second window to the next.  50 s holds two serve passes when
#: the host runs at its usual speed, so one slow window moves a metric
#: half as much, and one when it runs slow, so a run stays near a minute.
MIN_WINDOW_S = {"serve": 50.0}


def cmd_setup(args: argparse.Namespace) -> dict:
    spans = wl.Spans(enabled=args.traced, run_id=args.run_id)
    wl.warm()
    out = Path(args.out)
    durations = []
    fingerprints = []
    for _ in range(args.repeat):
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        gc.collect()
        started = time.perf_counter()
        with spans.span("setup", workload=args.workload):
            info = wl.set_up(args.workload, args.preset, args.seed, out, spans)
        durations.append(time.perf_counter() - started)
        fingerprints.append(
            checks.trace_fingerprint(Path(info["trace"]))
            + json.dumps(info.get("cuts"), sort_keys=True)
        )
    result = {
        "setup_s": durations,
        "info": info,
        "fingerprints": fingerprints,
        "spans": spans.tree(),
        "epoch_unix": spans.epoch_unix,
    }
    if args.reference:
        dataset = StudyDataset.load(info["pristine"], format="bin")
        result["reference_digest"] = checks.report_digest(
            WearableStudy(dataset).run_all()
        )
    return result


def _summary(workload: str, result: dict) -> dict:
    """The JSON-ready part of one pass, with its report digested."""
    summary = {
        key: value
        for key, value in result.items()
        if key not in ("report", "restored_report", "service", "quarantines")
    }
    summary["digest"] = checks.report_digest(result["report"])
    if workload == "serve":
        restored = result["restored_report"]
        summary["restored_digest"] = (
            checks.report_digest(restored) if restored is not None else None
        )
    return summary


def cmd_measure(args: argparse.Namespace) -> dict:
    with open(args.setup, "r", encoding="utf-8") as handle:
        info = json.load(handle)["info"]
    workload = args.workload
    work = Path(args.work)
    if args.traced:
        return traced_pass(workload, info, work, args.run_id)

    def one_pass() -> dict:
        if workload == "batch":
            return wl.batch_pass(info)
        if workload == "sharded":
            return wl.sharded_pass(info)
        return wl.serve_pass(info, work, wl.Spans(enabled=False))

    wl.warm()
    passes = []
    extras = {}
    window = args.seconds
    if window:
        window = max(window, MIN_WINDOW_S.get(workload, 0.0))
    started = time.perf_counter()
    while True:
        gc.collect()
        result = one_pass()
        passes.append(_summary(workload, result))
        if workload == "sharded" and "quarantine" not in extras:
            quarantine = result["report"].quarantine
            extras["quarantine"] = {
                "rows_read": quarantine.rows_read,
                "rows_quarantined": quarantine.rows_quarantined,
            }
        del result
        elapsed = time.perf_counter() - started
        if elapsed * (len(passes) + 1) / len(passes) > window:
            break
    if args.serial_baseline:
        gc.collect()
        serial = wl.sharded_pass(info, workers=1)
        extras["serial_wall_s"] = serial["wall_s"]
    return {
        "passes": passes,
        "peak_rss_mb": wl.peak_rss_mb(),
        "log_mb": sum(
            (Path(info["trace"]) / f"{stem}.bin").stat().st_size
            for stem, _ in wl.LOGS
        )
        / 1e6,
        **extras,
    }


def traced_pass(workload: str, info: dict, work: Path, run_id: str) -> dict:
    """One traced replay, with GC pauses timed through ``gc.callbacks``."""
    spans = wl.Spans(enabled=True, run_id=run_id)
    wl.warm()
    pauses = {"gc.pause_s": 0.0, "gc.gen2": 0}
    begun = []

    def on_gc(phase: str, details: dict) -> None:
        if phase == "start":
            begun.append(time.perf_counter())
            return
        pauses["gc.pause_s"] += time.perf_counter() - begun.pop()
        if details["generation"] == 2:
            pauses["gc.gen2"] += 1

    gc.collect()
    gc.callbacks.append(on_gc)
    try:
        with spans.span("pass", workload=workload):
            if workload == "batch":
                result = wl.batch_traced(info, spans)
            elif workload == "sharded":
                result = wl.sharded_traced(info, spans)
            else:
                result = wl.serve_pass(info, work, spans)
                with spans.span("probe"):
                    result["counts"].update(
                        wl.serve_encounters(result["service"], spans)
                    )
    finally:
        gc.callbacks.remove(on_gc)
    counts = dict(result["counts"])
    extra = dict(pauses)
    summary = {"digest": checks.report_digest(result["report"])}
    if workload == "sharded":
        summary["shard_quarantines"] = [
            checks.canonical_digest(quarantine.to_dict())
            for quarantine in result["quarantines"]
        ]
    return {
        **summary,
        "counts": counts,
        "extra": extra,
        "spans": spans.tree(),
        "epoch_unix": spans.epoch_unix,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    setup = sub.add_parser("setup")
    setup.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    setup.add_argument("--preset", default="medium")
    setup.add_argument("--seed", type=int, required=True)
    setup.add_argument("--out", required=True)
    setup.add_argument("--repeat", type=int, default=1)
    setup.add_argument("--traced", action="store_true")
    setup.add_argument("--reference", action="store_true")
    setup.add_argument("--run-id", default=None)
    setup.set_defaults(func=cmd_setup)
    measure = sub.add_parser("measure")
    measure.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    measure.add_argument("--setup", required=True)
    measure.add_argument("--work", required=True)
    measure.add_argument("--seconds", type=float, required=True)
    measure.add_argument("--traced", action="store_true")
    measure.add_argument("--serial-baseline", action="store_true")
    measure.add_argument("--run-id", default=None)
    measure.set_defaults(func=cmd_measure)
    args = parser.parse_args(argv)
    result = args.func(args)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
