"""The benchmark's three workloads, driven through the program's public calls.

Every workload runs on one preset trace in the binary ``.bin`` wire
format.  Set-up writes the inputs; a *pass* turns them into a
``StudyReport`` the way one user-facing path does:

* ``batch``   -- strict ``StudyDataset.load`` + ``WearableStudy.run_all``;
* ``sharded`` -- ``analyze_parallel`` over four account shards, lenient,
  on a copy corrupted like ``repro corrupt --rate 0.02 --seed <seed>``;
* ``serve``   -- an in-process ``AnalysisService`` tailing a growing copy
  of the trace, checkpointed and restarted.

Each workload has an untraced pass (the end-to-end timings) and a traced
replay of the same public calls with one span per layer call (the
per-layer breakdown).  Spans come from a standalone ``Tracer`` held by
:class:`Spans`; the program's own ambient tracer is never installed, so
only the benchmark's spans are recorded.
"""

from __future__ import annotations

import gc
import json
import os
import random
import resource
import shutil
import statistics
import time
import uuid
from pathlib import Path

from repro.core.dataset import StudyDataset
from repro.core.encounters import (
    build_cell_index,
    join_cells,
    stream_dwell_intervals,
)
from repro.core.figures import FIGURE_RENDERERS
from repro.core.mobility import build_timelines
from repro.core.parallel import (
    EncountersPartial,
    ShardPartials,
    _full_mme_stream,
    analyze_parallel,
)
from repro.core.pipeline import StudyReport, WearableStudy
from repro.logs.binfmt import iter_blocks
from repro.logs.faults import FaultSpec, corrupt_trace
from repro.logs.io import read_records
from repro.logs.quarantine import QuarantineCollector
from repro.logs.records import MmeRecord, ProxyRecord, record_sort_key
from repro.obs.spans import Tracer
from repro.serve.service import AnalysisService, ServeConfig, ServiceNotReady
from repro.simnet.appcatalog import builtin_app_catalog
from repro.simnet.config import SimulationConfig
from repro.simnet.engine import ShardedSimulationEngine
from repro.simnet.subscribers import PopulationBuilder

WORKLOADS = ("batch", "sharded", "serve")

#: The population every trace shares.  The workload seed drives traffic,
#: mobility, signalling and corruption, but not who the subscribers are:
#: across medium-preset seeds the population alone moves the trace size
#: by +-20 % (218k-303k rows), which would swamp any program change.
REFERENCE_SEED = 2018

#: Account shards for ``sharded`` and ``serve`` (the serve CLI default).
SHARDS = 4

#: Pool size for ``sharded`` and the set-up engine: two processes, capped
#: at the host's CPU count so the benchmark never oversubscribes.
WORKERS = max(1, min(2, os.cpu_count() or 1))

#: ``repro corrupt --rate 0.02``: every row-level fault class at 2 %.
FAULT_RATE = 0.02

#: Equal block-aligned appends after the serve catch-up.  Two, so the
#: first holds half the detailed window: a third of it leaves some seeds
#: (17 among 11-20) without a detected or an undetected general user, so
#: that append is not ready and ``refresh_s`` would change with the seed
#: from the middle append to the mean of the last two.
SERVE_APPENDS = 2

#: The panel every refresh answers.
PANEL = "fig2a"

#: Warm panel queries timed per serve pass.
QUERIES = 1000

SIDE_ARTIFACTS = ("accounts.csv", "devices.csv", "metadata.json", "sectors.csv")
LOGS = (("proxy", ProxyRecord), ("mme", MmeRecord))


class Spans:
    """One run's standalone tracer; every span carries the run id."""

    def __init__(self, enabled: bool, run_id: str | None = None) -> None:
        self.tracer = Tracer(enabled=enabled)
        #: Wall-clock time of the tracer's epoch, to align processes.
        self.epoch_unix = time.time()
        self.run_id = run_id or uuid.uuid4().hex[:12]

    def span(self, name: str, **attrs):
        return self.tracer.span(name, run=self.run_id, **attrs)

    def tree(self) -> dict | None:
        tree = self.tracer.tree()
        return tree.to_dict() if tree is not None else None


def cpu_seconds() -> float:
    """User + sys CPU of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb() -> float:
    """Peak RSS of the largest single process: this one or a reaped child."""
    kib = max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )
    return kib * 1024 / 1e6


def warm() -> None:
    """Pay import-time and lazy-catalog costs, then collect, before timing."""
    builtin_app_catalog()
    gc.collect()


# ---------------------------------------------------------------- set-up
def reference_population(preset: str):
    config = getattr(SimulationConfig, preset)(seed=REFERENCE_SEED)
    return PopulationBuilder(
        config,
        builtin_app_catalog(),
        random.Random(f"{REFERENCE_SEED}:population"),
    ).build()


def fault_spec(seed: int) -> FaultSpec:
    rate = FAULT_RATE
    return FaultSpec(
        seed=seed,
        drop_rate=rate,
        duplicate_rate=rate,
        shuffle_rate=rate,
        bad_imei_rate=rate,
        bad_sector_rate=rate,
        bad_bytes_rate=rate,
        garbage_rate=rate,
    )


def set_up(workload: str, preset: str, seed: int, out: Path, spans: Spans) -> dict:
    """Write one workload's input under ``out``; returns its description."""
    engine = ShardedSimulationEngine(
        getattr(SimulationConfig, preset)(seed=seed),
        population=reference_population(preset),
        shards=WORKERS,
        workers=WORKERS,
    )
    pristine = out / "trace"
    spool = out / "spool"
    with spans.span("engine.generate"):
        run = engine.run_streaming(spool_dir=spool)
    try:
        with spans.span("binfmt.encode"):
            run.write(pristine, format="bin")
    finally:
        shutil.rmtree(spool, ignore_errors=True)
    info = {
        "trace": str(pristine),
        "pristine": str(pristine),
        "rows": {"proxy": run.proxy_count, "mme": run.mme_count},
    }
    if workload == "sharded":
        corrupted = out / "corrupt"
        with spans.span("faults.corrupt"):
            corrupt_trace(pristine, corrupted, fault_spec(seed))
        info["trace"] = str(corrupted)
    elif workload == "serve":
        with spans.span("serve.cut_points"):
            info["cuts"] = serve_cuts(pristine)
    return info


def serve_cuts(trace: Path) -> dict[str, list[int]]:
    """Byte offsets at which the serve workload's appends end, per log.

    The first cut ends the catch-up prefix: every block wholly before the
    detailed window.  The remaining blocks arrive in ``SERVE_APPENDS``
    equal groups; every cut falls on a block boundary.
    """
    with (trace / "metadata.json").open("r", encoding="utf-8") as handle:
        meta = json.load(handle)
    detailed_start = (
        float(meta["study_start"])
        + (int(meta["total_days"]) - int(meta["detailed_days"])) * 86400.0
    )
    cuts = {}
    for stem, record_type in LOGS:
        path = trace / f"{stem}.bin"
        blocks = list(iter_blocks(path, record_type))
        # boundary[i]: the end of the first i blocks.
        boundary = [offset for offset, _ in blocks] + [path.stat().st_size]
        caught_up = sum(1 for _, header in blocks if header.max_ts < detailed_start)
        rest = len(blocks) - caught_up
        cuts[stem] = [
            boundary[caught_up + rest * step // SERVE_APPENDS]
            for step in range(SERVE_APPENDS + 1)
        ]
    return cuts


# ------------------------------------------------------------ encounters
def encounter_layers(
    spans: Spans,
    intervals_of,
    study_start: float,
    partial: EncountersPartial,
    *,
    shard: int = 0,
    shards: int = 1,
) -> dict[str, int]:
    """Timelines, cell index and join as three spans; returns their counts.

    ``intervals_of(seen)`` builds the dwell intervals and records every
    subscriber that has one in ``seen``.  The accumulators land in
    ``partial`` exactly as ``EncountersPartial.consume_stream`` (or the
    batch ``analyze_encounters``) leaves them.
    """
    with spans.span("encounters.timelines"):
        intervals = intervals_of(partial.seen_subscribers)
    with spans.span("encounters.index"):
        index = build_cell_index(
            intervals, study_start, shard=shard, shards=shards
        )
    with spans.span("encounters.join"):
        events = join_cells(
            index,
            pair_events=partial.pair_events,
            partners=partial.partners,
            sub_events=partial.sub_events,
        )
    return {
        "encounters.cells": len(index),
        "encounters.pairs_examined": sum(
            len(cell) * (len(cell) - 1) // 2 for cell in index.values()
        ),
        "encounters.events": events,
    }


def timeline_intervals(dataset: StudyDataset):
    """Batch dwell intervals: per-subscriber ``core.mobility`` timelines."""
    window = dataset.window

    def build(seen: set[str]) -> list:
        detailed = [
            r for r in dataset.mme_records if window.in_detailed(r.timestamp)
        ]
        intervals = []
        for subscriber, timeline in build_timelines(detailed).items():
            dwell = timeline.dwell_intervals(window.study_start)
            if dwell:
                seen.add(subscriber)
            intervals.extend(
                (subscriber, sector, start, end) for sector, start, end in dwell
            )
        return intervals

    return build


def stream_intervals(records, window):
    """Streamed dwell intervals, as ``EncountersPartial.consume_stream``."""
    return lambda seen: list(stream_dwell_intervals(records, window, seen=seen))


def add_counts(total: dict, counts: dict) -> None:
    for name, value in counts.items():
        total[name] = total.get(name, 0) + value


# ------------------------------------------------------------------ batch
def batch_pass(info: dict) -> dict:
    """One untraced batch pass."""
    cpu0 = cpu_seconds()
    started = time.perf_counter()
    dataset = StudyDataset.load(info["trace"], format="bin")
    report = WearableStudy(dataset).run_all()
    reported = time.perf_counter()
    FIGURE_RENDERERS[PANEL](report)
    answered = time.perf_counter()
    return {
        "wall_s": answered - started,
        "report_s": reported - started,
        "refresh_s": answered - started,
        "restore_s": answered - started,
        "cpu_s": cpu_seconds() - cpu0,
        "report": report,
        "counts": {
            "rows.loaded": len(dataset.proxy_records) + len(dataset.mme_records)
        },
    }


def drain_logs(spans: Spans, trace: str, lenient: bool) -> int:
    """Decode both logs fully (the ``binfmt.decode`` layer); returns rows."""
    rows = 0
    with spans.span("binfmt.decode"):
        for stem, record_type in LOGS:
            collector = QuarantineCollector() if lenient else None
            for _ in read_records(
                Path(trace) / f"{stem}.bin", record_type, collector
            ):
                rows += 1
    return rows


#: ``WearableStudy`` property -> the ``repro.core`` module behind it.
PANEL_MODULES = {
    "census": "identification",
    "adoption": "adoption",
    "activity": "activity",
    "comparison": "comparison",
    "mobility": "mobility",
    "apps": "apps",
    "domains": "domains",
    "through_device": "throughdevice",
    "weekly": "weekly",
    "protocols": "protocols",
    "devices": "devices",
}


def batch_traced(info: dict, spans: Spans) -> dict:
    """The batch pass replayed one ``WearableStudy`` property per span."""
    counts: dict[str, int] = {}
    with spans.span("probe"):
        counts["binfmt.rows"] = drain_logs(spans, info["trace"], lenient=False)
    with spans.span("dataset.load"):
        dataset = StudyDataset.load(info["trace"], format="bin")
    study = WearableStudy(dataset)
    with spans.span("app_mapping.attribute"):
        counts["app_mapping.rows"] = len(study.attributed)
    with spans.span("sessions.sessionize"):
        counts["sessions.count"] = len(study.sessions)
    results = {}
    for name in WearableStudy._ANALYSES:
        if name == "encounters":
            continue
        with spans.span(f"{PANEL_MODULES[name]}.analyze"):
            results[name] = getattr(study, name)
    with spans.span("encounters.analyze"):
        partial = EncountersPartial()
        add_counts(
            counts,
            encounter_layers(
                spans,
                timeline_intervals(dataset),
                dataset.window.study_start,
                partial,
            ),
        )
        with spans.span("encounters.summarize"):
            partial.consume(dataset)
            results["encounters"] = partial.finalize()
    report = StudyReport(quarantine=dataset.quarantine, **results)
    with spans.span("figures.render"):
        FIGURE_RENDERERS[PANEL](report)
    return {"report": report, "counts": counts}


# ---------------------------------------------------------------- sharded
def sharded_pass(info: dict, workers: int = WORKERS) -> dict:
    """One untraced ``analyze_parallel`` pass over the corrupted trace."""
    cpu0 = cpu_seconds()
    started = time.perf_counter()
    run = analyze_parallel(
        info["trace"], shards=SHARDS, workers=workers, lenient=True, format="bin"
    )
    reported = time.perf_counter()
    FIGURE_RENDERERS[PANEL](run.report)
    answered = time.perf_counter()
    busy = [stats.elapsed_seconds for stats in run.shard_stats]
    return {
        "wall_s": answered - started,
        "report_s": reported - started,
        "refresh_s": answered - started,
        "restore_s": answered - started,
        "cpu_s": cpu_seconds() - cpu0,
        "report": run.report,
        "kept": {"proxy": run.proxy_rows, "mme": run.mme_rows},
        "counts": {"rows.kept": run.proxy_rows + run.mme_rows},
        "shard_busy_s": busy,
        "workers": run.workers,
    }


def sharded_traced(info: dict, spans: Spans) -> dict:
    """``analyze_parallel``'s map and reduce, replayed serially per shard."""
    trace = info["trace"]
    counts: dict[str, int] = {"shards": SHARDS}
    with spans.span("probe"):
        counts["binfmt.rows"] = drain_logs(spans, trace, lenient=True)
    results = []
    quarantines = []
    for shard in range(SHARDS):
        with spans.span("parallel.shard", shard=shard):
            with spans.span("dataset.load"):
                dataset = StudyDataset.load(
                    trace, lenient=True, shard=shard, shards=SHARDS, format="bin"
                )
            quarantines.append(dataset.quarantine)
            add_counts(
                counts,
                {
                    "parallel.rows_kept": len(dataset.proxy_records)
                    + len(dataset.mme_records)
                },
            )
            with spans.span("parallel.aggregate"):
                partials = ShardPartials.compute(dataset, shard=shard)
            with spans.span("parallel.encounters"):
                # The scrubbed full MME stream each pool worker feeds its
                # share of the join (``_analyze_shard`` reads the same).
                with spans.span("parallel.join_stream"):
                    records = list(
                        _full_mme_stream(trace, lenient=True, format="bin")
                    )
                add_counts(counts, {"parallel.join_mme_rows": len(records)})
                add_counts(
                    counts,
                    encounter_layers(
                        spans,
                        stream_intervals(records, dataset.window),
                        dataset.window.study_start,
                        partials.encounters,
                        shard=shard,
                        shards=SHARDS,
                    ),
                )
            results.append(partials)
    with spans.span("parallel.merge"):
        merged = results[0]
        for partials in results[1:]:
            merged.merge(partials)
    with spans.span("parallel.finalize"):
        catalog = builtin_app_catalog()
        report = merged.finalize(
            dataset.window,
            dataset.device_db,
            {app.name: app.category for app in catalog},
            quarantine=quarantines[0],
        )
    with spans.span("figures.render"):
        FIGURE_RENDERERS[PANEL](report)
    counts["quarantine.rows"] = quarantines[0].total_quarantined
    counts["parallel.rows_decoded"] = SHARDS * sum(
        quarantines[0].rows_read.values()
    )
    return {"report": report, "counts": counts, "quarantines": quarantines}


# ------------------------------------------------------------------ serve
def serve_pass(info: dict, work: Path, spans: Spans) -> dict:
    """One serve sequence: catch-up, appends with refreshes, restart.

    The benchmark appends the bytes itself and then calls the methods the
    ``repro serve`` loop and its HTTP handler call -- ``ingest_once`` until
    it returns 0, then one panel query -- with no sleeps, polling or
    sockets.  Only the service's own calls count towards its busy time.
    """
    source = Path(info["trace"])
    cuts = info["cuts"]
    grow = work / "grow"
    store = work / "checkpoints"
    for path in (grow, store):
        shutil.rmtree(path, ignore_errors=True)
    grow.mkdir(parents=True)
    for name in SIDE_ARTIFACTS:
        shutil.copyfile(source / name, grow / name)
    blobs = {stem: (source / f"{stem}.bin").read_bytes() for stem in cuts}

    def land(step: int) -> None:
        for stem, blob in blobs.items():
            low = cuts[stem][step - 1] if step else 0
            with (grow / f"{stem}.bin").open("ab") as handle:
                handle.write(blob[low : cuts[stem][step]])

    def drain(service: AnalysisService) -> int:
        rows = 0
        while True:
            new = service.ingest_once()
            if not new:
                return rows
            rows += new

    config = ServeConfig(
        trace_dir=grow,
        checkpoint_dir=store,
        shards=SHARDS,
        workers=1,
        format="bin",
    )
    refresh: list[float] = []
    not_ready = 0
    cpu0 = cpu_seconds()
    started = time.perf_counter()
    with spans.span("serve.sequence"):
        service = AnalysisService(config)
        land(0)
        ticked = time.perf_counter()
        with spans.span("serve.catchup"):
            rows = drain(service)
        busy = time.perf_counter() - ticked
        with spans.span("serve.checkpoint"):
            service.checkpoint(force=True)
        catchup_bytes = _newest_size(store)
        for step in range(1, len(cuts["proxy"])):
            land(step)
            ticked = time.perf_counter()
            with spans.span("serve.ingest"):
                rows += drain(service)
            try:
                with spans.span("serve.finalize"):
                    service.report()
                with spans.span("serve.render"):
                    service.panel_resource(PANEL)
            except ServiceNotReady:
                not_ready += 1
            else:
                refresh.append(time.perf_counter() - ticked)
            busy += time.perf_counter() - ticked
        with spans.span("serve.checkpoint"):
            service.checkpoint(force=True)
        full_bytes = _newest_size(store)
        with spans.span("serve.query"):
            latencies = []
            for _ in range(QUERIES):
                ticked = time.perf_counter_ns()
                service.panel_resource(PANEL)
                latencies.append(time.perf_counter_ns() - ticked)
        report = service.report()[1]
        replay_rows = sum(
            len(slot.proxy_wearable)
            + len(slot.proxy_phone_detailed)
            + len(slot.mme_detailed)
            for slot in service.slots
        )
        # A restarted process does not hold the old service: drop it, so
        # the restore's collections do not walk the old heap as well.  The
        # teardown is the benchmark's doing and stays out of ``cpu_s``.
        paused = cpu_seconds()
        del service
        gc.collect()
        cpu0 += cpu_seconds() - paused
        ticked = time.perf_counter()
        with spans.span("serve.restart"):
            restarted = AnalysisService(config)
            with spans.span("serve.restore_load"):
                restored = restarted.restore()
            with spans.span("serve.finalize"):
                restarted.report()
            with spans.span("serve.render"):
                restarted.panel_resource(PANEL)
        restore_s = time.perf_counter() - ticked
    wall = time.perf_counter() - started
    cpu = cpu_seconds() - cpu0
    latencies.sort()
    return {
        "wall_s": wall,
        "report_s": busy,
        "refresh_s": statistics.median(refresh) if refresh else 0.0,
        "restore_s": restore_s,
        "cpu_s": cpu,
        "checkpoint_mb": full_bytes / 1e6,
        "report": report,
        "restored_report": restarted.report()[1] if restored else None,
        "service": restarted,
        "counts": {
            "rows.ingested": rows,
            "serve.answered": len(refresh),
            "serve.not_ready": not_ready,
            "serve.replay_rows": replay_rows,
        },
        "checkpoint_growth": full_bytes / catchup_bytes,
        "query_us": latencies[len(latencies) // 2] / 1e3,
        "query_p99_us": latencies[int(0.99 * (len(latencies) - 1))] / 1e3,
    }


def serve_encounters(service: AnalysisService, spans: Spans) -> dict[str, int]:
    """The encounter join a serve finalize runs, over the full trace.

    Finalize joins every shard's detailed MME rows, re-sorted into stream
    order, in one pass; the traced run times that join by itself.
    """
    records = sorted(
        (r for slot in service.slots for r in slot.mme_detailed),
        key=record_sort_key,
    )
    window = service.artifacts.window
    with spans.span("encounters.analyze"):
        return encounter_layers(
            spans,
            stream_intervals(records, window),
            window.study_start,
            EncountersPartial(),
        )


def _newest_size(store: Path) -> int:
    return max(store.glob("checkpoint-*.json")).stat().st_size

