"""The always-on analysis service: ingest loop, caching, lifecycle.

:class:`AnalysisService` owns the moving parts — two
:class:`~repro.serve.tailer.StreamTailer` instances, the lenient
scrubbers with their carries, one :class:`~repro.serve.state.ShardSlot`
per account shard, the quarantine collector and the checkpoint store —
behind a single lock shared with the HTTP thread.

The state advances in *generations*: every poll that ingests at least
one row bumps the generation, and every served resource (report,
panels, quarantine) is cached per generation, so repeated queries of a
quiet service are byte-identical cache hits (visible as
``repro_serve_cache_{hits,misses}_total``) and an ETag of ``"g<n>"``
gives clients free revalidation.

Checkpoints snapshot *matched* stream offsets and aggregation state
under one lock acquisition, so a restore rewinds both together and no
row is ever double-counted or lost — the differential contract
(service report ≡ ``analyze_parallel`` on the same prefix) survives a
kill at any point.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from repro import obs
from repro.core.figures import FIGURE_RENDERERS
from repro.core.export import report_to_dict
from repro.core.pipeline import StudyReport
from repro.logs.quarantine import QuarantineCollector
from repro.logs.records import MmeRecord, ProxyRecord
from repro.logs.io import subscriber_shard
from repro.obs.export import RUN_REPORT_SCHEMA, build_run_report
from repro.obs.profiler import build_profile
from repro.serve.checkpoint import CheckpointStore
from repro.serve.state import (
    IncrementalScrub,
    ShardSlot,
    finalize_slots,
    load_artifacts,
)
from repro.serve.tailer import StreamTailer

#: Payload version inside the checkpoint envelope.  Version 1 payloads
#: hold a sampled activity reservoir and a seed in the config
#: fingerprint; restoring one must fail loudly.
SERVICE_STATE_VERSION = 2


class ServiceNotReady(Exception):
    """Finalize is impossible so far (e.g. one traffic class missing)."""


@dataclass(frozen=True)
class ServeConfig:
    """Everything ``repro serve`` needs to run."""

    trace_dir: Path
    host: str = "127.0.0.1"
    port: int = 8321
    checkpoint_dir: Path | None = None
    checkpoint_interval: float = 30.0
    poll_interval: float = 0.5
    shards: int = 4
    workers: int = 1
    lenient: bool = False
    format: str = "auto"

    def fingerprint(self) -> dict:
        """The analysis-affecting knobs a checkpoint must agree on."""
        return {
            "shards": self.shards,
            "lenient": self.lenient,
            "format": self.format,
        }


class AnalysisService:
    """Incremental analysis state plus the query surface over it."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.artifacts = load_artifacts(config.trace_dir)
        self.store = (
            CheckpointStore(config.checkpoint_dir)
            if config.checkpoint_dir is not None
            else None
        )
        self._lock = threading.RLock()
        self.generation = 0
        self.rows_total = 0
        self.restored_generation: int | None = None
        self.last_checkpoint_generation: int | None = None
        self._last_checkpoint_time = time.monotonic()
        self._report_cache: tuple[int, StudyReport] | None = None
        self._resource_cache: dict[str, tuple[int, bytes]] = {}
        self.collector = QuarantineCollector() if config.lenient else None
        self._build_streams()
        self.slots = [ShardSlot(self.artifacts) for _ in range(config.shards)]

    def _build_streams(self) -> None:
        config = self.config
        self.scrubs = (
            {
                "proxy": IncrementalScrub(
                    "proxy", ProxyRecord, self.collector
                ),
                "mme": IncrementalScrub(
                    "mme",
                    MmeRecord,
                    self.collector,
                    sector_map=self.artifacts.sector_map,
                ),
            }
            if config.lenient
            else None
        )
        # The scrub runs as the tailer's per-record hook so read- and
        # scrub-layer quarantine events land in row order, matching the
        # batch reader/scrubber generator chain.
        scrub_of = self.scrubs or {}
        self.tailers = {
            "proxy": StreamTailer(
                config.trace_dir,
                "proxy",
                ProxyRecord,
                format=config.format,
                quarantine=self.collector,
                scrub=(
                    scrub_of["proxy"].process_one if scrub_of else None
                ),
            ),
            "mme": StreamTailer(
                config.trace_dir,
                "mme",
                MmeRecord,
                format=config.format,
                quarantine=self.collector,
                scrub=scrub_of["mme"].process_one if scrub_of else None,
            ),
        }

    # ------------------------------------------------------------ ingest
    def ingest_once(self) -> int:
        """Poll both streams once; returns rows folded into the state."""
        with self._lock, obs.span("serve.ingest"):
            new_rows = 0
            by_shard_proxy: dict[int, list] = {}
            by_shard_mme: dict[int, list] = {}
            for name, tailer in self.tailers.items():
                records = tailer.poll()
                if not records:
                    continue
                # Cumulative per-stream rows: the timeline contract
                # (repro.obs/events/v1) requires non-decreasing counts
                # per (stage, stream).
                obs.events().emit(
                    "progress",
                    stage="ingest",
                    stream=name,
                    rows=tailer.rows_read,
                )
                new_rows += len(records)
                target = by_shard_proxy if name == "proxy" else by_shard_mme
                for record in records:
                    shard = subscriber_shard(
                        record.subscriber_id,
                        self.config.shards,
                        self.artifacts.account_directory,
                    )
                    target.setdefault(shard, []).append(record)
            for shard in sorted(set(by_shard_proxy) | set(by_shard_mme)):
                self.slots[shard].consume(
                    by_shard_proxy.get(shard, []),
                    by_shard_mme.get(shard, []),
                    self.artifacts,
                )
            if new_rows:
                self.generation += 1
                self.rows_total += new_rows
                if obs.enabled():
                    registry = obs.metrics()
                    registry.gauge("repro_serve_generation").set(
                        self.generation
                    )
                    registry.gauge("repro_serve_rows_total").set(
                        self.rows_total
                    )
            return new_rows

    # -------------------------------------------------------- checkpoints
    def _payload(self) -> dict:
        return {
            "v": SERVICE_STATE_VERSION,
            "config": self.config.fingerprint(),
            "generation": self.generation,
            "rows_total": self.rows_total,
            "streams": {
                name: tailer.to_state()
                for name, tailer in self.tailers.items()
            },
            "scrubs": (
                {
                    name: scrub.to_state()
                    for name, scrub in self.scrubs.items()
                }
                if self.scrubs is not None
                else None
            ),
            "quarantine": (
                self.collector.to_state()
                if self.collector is not None
                else None
            ),
            "shards": [slot.to_state() for slot in self.slots],
        }

    def checkpoint(self, *, force: bool = False) -> bool:
        """Write a snapshot if due (or ``force``); returns whether one was."""
        if self.store is None:
            return False
        with self._lock:
            if not force:
                due = (
                    time.monotonic() - self._last_checkpoint_time
                    >= self.config.checkpoint_interval
                )
                if not due:
                    return False
            if self.generation == self.last_checkpoint_generation:
                self._last_checkpoint_time = time.monotonic()
                return False
            with obs.span("serve.checkpoint", generation=self.generation):
                self.store.write(self.generation, self._payload())
            obs.events().emit(
                "phase", stage=f"serve.checkpoint.g{self.generation}"
            )
            self.last_checkpoint_generation = self.generation
            self._last_checkpoint_time = time.monotonic()
            return True

    def restore(self) -> bool:
        """Adopt the newest valid checkpoint; returns whether one was found.

        Raises ``ValueError`` when a checkpoint exists but was written
        under different analysis settings — silently re-using it would
        produce a report no batch run could reproduce.
        """
        if self.store is None:
            return False
        loaded = self.store.load_latest()
        if loaded is None:
            return False
        generation, payload = loaded
        if payload.get("v") != SERVICE_STATE_VERSION:
            raise ValueError(
                f"unsupported checkpoint payload version: {payload.get('v')!r}"
            )
        ours = self.config.fingerprint()
        theirs = payload.get("config")
        if theirs != ours:
            raise ValueError(
                "checkpoint was written with different analysis settings "
                f"(checkpoint {theirs!r}, requested {ours!r}); use a fresh "
                "--checkpoint-dir or matching flags"
            )
        with self._lock, obs.span("serve.restore", generation=generation):
            if payload["quarantine"] is not None:
                self.collector = QuarantineCollector.from_state(
                    payload["quarantine"]
                )
            self._build_streams()
            for name, tailer in self.tailers.items():
                tailer.restore_state(payload["streams"][name])
            if self.scrubs is not None and payload["scrubs"] is not None:
                for name, scrub in self.scrubs.items():
                    scrub.restore_state(payload["scrubs"][name])
            self.slots = [
                ShardSlot.from_state(state, self.artifacts)
                for state in payload["shards"]
            ]
            self.generation = payload["generation"]
            self.rows_total = payload["rows_total"]
            self.restored_generation = generation
            self.last_checkpoint_generation = payload["generation"]
        return True

    # ----------------------------------------------------------- queries
    def report(self) -> tuple[int, StudyReport]:
        """The finalized report for the current generation (cached)."""
        with self._lock:
            generation = self.generation
            if (
                self._report_cache is not None
                and self._report_cache[0] == generation
            ):
                return self._report_cache
            sort_proxy = bool(
                self.scrubs is not None and self.scrubs["proxy"].disorder
            )
            sort_mme = bool(
                self.scrubs is not None and self.scrubs["mme"].disorder
            )
            try:
                report = finalize_slots(
                    self.slots,
                    self.artifacts,
                    trace_dir=self.config.trace_dir,
                    workers=self.config.workers,
                    sort_proxy=sort_proxy,
                    sort_mme=sort_mme,
                    quarantine=(
                        self.collector.report()
                        if self.collector is not None
                        else None
                    ),
                )
            except ValueError as exc:
                raise ServiceNotReady(str(exc)) from exc
            self._report_cache = (generation, report)
            return self._report_cache

    def _cached_resource(self, key: str, build) -> tuple[int, bytes]:
        """Serve ``key`` from the per-generation byte cache."""
        with self._lock:
            generation = self.generation
            cached = self._resource_cache.get(key)
            registry = obs.metrics()
            if cached is not None and cached[0] == generation:
                registry.counter(
                    "repro_serve_cache_hits_total", resource=key
                ).inc()
                return cached
            registry.counter(
                "repro_serve_cache_misses_total", resource=key
            ).inc()
            body = (
                json.dumps(build(), sort_keys=True, indent=2) + "\n"
            ).encode("utf-8")
            entry = (generation, body)
            self._resource_cache[key] = entry
            return entry

    def report_resource(self) -> tuple[int, bytes]:
        def build() -> dict:
            generation, report = self.report()
            return {"generation": generation, "report": report_to_dict(report)}

        return self._cached_resource("report", build)

    def panel_resource(self, name: str) -> tuple[int, bytes]:
        if name not in FIGURE_RENDERERS:
            raise KeyError(name)

        def build() -> dict:
            generation, report = self.report()
            return {
                "panel": name,
                "generation": generation,
                "text": FIGURE_RENDERERS[name](report),
            }

        return self._cached_resource(f"panel:{name}", build)

    def quarantine_resource(self) -> tuple[int, bytes]:
        def build() -> dict:
            with self._lock:
                return {
                    "generation": self.generation,
                    "enabled": self.collector is not None,
                    "quarantine": (
                        self.collector.report().to_dict()
                        if self.collector is not None
                        else None
                    ),
                }

        return self._cached_resource("quarantine", build)

    def panel_names(self) -> list[str]:
        return sorted(FIGURE_RENDERERS)

    def status(self) -> dict:
        with self._lock:
            return {
                "generation": self.generation,
                "rows_total": self.rows_total,
                "restored_generation": self.restored_generation,
                "last_checkpoint_generation": self.last_checkpoint_generation,
                "config": {
                    "trace_dir": str(self.config.trace_dir),
                    **self.config.fingerprint(),
                    "workers": self.config.workers,
                },
                "streams": {
                    name: {
                        "path": (
                            str(tailer.path)
                            if tailer.path is not None
                            else None
                        ),
                        "offset": tailer.offset,
                        "rows_read": tailer.rows_read,
                        "dead": tailer.dead,
                    }
                    for name, tailer in self.tailers.items()
                },
            }

    def obs_report(self) -> dict:
        tree = obs.tracer().tree()
        return build_run_report(
            obs.metrics().snapshot(),
            tree,
            {"command": "serve", "generation": self.generation},
        )

    def profile_resource(self) -> tuple[int, bytes]:
        """The ambient sampling profiler as a profile/v1 document.

        Cached per generation like every other resource: the profile
        keeps accumulating between generations, but a daemon that isn't
        ingesting is idle, so a fresher snapshot would only add idle
        samples.  With profiling disabled this serves an empty,
        schema-valid document (``meta.enabled`` says which).
        """

        def build() -> dict:
            profiler = obs.profiler()
            return build_profile(
                profiler.snapshot(),
                meta={
                    "command": "serve",
                    "generation": self.generation,
                    "enabled": profiler.enabled,
                },
                hz=profiler.hz or None,
            )

        return self._cached_resource("obs-profile", build)

    # ---------------------------------------------------------- lifecycle
    def run(self, stop_event: threading.Event) -> None:
        """Restore, serve, poll until ``stop_event``; checkpoint on exit."""
        from repro.serve.http import build_server

        self.restore()
        server = build_server(self, self.config.host, self.config.port)
        host, port = server.server_address[:2]
        print(f"repro serve: listening on http://{host}:{port}", flush=True)
        thread = threading.Thread(
            target=server.serve_forever, name="repro-serve-http", daemon=True
        )
        thread.start()
        try:
            while not stop_event.is_set():
                rows = self.ingest_once()
                self.checkpoint()
                if not rows:
                    stop_event.wait(self.config.poll_interval)
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
            self.checkpoint(force=True)


__all__ = [
    "AnalysisService",
    "RUN_REPORT_SCHEMA",
    "ServeConfig",
    "ServiceNotReady",
    "SERVICE_STATE_VERSION",
]
