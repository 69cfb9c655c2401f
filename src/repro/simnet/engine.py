"""Sharded, multi-process simulation engine with spill-to-disk export.

The paper's substrate is a national mobile ISP with tens of millions of
subscribers; a single-threaded loop that materialises every record in RAM
and sorts at the end cannot approach that.  This engine restructures the
generative model the way passive-measurement pipelines are conventionally
scaled: **partition by subscriber, generate per shard, merge by time**.

Determinism contract
--------------------
Every account is its own *RNG micro-shard*: before an account's window is
generated, each concern's stream is reseeded from the derivation string
``f"{seed}:{concern}:{shard_key}"`` where the shard key is the account id
(itself a deterministic function of the population stream).  Draws for one
account therefore never depend on which worker shard it landed in, which
accounts share that shard, or how many shards exist.  Combined with the
canonical full-tuple sort order (:func:`repro.logs.records.record_sort_key`)
used for per-shard chunks and the k-way merge, **any shard count K
reproduces the exact same population-level trace, byte for byte**.

Memory contract
---------------
Workers hold only their own shard's records, sort them, and *spill* them as
time-sorted CSV chunks via :mod:`repro.logs.merge`.  The final logs are a
streaming ``heapq.merge`` of those chunks, holding one head record per
chunk.  Peak resident record count is therefore O(largest shard), not
O(trace); :class:`ShardStats` records the actual counts so tests can assert
the bound rather than trust it.

Process model
-------------
Shards fan out through :func:`repro.obs.map_shards`: ``workers > 1`` runs
them in a process pool whose workers' spans, metrics and profiles merge
back in shard order; ``workers == 1`` (the default, and the path unit
tests take) runs the same shard code serially in-process with no pickling.
The population and topology are always built once in the parent so the
billing directory, device database and sector plan are shared artefacts.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from heapq import merge as heap_merge
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator
from zlib import crc32

from repro import obs
from repro.devicedb.catalog import builtin_database
from repro.devicedb.database import DeviceDatabase
from repro.logs.io import write_mme_log, write_proxy_log
from repro.logs.merge import (
    merge_mme_chunks,
    merge_proxy_chunks,
    write_sorted_chunk,
)
from repro.logs.records import MmeRecord, ProxyRecord, record_sort_key
from repro.logs.timeutil import SECONDS_PER_DAY, weekday
from repro.simnet.appcatalog import AppCatalog, builtin_app_catalog
from repro.simnet.config import SimulationConfig
from repro.simnet.mme import MmeEventGenerator
from repro.simnet.mobility_model import MobilityModel
from repro.simnet.subscribers import (
    Population,
    PopulationBuilder,
    SubscriberProfile,
)
from repro.simnet.topology import SectorMap, Topology
from repro.simnet.traffic import TrafficGenerator
from repro.stats.geo import GeoPoint

if TYPE_CHECKING:  # avoid a circular import at runtime
    from repro.simnet.simulator import SimulationOutput

__all__ = [
    "ShardedSimulationEngine",
    "EngineRun",
    "ShardStats",
    "shard_of",
    "stream_seed",
    "partition_accounts",
]

#: Emit a ``progress`` timeline event roughly every this many rows while
#: a shard generates records…
GENERATE_PROGRESS_ROWS = 5_000
#: …and every this many rows during the streaming export merge.
EXPORT_PROGRESS_ROWS = 20_000


# --------------------------------------------------------------------- seeds
def stream_seed(seed: int, concern: str, shard_key: str) -> str:
    """Derivation string for a per-shard RNG stream.

    ``shard_key`` is the account id: the finest-grained (per-subscriber)
    shard unit, which is what makes the trace invariant to how accounts
    are grouped into worker shards.
    """
    return f"{seed}:{concern}:{shard_key}"


def shard_of(account_id: str, shards: int) -> int:
    """Deterministic, seed-independent shard index for an account."""
    return crc32(account_id.encode("utf-8")) % shards


def partition_accounts(
    population: Population, shards: int
) -> list["ShardTask"]:
    """Split the population into ``shards`` deterministic account groups.

    Assignment hashes the stable account id, so it does not depend on the
    population ordering; within a shard, accounts keep population order.
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    wearable: list[list[SubscriberProfile]] = [[] for _ in range(shards)]
    general: list[list[SubscriberProfile]] = [[] for _ in range(shards)]
    for account in population.wearable_accounts:
        wearable[shard_of(account.account_id, shards)].append(account)
    for account in population.general_accounts:
        general[shard_of(account.account_id, shards)].append(account)
    return [
        ShardTask(
            shard=index,
            wearable_accounts=tuple(wearable[index]),
            general_accounts=tuple(general[index]),
        )
        for index in range(shards)
    ]


# --------------------------------------------------------------------- tasks
@dataclass(frozen=True)
class ShardTask:
    """One shard's slice of the population."""

    shard: int
    wearable_accounts: tuple[SubscriberProfile, ...]
    general_accounts: tuple[SubscriberProfile, ...]

    @property
    def accounts(self) -> int:
        return len(self.wearable_accounts) + len(self.general_accounts)


@dataclass(frozen=True)
class ShardStats:
    """What one shard generated, and how long it took."""

    shard: int
    accounts: int
    proxy_records: int
    mme_records: int
    elapsed_seconds: float

    @property
    def resident_records(self) -> int:
        """Records this shard held in memory at its peak (pre-spill)."""
        return self.proxy_records + self.mme_records


@dataclass(frozen=True)
class _ShardPayload:
    """Everything a worker process needs; must stay picklable."""

    config: SimulationConfig
    catalog: AppCatalog
    task: ShardTask
    #: Spool directory for the sorted chunks; ``None`` keeps the sorted
    #: records in memory and returns them instead.
    spool: str | None


def _chunk_path(spool: str | Path, stream: str, shard: int) -> Path:
    """One shard's spill chunk for ``stream`` (``proxy`` / ``mme``).

    Chunks use the binary columnar format: they are written once and read
    once by our own merge, so there is no interchange concern — only
    throughput.
    """
    return Path(spool) / f"{stream}-{shard:04d}.bin"


# --------------------------------------------------------------- generation
def _build_topology(config: SimulationConfig) -> Topology:
    """The radio plane; identical in every process for a given seed."""
    return Topology(
        nx=config.sectors_x,
        ny=config.sectors_y,
        box_km=config.box_km,
        center=GeoPoint(config.center_lat, config.center_lon),
        rng=random.Random(f"{config.seed}:topology"),
    )


def _generate_shard(
    config: SimulationConfig,
    catalog: AppCatalog,
    task: ShardTask,
    progress: Callable[[int], None] | None = None,
) -> tuple[list[ProxyRecord], list[MmeRecord]]:
    """Generate one shard's records, account-major, per-subscriber RNG.

    ``progress`` (when given) is called with the cumulative row count
    after each account — a pure observer, so telemetry can never perturb
    the RNG streams or the generated trace.
    """
    topology = _build_topology(config)
    mobility_rng = random.Random()
    traffic_rng = random.Random()
    mme_rng = random.Random()
    mobility = MobilityModel(config, topology, mobility_rng)
    traffic = TrafficGenerator(config, catalog, traffic_rng)
    mme_gen = MmeEventGenerator(config, mme_rng)

    seed = config.seed
    window_first_day = config.total_days - config.detailed_days
    days = []
    for day in range(config.total_days):
        day_ts = config.study_start + day * SECONDS_PER_DAY
        days.append((day, weekday(day_ts) < 5, day >= window_first_day))

    proxy_records: list[ProxyRecord] = []
    mme_records: list[MmeRecord] = []

    for account in task.wearable_accounts:
        key = account.account_id
        mobility_rng.seed(stream_seed(seed, "mobility", key))
        traffic_rng.seed(stream_seed(seed, "traffic", key))
        mme_rng.seed(stream_seed(seed, "mme", key))
        assert account.wearable_sim is not None
        for day, is_weekday, in_window in days:
            if mme_gen.registers_today(account, day):
                home = mobility.home_sector(account)
                itinerary = None
                if in_window:
                    itinerary = mobility.build_day(account, day, is_weekday)
                    mme_records.extend(
                        mme_gen.itinerary_records(account.wearable_sim, itinerary)
                    )
                else:
                    mme_records.append(
                        mme_gen.presence_record(account.wearable_sim, day, home)
                    )
                proxy_records.extend(
                    traffic.wearable_day_records(
                        account, day, is_weekday, itinerary, home
                    )
                )
            if in_window:
                # Wearable owners' phones carry their (heavier) smartphone
                # traffic inside the detailed window.
                proxy_records.extend(
                    traffic.phone_day_records(account, day, is_weekday)
                )
        if progress is not None:
            progress(len(proxy_records) + len(mme_records))

    for account in task.general_accounts:
        key = account.account_id
        mobility_rng.seed(stream_seed(seed, "mobility", key))
        traffic_rng.seed(stream_seed(seed, "traffic", key))
        mme_rng.seed(stream_seed(seed, "mme", key))
        for day, is_weekday, in_window in days:
            if not in_window:
                continue
            itinerary = mobility.build_day(account, day, is_weekday)
            mme_records.extend(
                mme_gen.itinerary_records(account.phone_sim, itinerary)
            )
            proxy_records.extend(
                traffic.phone_day_records(account, day, is_weekday)
            )
        if progress is not None:
            progress(len(proxy_records) + len(mme_records))

    return proxy_records, mme_records


def _run_shard(
    payload: _ShardPayload,
) -> tuple[ShardStats, tuple[list[ProxyRecord], list[MmeRecord]] | None]:
    """Generate one shard; spill its sorted chunks or return its records.

    The records come back (sorted) only when the payload has no spool.
    """
    started = time.perf_counter()
    events = obs.events()
    shard = payload.task.shard

    def _progress(rows: int, _last: list[int] = [0]) -> None:
        if rows - _last[0] >= GENERATE_PROGRESS_ROWS:
            _last[0] = rows
            events.emit("progress", shard=shard, stage="generate", rows=rows)

    records = None
    with obs.tracer().span("simulate.shard", shard=shard) as shard_span:
        with obs.span("shard.generate"):
            proxy_records, mme_records = _generate_shard(
                payload.config,
                payload.catalog,
                payload.task,
                progress=_progress if events.enabled else None,
            )
        total_rows = len(proxy_records) + len(mme_records)
        events.emit(
            "progress", shard=shard, stage="generate", rows=total_rows
        )
        if payload.spool is None:
            proxy_records.sort(key=record_sort_key)
            mme_records.sort(key=record_sort_key)
            records = (proxy_records, mme_records)
        else:
            with obs.span("shard.spill"):
                write_sorted_chunk(
                    _chunk_path(payload.spool, "proxy", shard),
                    proxy_records,
                    ProxyRecord,
                )
                write_sorted_chunk(
                    _chunk_path(payload.spool, "mme", shard),
                    mme_records,
                    MmeRecord,
                )
            events.emit(
                "progress", shard=shard, stage="spill", rows=total_rows
            )
    if obs.enabled():
        registry = obs.metrics()
        registry.counter(
            "repro_engine_proxy_records_total", shard=shard
        ).add(len(proxy_records))
        registry.counter(
            "repro_engine_mme_records_total", shard=shard
        ).add(len(mme_records))
    stats = ShardStats(
        shard=shard,
        accounts=payload.task.accounts,
        proxy_records=len(proxy_records),
        mme_records=len(mme_records),
        elapsed_seconds=(
            shard_span.wall_s
            if shard_span is not None
            else time.perf_counter() - started
        ),
    )
    return stats, records


def _emit_export_progress(records: Iterable, events, stream: str) -> Iterator:
    """Pass records through, emitting cumulative ``progress`` events.

    One event every :data:`EXPORT_PROGRESS_ROWS` rows plus a final one
    with the exact total, so the live renderer converges on the true
    count.  Pure pass-through: the record stream is untouched.
    """
    rows = 0
    for record in records:
        rows += 1
        if rows % EXPORT_PROGRESS_ROWS == 0:
            events.emit("progress", stage="export", stream=stream, rows=rows)
        yield record
    events.emit("progress", stage="export", stream=stream, rows=rows)


# ---------------------------------------------------------------- run handle
@dataclass
class EngineRun:
    """Handle over a sharded run's spilled chunks and shared artefacts.

    Nothing here holds record lists; the two logs exist only as per-shard
    sorted chunk files until :meth:`write` or the ``iter_*`` streams merge
    them on demand.
    """

    config: SimulationConfig
    device_db: DeviceDatabase
    sector_map: SectorMap
    account_directory: dict[str, str]
    app_catalog: AppCatalog
    population: Population
    spool_dir: Path
    proxy_chunks: list[Path]
    mme_chunks: list[Path]
    shard_stats: list[ShardStats] = field(default_factory=list)
    _owns_spool: bool = True

    # ------------------------------------------------------------- counting
    @property
    def proxy_count(self) -> int:
        return sum(stats.proxy_records for stats in self.shard_stats)

    @property
    def mme_count(self) -> int:
        return sum(stats.mme_records for stats in self.shard_stats)

    @property
    def peak_resident_records(self) -> int:
        """Largest record count any single worker held in memory.

        This is the engine's memory bound: generation holds one shard's
        records (measured here from the actual list sizes at spill time),
        and the merge phase holds one head record per chunk.
        """
        if not self.shard_stats:
            return 0
        return max(stats.resident_records for stats in self.shard_stats)

    # ------------------------------------------------------------ streaming
    def iter_proxy(self) -> Iterator[ProxyRecord]:
        """Stream the merged proxy log in canonical time order."""
        return merge_proxy_chunks(self.proxy_chunks)

    def iter_mme(self) -> Iterator[MmeRecord]:
        """Stream the merged MME log in canonical time order."""
        return merge_mme_chunks(self.mme_chunks)

    def write(
        self,
        directory: str | Path,
        compress: bool = False,
        anonymizer=None,
        format: str | None = None,
    ) -> dict[str, Path]:
        """Streaming export: merge chunks straight into the final logs.

        Unlike :meth:`SimulationOutput.write` this never materialises a
        record list — memory during export is O(number of chunks).  With
        ``anonymizer`` the records and billing directory are pseudonymised
        on the fly (timestamps are untouched, so the logs stay
        time-ordered).  ``format`` pins the log wire format (``csv`` /
        ``csv.gz`` / ``bin``) and overrides the legacy ``compress`` flag.
        """
        from repro.logs.io import format_suffix
        from repro.simnet.simulator import write_side_artifacts

        base = Path(directory)
        base.mkdir(parents=True, exist_ok=True)
        if format is not None:
            suffix = format_suffix(format)
        else:
            suffix = ".csv.gz" if compress else ".csv"
        proxy_path = base / f"proxy{suffix}"
        mme_path = base / f"mme{suffix}"

        proxy_iter: Iterator[ProxyRecord] = self.iter_proxy()
        mme_iter: Iterator[MmeRecord] = self.iter_mme()
        directory_map = self.account_directory
        if anonymizer is not None:
            proxy_iter = map(anonymizer.proxy_record, proxy_iter)
            mme_iter = map(anonymizer.mme_record, mme_iter)
            directory_map = anonymizer.account_directory(directory_map)
        events = obs.events()
        if events.enabled:
            proxy_iter = _emit_export_progress(proxy_iter, events, "proxy")
            mme_iter = _emit_export_progress(mme_iter, events, "mme")

        with obs.span("simulate.export"):
            with obs.span("export.proxy"):
                write_proxy_log(proxy_path, proxy_iter)
            with obs.span("export.mme"):
                write_mme_log(mme_path, mme_iter)
            with obs.span("export.artifacts"):
                paths = write_side_artifacts(
                    base,
                    config=self.config,
                    device_db=self.device_db,
                    sector_map=self.sector_map,
                    account_directory=directory_map,
                )
        paths["proxy"] = proxy_path
        paths["mme"] = mme_path
        return paths

    # ---------------------------------------------------------- materialise
    def to_output(self) -> "SimulationOutput":
        """Materialise the merged trace into a :class:`SimulationOutput`."""
        from repro.simnet.simulator import SimulationOutput

        return SimulationOutput(
            config=self.config,
            proxy_records=list(self.iter_proxy()),
            mme_records=list(self.iter_mme()),
            device_db=self.device_db,
            sector_map=self.sector_map,
            account_directory=self.account_directory,
            app_catalog=self.app_catalog,
            population=self.population,
        )

    def cleanup(self) -> None:
        """Remove the spool directory (if this run owns it)."""
        if self._owns_spool and self.spool_dir.exists():
            shutil.rmtree(self.spool_dir, ignore_errors=True)

    # ------------------------------------------------------- context manager
    def __enter__(self) -> "EngineRun":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Always reclaim the spool on scope exit.

        ``run_streaming()`` hands ownership of a ``repro-spool-*``
        directory to the caller.  Without the ``with`` form, an exception
        raised between obtaining the run and calling :meth:`write` — or an
        early return that never consumes the iterators — leaks the spool:
        only the engine-internal happy path (:meth:`ShardedSimulationEngine.run`)
        used to clean up after itself.
        """
        self.cleanup()


# -------------------------------------------------------------------- engine
class ShardedSimulationEngine:
    """Runs the synthetic operator sharded across processes.

    ``shards`` fixes the partition granularity (and therefore the memory
    bound); ``workers`` fixes the parallelism.  Any combination yields the
    same trace; ``workers=1`` is the fully serial fallback used by unit
    tests and by :class:`~repro.simnet.simulator.Simulator`.
    """

    def __init__(
        self,
        config: SimulationConfig,
        app_catalog: AppCatalog | None = None,
        device_db: DeviceDatabase | None = None,
        population: Population | None = None,
        shards: int = 1,
        workers: int | None = None,
    ) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        self._config = config
        self._catalog = app_catalog or builtin_app_catalog()
        self._device_db = device_db or builtin_database()
        self._population = population
        self._shards = shards
        if workers is None:
            workers = min(shards, os.cpu_count() or 1)
        self._workers = max(1, min(workers, shards))

    # ------------------------------------------------------------- plumbing
    def _population_or_build(self) -> Population:
        if self._population is not None:
            return self._population
        return PopulationBuilder(
            self._config,
            self._catalog,
            random.Random(f"{self._config.seed}:population"),
        ).build()

    def _run_shards(
        self, spool: Path | None
    ) -> tuple[Population, Topology, list]:
        """Build the population, run every shard, build the topology.

        Returns the population, the topology and one ``(ShardStats,
        records)`` pair per shard, in shard order (see :func:`_run_shard`).
        """
        # NOTE: ``workers`` deliberately is NOT a span attribute.  The
        # engine's contract is that worker count never changes the output;
        # keeping it out of the span structure lets tests assert the span
        # *tree* is byte-identical too.  It is still visible as a gauge.
        with obs.span("simulate.run", shards=self._shards):
            with obs.span("simulate.population"):
                population = self._population_or_build()
                payloads = [
                    _ShardPayload(
                        self._config,
                        self._catalog,
                        task,
                        None if spool is None else str(spool),
                    )
                    for task in partition_accounts(population, self._shards)
                ]
            with obs.span("simulate.shards"):
                results = obs.map_shards(
                    _run_shard, payloads, self._workers
                )
            with obs.span("simulate.topology"):
                topology = _build_topology(self._config)
        if obs.enabled():
            registry = obs.metrics()
            registry.gauge("repro_engine_shards").set(self._shards)
            registry.gauge("repro_engine_workers").set(self._workers)
            registry.gauge("repro_engine_peak_resident_records").set(
                max(
                    (stats.resident_records for stats, _ in results),
                    default=0,
                )
            )
        return population, topology, results

    # ------------------------------------------------------------- spilling
    def run_streaming(self, spool_dir: str | Path | None = None) -> EngineRun:
        """Generate the trace shard by shard, spilled to disk.

        Returns an :class:`EngineRun` whose logs exist only as sorted
        per-shard chunk files; peak resident records is O(largest shard).
        """
        owns_spool = spool_dir is None
        spool = Path(
            tempfile.mkdtemp(prefix="repro-spool-")
            if spool_dir is None
            else spool_dir
        )
        spool.mkdir(parents=True, exist_ok=True)
        population, topology, results = self._run_shards(spool)
        stats = [stats for stats, _ in results]
        return EngineRun(
            config=self._config,
            device_db=self._device_db,
            sector_map=topology.sector_map(),
            account_directory=population.account_directory(),
            app_catalog=self._catalog,
            population=population,
            spool_dir=spool,
            proxy_chunks=[
                _chunk_path(spool, "proxy", stat.shard) for stat in stats
            ],
            mme_chunks=[
                _chunk_path(spool, "mme", stat.shard) for stat in stats
            ],
            shard_stats=stats,
            _owns_spool=owns_spool,
        )

    # ----------------------------------------------------------- in-memory
    def run(self) -> "SimulationOutput":
        """Materialised run, preserving the :class:`SimulationOutput` API.

        Serial (``workers=1``) runs never touch disk: each shard's sorted
        records are merged in memory.  Parallel runs go through the spill
        path and materialise the merged chunks.
        """
        from repro.simnet.simulator import SimulationOutput

        if self._workers > 1:
            with self.run_streaming() as run:
                return run.to_output()
        population, topology, results = self._run_shards(None)
        chunks = [records for _, records in results]
        return SimulationOutput(
            config=self._config,
            proxy_records=list(
                heap_merge(*(p for p, _ in chunks), key=record_sort_key)
            ),
            mme_records=list(
                heap_merge(*(m for _, m in chunks), key=record_sort_key)
            ),
            device_db=self._device_db,
            sector_map=topology.sector_map(),
            account_directory=population.account_directory(),
            app_catalog=self._catalog,
            population=population,
        )
