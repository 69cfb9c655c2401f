"""The panel table and the account-sharded analysis that runs it.

Each figure panel exists once, as a mergeable ``*Partial`` dataclass in
the module of its result type (``AdoptionPartial`` beside
``AdoptionResult`` in :mod:`repro.core.adoption`, and so on), with
explicit ``consume`` (fold a dataset in), ``merge`` (fold another
partial in) and ``finalize`` (produce the report field);
:mod:`repro.core.folds` holds their state protocol and shared fold
helpers.  This module holds what runs them: :class:`PanelInputs` (one
dataset plus what several panels share), :data:`PANELS` (the one
consume and finalize call per panel), :class:`ShardPartials` (one
shard's partial of every panel) and :func:`analyze_parallel`.  The
execution modes only differ in how they feed the partials:

* batch :class:`~repro.core.pipeline.WearableStudy` is the shards=1
  fold: each property builds its panel's partial over the whole dataset
  and finalizes it;
* :func:`analyze_parallel` splits the trace into **account shards** —
  ``crc32(account_id) % shards``, the same partition the simulation
  engine uses — so every per-user and per-account aggregation is
  shard-local.  It decodes and scrubs each log once
  (:meth:`~repro.core.dataset.StudyDataset.load`), routes the MME dwell
  intervals to the shard owning each sector, and then, one shard at a
  time and in shard order, builds one :class:`ShardPartials` from the
  shard's column slices (:meth:`~repro.core.dataset.StudyDataset.shard`)
  and the intervals of the sectors it joins; it merges them in shard
  order and finalizes.  Memory: O(trace) columns, about 44 bytes per
  row, plus one shard's slices at a time;
* :mod:`repro.serve` folds growing deltas into the same partials.

Every partial folds a dataset's column tables
(:attr:`~repro.core.dataset.StudyDataset.proxy`,
:attr:`~repro.core.dataset.StudyDataset.mme`) as group-bys over
dictionary codes and time buckets (:mod:`repro.logs.columns`): integer
sums in int64, keys inserted in the order of their first row, so each
partial's state equals what a row-by-row loop would build.  The six
split-safe ones — census, adoption, activity, comparison, weekly and
devices — read the tables directly.  Apps, domains and protocols fold
the §3.3 attribution and §5.1 sessions of :class:`PanelInputs`,
themselves column kernels
(:func:`~repro.core.app_mapping.attribute_table`,
:func:`~repro.core.sessions.session_table`); mobility, through-device
and the encounter join read the MME table through the timeline kernels
of :mod:`repro.core.mobility` (dwell intervals, daily displacement,
``sector_at``).  No partial builds a row object.

Merging is exact — integer counts, set unions, min/max, an exact
transaction-size histogram, and float folds taken over *sorted* keys or
with ``math.fsum`` — so every :class:`~repro.core.pipeline.StudyReport`
field is bit-identical for batch, any shard count, and serve (the
table lives in ``docs/architecture.md``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro import obs

from repro.core.activity import ActivityPartial
from repro.core.adoption import AdoptionPartial
from repro.core.app_mapping import (
    Attribution,
    SignatureCatalog,
    attribute_table,
)
from repro.core.apps import AppsPartial
from repro.core.comparison import ComparisonPartial
from repro.core.dataset import (
    StudyDataset,
    StudyWindow,
    load_artifacts,
)
from repro.core.devices import DevicesPartial
from repro.core.domains import DomainsPartial
from repro.core.encounters import EncountersPartial, sector_shard
from repro.core.folds import _PartialState
from repro.core.identification import CensusPartial
from repro.core.mobility import (
    DwellIntervals,
    MobilityPartial,
    dwell_intervals,
)
from repro.core.protocols import ProtocolsPartial
from repro.core.sessions import SessionTable, session_table
from repro.core.throughdevice import ThroughDevicePartial
from repro.core.weekly import WeeklyPartial
from repro.devicedb.database import DeviceDatabase
from repro.logs.io import read_records
from repro.logs.quarantine import QuarantineCollector, QuarantineReport
from repro.logs.records import MmeRecord
from repro.simnet.appcatalog import AppCatalog, builtin_app_catalog

if TYPE_CHECKING:
    from repro.core.pipeline import StudyReport


# ===================================================================== panels
class PanelInputs:
    """One dataset plus what several panels share, computed once.

    The apps, domains and protocols panels all read the app attribution
    (§3.3) and the one-minute-gap sessions (§5.1) of the dataset's
    wearable traffic; both are cached here as columns
    (:attr:`attribution`, :attr:`usage`).  :attr:`attributed` and
    :attr:`sessions` are aliases of them, kept only for the benchmark's
    traced batch replay, which takes their ``len()``.
    """

    def __init__(
        self, dataset: StudyDataset, app_catalog: AppCatalog | None = None
    ) -> None:
        """``app_catalog`` supplies the host signatures and the public
        Play-store categorisation; it defaults to the built-in catalog the
        simulator also uses (the analogue of the paper's lab-collected
        signature set)."""
        self.dataset = dataset
        self._catalog = app_catalog or builtin_app_catalog()

    @cached_property
    def signatures(self) -> SignatureCatalog:
        with obs.span("analyze.signatures"):
            return SignatureCatalog.from_app_catalog(self._catalog)

    @cached_property
    def app_categories(self) -> dict[str, str]:
        return {app.name: app.category for app in self._catalog}

    @cached_property
    def attribution(self) -> Attribution:
        """The dataset's wearable transactions with resolved apps."""
        dataset = self.dataset
        with obs.span("analyze.attributed"):
            return attribute_table(
                dataset.proxy.take(dataset.wearable_proxy_mask), self.signatures
            )

    @cached_property
    def usage(self) -> SessionTable:
        """One-minute-gap usage sessions over the attributed traffic."""
        with obs.span("analyze.sessions"):
            return session_table(self.attribution)

    @property
    def attributed(self) -> Attribution:
        return self.attribution

    @property
    def sessions(self) -> SessionTable:
        return self.usage

    def partial(self, name: str):
        """Panel ``name``'s partial, fed this whole dataset."""
        return PANELS[name].build(self)


def _fed(partial, *inputs):
    partial.consume(*inputs)
    return partial


@dataclass(frozen=True)
class Panel:
    """How one report field is built from a dataset and finalized."""

    #: ``build(inputs)`` -> the partial fed one :class:`PanelInputs`.
    build: Callable
    #: ``finalize(partial, window, device_db, app_categories)`` -> result.
    finalize: Callable


#: Every ``StudyReport`` panel in execution order, with its one consume
#: and one finalize call; ``ShardPartials`` and ``WearableStudy`` both go
#: through this table.  The encounters entry covers the account side
#: only: the sector-routed join side needs the dwell intervals of the
#: whole MME log and is fed through ``EncountersPartial.consume_intervals``.
PANELS: dict[str, Panel] = {
    "census": Panel(
        lambda s: _fed(CensusPartial(), s.dataset),
        lambda p, window, db, categories: p.finalize(db),
    ),
    "adoption": Panel(
        lambda s: _fed(
            AdoptionPartial(total_days=s.dataset.window.total_days), s.dataset
        ),
        lambda p, window, db, categories: p.finalize(window),
    ),
    "activity": Panel(
        lambda s: _fed(ActivityPartial(), s.dataset),
        lambda p, window, db, categories: p.finalize(window),
    ),
    "comparison": Panel(
        lambda s: _fed(ComparisonPartial(), s.dataset),
        lambda p, window, db, categories: p.finalize(),
    ),
    "mobility": Panel(
        lambda s: _fed(MobilityPartial(), s.dataset),
        lambda p, window, db, categories: p.finalize(),
    ),
    "apps": Panel(
        lambda s: _fed(AppsPartial(), s.dataset, s.attribution, s.usage),
        lambda p, window, db, categories: p.finalize(window, categories),
    ),
    "domains": Panel(
        lambda s: _fed(DomainsPartial(), s.dataset, s.attribution, s.usage),
        lambda p, window, db, categories: p.finalize(),
    ),
    "through_device": Panel(
        lambda s: _fed(ThroughDevicePartial(), s.dataset),
        lambda p, window, db, categories: p.finalize(window, db),
    ),
    "weekly": Panel(
        lambda s: _fed(WeeklyPartial(), s.dataset),
        lambda p, window, db, categories: p.finalize(),
    ),
    "protocols": Panel(
        lambda s: _fed(
            ProtocolsPartial(), s.dataset, s.attribution, s.app_categories
        ),
        lambda p, window, db, categories: p.finalize(categories),
    ),
    "devices": Panel(
        lambda s: _fed(
            DevicesPartial(total_weeks=max(1, s.dataset.window.total_days // 7)),
            s.dataset,
        ),
        lambda p, window, db, categories: p.finalize(db),
    ),
    "encounters": Panel(
        lambda s: _fed(EncountersPartial(), s.dataset),
        lambda p, window, db, categories: p.finalize(),
    ),
}


# ==================================================================== bundles
@dataclass
class ShardPartials(_PartialState):
    """One shard's partial aggregates for every figure panel."""

    _STATE_OBJECTS = {
        "census": CensusPartial,
        "adoption": AdoptionPartial,
        "activity": ActivityPartial,
        "comparison": ComparisonPartial,
        "mobility": MobilityPartial,
        "apps": AppsPartial,
        "domains": DomainsPartial,
        "through_device": ThroughDevicePartial,
        "weekly": WeeklyPartial,
        "protocols": ProtocolsPartial,
        "devices": DevicesPartial,
        "encounters": EncountersPartial,
    }

    census: CensusPartial
    adoption: AdoptionPartial
    activity: ActivityPartial
    comparison: ComparisonPartial
    mobility: MobilityPartial
    apps: AppsPartial
    domains: DomainsPartial
    through_device: ThroughDevicePartial
    weekly: WeeklyPartial
    protocols: ProtocolsPartial
    devices: DevicesPartial
    encounters: EncountersPartial

    @classmethod
    def compute(
        cls,
        dataset: StudyDataset,
        *,
        shard: int = 0,
        app_catalog: AppCatalog | None = None,
    ) -> "ShardPartials":
        """Map step: every partial aggregate from one shard's dataset.

        ``shard`` labels the caller's shard; the partials do not depend
        on it.  Only the encounter *account* side is fed here — the
        join side needs the intervals of the full MME log, which the
        dataset does not hold when account-sharded; ``_analyze_shard``
        feeds it the intervals of its sectors and the serve finalize
        those of every shard (``encounters.consume_intervals``).
        """
        inputs = PanelInputs(dataset, app_catalog)
        with obs.span("shard.attribute"):
            inputs.usage  # attribute and sessionise under their own span
        with obs.span("shard.aggregate"):
            return cls(**{name: inputs.partial(name) for name in PANELS})

    def merge(self, other: "ShardPartials") -> "ShardPartials":
        """Reduce step: fold another shard's partials into this one."""
        for name in PANELS:
            getattr(self, name).merge(getattr(other, name))
        return self

    def finalize(
        self,
        window: StudyWindow,
        device_db: DeviceDatabase,
        app_categories,
        quarantine: QuarantineReport | None = None,
    ) -> StudyReport:
        """Produce the same :class:`StudyReport` object the batch path does."""
        from repro.core.pipeline import StudyReport

        events = obs.events()
        results = {}
        for name, panel in PANELS.items():
            events.emit("phase", stage=f"analyze.{name}")
            with obs.span(f"analyze.{name}"):
                results[name] = panel.finalize(
                    getattr(self, name), window, device_db, app_categories
                )
        return StudyReport(quarantine=quarantine, **results)


# =============================================================== orchestration
@dataclass
class AnalysisShardStats:
    """What one analysis shard consumed, and how long it took."""

    shard: int
    proxy_records: int
    mme_records: int
    elapsed_seconds: float

    @property
    def resident_records(self) -> int:
        """Records this shard held in memory at its peak."""
        return self.proxy_records + self.mme_records


def _full_mme_stream(trace_dir: str, *, lenient: bool, format: str):
    """The unsharded canonical MME stream of a trace directory.

    Strict mode streams straight off the log (engine traces are written
    in canonical order), holding O(1) rows.  Lenient mode runs the same
    read and :class:`~repro.core.dataset.Scrubber` pass a lenient
    :meth:`StudyDataset.load` does — parse salvage, semantic row drops,
    dedup, re-sort on disorder — so the kept rows equal the serial
    lenient load's exactly; the defect accounting is discarded.
    :func:`analyze_parallel` does not read the log again: it takes the
    join's intervals from its one load (:func:`_sector_intervals`).
    """
    base = Path(trace_dir)
    if not lenient:
        return read_records(
            StudyDataset._log_path(base, "mme", format), MmeRecord
        )
    return iter(
        StudyDataset._load_log(
            base,
            MmeRecord,
            format,
            QuarantineCollector(),
            sector_map=load_artifacts(base).sector_map,
        ).records
    )


def _sector_intervals(dataset: StudyDataset, shards: int) -> list[DwellIntervals]:
    """The dwell intervals of the dataset's MME log
    (:func:`~repro.core.mobility.dwell_intervals` over the detailed
    window), routed to the shard owning each interval's sector
    (:func:`sector_shard`, one hash per sector dictionary entry)."""
    intervals = dwell_intervals(
        dataset.mme,
        np.flatnonzero(dataset.detailed_mme_mask),
        dataset.window.study_start,
    )
    owner = np.array(
        [sector_shard(sector, shards) for sector in intervals.sector.values.tolist()],
        dtype=np.int64,
    )[intervals.sector.codes]
    return [intervals.take(owner == shard) for shard in range(shards)]


def _analyze_shard(
    dataset: StudyDataset, shard: int, shards: int, intervals: DwellIntervals
) -> tuple[ShardPartials, AnalysisShardStats]:
    """One account shard's partials: its rows of ``dataset``
    (:meth:`StudyDataset.shard`) and the dwell ``intervals`` routed to
    its sectors.  The shard's dataset, with the partitions its panels
    build, is dropped before the join runs."""
    started = time.perf_counter()
    events = obs.events()
    with obs.tracer().span("analyze.shard", shard=shard) as shard_span:
        part = dataset.shard(shard, shards)
        proxy_rows, mme_rows = len(part.proxy), len(part.mme)
        partials = ShardPartials.compute(part, shard=shard)
        del part
        events.emit(
            "progress", shard=shard, stage="aggregate", rows=proxy_rows + mme_rows
        )
        # Encounter join side: pairs straddle account shards, so the join
        # partitions by *sector* instead — this shard joins the intervals
        # routed to its sectors.
        with obs.span("shard.encounters"):
            encounter_events = partials.encounters.consume_intervals(
                intervals, dataset.window.study_start
            )
        events.emit(
            "progress", shard=shard, stage="encounters", rows=encounter_events
        )
    if obs.enabled():
        registry = obs.metrics()
        registry.counter(
            "repro_analysis_proxy_records_total", shard=shard
        ).add(proxy_rows)
        registry.counter(
            "repro_analysis_mme_records_total", shard=shard
        ).add(mme_rows)
        registry.counter(
            "repro_analysis_encounter_events_total", shard=shard
        ).add(encounter_events)
    return partials, AnalysisShardStats(
        shard=shard,
        proxy_records=proxy_rows,
        mme_records=mme_rows,
        elapsed_seconds=(
            shard_span.wall_s
            if shard_span is not None
            else time.perf_counter() - started
        ),
    )


@dataclass
class ParallelAnalysisRun:
    """The merged report plus per-shard accounting."""

    report: StudyReport
    shard_stats: list[AnalysisShardStats]
    #: Always 1: the shards run in the calling process.
    workers: int = 1

    @property
    def proxy_rows(self) -> int:
        return sum(s.proxy_records for s in self.shard_stats)

    @property
    def mme_rows(self) -> int:
        return sum(s.mme_records for s in self.shard_stats)

    @property
    def peak_resident_records(self) -> int:
        """Largest row count any single shard held, O(largest shard),
        on top of the whole trace as columns (about 44 bytes per row)."""
        if not self.shard_stats:
            return 0
        return max(s.resident_records for s in self.shard_stats)


def analyze_parallel(
    trace_dir: str | Path,
    *,
    shards: int = 1,
    workers: int | None = None,
    lenient: bool = False,
    app_catalog=None,
    format: str = "auto",
) -> ParallelAnalysisRun:
    """Map-reduce the full study over account shards, in this process.

    Loads the trace once (:meth:`StudyDataset.load`, strict or
    ``lenient``, in the ``format`` asked for: ``auto`` / ``csv`` /
    ``bin``), so each log is decoded and scrubbed once; routes the MME
    log's dwell intervals to the shard owning each sector
    (:func:`_sector_intervals`); then builds each shard's partials in
    shard order (:func:`_analyze_shard`), merges them in that order and
    finalizes.  The report carries the load's quarantine accounting, the
    same as a serial lenient load's, and equals the batch report
    bit for bit.  Memory: the trace as columns, about 44 bytes per row,
    plus one shard's slices at a time, until the last shard is built.

    ``workers`` is accepted and ignored.
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")

    with obs.span("analyze.parallel", shards=shards):
        with obs.span("analyze.load"):
            dataset = StudyDataset.load(
                trace_dir, lenient=lenient, format=format
            )
            obs.events().emit(
                "progress",
                stage="load",
                rows=len(dataset.proxy) + len(dataset.mme),
            )
            routed = _sector_intervals(dataset, shards)
            window, device_db = dataset.window, dataset.device_db
            quarantine = dataset.quarantine

        with obs.span("analyze.shards"):
            results = [
                _analyze_shard(dataset, shard, shards, intervals)
                for shard, intervals in enumerate(routed)
            ]
            # Merge and finalize read none of the trace's columns; freed
            # here, they do not add to the peak while the partials merge.
            del dataset, routed

        with obs.span("analyze.merge"):
            merged = results[0][0]
            for partials, _ in results[1:]:
                merged.merge(partials)

        with obs.span("analyze.finalize"):
            catalog = app_catalog or builtin_app_catalog()
            app_categories = {app.name: app.category for app in catalog}
            report = merged.finalize(
                window, device_db, app_categories, quarantine=quarantine
            )

    stats = [stat for _, stat in results]
    if obs.enabled():
        registry = obs.metrics()
        registry.gauge("repro_analysis_shards").set(shards)
        registry.gauge("repro_analysis_peak_resident_records").set(
            max((s.resident_records for s in stats), default=0)
        )
    return ParallelAnalysisRun(report=report, shard_stats=stats)
