"""Incremental aggregation state for the analysis service.

The batch map-reduce layer (:mod:`repro.core.parallel`) splits the trace
by *account* and consumes each shard in one pass.  The service splits by
account **and by time**: rows arrive in small deltas as the trace grows.
That partition is only safe for partials whose ``consume`` is a
per-record fold — the **split-safe six** (:data:`FOLDED`): census,
adoption, activity, comparison, weekly, devices, which fold each delta
dataset's column table.  The other six
(:data:`REPLAYED`) are cross-row:

* mobility and through-device build per-subscriber sector timelines and
  filter general users by wearable *ownership at consume time*;
* apps, domains and protocols depend on app attribution (shared hosts
  inherit the nearest-in-time direct attribution) and sessionisation
  (the 60-second gap rule), both of which look across rows;
* encounters pairs subscribers who share a sector in the same hour.

Those six are recomputed at finalize time from per-shard **replay
buffers** (:class:`ReplayBuffer`) — the rows their batch consume
actually reads: all wearable proxy rows, phone proxy rows in the
detailed window, and MME rows in the detailed window.  Each delta
appends one :meth:`~repro.logs.columns.ColumnTable.take` slice per
buffer, selected by the delta dataset's row masks, and finalize and
checkpoints compact a buffer's slices into one table
(:meth:`~repro.logs.columns.ColumnTable.concat`), so a long-running
service does not keep one slice per poll.  The buffers hold O(trace)
rows as columns; no row is built.  Per-shard ownership accumulates as
the union of each delta's wearable accounts (ownership is shard-local,
so the union over time deltas equals the batch set) and is handed to
the replay dataset as its ``owner_accounts``.

Finalize replays the shards in process, in shard order: each shard's
replay dataset is its wearable table followed by its phone table, and
the six partials fold its columns as in batch; the encounter join reads
the dwell intervals (:func:`~repro.core.mobility.dwell_intervals`) of
every shard's MME table, concatenated and sorted as columns.  Each
shard's live and replayed partials make the same
:class:`~repro.core.parallel.ShardPartials` bundle ``analyze_parallel``
builds per shard, merged in shard order — reproducing
``analyze_parallel`` on the ingested prefix.  ``merge()`` mutates its
left operand only, so only the first shard's split-safe partials are
copied (through their state round trip) to keep the live state intact.

A checkpoint stores each buffer column by column
(:func:`~repro.serve.checkpoint.table_state`); that is shard state
version 2.  Version 1 held the rows as JSON lists, and restoring it
fails loudly.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.core.dataset import StudyDataset, TraceArtifacts
from repro.core.mobility import dwell_intervals
from repro.core.parallel import (
    ActivityPartial,
    AdoptionPartial,
    CensusPartial,
    ComparisonPartial,
    DevicesPartial,
    PanelInputs,
    ShardPartials,
)
from repro.core.pipeline import StudyReport
from repro.core.weekly import StreamingWeekly
from repro.logs.columns import ColumnTable
from repro.logs.quarantine import QuarantineReport
from repro.logs.records import MmeRecord, ProxyRecord
from repro.serve.checkpoint import table_from_state, table_state
from repro.simnet.appcatalog import builtin_app_catalog


#: The split-safe panels each slot folds per delta.
FOLDED = ("census", "adoption", "activity", "comparison", "weekly", "devices")

#: The cross-row panels finalize recomputes from the replay buffers.
REPLAYED = (
    "mobility",
    "apps",
    "domains",
    "through_device",
    "protocols",
    "encounters",
)

#: The replay buffers each slot keeps.
BUFFERS = ("proxy_wearable", "proxy_phone_detailed", "mme_detailed")


class ReplayBuffer:
    """The rows of one replay buffer: a compacted table plus the column
    slices appended since, compacted into it when it is read whole or
    when :attr:`MAX_SLICES` have piled up (a service that neither
    checkpoints nor answers queries would otherwise keep one slice per
    poll)."""

    MAX_SLICES = 64

    def __init__(
        self, record_type: type, table: ColumnTable | None = None
    ) -> None:
        self.record_type = record_type
        self._table = (
            table if table is not None else ColumnTable.concat(record_type, [])
        )
        self._slices: list[ColumnTable] = []

    def append(self, rows: ColumnTable) -> None:
        if len(rows):
            self._slices.append(rows)
            if len(self._slices) >= self.MAX_SLICES:
                self.table()

    def table(self) -> ColumnTable:
        """Every row as one table, its dictionaries in first-row order."""
        if self._slices:
            self._table = ColumnTable.concat(
                self.record_type, [self._table, *self._slices]
            )
            self._slices = []
        return self._table

    def __len__(self) -> int:
        return len(self._table) + sum(map(len, self._slices))

    def __iter__(self):
        """The rows as records, built from the table (only the
        benchmark's traced serve probe reads them)."""
        return iter(self.table().records)


class ShardSlot:
    """One account shard's live aggregation state.

    Holds the split-safe partials (folded per delta) and the replay
    buffers + accumulated owner set the finalize step needs.
    """

    STATE_VERSION = 2

    def __init__(self, artifacts: TraceArtifacts):
        window = artifacts.window
        self.census = CensusPartial()
        self.adoption = AdoptionPartial(total_days=window.total_days)
        self.activity = ActivityPartial()
        self.comparison = ComparisonPartial()
        self.weekly = StreamingWeekly(
            window, artifacts.device_db.wearable_tacs()
        )
        self.devices = DevicesPartial(
            total_weeks=max(1, window.total_days // 7)
        )
        self.proxy_wearable = ReplayBuffer(ProxyRecord)
        self.proxy_phone_detailed = ReplayBuffer(ProxyRecord)
        self.mme_detailed = ReplayBuffer(MmeRecord)
        self.owner_accounts: set[str] = set()
        self.rows = 0

    def consume(self, dataset: StudyDataset) -> None:
        """Fold one delta of this shard's rows into the live state."""
        for name in FOLDED:
            getattr(self, name).consume(dataset)
        wearable = dataset.wearable_proxy_mask
        self.proxy_wearable.append(dataset.proxy.take(wearable))
        self.proxy_phone_detailed.append(
            dataset.proxy.take(~wearable & dataset.detailed_proxy_mask)
        )
        self.mme_detailed.append(dataset.mme.take(dataset.detailed_mme_mask))
        self.owner_accounts |= dataset.wearable_accounts
        self.rows += len(dataset.proxy) + len(dataset.mme)

    def to_state(self) -> dict:
        return {
            "v": self.STATE_VERSION,
            **{name: getattr(self, name).to_state() for name in FOLDED},
            **{name: table_state(getattr(self, name).table()) for name in BUFFERS},
            "owner_accounts": sorted(self.owner_accounts),
            "rows": self.rows,
        }

    @classmethod
    def from_state(cls, state: dict, artifacts: TraceArtifacts) -> "ShardSlot":
        if state.get("v") != cls.STATE_VERSION:
            raise ValueError(
                f"unsupported shard state version: {state.get('v')!r} "
                f"(expected {cls.STATE_VERSION}); discard the old "
                "--checkpoint-dir"
            )
        slot = cls(artifacts)
        for name in FOLDED:
            partial = type(getattr(slot, name))
            setattr(slot, name, partial.from_state(state[name]))
        for name in BUFFERS:
            record_type = getattr(slot, name).record_type
            table = table_from_state(record_type, state[name])
            setattr(slot, name, ReplayBuffer(record_type, table))
        slot.owner_accounts = set(state["owner_accounts"])
        slot.rows = int(state["rows"])
        return slot


def _sorted(table: ColumnTable) -> ColumnTable:
    """A copy of ``table`` in :func:`~repro.logs.records.record_sort_key`
    order."""
    copy = ColumnTable(table.record_type, table.columns())
    copy.sort()
    return copy


def _replay_partials(
    slot: ShardSlot,
    artifacts: TraceArtifacts,
    *,
    sort_proxy: bool,
    sort_mme: bool,
) -> dict:
    """Compute one shard's cross-row partials from its replay buffers;
    returns the partials keyed by bundle field name.

    When the scrubber saw disorder the batch pipeline re-sorted the kept
    log before consuming; sorting each buffer is the restriction of that
    global sort, so the replay sees the identical order.

    The encounters partial gets only its *account* side here (SIM
    classification, detailed traffic, billing pairing) — the sector join
    needs every shard's MME rows at once and runs globally in
    :func:`finalize_slots`.
    """
    wearable, phone, mme = (getattr(slot, name).table() for name in BUFFERS)
    if sort_proxy:
        wearable, phone = _sorted(wearable), _sorted(phone)
    if sort_mme:
        mme = _sorted(mme)
    dataset = artifacts.dataset(
        ColumnTable.concat(ProxyRecord, [wearable, phone]),
        mme,
        owner_accounts=slot.owner_accounts,
    )
    inputs = PanelInputs(dataset)
    with obs.span("serve.replay"):
        return {name: inputs.partial(name) for name in REPLAYED}


def _copy(partial):
    """Deep copy through the state round trip (``merge()`` mutates)."""
    return type(partial).from_state(partial.to_state())


def finalize_slots(
    slots: list[ShardSlot],
    artifacts: TraceArtifacts,
    *,
    sort_proxy: bool = False,
    sort_mme: bool = False,
    quarantine: QuarantineReport | None = None,
) -> StudyReport:
    """Merge every shard's live + replayed partials into a StudyReport.

    The shards replay in process, in shard order, and merge into the
    first shard's bundle.  ``merge()`` mutates only its left operand
    and keeps none of its right operand's mutable objects, so only the
    first shard's split-safe partials are copied: the live state must
    survive to keep ingesting.
    """
    merged = None
    for slot in slots:
        folded = {name: getattr(slot, name) for name in FOLDED}
        if merged is None:
            folded = {name: _copy(partial) for name, partial in folded.items()}
        bundle = ShardPartials(
            **folded,
            **_replay_partials(
                slot, artifacts, sort_proxy=sort_proxy, sort_mme=sort_mme
            ),
        )
        merged = bundle if merged is None else merged.merge(bundle)
    # Encounter join side: pairs straddle account shards, so the sector
    # join runs once over every shard's detailed MME rows, sorted into
    # the canonical stream order the batch/parallel paths read (each
    # buffer is in order; the concatenation is not).  Folding into the
    # merged bundle's partial is the shards=1 routing — the same cells
    # any sharded routing would produce, merged.
    with obs.span("serve.encounters"):
        all_mme = ColumnTable.concat(
            MmeRecord, [slot.mme_detailed.table() for slot in slots]
        )
        all_mme.sort()
        study_start = artifacts.window.study_start
        merged.encounters.consume_intervals(
            dwell_intervals(all_mme, np.arange(len(all_mme)), study_start),
            study_start,
        )
    catalog = builtin_app_catalog()
    app_categories = {app.name: app.category for app in catalog}
    with obs.span("serve.finalize"):
        return merged.finalize(
            artifacts.window,
            artifacts.device_db,
            app_categories,
            quarantine=quarantine,
        )
