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
buffers** — the record subsets their batch consumes actually read: all
wearable proxy rows, phone proxy rows in the detailed window, and MME
rows in the detailed window, each taken from a delta by the dataset's
row masks.  The buffers hold O(trace) rows.  Per-shard ownership
accumulates as the union of each delta's wearable accounts (ownership
is shard-local, so the union over time deltas equals the batch set) and
is handed to the replay dataset as its ``owner_accounts``.

Finalize replays the shards through :func:`repro.obs.map_shards` (in
process, or in a pool when the service has ``workers > 1``),
deep-copies the split-safe partials through their state round trip
(``merge()`` mutates), bundles everything into the same
:class:`~repro.core.parallel.ShardPartials` the batch workers ship, and
merges in shard order — reproducing ``analyze_parallel`` on the
ingested prefix.
"""

from __future__ import annotations

from repro import obs
from repro.core.dataset import TraceArtifacts
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
from repro.logs.quarantine import QuarantineReport
from repro.logs.records import (
    MmeRecord,
    ProxyRecord,
    record_sort_key,
    record_to_row,
    row_to_record,
)
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


class ShardSlot:
    """One account shard's live aggregation state.

    Holds the split-safe partials (folded per delta) and the replay
    buffers + accumulated owner set the finalize step needs.
    """

    STATE_VERSION = 1

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
        self.proxy_wearable: list[ProxyRecord] = []
        self.proxy_phone_detailed: list[ProxyRecord] = []
        self.mme_detailed: list[MmeRecord] = []
        self.owner_accounts: set[str] = set()
        self.rows = 0

    def consume(
        self,
        delta_proxy: list[ProxyRecord],
        delta_mme: list[MmeRecord],
        artifacts: TraceArtifacts,
    ) -> None:
        """Fold one delta of this shard's rows into the live state."""
        dataset = artifacts.dataset(delta_proxy, delta_mme)
        for name in FOLDED:
            getattr(self, name).consume(dataset)
        wearable = dataset.wearable_proxy_mask
        self.proxy_wearable.extend(dataset.proxy.rows_where(wearable))
        self.proxy_phone_detailed.extend(
            dataset.proxy.rows_where(~wearable & dataset.detailed_proxy_mask)
        )
        self.mme_detailed.extend(
            dataset.mme.rows_where(dataset.detailed_mme_mask)
        )
        self.owner_accounts |= dataset.wearable_accounts
        self.rows += len(delta_proxy) + len(delta_mme)

    def to_state(self) -> dict:
        return {
            "v": self.STATE_VERSION,
            "census": self.census.to_state(),
            "adoption": self.adoption.to_state(),
            "activity": self.activity.to_state(),
            "comparison": self.comparison.to_state(),
            "weekly": self.weekly.to_state(),
            "devices": self.devices.to_state(),
            "proxy_wearable": [
                list(record_to_row(r)) for r in self.proxy_wearable
            ],
            "proxy_phone_detailed": [
                list(record_to_row(r)) for r in self.proxy_phone_detailed
            ],
            "mme_detailed": [
                list(record_to_row(r)) for r in self.mme_detailed
            ],
            "owner_accounts": sorted(self.owner_accounts),
            "rows": self.rows,
        }

    @classmethod
    def from_state(cls, state: dict, artifacts: TraceArtifacts) -> "ShardSlot":
        if state.get("v") != cls.STATE_VERSION:
            raise ValueError(
                f"unsupported shard state version: {state.get('v')!r}"
            )
        slot = cls(artifacts)
        slot.census = CensusPartial.from_state(state["census"])
        slot.adoption = AdoptionPartial.from_state(state["adoption"])
        slot.activity = ActivityPartial.from_state(state["activity"])
        slot.comparison = ComparisonPartial.from_state(state["comparison"])
        slot.weekly = StreamingWeekly.from_state(state["weekly"])
        slot.devices = DevicesPartial.from_state(state["devices"])
        slot.proxy_wearable = [
            row_to_record(ProxyRecord, tuple(row))
            for row in state["proxy_wearable"]
        ]
        slot.proxy_phone_detailed = [
            row_to_record(ProxyRecord, tuple(row))
            for row in state["proxy_phone_detailed"]
        ]
        slot.mme_detailed = [
            row_to_record(MmeRecord, tuple(row))
            for row in state["mme_detailed"]
        ]
        slot.owner_accounts = set(state["owner_accounts"])
        slot.rows = int(state["rows"])
        return slot


def _replay_partials(payload: tuple) -> dict:
    """Compute one shard's cross-row partials from its replay buffers.

    ``payload`` is ``(slot, sort_proxy, sort_mme, artifacts)``; returns
    the partials keyed by bundle field name.  When the scrubber saw
    disorder the batch pipeline re-sorted the kept log before consuming;
    sorting each buffer is the restriction of that global sort, so the
    replay sees the identical order.

    The encounters partial gets only its *account* side here (SIM
    classification, detailed traffic, billing pairing) — the sector join
    needs every shard's MME rows at once and runs globally in
    :func:`finalize_slots`.
    """
    slot, sort_proxy, sort_mme, artifacts = payload
    wearable = slot.proxy_wearable
    phone = slot.proxy_phone_detailed
    mme = slot.mme_detailed
    if sort_proxy:
        wearable = sorted(wearable, key=record_sort_key)
        phone = sorted(phone, key=record_sort_key)
    if sort_mme:
        mme = sorted(mme, key=record_sort_key)
    dataset = artifacts.dataset(
        wearable + phone, list(mme), owner_accounts=slot.owner_accounts
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
    workers: int = 1,
    sort_proxy: bool = False,
    sort_mme: bool = False,
    quarantine: QuarantineReport | None = None,
) -> StudyReport:
    """Merge every shard's live + replayed partials into a StudyReport.

    The shards replay through :func:`repro.obs.map_shards` over
    ``workers`` processes.  The split-safe partials are deep-copied
    first — ``merge()`` mutates its left operand, and the live state
    must survive to keep ingesting.
    """
    replayed = obs.map_shards(
        _replay_partials,
        [(slot, sort_proxy, sort_mme, artifacts) for slot in slots],
        workers,
    )
    bundles = [
        ShardPartials(
            **{name: _copy(getattr(slot, name)) for name in FOLDED},
            **partials,
        )
        for slot, partials in zip(slots, replayed)
    ]
    merged = bundles[0]
    for bundle in bundles[1:]:
        merged.merge(bundle)
    # Encounter join side: pairs straddle account shards, so the sector
    # join runs once over every shard's detailed MME rows, re-sorted
    # into the canonical stream order the batch/parallel paths read
    # (each buffer is in order; the concatenation is not).  Folding into
    # the merged bundle's partial is the shards=1 routing — the same
    # cells any sharded routing would produce, merged.
    with obs.span("serve.encounters"):
        all_mme = sorted(
            (r for slot in slots for r in slot.mme_detailed),
            key=record_sort_key,
        )
        merged.encounters.consume_stream(iter(all_mme), artifacts.window)
    catalog = builtin_app_catalog()
    app_categories = {app.name: app.category for app in catalog}
    with obs.span("serve.finalize"):
        return merged.finalize(
            artifacts.window,
            artifacts.device_db,
            app_categories,
            quarantine=quarantine,
        )
