"""Incremental aggregation state for the analysis service.

The batch map-reduce layer (:mod:`repro.core.parallel`) splits the trace
by *account* and consumes each shard in one pass.  The service splits by
account **and by time**: rows arrive in small deltas as the trace grows.
That partition is only safe for partials whose ``consume`` is a
per-record fold — the **split-safe six**: census, adoption, activity,
comparison, weekly, devices.  The other five are cross-row:

* mobility and through-device build per-subscriber sector timelines and
  filter general users by wearable *ownership at consume time*;
* apps, domains and protocols depend on app attribution (shared hosts
  inherit the nearest-in-time direct attribution) and sessionisation
  (the 60-second gap rule), both of which look across rows.

Those five are recomputed at finalize time from per-shard **replay
buffers** — the minimal record subsets their batch consumes actually
read: all wearable proxy rows, phone proxy rows in the detailed window,
and MME rows in the detailed window.  Per-shard ownership accumulates as
the union of each delta's wearable accounts (ownership is shard-local,
so the union over time deltas equals the batch set).

Finalize deep-copies the split-safe partials through their state round
trip (``merge()`` mutates), computes the replay partials fresh, bundles
everything into the same :class:`~repro.core.parallel.ShardPartials`
the batch workers ship, and merges in shard order — reproducing
``analyze_parallel`` on the ingested prefix.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

from repro import obs
from repro.core.dataset import StudyDataset, StudyWindow
from repro.core.parallel import (
    ActivityPartial,
    AdoptionPartial,
    AppsPartial,
    CensusPartial,
    ComparisonPartial,
    DevicesPartial,
    DomainsPartial,
    EncountersPartial,
    MobilityPartial,
    PanelInputs,
    ProtocolsPartial,
    ShardPartials,
    ThroughDevicePartial,
)
from repro.core.pipeline import StudyReport
from repro.core.weekly import StreamingWeekly
from repro.devicedb.database import DeviceDatabase
from repro.devicedb.tac import IMEI_LENGTH
from repro.logs.quarantine import QuarantineCollector, QuarantineReport
from repro.logs.records import MmeRecord, ProxyRecord, record_sort_key
from repro.serve.tailer import record_to_row, row_to_record
from repro.simnet.appcatalog import builtin_app_catalog
from repro.simnet.topology import SectorMap


#: The cross-row panels finalize recomputes from the replay buffers.
REPLAYED = (
    "mobility",
    "apps",
    "domains",
    "through_device",
    "protocols",
    "encounters",
)


@dataclass(frozen=True)
class TraceArtifacts:
    """The structural side artefacts of a trace directory.

    These stay strict in every mode — no analysis is meaningful without
    them — and are loaded once at service start.
    """

    window: StudyWindow
    device_db: DeviceDatabase
    sector_map: SectorMap
    account_directory: dict[str, str]
    wearable_tacs: frozenset[str]


def load_artifacts(base: str | Path) -> TraceArtifacts:
    """Load the side artefacts; raises ``FileNotFoundError`` if absent."""
    base = Path(base)
    meta_path = base / "metadata.json"
    if not meta_path.exists():
        raise FileNotFoundError(
            f"not a trace directory (missing metadata.json): {base}"
        )
    with meta_path.open("r", encoding="utf-8") as handle:
        meta = json.load(handle)
    window = StudyWindow(
        study_start=float(meta["study_start"]),
        total_days=int(meta["total_days"]),
        detailed_days=int(meta["detailed_days"]),
    )
    account_directory: dict[str, str] = {}
    with (base / "accounts.csv").open(
        "r", newline="", encoding="utf-8"
    ) as handle:
        for row in csv.DictReader(handle):
            account_directory[row["subscriber_id"]] = row["account_id"]
    device_db = DeviceDatabase.read_csv(base / "devices.csv")
    sector_map = SectorMap.read_csv(base / "sectors.csv")
    return TraceArtifacts(
        window=window,
        device_db=device_db,
        sector_map=sector_map,
        account_directory=account_directory,
        wearable_tacs=device_db.wearable_tacs(),
    )


class IncrementalScrub:
    """The batch lenient scrubber, chunked with an explicit carry.

    Replicates :func:`repro.core.dataset._scrub_records` semantics row
    for row: adjacent exact duplicates drop first, then malformed IMEIs
    and (for MME) unknown sectors, and out-of-order timestamps are noted
    and counted.  The carry — last parsed record, previous timestamp,
    global row index, disorder count — makes processing a stream in N
    chunks produce the identical quarantine accounting to one pass over
    the concatenation.  The re-sort the batch scrubber applies when
    disorder was seen cannot happen mid-stream; instead :attr:`disorder`
    tells the finalize step to sort the replay buffers.
    """

    STATE_VERSION = 1

    def __init__(
        self,
        kind: str,
        record_type: type,
        collector: QuarantineCollector,
        sector_map: SectorMap | None = None,
    ) -> None:
        self.kind = kind
        self.record_type = record_type
        self.collector = collector
        self.sector_map = sector_map
        self._index = 0
        self._last_seen = None
        self._previous_ts = float("-inf")
        self.disorder = 0

    def to_state(self) -> dict:
        return {
            "v": self.STATE_VERSION,
            "index": self._index,
            "last_seen": (
                list(record_to_row(self._last_seen))
                if self._last_seen is not None
                else None
            ),
            "previous_ts": self._previous_ts,
            "disorder": self.disorder,
        }

    def restore_state(self, state: dict) -> None:
        if state.get("v") != self.STATE_VERSION:
            raise ValueError(
                f"unsupported scrub state version: {state.get('v')!r}"
            )
        self._index = int(state["index"])
        last = state["last_seen"]
        self._last_seen = (
            row_to_record(self.record_type, tuple(last))
            if last is not None
            else None
        )
        self._previous_ts = float(state["previous_ts"])
        self.disorder = int(state["disorder"])

    def process_one(self, record):
        """Scrub one record; returns it, or None if quarantined.

        Meant to run *inside* the read loop (the tailer's ``scrub``
        hook) so read-layer and scrub-layer quarantine events land in
        the collector in strict row order — the order the batch
        generator chain produces.
        """
        kind = self.kind
        collector = self.collector
        where = f"{kind}[{self._index}]"
        self._index += 1
        if record == self._last_seen:
            collector.quarantine_row(
                kind,
                f"{kind}-duplicate",
                "exact duplicate of the previous row",
                where,
            )
            return None
        self._last_seen = record
        if len(record.imei) != IMEI_LENGTH or not record.imei.isdigit():
            collector.quarantine_row(
                kind,
                f"{kind}-imei",
                "malformed IMEI",
                f"{where} {record.imei!r}",
            )
            return None
        if (
            self.sector_map is not None
            and record.sector_id not in self.sector_map
        ):
            collector.quarantine_row(
                kind,
                f"{kind}-sector",
                "sector missing from the cell plan",
                f"{where} {record.sector_id}",
            )
            return None
        if record.timestamp < self._previous_ts:
            self.disorder += 1
            collector.note(
                f"{kind}-order",
                "records out of time order (kept; log re-sorted)",
                where,
            )
        self._previous_ts = record.timestamp
        return record

    def process(self, records: list) -> list:
        kept: list = []
        for record in records:
            scrubbed = self.process_one(record)
            if scrubbed is not None:
                kept.append(scrubbed)
        return kept


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
        self.weekly = StreamingWeekly(window, artifacts.wearable_tacs)
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
        dataset = StudyDataset(
            proxy_records=delta_proxy,
            mme_records=delta_mme,
            device_db=artifacts.device_db,
            sector_map=artifacts.sector_map,
            account_directory=artifacts.account_directory,
            window=artifacts.window,
        )
        dataset.__dict__["wearable_tacs"] = artifacts.wearable_tacs
        self.census.consume(dataset)
        self.adoption.consume(dataset)
        self.activity.consume(dataset)
        self.comparison.consume(dataset)
        self.weekly.consume(delta_proxy)
        self.devices.consume(dataset)
        window = artifacts.window
        self.proxy_wearable.extend(dataset.wearable_proxy)
        self.proxy_phone_detailed.extend(
            r for r in dataset.phone_proxy if window.in_detailed(r.timestamp)
        )
        self.mme_detailed.extend(
            r for r in delta_mme if window.in_detailed(r.timestamp)
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

    def replay_payload(self, sort_proxy: bool, sort_mme: bool) -> dict:
        """JSON-safe input for :func:`compute_replay_states` (workers)."""
        return {
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
            "sort_proxy": sort_proxy,
            "sort_mme": sort_mme,
        }


def _replay_partials(
    proxy_wearable: list[ProxyRecord],
    proxy_phone_detailed: list[ProxyRecord],
    mme_detailed: list[MmeRecord],
    owner_accounts: frozenset[str],
    sort_proxy: bool,
    sort_mme: bool,
    artifacts: TraceArtifacts,
) -> dict:
    """Compute the cross-row partials from one shard's buffers.

    Returns their JSON-safe states, keyed by bundle field name.  When
    the scrubber saw disorder the batch pipeline re-sorted the kept log
    before consuming; sorting each buffer is the restriction of that
    global sort, so the replay sees the identical order.

    The encounters partial gets only its *account* side here (SIM
    classification, detailed traffic, billing pairing) — the sector join
    needs every shard's MME rows at once and runs globally in
    :func:`finalize_slots`.
    """
    if sort_proxy:
        proxy_wearable = sorted(proxy_wearable, key=record_sort_key)
        proxy_phone_detailed = sorted(
            proxy_phone_detailed, key=record_sort_key
        )
    if sort_mme:
        mme_detailed = sorted(mme_detailed, key=record_sort_key)
    dataset = StudyDataset(
        proxy_records=list(proxy_wearable) + list(proxy_phone_detailed),
        mme_records=list(mme_detailed),
        device_db=artifacts.device_db,
        sector_map=artifacts.sector_map,
        account_directory=artifacts.account_directory,
        window=artifacts.window,
    )
    dataset.__dict__["wearable_tacs"] = artifacts.wearable_tacs
    dataset.__dict__["wearable_accounts"] = frozenset(owner_accounts)
    inputs = PanelInputs(dataset)
    with obs.span("serve.replay"):
        return {name: inputs.partial(name).to_state() for name in REPLAYED}


def compute_replay_states(payload: dict, trace_dir: str) -> dict:
    """Worker entry point: replay one shard's buffers (picklable I/O)."""
    artifacts = load_artifacts(trace_dir)
    return _replay_partials(
        [row_to_record(ProxyRecord, tuple(r)) for r in payload["proxy_wearable"]],
        [
            row_to_record(ProxyRecord, tuple(r))
            for r in payload["proxy_phone_detailed"]
        ],
        [row_to_record(MmeRecord, tuple(r)) for r in payload["mme_detailed"]],
        frozenset(payload["owner_accounts"]),
        payload["sort_proxy"],
        payload["sort_mme"],
        artifacts,
    )


def finalize_slots(
    slots: list[ShardSlot],
    artifacts: TraceArtifacts,
    *,
    trace_dir: str | Path,
    workers: int = 1,
    sort_proxy: bool = False,
    sort_mme: bool = False,
    quarantine: QuarantineReport | None = None,
) -> StudyReport:
    """Merge every shard's live + replayed partials into a StudyReport.

    The split-safe partials are deep-copied through their state round
    trip first — ``merge()`` mutates its left operand, and the live
    state must survive to keep ingesting.
    """
    replay_states: list[dict]
    if workers > 1 and len(slots) > 1:
        from concurrent.futures import ProcessPoolExecutor

        payloads = [
            slot.replay_payload(sort_proxy, sort_mme) for slot in slots
        ]
        with ProcessPoolExecutor(
            max_workers=min(workers, len(slots))
        ) as pool:
            replay_states = list(
                pool.map(
                    compute_replay_states,
                    payloads,
                    [str(trace_dir)] * len(payloads),
                )
            )
    else:
        replay_states = [
            _replay_partials(
                slot.proxy_wearable,
                slot.proxy_phone_detailed,
                slot.mme_detailed,
                frozenset(slot.owner_accounts),
                sort_proxy,
                sort_mme,
                artifacts,
            )
            for slot in slots
        ]

    bundles = []
    for slot, replayed in zip(slots, replay_states):
        bundles.append(
            ShardPartials(
                census=CensusPartial.from_state(slot.census.to_state()),
                adoption=AdoptionPartial.from_state(slot.adoption.to_state()),
                activity=ActivityPartial.from_state(slot.activity.to_state()),
                comparison=ComparisonPartial.from_state(
                    slot.comparison.to_state()
                ),
                mobility=MobilityPartial.from_state(replayed["mobility"]),
                apps=AppsPartial.from_state(replayed["apps"]),
                domains=DomainsPartial.from_state(replayed["domains"]),
                through_device=ThroughDevicePartial.from_state(
                    replayed["through_device"]
                ),
                weekly=StreamingWeekly.from_state(slot.weekly.to_state()),
                protocols=ProtocolsPartial.from_state(replayed["protocols"]),
                devices=DevicesPartial.from_state(slot.devices.to_state()),
                encounters=EncountersPartial.from_state(
                    replayed["encounters"]
                ),
            )
        )
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
