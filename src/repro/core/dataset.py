"""The study dataset: the raw artefacts every analysis consumes.

A :class:`StudyDataset` bundles the transparent-proxy log, the MME log, the
device database, the cell plan, the billing directory and the window
metadata — nothing else.  It can be built directly from a
:class:`~repro.simnet.simulator.SimulationOutput` (in-memory) or loaded
from a trace directory written by :meth:`SimulationOutput.write`, so the
analyses run identically on live objects and on exported CSVs (or, with
the same schemas, on a real operator export).

This module is the one home of the trace-directory contract; batch,
sharded and served analysis all go through it:

* :func:`load_artifacts` is the only parser of the side files
  (``metadata.json``, ``accounts.csv``, ``devices.csv``, ``sectors.csv``);
* :meth:`StudyDataset._log_path` is the only log-suffix probe;
* :class:`Scrubber` is the one lenient row filter, with a checkpointable
  carry so the service runs it over a growing stream;
* account-shard selection is :func:`~repro.logs.io.shard_keep_predicate`,
  applied once inside :meth:`StudyDataset.load`.

The class also owns the cheap, widely shared partitions — wearable vs.
non-wearable records, the detailed-window slice — computed once and cached.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

from typing import Callable, Iterable, Iterator

from repro.devicedb.database import DeviceDatabase
from repro.devicedb.tac import IMEI_LENGTH
from repro.logs.io import log_kind, read_records, shard_keep_predicate
from repro.logs.quarantine import QuarantineCollector, QuarantineReport
from repro.logs.records import (
    MmeRecord,
    ProxyRecord,
    record_sort_key,
    record_to_row,
    row_to_record,
)
from repro.logs.timeutil import SECONDS_PER_DAY
from repro.simnet.topology import SectorMap


@dataclass(frozen=True, slots=True)
class StudyWindow:
    """Observation-window metadata.

    ``study_end`` and ``detailed_start`` are derived once at
    construction: :meth:`in_detailed` runs once per record in most
    panels.
    """

    study_start: float
    total_days: int
    detailed_days: int
    study_end: float = field(init=False, repr=False, compare=False)
    detailed_start: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        study_end = self.study_start + self.total_days * SECONDS_PER_DAY
        object.__setattr__(self, "study_end", study_end)
        object.__setattr__(
            self,
            "detailed_start",
            study_end - self.detailed_days * SECONDS_PER_DAY,
        )

    @property
    def detailed_first_day(self) -> int:
        """Index of the first day of the detailed window."""
        return self.total_days - self.detailed_days

    def day_of(self, timestamp: float) -> int:
        """Study-day index of a timestamp."""
        return int((timestamp - self.study_start) // SECONDS_PER_DAY)

    def in_study(self, timestamp: float) -> bool:
        return self.study_start <= timestamp < self.study_end

    def in_detailed(self, timestamp: float) -> bool:
        return self.detailed_start <= timestamp < self.study_end


@dataclass(frozen=True)
class TraceArtifacts:
    """The structural side artefacts of a trace directory.

    They stay strict in every mode — no analysis is meaningful without
    them — and hold no log records.
    """

    window: StudyWindow
    device_db: DeviceDatabase
    sector_map: SectorMap
    account_directory: dict[str, str]

    def dataset(
        self,
        proxy_records: list[ProxyRecord],
        mme_records: list[MmeRecord],
        quarantine: QuarantineReport | None = None,
    ) -> "StudyDataset":
        """A dataset of these records over these artefacts."""
        return StudyDataset(
            proxy_records=proxy_records,
            mme_records=mme_records,
            device_db=self.device_db,
            sector_map=self.sector_map,
            account_directory=self.account_directory,
            window=self.window,
            quarantine=quarantine,
        )


def load_artifacts(directory: str | Path) -> TraceArtifacts:
    """Parse the side files of a trace directory.

    Raises ``FileNotFoundError`` when the directory or its
    ``metadata.json`` is missing.
    """
    base = Path(directory)
    if not base.is_dir():
        raise FileNotFoundError(f"trace directory not found: {base}")
    meta_path = base / "metadata.json"
    if not meta_path.exists():
        raise FileNotFoundError(
            f"not a trace directory (missing metadata.json): {base}"
        )
    with meta_path.open("r", encoding="utf-8") as handle:
        meta = json.load(handle)
    account_directory: dict[str, str] = {}
    with (base / "accounts.csv").open("r", newline="", encoding="utf-8") as handle:
        for row in csv.DictReader(handle):
            account_directory[row["subscriber_id"]] = row["account_id"]
    return TraceArtifacts(
        window=StudyWindow(
            study_start=float(meta["study_start"]),
            total_days=int(meta["total_days"]),
            detailed_days=int(meta["detailed_days"]),
        ),
        device_db=DeviceDatabase.read_csv(base / "devices.csv"),
        sector_map=SectorMap.read_csv(base / "sectors.csv"),
        account_directory=account_directory,
    )


class StudyDataset:
    """Raw measurement artefacts plus cached shared partitions."""

    def __init__(
        self,
        proxy_records: list[ProxyRecord],
        mme_records: list[MmeRecord],
        device_db: DeviceDatabase,
        sector_map: SectorMap,
        account_directory: dict[str, str],
        window: StudyWindow,
        quarantine: QuarantineReport | None = None,
    ) -> None:
        self.proxy_records = proxy_records
        self.mme_records = mme_records
        self.device_db = device_db
        self.sector_map = sector_map
        self.account_directory = account_directory
        self.window = window
        #: Present when the dataset was loaded leniently: what ingestion
        #: quarantined to keep the pipeline alive (None = strict load).
        self.quarantine = quarantine

    # ------------------------------------------------------------ loading
    @classmethod
    def from_simulation(cls, output) -> "StudyDataset":
        """Wrap a :class:`SimulationOutput` without copying records."""
        return cls(
            proxy_records=output.proxy_records,
            mme_records=output.mme_records,
            device_db=output.device_db,
            sector_map=output.sector_map,
            account_directory=output.account_directory,
            window=StudyWindow(
                study_start=output.config.study_start,
                total_days=output.config.total_days,
                detailed_days=output.config.detailed_days,
            ),
        )

    #: Log suffixes probed per requested trace format, in priority order.
    _FORMAT_SUFFIXES = {
        "auto": (".csv", ".csv.gz", ".bin"),
        "csv": (".csv", ".csv.gz"),
        "bin": (".bin",),
    }

    @staticmethod
    def _log_path(base: Path, stem: str, format: str = "auto") -> Path:
        """The existing on-disk variant of a log for a trace format.

        ``auto`` accepts plain CSV, gzip-compressed CSV, or the binary
        columnar format (:mod:`repro.logs.binfmt`), whichever exists;
        ``csv``/``bin`` restrict the probe when the caller wants to pin
        the wire format.
        """
        suffixes = StudyDataset._FORMAT_SUFFIXES.get(format)
        if suffixes is None:
            raise ValueError(
                f"unknown trace format {format!r} (expected auto/csv/bin)"
            )
        candidates = [base / f"{stem}{suffix}" for suffix in suffixes]
        for candidate in candidates:
            if candidate.exists():
                return candidate
        raise FileNotFoundError(
            "none of " + ", ".join(str(c) for c in candidates) + " exists"
        )

    @classmethod
    def load(
        cls,
        directory: str | Path,
        *,
        lenient: bool = False,
        shard: int | None = None,
        shards: int = 1,
        format: str = "auto",
    ) -> "StudyDataset":
        """Load a trace directory written by ``SimulationOutput.write``.

        Plain CSV, gzip-compressed CSV (``.csv.gz``) and binary columnar
        (``.bin``, :mod:`repro.logs.binfmt`) proxy/MME logs are accepted;
        ``format`` pins the wire format (``csv``/``bin``) or probes for
        whichever exists (``auto``, the default).

        Strict mode (the default) raises on the first defect — a missing
        log, a truncated gzip member, an unparseable row.  With
        ``lenient=True`` ingestion *survives* a corrupted trace: bad rows
        are quarantined (dropped and accounted for), truncated streams
        keep their readable prefix, missing logs load as empty, and the
        :class:`Scrubber` removes rows with malformed IMEIs or unknown
        sectors, deduplicates exact duplicates and re-sorts out-of-order
        logs.  The full accounting lands in :attr:`quarantine` (a
        :class:`~repro.logs.quarantine.QuarantineReport`).

        With ``shard``/``shards`` the dataset holds only one account
        shard's records (the engine's ``crc32(account_id) % shards``
        partition, resolved through the billing directory): every row is
        still read — and, in lenient mode, scrubbed, since duplicate and
        order defects are stream-global — and the rows of other shards
        are dropped as they stream past, so peak memory is O(largest
        shard) and the quarantine report is identical for every shard
        (and to an unsharded lenient load).  Side artefacts stay whole.

        The side artefacts (:func:`load_artifacts`) are structural: they
        stay strict in both modes, since no analysis is meaningful
        without them.
        """
        base = Path(directory)
        artifacts = load_artifacts(base)
        keep = None
        if shard is not None:
            keep = shard_keep_predicate(
                shard, shards, artifacts.account_directory
            )
        collector = QuarantineCollector() if lenient else None
        proxy_records = cls._load_log(base, ProxyRecord, format, collector, keep)
        mme_records = cls._load_log(
            base, MmeRecord, format, collector, keep, artifacts.sector_map
        )
        return artifacts.dataset(
            proxy_records,
            mme_records,
            collector.report() if collector is not None else None,
        )

    @classmethod
    def _load_log(
        cls,
        base: Path,
        record_type: type,
        format: str,
        collector: QuarantineCollector | None,
        keep: Callable | None = None,
        sector_map: SectorMap | None = None,
    ) -> list:
        """One log's records, kept by ``keep`` when given.

        With a ``collector`` the log is read leniently and scrubbed, and
        the kept rows are re-sorted into canonical order when the
        scrubber saw disorder (sorting the kept rows equals keeping rows
        of the sorted log, so shard loads stay canonical too).
        """
        stem = log_kind(record_type)
        scrubber = None
        if collector is None:
            records = read_records(cls._log_path(base, stem, format), record_type)
        else:
            scrubber = Scrubber(record_type, collector, sector_map)
            records = scrubber.scrub(
                cls._lenient_log(base, stem, record_type, collector, format)
            )
        if keep is not None:
            records = filter(keep, records)
        kept = list(records)
        if scrubber is not None and scrubber.disorder:
            kept.sort(key=record_sort_key)
        return kept

    @staticmethod
    def _lenient_log(
        base: Path,
        stem: str,
        record_type: type,
        collector: QuarantineCollector,
        format: str = "auto",
    ) -> Iterator:
        """Lenient record stream for one log; empty when the file is gone."""
        try:
            path = StudyDataset._log_path(base, stem, format)
        except FileNotFoundError:
            collector.note(
                f"{stem}-missing",
                "log file missing from the trace directory",
                f"{stem}.csv[.gz|.bin]",
            )
            return iter(())
        return read_records(path, record_type, collector)

    # ------------------------------------------------------------ partitions
    @cached_property
    def wearable_tacs(self) -> frozenset[str]:
        """TACs of SIM-enabled wearables per the device database (§3.2)."""
        return self.device_db.wearable_tacs()

    def is_wearable_imei(self, imei: str) -> bool:
        return imei[:8] in self.wearable_tacs

    @cached_property
    def wearable_proxy(self) -> list[ProxyRecord]:
        """Proxy transactions originating from wearable devices."""
        tacs = self.wearable_tacs
        return [r for r in self.proxy_records if r.tac in tacs]

    @cached_property
    def phone_proxy(self) -> list[ProxyRecord]:
        """Proxy transactions from non-wearable devices."""
        tacs = self.wearable_tacs
        return [r for r in self.proxy_records if r.tac not in tacs]

    @cached_property
    def wearable_mme(self) -> list[MmeRecord]:
        """MME events of wearable SIMs."""
        tacs = self.wearable_tacs
        return [r for r in self.mme_records if r.tac in tacs]

    @cached_property
    def phone_mme(self) -> list[MmeRecord]:
        """MME events of non-wearable SIMs."""
        tacs = self.wearable_tacs
        return [r for r in self.mme_records if r.tac not in tacs]

    @cached_property
    def wearable_proxy_detailed(self) -> list[ProxyRecord]:
        """Wearable transactions inside the detailed seven-week window."""
        window = self.window
        return [r for r in self.wearable_proxy if window.in_detailed(r.timestamp)]

    @cached_property
    def wearable_subscribers(self) -> frozenset[str]:
        """Every subscriber id seen on a wearable SIM (via MME or proxy)."""
        ids = {r.subscriber_id for r in self.wearable_mme}
        ids.update(r.subscriber_id for r in self.wearable_proxy)
        return frozenset(ids)

    @cached_property
    def wearable_accounts(self) -> frozenset[str]:
        """Accounts owning at least one wearable SIM (billing join)."""
        directory = self.account_directory
        return frozenset(
            directory[subscriber]
            for subscriber in self.wearable_subscribers
            if subscriber in directory
        )

    def account_of(self, subscriber_id: str) -> str | None:
        """Billing account of a subscriber, when known."""
        return self.account_directory.get(subscriber_id)


class Scrubber:
    """The lenient semantic row filter, with a checkpointable carry.

    The I/O layer already dropped rows that failed to *parse*; this pass
    drops rows that parsed but cannot be analysed — malformed IMEIs
    (``<kind>-imei``), sectors absent from the cell plan
    (``mme-sector``, when a ``sector_map`` is given) — removes exact
    duplicates of the immediately preceding row (``<kind>-duplicate``),
    and notes out-of-order timestamps (``<kind>-order``), counting them
    in :attr:`disorder`.

    The carry — global row index, last record, previous timestamp,
    disorder count — persists across :meth:`scrub` calls and through
    :meth:`to_state`, so scrubbing a stream in chunks keeps the same
    rows and records the same quarantine accounting as one pass over
    the whole stream.  Re-sorting is left to the caller: a lenient load
    sorts the kept log when :attr:`disorder` is non-zero, the service
    sorts its replay buffers.
    """

    STATE_VERSION = 1

    def __init__(
        self,
        record_type: type,
        collector: QuarantineCollector,
        sector_map: SectorMap | None = None,
    ) -> None:
        self.record_type = record_type
        self.kind = log_kind(record_type)
        self.collector = collector
        self.sector_map = sector_map
        self._index = 0
        self._last_seen = None
        self._previous_ts = float("-inf")
        self.disorder = 0

    def scrub(self, records: Iterable) -> Iterator:
        """Yield the analysable records, quarantining the rest.

        Lazy: each record is scrubbed as it is pulled, so when the input
        is a lenient reader, read- and scrub-layer quarantine events land
        in the collector in row order.  The carry is stored back when the
        generator finishes.
        """
        kind = self.kind
        collector = self.collector
        sector_map = self.sector_map
        last_seen = self._last_seen
        previous_ts = self._previous_ts
        index = self._index - 1
        try:
            for index, record in enumerate(records, self._index):
                if record == last_seen:
                    collector.quarantine_row(
                        kind,
                        f"{kind}-duplicate",
                        "exact duplicate of the previous row",
                        f"{kind}[{index}]",
                    )
                    continue
                last_seen = record
                imei = record.imei
                if len(imei) != IMEI_LENGTH or not imei.isdigit():
                    collector.quarantine_row(
                        kind,
                        f"{kind}-imei",
                        "malformed IMEI",
                        f"{kind}[{index}] {imei!r}",
                    )
                    continue
                if sector_map is not None and record.sector_id not in sector_map:
                    collector.quarantine_row(
                        kind,
                        f"{kind}-sector",
                        "sector missing from the cell plan",
                        f"{kind}[{index}] {record.sector_id}",
                    )
                    continue
                timestamp = record.timestamp
                if timestamp < previous_ts:
                    self.disorder += 1
                    collector.note(
                        f"{kind}-order",
                        "records out of time order (kept; log re-sorted)",
                        f"{kind}[{index}]",
                    )
                previous_ts = timestamp
                yield record
        finally:
            self._index = index + 1
            self._last_seen = last_seen
            self._previous_ts = previous_ts

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
