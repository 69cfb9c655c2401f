"""The study dataset: the raw artefacts every analysis consumes.

A :class:`StudyDataset` bundles the transparent-proxy log, the MME log, the
device database, the cell plan, the billing directory and the window
metadata — nothing else.  It can be built directly from a
:class:`~repro.simnet.simulator.SimulationOutput` (in-memory) or loaded
from a trace directory written by :meth:`SimulationOutput.write`, so the
analyses run identically on live objects and on exported CSVs (or, with
the same schemas, on a real operator export).

Each log is held as a :class:`~repro.logs.columns.ColumnTable` (the data
plane): float64 timestamps, int64 byte counts, and int32 dictionary codes
plus an array of distinct values per string field.  A strict ``.bin``
load decodes every block straight into the table
(:func:`~repro.logs.binfmt.read_bin_table`), and a strict CSV load
assembles it from the rows a chunk at a time
(:func:`~repro.logs.columns.assemble_records`).  A lenient load of any
format feeds the column :class:`Scrubber`: a ``.bin`` log's decoded
blocks, or a CSV log's records a chunk at a time; it keeps only the
rows that pass, builds a record only for a row that fails a ``.bin``
block's checks, and re-sorts the table as columns when it saw disorder
(:meth:`~repro.logs.columns.ColumnTable.sort`).  No load keeps its
whole row list.
:meth:`StudyDataset.from_simulation` and datasets built from row lists
fill the table from the rows, one column at a time, when a consumer
first reads that column.  Every analysis panel, trace validation and
the cohort and full through-device extensions fold the columns; rows
(:attr:`~StudyDataset.proxy_records`, :attr:`~StudyDataset.mme_records`)
are built from the table only for the benchmark and tests.  A decoded
table holds 44 bytes per proxy row and 24 per MME row, plus its
dictionaries.

This module is the one home of the trace-directory contract; batch,
sharded and served analysis all go through it:

* :func:`load_artifacts` is the only parser of the side files
  (``metadata.json``, ``accounts.csv``, ``devices.csv``, ``sectors.csv``);
* :meth:`StudyDataset._log_path` is the only log-suffix probe;
* :class:`Scrubber` is the one lenient row filter, masks over column
  batches with a checkpointable carry, so the service runs it over a
  growing stream;
* account-shard selection is one method, :meth:`StudyDataset.shard`: a
  mask over each log's subscriber dictionary, one ``crc32`` per distinct
  subscriber however many shards are cut.  ``load(shard=)`` loads the
  whole trace and then shards it.

The class also owns the shared partitions as boolean row masks computed
once — wearable rows (the TAC of each IMEI dictionary entry) and the
detailed window — and the time buckets the column folds share.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

from itertools import islice
from typing import Iterable, NamedTuple

import numpy as np

from repro.devicedb.database import DeviceDatabase
from repro.devicedb.tac import IMEI_LENGTH
from repro.logs.binfmt import _decoded_blocks, read_bin_table
from repro.logs.columns import (
    ROW_CHUNK,
    ColumnTable,
    TableAssembler,
    assemble_records,
    record_columns,
)
from repro.logs.io import (
    check_shard,
    log_kind,
    read_csv_records,
    read_records,
    subscriber_shard,
    trace_format,
)
from repro.logs.quarantine import (
    MAX_EXAMPLES,
    PendingIssues,
    QuarantineCollector,
    QuarantineReport,
)
from repro.logs.records import MmeRecord, ProxyRecord
from repro.logs.timeutil import SECONDS_PER_DAY, day_indices, hours_and_weekdays
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
        proxy_records: list[ProxyRecord] | ColumnTable,
        mme_records: list[MmeRecord] | ColumnTable,
        quarantine: QuarantineReport | None = None,
        owner_accounts: Iterable[str] | None = None,
    ) -> "StudyDataset":
        """A dataset of these logs over these artefacts.

        ``owner_accounts`` replaces the wearable-owner accounts the
        dataset would derive from its own rows (the service gathers them
        over every delta of a shard).
        """
        return StudyDataset(
            proxy_records=proxy_records,
            mme_records=mme_records,
            device_db=self.device_db,
            sector_map=self.sector_map,
            account_directory=self.account_directory,
            window=self.window,
            quarantine=quarantine,
            owner_accounts=owner_accounts,
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


class TimeBuckets(NamedTuple):
    """Time buckets of some rows of one log, equal to the scalar helpers."""

    #: :meth:`StudyWindow.day_of` of each row.
    day: np.ndarray
    #: :func:`~repro.logs.timeutil.hour_of_day` of each row.
    hour: np.ndarray
    #: :func:`~repro.logs.timeutil.weekday` of each row (Monday = 0).
    weekday: np.ndarray


class StudyDataset:
    """Raw measurement artefacts plus cached shared partitions."""

    def __init__(
        self,
        proxy_records: list[ProxyRecord] | ColumnTable,
        mme_records: list[MmeRecord] | ColumnTable,
        device_db: DeviceDatabase,
        sector_map: SectorMap,
        account_directory: dict[str, str],
        window: StudyWindow,
        quarantine: QuarantineReport | None = None,
        owner_accounts: Iterable[str] | None = None,
    ) -> None:
        """Each log is a row list or a :class:`ColumnTable`.

        ``owner_accounts``, when given, is the wearable-owner account
        set (:attr:`wearable_accounts`) instead of the one derived from
        this dataset's rows.
        """
        self.proxy = _as_table(ProxyRecord, proxy_records)
        self.mme = _as_table(MmeRecord, mme_records)
        self._owner_accounts = owner_accounts
        #: :meth:`shard`'s account shard of each subscriber, per shard count.
        self._subscriber_shards: dict[int, dict[str, int]] = {}
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
        logs, as masks over column batches.  The full accounting lands
        in :attr:`quarantine` (a
        :class:`~repro.logs.quarantine.QuarantineReport`), its issues in
        the order a row-by-row pass first meets them.

        With ``shard``/``shards`` the dataset is :meth:`shard` of the
        whole load: every row is still read and, in lenient mode,
        scrubbed (duplicate and order defects are stream-global), so the
        quarantine report is identical for every shard and to an
        unsharded lenient load.  Side artefacts stay whole.

        The side artefacts (:func:`load_artifacts`) are structural: they
        stay strict in both modes, since no analysis is meaningful
        without them.
        """
        if shard is not None:
            check_shard(shard, shards)
        base = Path(directory)
        artifacts = load_artifacts(base)
        collector = QuarantineCollector() if lenient else None
        proxy = cls._load_log(base, ProxyRecord, format, collector)
        mme = cls._load_log(
            base, MmeRecord, format, collector, artifacts.sector_map
        )
        dataset = artifacts.dataset(
            proxy, mme, collector.report() if collector is not None else None
        )
        return dataset if shard is None else dataset.shard(shard, shards)

    @classmethod
    def _load_log(
        cls,
        base: Path,
        record_type: type,
        format: str,
        collector: QuarantineCollector | None,
        sector_map: SectorMap | None = None,
    ) -> ColumnTable:
        """One log as a decoded table.

        A strict ``.bin`` log is decoded straight into columns, a strict
        CSV log assembled from its rows a chunk at a time.  With a
        ``collector`` the log is read leniently as column parts
        (:meth:`_lenient_parts`) into :meth:`Scrubber.table`, which
        re-sorts the kept table into canonical order when it saw
        disorder.
        """
        stem = log_kind(record_type)
        if collector is None:
            path = cls._log_path(base, stem, format)
            if trace_format(path) == "bin":
                return read_bin_table(path, record_type)
            return assemble_records(
                record_type, read_records(path, record_type)
            )
        scrubber = Scrubber(record_type, collector, sector_map)
        return scrubber.table(
            cls._lenient_parts(base, stem, record_type, scrubber.pending, format)
        )

    def shard(self, shard: int, shards: int) -> "StudyDataset":
        """This dataset restricted to one account shard.

        The engine's ``crc32(account_id) % shards`` partition, resolved
        through the billing directory
        (:func:`~repro.logs.io.subscriber_shard`) once per distinct
        subscriber of the two logs' dictionaries, however many shards
        are cut from this dataset; each shard is then one row mask per
        log.  The rows keep their order, and the side artefacts and
        quarantine report stay whole.
        """
        check_shard(shard, shards)
        directory = self.account_directory
        owners = self._subscriber_shards.setdefault(shards, {})

        def owned(subscriber: str) -> bool:
            owner = owners.get(subscriber)
            if owner is None:
                owner = owners[subscriber] = subscriber_shard(
                    subscriber, shards, directory
                )
            return owner == shard

        return StudyDataset(
            proxy_records=self.proxy.take(
                self.proxy.entry_mask("subscriber_id", owned)
            ),
            mme_records=self.mme.take(
                self.mme.entry_mask("subscriber_id", owned)
            ),
            device_db=self.device_db,
            sector_map=self.sector_map,
            account_directory=directory,
            window=self.window,
            quarantine=self.quarantine,
        )

    @staticmethod
    def _lenient_parts(
        base: Path,
        stem: str,
        record_type: type,
        quarantine: PendingIssues,
        format: str = "auto",
    ) -> Iterable[tuple[list, np.ndarray | None]]:
        """One log read leniently as column parts (:meth:`Scrubber.scrub`'s
        input): a ``.bin`` log's decoded blocks, a CSV log's records a
        chunk at a time; none when the file is gone."""
        try:
            path = StudyDataset._log_path(base, stem, format)
        except FileNotFoundError:
            quarantine.note(
                f"{stem}-missing",
                "log file missing from the trace directory",
                f"{stem}.csv[.gz|.bin]",
            )
            return ()
        if trace_format(path) == "bin":
            return _decoded_blocks(path, record_type, quarantine, category="log")
        records = read_csv_records(path, record_type, quarantine)
        return ((columns, None) for columns in record_columns(record_type, records))

    # ------------------------------------------------------------ rows
    @property
    def proxy_records(self) -> list[ProxyRecord]:
        """Every proxy row, built from the table on first use."""
        return self.proxy.records

    @property
    def mme_records(self) -> list[MmeRecord]:
        """Every MME row, built from the table on first use."""
        return self.mme.records

    # ------------------------------------------------------------ masks
    @cached_property
    def wearable_tacs(self) -> frozenset[str]:
        """TACs of SIM-enabled wearables per the device database (§3.2)."""
        return self.device_db.wearable_tacs()

    def is_wearable_imei(self, imei: str) -> bool:
        return imei[:8] in self.wearable_tacs

    @cached_property
    def wearable_proxy_mask(self) -> np.ndarray:
        """Proxy rows from wearable devices (TAC of each IMEI entry)."""
        return self.proxy.entry_mask("imei", self.is_wearable_imei)

    @cached_property
    def wearable_mme_mask(self) -> np.ndarray:
        """MME rows of wearable SIMs."""
        return self.mme.entry_mask("imei", self.is_wearable_imei)

    @cached_property
    def detailed_proxy_mask(self) -> np.ndarray:
        """Proxy rows inside the detailed window (:meth:`StudyWindow.in_detailed`)."""
        return self._detailed(self.proxy)

    @cached_property
    def detailed_mme_mask(self) -> np.ndarray:
        """MME rows inside the detailed window."""
        return self._detailed(self.mme)

    def _detailed(self, table: ColumnTable) -> np.ndarray:
        timestamps = table.column("timestamp")
        window = self.window
        return (timestamps >= window.detailed_start) & (
            timestamps < window.study_end
        )

    @cached_property
    def detailed_proxy_time(self) -> TimeBuckets:
        """Study day, hour of day and weekday of the detailed-window proxy
        rows (the rows the activity and weekly folds read), in row order.

        Detailed days are study days, so they fit int32."""
        timestamps = self.proxy.column("timestamp")[self.detailed_proxy_mask]
        hours, weekdays = hours_and_weekdays(timestamps)
        return TimeBuckets(
            day=day_indices(timestamps, self.window.study_start).astype(np.int32),
            hour=hours.astype(np.int8),
            weekday=weekdays.astype(np.int8),
        )

    @cached_property
    def mme_days(self) -> np.ndarray:
        """Study day (:meth:`StudyWindow.day_of`) of every MME row."""
        return day_indices(self.mme.column("timestamp"), self.window.study_start)

    # ------------------------------------------------------------ accounts
    @cached_property
    def wearable_subscribers(self) -> frozenset[str]:
        """Every subscriber id seen on a wearable SIM (via MME or proxy)."""
        ids = set(self.mme.distinct("subscriber_id", self.wearable_mme_mask))
        ids.update(self.proxy.distinct("subscriber_id", self.wearable_proxy_mask))
        return frozenset(ids)

    @cached_property
    def wearable_accounts(self) -> frozenset[str]:
        """Accounts owning at least one wearable SIM (billing join), or
        the ``owner_accounts`` the dataset was built with."""
        if self._owner_accounts is not None:
            return frozenset(self._owner_accounts)
        directory = self.account_directory
        return frozenset(
            directory[subscriber]
            for subscriber in self.wearable_subscribers
            if subscriber in directory
        )

    def account_of(self, subscriber_id: str) -> str | None:
        """Billing account of a subscriber, when known."""
        return self.account_directory.get(subscriber_id)


def _as_table(record_type: type, log: list | ColumnTable) -> ColumnTable:
    if isinstance(log, ColumnTable):
        return log
    return ColumnTable.from_records(record_type, log)


class Scrubber:
    """The lenient semantic row filter: masks over column batches, with a
    checkpointable carry.

    The reader already dropped rows that failed to *parse*; this pass
    drops rows that parsed but cannot be analysed — malformed IMEIs
    (``<kind>-imei``), sectors absent from the cell plan (``mme-sector``,
    when a ``sector_map`` is given) — removes exact duplicates of the
    previous parsed row, kept or not (``<kind>-duplicate``), and notes a
    timestamp below the previous kept row's (``<kind>-order``), counting
    them in :attr:`disorder`.  The IMEI and sector checks run once per
    dictionary entry.  The reader records its events into
    :attr:`pending`, so read- and scrub-layer events reach the collector
    in row order.

    The carry — global row index, last parsed row, last kept timestamp,
    disorder count — persists across :meth:`scrub` calls and through
    :meth:`to_state`, so scrubbing a stream in pieces keeps the same
    rows and accounting as one pass.  Lenient batch loads of every
    format (:meth:`table`) and the service's lenient polls run it; the
    caller re-sorts on disorder (:meth:`table` sorts the kept table, the
    service its replay buffers).
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
        #: The quarantine the reader feeding :meth:`scrub` records into.
        self.pending = PendingIssues(collector)
        self._index = 0
        self._last_seen: tuple | None = None
        self._previous_ts = float("-inf")
        self.disorder = 0

    def scrub(self, parts: Iterable[tuple[list, np.ndarray | None]]) -> ColumnTable:
        """The analysable rows of parsed column parts, in parsed order.

        ``parts`` are ``(columns, keep)`` pairs in
        :meth:`~repro.logs.columns.TableAssembler.add`'s layout, whose
        reader records into :attr:`pending`.  A batch is scrubbed once
        it holds :data:`~repro.logs.columns.ROW_CHUNK` rows, before the
        next part is read.  The table's dictionaries may list values no
        kept row uses.
        """
        run = _ScrubRun(self)
        batch: list = []
        rows = 0
        for columns, keep in parts:
            batch.append((columns, keep))
            rows += len(columns[0]) if keep is None else len(keep)
            if rows >= ROW_CHUNK:
                self._scrub_batch(run, batch)
                self.pending.flush()
                batch, rows = [], 0
        if batch:
            self._scrub_batch(run, batch)
        self.pending.flush(restart=True)
        return run.assembler.table()

    def table(self, parts: Iterable[tuple[list, np.ndarray | None]]) -> ColumnTable:
        """The analysable rows of a whole stream as one canonical table:
        :meth:`scrub`, then sorted when this scrubber has seen disorder
        (the same table as sorting the kept rows by
        :func:`~repro.logs.records.record_sort_key`), and its
        dictionaries listed in first-row order."""
        table = self.scrub(parts)
        if self.disorder:
            table.sort()
        else:
            table.renumber()
        return table

    #: Per scrub code suffix: its message, whether it drops its rows, and
    #: how an example shows the row's value of the checked field.
    _RULES = {
        "duplicate": ("exact duplicate of the previous row", True, None),
        "imei": ("malformed IMEI", True, "{!r}"),
        "sector": ("sector missing from the cell plan", True, "{}"),
        "order": ("records out of time order (kept; log re-sorted)", False, None),
    }

    def _scrub_batch(self, run: "_ScrubRun", batch: list) -> None:
        columns = run.gather(batch)
        rows = len(columns[0])
        if not rows:
            return
        # A duplicate equals the previous parsed row in every field.
        dropped = np.ones(rows, dtype=bool)
        for column in columns:
            dropped[1:] &= column[1:] == column[:-1]
        dropped[0] = run.row(columns, 0) == self._last_seen
        events = [("duplicate", np.flatnonzero(dropped), None)]
        for field, (rule, _test) in run.checks.items():
            failed = ~dropped & ~run.valid[field][columns[field]]
            dropped |= failed
            events.append((rule, np.flatnonzero(failed), field))
        kept = ~dropped
        timestamps = columns[0][kept]
        late = timestamps < np.concatenate(([self._previous_ts], timestamps[:-1]))
        events.append(("order", np.flatnonzero(kept)[late], None))
        for rule, at, field in events:
            if len(at):
                self._hold(run, columns, rule, at, field)
        run.assembler.add(columns, kept)
        self.disorder += int(np.count_nonzero(late))
        self._index += rows
        self._last_seen = run.row(columns, rows - 1)
        if len(timestamps):
            self._previous_ts = float(timestamps[-1])
        run.fed += rows

    def _hold(
        self,
        run: "_ScrubRun",
        columns: list[np.ndarray],
        rule: str,
        at: np.ndarray,
        field: int | None,
    ) -> None:
        """Hold one rule's events, at rows ``at`` of the batch."""
        message, drops, shown = self._RULES[rule]
        examples = []
        for row in at[:MAX_EXAMPLES].tolist():
            example = f"{self.kind}[{self._index + row}]"
            if shown is not None:
                example += " " + shown.format(run.names[field][columns[field][row]])
            examples.append(example)
        self.pending.hold(
            (run.fed + int(at[0]), 1),
            f"{self.kind}-{rule}",
            message,
            examples,
            len(at),
            kind=self.kind,
            rows=len(at) if drops else 0,
        )

    def to_state(self) -> dict:
        return {
            "v": self.STATE_VERSION,
            "index": self._index,
            "last_seen": (
                list(self._last_seen) if self._last_seen is not None else None
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
        self._last_seen = tuple(last) if last is not None else None
        self._previous_ts = float(state["previous_ts"])
        self.disorder = int(state["disorder"])


def _valid_imei(imei: str) -> bool:
    return len(imei) == IMEI_LENGTH and imei.isdigit()


class _ScrubRun:
    """One :meth:`Scrubber.scrub` call's kept columns and dictionaries:
    every parsed row's strings are recoded (so masks compare codes),
    only kept rows are appended, and a checked field keeps one validity
    flag per dictionary entry."""

    def __init__(self, scrubber: Scrubber) -> None:
        self.assembler = TableAssembler(scrubber.record_type)
        fields = self.assembler.fields
        #: Per checked field, in rule order: the rule and its value test.
        self.checks = {fields.index("imei"): ("imei", _valid_imei)}
        if scrubber.sector_map is not None:
            self.checks[fields.index("sector_id")] = (
                "sector",
                scrubber.sector_map.__contains__,
            )
        self.valid = {field: np.empty(0, dtype=bool) for field in self.checks}
        self.names: list[list | None] = [
            [] if name in self.assembler.entries else None for name in fields
        ]
        #: Rows this run has scrubbed: the position of the next batch.
        self.fed = 0

    def gather(self, batch: list) -> list[np.ndarray]:
        """One array per field over the batch's rows: the values of a
        numeric field, the dictionary codes of a string field.  The
        distinct values of a batch's blocks are gathered and recoded in
        one pass."""
        columns = []
        for field, name in enumerate(self.assembler.fields):
            names = self.names[field]
            if names is None:
                columns.append(
                    np.concatenate(
                        [
                            cols[field] if keep is None else cols[field][keep]
                            for cols, keep in batch
                        ]
                    )
                )
                continue
            values: list = []
            indexes = []
            starts = []
            for cols, keep in batch:
                distinct, index = cols[field]
                starts.append(len(values))
                values.extend(distinct)
                indexes.append(index if keep is None else index[keep])
            index = np.concatenate(indexes)
            if len(indexes) > 1:
                index = index + np.repeat(starts, [len(i) for i in indexes])
            columns.append(self.assembler.recode(name, values, index))
            entries = self.assembler.entries[name]
            if len(entries) > len(names):
                fresh = list(islice(entries, len(names), None))
                names.extend(fresh)
                if field in self.checks:
                    test = self.checks[field][1]
                    flags = np.fromiter(map(test, fresh), dtype=bool, count=len(fresh))
                    self.valid[field] = np.concatenate((self.valid[field], flags))
        return columns

    def row(self, columns: list[np.ndarray], row: int) -> tuple:
        """Row ``row`` of gathered columns as a tuple of values."""
        return tuple(
            names[column[row]] if names is not None else column[row].item()
            for column, names in zip(columns, self.names)
        )
