"""Hand-crafted dataset builder for exact-value analysis tests.

The analyses fold columns; the tests state their cases as rows.  The row
forms of §3.3 attribution and §5.1 sessions live here
(:class:`AttributedRecord`, :class:`UsageSession`), with the converters
between them and the columns the panels fold: :func:`attribution_of`,
:func:`attributed_rows`, :func:`session_table` and :func:`session_rows`,
and over a row list :func:`attribute_rows` and :func:`sessionize`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.app_mapping import (
    DEFAULT_ATTRIBUTION_WINDOW_S,
    Attribution,
    SignatureCatalog,
    attribute_table,
)
from repro.core.dataset import StudyDataset, StudyWindow
from repro.core.parallel import PANELS, PanelInputs
from repro.core.pipeline import WearableStudy
from repro.core.sessions import (
    DEFAULT_SESSION_GAP_S,
    INTERACTIVE_TX,
    SessionTable,
    session_table as session_kernel,
)
from repro.devicedb.database import DeviceDatabase, DeviceModel
from repro.devicedb.tac import (
    DEVICE_TYPE_SMARTPHONE,
    DEVICE_TYPE_WEARABLE,
    make_imei,
)
from repro.logs.columns import ColumnTable, encode_strings, object_array
from repro.logs.io import shard_keep_predicate
from repro.logs.records import MmeRecord, ProxyRecord
from repro.logs.timeutil import SECONDS_PER_DAY
from repro.simnet.topology import Sector, SectorMap
from repro.stats.geo import GeoPoint

WATCH_TAC = "35884708"
LG_WATCH_TAC = "35291808"
PHONE_TAC = "35332812"

WATCH_IMEI = make_imei(WATCH_TAC, 1)
WATCH_IMEI_2 = make_imei(WATCH_TAC, 2)
PHONE_IMEI = make_imei(PHONE_TAC, 1)
PHONE_IMEI_2 = make_imei(PHONE_TAC, 2)

#: Three sectors on a north-south line, ~111 km apart each.
SECTORS = SectorMap(
    [
        Sector("HOME", GeoPoint(40.0, -3.0)),
        Sector("WORK", GeoPoint(41.0, -3.0)),
        Sector("FAR", GeoPoint(42.0, -3.0)),
    ]
)

DEVICE_DB = DeviceDatabase(
    [
        DeviceModel(
            WATCH_TAC, "Gear S3", "Samsung", "Tizen", DEVICE_TYPE_WEARABLE,
            release_year=2016,
        ),
        DeviceModel(
            LG_WATCH_TAC, "Watch Urbane LTE", "LG", "Android Wear",
            DEVICE_TYPE_WEARABLE, release_year=2016,
        ),
        DeviceModel(
            PHONE_TAC, "iPhone 7", "Apple", "iOS", DEVICE_TYPE_SMARTPHONE,
            release_year=2016,
        ),
    ]
)


def make_window(total_days: int = 28, detailed_days: int = 14) -> StudyWindow:
    return StudyWindow(
        study_start=0.0, total_days=total_days, detailed_days=detailed_days
    )


def day_ts(day: int, seconds: float = 0.0) -> float:
    """Timestamp ``seconds`` into study day ``day`` (study_start = 0)."""
    return day * SECONDS_PER_DAY + seconds


def proxy(
    ts: float,
    subscriber: str,
    imei: str = WATCH_IMEI,
    host: str = "api.accuweather.com",
    bytes_down: int = 1000,
    bytes_up: int = 0,
) -> ProxyRecord:
    return ProxyRecord(
        timestamp=ts,
        subscriber_id=subscriber,
        imei=imei,
        host=host,
        bytes_up=bytes_up,
        bytes_down=bytes_down,
    )


def mme(
    ts: float,
    subscriber: str,
    imei: str = WATCH_IMEI,
    sector: str = "HOME",
    event: str = "attach",
) -> MmeRecord:
    return MmeRecord(
        timestamp=ts,
        subscriber_id=subscriber,
        imei=imei,
        sector_id=sector,
        event=event,
    )


def make_dataset(
    proxy_records: list[ProxyRecord],
    mme_records: list[MmeRecord],
    account_directory: dict[str, str] | None = None,
    window: StudyWindow | None = None,
    *,
    sort: bool = True,
) -> StudyDataset:
    """A dataset of the given rows, each log sorted by timestamp unless
    ``sort`` is false."""
    if account_directory is None:
        subscribers = {r.subscriber_id for r in proxy_records}
        subscribers.update(r.subscriber_id for r in mme_records)
        account_directory = {s: f"acct-{s}" for s in subscribers}
    if sort:
        proxy_records = sorted(proxy_records, key=lambda r: r.timestamp)
        mme_records = sorted(mme_records, key=lambda r: r.timestamp)
    return StudyDataset(
        proxy_records=proxy_records,
        mme_records=mme_records,
        device_db=DEVICE_DB,
        sector_map=SECTORS,
        account_directory=account_directory,
        window=window or make_window(),
    )


def wearable_rows(dataset: StudyDataset, rows) -> list:
    """The rows of wearable IMEIs (the dataset's TAC rule, §3.2)."""
    return [r for r in rows if dataset.is_wearable_imei(r.imei)]


def phone_rows(dataset: StudyDataset, rows) -> list:
    """The rows of every other IMEI."""
    return [r for r in rows if not dataset.is_wearable_imei(r.imei)]


@dataclass(frozen=True, slots=True)
class AttributedRecord:
    """A proxy record with its resolved app and domain category."""

    record: ProxyRecord
    app: str | None
    domain_category: str


@dataclass(frozen=True, slots=True)
class UsageSession:
    """One usage of one app by one subscriber."""

    subscriber_id: str
    app: str
    start: float
    end: float
    tx_count: int
    bytes_total: int

    @property
    def is_interactive(self) -> bool:
        return self.tx_count >= INTERACTIVE_TX


def attribution_of(items: list[AttributedRecord]) -> Attribution:
    """Hand-built attributed rows as the columns the panels fold."""
    codes: dict[str, int] = {}
    app = np.fromiter(
        (
            -1 if item.app is None else codes.setdefault(item.app, len(codes))
            for item in items
        ),
        dtype=np.int32,
        count=len(items),
    )
    return Attribution(
        ColumnTable.from_records(ProxyRecord, [item.record for item in items]),
        app,
        object_array(list(codes)),
        encode_strings([item.domain_category for item in items]),
    )


def attributed_rows(attribution: Attribution) -> list[AttributedRecord]:
    """An attribution's rows as :class:`AttributedRecord` objects."""
    apps = [*attribution.apps.tolist(), None]
    categories = attribution.category.values.tolist()
    return [
        AttributedRecord(record, apps[app], categories[category])
        for record, app, category in zip(
            attribution.table.records,
            attribution.app.tolist(),
            attribution.category.codes.tolist(),
        )
    ]


def attribute_rows(
    records: list[ProxyRecord],
    signatures: SignatureCatalog,
    window_seconds: float = DEFAULT_ATTRIBUTION_WINDOW_S,
) -> list[AttributedRecord]:
    """:func:`~repro.core.app_mapping.attribute_table` over a row list."""
    table = ColumnTable.from_records(ProxyRecord, list(records))
    return attributed_rows(attribute_table(table, signatures, window_seconds))


def session_rows(sessions: SessionTable) -> list[UsageSession]:
    """A session table's rows as :class:`UsageSession` objects."""
    return [
        UsageSession(*row)
        for row in zip(
            sessions.subscriber.values[sessions.subscriber.codes].tolist(),
            sessions.app.values[sessions.app.codes].tolist(),
            sessions.start.tolist(),
            sessions.end.tolist(),
            sessions.tx_count.tolist(),
            sessions.bytes_total.tolist(),
        )
    ]


def sessionize(
    attributed: list[AttributedRecord], gap_seconds: float = DEFAULT_SESSION_GAP_S
) -> list[UsageSession]:
    """:func:`~repro.core.sessions.session_table` over attributed rows."""
    return session_rows(session_kernel(attribution_of(attributed), gap_seconds))


def session_table(sessions: list[UsageSession]) -> SessionTable:
    """Hand-built sessions as the columns the panels fold, in order."""

    def column(name: str, dtype) -> np.ndarray:
        return np.array([getattr(s, name) for s in sessions], dtype=dtype)

    return SessionTable(
        encode_strings([s.subscriber_id for s in sessions]),
        encode_strings([s.app for s in sessions]),
        column("start", np.float64),
        column("end", np.float64),
        column("tx_count", np.int64),
        column("bytes_total", np.int64),
    )


def panel(name: str, dataset: StudyDataset, **inputs):
    """Report field ``name`` exactly as :class:`WearableStudy` computes it.

    ``inputs`` replaces the shared intermediates (``attributed``,
    ``sessions``, ``app_categories``) with hand-built ones; hand-built
    rows replace the columns the panels fold (``attribution``, ``usage``).
    """
    study = WearableStudy(dataset)
    if "attributed" in inputs:
        inputs["attribution"] = attribution_of(inputs.pop("attributed"))
    if "sessions" in inputs:
        inputs["usage"] = session_table(inputs.pop("sessions"))
    study.__dict__.update(inputs)
    return getattr(study, name)


def _part(dataset: StudyDataset, proxy_records, mme_records) -> StudyDataset:
    return StudyDataset(
        proxy_records=list(proxy_records),
        mme_records=list(mme_records),
        device_db=dataset.device_db,
        sector_map=dataset.sector_map,
        account_directory=dataset.account_directory,
        window=dataset.window,
    )


def split_by_time(dataset: StudyDataset, parts: int = 3) -> list[StudyDataset]:
    """Contiguous time-ordered deltas of both logs, as a growing trace
    arrives at the service."""

    def chunk(records, index):
        size = -(-len(records) // parts)
        return records[index * size : (index + 1) * size]

    return [
        _part(dataset, chunk(dataset.proxy_records, i), chunk(dataset.mme_records, i))
        for i in range(parts)
    ]


def split_by_account(dataset: StudyDataset, shards: int = 3) -> list[StudyDataset]:
    """The account shards ``analyze_parallel`` partitions the trace into."""
    parts = []
    for shard in range(shards):
        keep = shard_keep_predicate(shard, shards, dataset.account_directory)
        parts.append(
            _part(
                dataset,
                filter(keep, dataset.proxy_records),
                filter(keep, dataset.mme_records),
            )
        )
    return parts


def fold(name: str, datasets: list[StudyDataset]):
    """Panel ``name``'s partial built over each dataset, merged in order
    and finalized."""
    inputs = [PanelInputs(dataset) for dataset in datasets]
    merged = inputs[0].partial(name)
    for other in inputs[1:]:
        merged.merge(other.partial(name))
    first = datasets[0]
    return PANELS[name].finalize(
        merged, first.window, first.device_db, inputs[0].app_categories
    )
