"""Typed records for the three measurement vantage points.

The fields mirror what the paper's infrastructure retains per event:

* the transparent proxy logs one row per HTTP/HTTPS transaction with the
  subscriber identity, the device identity (IMEI), the server name (SNI for
  HTTPS, URL host + path for plain HTTP) and the byte counts;
* the MME logs one row per mobility-management event with the sector
  (antenna) the subscriber is attached to.

Both record types are immutable so they can be shared freely between
analyses, hashed into sets, and used as dictionary keys.
"""

from __future__ import annotations

from dataclasses import dataclass

PROTOCOL_HTTP = "http"
PROTOCOL_HTTPS = "https"

EVENT_ATTACH = "attach"
EVENT_DETACH = "detach"
EVENT_HANDOVER = "handover"
EVENT_TAU = "tracking_area_update"

_VALID_PROTOCOLS = frozenset({PROTOCOL_HTTP, PROTOCOL_HTTPS})
_VALID_EVENTS = frozenset({EVENT_ATTACH, EVENT_DETACH, EVENT_HANDOVER, EVENT_TAU})


@dataclass(frozen=True, slots=True)
class ProxyRecord:
    """One HTTP/HTTPS transaction observed at the transparent web proxy.

    Attributes:
        timestamp: transaction start time, seconds since the Unix epoch (UTC).
        subscriber_id: stable pseudonymous subscriber identifier (IMSI hash).
        imei: 15-digit device identifier; the first 8 digits are the TAC
            used to look the device model up in the device database.
        host: server name — the TLS SNI for HTTPS, the URL host for HTTP.
        path: URL path; empty for HTTPS where only the SNI is visible.
        protocol: ``"http"`` or ``"https"``.
        bytes_up: payload bytes sent by the device.
        bytes_down: payload bytes received by the device.
    """

    timestamp: float
    subscriber_id: str
    imei: str
    host: str
    path: str = ""
    protocol: str = PROTOCOL_HTTPS
    bytes_up: int = 0
    bytes_down: int = 0

    def __post_init__(self) -> None:
        if self.protocol not in _VALID_PROTOCOLS:
            raise ValueError(f"unknown protocol {self.protocol!r}")
        if self.bytes_up < 0 or self.bytes_down < 0:
            raise ValueError("byte counts must be non-negative")
        if not self.subscriber_id:
            raise ValueError("subscriber_id must be non-empty")
        if not self.host:
            raise ValueError("host must be non-empty")

    @property
    def total_bytes(self) -> int:
        """Total payload bytes in both directions."""
        return self.bytes_up + self.bytes_down

    @property
    def tac(self) -> str:
        """Type Allocation Code: the first 8 digits of the IMEI."""
        return self.imei[:8]

    def sort_key(self) -> tuple:
        """Canonical total-order key: timestamp first, then every field.

        Sorting by the *full* field tuple (not just the timestamp) gives a
        partition-independent global order: however a trace is sharded, the
        k-way merge of per-shard sorted chunks reproduces byte-identical
        output.  Records that compare equal are identical rows, so their
        relative order is immaterial.
        """
        return (
            self.timestamp,
            self.subscriber_id,
            self.imei,
            self.host,
            self.path,
            self.protocol,
            self.bytes_up,
            self.bytes_down,
        )


@dataclass(frozen=True, slots=True)
class MmeRecord:
    """One mobility-management event observed at the MME.

    Attributes:
        timestamp: event time, seconds since the Unix epoch (UTC).
        subscriber_id: stable pseudonymous subscriber identifier.
        imei: device identifier, as reported at attach time.
        sector_id: identifier of the radio sector (antenna) serving the
            subscriber after this event.
        event: one of ``attach``, ``detach``, ``handover``,
            ``tracking_area_update``.
    """

    timestamp: float
    subscriber_id: str
    imei: str
    sector_id: str
    event: str = EVENT_ATTACH

    def __post_init__(self) -> None:
        if self.event not in _VALID_EVENTS:
            raise ValueError(f"unknown MME event {self.event!r}")
        if not self.subscriber_id:
            raise ValueError("subscriber_id must be non-empty")
        if not self.sector_id:
            raise ValueError("sector_id must be non-empty")

    @property
    def tac(self) -> str:
        """Type Allocation Code: the first 8 digits of the IMEI."""
        return self.imei[:8]

    def sort_key(self) -> tuple:
        """Canonical total-order key; see :meth:`ProxyRecord.sort_key`."""
        return (
            self.timestamp,
            self.subscriber_id,
            self.imei,
            self.sector_id,
            self.event,
        )


#: Key function usable with ``sorted``/``heapq.merge`` for either record type.
def record_sort_key(record) -> tuple:
    """Module-level alias so merge helpers can take a plain callable."""
    return record.sort_key()


# Column orders used by the CSV serialisation in :mod:`repro.logs.io`.
PROXY_FIELDS = (
    "timestamp",
    "subscriber_id",
    "imei",
    "host",
    "path",
    "protocol",
    "bytes_up",
    "bytes_down",
)
MME_FIELDS = ("timestamp", "subscriber_id", "imei", "sector_id", "event")


def fields_for(record_type: type) -> tuple[str, ...]:
    """The CSV column order for a record type."""
    if record_type is ProxyRecord:
        return PROXY_FIELDS
    if record_type is MmeRecord:
        return MME_FIELDS
    raise TypeError(f"unknown record type: {record_type!r}")


def record_to_row(record) -> tuple:
    """A record's values in canonical column order (JSON-safe)."""
    return tuple(getattr(record, name) for name in fields_for(type(record)))


def row_to_record(record_type: type, row) -> object:
    """Invert :func:`record_to_row`."""
    return record_type(*row)
