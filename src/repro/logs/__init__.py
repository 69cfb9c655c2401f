"""Log record schemas and streaming I/O.

This package models the three raw data streams the paper's measurement
infrastructure produces (Section 3.1):

* transparent web-proxy transaction logs (:class:`ProxyRecord`),
* MME attachment/mobility logs (:class:`MmeRecord`),
* the device database export (:class:`DeviceRecord`, owned by
  :mod:`repro.devicedb` but serialised with the same I/O layer).

Records are plain frozen dataclasses; readers and writers stream them to and
from CSV (plain or gzip) or the binary columnar format, so multi-week traces
never need to fit in memory at parse time.
"""

from repro.logs.records import (
    EVENT_ATTACH,
    EVENT_DETACH,
    EVENT_HANDOVER,
    EVENT_TAU,
    PROTOCOL_HTTP,
    PROTOCOL_HTTPS,
    MmeRecord,
    ProxyRecord,
)
from repro.logs.faults import (
    FAULT_CLASSES,
    FAULT_ISSUE_CODES,
    FaultSpec,
    InjectionReport,
    corrupt_trace,
)
from repro.logs.quarantine import (
    MAX_EXAMPLES,
    Issue,
    IssueSet,
    QuarantineCollector,
    QuarantineReport,
)
from repro.logs.io import (
    LogReadError,
    log_kind,
    read_csv_records,
    read_mme_log,
    read_proxy_log,
    write_csv_records,
    write_mme_log,
    write_proxy_log,
)
from repro.logs.timeutil import (
    SECONDS_PER_DAY,
    SECONDS_PER_HOUR,
    SECONDS_PER_WEEK,
    day_index,
    format_timestamp,
    hour_index,
    hour_of_day,
    is_weekend,
    parse_timestamp,
    week_index,
    weekday,
)

__all__ = [
    "EVENT_ATTACH",
    "EVENT_DETACH",
    "EVENT_HANDOVER",
    "EVENT_TAU",
    "FAULT_CLASSES",
    "FAULT_ISSUE_CODES",
    "FaultSpec",
    "InjectionReport",
    "Issue",
    "IssueSet",
    "LogReadError",
    "MAX_EXAMPLES",
    "MmeRecord",
    "PROTOCOL_HTTP",
    "PROTOCOL_HTTPS",
    "ProxyRecord",
    "QuarantineCollector",
    "QuarantineReport",
    "corrupt_trace",
    "log_kind",
    "SECONDS_PER_DAY",
    "SECONDS_PER_HOUR",
    "SECONDS_PER_WEEK",
    "day_index",
    "format_timestamp",
    "hour_index",
    "hour_of_day",
    "is_weekend",
    "parse_timestamp",
    "read_csv_records",
    "read_mme_log",
    "read_proxy_log",
    "week_index",
    "weekday",
    "write_csv_records",
    "write_mme_log",
    "write_proxy_log",
]
