"""Property tests (Hypothesis): log I/O round-trips and fault no-ops.

Two families of properties:

* every record the type system admits survives a write/read cycle through
  the CSV codec, plain and gzip-compressed, field-for-field — including
  unicode SNI hosts, empty paths, and extreme-but-finite timestamps;
* ``corrupt_trace`` with all rates at zero is a byte-identical no-op for
  any seed, and a fixed nonzero spec is deterministic across runs.
"""

import dataclasses
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.logs.faults import FaultSpec, corrupt_trace
from repro.logs.io import read_csv_records, write_csv_records
from repro.logs.records import (
    _VALID_EVENTS,
    _VALID_PROTOCOLS,
    MmeRecord,
    ProxyRecord,
)

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

# str(float) -> float round-trips exactly for every finite float, so any
# finite timestamp is fair game.
timestamps = st.floats(allow_nan=False, allow_infinity=False)

# Printable-ish identifiers: no commas/newlines would be cheating — the CSV
# codec must survive them, so only the control category is excluded.
_text = st.text(
    alphabet=st.characters(blacklist_categories=("C",)),
    min_size=1,
    max_size=24,
)
_imeis = st.text(alphabet="0123456789", min_size=15, max_size=15)
_byte_counts = st.integers(min_value=0, max_value=2**40)

proxy_records = st.builds(
    ProxyRecord,
    timestamp=timestamps,
    subscriber_id=_text,
    imei=_imeis,
    host=_text,
    path=st.one_of(st.just(""), _text),
    protocol=st.sampled_from(sorted(_VALID_PROTOCOLS)),
    bytes_up=_byte_counts,
    bytes_down=_byte_counts,
)

mme_records = st.builds(
    MmeRecord,
    timestamp=timestamps,
    subscriber_id=_text,
    imei=_imeis,
    sector_id=_text,
    event=st.sampled_from(sorted(_VALID_EVENTS)),
)


def _write_csv(path, records, record_type):
    names = tuple(field.name for field in dataclasses.fields(record_type))
    write_csv_records(path, records, names)


def _roundtrip(records, record_type, *, suffix, writer, reader):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"log{suffix}"
        writer(path, records, record_type)
        return list(reader(path, record_type))


_SUFFIXES = [
    pytest.param(".csv", id="plain-csv"),
    pytest.param(".csv.gz", id="gzip-csv"),
]


class TestRecordRoundTrips:
    @pytest.mark.parametrize("suffix", _SUFFIXES)
    @settings(deadline=None, max_examples=60)
    @given(records=st.lists(proxy_records, min_size=1, max_size=8))
    def test_proxy_roundtrip(self, records, suffix):
        restored = _roundtrip(
            records, ProxyRecord, suffix=suffix, writer=_write_csv,
            reader=read_csv_records,
        )
        assert restored == records

    @pytest.mark.parametrize("suffix", _SUFFIXES)
    @settings(deadline=None, max_examples=60)
    @given(records=st.lists(mme_records, min_size=1, max_size=8))
    def test_mme_roundtrip(self, records, suffix):
        restored = _roundtrip(
            records, MmeRecord, suffix=suffix, writer=_write_csv,
            reader=read_csv_records,
        )
        assert restored == records

    @settings(deadline=None, max_examples=40)
    @given(record=proxy_records)
    def test_single_record_fields_survive_exactly(self, record):
        (restored,) = _roundtrip(
            [record], ProxyRecord, suffix=".csv", writer=_write_csv,
            reader=read_csv_records,
        )
        assert restored.timestamp == record.timestamp
        assert restored.host == record.host
        assert restored.path == record.path
        assert restored.total_bytes == record.total_bytes


def _bytes_of(directory: Path) -> dict:
    return {
        path.name: path.read_bytes()
        for path in sorted(directory.iterdir())
        if path.is_file()
    }


class TestFaultProperties:
    @settings(
        deadline=None,
        max_examples=10,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_zero_rate_is_noop_for_any_seed(self, small_trace_dir, seed):
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "copy"
            report = corrupt_trace(small_trace_dir, out, FaultSpec(seed=seed))
            assert _bytes_of(out) == _bytes_of(small_trace_dir)
            assert report.injected_classes() == frozenset()

    @settings(
        deadline=None,
        max_examples=8,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        rate=st.floats(min_value=0.0, max_value=0.2),
    )
    def test_corruption_is_deterministic(self, small_trace_dir, seed, rate):
        spec = FaultSpec.chaos(seed=seed, rate=rate)
        with tempfile.TemporaryDirectory() as tmp:
            first = Path(tmp) / "a"
            second = Path(tmp) / "b"
            report_a = corrupt_trace(small_trace_dir, first, spec)
            report_b = corrupt_trace(small_trace_dir, second, spec)
            assert _bytes_of(first) == _bytes_of(second)
            assert report_a.counts == report_b.counts
