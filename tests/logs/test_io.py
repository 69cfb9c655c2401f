"""Unit tests for streaming log I/O: CSV roundtrips and errors."""

import pytest

from repro.logs.io import (
    LogReadError,
    read_csv_records,
    read_mme_log,
    read_proxy_log,
    write_mme_log,
    write_proxy_log,
)
from repro.logs.records import MmeRecord, ProxyRecord


@pytest.fixture()
def proxy_records() -> list[ProxyRecord]:
    return [
        ProxyRecord(
            timestamp=1_513_296_000.0 + i,
            subscriber_id=f"s{i:02d}",
            imei="358847080000011",
            host="api.example.com",
            path="/v1/x" if i % 2 else "",
            protocol="http" if i % 2 else "https",
            bytes_up=10 * i,
            bytes_down=100 * i,
        )
        for i in range(5)
    ]


@pytest.fixture()
def mme_records() -> list[MmeRecord]:
    return [
        MmeRecord(
            timestamp=1_513_296_000.0 + 60 * i,
            subscriber_id="s01",
            imei="358847080000011",
            sector_id=f"S{i:03d}-000",
            event="attach" if i == 0 else "handover",
        )
        for i in range(4)
    ]


class TestCsvRoundtrip:
    def test_proxy_roundtrip_preserves_records(self, tmp_path, proxy_records):
        path = tmp_path / "proxy.csv"
        count = write_proxy_log(path, proxy_records)
        assert count == len(proxy_records)
        assert list(read_proxy_log(path)) == proxy_records

    def test_mme_roundtrip_preserves_records(self, tmp_path, mme_records):
        path = tmp_path / "mme.csv"
        write_mme_log(path, mme_records)
        assert list(read_mme_log(path)) == mme_records

    def test_empty_log_roundtrips(self, tmp_path):
        path = tmp_path / "empty.csv"
        assert write_proxy_log(path, []) == 0
        assert list(read_proxy_log(path)) == []

    def test_reading_is_streaming(self, tmp_path, proxy_records):
        path = tmp_path / "proxy.csv"
        write_proxy_log(path, proxy_records)
        iterator = read_proxy_log(path)
        assert next(iterator) == proxy_records[0]

    def test_headerless_file_raises(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("")
        with pytest.raises(LogReadError, match="header"):
            list(read_csv_records(path, ProxyRecord))

    def test_bad_value_reports_line_number(self, tmp_path, proxy_records):
        path = tmp_path / "proxy.csv"
        write_proxy_log(path, proxy_records[:1])
        content = path.read_text().replace("358847080000011", "358847080000011")
        lines = content.splitlines()
        lines[1] = lines[1].replace(str(proxy_records[0].bytes_up), "not-a-number")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(LogReadError) as excinfo:
            list(read_csv_records(path, ProxyRecord))
        assert excinfo.value.line_number == 2

    def test_missing_column_raises(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("timestamp,subscriber_id\n1.0,s01\n")
        with pytest.raises(LogReadError, match="missing field"):
            list(read_csv_records(path, ProxyRecord))

    def test_invalid_record_semantics_raise(self, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text(
            "timestamp,subscriber_id,imei,host,path,protocol,bytes_up,bytes_down\n"
            "1.0,s01,358847080000011,h,,https,-5,0\n"
        )
        with pytest.raises(LogReadError, match="non-negative"):
            list(read_csv_records(path, ProxyRecord))


class TestFieldTypeCache:
    """The per-row hot path must not rebuild the dataclass type map."""

    def test_field_types_cached_per_record_type(self):
        from repro.logs.io import _field_types

        assert _field_types(ProxyRecord) is _field_types(ProxyRecord)
        assert _field_types(MmeRecord) is _field_types(MmeRecord)
        assert _field_types(ProxyRecord) is not _field_types(MmeRecord)

    def test_cached_map_is_correct(self):
        from repro.logs.io import _field_types

        types = _field_types(ProxyRecord)
        assert types["timestamp"] is float
        assert types["bytes_up"] is int
        assert types["host"] is str
        mme_types = _field_types(MmeRecord)
        assert mme_types["sector_id"] is str
        assert mme_types["timestamp"] is float

    def test_read_path_still_coerces_after_caching(self, tmp_path, proxy_records):
        """Round-trip through the cached coercion path twice."""
        path = tmp_path / "proxy.csv"
        write_proxy_log(path, proxy_records)
        assert list(read_proxy_log(path)) == proxy_records
        assert list(read_proxy_log(path)) == proxy_records
