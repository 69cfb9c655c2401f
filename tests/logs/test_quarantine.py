"""Lenient ingestion at the I/O layer, and quarantine bookkeeping."""

import json

import pytest

from repro.logs.io import (
    LogReadError,
    log_kind,
    read_csv_records,
    write_proxy_log,
)
from repro.logs.quarantine import (
    Issue,
    IssueSet,
    MAX_EXAMPLES,
    QuarantineCollector,
    QuarantineReport,
)
from repro.logs.records import MmeRecord, ProxyRecord

RECORDS = [
    ProxyRecord(
        timestamp=1000.0 + i,
        subscriber_id=f"s{i}",
        imei="352918090000065",
        host="api.example.com",
        bytes_up=10,
        bytes_down=20,
    )
    for i in range(5)
]


class TestIssuePrimitives:
    def test_examples_are_bounded(self):
        issue = Issue(code="x", message="m")
        for i in range(MAX_EXAMPLES + 3):
            issue.record(f"e{i}")
        assert issue.count == MAX_EXAMPLES + 3
        assert len(issue.examples) == MAX_EXAMPLES

    def test_issue_set_preserves_first_seen_order(self):
        issues = IssueSet()
        issues.record("b", "msg b", "1")
        issues.record("a", "msg a", "2")
        issues.record("b", "msg b", "3")
        assert [issue.code for issue in issues.to_list()] == ["b", "a"]
        assert issues.count("b") == 2
        assert issues.count("missing") == 0

    def test_log_kind(self):
        assert log_kind(ProxyRecord) == "proxy"
        assert log_kind(MmeRecord) == "mme"


class TestQuarantineReport:
    def test_report_roundtrips_to_json(self, tmp_path):
        collector = QuarantineCollector()
        collector.saw_row("proxy")
        collector.quarantine_row("proxy", "proxy-value", "bad value", "proxy.csv:2")
        collector.note("proxy-order", "out of order", "proxy[3]")
        report = collector.report()
        assert not report.ok
        assert report.total_quarantined == 1
        assert report.count("proxy-value") == 1
        assert report.codes() == {"proxy-value", "proxy-order"}

        path = report.write_json(tmp_path / "sub" / "q.json")
        data = json.loads(path.read_text())
        assert data["rows_read"] == {"proxy": 1}
        assert data["total_quarantined"] == 1
        assert data["ok"] is False
        assert [issue["code"] for issue in data["issues"]] == [
            "proxy-value",
            "proxy-order",
        ]

    def test_issues_are_listed_stream_by_stream(self):
        """Proxy issues come first, then MME ones, first-seen within a
        stream: the order a lenient load records them, whichever order
        a service polling both streams saw them in."""
        collector = QuarantineCollector()
        collector.quarantine_row("mme", "mme-fields", "garbage", "mme.bin")
        collector.quarantine_row("proxy", "proxy-imei", "imei", "proxy[4]")
        collector.note("mme-order", "out of order", "mme[9]")
        collector.quarantine_row("proxy", "proxy-fields", "garbage", "proxy.bin")
        assert [issue.code for issue in collector.report().issues] == [
            "proxy-imei",
            "proxy-fields",
            "mme-fields",
            "mme-order",
        ]

    def test_summary_mentions_counts(self):
        report = QuarantineReport(
            rows_read={"proxy": 10},
            rows_quarantined={"proxy": 2},
            issues=[Issue(code="proxy-value", message="bad", count=2)],
        )
        text = report.summary()
        assert "10" in text and "2" in text and "proxy-value" in text

    def test_empty_report_is_ok(self):
        assert QuarantineReport().ok
        assert "no issues" in QuarantineReport().summary()


class TestLenientCsvReads:
    def _write(self, path, lines):
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def test_bad_rows_skipped_and_accounted(self, tmp_path):
        path = tmp_path / "proxy.csv"
        self._write(
            path,
            [
                "timestamp,subscriber_id,imei,host,path,protocol,bytes_up,bytes_down",
                "1.0,s1,352918090000065,a.com,,https,1,2",
                "####garbage####",
                "2.0,s2,352918090000065,b.com,,https,NaN,2",
                "3.0,s3,352918090000065,c.com,,https,-5,2",
                "4.0,s4,352918090000065,d.com,,https,4,4",
            ],
        )
        collector = QuarantineCollector()
        records = list(read_csv_records(path, ProxyRecord, collector))
        assert [r.subscriber_id for r in records] == ["s1", "s4"]
        report = collector.report()
        assert report.rows_read["proxy"] == 5
        assert report.rows_quarantined["proxy"] == 3
        assert report.count("proxy-fields") == 1  # garbage line
        assert report.count("proxy-value") == 2  # NaN + negative

    def test_strict_mode_still_raises(self, tmp_path):
        path = tmp_path / "proxy.csv"
        self._write(
            path,
            [
                "timestamp,subscriber_id,imei,host,path,protocol,bytes_up,bytes_down",
                "bad,s1,352918090000065,a.com,,https,1,2",
            ],
        )
        with pytest.raises(LogReadError) as excinfo:
            list(read_csv_records(path, ProxyRecord))
        assert excinfo.value.code == "value"

    def test_truncated_gzip_keeps_prefix(self, tmp_path):
        path = tmp_path / "proxy.csv.gz"
        write_proxy_log(path, RECORDS)
        data = path.read_bytes()
        path.write_bytes(data[: int(len(data) * 0.6)])

        collector = QuarantineCollector()
        records = list(read_csv_records(path, ProxyRecord, collector))
        assert len(records) < len(RECORDS)
        assert collector.report().count("proxy-truncated") == 1

    def test_truncated_gzip_strict_raises_with_code(self, tmp_path):
        path = tmp_path / "proxy.csv.gz"
        write_proxy_log(path, RECORDS)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(LogReadError) as excinfo:
            list(read_csv_records(path, ProxyRecord))
        assert excinfo.value.code == "truncated"

    def test_garbage_gzip_member(self, tmp_path):
        path = tmp_path / "proxy.csv.gz"
        path.write_bytes(b"this is not gzip at all")
        collector = QuarantineCollector()
        assert list(read_csv_records(path, ProxyRecord, collector)) == []
        assert collector.report().count("proxy-truncated") == 1

    def test_missing_file_lenient(self, tmp_path):
        collector = QuarantineCollector()
        assert (
            list(read_csv_records(tmp_path / "gone.csv", ProxyRecord, collector))
            == []
        )
        assert collector.report().count("proxy-missing") == 1

    def test_missing_file_strict_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            list(read_csv_records(tmp_path / "gone.csv", ProxyRecord))

    def test_empty_file_lenient(self, tmp_path):
        path = tmp_path / "proxy.csv"
        path.write_text("")
        collector = QuarantineCollector()
        assert list(read_csv_records(path, ProxyRecord, collector)) == []
        assert collector.report().count("proxy-truncated") == 1

    def test_clean_file_produces_ok_report(self, tmp_path):
        path = tmp_path / "proxy.csv"
        write_proxy_log(path, RECORDS)
        collector = QuarantineCollector()
        records = list(read_csv_records(path, ProxyRecord, collector))
        assert records == RECORDS
        report = collector.report()
        assert report.ok
        assert report.rows_read == {"proxy": len(RECORDS)}
