"""Unit tests for trace integrity validation."""

import pytest

from repro.core.dataset import StudyDataset
from repro.logs.validate import validate_trace
from tests.core.helpers import (
    PHONE_IMEI,
    WATCH_IMEI,
    day_ts,
    make_dataset,
    make_window,
    mme,
    proxy,
)


def clean_rows() -> tuple[list, list]:
    return (
        [proxy(day_ts(14, 100), "a"), proxy(day_ts(14, 200), "b", imei=PHONE_IMEI)],
        [mme(day_ts(14, 50), "a")],
    )


def clean_dataset() -> StudyDataset:
    return make_dataset(*clean_rows(), window=make_window())


class TestCleanTrace:
    def test_clean_trace_passes(self):
        report = validate_trace(clean_dataset())
        assert report.ok
        assert report.proxy_records == 2
        assert report.mme_records == 1
        assert "no issues" in report.summary()

    def test_simulated_traces_are_clean(self, small_dataset):
        report = validate_trace(small_dataset)
        assert report.ok, report.summary()


class TestViolations:
    def find(self, report, code):
        return next((i for i in report.issues if i.code == code), None)

    def test_out_of_order_proxy(self):
        proxy_rows, mme_rows = clean_rows()
        dataset = make_dataset(
            proxy_rows[::-1], mme_rows, window=make_window(), sort=False
        )
        report = validate_trace(dataset)
        issue = self.find(report, "proxy-order")
        assert issue is not None and issue.count >= 1

    def test_out_of_window_timestamp(self):
        dataset = make_dataset(
            [proxy(day_ts(200, 0), "a")], [], window=make_window()
        )
        report = validate_trace(dataset)
        assert self.find(report, "proxy-window") is not None

    def test_malformed_imei(self):
        from repro.logs.records import ProxyRecord

        dataset = make_dataset(
            [
                ProxyRecord(
                    timestamp=day_ts(14, 100),
                    subscriber_id="a",
                    imei="123",  # malformed
                    host="h.example",
                    bytes_down=1,
                )
            ],
            [],
            window=make_window(),
        )
        report = validate_trace(dataset)
        assert self.find(report, "proxy-imei") is not None

    def test_unknown_tac(self):
        from repro.devicedb.tac import make_imei

        dataset = make_dataset(
            [proxy(day_ts(14, 100), "a", imei=make_imei("99999999", 1))],
            [],
            window=make_window(),
        )
        report = validate_trace(dataset)
        assert self.find(report, "proxy-tac") is not None

    def test_subscriber_missing_from_directory(self):
        dataset = make_dataset(
            [proxy(day_ts(14, 100), "ghost")],
            [],
            account_directory={"someone-else": "acct"},
            window=make_window(),
        )
        report = validate_trace(dataset)
        assert self.find(report, "proxy-subscriber") is not None

    def test_unknown_sector(self):
        dataset = make_dataset(
            [],
            [mme(day_ts(14, 100), "a", sector="NOWHERE")],
            window=make_window(),
        )
        report = validate_trace(dataset)
        assert self.find(report, "mme-sector") is not None

    def test_examples_are_bounded(self):
        records = [proxy(day_ts(200, i), f"s{i}") for i in range(20)]
        dataset = make_dataset(records, [], window=make_window())
        report = validate_trace(dataset)
        issue = self.find(report, "proxy-window")
        assert issue.count == 20
        assert len(issue.examples) <= 5

    def test_summary_lists_issues(self):
        dataset = make_dataset(
            [proxy(day_ts(200, 0), "a")], [], window=make_window()
        )
        report = validate_trace(dataset)
        assert not report.ok
        assert "proxy-window" in report.summary()
