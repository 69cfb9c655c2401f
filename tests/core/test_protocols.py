"""Tests for the protocol-visibility extension analysis."""

import pytest

from repro.logs.records import ProxyRecord
from tests.core.helpers import (
    WATCH_IMEI,
    AttributedRecord,
    day_ts,
    make_dataset,
    make_window,
    panel,
)

D = 14

CATEGORIES = {
    "Weather": "Weather",
    "Bank-App-1": "Finance",
    "WhatsApp": "Communication",
}


def attributed(
    ts: float,
    app: str | None,
    protocol: str = "https",
    path: str = "",
) -> AttributedRecord:
    record = ProxyRecord(
        timestamp=ts,
        subscriber_id="s",
        imei=WATCH_IMEI,
        host="h.example",
        path=path,
        protocol=protocol,
        bytes_down=100,
    )
    return AttributedRecord(record=record, app=app, domain_category="application")


def protocols(dataset, items):
    return panel("protocols", dataset, attributed=items, app_categories=CATEGORIES)


def build():
    items = [
        attributed(day_ts(D, 100), "Weather", "http", "/v1/weather"),
        attributed(day_ts(D, 110), "Weather", "https"),
        attributed(day_ts(D, 120), "Weather", "https"),
        attributed(day_ts(D, 130), "Weather", "https"),
        attributed(day_ts(D, 200), "Bank-App-1", "https"),
        attributed(day_ts(D, 300), "WhatsApp", "http", "/v1/whatsapp"),
        attributed(day_ts(D, 310), "WhatsApp", "https"),
        attributed(day_ts(D, 400), None, "https"),
    ]
    dataset = make_dataset([i.record for i in items], [], window=make_window())
    return dataset, items


class TestExactValues:
    def test_overall_split(self):
        dataset, items = build()
        result = protocols(dataset, items)
        assert result.transactions == 8
        assert result.http_fraction == pytest.approx(2 / 8)
        assert result.https_fraction == pytest.approx(6 / 8)

    def test_per_app_split(self):
        dataset, items = build()
        result = protocols(dataset, items)
        by_app = {row.app: row for row in result.per_app}
        assert by_app["Weather"].http_fraction == pytest.approx(0.25)
        assert by_app["Bank-App-1"].http_fraction == 0.0
        assert by_app["WhatsApp"].http_fraction == pytest.approx(0.5)

    def test_url_visibility(self):
        dataset, items = build()
        result = protocols(dataset, items)
        by_app = {row.app: row for row in result.per_app}
        assert by_app["Weather"].url_visible_fraction == pytest.approx(0.25)
        assert by_app["Bank-App-1"].url_visible_fraction == 0.0

    def test_sensitive_categories(self):
        dataset, items = build()
        result = protocols(dataset, items)
        assert result.sensitive_cleartext_apps == ["WhatsApp"]
        # Finance (1 https) + Communication (1 http + 1 https): 1/3 HTTP.
        assert result.sensitive_http_fraction == pytest.approx(1 / 3)

    def test_sorted_most_cleartext_first(self):
        dataset, items = build()
        result = protocols(dataset, items)
        fractions = [row.http_fraction for row in result.per_app]
        assert fractions == sorted(fractions, reverse=True)

    def test_empty_window_raises(self):
        dataset = make_dataset([], [], window=make_window())
        with pytest.raises(ValueError, match="no wearable"):
            protocols(dataset, [])


class TestOnSimulation:
    @pytest.fixture(scope="class")
    def result(self, medium_study):
        return medium_study.protocols

    def test_https_dominates(self, result):
        assert result.https_fraction > 0.75

    def test_some_cleartext_remains(self, result):
        # 2017-era wearables still carried plain HTTP.
        assert result.http_fraction > 0.02

    def test_finance_nearly_tls_only(self, result):
        # Finance first-party traffic is TLS-only; the residual comes from
        # third-party beacons mis-attributed by the timeframe rule.
        assert result.per_category_http.get("Finance", 0.0) < 0.06

    def test_ad_supported_categories_leak_most(self, result):
        weather = result.per_category_http.get("Weather", 0.0)
        finance = result.per_category_http.get("Finance", 0.0)
        assert weather > finance
