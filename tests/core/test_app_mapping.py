"""Unit tests for host→app signatures and timeframe attribution (§3.3)."""

import pytest

from repro.core.app_mapping import (
    CATEGORY_UNKNOWN,
    SignatureCatalog,
    attribute_table,
)
from repro.logs.columns import ColumnTable
from repro.logs.records import ProxyRecord
from repro.simnet.appcatalog import (
    DOMAIN_ADVERTISING,
    DOMAIN_APPLICATION,
    builtin_app_catalog,
)
from tests.core.helpers import attribute_rows


@pytest.fixture(scope="module")
def signatures() -> SignatureCatalog:
    return SignatureCatalog.from_app_catalog(builtin_app_catalog())


def proxy(host: str, ts: float = 0.0, subscriber: str = "s1") -> ProxyRecord:
    return ProxyRecord(
        timestamp=ts,
        subscriber_id=subscriber,
        imei="358847080000011",
        host=host,
        bytes_down=100,
    )


class TestSignatureCatalog:
    def test_first_party_host_resolves_directly(self, signatures):
        match = signatures.classify_host("api.accuweather.com")
        assert match.app == "Accuweather"
        assert match.domain_category == DOMAIN_APPLICATION

    def test_shared_ad_host_has_category_but_no_app(self, signatures):
        match = signatures.classify_host("ads.doubleclick.net")
        assert match.app is None
        assert match.domain_category == DOMAIN_ADVERTISING

    def test_unknown_host(self, signatures):
        match = signatures.classify_host("totally.unknown.example")
        assert match.app is None
        assert match.domain_category == CATEGORY_UNKNOWN

    def test_suffix_matching(self, signatures):
        match = signatures.classify_host("eu-west.api.accuweather.com")
        assert match.app == "Accuweather"

    def test_known_hosts_nonempty(self, signatures):
        assert "api.whatsapp.com" not in signatures.known_hosts  # not a sig
        assert "e1.whatsapp.net" in signatures.known_hosts


class TestTimeframeAttribution:
    def test_third_party_inherits_nearest_app(self, signatures):
        records = [
            proxy("api.accuweather.com", ts=100.0),
            proxy("ads.doubleclick.net", ts=110.0),
        ]
        attributed = attribute_rows(records, signatures)
        assert attributed[1].app == "Accuweather"
        assert attributed[1].domain_category == DOMAIN_ADVERTISING

    def test_nearest_wins_between_two_apps(self, signatures):
        records = [
            proxy("api.accuweather.com", ts=100.0),
            proxy("e1.whatsapp.net", ts=130.0),
            proxy("ads.doubleclick.net", ts=125.0),  # closer to WhatsApp
        ]
        attributed = attribute_rows(records, signatures)
        beacon = next(
            a for a in attributed if a.record.host == "ads.doubleclick.net"
        )
        assert beacon.app == "WhatsApp"

    def test_outside_window_stays_unattributed(self, signatures):
        records = [
            proxy("api.accuweather.com", ts=100.0),
            proxy("ads.doubleclick.net", ts=500.0),
        ]
        attributed = attribute_rows(records, signatures, window_seconds=60.0)
        beacon = attributed[1]
        assert beacon.app is None
        assert beacon.domain_category == DOMAIN_ADVERTISING

    def test_attribution_is_per_subscriber(self, signatures):
        records = [
            proxy("api.accuweather.com", ts=100.0, subscriber="alice"),
            proxy("ads.doubleclick.net", ts=105.0, subscriber="bob"),
        ]
        attributed = attribute_rows(records, signatures)
        bob = next(a for a in attributed if a.record.subscriber_id == "bob")
        assert bob.app is None

    def test_unknown_hosts_never_attributed(self, signatures):
        records = [
            proxy("api.accuweather.com", ts=100.0),
            proxy("mystery.example", ts=101.0),
        ]
        attributed = attribute_rows(records, signatures)
        mystery = attributed[1]
        assert mystery.app is None
        assert mystery.domain_category == CATEGORY_UNKNOWN

    def test_order_independent(self, signatures):
        records = [
            proxy("ads.doubleclick.net", ts=110.0),
            proxy("api.accuweather.com", ts=100.0),
        ]
        attributed = attribute_rows(records, signatures)
        beacon = next(
            a for a in attributed if a.record.host == "ads.doubleclick.net"
        )
        assert beacon.app == "Accuweather"

    def test_coverage_metric(self, signatures):
        records = [
            proxy("api.accuweather.com", ts=100.0),
            proxy("mystery.example", ts=101.0),
        ]
        attribution = attribute_table(
            ColumnTable.from_records(ProxyRecord, records), signatures
        )
        assert (attribution.app >= 0).mean() == 0.5
        empty = ColumnTable.from_records(ProxyRecord, [])
        assert len(attribute_table(empty, signatures)) == 0


class TestOnSimulatedTraffic:
    def test_high_coverage_on_wearable_traffic(self, small_dataset, signatures):
        attribution = attribute_table(
            small_dataset.proxy.take(small_dataset.wearable_proxy_mask), signatures
        )
        # Third parties sit next to first-party bursts, so nearly all
        # wearable transactions should resolve to an app.  The band is
        # statistical: across seeds the coverage on the tiny `small`
        # preset (~1k wearable records) realises between ~0.89 and ~0.97,
        # so the floor sits below that spread rather than at one lucky
        # draw's value.
        assert (attribution.app >= 0).mean() > 0.85

    def test_conflicting_category_rejected(self):
        from repro.simnet.appcatalog import AppCatalog, AppProfile, DomainShare

        def app(name: str, host_category: str) -> AppProfile:
            return AppProfile(
                name=name,
                category="Tools",
                archetype="tools",
                popularity_weight=1.0,
                install_weight=1.0,
                sessions_per_active_day=1.0,
                tx_per_session_mean=1.0,
                tx_size_median_bytes=100.0,
                tx_size_sigma=0.5,
                background_sync_prob=0.1,
                domains=(
                    DomainShare("api.own.com" + name, DOMAIN_APPLICATION, 0.5),
                    DomainShare("shared.example", host_category, 0.5),
                ),
                diurnal="flat",
            )

        catalog = AppCatalog([app("A", "utilities"), app("B", "advertising")])
        with pytest.raises(ValueError, match="conflicting"):
            SignatureCatalog.from_app_catalog(catalog)
