"""Unit tests for TAC-based wearable identification (§3.2)."""

import pytest

from repro.core.dataset import StudyDataset
from repro.core.identification import WearableIdentifier
from repro.devicedb.catalog import builtin_database
from repro.devicedb.tac import make_imei
from repro.logs.records import MmeRecord, ProxyRecord
from tests.core.helpers import SECTORS, make_window, panel


@pytest.fixture(scope="module")
def identifier() -> WearableIdentifier:
    return WearableIdentifier(builtin_database())


def proxy(imei: str, subscriber: str = "s1") -> ProxyRecord:
    return ProxyRecord(
        timestamp=1.0,
        subscriber_id=subscriber,
        imei=imei,
        host="api.example.com",
        bytes_down=100,
    )


def census_of(records: list[ProxyRecord]):
    """The census panel over one MME registration per record's IMEI."""
    registrations = [
        MmeRecord(
            timestamp=record.timestamp,
            subscriber_id=f"s{index}",
            imei=record.imei,
            sector_id="HOME",
        )
        for index, record in enumerate(records)
    ]
    dataset = StudyDataset(
        proxy_records=[],
        mme_records=registrations,
        device_db=builtin_database(),
        sector_map=SECTORS,
        account_directory={},
        window=make_window(),
    )
    return panel("census", dataset)


WATCH_IMEI = make_imei("35884708", 1)  # Gear S3 Frontier LTE
PHONE_IMEI = make_imei("35332812", 1)  # iPhone 7
UNKNOWN_IMEI = make_imei("99999999", 1)


class TestClassification:
    def test_wearable_tac_detected(self, identifier):
        assert identifier.is_wearable(WATCH_IMEI)

    def test_phone_tac_rejected(self, identifier):
        assert not identifier.is_wearable(PHONE_IMEI)

    def test_unknown_tac_rejected(self, identifier):
        assert not identifier.is_wearable(UNKNOWN_IMEI)

    def test_model_lookup(self, identifier):
        model = identifier.model_of(WATCH_IMEI)
        assert model is not None
        assert model.manufacturer == "Samsung"
        assert identifier.model_of(UNKNOWN_IMEI) is None

    def test_wearable_tacs_nonempty(self, identifier):
        assert len(identifier.wearable_tacs) >= 5


class TestFiltering:
    def test_filter_keeps_only_wearables(self, identifier):
        records = [proxy(WATCH_IMEI), proxy(PHONE_IMEI), proxy(WATCH_IMEI)]
        filtered = identifier.filter_wearable(records)
        assert len(filtered) == 2
        assert all(identifier.is_wearable(r.imei) for r in filtered)

    def test_filter_empty(self, identifier):
        assert identifier.filter_wearable([]) == []


class TestCensus:
    def test_counts_distinct_devices(self, identifier):
        records = [
            proxy(WATCH_IMEI),
            proxy(WATCH_IMEI),  # same device twice
            proxy(make_imei("35884708", 2)),  # second Gear S3
            proxy(make_imei("35291808", 1)),  # LG Urbane
            proxy(PHONE_IMEI),  # not a wearable
        ]
        census = census_of(records)
        assert census.total_devices == 3
        assert census.devices_per_model["Gear S3 Frontier LTE"] == 2
        assert census.devices_per_manufacturer == {"Samsung": 2, "LG": 1}
        assert census.devices_per_os == {"Tizen": 2, "Android Wear": 1}

    def test_census_on_simulated_logs_is_samsung_lg_dominated(self, small_study):
        census = small_study.census
        assert census.total_devices > 0
        samsung_lg = census.devices_per_manufacturer.get(
            "Samsung", 0
        ) + census.devices_per_manufacturer.get("LG", 0)
        assert samsung_lg / census.total_devices > 0.7
