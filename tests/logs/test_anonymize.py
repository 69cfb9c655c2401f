"""Unit tests for trace pseudonymisation."""

import pytest

from repro.core.dataset import StudyDataset
from repro.core.pipeline import WearableStudy
from repro.logs.anonymize import Anonymizer
from repro.logs.records import MmeRecord, ProxyRecord


def proxy(subscriber="alice", imei="358847080000011") -> ProxyRecord:
    return ProxyRecord(
        timestamp=100.0,
        subscriber_id=subscriber,
        imei=imei,
        host="api.example.com",
        bytes_down=100,
    )


class TestDeterminism:
    def test_same_key_same_pseudonyms(self):
        a = Anonymizer(key=b"k" * 32)
        b = Anonymizer(key=b"k" * 32)
        assert a.subscriber("alice") == b.subscriber("alice")
        assert a.imei("358847080000011") == b.imei("358847080000011")

    def test_different_keys_unlinkable(self):
        a = Anonymizer(key=b"k" * 32)
        b = Anonymizer(key=b"j" * 32)
        assert a.subscriber("alice") != b.subscriber("alice")

    def test_fresh_key_by_default(self):
        assert Anonymizer().subscriber("alice") != Anonymizer().subscriber("alice")

    def test_different_values_different_pseudonyms(self):
        anonymizer = Anonymizer(key=b"k" * 32)
        assert anonymizer.subscriber("alice") != anonymizer.subscriber("bob")

    def test_domains_are_separated(self):
        anonymizer = Anonymizer(key=b"k" * 32)
        assert anonymizer.pseudonym("subscriber", "x") != anonymizer.pseudonym(
            "account", "x"
        )


class TestImeiHandling:
    def test_tac_preserved(self):
        anonymizer = Anonymizer(key=b"k" * 32)
        assert anonymizer.imei("358847080000011")[:8] == "35884708"

    def test_serial_destroyed(self):
        anonymizer = Anonymizer(key=b"k" * 32)
        original = "358847080000011"
        anonymized = anonymizer.imei(original)
        assert anonymized != original
        assert len(anonymized) == 15
        assert anonymized.isdigit()

    def test_same_device_same_pseudonym(self):
        anonymizer = Anonymizer(key=b"k" * 32)
        assert anonymizer.imei("358847080000011") == anonymizer.imei(
            "358847080000011"
        )


class TestRecordRewriting:
    def test_proxy_payload_untouched(self):
        anonymizer = Anonymizer(key=b"k" * 32)
        record = proxy()
        rewritten = anonymizer.proxy_record(record)
        assert rewritten.timestamp == record.timestamp
        assert rewritten.host == record.host
        assert rewritten.bytes_down == record.bytes_down
        assert rewritten.subscriber_id != record.subscriber_id
        assert rewritten.imei != record.imei

    def test_mme_sector_untouched(self):
        anonymizer = Anonymizer(key=b"k" * 32)
        record = MmeRecord(
            timestamp=1.0,
            subscriber_id="alice",
            imei="358847080000011",
            sector_id="S001-002",
        )
        rewritten = anonymizer.mme_record(record)
        assert rewritten.sector_id == record.sector_id
        assert rewritten.subscriber_id != "alice"

    def test_joins_survive_across_logs(self):
        anonymizer = Anonymizer(key=b"k" * 32)
        p = anonymizer.proxy_record(proxy(subscriber="alice"))
        m = anonymizer.mme_record(
            MmeRecord(
                timestamp=1.0,
                subscriber_id="alice",
                imei="358847080000011",
                sector_id="S",
            )
        )
        assert p.subscriber_id == m.subscriber_id

    def test_directory_rewrite(self):
        anonymizer = Anonymizer(key=b"k" * 32)
        directory = {"alice": "acct-1", "bob": "acct-1"}
        rewritten = anonymizer.account_directory(directory)
        assert len(rewritten) == 2
        # Same account still shared after pseudonymisation.
        assert len(set(rewritten.values())) == 1
        assert "alice" not in rewritten


class TestAnalysesSurviveAnonymization:
    def test_headline_results_invariant(self, small_output):
        """TAC-preserving pseudonymisation must not change any analysis."""
        anonymizer = Anonymizer(key=b"secret" * 6)
        original = WearableStudy(
            StudyDataset.from_simulation(small_output)
        ).run_all()
        anonymized_dataset = StudyDataset(
            proxy_records=[
                anonymizer.proxy_record(r) for r in small_output.proxy_records
            ],
            mme_records=[anonymizer.mme_record(r) for r in small_output.mme_records],
            device_db=small_output.device_db,
            sector_map=small_output.sector_map,
            account_directory=anonymizer.account_directory(
                small_output.account_directory
            ),
            window=StudyDataset.from_simulation(small_output).window,
        )
        anonymized = WearableStudy(anonymized_dataset).run_all()
        assert anonymized.adoption.daily_counts == original.adoption.daily_counts
        assert anonymized.adoption.data_active_fraction == pytest.approx(
            original.adoption.data_active_fraction
        )
        assert anonymized.comparison.extra_data_percent == pytest.approx(
            original.comparison.extra_data_percent
        )
        assert anonymized.mobility.single_tx_location_fraction == pytest.approx(
            original.mobility.single_tx_location_fraction
        )
        assert [row.app for row in anonymized.apps.per_app] == [
            row.app for row in original.apps.per_app
        ]
