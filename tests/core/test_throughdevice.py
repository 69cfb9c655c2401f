"""Exact-value and band tests for through-device fingerprinting (§6)."""

import pytest

from repro.core.parallel import ThroughDevicePartial
from repro.core.throughdevice import TD_FINGERPRINT_HOSTS
from tests.core.helpers import (
    PHONE_IMEI,
    PHONE_IMEI_2,
    WATCH_IMEI,
    day_ts,
    make_dataset,
    make_window,
    mme,
    panel,
    proxy,
)

D = 14


def through_device(dataset, assumed_coverage):
    partial = ThroughDevicePartial()
    partial.consume(dataset)
    return partial.finalize(
        dataset.window, dataset.device_db, assumed_coverage=assumed_coverage
    )


def build_dataset():
    """One Fitbit owner, one plain general user, one wearable owner."""
    directory = {
        "fitbit-user": "acct-f",
        "plain-user": "acct-p",
        "owner-phone": "acct-o",
        "owner-watch": "acct-o",
    }
    proxy_records = [
        # Fitbit owner's phone: generic traffic + a sync flow.
        proxy(day_ts(D, 100), "fitbit-user", imei=PHONE_IMEI,
              host="www.google.com", bytes_down=5000),
        proxy(day_ts(D, 200), "fitbit-user", imei=PHONE_IMEI,
              host="android.api.fitbit.com", bytes_down=15_000),
        # Plain general user.
        proxy(day_ts(D, 100), "plain-user", imei=PHONE_IMEI_2,
              host="www.google.com", bytes_down=5000),
        # Wearable owner's phone hits a fingerprint host: must be excluded
        # from the general pool.
        proxy(day_ts(D, 100), "owner-phone", imei=PHONE_IMEI,
              host="android.api.fitbit.com", bytes_down=15_000),
    ]
    mme_records = [mme(day_ts(D, 50), "owner-watch", imei=WATCH_IMEI)]
    return make_dataset(
        proxy_records, mme_records, account_directory=directory,
        window=make_window(),
    )


class TestExactValues:
    def test_detection(self):
        result = panel("through_device", build_dataset())
        assert result.detected_users == 1
        assert result.detected_by_kind == {"fitbit": 1}
        assert result.detected_fraction_of_general == pytest.approx(0.5)

    def test_estimated_total_scales_by_coverage(self):
        result = through_device(build_dataset(), assumed_coverage=0.16)
        assert result.estimated_total_td_users == pytest.approx(1 / 0.16)

    def test_bad_coverage_rejected(self):
        with pytest.raises(ValueError):
            through_device(build_dataset(), assumed_coverage=0.0)

    def test_wearable_owner_phones_excluded(self):
        # The owner's phone hit a fingerprint host but is not a general
        # user, so it must not be detected.
        result = panel("through_device", build_dataset())
        assert result.detected_users == 1

    def test_behaviour_means(self):
        result = panel("through_device", build_dataset())
        # TD user: 2 tx, 20 KB over 14 days; other: 1 tx, 5 KB.
        assert result.mean_daily_tx_td == pytest.approx(2 / 14)
        assert result.mean_daily_tx_other == pytest.approx(1 / 14)
        assert result.mean_daily_bytes_td == pytest.approx(20_000 / 14)

    def test_fingerprint_hosts_cover_section6_devices(self):
        kinds = set(TD_FINGERPRINT_HOSTS.values())
        assert kinds == {"fitbit", "xiaomi", "accuweather", "strava", "runtastic"}


class TestOnSimulation:
    """Bands around the paper's §6 observations."""

    def test_detects_a_plausible_fraction(self, medium_study):
        result = medium_study.through_device
        # Generative: 15% TD owners, 16% detectable => ~2.4% of generals.
        assert 0.002 <= result.detected_fraction_of_general <= 0.15

    def test_estimated_total_larger_than_detected(self, medium_study):
        result = medium_study.through_device
        assert result.estimated_total_td_users > result.detected_users

    def test_td_users_more_active(self, medium_study):
        # "similar macroscopic behavior ... to SIM-enabled users" (who are
        # more active than the base).
        result = medium_study.through_device
        assert result.mean_daily_tx_td > result.mean_daily_tx_other

    def test_td_users_more_mobile(self, medium_study):
        result = medium_study.through_device
        assert result.mean_displacement_td_km > result.mean_displacement_other_km

    def test_td_users_have_newer_phones(self, medium_study):
        result = medium_study.through_device
        assert result.mean_phone_year_td >= result.mean_phone_year_other
