"""Exact-value and band tests for owner-vs-general comparison (Fig. 4(a-b))."""

import pytest

from tests.core.helpers import (
    PHONE_IMEI,
    PHONE_IMEI_2,
    WATCH_IMEI,
    day_ts,
    make_dataset,
    make_window,
    mme,
    proxy,
    panel,
)

D = 14  # first detailed day of the default 28/14 window


def build_dataset():
    """One wearable owner (phone+watch SIMs) and one general user."""
    directory = {
        "owner-phone": "acct-owner",
        "owner-watch": "acct-owner",
        "general-phone": "acct-general",
    }
    proxy_records = [
        # Owner's phone: 2 tx, 3000 B.
        proxy(day_ts(D, 100), "owner-phone", imei=PHONE_IMEI, bytes_down=1000),
        proxy(day_ts(D, 200), "owner-phone", imei=PHONE_IMEI, bytes_down=2000),
        # Owner's watch: 1 tx, 100 B.
        proxy(day_ts(D, 300), "owner-watch", imei=WATCH_IMEI, bytes_down=100),
        # General phone: 1 tx, 2000 B.
        proxy(day_ts(D, 400), "general-phone", imei=PHONE_IMEI_2, bytes_down=2000),
        # Outside the detailed window: must be ignored.
        proxy(day_ts(0, 100), "general-phone", imei=PHONE_IMEI_2, bytes_down=9999),
    ]
    mme_records = [mme(day_ts(D, 50), "owner-watch", imei=WATCH_IMEI)]
    return make_dataset(
        proxy_records, mme_records, account_directory=directory,
        window=make_window(),
    )


class TestExactValues:
    def test_account_totals(self):
        result = panel("comparison", build_dataset())
        assert result.n_wearable_accounts == 1
        assert result.n_general_accounts == 1
        assert result.mean_bytes_wearable_owner == 3100.0
        assert result.mean_bytes_general == 2000.0
        assert result.mean_tx_wearable_owner == 3.0
        assert result.mean_tx_general == 1.0

    def test_extra_percentages(self):
        result = panel("comparison", build_dataset())
        assert result.extra_data_percent == pytest.approx(55.0)
        assert result.extra_tx_percent == pytest.approx(200.0)

    def test_wearable_share(self):
        result = panel("comparison", build_dataset())
        assert result.wearable_share.maximum == pytest.approx(100 / 3100)
        assert result.fraction_share_at_least_3pct == pytest.approx(1.0)

    def test_bytes_cdfs_normalised_by_max(self):
        result = panel("comparison", build_dataset())
        assert result.bytes_cdf_wearable_owner.maximum == pytest.approx(1.0)
        assert result.bytes_cdf_general.maximum <= 1.0

    def test_requires_both_groups(self):
        dataset = make_dataset(
            [proxy(day_ts(D, 1), "only", imei=PHONE_IMEI)],
            [],
            window=make_window(),
        )
        with pytest.raises(ValueError, match="both"):
            panel("comparison", dataset)


class TestOnSimulation:
    """Bands around the paper's +26% data / +48% transactions."""

    def test_owners_generate_more_data(self, medium_study):
        result = medium_study.comparison
        assert result.extra_data_percent > 0.0

    def test_owners_generate_more_transactions(self, medium_study):
        result = medium_study.comparison
        assert result.extra_tx_percent > 10.0

    def test_wearable_share_is_orders_of_magnitude_small(self, medium_study):
        result = medium_study.comparison
        assert 1.5 <= result.median_share_orders_of_magnitude <= 4.5

    def test_share_tail_exists(self, medium_study):
        # "for 10% of the users, 3% of their traffic ... from the wearables"
        result = medium_study.comparison
        assert 0.0 < result.fraction_share_at_least_3pct <= 0.4
