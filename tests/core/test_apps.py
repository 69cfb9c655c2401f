"""Exact-value and band tests for app/category popularity (Figs. 5-6)."""

import pytest

from tests.core.helpers import (
    AttributedRecord,
    day_ts,
    make_dataset,
    make_window,
    panel,
    proxy,
    sessionize,
)

D = 14  # first detailed day

CATEGORIES = {"Weather": "Weather", "WhatsApp": "Communication"}


def attributed(ts: float, subscriber: str, app: str) -> AttributedRecord:
    return AttributedRecord(
        record=proxy(ts, subscriber, bytes_down=1000),
        app=app,
        domain_category="application",
    )


def apps(dataset, items, sessions):
    return panel(
        "apps", dataset, attributed=items, sessions=sessions, app_categories=CATEGORIES
    )


def build_inputs():
    """Two users over the detailed window.

    * alice uses Weather on two days (3 tx, one day has a 2-tx session);
    * bob uses WhatsApp once (1 tx).
    """
    items = [
        attributed(day_ts(D, 100), "alice", "Weather"),
        attributed(day_ts(D, 110), "alice", "Weather"),
        attributed(day_ts(D + 1, 100), "alice", "Weather"),
        attributed(day_ts(D, 100), "bob", "WhatsApp"),
    ]
    dataset = make_dataset([item.record for item in items], [], window=make_window())
    return dataset, items, sessionize(items)


class TestExactValues:
    def test_per_app_shares(self):
        dataset, items, sessions = build_inputs()
        result = apps(dataset, items, sessions)
        by_name = {row.app: row for row in result.per_app}
        # Weather: 3 of 4 transactions, 3000 of 4000 bytes.
        assert by_name["Weather"].tx_pct == pytest.approx(75.0)
        assert by_name["Weather"].data_pct == pytest.approx(75.0)
        assert by_name["WhatsApp"].tx_pct == pytest.approx(25.0)

    def test_daily_users_normalisation(self):
        dataset, items, sessions = build_inputs()
        result = apps(dataset, items, sessions)
        by_name = {row.app: row for row in result.per_app}
        # Daily (user, day) pairs: Weather 2, WhatsApp 1, any-app total 3
        # over 14 window days -> mean daily total users = 3/14.
        assert by_name["Weather"].daily_users_pct == pytest.approx(
            100.0 * (2 / 14) / (3 / 14)
        )

    def test_used_days_per_user(self):
        dataset, items, sessions = build_inputs()
        result = apps(dataset, items, sessions)
        by_name = {row.app: row for row in result.per_app}
        # Weather: 2 used days for 1 user over 14 days.
        assert by_name["Weather"].used_days_per_user_pct == pytest.approx(
            100.0 * 2 / 14
        )

    def test_category_aggregation(self):
        dataset, items, sessions = build_inputs()
        result = apps(dataset, items, sessions)
        by_category = {row.category: row for row in result.per_category}
        assert by_category["Weather"].tx_pct == pytest.approx(75.0)
        assert by_category["Communication"].tx_pct == pytest.approx(25.0)
        assert result.category_rank_tx == ["Weather", "Communication"]

    def test_apps_per_user(self):
        dataset, items, sessions = build_inputs()
        result = apps(dataset, items, sessions)
        assert result.mean_apps_per_user == pytest.approx(1.0)
        assert result.fraction_users_under_20_apps == 1.0

    def test_records_outside_window_ignored(self):
        items = [attributed(day_ts(0, 100), "alice", "Weather")]
        dataset = make_dataset(
            [items[0].record], [], window=make_window()
        )
        with pytest.raises(ValueError, match="no attributed"):
            apps(dataset, items, [])

    def test_unattributed_records_skipped(self):
        dataset, items, sessions = build_inputs()
        extra = AttributedRecord(
            record=proxy(day_ts(D, 500), "alice"),
            app=None,
            domain_category="advertising",
        )
        result = apps(dataset, items + [extra], sessions)
        total_tx = sum(row.tx_pct for row in result.per_app)
        assert total_tx == pytest.approx(100.0)


class TestOnSimulation:
    """Bands around the paper's Figs. 5-6 and the app headcounts."""

    def test_weather_among_top_apps(self, medium_study):
        top = [row.app for row in medium_study.apps.per_app[:5]]
        assert "Weather" in top

    def test_popularity_decays_steeply(self, medium_study):
        rows = medium_study.apps.per_app
        assert rows[0].daily_users_pct > 10 * rows[min(30, len(rows) - 1)].daily_users_pct

    def test_payment_apps_high_in_rank(self, medium_study):
        # "two major wearable based payment systems ... at the top of the
        # rank"
        top20 = [row.app for row in medium_study.apps.per_app[:20]]
        assert "Samsung-Pay" in top20 or "Android-Pay" in top20

    def test_communication_is_top_category(self, medium_study):
        ranks = medium_study.apps.category_rank_users
        assert ranks[0] == "Communication"

    def test_health_fitness_unpopular_on_cellular(self, medium_study):
        ranks = medium_study.apps.category_rank_users
        assert ranks.index("Health-Fitness") >= len(ranks) - 4

    def test_apps_per_user_band(self, medium_study):
        result = medium_study.apps
        assert 3.0 <= result.mean_apps_per_user <= 15.0
        assert result.fraction_users_under_20_apps >= 0.8

    def test_most_users_run_one_app_per_day(self, medium_study):
        assert medium_study.apps.fraction_single_app_users >= 0.6

    def test_category_percentages_sum_sensibly(self, medium_study):
        total_tx = sum(c.tx_pct for c in medium_study.apps.per_category)
        assert total_tx == pytest.approx(100.0, abs=1.0)
