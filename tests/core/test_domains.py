"""Exact-value and band tests for §5.2: per-usage stats and third parties."""

import pytest

from repro.core.parallel import DomainsPartial
from tests.core.helpers import (
    AttributedRecord,
    UsageSession,
    attribution_of,
    day_ts,
    make_dataset,
    make_window,
    panel,
    proxy,
    session_table,
)

D = 14


def attributed(
    ts: float, subscriber: str, app: str | None, category: str, size: int = 1000
) -> AttributedRecord:
    return AttributedRecord(
        record=proxy(ts, subscriber, bytes_down=size),
        app=app,
        domain_category=category,
    )


def session(
    app: str,
    tx: int,
    total_bytes: int,
    start: float = day_ts(D, 100),
    subscriber: str = "s",
) -> UsageSession:
    return UsageSession(
        subscriber_id=subscriber,
        app=app,
        start=start,
        end=start + 30.0,
        tx_count=tx,
        bytes_total=total_bytes,
    )


def single_usage(sessions: list[UsageSession], min_usages: int):
    """Fig. 7 rows for hand-built detailed-window sessions."""
    items = [
        attributed(item.start, item.subscriber_id, item.app, "application")
        for item in sessions
    ]
    dataset = make_dataset([item.record for item in items], [], window=make_window())
    partial = DomainsPartial()
    partial.consume(
        dataset, attribution_of(items), session_table(sessions)
    )
    return partial.finalize(min_usages=min_usages).per_app_usage


class TestSingleUsage:
    def test_means_per_app(self):
        sessions = [
            session("WhatsApp", tx=10, total_bytes=1_000_000),
            session("WhatsApp", tx=20, total_bytes=2_000_000),
            session("WhatsApp", tx=12, total_bytes=900_000),
            session("Messenger", tx=5, total_bytes=10_000),
            session("Messenger", tx=5, total_bytes=10_000),
            session("Messenger", tx=5, total_bytes=10_000),
        ]
        rows = single_usage(sessions, min_usages=3)
        assert rows[0].app == "WhatsApp"
        assert rows[0].mean_tx_per_usage == pytest.approx(14.0)
        assert rows[0].mean_kb_per_usage == pytest.approx(1300.0)
        assert rows[1].app == "Messenger"
        assert rows[1].mean_kb_per_usage == pytest.approx(10.0)

    def test_low_usage_apps_dropped(self):
        sessions = [session("Rare", tx=1, total_bytes=100)]
        assert single_usage(sessions, min_usages=3) == []


class TestDomainCategories:
    def build(self):
        items = [
            attributed(day_ts(D, 100), "a", "Weather", "application", 6000),
            attributed(day_ts(D, 110), "a", "Weather", "advertising", 2000),
            attributed(day_ts(D, 120), "b", "Weather", "analytics", 1000),
            attributed(day_ts(D, 130), "b", "Weather", "utilities", 1000),
            # Unknown category and out-of-window records must be ignored.
            attributed(day_ts(D, 140), "b", None, "unknown", 99_999),
            attributed(day_ts(0, 100), "a", "Weather", "application", 99_999),
        ]
        dataset = make_dataset(
            [item.record for item in items], [], window=make_window()
        )
        return dataset, items

    def test_data_shares(self):
        dataset, items = self.build()
        result = panel("domains", dataset, attributed=items, sessions=[])
        shares = {row.category: row.data_pct for row in result.per_domain_category}
        assert shares["application"] == pytest.approx(60.0)
        assert shares["advertising"] == pytest.approx(20.0)
        assert shares["analytics"] == pytest.approx(10.0)
        assert shares["utilities"] == pytest.approx(10.0)

    def test_user_shares(self):
        dataset, items = self.build()
        result = panel("domains", dataset, attributed=items, sessions=[])
        users = {row.category: row.users_pct for row in result.per_domain_category}
        assert users["application"] == pytest.approx(50.0)  # a of {a, b}
        assert users["utilities"] == pytest.approx(50.0)  # b

    def test_third_party_ratio(self):
        dataset, items = self.build()
        result = panel("domains", dataset, attributed=items, sessions=[])
        assert result.third_party_data_ratio == pytest.approx(3000 / 6000)

    def test_category_order_follows_canonical(self):
        dataset, items = self.build()
        result = panel("domains", dataset, attributed=items, sessions=[])
        assert [row.category for row in result.per_domain_category] == [
            "application",
            "utilities",
            "advertising",
            "analytics",
        ]


class TestFullDomains:
    def test_sessions_outside_window_dropped(self):
        dataset, items = TestDomainCategories().build()
        sessions = [
            session(
                "Weather", tx=5, total_bytes=1000, start=day_ts(D, 100 + i),
                subscriber="a",
            )
            for i in range(6)
        ] + [
            session("Old", tx=5, total_bytes=1000, start=day_ts(0, 100 + i))
            for i in range(6)
        ]
        result = panel("domains", dataset, attributed=items, sessions=sessions)
        apps = {row.app for row in result.per_app_usage}
        assert "Old" not in apps
        assert "Weather" in apps


class TestOnSimulation:
    """Bands around the paper's §5.2 claims."""

    def test_all_four_categories_present(self, medium_study):
        categories = {
            row.category for row in medium_study.domains.per_domain_category
        }
        assert categories == {"application", "utilities", "advertising", "analytics"}

    def test_third_party_same_order_of_magnitude(self, medium_study):
        # "volumes ... in the same order of magnitude as the volumes
        # exchanged with application service providers"
        ratio = medium_study.domains.third_party_data_ratio
        assert 0.02 <= ratio <= 1.0

    def test_application_dominates_data(self, medium_study):
        shares = {
            row.category: row.data_pct
            for row in medium_study.domains.per_domain_category
        }
        assert shares["application"] == max(shares.values())

    def test_messaging_and_music_dominate_per_usage_data(self, medium_study):
        # Fig. 7: Communication/Social/Music apps have the largest
        # per-usage data.
        top = [row.app for row in medium_study.domains.per_app_usage[:6]]
        heavy = {"WhatsApp", "Deezer", "Snapchat", "Spotify", "Skype", "Viber"}
        assert heavy & set(top)

    def test_payment_apps_in_light_tail(self, medium_study):
        rows = medium_study.domains.per_app_usage
        by_app = {row.app: index for index, row in enumerate(rows)}
        for app in ("Samsung-Pay", "Android-Pay"):
            if app in by_app:
                assert by_app[app] > len(rows) // 2
