"""Property tests: analyses stay sane on arbitrary record streams.

Hypothesis generates random wearable transaction/MME streams (not drawn
from the simulator's distributions at all) and the analyses must still
produce bounded, internally consistent results.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tests.core.helpers import (
    WATCH_IMEI,
    AttributedRecord,
    day_ts,
    make_dataset,
    make_window,
    mme,
    panel,
    proxy,
    sessionize,
)

SUBSCRIBERS = ("alice", "bob", "carol", "dave")
APPS = ("Weather", "WhatsApp", "Maps")

# Transactions restricted to the detailed window (days 14..27) of the
# default 28/14 helper window.
wearable_tx = st.builds(
    lambda day, sec, sub, size: proxy(
        day_ts(day, sec), sub, imei=WATCH_IMEI, bytes_down=size
    ),
    day=st.integers(min_value=14, max_value=27),
    sec=st.integers(min_value=0, max_value=86_399),
    sub=st.sampled_from(SUBSCRIBERS),
    size=st.integers(min_value=1, max_value=5_000_000),
)

mme_event = st.builds(
    lambda day, sec, sub, sector: mme(
        day_ts(day, sec), sub, imei=WATCH_IMEI, sector=sector
    ),
    day=st.integers(min_value=0, max_value=27),
    sec=st.integers(min_value=0, max_value=86_399),
    sub=st.sampled_from(SUBSCRIBERS),
    sector=st.sampled_from(("HOME", "WORK", "FAR")),
)

common = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@common
@given(st.lists(wearable_tx, min_size=1, max_size=120))
def test_activity_invariants(records):
    dataset = make_dataset(records, [], window=make_window())
    result = panel("activity", dataset)
    assert len(result.transaction_sizes) == len(records)
    assert 0.0 <= result.fraction_tx_under_10kb <= 1.0
    assert 0.0 <= result.fraction_users_over_10h <= 1.0
    assert 0.0 <= result.fraction_users_under_5h <= 1.0
    assert result.mean_active_days_per_week <= 7.0
    assert 0.0 < result.mean_active_hours_per_day <= 24.0
    assert result.transaction_sizes.minimum >= 1
    for series in (result.hourly.weekday_tx, result.hourly.weekend_tx):
        assert all(value >= 0.0 for value in series)


@common
@given(st.lists(mme_event, min_size=1, max_size=150))
def test_adoption_invariants(events):
    dataset = make_dataset([], events, window=make_window())
    result = panel("adoption", dataset)
    assert len(result.daily_counts) == 28
    assert sum(result.daily_counts) >= 1
    assert 0.0 <= result.abandoned_fraction <= 1.0
    assert 0.0 <= result.still_active_fraction <= 1.0
    assert 0.0 <= result.data_active_fraction <= 1.0
    distinct = len({event.subscriber_id for event in events})
    assert max(result.daily_counts) <= distinct


@common
@given(st.lists(wearable_tx, min_size=1, max_size=120))
def test_weekly_invariants(records):
    dataset = make_dataset(records, [], window=make_window())
    result = panel("weekly", dataset)
    assert len(result.relative_usage_by_hour) == 24
    assert all(value >= 0.0 for value in result.relative_usage_by_hour)
    assert result.max_daily_tx_deviation >= 0.0
    # The per-weekday index is normalised by its own mean: averages to 1.
    assert sum(result.weekday_tx_index) / 7 == pytest.approx(1.0)


@common
@given(
    st.lists(
        st.tuples(
            wearable_tx,
            st.sampled_from(APPS),
        ),
        min_size=1,
        max_size=100,
    )
)
def test_apps_percentages_conserved(pairs):
    items = [
        AttributedRecord(record=record, app=app, domain_category="application")
        for record, app in pairs
    ]
    dataset = make_dataset([item.record for item in items], [], window=make_window())
    sessions = sessionize(items)
    result = panel(
        "apps",
        dataset,
        attributed=items,
        sessions=sessions,
        app_categories={name: "Tools" for name in APPS},
    )
    total_tx = sum(row.tx_pct for row in result.per_app)
    total_data = sum(row.data_pct for row in result.per_app)
    assert total_tx == pytest.approx(100.0)
    assert total_data == pytest.approx(100.0)
    assert all(0.0 <= row.daily_users_pct <= 100.0 + 1e-9 for row in result.per_app)
    # Session transactions are conserved.
    assert sum(s.tx_count for s in sessions) == len(items)

