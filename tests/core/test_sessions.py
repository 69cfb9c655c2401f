"""Unit and property tests for one-minute-gap sessionisation (§5.1).

Each case is stated as attributed rows and run through
:func:`~repro.core.sessions.session_table`, read back as rows
(``tests.core.helpers.sessionize``).
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.sessions import DEFAULT_SESSION_GAP_S
from repro.logs.records import ProxyRecord
from tests.core.helpers import AttributedRecord, sessionize


def attributed(
    ts: float,
    app: str | None = "Weather",
    subscriber: str = "s1",
    size: int = 1000,
) -> AttributedRecord:
    record = ProxyRecord(
        timestamp=ts,
        subscriber_id=subscriber,
        imei="358847080000011",
        host="h.example",
        bytes_down=size,
    )
    return AttributedRecord(record=record, app=app, domain_category="application")


class TestSessionize:
    def test_close_transactions_form_one_session(self):
        items = [attributed(0.0), attributed(10.0), attributed(50.0)]
        sessions = sessionize(items)
        assert len(sessions) == 1
        session = sessions[0]
        assert session.tx_count == 3
        assert session.bytes_total == 3000
        assert session.start == 0.0
        assert session.end == 50.0

    def test_gap_splits_sessions(self):
        items = [attributed(0.0), attributed(30.0), attributed(120.0)]
        sessions = sessionize(items)
        assert [s.tx_count for s in sessions] == [2, 1]

    def test_exact_gap_boundary_splits(self):
        items = [attributed(0.0), attributed(DEFAULT_SESSION_GAP_S)]
        assert len(sessionize(items)) == 2

    def test_just_under_gap_merges(self):
        items = [attributed(0.0), attributed(DEFAULT_SESSION_GAP_S - 0.001)]
        assert len(sessionize(items)) == 1

    def test_different_apps_never_merge(self):
        items = [attributed(0.0, app="Weather"), attributed(1.0, app="WhatsApp")]
        sessions = sessionize(items)
        assert len(sessions) == 2
        assert {s.app for s in sessions} == {"Weather", "WhatsApp"}

    def test_different_subscribers_never_merge(self):
        items = [attributed(0.0, subscriber="a"), attributed(1.0, subscriber="b")]
        assert len(sessionize(items)) == 2

    def test_unattributed_records_skipped(self):
        items = [attributed(0.0, app=None), attributed(1.0)]
        sessions = sessionize(items)
        assert len(sessions) == 1
        assert sessions[0].tx_count == 1

    def test_unsorted_input_handled(self):
        items = [attributed(50.0), attributed(0.0), attributed(10.0)]
        sessions = sessionize(items)
        assert len(sessions) == 1
        assert sessions[0].tx_count == 3

    def test_custom_gap(self):
        items = [attributed(0.0), attributed(30.0)]
        assert len(sessionize(items, gap_seconds=10.0)) == 2
        assert len(sessionize(items, gap_seconds=31.0)) == 1

    def test_invalid_gap_rejected(self):
        with pytest.raises(ValueError):
            sessionize([], gap_seconds=0.0)

    def test_is_interactive_threshold(self):
        one = sessionize([attributed(0.0)])[0]
        three = sessionize([attributed(0.0), attributed(1.0), attributed(2.0)])[0]
        assert not one.is_interactive
        assert three.is_interactive

    def test_sessions_sorted_by_start(self):
        items = [
            attributed(500.0, subscriber="b"),
            attributed(0.0, subscriber="a"),
        ]
        sessions = sessionize(items)
        assert [s.start for s in sessions] == [0.0, 500.0]


class TestSessionizeProperties:
    timestamps = st.lists(
        st.floats(min_value=0.0, max_value=10_000.0, allow_nan=False),
        min_size=1,
        max_size=60,
    )

    @given(timestamps)
    def test_transactions_conserved(self, times):
        items = [attributed(t) for t in times]
        sessions = sessionize(items)
        assert sum(s.tx_count for s in sessions) == len(times)
        assert sum(s.bytes_total for s in sessions) == 1000 * len(times)

    @given(timestamps)
    def test_sessions_respect_gap(self, times):
        items = [attributed(t) for t in times]
        for session in sessionize(items):
            assert session.end - session.start < DEFAULT_SESSION_GAP_S * max(
                1, session.tx_count
            )

    @given(timestamps, st.floats(min_value=1.0, max_value=120.0))
    def test_smaller_gap_never_fewer_sessions(self, times, gap):
        items = [attributed(t) for t in times]
        narrow = len(sessionize(items, gap_seconds=gap))
        wide = len(sessionize(items, gap_seconds=gap * 2))
        assert narrow >= wide

