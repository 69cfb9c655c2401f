"""Unit tests for time bucketing helpers."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.dataset import StudyWindow
from repro.logs.timeutil import (
    SECONDS_PER_DAY,
    SECONDS_PER_HOUR,
    SECONDS_PER_WEEK,
    day_index,
    day_indices,
    format_timestamp,
    hour_index,
    hour_of_day,
    hours_and_weekdays,
    is_weekend,
    parse_timestamp,
    week_index,
    weekday,
)

STUDY_START = parse_timestamp("2017-12-15T00:00:00")  # a Friday


class TestParseFormat:
    def test_parse_known_timestamp(self):
        assert parse_timestamp("2017-12-15T00:00:00") == 1_513_296_000.0

    def test_naive_timestamps_are_utc(self):
        assert parse_timestamp("2018-01-01T00:00:00") == parse_timestamp(
            "2018-01-01T00:00:00+00:00"
        )

    def test_format_roundtrip(self):
        text = "2018-05-14T12:34:56"
        assert format_timestamp(parse_timestamp(text)) == text + "Z"

    @given(st.integers(min_value=0, max_value=2_000_000_000))
    def test_parse_inverts_format(self, epoch: int):
        assert parse_timestamp(format_timestamp(float(epoch))) == float(epoch)


class TestBucketing:
    def test_day_zero_is_study_start(self):
        assert day_index(STUDY_START, STUDY_START) == 0
        assert day_index(STUDY_START + SECONDS_PER_DAY - 1, STUDY_START) == 0
        assert day_index(STUDY_START + SECONDS_PER_DAY, STUDY_START) == 1

    def test_hour_index(self):
        assert hour_index(STUDY_START + 3 * SECONDS_PER_HOUR, STUDY_START) == 3
        assert hour_index(STUDY_START + 25 * SECONDS_PER_HOUR, STUDY_START) == 25

    def test_week_index(self):
        assert week_index(STUDY_START + SECONDS_PER_WEEK - 1, STUDY_START) == 0
        assert week_index(STUDY_START + SECONDS_PER_WEEK, STUDY_START) == 1

    @given(st.integers(min_value=0, max_value=365 * SECONDS_PER_DAY))
    def test_indices_consistent(self, offset: int):
        ts = STUDY_START + offset
        assert day_index(ts, STUDY_START) == hour_index(ts, STUDY_START) // 24
        assert week_index(ts, STUDY_START) == day_index(ts, STUDY_START) // 7


class TestCalendar:
    def test_study_start_is_friday(self):
        assert weekday(STUDY_START) == 4
        assert not is_weekend(STUDY_START)

    def test_saturday_and_sunday_are_weekend(self):
        saturday = STUDY_START + SECONDS_PER_DAY
        sunday = STUDY_START + 2 * SECONDS_PER_DAY
        monday = STUDY_START + 3 * SECONDS_PER_DAY
        assert is_weekend(saturday)
        assert is_weekend(sunday)
        assert not is_weekend(monday)

    def test_hour_of_day(self):
        assert hour_of_day(STUDY_START) == 0
        assert hour_of_day(STUDY_START + 13 * SECONDS_PER_HOUR + 59) == 13

    @given(st.integers(min_value=0, max_value=10_000))
    def test_week_cycles(self, days: int):
        ts = STUDY_START + days * SECONDS_PER_DAY
        assert weekday(ts) == (4 + days) % 7


class TestArrayForms:
    """The array forms equal the scalar ``datetime`` helpers element for
    element, including ``datetime``'s round-half-even microsecond step
    (a timestamp within half a microsecond of the next second belongs to
    that second)."""

    #: Offsets around an hour or midnight boundary, in seconds.
    OFFSETS = (
        0.0, 1e-7, 4.99999e-7, 5e-7, 5.000001e-7, 1e-6,
        -1e-7, -4.99999e-7, -5e-7, -5.000001e-7, -1e-6,
    )

    #: Hour boundaries over two days either side of the study start
    #: (which is a midnight), plus midnights over three weeks either side.
    BOUNDARIES = [STUDY_START + hour * SECONDS_PER_HOUR for hour in range(-48, 49)] + [
        STUDY_START + day * SECONDS_PER_DAY for day in range(-21, 22)
    ]

    @staticmethod
    def assert_matches(timestamps):
        array = np.array(timestamps, dtype=np.float64)
        window = StudyWindow(study_start=STUDY_START, total_days=70, detailed_days=28)
        hours, days_of_week = (column.tolist() for column in hours_and_weekdays(array))
        days = day_indices(array, STUDY_START).tolist()
        for index, ts in enumerate(array.tolist()):
            assert hours[index] == hour_of_day(ts), ts
            assert days_of_week[index] == weekday(ts), ts
            assert (days_of_week[index] >= 5) == is_weekend(ts), ts
            assert days[index] == window.day_of(ts), ts

    def test_edge_set(self):
        edges = [
            boundary + offset
            for boundary in self.BOUNDARIES
            for offset in self.OFFSETS
        ]
        self.assert_matches(edges)

    #: Timestamps whose microsecond fraction is exactly half a
    #: microsecond (``fraction * 1e6`` is ``n + 0.5`` with no rounding):
    #: ``datetime`` rounds them half to even, so 0.9999995 carries into
    #: second 1 and ±5e-7 stay in second 0.
    TIES = (0.9999995, 5e-7, -5e-7, -0.9999995, 1.0000005)

    def test_exact_ties(self):
        assert (0.9999995 % 1) * 1e6 == 999999.5
        self.assert_matches(self.TIES)
        assert hours_and_weekdays(np.array([0.9999995]))[1].tolist() == [3]

    def test_edge_set_crosses_a_boundary(self):
        # The set is only meaningful if it contains both rounding
        # directions: a timestamp just before a boundary that datetime
        # puts after it, and one it keeps before it.
        before = STUDY_START - 4.99999e-7
        assert hour_of_day(before) == 0 and weekday(before) == weekday(STUDY_START)
        earlier = STUDY_START - 1e-6
        assert hour_of_day(earlier) == 23

    def test_negative_days(self):
        days = day_indices(
            np.array([STUDY_START - 1e-6, STUDY_START - SECONDS_PER_DAY - 1.0]),
            STUDY_START,
        )
        assert days.tolist() == [-1, -2]

    @given(
        st.lists(
            st.one_of(
                st.floats(
                    min_value=STUDY_START - 400 * SECONDS_PER_DAY,
                    max_value=STUDY_START + 400 * SECONDS_PER_DAY,
                    allow_nan=False,
                ),
                st.builds(
                    lambda second, offset: STUDY_START + second + offset,
                    st.integers(-400 * SECONDS_PER_DAY, 400 * SECONDS_PER_DAY),
                    st.sampled_from(
                        [0.0, 5e-7, -5e-7, 1.5e-6, 0.4999995, 0.9999995, -0.9999995]
                    ),
                ),
            ),
            min_size=1,
            max_size=50,
        )
    )
    def test_matches_scalar_helpers(self, timestamps):
        self.assert_matches(timestamps)
