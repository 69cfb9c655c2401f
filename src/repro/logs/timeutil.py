"""Time bucketing helpers shared by the simulator and the analyses.

All timestamps in the library are floating-point seconds since the Unix
epoch, interpreted as UTC.  Analyses bucket time relative to a *study start*
timestamp (the first instant of the observation window) so that day 0 is the
first observed day regardless of the absolute calendar date.

The array forms at the end (:func:`day_indices`,
:func:`hours_and_weekdays`) bucket a whole timestamp column at once and
equal the scalar forms element for element.
"""

from __future__ import annotations

from datetime import datetime, timezone

import numpy as np

SECONDS_PER_HOUR = 3600
SECONDS_PER_DAY = 24 * SECONDS_PER_HOUR
SECONDS_PER_WEEK = 7 * SECONDS_PER_DAY


def parse_timestamp(text: str) -> float:
    """Parse an ISO-8601 timestamp into epoch seconds (UTC).

    Naive timestamps are interpreted as UTC.

    >>> parse_timestamp("2017-12-15T00:00:00")
    1513296000.0
    """
    moment = datetime.fromisoformat(text)
    if moment.tzinfo is None:
        moment = moment.replace(tzinfo=timezone.utc)
    return moment.timestamp()


def format_timestamp(timestamp: float) -> str:
    """Render epoch seconds as an ISO-8601 UTC string (second precision)."""
    moment = datetime.fromtimestamp(timestamp, tz=timezone.utc)
    return moment.replace(microsecond=0).isoformat().replace("+00:00", "Z")


def day_index(timestamp: float, study_start: float) -> int:
    """Whole days elapsed since ``study_start`` (day 0 = first study day)."""
    return int((timestamp - study_start) // SECONDS_PER_DAY)


def hour_index(timestamp: float, study_start: float) -> int:
    """Whole hours elapsed since ``study_start``."""
    return int((timestamp - study_start) // SECONDS_PER_HOUR)


def week_index(timestamp: float, study_start: float) -> int:
    """Whole weeks elapsed since ``study_start``."""
    return int((timestamp - study_start) // SECONDS_PER_WEEK)


def hour_of_day(timestamp: float) -> int:
    """Hour of the (UTC) day, 0-23."""
    return datetime.fromtimestamp(timestamp, tz=timezone.utc).hour


def weekday(timestamp: float) -> int:
    """Day of week, Monday=0 .. Sunday=6 (UTC)."""
    return datetime.fromtimestamp(timestamp, tz=timezone.utc).weekday()


def is_weekend(timestamp: float) -> bool:
    """True when the (UTC) timestamp falls on Saturday or Sunday."""
    return weekday(timestamp) >= 5


# ------------------------------------------------------------ array forms
def utc_seconds(timestamps: np.ndarray) -> np.ndarray:
    """Whole UTC seconds of each timestamp, as ``datetime`` resolves them.

    ``datetime.fromtimestamp`` rounds a timestamp to the microsecond, half
    to even (``np.rint``), and a fraction that rounds to a full second
    carries into the seconds; :func:`hour_of_day` and :func:`weekday` read
    those seconds.  Non-finite timestamps give meaningless values.
    """
    timestamps = np.asarray(timestamps, dtype=np.float64)
    whole = np.trunc(timestamps)
    # ``timestamps - whole`` is exact: it is C ``modf``'s fraction.
    micros = np.rint((timestamps - whole) * 1e6)
    whole += micros >= 1e6
    whole -= micros < 0
    with np.errstate(invalid="ignore"):
        return whole.astype(np.int64)


def hours_and_weekdays(timestamps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`hour_of_day` and :func:`weekday` of each timestamp, from one
    rounding pass (1970-01-01 was a Thursday, weekday 3)."""
    seconds = utc_seconds(timestamps)
    return (
        seconds % SECONDS_PER_DAY // SECONDS_PER_HOUR,
        (seconds // SECONDS_PER_DAY + 3) % 7,
    )


def day_indices(timestamps: np.ndarray, study_start: float) -> np.ndarray:
    """:func:`day_index` of each timestamp, as int64.

    ``np.floor_divide`` on floats runs the same divmod as Python's ``//``.
    """
    days = np.floor_divide(
        np.asarray(timestamps, dtype=np.float64) - study_start, SECONDS_PER_DAY
    )
    with np.errstate(invalid="ignore"):
        return days.astype(np.int64)
