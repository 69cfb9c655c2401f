"""User activity analysis over the detailed window (§4.2-4.3, Fig. 3).

Everything here consumes the wearable transactions of the detailed
seven-week window and produces:

* the Fig. 3(a) hourly profiles (active users / transactions / data, split
  weekday vs weekend, normalised by average weekly totals);
* the Fig. 3(b) CDFs of active days per week and active hours per day;
* the Fig. 3(c) transaction-size CDF and per-user hourly averages;
* the Fig. 3(d) relation between hours of activity and hourly transaction
  rate.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.stats.cdf import ECDF
from repro.stats.correlation import BinnedTrend


@dataclass(frozen=True, slots=True)
class HourlyProfile:
    """Fig. 3(a): per hour-of-day series, weekday and weekend.

    Each list has 24 entries; values are fractions of the average weekly
    total (users: of distinct weekly-active users; tx/bytes: of the weekly
    sums), exactly the paper's normalisation.
    """

    weekday_users: list[float]
    weekend_users: list[float]
    weekday_tx: list[float]
    weekend_tx: list[float]
    weekday_bytes: list[float]
    weekend_bytes: list[float]


@dataclass(frozen=True, slots=True)
class ActivityResult:
    """Everything Sections 4.2-4.3 report about wearable activity."""

    hourly: HourlyProfile
    #: Per-user CDFs (Fig. 3(b)).
    active_days_per_week: ECDF
    active_hours_per_day: ECDF
    #: Per-transaction size CDF in bytes (Fig. 3(c)).
    transaction_sizes: ECDF
    #: Per-user hourly averages (Fig. 3(c) overlays).
    hourly_tx_per_user: ECDF
    hourly_bytes_per_user: ECDF
    #: Fig. 3(d): mean tx-per-active-hour binned by active hours per day.
    tx_rate_vs_hours: list[BinnedTrend]
    tx_rate_hours_correlation: float
    #: Headline statistics.
    mean_active_days_per_week: float
    mean_active_hours_per_day: float
    fraction_users_over_10h: float
    fraction_users_under_5h: float
    fraction_tx_under_10kb: float
    median_tx_bytes: float
    mean_tx_bytes: float
    #: Average share of a week's active users that are active on one day
    #: (paper: ~35%).
    daily_active_share_of_weekly: float
