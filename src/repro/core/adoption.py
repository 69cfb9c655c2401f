"""Adoption trends over the five-month window (§4.1, Fig. 2).

Inputs are the five months of MME presence plus the proxy log; outputs are
the Fig. 2(a) normalized daily-user series, the growth rates, the
Fig. 2(b) first-vs-last-week retention split and the data-active fraction.
"""

from __future__ import annotations

from dataclasses import dataclass

#: A user whose last MME registration is at least this many days before
#: the window end is counted as having abandoned the wearable.
ABANDON_QUIET_DAYS = 28


@dataclass(frozen=True, slots=True)
class AdoptionResult:
    """Everything Section 4.1 reports."""

    #: Distinct wearable subscribers registered with the MME, per study day.
    daily_counts: list[int]
    #: The same series divided by the final-day count — the exact
    #: normalisation of Fig. 2(a) ("divided by the latest number of users").
    normalized_daily: list[float]
    #: Net growth per 30 days (paper: ~1.5%).
    monthly_growth_percent: float
    #: Net growth over the whole window (paper: ~9%).
    total_growth_percent: float
    #: Users registered at least once during the first week.
    first_week_users: int
    #: Fraction of first-week users not seen for the final
    #: :data:`ABANDON_QUIET_DAYS` days (paper: 7% "were not present").
    abandoned_fraction: float
    #: Fraction of first-week users registered again during the last week
    #: (paper: 77% "were still active").
    still_active_fraction: float
    #: Fraction of registered wearable users that ever generated a proxy
    #: transaction (paper: 34%).
    data_active_fraction: float
