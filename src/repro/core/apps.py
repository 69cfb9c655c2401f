"""App and category popularity (§5.1, Figs. 5 and 6) plus app headcounts.

All metrics follow the paper's normalisation: per-app (or per-category)
daily averages expressed as a percentage of the daily total across all
apps.  Sessions come from the one-minute-gap sessionisation; a *used day*
is a (user, app, day) with at least one attributed transaction.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.stats.cdf import ECDF

#: A user whose average distinct-interactive-apps-per-active-day is at or
#: below this threshold counts as a one-app-per-day user (paper: 93%).
SINGLE_APP_THRESHOLD = 1.05


@dataclass(frozen=True, slots=True)
class AppDailyStats:
    """One row of Figs. 5(a) and 5(b)."""

    app: str
    category: str
    #: Fig. 5(a): average daily users of the app as % of all daily users.
    daily_users_pct: float
    #: Fig. 5(a): average fraction of window days a user uses the app, %.
    used_days_per_user_pct: float
    #: Fig. 5(b): the app's share of usage sessions per day, %.
    usage_freq_pct: float
    #: Fig. 5(b): the app's share of transactions, %.
    tx_pct: float
    #: Fig. 5(b): the app's share of transferred data, %.
    data_pct: float


@dataclass(frozen=True, slots=True)
class CategoryStats:
    """One bar group of Fig. 6."""

    category: str
    users_pct: float
    usage_freq_pct: float
    tx_pct: float
    data_pct: float


@dataclass(frozen=True, slots=True)
class AppsResult:
    """Figs. 5-6 series plus the Section 4.3 app headcounts."""

    per_app: list[AppDailyStats]
    per_category: list[CategoryStats]
    #: Category names ranked by each Fig. 6 metric, best first.
    category_rank_users: list[str]
    category_rank_freq: list[str]
    category_rank_tx: list[str]
    category_rank_data: list[str]
    #: Distinct apps observed per user over the window (paper: mean 8,
    #: 90% under 20, a few heavy users above 100).
    apps_per_user: ECDF
    mean_apps_per_user: float
    fraction_users_under_20_apps: float
    #: Fraction of users running a single app per active day (paper: 93%).
    fraction_single_app_users: float
