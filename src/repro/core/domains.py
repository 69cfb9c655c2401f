"""Per-usage microscopics and third-party domain analysis (§5.2, Figs. 7-8).

Fig. 7 reports, per app, the transactions and data moved during *one
usage* (a one-minute-gap session).  Fig. 8 splits all wearable traffic by
domain category — Application (first party), Utilities (CDNs),
Advertising, Analytics — and shows that third-party volumes sit in the
same order of magnitude as first-party volumes.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class SingleUsageStats:
    """One bar pair of Fig. 7."""

    app: str
    mean_tx_per_usage: float
    mean_kb_per_usage: float
    usage_count: int


@dataclass(frozen=True, slots=True)
class DomainCategoryStats:
    """One bar group of Fig. 8."""

    category: str
    users_pct: float
    usage_freq_pct: float
    data_pct: float


@dataclass(frozen=True, slots=True)
class DomainsResult:
    """Figs. 7-8 series."""

    #: Fig. 7: per-app single-usage statistics, largest data first.
    per_app_usage: list[SingleUsageStats]
    #: Fig. 8: the four domain categories.
    per_domain_category: list[DomainCategoryStats]
    #: Bytes to advertising+analytics over bytes to first party — the
    #: "same order of magnitude" claim means this sits within [0.1, 10].
    third_party_data_ratio: float
