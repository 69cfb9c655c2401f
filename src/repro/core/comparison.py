"""Wearable owners vs the remaining customers (§4.3, Fig. 4(a-b)).

The unit of comparison is the *customer* (billing account): a wearable
owner's traffic includes both their phone SIM and their wearable SIM,
joined through the account directory — mirroring how the paper compares
"users that have wearable devices" against "all the data-active customers
of the ISP".  All totals are taken over the detailed window.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.stats.cdf import ECDF


@dataclass(frozen=True, slots=True)
class ComparisonResult:
    """Fig. 4(a-b) and the +26% / +48% headline numbers."""

    n_wearable_accounts: int
    n_general_accounts: int
    #: Mean per-account totals over the window.
    mean_bytes_wearable_owner: float
    mean_bytes_general: float
    mean_tx_wearable_owner: float
    mean_tx_general: float
    #: Ratios minus one, in percent (paper: +26% data, +48% transactions).
    extra_data_percent: float
    extra_tx_percent: float
    #: Fig. 4(a): per-account byte totals normalised by the maximum
    #: (the paper's confidentiality normalisation), as CDFs.
    bytes_cdf_wearable_owner: ECDF
    bytes_cdf_general: ECDF
    #: Fig. 4(b): the wearable device's share of its owner's total traffic,
    #: over accounts with any wearable traffic.
    wearable_share: ECDF
    #: Median number of decimal orders of magnitude between a user's
    #: overall traffic and their wearable's traffic (paper: ~3).
    median_share_orders_of_magnitude: float
    #: Fraction of owners whose wearable contributes at least 3% of their
    #: traffic (paper: ~10%).
    fraction_share_at_least_3pct: float
