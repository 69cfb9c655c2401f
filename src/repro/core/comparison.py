"""Wearable owners vs the remaining customers (§4.3, Fig. 4(a-b)).

The unit of comparison is the *customer* (billing account): a wearable
owner's traffic includes both their phone SIM and their wearable SIM,
joined through the account directory — mirroring how the paper compares
"users that have wearable devices" against "all the data-active customers
of the ISP".  All totals are taken over the detailed window.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import log10

import numpy as np

from repro.core.dataset import StudyDataset
from repro.core.folds import _PartialState, _int_add
from repro.logs.columns import (
    add_counts as _add_counts,
    first_seen,
    group_sum,
    object_array,
)
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


@dataclass
class ComparisonPartial(_PartialState):
    """§4.3 owners-vs-general: per-account totals (account-disjoint)."""

    account_bytes: dict[str, int] = field(default_factory=dict)
    account_tx: dict[str, int] = field(default_factory=dict)
    account_wearable_bytes: dict[str, int] = field(default_factory=dict)
    owner_accounts: set[str] = field(default_factory=set)

    def consume(self, dataset: StudyDataset) -> None:
        proxy = dataset.proxy
        subscribers = proxy.column("subscriber_id")
        directory = dataset.account_directory
        accounts: dict[str, int] = {}
        entry_account = np.fromiter(
            (
                accounts.setdefault(directory[subscriber], len(accounts))
                if subscriber in directory
                else -1
                for subscriber in subscribers.values
            ),
            dtype=np.int64,
            count=len(subscribers.values),
        )
        account = entry_account[subscribers.codes]
        names = object_array(list(accounts))
        size = proxy.column("bytes_up") + proxy.column("bytes_down")
        rows = dataset.detailed_proxy_mask & (account >= 0)
        keys, group = first_seen(account[rows])
        labels = names[keys].tolist()
        _add_counts(
            self.account_bytes, labels, group_sum(group, size[rows], len(labels))
        )
        _add_counts(
            self.account_tx, labels, np.bincount(group, minlength=len(labels))
        )
        rows &= dataset.wearable_proxy_mask
        keys, group = first_seen(account[rows])
        labels = names[keys].tolist()
        _add_counts(
            self.account_wearable_bytes,
            labels,
            group_sum(group, size[rows], len(labels)),
        )
        self.owner_accounts |= dataset.wearable_accounts

    def merge(self, other: "ComparisonPartial") -> None:
        _int_add(self.account_bytes, other.account_bytes)
        _int_add(self.account_tx, other.account_tx)
        _int_add(self.account_wearable_bytes, other.account_wearable_bytes)
        self.owner_accounts |= other.owner_accounts

    def finalize(self) -> ComparisonResult:
        owner_bytes: list[float] = []
        owner_tx: list[float] = []
        general_bytes: list[float] = []
        general_tx: list[float] = []
        shares: list[float] = []
        for account in sorted(self.account_bytes):
            total = self.account_bytes[account]
            if account in self.owner_accounts:
                owner_bytes.append(float(total))
                owner_tx.append(float(self.account_tx[account]))
                wearable_part = self.account_wearable_bytes.get(account, 0)
                if wearable_part > 0 and total > 0:
                    shares.append(wearable_part / total)
            else:
                general_bytes.append(float(total))
                general_tx.append(float(self.account_tx[account]))
        if not owner_bytes or not general_bytes:
            raise ValueError(
                "need traffic from both owner and general accounts"
            )
        mean_owner_bytes = sum(owner_bytes) / len(owner_bytes)
        mean_general_bytes = sum(general_bytes) / len(general_bytes)
        mean_owner_tx = sum(owner_tx) / len(owner_tx)
        mean_general_tx = sum(general_tx) / len(general_tx)
        max_bytes = max(max(owner_bytes), max(general_bytes))
        share_ecdf = ECDF(shares) if shares else ECDF([0.0])
        orders = (
            sorted(-log10(share) for share in shares)[len(shares) // 2]
            if shares
            else 0.0
        )
        return ComparisonResult(
            n_wearable_accounts=len(owner_bytes),
            n_general_accounts=len(general_bytes),
            mean_bytes_wearable_owner=mean_owner_bytes,
            mean_bytes_general=mean_general_bytes,
            mean_tx_wearable_owner=mean_owner_tx,
            mean_tx_general=mean_general_tx,
            extra_data_percent=100.0
            * (mean_owner_bytes / mean_general_bytes - 1.0),
            extra_tx_percent=100.0 * (mean_owner_tx / mean_general_tx - 1.0),
            bytes_cdf_wearable_owner=ECDF(
                [b / max_bytes for b in owner_bytes]
            ),
            bytes_cdf_general=ECDF([b / max_bytes for b in general_bytes]),
            wearable_share=share_ecdf,
            median_share_orders_of_magnitude=orders,
            fraction_share_at_least_3pct=(
                1.0 - share_ecdf.fraction_below(0.03) if shares else 0.0
            ),
        )
