"""Full through-device characterisation — the paper's stated future work.

Section 6 closes with: "A detailed analysis of traffic and users of those
devices is left as future work."  This module is that analysis, run over
the fingerprintable through-device population:

* **sync-traffic microscopics** — flows per user-day, bytes per user-day
  and the hourly profile of wearable sync traffic relayed through phones;
* **three-way behaviour comparison** — through-device owners vs
  SIM-wearable owners vs the remaining customers, on daily traffic,
  daily max displacement and dwell-time location entropy;
* **similarity scores** — cosine similarity between the through-device
  sync hourly profile and the SIM-wearable transaction profile, making
  "similar macroscopic behavior" a number instead of a remark.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from repro.core.dataset import StudyDataset
from repro.core.mobility import dwell_entropy, dwell_intervals
from repro.core.parallel import _daily_displacement, _general
from repro.core.throughdevice import TD_FINGERPRINT_HOSTS
from repro.logs.columns import distinct, first_seen, group_sum
from repro.logs.timeutil import day_indices, hours_and_weekdays
from repro.stats.cdf import ECDF


@dataclass(frozen=True, slots=True)
class GroupBehaviour:
    """Per-user-group behaviour aggregates."""

    users: int
    mean_daily_tx: float
    mean_daily_bytes: float
    mean_displacement_km: float
    mean_entropy_bits: float


@dataclass(frozen=True, slots=True)
class ThroughDeviceFullResult:
    """The future-work §6 analysis."""

    #: Sync traffic relayed through the phone, per detected user-day.
    sync_tx_per_user_day: float
    sync_bytes_per_user_day: float
    #: Hourly share of sync transactions (24 values summing to 1).
    sync_hourly_profile: list[float]
    #: Daily bytes per user, per group.
    daily_bytes_td: ECDF
    daily_bytes_general: ECDF
    #: Behaviour aggregates for the three populations.
    through_device: GroupBehaviour
    sim_wearable: GroupBehaviour
    general: GroupBehaviour
    #: Cosine similarity between the TD sync hourly profile and the
    #: SIM-wearable transaction hourly profile (1.0 = identical shape).
    hourly_similarity_td_vs_sim: float


def _cosine(a: list[float], b: list[float]) -> float:
    dot = sum(x * y for x, y in zip(a, b))
    norm_a = sqrt(sum(x * x for x in a))
    norm_b = sqrt(sum(y * y for y in b))
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return dot / (norm_a * norm_b)


def _hourly_share(counts: list[int]) -> list[float]:
    total = sum(counts)
    if total == 0:
        return [0.0] * 24
    return [count / total for count in counts]


def analyze_through_device_full(dataset: StudyDataset) -> ThroughDeviceFullResult:
    """Run the full §6 characterisation over the detailed window.

    The three populations are row masks: phone traffic of subscribers
    outside every wearable-owner account (through-device users are
    those with a fingerprint host among it, the general users the
    rest), and wearable traffic.  Traffic is summed per subscriber
    dictionary entry; mobility reads the MME rows of each side through
    :func:`~repro.core.mobility.daily_displacement` and
    :func:`~repro.core.mobility.dwell_entropy`, and each group's means
    are summed in the order of the subscribers' first MME rows.
    """
    window = dataset.window
    proxy, mme = dataset.proxy, dataset.mme
    subscribers = proxy.column("subscriber_id")
    entries = len(subscribers.values)
    detailed = dataset.detailed_proxy_mask
    phone = np.flatnonzero(
        ~dataset.wearable_proxy_mask & detailed & _general(dataset, proxy)
    )
    wearable = np.flatnonzero(dataset.wearable_proxy_mask & detailed)
    timestamps = proxy.column("timestamp")
    size = proxy.column("bytes_up") + proxy.column("bytes_down")

    # ---------------------------------------------------------- partitions
    owner = subscribers.codes[phone]
    phone_tx = np.bincount(owner, minlength=entries)
    phone_bytes = group_sum(owner, size[phone], entries)
    sync = phone[proxy.entry_mask("host", TD_FINGERPRINT_HOSTS.__contains__)[phone]]
    td = np.zeros(entries, dtype=bool)
    td[subscribers.codes[sync]] = True
    if not td.any():
        raise ValueError("no fingerprintable through-device users in trace")
    general = (phone_tx > 0) & ~td
    day = day_indices(timestamps, window.study_start)
    sync_user_days = len(distinct(subscribers.codes[sync], day[sync])[0])

    # ------------------------------------------------------- SIM wearables
    wearable_tx = np.bincount(subscribers.codes[wearable], minlength=entries)
    wearable_bytes = group_sum(subscribers.codes[wearable], size[wearable], entries)

    # ------------------------------------------------------------ mobility
    detailed_mme = dataset.detailed_mme_mask

    def mobility(rows: np.ndarray) -> dict[str, tuple[float, float]]:
        """Each subscriber's mean daily displacement and dwell entropy,
        in first-row order."""
        names, codes, _, means = _daily_displacement(dataset, rows)
        entropy = dwell_entropy(dwell_intervals(mme, rows, window.study_start))
        return dict(zip(names, zip(means, entropy[codes].tolist())))

    phone_mobility = mobility(
        np.flatnonzero(
            detailed_mme & ~dataset.wearable_mme_mask & _general(dataset, mme)
        )
    )
    wearable_mobility = mobility(
        np.flatnonzero(detailed_mme & dataset.wearable_mme_mask)
    )

    days = max(1, window.detailed_days)

    def group(
        users: np.ndarray,
        tx: np.ndarray,
        volume: np.ndarray,
        moves: dict[str, tuple[float, float]],
    ) -> GroupBehaviour:
        count = int(users.sum())
        if not count:
            return GroupBehaviour(0, 0.0, 0.0, 0.0, 0.0)
        names = set(subscribers.values[users].tolist())
        means = [pair for name, pair in moves.items() if name in names]
        return GroupBehaviour(
            users=count,
            mean_daily_tx=int(tx[users].sum()) / count / days,
            mean_daily_bytes=int(volume[users].sum()) / count / days,
            mean_displacement_km=(
                sum(m for m, _ in means) / len(means) if means else 0.0
            ),
            mean_entropy_bits=(
                sum(e for _, e in means) / len(means) if means else 0.0
            ),
        )

    def daily_bytes_ecdf(users: np.ndarray) -> ECDF:
        """Bytes of each (user, study day) of ``users``' phone traffic."""
        rows = phone[users[subscribers.codes[phone]]]
        keys, pair = first_seen(
            subscribers.codes[rows].astype(np.int64) * window.total_days + day[rows]
        )
        values = group_sum(pair, size[rows], len(keys)).tolist()
        return ECDF(values) if values else ECDF([0.0])

    sync_hourly = _hours(timestamps[sync])
    return ThroughDeviceFullResult(
        sync_tx_per_user_day=len(sync) / max(1, sync_user_days),
        sync_bytes_per_user_day=int(size[sync].sum()) / max(1, sync_user_days),
        sync_hourly_profile=_hourly_share(sync_hourly),
        daily_bytes_td=daily_bytes_ecdf(td),
        daily_bytes_general=daily_bytes_ecdf(general),
        through_device=group(td, phone_tx, phone_bytes, phone_mobility),
        sim_wearable=group(
            wearable_tx > 0, wearable_tx, wearable_bytes, wearable_mobility
        ),
        general=group(general, phone_tx, phone_bytes, phone_mobility),
        hourly_similarity_td_vs_sim=_cosine(
            _hourly_share(sync_hourly),
            _hourly_share(_hours(timestamps[wearable])),
        ),
    )


def _hours(timestamps: np.ndarray) -> list[int]:
    """Rows per UTC hour of day."""
    return np.bincount(hours_and_weekdays(timestamps)[0], minlength=24).tolist()
