"""Through-device wearable fingerprinting (§6).

Most wearables relay traffic through a paired smartphone, so they never
appear under their own IMEI.  The paper fingerprints them from the phone's
traffic: Fitbit and Xiaomi sync endpoints "can be directly attributed to
wearables", and the wearable-specific endpoints of AccuWeather, Strava and
Runtastic "safely indicate that the user has an active wearable device".

The fingerprint signatures below mirror those public endpoints.  Detection
covers only a fraction of real through-device owners (the paper estimates
~16% from market reports); the panel's partial,
:class:`ThroughDevicePartial`, scales the detected count by that assumed
coverage to estimate the total.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.dataset import StudyDataset, StudyWindow
from repro.core.folds import _PartialState, _disjoint_update, _general, _int_add
from repro.core.mobility import _daily_displacement
from repro.devicedb.database import DeviceDatabase
from repro.logs.columns import (
    add_counts as _add_counts,
    first_seen,
    group_ends,
    group_sum,
)

#: Host signatures that safely indicate an active through-device wearable.
TD_FINGERPRINT_HOSTS: dict[str, str] = {
    "android.api.fitbit.com": "fitbit",
    "api-mifit.huami.com": "xiaomi",
    "wearable.accuweather.com": "accuweather",
    "wearos.strava.com": "strava",
    "wear.runtastic.com": "runtastic",
}

#: The paper's market-report estimate: the fingerprintable set covers ~16%
#: of all through-device wearable users.
ASSUMED_COVERAGE = 0.16


@dataclass(frozen=True, slots=True)
class ThroughDeviceResult:
    """Everything the Section 6 preliminary analysis reports."""

    detected_users: int
    detected_by_kind: dict[str, int]
    #: Detected users as a fraction of the general (non-owner) data users.
    detected_fraction_of_general: float
    #: Detected count divided by the assumed fingerprint coverage.
    estimated_total_td_users: float
    #: Behaviour comparison: through-device vs the remaining general users.
    mean_daily_tx_td: float
    mean_daily_tx_other: float
    mean_daily_bytes_td: float
    mean_daily_bytes_other: float
    mean_displacement_td_km: float
    mean_displacement_other_km: float
    #: Handset modernity (paper: "relatively modern smartphones").
    mean_phone_year_td: float
    mean_phone_year_other: float


@dataclass
class ThroughDevicePartial(_PartialState):
    """§6 through-device fingerprinting, per general subscriber."""

    detected_kind: dict[str, str] = field(default_factory=dict)
    tx_count: dict[str, int] = field(default_factory=dict)
    byte_count: dict[str, int] = field(default_factory=dict)
    phone_imei: dict[str, str] = field(default_factory=dict)
    displacement_mean: dict[str, float] = field(default_factory=dict)

    def consume(self, dataset: StudyDataset) -> None:
        proxy = dataset.proxy
        rows = np.flatnonzero(
            ~dataset.wearable_proxy_mask
            & dataset.detailed_proxy_mask
            & _general(dataset, proxy)
        )
        subscribers = proxy.column("subscriber_id")
        keys, group = first_seen(subscribers.codes[rows])
        names = subscribers.values[keys].tolist()
        _add_counts(self.tx_count, names, np.bincount(group, minlength=len(names)))
        size = proxy.column("bytes_up")[rows] + proxy.column("bytes_down")[rows]
        _add_counts(self.byte_count, names, group_sum(group, size, len(names)))
        first, _ = group_ends(group, len(names))
        imeis = proxy.column("imei")
        for name, imei in zip(
            names, imeis.values[imeis.codes[rows[first]]].tolist()
        ):
            self.phone_imei.setdefault(name, imei)
        hosts = proxy.column("host")
        kinds = [TD_FINGERPRINT_HOSTS.get(host) for host in hosts.values.tolist()]
        marked = np.flatnonzero(
            np.array([kind is not None for kind in kinds], dtype=bool)[
                hosts.codes[rows]
            ]
        )
        keys, group = first_seen(group[marked])
        _, last = group_ends(group, len(keys))
        for key, host in zip(
            keys.tolist(), hosts.codes[rows[marked[last]]].tolist()
        ):
            self.detected_kind[names[key]] = kinds[host]
        general = np.flatnonzero(
            dataset.detailed_mme_mask
            & ~dataset.wearable_mme_mask
            & _general(dataset, dataset.mme)
        )
        names, _, _, means = _daily_displacement(dataset, general)
        self.displacement_mean.update(zip(names, means))

    def merge(self, other: "ThroughDevicePartial") -> None:
        _disjoint_update(self.detected_kind, other.detected_kind)
        _int_add(self.tx_count, other.tx_count)
        _int_add(self.byte_count, other.byte_count)
        _disjoint_update(self.phone_imei, other.phone_imei)
        _disjoint_update(self.displacement_mean, other.displacement_mean)

    def finalize(
        self,
        window: StudyWindow,
        device_db: DeviceDatabase,
        assumed_coverage: float = ASSUMED_COVERAGE,
    ) -> ThroughDeviceResult:
        if not 0.0 < assumed_coverage <= 1.0:
            raise ValueError("assumed_coverage must be in (0, 1]")
        general_users = set(self.tx_count)
        td_users = set(self.detected_kind)
        other_users = general_users - td_users
        if not td_users or not other_users:
            raise ValueError(
                "need both detected and undetected general users"
            )
        by_kind: dict[str, int] = {}
        for kind in self.detected_kind.values():
            by_kind[kind] = by_kind.get(kind, 0) + 1
        days = max(1, window.detailed_days)

        def mean_daily(counter: dict[str, int], users: set[str]) -> float:
            return sum(counter[u] for u in users) / len(users) / days

        def mean_displacement(users: set[str]) -> float:
            values = [
                self.displacement_mean[s]
                for s in sorted(users)
                if s in self.displacement_mean
            ]
            return sum(values) / len(values) if values else 0.0

        def mean_year(users: set[str]) -> float:
            years: list[int] = []
            for subscriber in sorted(users):
                imei = self.phone_imei.get(subscriber)
                if imei is None:
                    continue
                model = device_db.lookup_imei(imei)
                if model is not None:
                    years.append(model.release_year)
            return sum(years) / len(years) if years else 0.0

        return ThroughDeviceResult(
            detected_users=len(td_users),
            detected_by_kind=by_kind,
            detected_fraction_of_general=len(td_users) / len(general_users),
            estimated_total_td_users=len(td_users) / assumed_coverage,
            mean_daily_tx_td=mean_daily(self.tx_count, td_users),
            mean_daily_tx_other=mean_daily(self.tx_count, other_users),
            mean_daily_bytes_td=mean_daily(self.byte_count, td_users),
            mean_daily_bytes_other=mean_daily(self.byte_count, other_users),
            mean_displacement_td_km=mean_displacement(td_users),
            mean_displacement_other_km=mean_displacement(other_users),
            mean_phone_year_td=mean_year(td_users),
            mean_phone_year_other=mean_year(other_users),
        )
