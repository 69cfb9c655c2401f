"""Through-device wearable fingerprinting (§6).

Most wearables relay traffic through a paired smartphone, so they never
appear under their own IMEI.  The paper fingerprints them from the phone's
traffic: Fitbit and Xiaomi sync endpoints "can be directly attributed to
wearables", and the wearable-specific endpoints of AccuWeather, Strava and
Runtastic "safely indicate that the user has an active wearable device".

The fingerprint signatures below mirror those public endpoints.  Detection
covers only a fraction of real through-device owners (the paper estimates
~16% from market reports); the analysis
(:class:`repro.core.parallel.ThroughDevicePartial`) scales the detected
count by that assumed coverage to estimate the total.
"""

from __future__ import annotations

from dataclasses import dataclass

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
