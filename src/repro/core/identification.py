"""Wearable identification from IMEIs via the device database (§3.2).

The paper "prepared a list of all SIM-enabled wearable device models ...
leverage[d] the DeviceDB to associate these models with their respective
IMEI ranges and finally ... search[ed] for these IMEIs in the traffic
logs".  :class:`WearableIdentifier` is that procedure: a TAC-set membership
test plus the device-model lookup.  The device census itself (distinct
wearables by model, manufacturer and OS) is the ``census`` panel of
:mod:`repro.core.parallel`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.devicedb.database import DeviceDatabase, DeviceModel
from repro.logs.records import MmeRecord, ProxyRecord


@dataclass(frozen=True, slots=True)
class DeviceCensus:
    """Counts of distinct wearable devices seen in the logs."""

    total_devices: int
    devices_per_model: dict[str, int]
    devices_per_manufacturer: dict[str, int]
    devices_per_os: dict[str, int]


class WearableIdentifier:
    """TAC-based wearable classifier backed by a device database."""

    def __init__(self, device_db: DeviceDatabase) -> None:
        self._db = device_db
        self._wearable_tacs = device_db.wearable_tacs()

    @property
    def wearable_tacs(self) -> frozenset[str]:
        """The identification list: every SIM-wearable TAC."""
        return self._wearable_tacs

    def is_wearable(self, imei: str) -> bool:
        """Whether an IMEI belongs to a SIM-enabled wearable model."""
        return imei[:8] in self._wearable_tacs

    def model_of(self, imei: str) -> DeviceModel | None:
        """The device model behind an IMEI, when the TAC is known."""
        return self._db.lookup_imei(imei)

    def filter_wearable(
        self, records: Iterable[ProxyRecord | MmeRecord]
    ) -> list:
        """The subset of records originating from wearable devices."""
        tacs = self._wearable_tacs
        return [record for record in records if record.imei[:8] in tacs]
