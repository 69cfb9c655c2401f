"""Wearable identification from IMEIs via the device database (§3.2).

The paper "prepared a list of all SIM-enabled wearable device models ...
leverage[d] the DeviceDB to associate these models with their respective
IMEI ranges and finally ... search[ed] for these IMEIs in the traffic
logs".  That rule is a TAC-set membership test,
:meth:`~repro.core.dataset.StudyDataset.is_wearable_imei`, which the
dataset's wearable row masks apply.  This module holds the ``census``
panel: the device census (distinct wearables by model, manufacturer and
OS) as :class:`DeviceCensus` and the partial that counts it,
:class:`CensusPartial`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.dataset import StudyDataset
from repro.core.folds import _PartialState
from repro.devicedb.database import DeviceDatabase


@dataclass(frozen=True, slots=True)
class DeviceCensus:
    """Counts of distinct wearable devices seen in the logs."""

    total_devices: int
    devices_per_model: dict[str, int]
    devices_per_manufacturer: dict[str, int]
    devices_per_os: dict[str, int]


@dataclass
class CensusPartial(_PartialState):
    """§3.2 device census: the distinct wearable IMEI set."""

    imeis: set[str] = field(default_factory=set)

    def consume(self, dataset: StudyDataset) -> None:
        self.imeis.update(dataset.mme.distinct("imei", dataset.wearable_mme_mask))

    def merge(self, other: "CensusPartial") -> None:
        self.imeis |= other.imeis

    def finalize(self, device_db: DeviceDatabase) -> DeviceCensus:
        per_model: dict[str, int] = {}
        per_manufacturer: dict[str, int] = {}
        per_os: dict[str, int] = {}
        for imei in sorted(self.imeis):
            model = device_db.lookup_imei(imei)
            if model is None:
                continue
            per_model[model.model] = per_model.get(model.model, 0) + 1
            per_manufacturer[model.manufacturer] = (
                per_manufacturer.get(model.manufacturer, 0) + 1
            )
            per_os[model.os] = per_os.get(model.os, 0) + 1
        return DeviceCensus(
            total_devices=len(self.imeis),
            devices_per_model=per_model,
            devices_per_manufacturer=per_manufacturer,
            devices_per_os=per_os,
        )
