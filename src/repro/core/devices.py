"""Device-model analysis (extends §3.2 / §4.1).

Section 4.1 observes in passing that "most users are using LG and Samsung
SIM-enabled watches".  The device database plus the MME log support a much
richer device view, which this module computes:

* market shares by model, manufacturer and OS over the whole window;
* the **weekly share series** per manufacturer — flat in the baseline,
  but the Apple-launch scenario bends it visibly;
* per-model *data activation*: of the users on each model, how many ever
  generate cellular data (are Tizen users more cellular-active than
  Android Wear users?).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class ModelStats:
    """Adoption and activation figures for one device model."""

    model: str
    manufacturer: str
    os: str
    devices: int
    data_active_devices: int

    @property
    def data_active_fraction(self) -> float:
        return self.data_active_devices / self.devices if self.devices else 0.0


@dataclass(frozen=True, slots=True)
class DeviceResult:
    """The device-level view of the wearable population."""

    per_model: list[ModelStats]
    manufacturer_share: dict[str, float]
    os_share: dict[str, float]
    #: manufacturer → weekly share series (one value per observed week).
    weekly_manufacturer_share: dict[str, list[float]]
    total_devices: int
