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

from dataclasses import dataclass, field

import numpy as np

from repro.core.dataset import StudyDataset
from repro.core.folds import _PartialState, _min_merge, _min_sort_keys, _set_union
from repro.devicedb.database import DeviceDatabase
from repro.logs.columns import distinct, first_seen, runs


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


@dataclass
class DevicesPartial(_PartialState):
    """Device-model adoption from the MME stream (imei-keyed, disjoint)."""

    total_weeks: int
    imei_first: dict[str, tuple] = field(default_factory=dict)
    weekly: list[dict[str, set[str]]] = field(default_factory=list)
    data_imeis: set[str] = field(default_factory=set)

    def __post_init__(self) -> None:
        if not self.weekly:
            self.weekly = [{} for _ in range(self.total_weeks)]

    def consume(self, dataset: StudyDataset) -> None:
        mme = dataset.mme
        imeis = mme.column("imei")
        models = [dataset.device_db.lookup_imei(imei) for imei in imeis.values]
        manufacturers: dict[str, int] = {}
        entry_manufacturer = np.fromiter(
            (
                manufacturers.setdefault(model.manufacturer, len(manufacturers))
                if model is not None
                else -1
                for model in models
            ),
            dtype=np.int64,
            count=len(models),
        )
        rows = np.flatnonzero(
            dataset.wearable_mme_mask & (entry_manufacturer >= 0)[imeis.codes]
        )
        codes = imeis.codes[rows]
        keys, group = first_seen(codes)
        _min_sort_keys(
            self.imei_first, imeis.values[keys].tolist(), group, mme, rows
        )

        week = dataset.mme_days[rows] // 7
        in_range = (week >= 0) & (week < self.total_weeks)
        week = week[in_range]
        codes = codes[in_range]
        makers = list(manufacturers)
        keys, group = first_seen(week * len(makers) + entry_manufacturer[codes])
        slots = [divmod(key, len(makers)) for key in keys.tolist()]
        for week_index, maker in slots:
            self.weekly[week_index].setdefault(makers[maker], set())
        groups, members = distinct(group, codes)
        values = imeis.values[members].tolist()
        for index, start, end in runs(groups):
            week_index, maker = slots[index]
            self.weekly[week_index][makers[maker]].update(values[start:end])
        self.data_imeis.update(
            dataset.proxy.distinct("imei", dataset.wearable_proxy_mask)
        )

    def merge(self, other: "DevicesPartial") -> None:
        _min_merge(self.imei_first, other.imei_first)
        for week in range(self.total_weeks):
            _set_union(self.weekly[week], other.weekly[week])
        self.data_imeis |= other.data_imeis

    def finalize(self, device_db: DeviceDatabase) -> DeviceResult:
        if not self.imei_first:
            raise ValueError("no wearable devices observed in the MME log")
        per_model_devices: dict[str, set[str]] = {}
        per_model_active: dict[str, set[str]] = {}
        model_meta: dict[str, tuple[str, str]] = {}
        # Iterate IMEIs by their first appearance in the canonical
        # stream, replicating the batch accumulator's insertion order so
        # tied device counts sort into the identical row order.
        for imei in sorted(self.imei_first, key=self.imei_first.__getitem__):
            model = device_db.lookup_imei(imei)
            if model is None:  # pragma: no cover - db identical everywhere
                continue
            per_model_devices.setdefault(model.model, set()).add(imei)
            model_meta[model.model] = (model.manufacturer, model.os)
            if imei in self.data_imeis:
                per_model_active.setdefault(model.model, set()).add(imei)
        per_model = [
            ModelStats(
                model=name,
                manufacturer=model_meta[name][0],
                os=model_meta[name][1],
                devices=len(devices),
                data_active_devices=len(per_model_active.get(name, ())),
            )
            for name, devices in per_model_devices.items()
        ]
        per_model.sort(key=lambda row: row.devices, reverse=True)
        total = sum(row.devices for row in per_model)
        manufacturer_count: dict[str, int] = {}
        os_count: dict[str, int] = {}
        for row in per_model:
            manufacturer_count[row.manufacturer] = (
                manufacturer_count.get(row.manufacturer, 0) + row.devices
            )
            os_count[row.os] = os_count.get(row.os, 0) + row.devices
        weekly_share: dict[str, list[float]] = {}
        for week, per_manufacturer in enumerate(self.weekly):
            week_total = sum(
                len(imeis) for imeis in per_manufacturer.values()
            )
            if week_total == 0:
                continue
            for manufacturer, imeis in per_manufacturer.items():
                weekly_share.setdefault(
                    manufacturer, [0.0] * self.total_weeks
                )[week] = len(imeis) / week_total
        return DeviceResult(
            per_model=per_model,
            manufacturer_share={
                name: count / total
                for name, count in manufacturer_count.items()
            },
            os_share={
                name: count / total for name, count in os_count.items()
            },
            weekly_manufacturer_share=weekly_share,
            total_devices=total,
        )
