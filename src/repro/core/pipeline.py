"""End-to-end study orchestration.

:class:`WearableStudy` wires the whole paper pipeline over one
:class:`~repro.core.dataset.StudyDataset`:

1. identify wearable traffic by TAC (§3.2),
2. attribute hosts to apps with the timeframe rule (§3.3),
3. sessionise usages with the one-minute gap (§5.1),
4. run every section's analysis lazily, caching shared intermediates.

Every analysis is the shards=1 fold of its panel's mergeable partial
(:data:`repro.core.parallel.PANELS`): the property builds the partial
over the whole dataset and finalizes it, so batch, sharded and served
reports come out of one implementation per panel.

Use :meth:`WearableStudy.run_all` for a single :class:`StudyReport` with
every figure's series, or call the per-figure properties individually.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro import obs

from repro.core.activity import ActivityResult
from repro.core.adoption import AdoptionResult
from repro.core.apps import AppsResult
from repro.core.comparison import ComparisonResult
from repro.core.devices import DeviceResult
from repro.core.domains import DomainsResult
from repro.core.encounters import EncountersResult
from repro.core.identification import DeviceCensus
from repro.core.mobility import MobilityResult, dwell_intervals
from repro.core.parallel import PANELS, PanelInputs
from repro.logs.quarantine import QuarantineReport
from repro.core.protocols import ProtocolResult
from repro.core.throughdevice import ThroughDeviceResult
from repro.core.weekly import WeeklyResult


@dataclass(frozen=True)
class StudyReport:
    """Every analysis result the paper's evaluation reports."""

    census: DeviceCensus
    adoption: AdoptionResult
    activity: ActivityResult
    comparison: ComparisonResult
    mobility: MobilityResult
    apps: AppsResult
    domains: DomainsResult
    through_device: ThroughDeviceResult
    weekly: WeeklyResult
    protocols: ProtocolResult
    devices: DeviceResult
    encounters: EncountersResult
    #: What lenient ingestion quarantined to produce the dataset these
    #: results were computed over (None for strict / in-memory datasets).
    quarantine: QuarantineReport | None = None


class WearableStudy(PanelInputs):
    """Lazy, cached execution of the full analysis pipeline."""

    def _panel(self, name: str):
        """Build panel ``name``'s partial over the dataset and finalize it."""
        with obs.span(f"analyze.{name}"):
            return PANELS[name].finalize(
                self.partial(name),
                self.dataset.window,
                self.dataset.device_db,
                self.app_categories,
            )

    # ------------------------------------------------------------ analyses
    @cached_property
    def census(self) -> DeviceCensus:
        return self._panel("census")

    @cached_property
    def adoption(self) -> AdoptionResult:
        return self._panel("adoption")

    @cached_property
    def activity(self) -> ActivityResult:
        return self._panel("activity")

    @cached_property
    def comparison(self) -> ComparisonResult:
        return self._panel("comparison")

    @cached_property
    def mobility(self) -> MobilityResult:
        return self._panel("mobility")

    @cached_property
    def apps(self) -> AppsResult:
        return self._panel("apps")

    @cached_property
    def domains(self) -> DomainsResult:
        return self._panel("domains")

    @cached_property
    def through_device(self) -> ThroughDeviceResult:
        return self._panel("through_device")

    @cached_property
    def weekly(self) -> WeeklyResult:
        return self._panel("weekly")

    @cached_property
    def protocols(self) -> ProtocolResult:
        return self._panel("protocols")

    @cached_property
    def devices(self) -> DeviceResult:
        return self._panel("devices")

    @cached_property
    def encounters(self) -> EncountersResult:
        """Both sides of the encounter partial: the account side from the
        dataset, the sector join from the dwell intervals of its MME log
        over the detailed window."""
        dataset = self.dataset
        with obs.span("analyze.encounters"):
            partial = self.partial("encounters")
            partial.consume_intervals(
                dwell_intervals(
                    dataset.mme,
                    np.flatnonzero(dataset.detailed_mme_mask),
                    dataset.window.study_start,
                ),
                dataset.window.study_start,
            )
            return partial.finalize()

    @property
    def quarantine(self) -> QuarantineReport | None:
        """Ingestion quarantine of the underlying dataset, when loaded
        leniently."""
        return self.dataset.quarantine

    def run_all(self) -> StudyReport:
        """Run every analysis and bundle the results.

        Wrapped in an ``analyze.run_all`` span, so with tracing enabled
        the run report shows one child span per §4/§5 analysis; the
        device-database lookup-cache tallies and headline row gauges are
        published to the active registry on completion.
        """
        with obs.span("analyze.run_all"):
            report = self._run_all()
        registry = obs.metrics()
        self.dataset.device_db.publish_metrics(registry)
        registry.gauge("repro_pipeline_proxy_records").set(len(self.dataset.proxy))
        registry.gauge("repro_pipeline_mme_records").set(len(self.dataset.mme))
        registry.gauge("repro_pipeline_attributed_records").set(
            len(self.attribution)
        )
        registry.gauge("repro_pipeline_sessions").set(len(self.usage))
        return report

    #: Analysis execution order; also the ``phase`` timeline sequence.
    _ANALYSES = tuple(PANELS)

    def _run_all(self) -> StudyReport:
        # Each analysis announces itself on the timeline before running,
        # so a live ``--progress`` renderer can say which §4/§5 stage a
        # long analyze is currently in (events are no-ops when timeline
        # capture is off).
        events = obs.events()
        results = {}
        for name in self._ANALYSES:
            events.emit("phase", stage=f"analyze.{name}")
            results[name] = getattr(self, name)
        return StudyReport(quarantine=self.quarantine, **results)
