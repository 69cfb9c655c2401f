"""The paper's analysis pipeline — the primary contribution.

Typical use::

    from repro.core import StudyDataset, WearableStudy
    from repro.simnet import SimulationConfig, Simulator

    output = Simulator(SimulationConfig.medium(seed=1)).run()
    study = WearableStudy(StudyDataset.from_simulation(output))
    report = study.run_all()
    print(report.adoption.total_growth_percent)

Each analysis module maps to one paper section; see DESIGN.md for the
figure-by-figure index.
"""

from repro.core.activity import ActivityResult, HourlyProfile
from repro.core.adoption import AdoptionResult
from repro.core.app_mapping import (
    AppMatch,
    Attribution,
    SignatureCatalog,
    attribute_table,
)
from repro.core.apps import AppDailyStats, AppsResult, CategoryStats
from repro.core.comparison import ComparisonResult
from repro.core.dataset import StudyDataset, StudyWindow
from repro.core.domains import (
    DomainCategoryStats,
    DomainsResult,
    SingleUsageStats,
)
from repro.core.identification import DeviceCensus
from repro.core.mobility import (
    MobilityResult,
    SectorTimeline,
    build_timelines,
)
from repro.core.pipeline import StudyReport, WearableStudy
from repro.core.sessions import SessionTable, session_table
from repro.core.throughdevice import (
    TD_FINGERPRINT_HOSTS,
    ThroughDeviceResult,
)
from repro.core.cohorts import CohortResult, CohortRow, analyze_cohorts
from repro.core.devices import DeviceResult, ModelStats
from repro.core.export import report_to_dict, write_report_json
from repro.core.figures import FIGURE_RENDERERS, render_all
from repro.core.protocols import ProtocolResult
from repro.core.throughdevice_full import (
    ThroughDeviceFullResult,
    analyze_through_device_full,
)
from repro.core.weekly import WeeklyPartial, WeeklyResult

__all__ = [
    "ActivityResult",
    "AdoptionResult",
    "AppDailyStats",
    "AppMatch",
    "AppsResult",
    "Attribution",
    "CategoryStats",
    "CohortResult",
    "CohortRow",
    "ComparisonResult",
    "DeviceCensus",
    "DeviceResult",
    "ModelStats",
    "DomainCategoryStats",
    "DomainsResult",
    "FIGURE_RENDERERS",
    "HourlyProfile",
    "MobilityResult",
    "ProtocolResult",
    "SectorTimeline",
    "SessionTable",
    "SignatureCatalog",
    "SingleUsageStats",
    "StudyDataset",
    "StudyReport",
    "StudyWindow",
    "TD_FINGERPRINT_HOSTS",
    "ThroughDeviceFullResult",
    "ThroughDeviceResult",
    "WearableStudy",
    "WeeklyPartial",
    "WeeklyResult",
    "analyze_cohorts",
    "analyze_through_device_full",
    "attribute_table",
    "build_timelines",
    "render_all",
    "report_to_dict",
    "session_table",
    "write_report_json",
]
