"""Benchmark fixtures: one paper-scale simulation shared by every module.

The simulation (five months, 800 wearable + 600 general accounts, ~1M log
records) runs once per session; benchmarks then time the *analyses* over
the shared dataset and print paper-vs-measured tables for each figure.
Each module also writes its table to ``benchmarks/reports/`` so the figure
reproductions survive the run.

The paper simulation runs under an enabled :mod:`repro.obs` instance, and
the session teardown writes the resulting run report (metrics snapshot +
span tree) to ``benchmarks/reports/BENCH_obs.json`` — so every benchmark
run leaves a machine-readable perf trajectory next to the figure tables
(``python -m repro obs summarize benchmarks/reports/BENCH_obs.json``).

Perf-benchmark sessions (any run that collected a ``test_perf_*`` module)
additionally feed the **longitudinal** store: one compact record is
appended to ``benchmarks/reports/history.jsonl`` and the full run report
is rewritten as the canonical ``BENCH_repro.json`` at the repo root.
``make bench-gate`` diffs a fresh ``BENCH_repro.json`` against the
committed one with ``repro obs compare`` and fails on >15% wall-time
regression (see :mod:`repro.obs.compare` / :mod:`repro.obs.history`).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro import obs
from repro.core.dataset import StudyDataset
from repro.core.pipeline import WearableStudy
from repro.obs.export import build_run_report, write_run_report
from repro.obs.history import append_history, build_history_record, git_commit
from repro.obs.profiler import build_profile, write_profile
from repro.simnet.config import SimulationConfig
from repro.simnet.simulator import Simulator

PAPER_SEED = 2018

REPORTS_DIR = Path(__file__).parent / "reports"
REPO_ROOT = Path(__file__).parent.parent
HISTORY_PATH = REPORTS_DIR / "history.jsonl"
BENCH_REPORT_PATH = REPO_ROOT / "BENCH_repro.json"

#: Set during collection: did this session include perf benchmarks?
_PERF_COLLECTED = False


def pytest_collection_modifyitems(config, items):
    """Remember whether any perf module is part of this session.

    Only perf sessions refresh the canonical root ``BENCH_repro.json``
    and the history store — a figures-only ``make bench`` run has a
    different span surface and would not be comparable across commits.
    """
    global _PERF_COLLECTED
    _PERF_COLLECTED = any(
        Path(str(item.fspath)).name.startswith("test_perf_") for item in items
    )


@pytest.fixture(scope="session", autouse=True)
def bench_obs():
    """Session-wide observability; persists perf artifacts on teardown.

    Perf sessions additionally run the wall-clock sampling profiler at
    the standard 19 hz for the whole session, so every history record
    carries ``top_frames`` provenance and ``BENCH_profile.json`` lands
    next to the other reports.  The profiler samples from its own
    thread — it adds no spans and no per-row instructions — so the
    committed ``BENCH_repro.json`` span surface is unchanged and its
    <5% overhead sits far inside the gate's 15% threshold.
    """
    instance = obs.Observability(
        enabled=True, profile_hz=19.0 if _PERF_COLLECTED else None
    )
    previous = obs.install(instance)
    instance.profiler.start()
    try:
        yield instance
    finally:
        obs.install(previous)
        instance.profiler.stop()
        REPORTS_DIR.mkdir(exist_ok=True)
        report = build_run_report(
            instance.metrics.snapshot(),
            instance.tracer.tree(),
            meta={"command": "benchmarks", "seed": PAPER_SEED},
        )
        write_run_report(REPORTS_DIR / "BENCH_obs.json", report)
        profile_doc = None
        if instance.profiler.enabled:
            profile_doc = build_profile(
                instance.profiler.snapshot(),
                meta={"command": "benchmarks", "seed": PAPER_SEED},
                hz=instance.profiler.hz,
            )
            write_profile(REPORTS_DIR / "BENCH_profile.json", profile_doc)
        if _PERF_COLLECTED:
            # The longitudinal perf trajectory: one canonical run report
            # at the repo root (committed as the next gate baseline) and
            # one compact JSONL record per run.
            write_run_report(BENCH_REPORT_PATH, report)
            append_history(
                HISTORY_PATH,
                build_history_record(
                    report,
                    label="bench-perf",
                    commit=git_commit(REPO_ROOT),
                    profile=profile_doc,
                ),
            )
        instance.close()


@pytest.fixture(scope="session")
def paper_dataset(bench_obs) -> StudyDataset:
    with obs.span("bench.paper_simulation"):
        output = Simulator(SimulationConfig.paper(seed=PAPER_SEED)).run()
    return StudyDataset.from_simulation(output)


@pytest.fixture(scope="session")
def paper_study(paper_dataset: StudyDataset) -> WearableStudy:
    return WearableStudy(paper_dataset)


@pytest.fixture(scope="session")
def report_dir() -> Path:
    REPORTS_DIR.mkdir(exist_ok=True)
    return REPORTS_DIR


def emit(report_dir: Path, name: str, text: str) -> None:
    """Print a figure reproduction and persist it under reports/."""
    print("\n" + text)
    (report_dir / f"{name}.txt").write_text(text + "\n", encoding="utf-8")


def fresh_panel(name: str, dataset: StudyDataset, study: WearableStudy | None = None):
    """One report panel computed from scratch over ``dataset``.

    With ``study``, its attribution and sessions are reused, so the
    timing covers the panel's own fold only.
    """
    fresh = WearableStudy(dataset)
    if study is not None:
        fresh.attribution = study.attribution
        fresh.usage = study.usage
    return getattr(fresh, name)

