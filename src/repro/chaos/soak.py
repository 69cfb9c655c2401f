"""The chaos soak runner: N seeded episodes of simulate → corrupt →
lenient-analyze, with per-episode invariant checks.

One **episode** corrupts a pristine trace with a
:class:`~repro.chaos.schedule.ScheduleSpec` (fault seed derived from the
soak seed and the episode index), ingests it leniently, runs the full
analysis pipeline and checks:

``crash``
    no exception anywhere in corrupt → load → analyze;
``accounting``
    per stream, ``rows_read == rows_kept + rows_quarantined`` exactly;
``quarantine-fraction`` / ``issue-count``
    the overall quarantined fraction and any per-issue-code ceilings
    stay under their configured limits;
``band``
    selected scalar report panels stay within a statistical band around
    the same panel computed from the *pristine* trace;
``rss``
    peak resident set (sampled by the existing
    :class:`~repro.obs.timeline.HeartbeatSampler`) stays under an
    optional ceiling;
``shard-equality``
    a sharded lenient :func:`~repro.core.parallel.analyze_parallel` run
    reports byte-for-byte the same quarantine accounting as the serial
    lenient load.

:func:`run_soak` drives the whole campaign over both wire formats,
writes an ``events.jsonl`` timeline (``repro.obs/events/v1``: one phase
per episode, heartbeats, a terminal summary) and a versioned
``soak-report.json`` (``repro.chaos/soak-report/v1``), and on any
failing episode emits a minimal replay capsule
(:mod:`repro.chaos.replay`) after shrinking the schedule with
:mod:`repro.chaos.shrink`.
"""

from __future__ import annotations

import shutil
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Mapping

from repro.chaos.replay import build_replay, write_replay
from repro.chaos.schedule import FaultSchedule, ScheduleSpec, default_schedule
from repro.chaos.shrink import ShrinkResult, shrink_schedule
from repro.core.dataset import StudyDataset
from repro.core.parallel import analyze_parallel
from repro.core.pipeline import WearableStudy
from repro.logs.faults import corrupt_trace
from repro.obs.timeline import NULL_EVENTS, EventWriter, HeartbeatSampler
from repro.simnet.config import SimulationConfig
from repro.simnet.simulator import Simulator

__all__ = [
    "Band",
    "DEFAULT_BANDS",
    "EpisodeResult",
    "InvariantViolation",
    "SOAK_REPORT_SCHEMA",
    "SoakConfig",
    "SoakReport",
    "preset_config",
    "run_episode",
    "run_soak",
]

SOAK_REPORT_SCHEMA = "repro.chaos/soak-report/v1"

#: Episode fault seeds are ``soak_seed * _SEED_STRIDE + episode`` — a
#: prime stride keeps the per-episode RNG streams disjoint across soak
#: seeds while staying reproducible from ``(seed, episode)`` alone.
_SEED_STRIDE = 100003


@dataclass(frozen=True, slots=True)
class Band:
    """Tolerance band for one scalar report panel.

    ``panel`` is a dotted attribute path into
    :class:`~repro.core.pipeline.StudyReport`; the check passes when
    ``abs(observed - pristine) <= atol + rtol * abs(pristine)``.
    """

    panel: str
    rtol: float = 0.0
    atol: float = 0.0

    def to_dict(self) -> dict:
        return {"panel": self.panel, "rtol": self.rtol, "atol": self.atol}

    @classmethod
    def from_dict(cls, data: Mapping) -> "Band":
        return cls(
            panel=str(data["panel"]),
            rtol=float(data.get("rtol", 0.0)),
            atol=float(data.get("atol", 0.0)),
        )


#: Panels stable enough to band-check under modest corruption: account
#: census sizes and per-account traffic means move only when ingestion
#: loses far more rows than the default schedule injects; the adoption
#: growth headline is MME-driven and checked with an absolute tolerance
#: because it sits near zero.
DEFAULT_BANDS = (
    Band("comparison.n_wearable_accounts", rtol=0.35),
    Band("comparison.n_general_accounts", rtol=0.35),
    Band("comparison.mean_tx_general", rtol=0.45),
    Band("adoption.total_growth_percent", atol=12.0),
)


@dataclass(frozen=True, slots=True)
class InvariantViolation:
    """One failed invariant check inside one episode."""

    invariant: str
    code: str
    message: str
    observed: float | None = None
    limit: float | None = None

    @property
    def key(self) -> tuple[str, str]:
        """Identity used to match violations across re-runs."""
        return (self.invariant, self.code)

    def to_dict(self) -> dict:
        data: dict = {
            "invariant": self.invariant,
            "code": self.code,
            "message": self.message,
        }
        if self.observed is not None:
            data["observed"] = self.observed
        if self.limit is not None:
            data["limit"] = self.limit
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "InvariantViolation":
        return cls(
            invariant=str(data["invariant"]),
            code=str(data.get("code", "")),
            message=str(data.get("message", "")),
            observed=data.get("observed"),
            limit=data.get("limit"),
        )


@dataclass(frozen=True, slots=True)
class SoakConfig:
    """Everything one soak campaign depends on (replay-serialisable)."""

    episodes: int = 25
    seed: int = 1
    formats: tuple[str, ...] = ("csv.gz", "bin")
    preset: str = "small"
    shards: int = 2
    schedule: FaultSchedule = field(default_factory=default_schedule)
    bands: tuple[Band, ...] = DEFAULT_BANDS
    max_quarantine_fraction: float = 0.5
    #: Per-issue-code ceilings; ``{"mme-sector": 0}`` turns any bogus
    #: sector into a failing episode (the deliberate-failure fixture).
    max_issue_counts: Mapping[str, int] = field(default_factory=dict)
    rss_limit_mb: float | None = None
    #: Run the shrinker on failing episodes before writing the capsule.
    shrink: bool = True

    def fault_seed(self, episode: int) -> int:
        return self.seed * _SEED_STRIDE + episode

    def checks_dict(self) -> dict:
        """The invariant-check configuration a replay capsule carries."""
        return {
            "bands": [band.to_dict() for band in self.bands],
            "max_quarantine_fraction": self.max_quarantine_fraction,
            "max_issue_counts": dict(self.max_issue_counts),
        }


def preset_config(preset: str, seed: int) -> SimulationConfig:
    """Resolve a soak preset name to a simulation configuration.

    ``tiny`` is a soak-only shrink of the unit-test preset — two weeks,
    40 users — sized so a 25-episode campaign over both formats stays in
    CI-friendly territory.
    """
    if preset == "tiny":
        return replace(
            SimulationConfig.small(seed=seed),
            total_days=14,
            detailed_days=7,
            n_wearable_users=24,
            n_general_users=16,
        )
    if preset == "small":
        return SimulationConfig.small(seed=seed)
    if preset == "medium":
        return SimulationConfig.medium(seed=seed)
    raise ValueError(
        f"unknown soak preset {preset!r}; expected tiny, small or medium"
    )


@dataclass(slots=True)
class EpisodeResult:
    """Outcome of one episode (one fault seed on one wire format)."""

    episode: int
    format: str
    fault_seed: int
    violations: list[InvariantViolation] = field(default_factory=list)
    quarantine: dict | None = None
    injected: dict[str, int] | None = None
    panels: dict[str, float] = field(default_factory=dict)
    max_rss_kb: float | None = None
    duration_s: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations

    def violation_keys(self) -> frozenset[tuple[str, str]]:
        return frozenset(v.key for v in self.violations)

    def to_dict(self) -> dict:
        return {
            "episode": self.episode,
            "format": self.format,
            "fault_seed": self.fault_seed,
            "ok": self.ok,
            "violations": [v.to_dict() for v in self.violations],
            "quarantine": self.quarantine,
            "injected": self.injected,
            "panels": self.panels,
            "max_rss_kb": self.max_rss_kb,
            "duration_s": round(self.duration_s, 3),
        }


@dataclass(slots=True)
class SoakReport:
    """Whole-campaign summary (``repro.chaos/soak-report/v1``)."""

    config: SoakConfig
    episodes: list[EpisodeResult] = field(default_factory=list)
    replays: list[str] = field(default_factory=list)
    baseline_panels: dict[str, float] = field(default_factory=dict)
    duration_s: float = 0.0

    @property
    def failures(self) -> list[EpisodeResult]:
        return [episode for episode in self.episodes if not episode.ok]

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "schema": SOAK_REPORT_SCHEMA,
            "config": {
                "episodes": self.config.episodes,
                "seed": self.config.seed,
                "formats": list(self.config.formats),
                "preset": self.config.preset,
                "shards": self.config.shards,
                "schedule": self.config.schedule.to_dict(),
                "checks": self.config.checks_dict(),
                "rss_limit_mb": self.config.rss_limit_mb,
            },
            "baseline_panels": self.baseline_panels,
            "episodes": [episode.to_dict() for episode in self.episodes],
            "failures": len(self.failures),
            "replays": list(self.replays),
            "ok": self.ok,
            "duration_s": round(self.duration_s, 3),
        }

    def write_json(self, path: str | Path) -> Path:
        import json

        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        with target.open("w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2)
            handle.write("\n")
        return target

    def summary(self) -> str:
        lines = [
            f"soak: {len(self.episodes)} episodes "
            f"({self.config.episodes} seeds x {len(self.config.formats)} "
            f"formats), seed {self.config.seed}, "
            f"schedule {self.config.schedule.name!r}"
        ]
        if self.ok:
            lines.append("  all invariants held")
        for episode in self.failures:
            lines.append(
                f"  FAIL episode {episode.episode} [{episode.format}] "
                f"(fault seed {episode.fault_seed}):"
            )
            for violation in episode.violations:
                lines.append(
                    f"    {violation.invariant}/{violation.code}: "
                    f"{violation.message}"
                )
        for replay in self.replays:
            lines.append(f"  replay capsule: {replay}")
        return "\n".join(lines)


class _EventTap:
    """Forwards events to an inner writer while tracking peak RSS.

    Handed to :class:`HeartbeatSampler` so the soak can bound resident
    memory per episode even when the timeline log is disabled — the tap
    is always ``enabled`` so the sampler thread runs regardless.
    """

    enabled = True

    def __init__(self, inner: Any = NULL_EVENTS) -> None:
        self._inner = inner
        self.max_rss_kb: float | None = None

    def emit(self, event_type: str, **fields: Any) -> Any:
        if event_type == "heartbeat":
            rss = fields.get("rss_kb")
            if rss is not None:
                self.max_rss_kb = (
                    rss
                    if self.max_rss_kb is None
                    else max(self.max_rss_kb, rss)
                )
        if getattr(self._inner, "enabled", False):
            return self._inner.emit(event_type, **fields)
        return None


def _panel_value(report: Any, panel: str) -> float:
    """Resolve a dotted panel path against a study report."""
    value: Any = report
    for part in panel.split("."):
        value = getattr(value, part)
    return float(value)


def baseline_panels(
    pristine_dir: str | Path, bands: tuple[Band, ...]
) -> dict[str, float]:
    """Band reference values from a lenient load of the pristine trace.

    Going through the same lenient ingestion path the episodes use (not
    the in-memory simulation output) keeps the comparison apples to
    apples.
    """
    if not bands:
        return {}
    dataset = StudyDataset.load(pristine_dir, lenient=True)
    report = WearableStudy(dataset).run_all()
    return {band.panel: _panel_value(report, band.panel) for band in bands}


def run_episode(
    pristine_dir: str | Path,
    episode_dir: str | Path,
    *,
    config: SoakConfig,
    fmt: str,
    episode: int,
    baseline: Mapping[str, float] | None = None,
    events: Any = NULL_EVENTS,
) -> EpisodeResult:
    """Corrupt → ingest → analyze → check one episode.

    With ``config.bands`` empty the analysis pipeline is skipped and
    only ingestion-level invariants run — the shrinker's fast path when
    the target failure is quarantine-level.  The episode directory is
    left on disk for the caller to keep or delete.
    """
    pristine = Path(pristine_dir)
    target = Path(episode_dir)
    fault_seed = config.fault_seed(episode)
    spec = ScheduleSpec(seed=fault_seed, schedule=config.schedule)
    result = EpisodeResult(episode=episode, format=fmt, fault_seed=fault_seed)
    started = time.perf_counter()

    events.emit("phase", stage=f"soak.episode.{episode}.{fmt}")
    tap = _EventTap(events)
    sampler = HeartbeatSampler(tap, interval_s=0.2).start()
    dataset = None
    report = None
    try:
        injection = corrupt_trace(pristine, target, spec)
        result.injected = {
            key: count for key, count in sorted(injection.counts.items())
        }
        dataset = StudyDataset.load(target, lenient=True)
        if config.bands:
            report = WearableStudy(dataset).run_all()
    except Exception as exc:  # the whole point: episodes must not crash
        trace = traceback.format_exc(limit=4)
        result.violations.append(
            InvariantViolation(
                invariant="crash",
                code=type(exc).__name__,
                message=f"{exc} | {trace.splitlines()[-1].strip()}",
            )
        )
    finally:
        sampler.stop()
    result.max_rss_kb = tap.max_rss_kb

    if dataset is not None:
        quarantine = dataset.quarantine
        result.quarantine = quarantine.to_dict()
        _check_accounting(result, dataset, quarantine)
        _check_quarantine_limits(result, config, quarantine)
        if report is not None and baseline:
            _check_bands(result, config, report, baseline)
        if config.rss_limit_mb is not None and result.max_rss_kb is not None:
            limit_kb = config.rss_limit_mb * 1024.0
            if result.max_rss_kb > limit_kb:
                result.violations.append(
                    InvariantViolation(
                        invariant="rss",
                        code="peak",
                        message=(
                            f"peak RSS {result.max_rss_kb / 1024.0:.0f} MB "
                            f"exceeds {config.rss_limit_mb:.0f} MB"
                        ),
                        observed=result.max_rss_kb,
                        limit=limit_kb,
                    )
                )
        if config.shards > 1:
            _check_shard_equality(result, config, target, quarantine)

    result.duration_s = time.perf_counter() - started
    total_read = sum((result.quarantine or {}).get("rows_read", {}).values())
    events.emit(
        "progress",
        stage="soak",
        stream=fmt,
        shard=episode,
        rows=int(total_read),
    )
    return result


def _check_accounting(result, dataset, quarantine) -> None:
    kept = {
        "proxy": len(dataset.proxy),
        "mme": len(dataset.mme),
    }
    for stream, kept_rows in kept.items():
        read = quarantine.rows_read.get(stream, 0)
        dropped = quarantine.rows_quarantined.get(stream, 0)
        if kept_rows + dropped != read:
            result.violations.append(
                InvariantViolation(
                    invariant="accounting",
                    code=stream,
                    message=(
                        f"{stream}: read {read} != kept {kept_rows} "
                        f"+ quarantined {dropped}"
                    ),
                    observed=float(kept_rows + dropped),
                    limit=float(read),
                )
            )


def _check_quarantine_limits(result, config, quarantine) -> None:
    total_read = sum(quarantine.rows_read.values())
    if total_read:
        fraction = quarantine.total_quarantined / total_read
        if fraction > config.max_quarantine_fraction:
            result.violations.append(
                InvariantViolation(
                    invariant="quarantine-fraction",
                    code="total",
                    message=(
                        f"{fraction:.1%} of rows quarantined "
                        f"(limit {config.max_quarantine_fraction:.1%})"
                    ),
                    observed=fraction,
                    limit=config.max_quarantine_fraction,
                )
            )
    for code, ceiling in sorted(config.max_issue_counts.items()):
        observed = quarantine.count(code)
        if observed > ceiling:
            result.violations.append(
                InvariantViolation(
                    invariant="issue-count",
                    code=code,
                    message=(
                        f"{observed} x {code} (max {ceiling} allowed)"
                    ),
                    observed=float(observed),
                    limit=float(ceiling),
                )
            )


def _check_bands(result, config, report, baseline) -> None:
    for band in config.bands:
        reference = baseline.get(band.panel)
        if reference is None:
            continue
        observed = _panel_value(report, band.panel)
        result.panels[band.panel] = observed
        tolerance = band.atol + band.rtol * abs(reference)
        if abs(observed - reference) > tolerance:
            result.violations.append(
                InvariantViolation(
                    invariant="band",
                    code=band.panel,
                    message=(
                        f"{band.panel}={observed:.4g} outside "
                        f"{reference:.4g} +/- {tolerance:.4g}"
                    ),
                    observed=observed,
                    limit=tolerance,
                )
            )


def _quarantine_projection(quarantine) -> dict:
    """The accounting fields serial and sharded ingestion must agree on."""
    return {
        "rows_read": dict(quarantine.rows_read),
        "rows_quarantined": dict(quarantine.rows_quarantined),
        "issues": {
            issue.code: issue.count for issue in quarantine.issues
        },
    }


def _check_shard_equality(result, config, trace_dir, quarantine) -> None:
    try:
        run = analyze_parallel(
            trace_dir,
            shards=config.shards,
            lenient=True,
        )
    except Exception as exc:
        result.violations.append(
            InvariantViolation(
                invariant="crash",
                code=type(exc).__name__,
                message=f"sharded lenient analysis raised: {exc}",
            )
        )
        return
    serial = _quarantine_projection(quarantine)
    sharded = _quarantine_projection(run.report.quarantine)
    if serial != sharded:
        result.violations.append(
            InvariantViolation(
                invariant="shard-equality",
                code=f"shards-{config.shards}",
                message=(
                    "sharded lenient quarantine accounting diverged "
                    f"from serial: {sharded} != {serial}"
                ),
            )
        )


# ------------------------------------------------------------- the campaign
def _format_slug(fmt: str) -> str:
    return fmt.replace(".", "-")


def _shrink_target(
    violations: list[InvariantViolation],
) -> frozenset[tuple[str, str]]:
    """Violation keys a shrunk schedule must still reproduce.

    Peak-RSS breaches are machine-dependent and excluded; everything
    else is a deterministic function of ``(seed, schedule, format)``.
    """
    return frozenset(v.key for v in violations if v.invariant != "rss")


def _still_fails_factory(
    pristine: Path,
    scratch: Path,
    *,
    config: SoakConfig,
    fmt: str,
    episode: int,
    target_keys: frozenset[tuple[str, str]],
    baseline: Mapping[str, float],
) -> Callable[[FaultSchedule], bool]:
    """Predicate for the shrinker: does a candidate schedule still
    reproduce any of the original episode's violations?

    When every target violation is ingestion-level the candidate
    episodes skip the analysis pipeline and shard comparison entirely
    (bands off, shards 1) — the dominant cost during shrinking.
    """
    quarantine_only = all(
        invariant in ("accounting", "quarantine-fraction", "issue-count")
        for invariant, _ in target_keys
    )
    candidate_config = replace(
        config,
        bands=() if quarantine_only else config.bands,
        shards=1 if quarantine_only else config.shards,
        rss_limit_mb=None,
        shrink=False,
    )
    counter = {"n": 0}

    def still_fails(candidate: FaultSchedule) -> bool:
        counter["n"] += 1
        attempt_dir = scratch / f"attempt-{counter['n']:03d}"
        try:
            result = run_episode(
                pristine,
                attempt_dir,
                config=replace(candidate_config, schedule=candidate),
                fmt=fmt,
                episode=episode,
                baseline=baseline,
            )
            return bool(result.violation_keys() & target_keys)
        finally:
            shutil.rmtree(attempt_dir, ignore_errors=True)

    return still_fails


def run_soak(
    config: SoakConfig,
    workdir: str | Path,
    *,
    events_path: str | Path | None = None,
) -> SoakReport:
    """Run a whole soak campaign under ``workdir``.

    Layout produced::

        workdir/
          events.jsonl         timeline (repro.obs/events/v1)
          soak-report.json     campaign summary (soak-report/v1)
          pristine/<fmt>/      uncorrupted trace per wire format
          episodes/...         failing episodes only (green ones deleted)
          replays/replay-*.json  one capsule per failing episode

    One simulation (``config.seed``, ``config.preset``) backs every
    episode; episodes differ in their derived corruption seed, which is
    what a chaos soak is meant to vary.
    """
    base = Path(workdir)
    base.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    report = SoakReport(config=config)

    events = EventWriter(
        events_path if events_path is not None else base / "events.jsonl",
        meta={
            "command": "soak",
            "seed": config.seed,
            "episodes": config.episodes,
            "formats": list(config.formats),
            "preset": config.preset,
            "schedule": config.schedule.name,
        },
    )
    try:
        events.emit("phase", stage="soak.simulate")
        output = Simulator(preset_config(config.preset, config.seed)).run()
        pristine_dirs: dict[str, Path] = {}
        for fmt in config.formats:
            pristine = base / "pristine" / _format_slug(fmt)
            output.write(pristine, format=fmt)
            pristine_dirs[fmt] = pristine

        events.emit("phase", stage="soak.baseline")
        baseline = baseline_panels(
            pristine_dirs[config.formats[0]], config.bands
        )
        report.baseline_panels = dict(baseline)

        for episode in range(config.episodes):
            for fmt in config.formats:
                slug = f"ep{episode:03d}-{_format_slug(fmt)}"
                episode_dir = base / "episodes" / slug
                result = run_episode(
                    pristine_dirs[fmt],
                    episode_dir,
                    config=config,
                    fmt=fmt,
                    episode=episode,
                    baseline=baseline,
                    events=events,
                )
                report.episodes.append(result)
                if result.ok:
                    shutil.rmtree(episode_dir, ignore_errors=True)
                    continue
                replay_path = _handle_failure(
                    base,
                    pristine_dirs[fmt],
                    result,
                    config=config,
                    fmt=fmt,
                    baseline=baseline,
                    events=events,
                )
                if replay_path is not None:
                    report.replays.append(str(replay_path))

        report.duration_s = time.perf_counter() - started
        events.emit(
            "summary",
            episodes=len(report.episodes),
            failures=len(report.failures),
            replays=len(report.replays),
            ok=report.ok,
        )
    finally:
        events.close()

    report.write_json(base / "soak-report.json")
    return report


def _handle_failure(
    base: Path,
    pristine: Path,
    result: EpisodeResult,
    *,
    config: SoakConfig,
    fmt: str,
    baseline: Mapping[str, float],
    events: Any,
) -> Path | None:
    """Shrink the failing schedule and write the replay capsule."""
    target_keys = _shrink_target(result.violations)
    shrink_result: ShrinkResult | None = None
    if config.shrink and target_keys:
        events.emit(
            "phase", stage=f"soak.shrink.{result.episode}.{fmt}"
        )
        scratch = base / "shrink" / f"ep{result.episode:03d}-{_format_slug(fmt)}"
        scratch.mkdir(parents=True, exist_ok=True)
        still_fails = _still_fails_factory(
            pristine,
            scratch,
            config=config,
            fmt=fmt,
            episode=result.episode,
            target_keys=target_keys,
            baseline=baseline,
        )
        shrink_result = shrink_schedule(config.schedule, still_fails)
        shutil.rmtree(scratch, ignore_errors=True)

    schedule = (
        shrink_result.schedule if shrink_result is not None else config.schedule
    )
    capsule = build_replay(
        seed=config.seed,
        episode=result.episode,
        fault_seed=result.fault_seed,
        format=fmt,
        preset=config.preset,
        shards=config.shards,
        schedule=schedule,
        violations=result.violations,
        checks=config.checks_dict(),
        shrink=shrink_result.to_dict() if shrink_result is not None else None,
    )
    replay_path = base / "replays" / (
        f"replay-ep{result.episode:03d}-{_format_slug(fmt)}.json"
    )
    return write_replay(capsule, replay_path)
