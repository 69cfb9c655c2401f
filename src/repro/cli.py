"""Command-line interface.

The subcommands cover the full workflow::

    python -m repro simulate  --scale medium --seed 7 --out trace/
                              [--format csv|csv.gz|bin]
    python -m repro convert   trace/ --out trace-bin/ --to bin
    python -m repro corrupt   trace/ --out chaos/ [--rate 0.02]
    python -m repro validate  trace/ [--lenient]
    python -m repro analyze   trace/ [--figures fig2a,fig5a] [--out reports/]
                              [--lenient --quarantine-report q.json]
                              [--shards N --workers W]
                              [--format auto|csv|bin]
    python -m repro serve     --trace trace/ --port 8321
                              [--checkpoint-dir ckpt/ --checkpoint-interval 30]
                              [--shards N --workers W --lenient --format auto]
    python -m repro scoreboard trace/
    python -m repro obs summarize report.json

``simulate`` runs the synthetic operator and exports the trace directory
(optionally pseudonymised; ``--format`` pins the log wire format —
plain CSV, gzip CSV, or the binary columnar format of
:mod:`repro.logs.binfmt`); ``convert`` re-encodes an existing trace's
proxy/MME logs between those formats, copying the side artifacts
byte-verbatim so the directory stays a complete trace; ``corrupt``
injects deterministic faults into an exported trace to build chaos
fixtures; ``validate`` checks trace integrity; ``analyze`` regenerates
paper figures from the trace (with ``--lenient`` it survives corrupted
traces by quarantining bad rows); ``serve`` tails a *growing* trace and
serves live finalized panels over a checkpointed HTTP JSON API
(:mod:`repro.serve`); ``scoreboard`` prints the paper-vs-measured
headline table; ``obs summarize`` renders a saved observability run
report as a stage table.

With ``--shards N`` (and optionally ``--workers W``) ``analyze`` runs
the map-reduce path (:mod:`repro.core.parallel`): the report is computed
as merged per-account-shard partial aggregates, peak memory bounded by
the largest shard, and the output is invariant to the worker count.

Observability
-------------
``simulate``, ``corrupt``, ``validate`` and ``analyze`` run with the
:mod:`repro.obs` subsystem enabled and share three flags:

``--metrics-out PATH``
    write the JSON run report (metrics snapshot + span tree) there; a
    ``.prom``/``.txt`` suffix switches to Prometheus text exposition.
``--trace-out PATH``
    write the span tree as Chrome trace-event JSON, loadable at
    https://ui.perfetto.dev or ``chrome://tracing``.
``--verbose-stats``
    print the stage table (per-stage wall/CPU time, row counters,
    histograms) to stderr after the command finishes.
``--events-out PATH``
    record the live timeline event log (``repro.obs/events/v1`` JSON
    lines: heartbeats with RSS/CPU%/open FDs, per-shard row progress,
    phase transitions) there while the command runs.
``--progress``
    render a live one-line progress display on stderr, fed by tailing
    the event log (a temporary one if ``--events-out`` is not given) —
    it sees inside worker processes because they append to the same log.

``repro obs compare BASE.json CAND.json`` diffs two saved run reports by
span path and metric key and exits ``3`` when the candidate regressed
past ``--threshold`` (default 15%) — this is the perf gate ``make
bench-gate`` runs against the committed ``BENCH_repro.json`` baseline.

Every observed command also ends with the same normalized one-line
summary on stderr — ``<command>: N rows in / M rows out, K issues,
T.Ts`` — sourced from the metrics registry rather than ad-hoc counters.

Operational failures — a missing or unreadable trace directory, a
corrupted log in strict mode — exit with code 2 and a one-line
diagnostic on stderr instead of a traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile
import threading
import time
from pathlib import Path

from repro import obs
from repro.core.dataset import StudyDataset
from repro.obs.compare import CompareConfig, compare_run_reports
from repro.obs.export import (
    build_run_report,
    format_stage_table,
    validate_run_report_file,
    write_chrome_trace,
    write_prometheus,
    write_run_report,
)
from repro.obs.profiler import (
    PROFILE_SCHEMA,
    build_profile,
    compare_profile_files,
    format_hotspot_table,
    profile_artifact_paths,
    validate_profile,
    validate_profile_file,
    write_collapsed,
    write_profile,
    write_speedscope,
)
from repro.obs.timeline import HeartbeatSampler, ProgressPrinter
from repro.core.export import write_report_json
from repro.core.figures import FIGURE_RENDERERS, render_all
from repro.core.parallel import analyze_parallel
from repro.core.pipeline import WearableStudy
from repro.core.report import format_comparison
from repro.logs.anonymize import Anonymizer
from repro.logs.faults import FaultSpec, corrupt_trace
from repro.logs.io import LogReadError
from repro.logs.validate import validate_trace
from repro.simnet.config import SimulationConfig
from repro.simnet.engine import ShardedSimulationEngine


def _build_config(args: argparse.Namespace) -> SimulationConfig:
    config = getattr(SimulationConfig, args.scale)(seed=args.seed)
    overrides = {}
    if args.wearable_users is not None:
        overrides["n_wearable_users"] = args.wearable_users
    if args.general_users is not None:
        overrides["n_general_users"] = args.general_users
    if args.days is not None:
        overrides["total_days"] = args.days
    if args.detailed_days is not None:
        overrides["detailed_days"] = args.detailed_days
    if overrides:
        from dataclasses import replace

        config = replace(config, **overrides)
    return config


def cmd_simulate(args: argparse.Namespace) -> int:
    config = _build_config(args)
    workers = max(1, args.workers)
    shards = args.shards if args.shards is not None else workers
    if shards < 1:
        print("--shards must be >= 1", file=sys.stderr)
        return 2
    print(
        f"simulating: {config.n_wearable_users} wearable + "
        f"{config.n_general_users} general accounts over "
        f"{config.total_days} days (seed {config.seed}, "
        f"{shards} shard{'s' if shards != 1 else ''} / "
        f"{workers} worker{'s' if workers != 1 else ''})",
        file=sys.stderr,
    )
    # Elapsed time comes from a span rather than ad-hoc time.time();
    # the perf_counter fallback only triggers when obs is disabled
    # (e.g. cmd_simulate called directly rather than through main()).
    started = time.perf_counter()
    engine = ShardedSimulationEngine(config, shards=shards, workers=workers)
    with obs.tracer().span("simulate.trace") as sim_span:
        run = engine.run_streaming()
        try:
            anonymizer = None
            if args.anonymize:
                anonymizer = Anonymizer()
                print(
                    "trace pseudonymised (fresh key, discarded)",
                    file=sys.stderr,
                )
            paths = run.write(
                args.out,
                compress=args.compress,
                anonymizer=anonymizer,
                format=getattr(args, "format", None),
            )
        finally:
            run.cleanup()
    elapsed = (
        sim_span.wall_s
        if sim_span is not None
        else time.perf_counter() - started
    )
    for stats in run.shard_stats:
        print(
            f"  shard {stats.shard}: {stats.accounts} accounts, "
            f"{stats.proxy_records:,} proxy / {stats.mme_records:,} MME "
            f"records in {stats.elapsed_seconds:.2f}s",
            file=sys.stderr,
        )
    print(
        f"wrote {run.proxy_count:,} proxy / "
        f"{run.mme_count:,} MME records to {args.out} "
        f"in {elapsed:.1f}s "
        f"(peak resident: {run.peak_resident_records:,} records)",
        file=sys.stderr,
    )
    for name in sorted(paths):
        print(paths[name])
    return 0


def cmd_corrupt(args: argparse.Namespace) -> int:
    if getattr(args, "schedule", None):
        from repro.chaos.schedule import FaultSchedule, ScheduleSpec

        spec = ScheduleSpec(
            seed=args.seed, schedule=FaultSchedule.load(args.schedule)
        )
    else:
        spec = FaultSpec(
            seed=args.seed,
            drop_rate=_rate(args.drop_rate, args.rate),
            duplicate_rate=_rate(args.duplicate_rate, args.rate),
            shuffle_rate=_rate(args.shuffle_rate, args.rate),
            bad_imei_rate=_rate(args.bad_imei_rate, args.rate),
            bad_sector_rate=_rate(args.bad_sector_rate, args.rate),
            bad_bytes_rate=_rate(args.bad_bytes_rate, args.rate),
            garbage_rate=_rate(args.garbage_rate, args.rate),
            truncate_fraction=args.truncate,
            truncate_files=tuple(args.truncate_file or ("proxy",)),
            drop_files=tuple(args.drop_file or ()),
        )
    report = corrupt_trace(args.trace, args.out, spec)
    manifest = Path(args.out) / "faults.json"
    with manifest.open("w", encoding="utf-8") as handle:
        json.dump(report.to_dict(), handle, indent=2)
        handle.write("\n")
    print(report.summary(), file=sys.stderr)
    print(args.out)
    return 0


def _rate(override: float | None, default: float) -> float:
    return default if override is None else override


def cmd_soak(args: argparse.Namespace) -> int:
    """Run a chaos soak campaign; exit 1 when any episode fails."""
    from repro.chaos import FaultSchedule, SoakConfig, default_schedule, run_soak

    schedule = (
        FaultSchedule.load(args.schedule)
        if args.schedule
        else default_schedule()
    )
    max_issue_counts: dict[str, int] = {}
    for item in args.fail_on_issue or ():
        code, _, ceiling = item.partition(":")
        if not code:
            raise ValueError(f"bad --fail-on-issue value {item!r}")
        max_issue_counts[code] = int(ceiling) if ceiling else 0
    config = SoakConfig(
        episodes=args.episodes,
        seed=args.seed,
        formats=tuple(args.format or ("csv.gz", "bin")),
        preset=args.preset,
        shards=args.shards,
        schedule=schedule,
        max_issue_counts=max_issue_counts,
        rss_limit_mb=args.rss_limit_mb,
        shrink=not args.no_shrink,
    )
    report = run_soak(config, args.out)
    print(report.summary(), file=sys.stderr)
    print(
        f"soak report: {Path(args.out) / 'soak-report.json'}",
        file=sys.stderr,
    )
    print(args.out)
    return 0 if report.ok else 1


def cmd_replay(args: argparse.Namespace) -> int:
    """Re-run a replay capsule; exit 0 only when the failure reproduces."""
    import tempfile

    from repro.chaos.replay import load_replay, run_replay

    capsule = load_replay(args.capsule)
    workdir = args.workdir or tempfile.mkdtemp(prefix="repro-replay-")
    result = run_replay(capsule, workdir)
    print(result.summary(), file=sys.stderr)
    print(f"replay artifacts: {workdir}", file=sys.stderr)
    if args.json:
        payload = {
            "reproduced": result.reproduced,
            "expected": sorted(list(key) for key in result.expected),
            "observed": sorted(list(key) for key in result.observed),
            "violations": [v.to_dict() for v in result.violations],
        }
        target = Path(args.json)
        target.parent.mkdir(parents=True, exist_ok=True)
        with target.open("w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
    return 0 if result.reproduced else 1


#: Suffix probe order for locating a trace's logs (matches
#: :meth:`StudyDataset._log_path` in ``auto`` mode).
_LOG_SUFFIXES = (".csv", ".csv.gz", ".bin")

#: Non-log trace artifacts ``convert`` copies byte-verbatim.
_SIDE_ARTIFACTS = ("devices.csv", "sectors.csv", "accounts.csv", "metadata.json")


def _find_log(base: Path, stem: str) -> Path | None:
    for suffix in _LOG_SUFFIXES:
        candidate = base / f"{stem}{suffix}"
        if candidate.exists():
            return candidate
    return None


def cmd_convert(args: argparse.Namespace) -> int:
    """Re-encode the proxy/MME logs; copy everything else verbatim.

    Records stream straight from the strict reader into the writer, so
    peak memory is O(1) rows and a corrupted source fails loudly (exit
    2 with the offending issue code) rather than producing a partial
    target trace.  Conversion is lossless: CSV -> bin -> CSV reproduces
    the original log files byte for byte.
    """
    from repro.logs.io import (
        format_suffix,
        read_records,
        trace_format,
        write_records,
    )
    from repro.logs.records import MmeRecord, ProxyRecord

    base = Path(args.trace)
    if not base.is_dir():
        raise FileNotFoundError(f"trace directory not found: {base}")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    suffix = format_suffix(args.to)
    for stem, record_type in (("proxy", ProxyRecord), ("mme", MmeRecord)):
        source = _find_log(base, stem)
        if source is None:
            raise FileNotFoundError(
                f"no {stem} log ({stem}.csv[.gz|.bin]) in {base}"
            )
        target = out_dir / f"{stem}{suffix}"
        with obs.span(f"convert.{stem}"):
            count = write_records(
                target, read_records(source, record_type), record_type
            )
        print(
            f"  {stem}: {count:,} rows ({source.name} -> {target.name}, "
            f"{trace_format(source)} -> {args.to})",
            file=sys.stderr,
        )
    copied = 0
    for name in _SIDE_ARTIFACTS:
        source = base / name
        if source.exists():
            shutil.copyfile(source, out_dir / name)
            copied += 1
    print(f"  copied {copied} side artifacts verbatim", file=sys.stderr)
    print(out_dir)
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    with obs.span("validate.load"):
        dataset = StudyDataset.load(args.trace, lenient=args.lenient)
    with obs.span("validate.check"):
        report = validate_trace(dataset)
    if obs.enabled():
        registry = obs.metrics()
        for issue in report.issues:
            registry.counter(
                "repro_validate_issues_total", code=issue.code
            ).add(issue.count)
    print(report.summary())
    return 0 if report.ok else 1


def cmd_analyze(args: argparse.Namespace) -> int:
    if args.quarantine_report and not args.lenient:
        print("--quarantine-report requires --lenient", file=sys.stderr)
        return 2
    shards = getattr(args, "shards", 1)
    workers = getattr(args, "workers", None)
    if shards < 1:
        print("--shards must be >= 1", file=sys.stderr)
        return 2
    if workers is not None and workers < 1:
        print("--workers must be >= 1", file=sys.stderr)
        return 2
    if shards > 1 or (workers or 1) > 1:
        run = analyze_parallel(
            args.trace,
            shards=shards,
            workers=workers,
            lenient=args.lenient,
            format=getattr(args, "format", "auto"),
        )
        full_report = run.report
        quarantine = full_report.quarantine
        print(
            f"analyzed {run.proxy_rows + run.mme_rows:,} rows across "
            f"{shards} shard(s) ({run.workers} worker(s), peak shard "
            f"residency {run.peak_resident_records:,} records)",
            file=sys.stderr,
        )
    else:
        with obs.span("analyze.load"):
            dataset = StudyDataset.load(
                args.trace,
                lenient=args.lenient,
                format=getattr(args, "format", "auto"),
            )
        quarantine = dataset.quarantine
        full_report = None
    if quarantine is not None:
        if not quarantine.ok:
            print(quarantine.summary(), file=sys.stderr)
        if args.quarantine_report:
            path = quarantine.write_json(args.quarantine_report)
            print(f"wrote quarantine report to {path}", file=sys.stderr)
    if full_report is None:
        study = WearableStudy(dataset)
        full_report = study.run_all()
    if args.json:
        path = write_report_json(full_report, args.json)
        print(f"wrote JSON report to {path}", file=sys.stderr)
    # Tolerate whitespace around commas ("fig2a, fig5a"), drop empty
    # tokens and deduplicate while preserving the requested order.
    wanted: list[str] = []
    if args.figures:
        for token in args.figures.split(","):
            token = token.strip()
            if token and token not in wanted:
                wanted.append(token)
    if wanted:
        unknown = [name for name in wanted if name not in FIGURE_RENDERERS]
        if unknown:
            print(
                f"unknown figures: {', '.join(unknown)}; "
                f"available: {', '.join(sorted(FIGURE_RENDERERS))}",
                file=sys.stderr,
            )
            return 2
        with obs.span("analyze.figures", count=len(wanted)):
            rendered = {
                name: FIGURE_RENDERERS[name](full_report) for name in wanted
            }
    else:
        with obs.span("analyze.figures", count=len(FIGURE_RENDERERS)):
            rendered = render_all(full_report)

    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, text in rendered.items():
            (out_dir / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
        print(f"wrote {len(rendered)} figures to {out_dir}", file=sys.stderr)
    else:
        for name, text in rendered.items():
            print(f"==== {name} " + "=" * max(0, 66 - len(name)))
            print(text)
            print()
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve.service import AnalysisService, ServeConfig

    if args.shards < 1:
        print("--shards must be >= 1", file=sys.stderr)
        return 2
    if args.workers is not None and args.workers < 1:
        print("--workers must be >= 1", file=sys.stderr)
        return 2
    if args.checkpoint_interval <= 0:
        print("--checkpoint-interval must be > 0", file=sys.stderr)
        return 2
    config = ServeConfig(
        trace_dir=Path(args.trace),
        host=args.host,
        port=args.port,
        checkpoint_dir=(
            Path(args.checkpoint_dir) if args.checkpoint_dir else None
        ),
        checkpoint_interval=args.checkpoint_interval,
        poll_interval=args.poll_interval,
        shards=args.shards,
        workers=args.workers or 1,
        lenient=args.lenient,
        format=args.format,
    )
    service = AnalysisService(config)
    stop = threading.Event()

    def _request_stop(signum, frame) -> None:
        stop.set()

    previous = {
        sig: signal.signal(sig, _request_stop)
        for sig in (signal.SIGTERM, signal.SIGINT)
    }
    try:
        service.run(stop)
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    print(
        f"serve: stopped at generation {service.generation} after "
        f"{service.rows_total:,} rows",
        file=sys.stderr,
    )
    return 0


def cmd_scoreboard(args: argparse.Namespace) -> int:
    dataset = StudyDataset.load(args.trace)
    report = WearableStudy(dataset).run_all()
    entries = [
        ("growth %/month", "1.5", f"{report.adoption.monthly_growth_percent:.2f}"),
        (
            "data-active users",
            "34%",
            f"{100 * report.adoption.data_active_fraction:.1f}%",
        ),
        (
            "abandoned after window",
            "7%",
            f"{100 * report.adoption.abandoned_fraction:.1f}%",
        ),
        (
            "median transaction",
            "3 KB",
            f"{report.activity.median_tx_bytes / 1000:.1f} KB",
        ),
        (
            "active hours/day",
            "3",
            f"{report.activity.mean_active_hours_per_day:.2f}",
        ),
        ("owners extra data", "+26%", f"{report.comparison.extra_data_percent:+.0f}%"),
        ("owners extra tx", "+48%", f"{report.comparison.extra_tx_percent:+.0f}%"),
        (
            "entropy excess",
            "+70%",
            f"{report.mobility.entropy_excess_percent:+.0f}%",
        ),
        (
            "single tx location",
            "60%",
            f"{100 * report.mobility.single_tx_location_fraction:.1f}%",
        ),
        (
            "third-party data ratio",
            "same order",
            f"{report.domains.third_party_data_ratio:.2f}",
        ),
    ]
    print(format_comparison("Paper vs this trace", entries))
    return 0


def cmd_obs_summarize(args: argparse.Namespace) -> int:
    """Render a saved run report or profile artifact as a table.

    The positional argument is schema-sniffed: a ``repro.obs/profile/v1``
    document renders the hotspot table directly, anything else is
    validated as a run report and rendered as the stage/counter table.
    ``--profile PATH`` additionally appends the hotspot table of a
    separate profile artifact below the stage table.
    """
    try:
        with open(args.report, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        print(f"error: cannot read {args.report}: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: not a valid run report: {exc}", file=sys.stderr)
        return 2
    if isinstance(raw, dict) and raw.get("schema") == PROFILE_SCHEMA:
        try:
            validate_profile(raw)
        except ValueError as exc:
            print(f"error: not a valid profile: {exc}", file=sys.stderr)
            return 2
        meta = raw.get("meta", {})
        if meta.get("command"):
            print(f"profile: {meta['command']}")
            print()
        print(format_hotspot_table(raw, top=args.top))
        return 0
    try:
        report = validate_run_report_file(args.report)
    except (ValueError, json.JSONDecodeError) as exc:
        print(f"error: not a valid run report: {exc}", file=sys.stderr)
        return 2
    meta = report.get("meta", {})
    if meta.get("command"):
        created = time.strftime(
            "%Y-%m-%d %H:%M:%S",
            time.localtime(report.get("created_unix", 0)),
        )
        print(f"run report: {meta['command']} ({created})")
        print()
    print(format_stage_table(report))
    profile_path = getattr(args, "profile", None)
    if profile_path:
        try:
            profile_doc = validate_profile_file(profile_path)
        except OSError as exc:
            print(
                f"error: cannot read {profile_path}: {exc}", file=sys.stderr
            )
            return 2
        except (ValueError, json.JSONDecodeError) as exc:
            print(f"error: not a valid profile: {exc}", file=sys.stderr)
            return 2
        print()
        print("hotspots")
        print(format_hotspot_table(profile_doc, top=args.top))
    return 0


def cmd_obs_compare(args: argparse.Namespace) -> int:
    """Diff two saved run reports; exit 3 on a gated regression.

    Exit codes: 0 — no regression (or ``--report-only``); 2 — an input
    file is missing or not a valid run report; 3 — at least one aligned
    span regressed past the threshold (offending span paths printed).

    With ``--hotspots`` the two positionals are ``repro.obs/profile/v1``
    artifacts instead: the profiles are aligned by ``(span path,
    frame)`` and the top frames whose self-time *share* moved are
    printed, grouped under their span — always exit 0 on valid input
    (attribution informs the gate, it is not itself one).
    """
    if getattr(args, "hotspots", False):
        try:
            comparison = compare_profile_files(args.baseline, args.candidate)
        except OSError as exc:
            print(f"error: cannot read profile: {exc}", file=sys.stderr)
            return 2
        except (ValueError, json.JSONDecodeError) as exc:
            print(f"error: not a valid profile: {exc}", file=sys.stderr)
            return 2
        print(comparison.format_table(top=args.top))
        if args.json:
            target = Path(args.json)
            target.parent.mkdir(parents=True, exist_ok=True)
            with target.open("w", encoding="utf-8") as handle:
                json.dump(comparison.to_dict(), handle, indent=2)
                handle.write("\n")
            print(f"wrote comparison to {target}", file=sys.stderr)
        return 0
    reports = []
    for path in (args.baseline, args.candidate):
        try:
            reports.append(validate_run_report_file(path))
        except OSError as exc:
            print(f"error: cannot read {path}: {exc}", file=sys.stderr)
            return 2
        except (ValueError, json.JSONDecodeError) as exc:
            print(
                f"error: {path}: not a valid run report: {exc}",
                file=sys.stderr,
            )
            return 2
    try:
        config = CompareConfig(
            threshold=args.threshold,
            min_wall_s=args.min_wall,
            fail_on_rows=args.fail_on_rows,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    comparison = compare_run_reports(reports[0], reports[1], config)
    print(comparison.format_table())
    if args.json:
        path = comparison.write_json(args.json)
        print(f"wrote comparison to {path}", file=sys.stderr)
    if not comparison.ok and not args.report_only:
        return 3
    return 0


# ----------------------------------------------------------- observability
def _summary_counts(registry) -> tuple[int, int, int]:
    """(rows in, rows out, issues) for the normalized summary line.

    Rows are the *log-level* I/O counters — ``category="log"`` for real
    log reads/writes, ``category="corrupt"`` for the fault injector's
    line-level traffic, plus ``category="serve"`` for the service
    tailers' incremental reads — so spill-chunk shuffling inside the
    engine never inflates the numbers.  Issues prefer the validation report's total
    (which already folds ingestion quarantine in) and otherwise sum the
    quarantine and fault-injection counters.
    """
    rows_in = (
        registry.sum_counter("repro_io_rows_read_total", category="log")
        + registry.sum_counter("repro_io_rows_read_total", category="corrupt")
        + registry.sum_counter("repro_io_rows_read_total", category="serve")
    )
    rows_out = registry.sum_counter(
        "repro_io_rows_written_total", category="log"
    ) + registry.sum_counter(
        "repro_io_rows_written_total", category="corrupt"
    )
    faults = registry.sum_counter("repro_faults_injected_total")
    validate_total = registry.sum_counter("repro_validate_issues_total")
    if validate_total:
        issues = validate_total + faults
    else:
        issues = (
            registry.sum_counter("repro_quarantine_issues_total") + faults
        )
    return int(rows_in), int(rows_out), int(issues)


def _finalize_obs(
    args: argparse.Namespace, ob: "obs.Observability", command: str
) -> None:
    """Emit the normalized summary line and any requested artifacts."""
    tree = ob.tracer.tree()
    snapshot = ob.metrics.snapshot()
    rows_in, rows_out, issues = _summary_counts(ob.metrics)
    elapsed = tree.wall_s if tree is not None else 0.0
    ob.events.emit(
        "summary",
        rows_in=rows_in,
        rows_out=rows_out,
        issues=issues,
        elapsed_s=round(elapsed, 3),
    )
    print(
        f"{command}: {rows_in:,} rows in / {rows_out:,} rows out, "
        f"{issues:,} issues, {elapsed:.1f}s",
        file=sys.stderr,
    )
    meta = {"command": command, "argv": list(sys.argv[1:])}
    metrics_out = getattr(args, "metrics_out", None)
    if metrics_out:
        target = Path(metrics_out)
        if target.suffix in (".prom", ".txt"):
            write_prometheus(target, snapshot)
        else:
            write_run_report(
                target, build_run_report(snapshot, tree, meta)
            )
        print(f"wrote metrics to {target}", file=sys.stderr)
    trace_out = getattr(args, "trace_out", None)
    if trace_out:
        write_chrome_trace(trace_out, tree)
        print(
            f"wrote chrome trace to {trace_out} "
            "(load at https://ui.perfetto.dev)",
            file=sys.stderr,
        )
    profile_out = getattr(args, "profile_out", None)
    if profile_out:
        # Stop sampling before snapshotting so the artifact is final; the
        # observe() exit then double-stops harmlessly.
        ob.profiler.stop()
        profile_doc = build_profile(
            ob.profiler.snapshot(), meta=meta, hz=ob.profiler.hz or None
        )
        json_path, collapsed_path, speedscope_path = profile_artifact_paths(
            profile_out
        )
        write_profile(json_path, profile_doc)
        write_collapsed(collapsed_path, profile_doc)
        write_speedscope(speedscope_path, profile_doc)
        print(
            f"wrote profile to {json_path} "
            f"(+ {collapsed_path.name}, {speedscope_path.name})",
            file=sys.stderr,
        )
    if getattr(args, "verbose_stats", False):
        print(file=sys.stderr)
        print(
            format_stage_table(build_run_report(snapshot, tree, meta)),
            file=sys.stderr,
        )


def _run_observed(args: argparse.Namespace) -> int:
    """Run an observed subcommand under a fresh obs instance.

    Opens the timeline event log when ``--events-out``/``--progress``
    asks for one (a throwaway temp file backs ``--progress`` on its
    own), runs the orchestrator heartbeat sampler for the duration, and
    tails the log into a live stderr progress line.
    """
    events_path = getattr(args, "events_out", None)
    progress = getattr(args, "progress", False)
    tmp_events: str | None = None
    if progress and not events_path:
        handle, tmp_events = tempfile.mkstemp(
            prefix="repro-events-", suffix=".jsonl"
        )
        os.close(handle)
        events_path = tmp_events
    meta = {"command": args.command, "argv": list(sys.argv[1:])}
    # The sampler only runs when an artifact was asked for: profiling is
    # cheap but not free, and a profile nobody writes is pure overhead.
    profile_hz = (
        getattr(args, "profile_hz", None)
        if getattr(args, "profile_out", None)
        else None
    )
    try:
        with obs.observe(
            events_path=events_path, events_meta=meta, profile_hz=profile_hz
        ) as ob:
            sampler = (
                HeartbeatSampler(ob.events).start()
                if ob.events.enabled
                else None
            )
            printer = (
                ProgressPrinter(events_path, stream=sys.stderr).start()
                if progress and events_path
                else None
            )
            try:
                with obs.span(f"cli.{args.command}"):
                    code = args.func(args)
            finally:
                if sampler is not None:
                    sampler.stop()
                if printer is not None:
                    printer.stop()
            _finalize_obs(args, ob, args.command)
            if getattr(args, "events_out", None):
                print(
                    f"wrote timeline events to {args.events_out}",
                    file=sys.stderr,
                )
        return code
    finally:
        if tmp_events is not None:
            try:
                os.unlink(tmp_events)
            except OSError:
                pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SIM-enabled wearables study: simulate, validate, analyze.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    # Shared observability flags; every observed subcommand inherits them.
    obs_flags = argparse.ArgumentParser(add_help=False)
    obs_flags.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="write the observability run report as JSON (or Prometheus "
        "text exposition if PATH ends in .prom/.txt)",
    )
    obs_flags.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="write the span tree as Chrome trace-event JSON "
        "(viewable at https://ui.perfetto.dev)",
    )
    obs_flags.add_argument(
        "--verbose-stats",
        action="store_true",
        help="print the per-stage timing and counter table to stderr",
    )
    obs_flags.add_argument(
        "--events-out",
        default=None,
        metavar="PATH",
        help="record the live timeline event log (repro.obs/events/v1 "
        "JSON lines: heartbeats, per-shard progress, phases) here",
    )
    obs_flags.add_argument(
        "--progress",
        action="store_true",
        help="render a live progress line on stderr while the command "
        "runs (tails the timeline event log)",
    )
    obs_flags.add_argument(
        "--profile-out",
        default=None,
        metavar="PATH",
        help="run the wall-clock sampling profiler and write the "
        "repro.obs/profile/v1 JSON artifact here (plus "
        "<stem>.collapsed.txt flamegraph text and "
        "<stem>.speedscope.json next to it)",
    )
    obs_flags.add_argument(
        "--profile-hz",
        type=float,
        default=19.0,
        metavar="N",
        help="sampling rate for --profile-out (default: 19; a prime "
        "rate avoids beating against periodic work)",
    )
    obs_flags.set_defaults(observed=True)

    simulate = subparsers.add_parser(
        "simulate",
        help="run the synthetic operator and export a trace",
        parents=[obs_flags],
    )
    simulate.add_argument("--scale", choices=("small", "medium", "paper"),
                          default="medium")
    simulate.add_argument(
        "--preset",
        dest="scale",
        choices=("small", "medium", "paper"),
        default=argparse.SUPPRESS,
        help="alias for --scale",
    )
    simulate.add_argument("--seed", type=int, default=2018)
    simulate.add_argument("--out", required=True, help="trace output directory")
    simulate.add_argument("--wearable-users", type=int, default=None)
    simulate.add_argument("--general-users", type=int, default=None)
    simulate.add_argument("--days", type=int, default=None)
    simulate.add_argument("--detailed-days", type=int, default=None)
    simulate.add_argument(
        "--anonymize",
        action="store_true",
        help="pseudonymise subscriber ids and IMEI serials before export",
    )
    simulate.add_argument(
        "--compress",
        action="store_true",
        help="write the proxy and MME logs gzip-compressed",
    )
    simulate.add_argument(
        "--format",
        choices=("csv", "csv.gz", "bin"),
        default=None,
        help="log wire format: plain CSV, gzip CSV, or the binary "
        "columnar format (default: csv, or csv.gz with --compress; "
        "this flag overrides --compress)",
    )
    simulate.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for sharded simulation (default: 1, serial)",
    )
    simulate.add_argument(
        "--shards",
        type=int,
        default=None,
        help="account shards (default: --workers); the trace is "
        "byte-identical for any shard/worker count at a fixed seed",
    )
    simulate.set_defaults(func=cmd_simulate)

    convert = subparsers.add_parser(
        "convert",
        help="re-encode a trace's proxy/MME logs between the CSV and "
        "binary columnar wire formats (lossless; side artifacts are "
        "copied byte-verbatim)",
        parents=[obs_flags],
    )
    convert.add_argument("trace", help="source trace directory")
    convert.add_argument(
        "--out", required=True, help="converted trace output directory"
    )
    convert.add_argument(
        "--to",
        required=True,
        choices=("bin", "csv", "csv.gz"),
        help="target wire format for the proxy and MME logs",
    )
    convert.set_defaults(func=cmd_convert)

    corrupt = subparsers.add_parser(
        "corrupt",
        help="inject deterministic faults into an exported trace "
        "(chaos fixtures for resilience testing)",
        parents=[obs_flags],
    )
    corrupt.add_argument("trace", help="pristine trace directory to corrupt")
    corrupt.add_argument("--out", required=True, help="corrupted trace output")
    corrupt.add_argument("--seed", type=int, default=0)
    corrupt.add_argument(
        "--rate",
        type=float,
        default=0.02,
        help="default per-row probability for every row-level fault "
        "class (default: 0.02); per-class flags override it",
    )
    for flag, text in (
        ("--drop-rate", "silently drop rows"),
        ("--duplicate-rate", "emit rows twice, back to back"),
        ("--shuffle-rate", "swap timestamps with the previous row"),
        ("--bad-imei-rate", "malform IMEIs"),
        ("--bad-sector-rate", "rewrite MME sectors to unknown ids"),
        ("--bad-bytes-rate", "NaN/negative proxy byte counts"),
        ("--garbage-rate", "insert non-CSV noise lines"),
    ):
        corrupt.add_argument(flag, type=float, default=None, help=text)
    corrupt.add_argument(
        "--truncate",
        type=float,
        default=0.0,
        help="fraction of file bytes to cut from the tail of each "
        "log named by --truncate-file (default: 0, no truncation)",
    )
    corrupt.add_argument(
        "--truncate-file",
        action="append",
        choices=("proxy", "mme"),
        default=None,
        help="log(s) to truncate (repeatable; default: proxy)",
    )
    corrupt.add_argument(
        "--drop-file",
        action="append",
        choices=("proxy", "mme"),
        default=None,
        help="log file(s) to remove entirely (repeatable)",
    )
    corrupt.add_argument(
        "--schedule",
        default=None,
        metavar="PATH",
        help="time-varying fault schedule JSON (repro.chaos/schedule/v1); "
        "overrides every per-class rate flag — corruption becomes a pure "
        "function of (--seed, schedule)",
    )
    corrupt.set_defaults(func=cmd_corrupt)

    soak = subparsers.add_parser(
        "soak",
        help="chaos soak: N seeded episodes of simulate -> corrupt -> "
        "lenient-analyze with per-episode invariant checks; failing "
        "episodes emit shrunk replay capsules",
    )
    soak.add_argument("--out", required=True, help="soak working directory")
    soak.add_argument(
        "--episodes", type=int, default=25, help="episodes per wire format"
    )
    soak.add_argument("--seed", type=int, default=1, help="soak seed")
    soak.add_argument(
        "--schedule",
        default=None,
        metavar="PATH",
        help="fault schedule JSON (default: the built-in soak-default "
        "schedule, examples/schedules/soak-default.json)",
    )
    soak.add_argument(
        "--format",
        action="append",
        choices=("csv", "csv.gz", "bin"),
        default=None,
        help="wire format(s) to soak (repeatable; default: csv.gz and bin)",
    )
    soak.add_argument(
        "--preset",
        choices=("tiny", "small", "medium"),
        default="small",
        help="simulation preset backing every episode (default: small)",
    )
    soak.add_argument(
        "--shards",
        type=int,
        default=2,
        help="shard count for the serial-vs-sharded lenient equality "
        "check (default: 2; 1 disables the check)",
    )
    soak.add_argument(
        "--rss-limit-mb",
        type=float,
        default=None,
        help="fail an episode when its peak resident set exceeds this "
        "many MB (default: unbounded)",
    )
    soak.add_argument(
        "--fail-on-issue",
        action="append",
        metavar="CODE[:MAX]",
        default=None,
        help="fail an episode when quarantine issue CODE occurs more "
        "than MAX times (default MAX: 0; repeatable)",
    )
    soak.add_argument(
        "--no-shrink",
        action="store_true",
        help="emit replay capsules with the full schedule instead of "
        "running the shrinker on failures",
    )
    soak.set_defaults(func=cmd_soak)

    replay = subparsers.add_parser(
        "replay",
        help="re-run a soak replay capsule deterministically; exit 0 "
        "only when the recorded failure reproduces",
    )
    replay.add_argument("capsule", help="replay capsule JSON file")
    replay.add_argument(
        "--workdir",
        default=None,
        help="directory for the rebuilt trace and episode artifacts "
        "(default: a fresh temp directory, kept for triage)",
    )
    replay.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="also write the structured replay outcome as JSON here",
    )
    replay.set_defaults(func=cmd_replay)

    validate = subparsers.add_parser(
        "validate", help="check trace integrity", parents=[obs_flags]
    )
    validate.add_argument("trace", help="trace directory")
    validate.add_argument(
        "--lenient",
        action="store_true",
        help="load the trace leniently first (quarantining unreadable "
        "rows) so even corrupted traces produce a report",
    )
    validate.set_defaults(func=cmd_validate)

    analyze = subparsers.add_parser(
        "analyze",
        help="regenerate paper figures from a trace",
        parents=[obs_flags],
    )
    analyze.add_argument("trace", help="trace directory")
    analyze.add_argument(
        "--figures",
        default=None,
        help="comma-separated figure ids (default: all); "
        "ids: " + ", ".join(sorted(FIGURE_RENDERERS)),
    )
    analyze.add_argument("--out", default=None, help="write figures to a directory")
    analyze.add_argument(
        "--json",
        default=None,
        help="additionally write the full report as JSON to this path",
    )
    analyze.add_argument(
        "--lenient",
        action="store_true",
        help="survive corrupted traces: quarantine unreadable/invalid "
        "rows instead of failing (strict is the default)",
    )
    analyze.add_argument(
        "--quarantine-report",
        default=None,
        metavar="PATH",
        help="with --lenient, write the quarantine report as JSON here",
    )
    analyze.add_argument(
        "--shards",
        type=int,
        default=1,
        help="partition accounts into this many shards and compute the "
        "report as merged per-shard partial aggregates (default: 1 == "
        "the classic single-pass batch path); peak memory is bounded by "
        "the largest shard, not the trace",
    )
    analyze.add_argument(
        "--workers",
        type=int,
        default=None,
        help="process shards with this many worker processes (default: "
        "min(shards, cpu count); 1 == serial fallback over the same "
        "partials — bit-identical report for any worker count)",
    )
    analyze.add_argument(
        "--format",
        choices=("auto", "csv", "bin"),
        default="auto",
        help="which log encoding to load when a trace directory holds "
        "several (default: auto — csv, then csv.gz, then bin)",
    )
    analyze.set_defaults(func=cmd_analyze)

    serve = subparsers.add_parser(
        "serve",
        help="tail a growing trace and serve live analysis over HTTP",
        parents=[obs_flags],
    )
    serve.add_argument(
        "--trace", required=True, metavar="DIR", help="trace directory"
    )
    serve.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address (default: 127.0.0.1)",
    )
    serve.add_argument(
        "--port",
        type=int,
        default=8321,
        help="listen port (default: 8321; 0 picks an ephemeral port, "
        "printed on the 'listening on' line)",
    )
    serve.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="DIR",
        help="persist repro.serve/checkpoint/v1 snapshots here and "
        "crash-recover from the newest valid one on restart "
        "(default: no checkpoints)",
    )
    serve.add_argument(
        "--checkpoint-interval",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="minimum seconds between checkpoints (default: 30; one is "
        "always written on shutdown)",
    )
    serve.add_argument(
        "--poll-interval",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="sleep between stream polls when no rows arrived "
        "(default: 0.5)",
    )
    serve.add_argument(
        "--shards",
        type=int,
        default=1,
        help="account shards for the incremental partial aggregates "
        "(default: 1); must match any checkpoint being restored",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for the finalize replay step "
        "(default: 1 == in-process; the report is identical either way)",
    )
    serve.add_argument(
        "--lenient",
        action="store_true",
        help="survive corrupted streams: quarantine bad rows with the "
        "batch lenient semantics instead of failing",
    )
    serve.add_argument(
        "--format",
        choices=("auto", "csv", "bin"),
        default="auto",
        help="which log encoding to tail (default: auto — csv, then "
        "csv.gz, then bin; pinned once a stream appears)",
    )
    serve.set_defaults(func=cmd_serve)

    scoreboard = subparsers.add_parser(
        "scoreboard", help="print the paper-vs-measured headline table"
    )
    scoreboard.add_argument("trace", help="trace directory")
    scoreboard.set_defaults(func=cmd_scoreboard)

    obs_cmd = subparsers.add_parser(
        "obs", help="work with saved observability artifacts"
    )
    obs_sub = obs_cmd.add_subparsers(dest="obs_command", required=True)
    summarize = obs_sub.add_parser(
        "summarize",
        help="render a saved run report (--metrics-out JSON) as a "
        "stage/counter table, or a --profile-out artifact as a "
        "hotspot table",
    )
    summarize.add_argument(
        "report", help="run-report or profile JSON file"
    )
    summarize.add_argument(
        "--top",
        type=int,
        default=15,
        metavar="N",
        help="rows in the hotspot table (default: 15)",
    )
    summarize.add_argument(
        "--profile",
        default=None,
        metavar="PATH",
        help="also render the hotspot table of this profile artifact "
        "below the stage table",
    )
    summarize.set_defaults(func=cmd_obs_summarize)

    compare = obs_sub.add_parser(
        "compare",
        help="diff two run reports by span path and metric key; "
        "exit 3 when the candidate regressed past the threshold",
    )
    compare.add_argument("baseline", help="trusted baseline run report")
    compare.add_argument("candidate", help="candidate run report to gate")
    compare.add_argument(
        "--threshold",
        type=float,
        default=0.15,
        help="relative wall-time increase that counts as a regression "
        "(default: 0.15 == 15%%)",
    )
    compare.add_argument(
        "--min-wall",
        type=float,
        default=0.05,
        help="ignore spans faster than this in both runs (default: 0.05s)",
    )
    compare.add_argument(
        "--fail-on-regression",
        action="store_true",
        default=True,
        help="exit 3 when a regression is found (the default)",
    )
    compare.add_argument(
        "--report-only",
        action="store_true",
        help="always exit 0; print the diff but never gate",
    )
    compare.add_argument(
        "--fail-on-rows",
        action="store_true",
        help="also gate on row-count drift (suspicious at a fixed seed)",
    )
    compare.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="additionally write the structured comparison as JSON here",
    )
    compare.add_argument(
        "--hotspots",
        action="store_true",
        help="treat the positionals as repro.obs/profile/v1 artifacts "
        "and print the top frames whose self-time share diverged, "
        "grouped by span (always exits 0 on valid input)",
    )
    compare.add_argument(
        "--top",
        type=int,
        default=20,
        metavar="N",
        help="frame rows to print with --hotspots (default: 20)",
    )
    compare.set_defaults(func=cmd_obs_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code.

    Operational failures (missing or unreadable trace directories,
    corrupted logs in strict mode) are reported as a one-line ``error:``
    diagnostic on stderr with exit code 2, never a traceback.  Strict-mode
    log corruption carries the matching quarantine issue code (e.g.
    ``[proxy-truncated]``) so operators know what ``--lenient`` would
    have quarantined.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "observed", False):
            return _run_observed(args)
        return args.func(args)
    except LogReadError as exc:
        stem = Path(exc.path).name.split(".", 1)[0]
        print(f"error [{stem}-{exc.code}]: {exc}", file=sys.stderr)
        # Structural binary-format errors (wrong magic, unknown version)
        # are not row-level defects: lenient mode rejects them too, so
        # the hint would mislead.
        if exc.code not in ("magic", "version"):
            print(
                "hint: use --lenient to quarantine bad rows and continue",
                file=sys.stderr,
            )
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NotADirectoryError, PermissionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # Malformed schedule / replay-capsule documents and bad flag
        # combinations raise ValueError with a self-explanatory message.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
