"""Repository benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload {batch,sharded,serve}
        [--seed 2018] [--seconds 16] [--trace 0|1]

Set-up (simulate + export, plus corrupt or cut points) runs twice in its
own process and reports the median.  The timed phase runs in a fresh
interpreter: passes repeat while another one still fits in ``--seconds``
(at least one; serve's passes may fill 50 s), and every end-to-end
metric is the median over passes.  ``--trace 1`` instead runs set-up and
one pass traced and prints the per-layer table and metrics; the spans
are written as a Chrome trace under ``.perfbench/traces/``.  Every run
checks the program's outputs; see README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Set-ups per untraced run; ``setup_s`` is their median.  Two, not more:
#: set-up is the largest share of a run (the sharded one takes about
#: 11 s), and a comparison takes dozens of runs per workload.
SETUP_REPEATS = 2

#: Wall-clock budget for one whole run, within the 180 s a run may take.
RUN_BUDGET_S = 175.0

END_TO_END = (
    ("setup_s", "s"),
    ("report_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("refresh_s", "s"),
    ("checkpoint_mb", "MB"),
    ("restore_s", "s"),
)


class PhaseError(RuntimeError):
    pass


def phase(command: str, argv: list[str], deadline: float) -> dict:
    """Run one phase in a fresh interpreter; returns its JSON result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONHASHSEED"] = "0"
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "phases.py"), command, *argv],
            env=env,
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise PhaseError(f"{command} phase ran out of time") from exc
    if done.returncode != 0:
        raise PhaseError(f"{command} phase exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def execute(
    workload: str,
    seed: int,
    preset: str,
    seconds: float,
    traced_run: bool,
    reference_digest: str | None,
) -> dict:
    """Set-up, the timed phase and (traced) the replay; returns their output."""
    deadline = time.monotonic() + RUN_BUDGET_S
    run_id = uuid.uuid4().hex[:12]
    epoch = time.time()
    work = ROOT / ".perfbench" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup_argv = [
            "--workload", workload, "--preset", preset, "--seed", str(seed),
            "--out", str(work / "setup"), "--run-id", run_id,
        ]
        if traced_run:
            setup_argv += ["--repeat", "1", "--traced"]
        else:
            setup_argv += ["--repeat", str(SETUP_REPEATS)]
        # The serve check against batch needs a batch report: stored, or
        # computed off the clock by traced runs.
        if workload == "serve" and reference_digest is None and traced_run:
            setup_argv.append("--reference")
        setup = phase("setup", setup_argv, deadline)
        if reference_digest is not None:
            setup["reference_digest"] = reference_digest
        setup_file = work / "setup.json"
        setup_file.write_text(json.dumps(setup), encoding="utf-8")
        measure_argv = [
            "--workload", workload, "--setup", str(setup_file),
            "--work", str(work / "measure"), "--run-id", run_id,
        ]
        parts = {"setup": setup}
        if not traced_run:
            parts["measured"] = phase(
                "measure", measure_argv + ["--seconds", str(seconds)], deadline
            )
            return parts
        parts["measured"] = phase(
            "measure",
            measure_argv
            + ["--seconds", "0"]
            + (["--serial-baseline"] if workload == "sharded" else []),
            deadline,
        )
        parts["traced"] = phase(
            "measure", measure_argv + ["--seconds", "0", "--traced"], deadline
        )
        parts["tree"] = combined_tree(
            workload,
            run_id,
            seed,
            epoch,
            [
                (setup["spans"], setup["epoch_unix"]),
                (parts["traced"]["spans"], parts["traced"]["epoch_unix"]),
            ],
        )
        return parts
    finally:
        shutil.rmtree(work, ignore_errors=True)


def end_to_end(workload: str, setup: dict, measured: dict) -> dict:
    passes = measured["passes"]

    def median(key: str) -> float:
        return statistics.median(item[key] for item in passes)

    return {
        "setup_s": statistics.median(setup["setup_s"]),
        "report_s": median("report_s"),
        "cpu_s": median("cpu_s"),
        "peak_rss_mb": measured["peak_rss_mb"],
        "refresh_s": median("refresh_s"),
        "checkpoint_mb": (
            median("checkpoint_mb") if workload == "serve" else measured["log_mb"]
        ),
        "restore_s": median("restore_s"),
    }


def combined_tree(workload: str, run_id: str, seed: int, epoch: float, parts) -> dict:
    """One span tree: the workload span over each phase's spans.

    Phases run in separate processes with their own tracer epochs; each
    subtree is shifted onto this process's epoch.
    """

    def shift(node: dict, by: float) -> dict:
        return {
            **node,
            "start_s": node["start_s"] + by,
            "children": [shift(child, by) for child in node["children"]],
        }

    children = [shift(tree, part_epoch - epoch) for tree, part_epoch in parts]
    end = max(child["start_s"] + child["wall_s"] for child in children)
    return {
        "name": workload,
        "attrs": {"run": run_id, "seed": seed},
        "start_s": 0.0,
        "wall_s": end,
        "cpu_s": sum(child["cpu_s"] for child in children),
        "pid": os.getpid(),
        "children": children,
    }


def per_layer(workload: str, parts: dict) -> tuple[dict, str]:
    """Every per-layer metric of a traced run, and the per-layer table."""
    import checks
    import layers

    setup, measured, traced, tree = (
        parts["setup"], parts["measured"], parts["traced"], parts["tree"]
    )
    totals = layers.span_totals(tree)
    counts = checks.run_counts(setup, measured, traced)
    first = measured["passes"][0]
    extra = dict(traced["extra"])
    if workload == "sharded":
        busy = first["shard_busy_s"]
        extra["parallel.shard_skew"] = max(busy) / statistics.mean(busy)
        extra["parallel.pool_idle_s"] = first["workers"] * first["report_s"] - sum(
            busy
        )
        baseline = measured["serial_wall_s"]
    else:
        baseline = first["wall_s"]
    if workload == "serve":
        for key in ("checkpoint_growth", "query_us", "query_p99_us"):
            extra[f"serve.{key}"] = first[key]
    extra["trace.overhead_s"] = (
        totals["pass"]["busy_s"]
        - totals.get("probe", {}).get("busy_s", 0.0)
        - baseline
    )
    metrics = layers.per_layer_metrics(tree, counts, extra)
    return metrics, layers.format_table(totals, metrics)


def summarize(
    workload: str, parts: dict, expected: dict | None
) -> tuple[dict, list[str], list[str], str | None]:
    """The result line, the checks run, the failures and the layer table."""
    import checks
    import layers

    checked, failures = checks.run_checks(
        workload,
        parts["setup"],
        parts["measured"],
        parts.get("traced"),
        expected,
    )
    table = None
    if "traced" in parts:
        values, table = per_layer(workload, parts)
        units = layers.UNITS
    else:
        values = end_to_end(workload, parts["setup"], parts["measured"])
        units = dict(END_TO_END)
    result = {
        "correct": not failures,
        "attempted": len(checked) + len(parts["measured"]["passes"]),
        "failed": len(failures),
        "metrics": {
            name: {"value": values[name], "unit": units[name]} for name in units
        },
    }
    return result, checked, failures, table


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", choices=("batch", "sharded", "serve"), required=True
    )
    parser.add_argument("--seed", type=int, default=2018)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--preset", choices=("small", "medium"), default="medium",
        help="simulation preset (small: the harness self-test)",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(
            f"perfbench: no src/repro under {ROOT}; run from a checkout "
            "of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import checks

    expected_all = checks.load_expected()
    expected = checks.stored(expected_all, args.preset, args.seed, args.workload)
    batch = checks.stored(expected_all, args.preset, args.seed, "batch")
    try:
        parts = execute(
            args.workload,
            args.seed,
            args.preset,
            args.seconds,
            bool(args.trace),
            batch["digest"] if batch is not None else None,
        )
    except PhaseError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    result, checked, failures, table = summarize(args.workload, parts, expected)
    if table is not None:
        from repro.obs.export import write_chrome_trace

        path = write_chrome_trace(
            ROOT / ".perfbench" / "traces"
            / f"{args.workload}-seed{args.seed}.json",
            parts["tree"],
        )
        print(table)
        print(f"spans written to {path.relative_to(ROOT)}")
    for line in failures:
        print(f"perfbench: check failed: {line}", file=sys.stderr)
    print(
        f"perfbench: {args.workload} seed {args.seed}: "
        f"{len(checked) - len(failures)}/{len(checked)} checks passed "
        f"({', '.join(checked)})",
        file=sys.stderr,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
