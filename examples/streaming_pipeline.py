#!/usr/bin/env python3
"""Streaming scenario: analyse a trace too large to load into memory.

A real seven-week national proxy log doesn't fit in RAM.  This example
shows the bounded-memory path:

1. export a trace to disk (stand-in for the operator's log store);
2. analyse it with ``analyze_parallel`` over account shards: each shard
   streams only its own rows off disk and folds them into mergeable
   partials, so no process ever holds more than one shard;
3. compare the merged report against the batch pipeline — the same
   partials over the whole dataset — to show they are identical.

Run with::

    python examples/streaming_pipeline.py [--seed N] [--shards N]
"""

from __future__ import annotations

import argparse
import resource
import tempfile
import time
from pathlib import Path

from repro import SimulationConfig, Simulator, StudyDataset, WearableStudy
from repro.core.parallel import analyze_parallel
from repro.core.report import format_table


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--shards", type=int, default=8)
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    trace_dir = Path(tempfile.mkdtemp(prefix="wearables-stream-"))

    print(f"Exporting a trace to {trace_dir} ...")
    output = Simulator(SimulationConfig.medium(seed=args.seed)).run()
    output.write(trace_dir)
    n_records = len(output.proxy_records) + len(output.mme_records)
    print(f"  {n_records:,} records on disk")

    # --- sharded side: one account shard in memory at a time -----------
    print(f"Sharded pass ({args.shards} shards, one worker)...")
    started = time.time()
    run = analyze_parallel(trace_dir, shards=args.shards, workers=1)
    stream_seconds = time.time() - started
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    sharded = run.report

    # --- batch side for comparison --------------------------------------
    batch = WearableStudy(StudyDataset.from_simulation(output)).run_all()

    print()
    print(
        format_table(
            ("metric", "sharded", "batch"),
            [
                (
                    "growth %/month",
                    f"{sharded.adoption.monthly_growth_percent:.2f}",
                    f"{batch.adoption.monthly_growth_percent:.2f}",
                ),
                (
                    "data-active fraction",
                    f"{sharded.adoption.data_active_fraction:.3f}",
                    f"{batch.adoption.data_active_fraction:.3f}",
                ),
                (
                    "wearable transactions",
                    f"{len(sharded.activity.transaction_sizes):,}",
                    f"{len(batch.activity.transaction_sizes):,}",
                ),
                (
                    "mean tx bytes",
                    f"{sharded.activity.mean_tx_bytes:.0f}",
                    f"{batch.activity.mean_tx_bytes:.0f}",
                ),
                (
                    "median tx bytes",
                    f"{sharded.activity.median_tx_bytes:.0f}",
                    f"{batch.activity.median_tx_bytes:.0f}",
                ),
                (
                    "p90 tx bytes",
                    f"{sharded.activity.transaction_sizes.quantile(0.9):.0f}",
                    f"{batch.activity.transaction_sizes.quantile(0.9):.0f}",
                ),
                (
                    "active days/week",
                    f"{sharded.activity.mean_active_days_per_week:.2f}",
                    f"{batch.activity.mean_active_days_per_week:.2f}",
                ),
            ],
            title="Sharded vs batch results",
        )
    )
    identical = "identical" if sharded == batch else "DIFFERENT"
    print(
        f"\nSharded pass: {stream_seconds:.1f}s, at most "
        f"{run.peak_resident_records:,} of {n_records:,} records resident, "
        f"process peak RSS {rss_mb:.0f} MB; the two reports are {identical}."
    )


if __name__ == "__main__":
    main()
