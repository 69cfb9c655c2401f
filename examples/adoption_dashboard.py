#!/usr/bin/env python3
"""ISP analyst scenario: a wearable-adoption dashboard from exported traces.

This example exercises the *on-disk* workflow an operator team would use:

1. the measurement infrastructure exports its logs (here: the simulator
   writes proxy.csv, mme.csv, devices.csv, sectors.csv, accounts.csv);
2. an analyst loads the trace directory with ``StudyDataset.load`` —
   no simulator objects involved — and builds the Section 4.1 dashboard:
   daily adoption series, growth rate, retention cohort, device census.

Run with::

    python examples/adoption_dashboard.py [--seed N] [--trace-dir DIR]
"""

from __future__ import annotations

import argparse
import tempfile
from pathlib import Path

from repro import SimulationConfig, Simulator, StudyDataset, WearableStudy
from repro.core.report import format_table


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--trace-dir",
        type=Path,
        default=None,
        help="where to write/read the trace (default: a temp directory)",
    )
    return parser.parse_args()


def sparkline(values: list[float]) -> str:
    """Render a normalized series as a unicode sparkline."""
    blocks = "▁▂▃▄▅▆▇█"
    lo, hi = min(values), max(values)
    if hi == lo:
        return blocks[0] * len(values)
    return "".join(
        blocks[int((v - lo) / (hi - lo) * (len(blocks) - 1))] for v in values
    )


def main() -> None:
    args = parse_args()
    trace_dir = args.trace_dir or Path(tempfile.mkdtemp(prefix="wearables-"))

    # --- infrastructure side: export the five-month trace -------------
    print(f"Exporting synthetic operator trace to {trace_dir} ...")
    output = Simulator(SimulationConfig.medium(seed=args.seed)).run()
    paths = output.write(trace_dir)
    for name, path in paths.items():
        print(f"  {name:9s} {path.stat().st_size / 1e6:8.2f} MB  {path.name}")

    # --- analyst side: load from disk only ----------------------------
    print("\nLoading trace (analyst view, CSVs only)...")
    study = WearableStudy(StudyDataset.load(trace_dir))

    adoption = study.adoption
    weekly = adoption.normalized_daily[::7]
    print("\n=== SIM-wearable adoption dashboard ===")
    print(f"weekly users (normalized): {sparkline(weekly)}")
    print(
        format_table(
            ("metric", "value"),
            [
                ("growth per month", f"{adoption.monthly_growth_percent:+.2f}%"),
                ("growth over window", f"{adoption.total_growth_percent:+.1f}%"),
                ("first-week cohort", adoption.first_week_users),
                ("abandoned", f"{100 * adoption.abandoned_fraction:.1f}%"),
                (
                    "still active in last week",
                    f"{100 * adoption.still_active_fraction:.1f}%",
                ),
                (
                    "ever used cellular data",
                    f"{100 * adoption.data_active_fraction:.1f}%",
                ),
            ],
            title="Section 4.1 summary",
        )
    )

    census = study.census
    rows = sorted(
        census.devices_per_model.items(), key=lambda kv: kv[1], reverse=True
    )
    print()
    print(
        format_table(
            ("device model", "active devices"),
            rows,
            title=f"Device census ({census.total_devices} wearables)",
        )
    )


if __name__ == "__main__":
    main()
