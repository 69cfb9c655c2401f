#!/usr/bin/env python3
"""Privacy-audit scenario: third-party tracking on wearables (§5.2).

A regulator or privacy team asks: *how much of the cellular data a
wearable moves actually goes to advertisers and analytics networks?*
This example drives the host→app attribution, the domain categorisation
and the per-app breakdown to answer that:

* the Fig. 8 split (Application / Utilities / Advertising / Analytics);
* the apps whose users leak the most third-party traffic;
* the per-user "tracking bill": how many KB of a user's wearable plan go
  to ads+analytics.

Run with::

    python examples/privacy_audit.py [--seed N]
"""

from __future__ import annotations

import argparse
from collections import defaultdict

import numpy as np

from repro import SimulationConfig, Simulator, StudyDataset, WearableStudy
from repro.core.report import format_table
from repro.simnet.appcatalog import DOMAIN_ADVERTISING, DOMAIN_ANALYTICS
from repro.stats.cdf import ECDF


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=21)
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    print(f"Simulating (medium preset, seed {args.seed})...")
    output = Simulator(SimulationConfig.medium(seed=args.seed)).run()
    study = WearableStudy(StudyDataset.from_simulation(output))

    # --- Fig. 8: overall split -----------------------------------------
    domains = study.domains
    print()
    print(
        format_table(
            ("domain category", "users %", "transactions %", "data %"),
            [
                (row.category, row.users_pct, row.usage_freq_pct, row.data_pct)
                for row in domains.per_domain_category
            ],
            title="Where wearable traffic goes (Fig. 8)",
        )
    )
    print(
        f"\nThird-party (ads+analytics) vs first-party data ratio: "
        f"{domains.third_party_data_ratio:.2f} — same order of magnitude, "
        "as the paper reports."
    )

    # --- per-app tracking breakdown ------------------------------------
    # The attribution is columns: the attributed proxy rows, each row's
    # app code (-1 when unresolved) and domain category.
    attribution = study.attribution
    table = attribution.table
    window = study.dataset.window
    timestamps = table.column("timestamp")
    rows = np.flatnonzero(
        (attribution.app >= 0)
        & (timestamps >= window.detailed_start)
        & (timestamps < window.study_end)
    )
    subscribers = table.column("subscriber_id")
    tracker_bytes: dict[str, int] = defaultdict(int)
    app_bytes: dict[str, int] = defaultdict(int)
    per_user_tracker: dict[str, int] = defaultdict(int)
    for app, category, subscriber, size in zip(
        attribution.apps[attribution.app[rows]].tolist(),
        attribution.category.values[attribution.category.codes[rows]].tolist(),
        subscribers.values[subscribers.codes[rows]].tolist(),
        (table.column("bytes_up") + table.column("bytes_down"))[rows].tolist(),
    ):
        app_bytes[app] += size
        if category in (DOMAIN_ADVERTISING, DOMAIN_ANALYTICS):
            tracker_bytes[app] += size
            per_user_tracker[subscriber] += size

    rows = sorted(
        (
            (
                app,
                tracker_bytes[app] / 1000.0,
                100.0 * tracker_bytes[app] / app_bytes[app],
            )
            for app in tracker_bytes
            if app_bytes[app] > 0
        ),
        key=lambda row: row[1],
        reverse=True,
    )[:12]
    print()
    print(
        format_table(
            ("app", "tracker KB (total)", "share of app's data"),
            [(app, kb, f"{pct:.1f}%") for app, kb, pct in rows],
            title="Apps leaking the most advertising/analytics traffic",
        )
    )

    # --- per-user tracking bill ----------------------------------------
    if per_user_tracker:
        bill = ECDF([b / 1000.0 for b in per_user_tracker.values()])
        print()
        print(
            format_table(
                ("quantile", "KB to trackers over the window"),
                [
                    ("median", f"{bill.median:.1f}"),
                    ("p90", f"{bill.quantile(0.9):.1f}"),
                    ("max", f"{bill.maximum:.1f}"),
                ],
                title=f"Per-user tracking bill ({len(bill)} affected users)",
            )
        )
        print(
            "\nOn a wearable data plan this is paid-for traffic the user "
            "never asked for — the paper's closing observation."
        )


if __name__ == "__main__":
    main()
