"""Re-record expected.json: report digests and counts at the stored seeds.

    python3 perfbench/record.py

Runs every workload traced on the medium preset at each seed (about three
minutes per seed) and stores what later runs at those seeds compare
against: the digest of the report's exact-tier fields and every count.
Re-record only for a change that is meant to alter reports or counts.
"""

from __future__ import annotations

import json
import sys

import run

sys.path.insert(0, str(run.ROOT / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402

#: The preset's own seed and the held-out seed.
SEEDS = (2018, 7)


def record(seed: int) -> dict:
    stored = {}
    for workload in workloads.WORKLOADS:
        reference = stored["batch"]["digest"] if workload == "serve" else None
        parts = run.execute(workload, seed, "medium", 0, True, reference)
        failures = run.summarize(workload, parts, None)[2]
        if failures:
            raise SystemExit(f"{workload} seed {seed}: {failures}")
        counts = checks.run_counts(
            parts["setup"], parts["measured"], parts["traced"]
        )
        stored[workload] = {
            "digest": parts["traced"]["digest"],
            "counts": dict(sorted(counts.items())),
        }
        print(f"record: {workload} seed {seed} {stored[workload]['digest'][:12]}",
              file=sys.stderr, flush=True)
    return stored


def main() -> int:
    expected = checks.load_expected()
    medium = expected.setdefault("medium", {})
    for seed in SEEDS:
        medium[str(seed)] = record(seed)
    with checks.EXPECTED_PATH.open("w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
