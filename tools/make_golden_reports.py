"""Write the golden ``StudyReport`` fixture the test suite checks against.

    PYTHONPATH=src python tools/make_golden_reports.py

Simulates the small preset (seed 7), exports it as CSV, corrupts a copy
like ``repro corrupt --rate 0.02 --seed 5``, runs the batch pipeline over
both (strict, then lenient) and stores the per-field digests and values
from ``tests/core/golden.py`` together with the commit they came from.

The fixture is generated once and then only read: the script refuses to
overwrite an existing fixture, so re-baselining is a deliberate delete
plus a reviewed diff.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.core.dataset import StudyDataset  # noqa: E402
from repro.core.pipeline import WearableStudy  # noqa: E402
from repro.logs.faults import corrupt_trace  # noqa: E402
from repro.simnet.config import SimulationConfig  # noqa: E402
from repro.simnet.simulator import Simulator  # noqa: E402
from tests.core import golden  # noqa: E402


def main() -> int:
    if golden.GOLDEN_PATH.exists():
        print(f"{golden.GOLDEN_PATH} exists; delete it to regenerate", file=sys.stderr)
        return 1
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"],
        cwd=ROOT,
        check=True,
        capture_output=True,
        text=True,
    ).stdout.strip()
    config = getattr(SimulationConfig, golden.PRESET)(seed=golden.SEED)
    with tempfile.TemporaryDirectory() as scratch:
        trace = Path(scratch) / "trace"
        corrupted = Path(scratch) / "corrupt"
        Simulator(config).run().write(trace)
        corrupt_trace(trace, corrupted, golden.CORRUPT_SPEC)
        modes = {
            "strict": StudyDataset.load(trace),
            "lenient": StudyDataset.load(corrupted, lenient=True),
        }
        fixture = {
            "generated_at": commit,
            "preset": golden.PRESET,
            "seed": golden.SEED,
            "modes": {
                mode: golden.golden_record(WearableStudy(dataset).run_all())
                for mode, dataset in modes.items()
            },
        }
    golden.GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    with golden.GOLDEN_PATH.open("w", encoding="utf-8") as handle:
        json.dump(fixture, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(golden.GOLDEN_PATH)
    return 0


if __name__ == "__main__":
    sys.exit(main())
