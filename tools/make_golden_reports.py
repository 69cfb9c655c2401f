"""Write the golden ``StudyReport`` fixtures the test suite checks against.

    PYTHONPATH=src python tools/make_golden_reports.py

``golden_small.json``: simulates the small preset (seed 7), exports it as
CSV and as ``.bin``, corrupts a copy of each like ``repro corrupt --rate
0.02 --seed 5``, and runs the batch pipeline over the clean CSV trace
(strict) and both corrupted copies (lenient).

``golden_medium.json``: simulates the medium preset (seed 42), exports
it as CSV and as ``.bin``, and runs the batch pipeline over the CSV
trace (strict) and over a ``.bin`` copy corrupted the same way
(lenient).

Each fixture stores the per-field digests from ``tests/core/golden.py``
together with the commit they came from.  An entry is generated once
and then only read: the script computes only the entries a fixture does
not hold yet and adds them, each with its own ``generated_at``, leaving
the stored entries and the fixture's ``generated_at`` as they are, so
re-baselining is a deliberate delete plus a reviewed diff.
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


def small_modes(root: Path) -> dict:
    config = SimulationConfig.small(seed=golden.SEED)
    output = Simulator(config).run()
    output.write(root / "trace")
    output.write(root / "trace-bin", format="bin")
    corrupt_trace(root / "trace", root / "corrupt", golden.CORRUPT_SPEC)
    corrupt_trace(root / "trace-bin", root / "corrupt-bin", golden.CORRUPT_SPEC)
    return {
        "strict": lambda: StudyDataset.load(root / "trace"),
        "lenient": lambda: StudyDataset.load(root / "corrupt", lenient=True),
        "lenient_bin": lambda: StudyDataset.load(
            root / "corrupt-bin", lenient=True
        ),
    }


def medium_modes(root: Path) -> dict:
    config = SimulationConfig.medium(seed=golden.MEDIUM_SEED)
    output = Simulator(config).run()
    output.write(root / "trace")
    output.write(root / "trace-bin", format="bin")
    corrupt_trace(root / "trace-bin", root / "corrupt-bin", golden.CORRUPT_SPEC)
    return {
        "strict": lambda: StudyDataset.load(root / "trace"),
        "lenient_bin": lambda: StudyDataset.load(
            root / "corrupt-bin", lenient=True
        ),
    }


#: (fixture path, preset, seed, datasets per mode) for every fixture.
FIXTURES = (
    (golden.GOLDEN_PATH, golden.PRESET, golden.SEED, small_modes),
    (golden.MEDIUM_PATH, golden.MEDIUM_PRESET, golden.MEDIUM_SEED, medium_modes),
)


def main() -> int:
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"],
        cwd=ROOT,
        check=True,
        capture_output=True,
        text=True,
    ).stdout.strip()
    wrote = False
    for path, preset, seed, modes_of in FIXTURES:
        fixture = (
            golden.load_golden(path)
            if path.exists()
            else {"generated_at": commit, "preset": preset, "seed": seed, "modes": {}}
        )
        with tempfile.TemporaryDirectory() as scratch:
            modes = modes_of(Path(scratch))
            missing = [mode for mode in modes if mode not in fixture["modes"]]
            if not missing:
                continue
            for mode in missing:
                entry = golden.golden_record(WearableStudy(modes[mode]()).run_all())
                if fixture["modes"]:
                    entry["generated_at"] = commit
                fixture["modes"][mode] = entry
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            json.dump(fixture, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"{path}: added {', '.join(missing)}")
        wrote = True
    if not wrote:
        print("every golden entry exists; delete one to regenerate", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
