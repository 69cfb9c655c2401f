"""Write the golden ``StudyReport`` fixtures the test suite checks against.

    PYTHONPATH=src python tools/make_golden_reports.py

``golden_small.json``: simulates the small preset (seed 7), exports it as
CSV and as ``.bin``, corrupts a copy of each like ``repro corrupt --rate
0.02 --seed 5``, and runs the batch pipeline over the clean CSV trace
(strict) and both corrupted copies (lenient).

``golden_medium.json``: simulates the medium preset (seed 42), exports
it as CSV and runs the batch pipeline over it (strict).

Each fixture stores the per-field digests from ``tests/core/golden.py``
together with the commit they came from.  A fixture is generated once
and then only read: the script writes only the fixtures that do not
exist yet, so re-baselining is a deliberate delete plus a reviewed diff.
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


def small_modes(root: Path) -> dict[str, StudyDataset]:
    config = SimulationConfig.small(seed=golden.SEED)
    output = Simulator(config).run()
    output.write(root / "trace")
    output.write(root / "trace-bin", format="bin")
    corrupt_trace(root / "trace", root / "corrupt", golden.CORRUPT_SPEC)
    corrupt_trace(root / "trace-bin", root / "corrupt-bin", golden.CORRUPT_SPEC)
    return {
        "strict": StudyDataset.load(root / "trace"),
        "lenient": StudyDataset.load(root / "corrupt", lenient=True),
        "lenient_bin": StudyDataset.load(root / "corrupt-bin", lenient=True),
    }


def medium_modes(root: Path) -> dict[str, StudyDataset]:
    config = SimulationConfig.medium(seed=golden.MEDIUM_SEED)
    Simulator(config).run().write(root / "trace")
    return {"strict": StudyDataset.load(root / "trace")}


#: (fixture path, preset, seed, datasets per mode) for every fixture.
FIXTURES = (
    (golden.GOLDEN_PATH, golden.PRESET, golden.SEED, small_modes),
    (golden.MEDIUM_PATH, golden.MEDIUM_PRESET, golden.MEDIUM_SEED, medium_modes),
)


def main() -> int:
    missing = [spec for spec in FIXTURES if not spec[0].exists()]
    if not missing:
        print("every golden fixture exists; delete one to regenerate", file=sys.stderr)
        return 1
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"],
        cwd=ROOT,
        check=True,
        capture_output=True,
        text=True,
    ).stdout.strip()
    for path, preset, seed, modes_of in missing:
        with tempfile.TemporaryDirectory() as scratch:
            fixture = {
                "generated_at": commit,
                "preset": preset,
                "seed": seed,
                "modes": {
                    mode: golden.golden_record(WearableStudy(dataset).run_all())
                    for mode, dataset in modes_of(Path(scratch)).items()
                },
            }
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            json.dump(fixture, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
