"""Golden ``StudyReport`` fixtures: canonical forms and the comparison.

The fixture in ``tests/core/data/golden_small.json`` pins the report the
small preset (seed 7) produces as stored data — strict, lenient over a
corrupted CSV copy, and lenient over a corrupted ``.bin`` copy — so
every execution mode is checked against recorded results rather than
against a second implementation.  ``tests/core/data/golden_medium.json``
pins the strict report of the medium preset (seed 42, the suite's
``medium_output``), the only preset whose encounter join is large
enough to cross the join's chunk boundaries.
``tools/make_golden_reports.py`` wrote both once; the tests only ever
read them.

Every report field is stored as the sha256 of its canonical form (dicts
and sets sorted, floats as ``float.hex``) and must match bit for bit.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

from repro.logs.faults import FaultSpec
from repro.stats.cdf import ECDF

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_small.json"
MEDIUM_PATH = GOLDEN_PATH.with_name("golden_medium.json")

#: The simulations the fixtures were generated from.
PRESET = "small"
SEED = 7
MEDIUM_PRESET = "medium"
MEDIUM_SEED = 42

#: The lenient modes read a copy corrupted like ``repro corrupt --rate
#: 0.02 --seed 5``: every row-level fault class, no truncation.  In the
#: CSV copy garbage is text lines; in the ``.bin`` copy it is bytes
#: spliced between blocks.
CORRUPT_SPEC = FaultSpec(seed=5).with_rate(0.02)

#: Every ``StudyReport`` field the fixture pins.
FIELDS = (
    "census",
    "adoption",
    "activity",
    "comparison",
    "mobility",
    "apps",
    "domains",
    "through_device",
    "weekly",
    "protocols",
    "devices",
    "encounters",
    "quarantine",
)


def canonical(value):
    """A JSON-ready form that is equal exactly when the values are."""
    if isinstance(value, ECDF):
        return {"ecdf": [item.hex() for item in value.sample]}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            spec.name: canonical(getattr(value, spec.name))
            for spec in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        items = [(_key(key), canonical(item)) for key, item in value.items()]
        return {"dict": sorted(items)}
    if isinstance(value, (set, frozenset)):
        return {"set": sorted(_key(item) for item in value)}
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if isinstance(value, float):
        return value.hex()
    return value


def _key(value) -> str:
    return json.dumps(canonical(value), sort_keys=True)


def digest(value) -> str:
    """sha256 of a value's canonical form."""
    encoded = json.dumps(canonical(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def golden_record(report) -> dict:
    """The fixture entry for one report."""
    return {"digests": {name: digest(getattr(report, name)) for name in FIELDS}}


def load_golden(path: Path = GOLDEN_PATH) -> dict:
    with path.open("r", encoding="utf-8") as handle:
        return json.load(handle)


def golden_mismatches(report, golden: dict) -> list[str]:
    """Every way ``report`` differs from one fixture entry (empty = match)."""
    got = golden_record(report)["digests"]
    return [
        f"{name}: digest {got[name][:12]} != golden {sha[:12]}"
        for name, sha in golden["digests"].items()
        if got[name] != sha
    ]
