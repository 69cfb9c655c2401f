"""Golden ``StudyReport`` fixtures: canonical forms and the comparison.

The fixture in ``tests/core/data/golden_small.json`` pins the report the
small preset (seed 7) produces, strict and lenient, as stored data — so
every execution mode is checked against recorded results rather than
against a second implementation.  ``tools/make_golden_reports.py``
wrote it once; the tests only ever read it.

Two storage forms, per report field:

* **digest** — sha256 of the field's canonical form (dicts and sets
  sorted, floats as ``float.hex``); the field must match bit for bit;
* **values** — for ``activity``, ``mobility`` and ``through_device``,
  whose means, correlations and binned trends are float folds: the
  canonical form with floats kept as numbers, compared at ``rel=1e-9``.
  ECDFs inside them are built from exact per-user or per-record values
  and stay digest-exact.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from pathlib import Path

from repro.logs.faults import FaultSpec
from repro.stats.cdf import ECDF

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_small.json"

#: The simulation the fixture was generated from.
PRESET = "small"
SEED = 7

#: Lenient mode reads a copy corrupted like ``repro corrupt --rate 0.02
#: --seed 5``: every row-level fault class, no truncation.
CORRUPT_SPEC = FaultSpec(seed=5).with_rate(0.02)

#: Report fields stored as values and compared at this relative tolerance.
APPROX_FIELDS = ("activity", "mobility", "through_device")
REL = 1e-9

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


def approx_form(value):
    """Like :func:`canonical`, but floats stay numbers and ECDFs digest."""
    if isinstance(value, ECDF):
        return {"ecdf_sha256": digest(value), "n": len(value)}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            spec.name: approx_form(getattr(value, spec.name))
            for spec in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {"dict": sorted((_key(k), approx_form(v)) for k, v in value.items())}
    if isinstance(value, (list, tuple)):
        return [approx_form(item) for item in value]
    return value


def golden_record(report) -> dict:
    """The fixture entry for one report."""
    return {
        "digests": {
            name: digest(getattr(report, name))
            for name in FIELDS
            if name not in APPROX_FIELDS
        },
        "values": {
            name: approx_form(getattr(report, name)) for name in APPROX_FIELDS
        },
    }


def load_golden() -> dict:
    with GOLDEN_PATH.open("r", encoding="utf-8") as handle:
        return json.load(handle)


def _close(expected, got, path: str) -> list[str]:
    if isinstance(expected, float) and isinstance(got, float):
        if math.isclose(got, expected, rel_tol=REL, abs_tol=1e-12):
            return []
        return [f"{path}: {got!r} != {expected!r}"]
    if isinstance(expected, dict) and isinstance(got, dict):
        if set(expected) != set(got):
            return [f"{path}: keys {sorted(got)} != {sorted(expected)}"]
        return [
            line
            for key in expected
            for line in _close(expected[key], got[key], f"{path}.{key}")
        ]
    if isinstance(expected, list) and isinstance(got, list):
        if len(expected) != len(got):
            return [f"{path}: length {len(got)} != {len(expected)}"]
        return [
            line
            for index, (a, b) in enumerate(zip(expected, got))
            for line in _close(a, b, f"{path}[{index}]")
        ]
    return [] if expected == got else [f"{path}: {got!r} != {expected!r}"]


def golden_mismatches(report, golden: dict) -> list[str]:
    """Every way ``report`` differs from one fixture entry (empty = match)."""
    got = golden_record(report)
    problems = [
        f"{name}: digest {got['digests'][name][:12]} != "
        f"golden {sha[:12]}"
        for name, sha in golden["digests"].items()
        if got["digests"][name] != sha
    ]
    # Round-trip through JSON so both sides use the fixture's encoding.
    values = json.loads(json.dumps(got["values"]))
    for name, expected in golden["values"].items():
        problems.extend(_close(expected, values[name], name))
    return problems
