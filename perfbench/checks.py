"""Output checks: report digests, row conservation, stored expectations.

A check is a named comparison over what a run produced.  Every check
that runs is one attempted operation; a failing one is a failed
operation and is reported by name.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

from repro.stats.cdf import ECDF

#: The report fields that are exact under every execution mode: the
#: same list as ``EXACT_FIELDS`` in ``tests/core/test_parallel.py``.
EXACT_FIELDS = (
    "census",
    "adoption",
    "comparison",
    "apps",
    "domains",
    "weekly",
    "protocols",
    "devices",
    "encounters",
)

EXPECTED_PATH = Path(__file__).with_name("expected.json")


def canonical(value):
    """A JSON-ready form that is equal exactly when the values are."""
    if isinstance(value, ECDF):
        return {"ecdf": list(value.sample)}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: canonical(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        items = [(_key(key), canonical(item)) for key, item in value.items()]
        return {"dict": sorted(items, key=lambda pair: pair[0])}
    if isinstance(value, (set, frozenset)):
        return {"set": sorted(_key(item) for item in value)}
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if isinstance(value, float):
        return value.hex()
    return value


def _key(value) -> str:
    return json.dumps(canonical(value), sort_keys=True)


def canonical_digest(value) -> str:
    """sha256 of a value's canonical form."""
    encoded = json.dumps(canonical(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def report_digest(report) -> str:
    """sha256 over the report's exact-tier fields."""
    return canonical_digest({name: getattr(report, name) for name in EXACT_FIELDS})


def trace_fingerprint(trace: Path) -> str:
    """sha256 over a trace directory's files, in name order."""
    digest = hashlib.sha256()
    for path in sorted(trace.iterdir()):
        digest.update(path.name.encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()


def load_expected() -> dict:
    with EXPECTED_PATH.open("r", encoding="utf-8") as handle:
        return json.load(handle)


def stored(expected: dict, preset: str, seed: int, workload: str) -> dict | None:
    return expected.get(preset, {}).get(str(seed), {}).get(workload)


def run_counts(setup: dict, measured: dict, traced: dict | None) -> dict:
    """Every count a run took: set-up rows, the first pass, the replay."""
    counts = {"engine.rows": sum(setup["info"]["rows"].values())}
    counts.update(measured["passes"][0]["counts"])
    if traced is not None:
        counts.update(traced["counts"])
    return counts


def run_checks(
    workload: str,
    setup: dict,
    measured: dict,
    traced: dict | None,
    expected: dict | None,
) -> tuple[list[str], list[str]]:
    """Every check for one run; returns (names checked, failure lines)."""
    checked: list[str] = []
    failures: list[str] = []

    def check(name: str, ok: bool, detail: str) -> None:
        checked.append(name)
        if not ok:
            failures.append(f"{name}: {detail}")

    fingerprints = setup["fingerprints"]
    check(
        "setup.deterministic",
        len(set(fingerprints)) == 1,
        f"{len(set(fingerprints))} different traces from one seed",
    )
    digests = [item["digest"] for item in measured["passes"]]
    check(
        "passes.agree",
        len(set(digests)) == 1,
        f"{len(set(digests))} different reports from one input",
    )
    digest = digests[0]
    rows = setup["info"]["rows"]
    counts = run_counts(setup, measured, traced)
    if traced is not None:
        check(
            "trace.matches_untraced",
            traced["digest"] == digest,
            f"traced report {traced['digest'][:12]} != untraced {digest[:12]}",
        )

    if workload == "batch":
        check(
            "rows.conserved",
            counts["rows.loaded"] == rows["proxy"] + rows["mme"],
            f"loaded {counts['rows.loaded']} of {rows['proxy'] + rows['mme']} rows",
        )
    elif workload == "sharded":
        quarantine = measured["quarantine"]
        for stream in ("proxy", "mme"):
            kept = measured["passes"][0]["kept"][stream]
            read = quarantine["rows_read"].get(stream, 0)
            dropped = quarantine["rows_quarantined"].get(stream, 0)
            check(
                f"quarantine.balanced.{stream}",
                kept == read - dropped,
                f"shards kept {kept} rows but {read} read - {dropped} "
                f"quarantined = {read - dropped}",
            )
        if traced is not None:
            shard_quarantines = traced["shard_quarantines"]
            check(
                "quarantine.same_per_shard",
                len(set(shard_quarantines)) == 1,
                f"{len(set(shard_quarantines))} different quarantine reports "
                f"across {len(shard_quarantines)} shards",
            )
    elif workload == "serve":
        first = measured["passes"][0]
        check(
            "serve.ready",
            counts["serve.answered"] > 0,
            "no append after the catch-up was answered",
        )
        check(
            "rows.conserved",
            counts["rows.ingested"] == rows["proxy"] + rows["mme"],
            f"ingested {counts['rows.ingested']} of "
            f"{rows['proxy'] + rows['mme']} rows",
        )
        check(
            "serve.restore_matches",
            first["restored_digest"] == digest,
            f"restored report {first['restored_digest']} != "
            f"pre-restart {digest[:12]}",
        )
        reference = setup.get("reference_digest")
        if reference is not None:
            check(
                "serve.matches_batch",
                digest == reference,
                f"serve report {digest[:12]} != batch report {reference[:12]}",
            )

    if expected is not None:
        check(
            "digest.stored",
            digest == expected["digest"],
            f"report {digest[:12]} != stored {expected['digest'][:12]}",
        )
        differing = sorted(
            f"{name}={counts[name]} (stored {value})"
            for name, value in expected["counts"].items()
            if name in counts and counts[name] != value
        )
        check("counts.stored", not differing, ", ".join(differing))
    return checked, failures
