"""Harness self-test on the small preset (about half a minute).

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is emitted with its
unit, in both modes and for every workload; that each workload's output
checks fire on a wrong digest or an unbalanced quarantine; that the
layer spans nest under their workload span on one timeline; and that the
benchmark refuses to run, without printing a result, where the
program's sources are missing.  Exits 1 on the first failed expectation.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import tempfile

import run

sys.path.insert(0, str(run.ROOT / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402

SEED = 7
PRESET = "small"

#: Layer spans each workload's traced run must record.
LAYER_SPANS = {
    "batch": ("engine.generate", "binfmt.encode", "binfmt.decode",
              "dataset.load", "app_mapping.attribute", "identification.analyze",
              "devices.analyze", "encounters.timelines", "encounters.join"),
    "sharded": ("faults.corrupt", "dataset.load", "parallel.aggregate",
                "parallel.encounters", "encounters.index", "parallel.merge",
                "parallel.finalize"),
    "serve": ("serve.cut_points", "serve.catchup", "serve.ingest",
              "serve.finalize", "serve.checkpoint", "serve.restore_load",
              "encounters.join"),
}


class Failed(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Failed(message)


def expect_metrics(label: str, result: dict, spec: list[dict]) -> None:
    wanted = {entry["name"]: entry["unit"] for entry in spec}
    got = result["metrics"]
    expect(
        set(got) == set(wanted),
        f"{label}: metric names differ from BENCHMARK.json: "
        f"{sorted(set(got) ^ set(wanted))}",
    )
    for name, unit in wanted.items():
        expect(got[name]["unit"] == unit, f"{label}: {name} has unit "
               f"{got[name]['unit']!r}, BENCHMARK.json says {unit!r}")
        expect(isinstance(got[name]["value"], (int, float)),
               f"{label}: {name} is not a number")
    expect(result["correct"] and result["failed"] == 0,
           f"{label}: checks failed on an unbroken run")


def expect_fires(workload: str, parts: dict, name: str, breaks) -> None:
    """``breaks`` damages a copy of a run's output; check ``name`` must fail."""
    broken = copy.deepcopy(parts)
    expected = breaks(broken)
    _, failures = checks.run_checks(
        workload, broken["setup"], broken["measured"], broken.get("traced"),
        expected,
    )
    expect(any(line.startswith(f"{name}:") for line in failures),
           f"{workload}: check {name} did not fire (failures: {failures})")


def expect_checks_fire(workload: str, parts: dict) -> None:
    digest = parts["measured"]["passes"][0]["digest"]
    counts = parts["traced"]["counts"]
    count = sorted(counts)[0]
    expect_fires(workload, parts, "digest.stored",
                 lambda broken: {"digest": "0" * 64, "counts": {}})
    expect_fires(workload, parts, "counts.stored",
                 lambda broken: {"digest": digest,
                                 "counts": {count: counts[count] + 1}})

    def retraced(broken):
        broken["traced"]["digest"] = "0" * 64

    expect_fires(workload, parts, "trace.matches_untraced", retraced)
    if workload == "sharded":
        def unbalanced(broken):
            broken["measured"]["quarantine"]["rows_quarantined"]["proxy"] += 1

        def uneven(broken):
            broken["traced"]["shard_quarantines"][1] = "0" * 64

        expect_fires(workload, parts, "quarantine.balanced.proxy", unbalanced)
        expect_fires(workload, parts, "quarantine.same_per_shard", uneven)
    elif workload == "serve":
        def not_batch(broken):
            broken["setup"]["reference_digest"] = "0" * 64

        def bad_restore(broken):
            broken["measured"]["passes"][0]["restored_digest"] = "0" * 64

        expect_fires(workload, parts, "serve.matches_batch", not_batch)
        expect_fires(workload, parts, "serve.restore_matches", bad_restore)
    else:
        def lost_rows(broken):
            broken["measured"]["passes"][0]["counts"]["rows.loaded"] -= 1

        expect_fires(workload, parts, "rows.conserved", lost_rows)


def expect_nesting(workload: str, tree: dict) -> None:
    expect(tree["name"] == workload, f"root span is {tree['name']!r}")
    expect([child["name"] for child in tree["children"]] == ["setup", "pass"],
           f"{workload}: phase spans are not setup then pass")
    run_id = tree["attrs"]["run"]
    seen = set()

    def visit(node: dict, parent: dict | None) -> None:
        seen.add(node["name"])
        expect(node["attrs"].get("run") == run_id,
               f"{workload}: span {node['name']} lacks the run id")
        if parent is not None:
            slack = 1e-3
            expect(
                node["start_s"] >= parent["start_s"] - slack
                and node["start_s"] + node["wall_s"]
                <= parent["start_s"] + parent["wall_s"] + slack,
                f"{workload}: span {node['name']} is outside its parent "
                f"{parent['name']}",
            )
        for child in node["children"]:
            visit(child, node)

    visit(tree, None)
    missing = [name for name in LAYER_SPANS[workload] if name not in seen]
    expect(not missing, f"{workload}: no spans for {missing}")


def expect_refusal_without_sources() -> None:
    scratch = run.ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as bare:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(
            run.HERE, f"{bare}/perfbench",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "batch"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    expect(done.returncode != 0, "ran without the program's sources")
    expect(not done.stdout.strip(), "printed a result without sources")


def expect_result_line() -> None:
    done = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", "batch",
         "--preset", PRESET, "--seed", str(SEED), "--seconds", "0"],
        capture_output=True, text=True, timeout=120,
    )
    expect(done.returncode == 0, f"run.py exited with {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
           f"result keys are {sorted(result)}")
    expect(result["attempted"] >= 1, "no operations attempted")


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    try:
        expect_result_line()
        for workload in workloads.WORKLOADS:
            plain = run.execute(workload, SEED, PRESET, 0, False, None)
            result = run.summarize(workload, plain, None)[0]
            expect_metrics(f"{workload} --trace 0", result, bench["end_to_end"])
            expect(all(entry["value"] > 0
                       for entry in result["metrics"].values()),
                   f"{workload}: an end-to-end metric is 0")
            traced = run.execute(workload, SEED, PRESET, 0, True, None)
            result = run.summarize(workload, traced, None)[0]
            expect_metrics(f"{workload} --trace 1", result, bench["per_layer"])
            expect_checks_fire(workload, traced)
            expect_nesting(workload, traced["tree"])
            print(f"selftest: {workload} ok", flush=True)
        expect_refusal_without_sources()
    except Failed as exc:
        print(f"selftest: FAILED: {exc}", file=sys.stderr)
        return 1
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
