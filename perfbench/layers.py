"""Per-layer metrics from a traced run, and the per-layer table.

Each metric names the end-to-end metric it should move.  A ``_s``
metric is the busy time of the span with the same name (without the
suffix), summed over the run; the rest are counts taken at the same
boundaries, or ratios of them.  A layer the workload does not run
reports 0.
"""

from __future__ import annotations

#: (name, unit, better, end-to-end metrics it should move)
PER_LAYER = (
    ("engine.generate_s", "s", "lower", "setup_s"),
    ("engine.rows", "count", "higher", "setup_s"),
    ("binfmt.encode_s", "s", "lower", "setup_s"),
    ("faults.corrupt_s", "s", "lower", "setup_s"),
    ("binfmt.decode_s", "s", "lower", "report_s"),
    ("binfmt.decode_rows_per_s", "rows/s", "higher", "report_s"),
    ("dataset.load_s", "s", "lower", "report_s,cpu_s"),
    ("dataset.scrub_s", "s", "lower", "report_s,cpu_s"),
    ("quarantine.rows", "count", "higher", "report_s,cpu_s"),
    ("app_mapping.attribute_s", "s", "lower", "report_s"),
    ("app_mapping.rows", "count", "higher", "report_s"),
    ("sessions.sessionize_s", "s", "lower", "report_s"),
    ("sessions.count", "count", "higher", "report_s"),
    ("identification.analyze_s", "s", "lower", "report_s"),
    ("adoption.analyze_s", "s", "lower", "report_s"),
    ("activity.analyze_s", "s", "lower", "report_s"),
    ("comparison.analyze_s", "s", "lower", "report_s"),
    ("mobility.analyze_s", "s", "lower", "report_s"),
    ("apps.analyze_s", "s", "lower", "report_s"),
    ("domains.analyze_s", "s", "lower", "report_s"),
    ("throughdevice.analyze_s", "s", "lower", "report_s"),
    ("weekly.analyze_s", "s", "lower", "report_s"),
    ("protocols.analyze_s", "s", "lower", "report_s"),
    ("devices.analyze_s", "s", "lower", "report_s"),
    ("encounters.timelines_s", "s", "lower", "report_s,refresh_s"),
    ("encounters.index_s", "s", "lower", "report_s,refresh_s"),
    ("encounters.join_s", "s", "lower", "report_s,refresh_s"),
    ("encounters.cells", "count", "lower", "report_s,refresh_s"),
    ("encounters.pairs_examined", "count", "lower", "report_s,refresh_s"),
    ("encounters.events", "count", "higher", "report_s,refresh_s"),
    ("parallel.shard_load_s", "s", "lower", "cpu_s,report_s"),
    ("parallel.rows_decoded", "count", "lower", "cpu_s,report_s"),
    ("parallel.decode_yield", "ratio", "higher", "cpu_s,report_s"),
    ("parallel.aggregate_s", "s", "lower", "cpu_s,report_s"),
    ("parallel.join_mme_rows", "count", "lower", "cpu_s,report_s"),
    ("parallel.encounters_s", "s", "lower", "cpu_s,report_s"),
    ("parallel.merge_s", "s", "lower", "cpu_s,report_s"),
    ("parallel.finalize_s", "s", "lower", "cpu_s,report_s"),
    ("parallel.shard_skew", "ratio", "lower", "report_s"),
    ("parallel.pool_idle_s", "s", "lower", "report_s"),
    ("serve.catchup_s", "s", "lower", "refresh_s"),
    ("serve.ingest_s", "s", "lower", "refresh_s"),
    ("serve.ingest_rows_per_s", "rows/s", "higher", "refresh_s"),
    ("serve.finalize_s", "s", "lower", "refresh_s,restore_s"),
    ("serve.render_s", "s", "lower", "refresh_s,restore_s"),
    ("serve.replay_rows", "count", "lower", "refresh_s,restore_s"),
    ("serve.replay_ratio", "ratio", "lower", "refresh_s,restore_s"),
    ("serve.checkpoint_s", "s", "lower", "checkpoint_mb,restore_s"),
    ("serve.checkpoint_growth", "ratio", "lower", "checkpoint_mb,restore_s"),
    ("serve.restore_load_s", "s", "lower", "restore_s"),
    ("serve.query_us", "us", "lower", "none"),
    ("serve.query_p99_us", "us", "lower", "none"),
    ("serve.not_ready", "count", "lower", "none"),
    ("gc.pause_s", "s", "lower", "report_s"),
    ("gc.gen2", "count", "lower", "report_s"),
    ("trace.overhead_s", "s", "lower", "none"),
)

UNITS = {name: unit for name, unit, _, _ in PER_LAYER}


def span_totals(tree: dict) -> dict[str, dict[str, float]]:
    """Per span name: how many, busy seconds and self seconds."""
    totals: dict[str, dict[str, float]] = {}

    def visit(node: dict) -> None:
        children = node.get("children", ())
        entry = totals.setdefault(
            node["name"], {"count": 0, "busy_s": 0.0, "self_s": 0.0}
        )
        entry["count"] += 1
        entry["busy_s"] += node["wall_s"]
        entry["self_s"] += node["wall_s"] - _covered(children)
        for child in children:
            visit(child)

    visit(tree)
    return totals


def _covered(children) -> float:
    """Seconds of the parent's interval that its children cover."""
    covered = 0.0
    reach = float("-inf")
    for start, end in sorted(
        (child["start_s"], child["start_s"] + child["wall_s"])
        for child in children
    ):
        if end <= reach:
            continue
        covered += end - max(start, reach)
        reach = end
    return covered


def per_layer_metrics(
    tree: dict, counts: dict, extra: dict
) -> dict[str, float]:
    """Every ``PER_LAYER`` metric from the span tree, counts and ``extra``.

    ``extra`` holds values measured outside spans (pool skew, query
    latencies, GC, overhead); anything absent reports 0.
    """
    totals = span_totals(tree)

    def busy(name: str) -> float:
        return totals.get(name, {}).get("busy_s", 0.0)

    values = dict(extra)
    values.update(counts)
    values["dataset.scrub_s"] = (
        busy("dataset.load") - counts.get("shards", 0) * busy("binfmt.decode")
        if counts.get("shards")
        else 0.0
    )
    values["binfmt.decode_rows_per_s"] = _ratio(
        counts.get("binfmt.rows", 0), busy("binfmt.decode")
    )
    if counts.get("shards"):
        values["parallel.shard_load_s"] = busy("dataset.load")
        values["parallel.decode_yield"] = _ratio(
            counts["parallel.rows_kept"], counts["parallel.rows_decoded"]
        )
    values["serve.ingest_rows_per_s"] = _ratio(
        counts.get("rows.ingested", 0),
        busy("serve.catchup") + busy("serve.ingest"),
    )
    values["serve.replay_ratio"] = _ratio(
        counts.get("serve.replay_rows", 0), counts.get("rows.ingested", 0)
    )
    metrics = {}
    for name, unit, _, _ in PER_LAYER:
        if name in values:
            metrics[name] = values[name]
        elif name.endswith("_s"):
            metrics[name] = busy(name[: -len("_s")])
        else:
            metrics[name] = 0
    return metrics


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def format_table(totals: dict, metrics: dict) -> str:
    """The per-layer span table, then every metric with what it moves."""
    lines = [f"{'span':<28}{'count':>7}{'busy_s':>11}{'self_s':>11}"]
    for name, entry in sorted(
        totals.items(), key=lambda item: -item[1]["busy_s"]
    ):
        lines.append(
            f"{name:<28}{int(entry['count']):>7}"
            f"{entry['busy_s']:>11.3f}{entry['self_s']:>11.3f}"
        )
    lines.append("")
    lines.append(f"{'metric':<28}{'value':>16} {'unit':<7}should move")
    for name, unit, _, moves in PER_LAYER:
        lines.append(f"{name:<28}{metrics[name]:>16.6g} {unit:<7}{moves}")
    return "\n".join(lines)
