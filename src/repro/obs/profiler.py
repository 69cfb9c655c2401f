"""Wall-clock sampling profiler: frame-level evidence for every hotspot.

The run report says *which stage* burned the time; this module says
*which frames*.  A :class:`SamplingProfiler` is a daemon thread that
wakes at a configurable rate, walks every live thread's Python stack via
``sys._current_frames()``, and folds each stack into a compact trie.
Each sample is attributed to the innermost open :class:`~repro.obs.
spans.Tracer` span on the sampled thread (the tracer keeps a
thread→span-path registry exactly for this), so the resulting profile
reads as "inside ``analyze.shard[shard=2]``, 61% of samples were in
``repro.logs.io:_coerce_row``".

Design constraints, in order:

* **Zero dependencies, near-zero cost.**  Sampling is wall-clock (no
  signals, no tracing hooks), so the profiled code runs unmodified; the
  only instrumentation cost is the sampler thread's own wake-ups.  The
  overhead test pins the enabled-at-19hz cost below 5% and the disabled
  cost below 1% — disabled profiling is the shared
  :data:`NULL_PROFILER`, which has no thread and no state.
* **Deterministic merge.**  Sharded runs profile inside each worker
  process and ship the snapshot back with the shard's result
  (:func:`repro.obs.map_shards`); the parent folds them in shard order,
  like span subtrees.  Counts sum
  commutatively and the export sorts every trie level, so on a fixed
  stack set the merged profile is invariant to worker count and merge
  order — the property the determinism tests assert.
* **Cross-commit alignment.**  Frame labels are ``module:qualname``
  with *no line numbers*, so ``repro obs compare --hotspots`` can align
  two profiles taken weeks apart even after unrelated edits moved the
  code around.

Artifacts
---------
``build_profile`` wraps a snapshot in the versioned
``repro.obs/profile/v1`` JSON document; ``write_collapsed`` emits
folded-stack text (one ``stack count`` line per self-sample site —
flamegraph-ready) and ``write_speedscope`` the speedscope JSON the
https://speedscope.app viewer loads directly.  ``validate_profile``
is the schema gate ``make prof-smoke`` runs, enforcing the counting
invariant ``samples == self + Σ children.samples`` on every node.

Idle filtering
--------------
Wall-clock sampling sees *every* thread, including ones asleep in
``Event.wait`` or ``selectors.select`` (heartbeat samplers, HTTP
accept loops).  Counting those would drown real work in idle time, so a
sample whose innermost frame lives in an idle module
(:data:`IDLE_MODULES`) is tallied as ``idle_samples`` instead of being
folded into the trie.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Mapping, Sequence

__all__ = [
    "IDLE_MODULES",
    "NULL_PROFILER",
    "PROFILE_SCHEMA",
    "FrameDelta",
    "ProfileComparison",
    "SamplingProfiler",
    "aggregate_hotspots",
    "build_profile",
    "compare_profiles",
    "compare_profile_files",
    "format_hotspot_table",
    "frame_label",
    "profile_artifact_paths",
    "top_frames_by_module",
    "validate_profile",
    "validate_profile_file",
    "write_collapsed",
    "write_profile",
    "write_speedscope",
]

PROFILE_SCHEMA = "repro.obs/profile/v1"

#: A sample whose innermost frame lives in one of these modules is a
#: thread waiting for work (event waits, selector polls, queue gets),
#: not work itself; it is counted as idle rather than folded in.
IDLE_MODULES = frozenset({"threading", "selectors", "queue", "socketserver"})

#: Path anchors that mark the start of a dotted module name; everything
#: left of the last anchor (site-packages, checkouts, venvs) is noise.
_MODULE_ANCHORS = ("repro", "tests", "benchmarks")

#: Code object -> label cache.  Bounded by the number of live code
#: objects in the process, so it never needs eviction.
_LABEL_CACHE: dict[Any, str] = {}


def frame_label(code: Any) -> str:
    """``module:qualname`` for a code object — stable across commits.

    The module part is the dotted path from the last occurrence of a
    known anchor package (``repro``, ``tests``, ``benchmarks``) so that
    ``src/repro/logs/io.py`` labels as ``repro.logs.io`` on any
    machine; files outside the anchors fall back to their stem
    (``threading``, ``csv``).  No line numbers: labels must align
    between two profiles taken on different versions of the code.
    """
    label = _LABEL_CACHE.get(code)
    if label is not None:
        return label
    parts = code.co_filename.replace("\\", "/").split("/")
    module = None
    for anchor in _MODULE_ANCHORS:
        if anchor in parts:
            tail = list(parts[len(parts) - 1 - parts[::-1].index(anchor):])
            if tail[-1].endswith(".py"):
                tail[-1] = tail[-1][:-3]
            module = ".".join(tail)
            break
    if module is None:
        stem = parts[-1]
        module = stem[:-3] if stem.endswith(".py") else stem
    function = getattr(code, "co_qualname", None) or code.co_name
    label = f"{module}:{function}"
    _LABEL_CACHE[code] = label
    return label


# ------------------------------------------------------------------- trie
class _Node:
    """One frame (or span root) in the fold trie."""

    __slots__ = ("count", "self_count", "children")

    def __init__(self) -> None:
        self.count = 0
        self.self_count = 0
        self.children: dict[str, "_Node"] = {}


def _node_dict(label: str, node: _Node) -> dict:
    return {
        "frame": label,
        "samples": node.count,
        "self": node.self_count,
        "children": [
            _node_dict(key, child)
            for key, child in sorted(node.children.items())
        ],
    }


class SamplingProfiler:
    """Daemon-thread wall-clock sampler folding stacks into a trie.

    ``tracer`` (when given) supplies span attribution: each sampled
    thread's stack lands under ``tracer.active_span_path(ident)`` —
    the ``/``-joined path of the spans open on that thread at sample
    time.  Threads outside any span fold under the empty span ``""``.

    ``start``/``stop`` are idempotent; a stopped profiler can be
    restarted and keeps accumulating into the same trie.  All fold and
    snapshot operations are lock-protected, so worker snapshots can be
    merged while the local sampler is still running.
    """

    #: Real profilers are enabled; the shared null one is not.
    enabled = True

    def __init__(
        self,
        hz: float = 19.0,
        tracer: Any = None,
        max_depth: int = 64,
    ) -> None:
        if hz <= 0:
            raise ValueError("profile hz must be > 0")
        self.hz = float(hz)
        self.max_depth = int(max_depth)
        self._tracer = tracer
        self._spans: dict[str, _Node] = {}
        self._idle = 0
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # ---------------------------------------------------------- lifecycle
    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "SamplingProfiler":
        """Start the sampling thread (no-op if already running)."""
        if self.running:
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-profiler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop and join the sampling thread (no-op if not running)."""
        thread = self._thread
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout=5.0)
        self._thread = None

    def _run(self) -> None:
        interval = 1.0 / self.hz
        while not self._stop.wait(interval):
            try:
                self.sample_once()
            except Exception:  # pragma: no cover - sampling must never
                pass  # take down the profiled run

    # ----------------------------------------------------------- sampling
    def sample_once(self) -> None:
        """Walk every live thread's stack once and fold the samples."""
        own = threading.get_ident()
        for ident, frame in sys._current_frames().items():
            if ident == own:
                continue
            labels: list[str] = []
            depth = 0
            while frame is not None and depth < self.max_depth:
                labels.append(frame_label(frame.f_code))
                frame = frame.f_back
                depth += 1
            if not labels:
                continue
            innermost_module = labels[0].split(":", 1)[0]
            if innermost_module in IDLE_MODULES:
                with self._lock:
                    self._idle += 1
                continue
            labels.reverse()
            span_path = ""
            if self._tracer is not None:
                span_path = self._tracer.active_span_path(ident)
            self.record_sample(span_path, labels)

    def record_sample(self, span_path: str, frames: Sequence[str]) -> None:
        """Fold one stack (outermost frame first) under a span path.

        This is also the public fixed-stack API the determinism tests
        use: folding the same multiset of ``(span_path, frames)`` pairs
        in any order, split across any number of profilers and merged in
        any order, yields byte-identical snapshots.
        """
        if not frames:
            return
        with self._lock:
            root = self._spans.get(span_path)
            if root is None:
                root = self._spans[span_path] = _Node()
            root.count += 1
            node = root
            for label in frames:
                child = node.children.get(label)
                if child is None:
                    child = node.children[label] = _Node()
                child.count += 1
                node = child
            node.self_count += 1

    # ------------------------------------------------------ snapshot/merge
    def snapshot(self) -> dict:
        """Plain-dict (JSON- and pickle-safe) view of the fold trie.

        Every trie level is sorted, so two profilers holding the same
        counts export byte-identical snapshots regardless of the order
        samples or merges arrived in.
        """
        with self._lock:
            spans = [
                {
                    "span": path,
                    "samples": root.count,
                    "frames": [
                        _node_dict(key, child)
                        for key, child in sorted(root.children.items())
                    ],
                }
                for path, root in sorted(self._spans.items())
            ]
            return {
                "samples": sum(entry["samples"] for entry in spans),
                "idle_samples": self._idle,
                "spans": spans,
            }

    def merge(self, snap: Mapping) -> None:
        """Fold another profiler's snapshot in (counts sum).

        :func:`repro.obs.map_shards` calls this in payload order,
        mirroring ``Tracer.attach_subtree`` — but because counts are
        commutative and the export sorts, the merged snapshot is the
        same for *any* merge order.
        """
        with self._lock:
            self._idle += int(snap.get("idle_samples", 0))
            for entry in snap.get("spans", ()) or ():
                path = str(entry.get("span", ""))
                root = self._spans.get(path)
                if root is None:
                    root = self._spans[path] = _Node()
                root.count += int(entry.get("samples", 0))
                for payload in entry.get("frames", ()) or ():
                    self._merge_node(root, payload)

    def _merge_node(self, parent: _Node, payload: Mapping) -> None:
        label = str(payload.get("frame", "?"))
        node = parent.children.get(label)
        if node is None:
            node = parent.children[label] = _Node()
        node.count += int(payload.get("samples", 0))
        node.self_count += int(payload.get("self", 0))
        for child in payload.get("children", ()) or ():
            self._merge_node(node, child)


class _NullProfiler:
    """Shared no-op profiler for disabled observability.

    Mirrors the null-instrument pattern of the rest of ``repro.obs``:
    one process-wide singleton, no thread, no state, every method a
    constant-time no-op — so disabled profiling costs nothing.
    """

    __slots__ = ()

    enabled = False
    running = False
    hz = 0.0

    def start(self) -> "_NullProfiler":
        return self

    def stop(self) -> None:
        return None

    def sample_once(self) -> None:
        return None

    def record_sample(self, span_path: str, frames: Sequence[str]) -> None:
        return None

    def snapshot(self) -> dict:
        return {"samples": 0, "idle_samples": 0, "spans": []}

    def merge(self, snap: Mapping) -> None:
        return None


NULL_PROFILER = _NullProfiler()


# ------------------------------------------------------------- the artifact
def build_profile(
    snapshot: Mapping,
    meta: Mapping[str, Any] | None = None,
    hz: float | None = None,
) -> dict:
    """Wrap a profiler snapshot in the versioned profile/v1 document."""
    return {
        "schema": PROFILE_SCHEMA,
        "created_unix": time.time(),
        "meta": dict(meta or {}),
        "hz": float(hz) if hz else None,
        "samples": int(snapshot.get("samples", 0)),
        "idle_samples": int(snapshot.get("idle_samples", 0)),
        "spans": list(snapshot.get("spans", ()) or ()),
    }


def write_profile(path: str | Path, doc: Mapping) -> Path:
    target = Path(path)
    if target.parent != Path(""):
        target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2)
        handle.write("\n")
    return target


def profile_artifact_paths(path: str | Path) -> tuple[Path, Path, Path]:
    """The artifact triple ``--profile-out PATH`` expands to.

    ``p.json`` additionally yields ``p.collapsed.txt`` (folded stacks)
    and ``p.speedscope.json`` next to it, derived from the stem.
    """
    base = Path(path)
    stem = base.name[:-5] if base.name.endswith(".json") else base.name
    return (
        base,
        base.with_name(stem + ".collapsed.txt"),
        base.with_name(stem + ".speedscope.json"),
    )


# ------------------------------------------------------------- validation
def _fail(where: str, reason: str) -> None:
    raise ValueError(f"{where}: {reason}")


def _check_frame(node: Any, where: str) -> int:
    """Validate one frame node; returns its cumulative sample count."""
    if not isinstance(node, dict):
        _fail(where, "frame node is not an object")
    if not isinstance(node.get("frame"), str) or not node["frame"]:
        _fail(where, "frame node missing label")
    samples = node.get("samples")
    self_count = node.get("self")
    if not isinstance(samples, int) or samples < 0:
        _fail(where, f"frame {node['frame']!r} missing sample count")
    if not isinstance(self_count, int) or self_count < 0:
        _fail(where, f"frame {node['frame']!r} missing self count")
    children = node.get("children", [])
    if not isinstance(children, list):
        _fail(where, f"frame {node['frame']!r} children is not a list")
    child_total = 0
    for index, child in enumerate(children):
        child_total += _check_frame(
            child, f"{where}/{node['frame']}[{index}]"
        )
    if samples != self_count + child_total:
        _fail(
            where,
            f"frame {node['frame']!r} violates samples == self + "
            f"children ({samples} != {self_count} + {child_total})",
        )
    return samples


def validate_profile(doc: Any) -> None:
    """Raise :class:`ValueError` unless ``doc`` matches profile/v1.

    Beyond field types, this enforces the counting invariant on every
    node — ``samples == self + Σ children.samples`` — and that the
    document total equals the per-span totals, which is exactly what the
    deterministic merge preserves.
    """
    if not isinstance(doc, dict):
        _fail("$", "profile is not an object")
    if doc.get("schema") != PROFILE_SCHEMA:
        _fail(
            "$.schema",
            f"expected {PROFILE_SCHEMA!r}, got {doc.get('schema')!r}",
        )
    if not isinstance(doc.get("created_unix"), (int, float)):
        _fail("$.created_unix", "missing creation timestamp")
    if not isinstance(doc.get("meta"), dict):
        _fail("$.meta", "missing meta object")
    hz = doc.get("hz")
    if hz is not None and (not isinstance(hz, (int, float)) or hz <= 0):
        _fail("$.hz", f"hz must be a positive number or null, got {hz!r}")
    for key in ("samples", "idle_samples"):
        if not isinstance(doc.get(key), int) or doc[key] < 0:
            _fail(f"$.{key}", "missing non-negative integer")
    spans = doc.get("spans")
    if not isinstance(spans, list):
        _fail("$.spans", "missing spans list")
    total = 0
    for index, entry in enumerate(spans):
        where = f"$.spans[{index}]"
        if not isinstance(entry, dict):
            _fail(where, "span entry is not an object")
        if not isinstance(entry.get("span"), str):
            _fail(where, "span entry missing span path string")
        samples = entry.get("samples")
        if not isinstance(samples, int) or samples < 0:
            _fail(where, "span entry missing sample count")
        frames = entry.get("frames", [])
        if not isinstance(frames, list):
            _fail(where, "span entry frames is not a list")
        span_total = 0
        for frame_index, frame in enumerate(frames):
            span_total += _check_frame(frame, f"{where}[{frame_index}]")
        if samples != span_total:
            _fail(
                where,
                f"span {entry['span']!r} total {samples} != "
                f"frame total {span_total}",
            )
        total += samples
    if doc["samples"] != total:
        _fail(
            "$.samples",
            f"document total {doc['samples']} != span total {total}",
        )


def validate_profile_file(path: str | Path) -> dict:
    """Load and validate a profile file; returns the parsed document."""
    with Path(path).open("r", encoding="utf-8") as handle:
        doc = json.load(handle)
    validate_profile(doc)
    return doc


# ---------------------------------------------------------------- exports
def _walk_stacks(
    doc: Mapping,
) -> Iterator[tuple[str, tuple[str, ...], int]]:
    """Yield ``(span, frame-stack, self-count)`` for every self site."""

    def visit(
        node: Mapping, span: str, prefix: tuple[str, ...]
    ) -> Iterator[tuple[str, tuple[str, ...], int]]:
        stack = prefix + (str(node.get("frame", "?")),)
        self_count = int(node.get("self", 0))
        if self_count:
            yield span, stack, self_count
        for child in node.get("children", ()) or ():
            yield from visit(child, span, stack)

    for entry in doc.get("spans", ()) or ():
        span = str(entry.get("span", ""))
        for frame in entry.get("frames", ()) or ():
            yield from visit(frame, span, ())


def write_collapsed(path: str | Path, doc: Mapping) -> Path:
    """Folded-stack text: ``span;frame;frame... count`` per self site.

    The format every flamegraph renderer (Brendan Gregg's
    ``flamegraph.pl``, speedscope's importer, inferno) consumes; the
    span path rides along as the base segment so flame graphs group by
    stage.
    """
    target = Path(path)
    if target.parent != Path(""):
        target.parent.mkdir(parents=True, exist_ok=True)
    lines = []
    for span, stack, self_count in _walk_stacks(doc):
        base = span if span else "(no-span)"
        lines.append(f"{';'.join((base,) + stack)} {self_count}")
    target.write_text(
        "\n".join(lines) + ("\n" if lines else ""), encoding="utf-8"
    )
    return target


def write_speedscope(path: str | Path, doc: Mapping) -> Path:
    """Speedscope JSON (https://speedscope.app): one sampled profile.

    Stacks carry the span path as their base frame, so the left-heavy
    view groups time by stage before frames.
    """
    frame_index: dict[str, int] = {}
    frames: list[dict] = []

    def index_of(name: str) -> int:
        slot = frame_index.get(name)
        if slot is None:
            slot = frame_index[name] = len(frames)
            frames.append({"name": name})
        return slot

    samples: list[list[int]] = []
    weights: list[int] = []
    for span, stack, self_count in _walk_stacks(doc):
        base = span if span else "(no-span)"
        samples.append([index_of(name) for name in (base,) + stack])
        weights.append(self_count)
    total = sum(weights)
    meta = doc.get("meta", {}) or {}
    name = str(meta.get("command", "repro")) + " profile"
    payload = {
        "$schema": "https://www.speedscope.app/file-format-schema.json",
        "name": name,
        "exporter": "repro.obs",
        "shared": {"frames": frames},
        "profiles": [
            {
                "type": "sampled",
                "name": name,
                "unit": "none",
                "startValue": 0,
                "endValue": total,
                "samples": samples,
                "weights": weights,
            }
        ],
    }
    target = Path(path)
    if target.parent != Path(""):
        target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=None)
        handle.write("\n")
    return target


# ----------------------------------------------------------- aggregation
def aggregate_hotspots(doc: Mapping) -> dict[tuple[str, str], list[int]]:
    """``{(span, frame): [self, cumulative]}`` over the whole document.

    A frame appearing at several trie positions under one span (direct
    and via different callers) aggregates; the cumulative count can
    exceed the span total for recursive frames — the standard profiler
    caveat.
    """
    totals: dict[tuple[str, str], list[int]] = {}

    def visit(node: Mapping, span: str) -> None:
        key = (span, str(node.get("frame", "?")))
        cell = totals.get(key)
        if cell is None:
            cell = totals[key] = [0, 0]
        cell[0] += int(node.get("self", 0))
        cell[1] += int(node.get("samples", 0))
        for child in node.get("children", ()) or ():
            visit(child, span)

    for entry in doc.get("spans", ()) or ():
        span = str(entry.get("span", ""))
        for frame in entry.get("frames", ()) or ():
            visit(frame, span)
    return totals


def format_hotspot_table(doc: Mapping, top: int = 15) -> str:
    """The ``obs summarize`` hotspot table: self/cum %, frame, span."""
    totals = aggregate_hotspots(doc)
    total_samples = max(int(doc.get("samples", 0)), 1)
    rows = sorted(
        (
            (cell[0], cell[1], frame, span)
            for (span, frame), cell in totals.items()
        ),
        key=lambda row: (-row[0], -row[1], row[2], row[3]),
    )
    lines = [
        f"{'self%':>7} {'cum%':>7} {'frame':<44} span",
        "-" * 90,
    ]
    for self_count, cum_count, frame, span in rows[: max(top, 0)]:
        if len(frame) > 44:
            frame = "…" + frame[-43:]
        lines.append(
            f"{100 * self_count / total_samples:6.1f}% "
            f"{100 * cum_count / total_samples:6.1f}% "
            f"{frame:<44} {span or '(no-span)'}"
        )
    hidden = len(rows) - min(len(rows), max(top, 0))
    if hidden > 0:
        lines.append(f"… {hidden} more frames")
    hz = doc.get("hz")
    rate = f" at {hz:g} hz" if hz else ""
    lines.append(
        f"{doc.get('samples', 0)} samples{rate} "
        f"({doc.get('idle_samples', 0)} idle)"
    )
    return "\n".join(lines)


# ----------------------------------------------------------- comparison
@dataclass(frozen=True)
class FrameDelta:
    """One aligned ``(span, frame)`` pair's self-share movement."""

    span: str
    frame: str
    base_self: int
    other_self: int
    base_share: float
    other_share: float

    @property
    def share_delta(self) -> float:
        """Self-share movement in fractional points (cand − base)."""
        return self.other_share - self.base_share

    def to_dict(self) -> dict:
        return {
            "span": self.span,
            "frame": self.frame,
            "base_self": self.base_self,
            "other_self": self.other_self,
            "base_share": round(self.base_share, 6),
            "other_share": round(self.other_share, 6),
            "share_delta": round(self.share_delta, 6),
        }


@dataclass
class ProfileComparison:
    """Two profiles aligned by ``(span path, frame)``.

    ``obs compare --hotspots`` renders this next to a regressed span:
    "span X got 20% slower, and 85% of its self-time shift is in frame
    Y".  Shares (self samples / document total) rather than raw counts
    are compared, so two runs of different lengths still align.
    """

    base_samples: int
    other_samples: int
    deltas: list[FrameDelta] = field(default_factory=list)

    def top_diverging(self, top: int = 20) -> list[FrameDelta]:
        ranked = sorted(
            self.deltas,
            key=lambda d: (-abs(d.share_delta), d.span, d.frame),
        )
        return ranked[: max(top, 0)]

    def to_dict(self) -> dict:
        return {
            "schema": "repro.obs/profile-compare/v1",
            "base_samples": self.base_samples,
            "other_samples": self.other_samples,
            "frames": [d.to_dict() for d in self.deltas],
        }

    def format_table(self, top: int = 20) -> str:
        """Diverging frames grouped under their span, worst span first."""
        by_span: dict[str, list[FrameDelta]] = {}
        for delta in self.deltas:
            by_span.setdefault(delta.span, []).append(delta)
        spans = sorted(
            by_span.items(),
            key=lambda item: (
                -sum(abs(d.share_delta) for d in item[1]),
                item[0],
            ),
        )
        lines: list[str] = []
        shown = 0
        for span, deltas in spans:
            if shown >= top:
                break
            deltas = sorted(
                deltas, key=lambda d: (-abs(d.share_delta), d.frame)
            )
            moved = sum(d.share_delta for d in deltas)
            lines.append(
                f"span {span or '(no-span)'}  "
                f"(Δself-share {100 * moved:+.1f}pp)"
            )
            for delta in deltas:
                if shown >= top:
                    break
                frame = delta.frame
                if len(frame) > 46:
                    frame = "…" + frame[-45:]
                lines.append(
                    f"  {frame:<46} {delta.base_self:>7} "
                    f"{delta.other_self:>7} "
                    f"{100 * delta.share_delta:+6.1f}pp"
                )
                shown += 1
        if not lines:
            lines.append("no frames to compare (both profiles empty)")
        lines.append(
            f"aligned {len(self.deltas)} frame(s); "
            f"{self.base_samples} base / {self.other_samples} candidate "
            "samples"
        )
        return "\n".join(lines)


def compare_profiles(base: Mapping, other: Mapping) -> ProfileComparison:
    """Align two profile/v1 documents by ``(span path, frame)``."""
    base_totals = aggregate_hotspots(base)
    other_totals = aggregate_hotspots(other)
    base_samples = int(base.get("samples", 0))
    other_samples = int(other.get("samples", 0))
    base_denom = max(base_samples, 1)
    other_denom = max(other_samples, 1)
    deltas = []
    for span, frame in sorted(base_totals.keys() | other_totals.keys()):
        base_self = base_totals.get((span, frame), (0, 0))[0]
        other_self = other_totals.get((span, frame), (0, 0))[0]
        if not base_self and not other_self:
            continue
        deltas.append(
            FrameDelta(
                span=span,
                frame=frame,
                base_self=base_self,
                other_self=other_self,
                base_share=base_self / base_denom,
                other_share=other_self / other_denom,
            )
        )
    return ProfileComparison(
        base_samples=base_samples,
        other_samples=other_samples,
        deltas=deltas,
    )


def compare_profile_files(
    base_path: str | Path, other_path: str | Path
) -> ProfileComparison:
    """Load, validate and align two profile files."""
    return compare_profiles(
        validate_profile_file(base_path), validate_profile_file(other_path)
    )


# ------------------------------------------------------------- provenance
def top_frames_by_module(
    doc: Mapping,
    prefix: str = "benchmarks.test_perf_",
    top: int = 3,
) -> dict[str, list[dict]]:
    """Top self-time frames per perf module, for history provenance.

    Walks each span trie attributing every self sample to the nearest
    *ancestor* frame whose module starts with ``prefix`` — i.e. the
    perf-benchmark module that drove the work — and returns the top
    ``top`` frames under each.  This deliberately keys on frames rather
    than spans, so it needs no new span paths (which would desynchronize
    the committed bench-gate baseline).
    """
    totals: dict[str, dict[str, int]] = {}

    def visit(node: Mapping, owner: str | None) -> None:
        label = str(node.get("frame", "?"))
        module = label.split(":", 1)[0]
        if module.startswith(prefix):
            owner = module
        self_count = int(node.get("self", 0))
        if owner is not None and self_count:
            cell = totals.setdefault(owner, {})
            cell[label] = cell.get(label, 0) + self_count
        for child in node.get("children", ()) or ():
            visit(child, owner)

    for entry in doc.get("spans", ()) or ():
        for frame in entry.get("frames", ()) or ():
            visit(frame, None)
    return {
        module: [
            {"frame": label, "self": count}
            for label, count in sorted(
                frames.items(), key=lambda item: (-item[1], item[0])
            )[: max(top, 0)]
        ]
        for module, frames in sorted(totals.items())
    }
