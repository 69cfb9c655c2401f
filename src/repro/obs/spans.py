"""Hierarchical span tracing with cross-process merge.

A *span* is one timed stage of a run — ``simulate.shard``, ``io.read``,
``analyze.mobility`` — with wall time, CPU time, optional memory deltas
(peak tracemalloc and ru_maxrss), free-form attributes and child spans.
The :class:`Tracer` keeps a per-thread span stack, so ``with
tracer.span("simulate.export"):`` nests naturally and the whole run
becomes one tree.

Sharded runs record spans **independently inside each worker process**
(a fresh tracer per worker; see :func:`repro.obs.map_shards`) and ship
the finished span roots back as plain dicts with the worker's result.
The parent attaches them in shard order via
:meth:`Tracer.attach_subtree`, which makes the merged tree deterministic:
the *structure* (names, nesting, order, attributes) depends only on the
workload partition — never on worker count, scheduling, or which process
ran which shard.  :meth:`SpanNode.structure` is the canonical
timing-free projection the determinism tests compare.

A disabled tracer yields ``None`` from :meth:`Tracer.span` through a
shared no-op context manager, so instrumented code pays one attribute
check and nothing else.
"""

from __future__ import annotations

import contextlib
import os
import sys
import threading
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping

try:  # pragma: no cover - resource is POSIX-only
    import resource
except ImportError:  # pragma: no cover
    resource = None  # type: ignore[assignment]

__all__ = ["SpanNode", "Tracer", "render_segment"]


def render_segment(name: str, attrs: Mapping[str, Any] | None) -> str:
    """One span-path segment: ``name[k=v,...]`` with sorted attributes.

    Matches the rendering ``repro.obs.compare`` uses to index finished
    run reports, so the live paths the sampling profiler attributes
    samples to line up with the span paths the compare table prints.
    (Live paths carry no ``#n`` sibling suffix — a thread can only be
    *inside* one sibling at a time.)
    """
    if not attrs:
        return str(name)
    rendered = ",".join(
        f"{key}={value}"
        for key, value in sorted(
            (str(key), str(value)) for key, value in attrs.items()
        )
    )
    return f"{name}[{rendered}]"


def _max_rss_kb() -> float | None:
    """Peak RSS of this process in KiB (None where unsupported)."""
    if resource is None:
        return None
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes.
    return usage / 1024.0 if sys.platform == "darwin" else float(usage)


@dataclass
class SpanNode:
    """One stage of a run: timings, attributes, children.

    ``start_s`` is the offset from the tracer's epoch (perf_counter
    based), kept so the Chrome-trace exporter can lay spans on a common
    timeline; ``wall_s``/``cpu_s`` are the stage's own durations.  Memory
    fields are deltas over the span: ``alloc_peak_kb`` is the tracemalloc
    traced-peak delta (only when memory tracking is on) and
    ``max_rss_kb`` the process peak RSS at span exit.
    """

    name: str
    attrs: dict[str, Any] = field(default_factory=dict)
    start_s: float = 0.0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    alloc_peak_kb: float | None = None
    max_rss_kb: float | None = None
    pid: int = 0
    children: list["SpanNode"] = field(default_factory=list)

    # ------------------------------------------------------------ export
    def to_dict(self) -> dict:
        """Plain-dict form; pickles across process boundaries."""
        payload: dict[str, Any] = {
            "name": self.name,
            "attrs": dict(self.attrs),
            "start_s": self.start_s,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "pid": self.pid,
            "children": [child.to_dict() for child in self.children],
        }
        if self.alloc_peak_kb is not None:
            payload["alloc_peak_kb"] = self.alloc_peak_kb
        if self.max_rss_kb is not None:
            payload["max_rss_kb"] = self.max_rss_kb
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> "SpanNode":
        return cls(
            name=str(payload["name"]),
            attrs=dict(payload.get("attrs", {})),
            start_s=float(payload.get("start_s", 0.0)),
            wall_s=float(payload.get("wall_s", 0.0)),
            cpu_s=float(payload.get("cpu_s", 0.0)),
            alloc_peak_kb=payload.get("alloc_peak_kb"),
            max_rss_kb=payload.get("max_rss_kb"),
            pid=int(payload.get("pid", 0)),
            children=[
                cls.from_dict(child) for child in payload.get("children", ())
            ],
        )

    def structure(self) -> tuple:
        """Timing-free projection: (name, sorted attrs, child structures).

        Two runs of the same workload must produce *equal* structures
        regardless of worker count or machine speed — this is what the
        engine determinism test compares.
        """
        return (
            self.name,
            tuple(sorted((str(k), str(v)) for k, v in self.attrs.items())),
            tuple(child.structure() for child in self.children),
        )

    def walk(self, depth: int = 0) -> Iterator[tuple[int, "SpanNode"]]:
        """Depth-first (pre-order) traversal with depths."""
        yield depth, self
        for child in self.children:
            yield from child.walk(depth + 1)

    def total_spans(self) -> int:
        return 1 + sum(child.total_spans() for child in self.children)


class _NullSpanContext:
    """Shared no-op context manager for disabled tracers."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: object) -> None:
        return None


_NULL_SPAN = _NullSpanContext()


class Tracer:
    """Per-thread hierarchical span recorder.

    Spans opened on the same thread nest; each thread gets its own stack
    (``threading.local``), and top-level spans from any thread land in
    :attr:`roots` in completion order under a lock.  ``memory=True``
    additionally starts :mod:`tracemalloc` and records traced-peak
    deltas per span (useful, but ~2-4x slower — off by default).
    """

    def __init__(self, enabled: bool = True, memory: bool = False) -> None:
        self.enabled = enabled
        self.memory = memory and enabled
        self.roots: list[SpanNode] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        # Thread ident -> tuple of rendered span segments currently open
        # on that thread.  ``threading.local`` stacks are invisible from
        # other threads, so the sampling profiler reads this registry
        # instead; tuples are swapped in whole (GIL-atomic), never
        # mutated, so a concurrent reader sees either the old or the new
        # path — both valid attributions for an in-flight sample.
        self._active_paths: dict[int, tuple[str, ...]] = {}
        self._epoch = time.perf_counter()
        self._owns_tracemalloc = False
        if self.memory and not tracemalloc.is_tracing():
            tracemalloc.start()
            self._owns_tracemalloc = True

    def close(self) -> None:
        """Stop tracemalloc if this tracer started it."""
        if self._owns_tracemalloc and tracemalloc.is_tracing():
            tracemalloc.stop()
            self._owns_tracemalloc = False

    # ------------------------------------------------------------- stack
    def _stack(self) -> list[SpanNode]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    @property
    def current(self) -> SpanNode | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def span(self, name: str, **attrs: Any):
        """Context manager for one timed stage; yields the live node.

        Disabled tracers return a shared no-op context that yields
        ``None``, so callers can write ``with tracer.span(...) as sp:``
        unconditionally and test ``sp is not None`` when they need the
        node itself.
        """
        if not self.enabled:
            return _NULL_SPAN
        return self._record(name, attrs)

    @contextlib.contextmanager
    def _record(self, name: str, attrs: dict[str, Any]):
        node = SpanNode(name=name, attrs=attrs, pid=os.getpid())
        stack = self._stack()
        stack.append(node)
        ident = threading.get_ident()
        previous_path = self._active_paths.get(ident, ())
        self._active_paths[ident] = previous_path + (
            render_segment(name, attrs),
        )
        if self.memory:
            tracemalloc.reset_peak()
            traced_before, _ = tracemalloc.get_traced_memory()
        cpu0 = time.process_time()
        wall0 = time.perf_counter()
        node.start_s = wall0 - self._epoch
        try:
            yield node
        finally:
            node.wall_s = time.perf_counter() - wall0
            node.cpu_s = time.process_time() - cpu0
            if self.memory:
                _, traced_peak = tracemalloc.get_traced_memory()
                node.alloc_peak_kb = max(0.0, (traced_peak - traced_before)) / 1024.0
            node.max_rss_kb = _max_rss_kb()
            if previous_path:
                self._active_paths[ident] = previous_path
            else:
                self._active_paths.pop(ident, None)
            stack.pop()
            if stack:
                stack[-1].children.append(node)
            else:
                with self._lock:
                    self.roots.append(node)

    # ------------------------------------------------------------ sampling
    def active_span_path(self, ident: int) -> str:
        """``/``-joined path of the spans open on thread ``ident``.

        Called by the sampling profiler from *its* thread while spans
        open and close concurrently; returns ``""`` for threads outside
        any span.  Reads one dict slot (GIL-atomic), never blocks the
        traced thread.
        """
        return "/".join(self._active_paths.get(ident, ()))

    # ------------------------------------------------------------- merge
    def attach_subtree(self, payload: Mapping | SpanNode) -> SpanNode | None:
        """Attach a finished subtree (e.g. from a worker process).

        The subtree becomes a child of the currently open span on this
        thread (or a new root).  Call in a deterministic order —
        :func:`repro.obs.map_shards` attaches them in payload order — and
        the merged tree is identical for any worker count.
        """
        if not self.enabled:
            return None
        node = (
            payload
            if isinstance(payload, SpanNode)
            else SpanNode.from_dict(payload)
        )
        current = self.current
        if current is not None:
            current.children.append(node)
        else:
            with self._lock:
                self.roots.append(node)
        return node

    # ------------------------------------------------------------- export
    def tree(self) -> SpanNode | None:
        """The single root span, or a synthetic root over multiple."""
        with self._lock:
            roots = list(self.roots)
        if not roots:
            return None
        if len(roots) == 1:
            return roots[0]
        synthetic = SpanNode(name="run", pid=os.getpid())
        synthetic.children = roots
        synthetic.wall_s = sum(root.wall_s for root in roots)
        synthetic.cpu_s = sum(root.cpu_s for root in roots)
        return synthetic
