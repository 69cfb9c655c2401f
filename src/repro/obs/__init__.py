"""``repro.obs`` — zero-dependency observability for the whole pipeline.

The ROADMAP's north star is a system "as fast as the hardware allows";
this subsystem is how the repo *proves* claims about where time, rows and
memory go.  It is stdlib-only and split in three:

* :mod:`repro.obs.metrics` — a thread-safe :class:`MetricsRegistry` of
  counters, gauges and log-bucketed histograms with streaming P²
  quantiles;
* :mod:`repro.obs.spans` — a hierarchical :class:`Tracer` capturing wall
  time, CPU time and memory per stage, with deterministic cross-process
  subtree merging for sharded runs;
* :mod:`repro.obs.export` — the JSON run report, Prometheus text
  exposition and Chrome trace-event (Perfetto) exporters plus their
  schema validators.

Ambient instance
----------------
Instrumented modules never thread an observability handle through every
call signature; they read the process-global *active* instance::

    from repro import obs

    counter = obs.metrics().counter("repro_io_rows_read_total", stream="proxy")
    with obs.tracer().span("simulate.export"):
        ...

The default active instance is **disabled**: ``metrics()`` returns a
registry that hands out shared no-op instruments and ``tracer().span``
is a shared no-op context manager, so the instrumented hot paths cost a
flag check (the overhead test bounds it at <5% on a small ingest loop —
in practice it is unmeasurable because instrumentation touches the
registry per *file*, not per row).  The CLI and the benchmark session
install an enabled instance via :func:`enable` / :func:`observe`.

Worker processes
----------------
:func:`map_shards` is the one process pool: the simulation engine fans
its shards out through it (the analysis and the serve finalize run their
shards in process).  Each pool task runs under a fresh worker instance
and ships its metrics, span roots and profile back, and the parent
merges them in payload order, so the span tree and the counters do not
depend on the worker count.

Metric naming: ``repro_<area>_<name>``, counters suffixed ``_total``.
"""

from __future__ import annotations

import contextlib
from concurrent.futures import ProcessPoolExecutor
from itertools import repeat
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, TypeVar

from repro.obs.metrics import MetricsRegistry
from repro.obs.profiler import NULL_PROFILER, SamplingProfiler
from repro.obs.spans import SpanNode, Tracer
from repro.obs.timeline import NULL_EVENTS, EventWriter, HeartbeatSampler

__all__ = [
    "MetricsRegistry",
    "Observability",
    "SamplingProfiler",
    "SpanNode",
    "Tracer",
    "disable",
    "enable",
    "enabled",
    "events",
    "get_obs",
    "install",
    "map_shards",
    "metrics",
    "observe",
    "profiler",
    "span",
    "tracer",
]


class Observability:
    """One registry + one tracer (+ optional event log), as one unit.

    ``events_path`` additionally opens a :class:`~repro.obs.timeline.
    EventWriter` on that path — the JSON-lines live-telemetry log.  The
    first opener writes the versioned header; worker processes pointed
    at the same path append to it.  Without a path, :attr:`events` is
    the shared no-op writer and ``obs.events().emit(...)`` costs one
    method call.
    """

    __slots__ = ("metrics", "tracer", "events", "profiler", "enabled")

    def __init__(
        self,
        enabled: bool = True,
        memory: bool = False,
        events_path: str | Path | None = None,
        events_meta: Mapping[str, Any] | None = None,
        profile_hz: float | None = None,
    ) -> None:
        self.enabled = enabled
        self.metrics = MetricsRegistry(enabled=enabled)
        self.tracer = Tracer(enabled=enabled, memory=memory)
        self.events = (
            EventWriter(events_path, meta=events_meta)
            if enabled and events_path is not None
            else NULL_EVENTS
        )
        # Constructed but NOT started: creating an Observability must not
        # spawn threads.  Callers (observe(), the CLI, engine workers)
        # call ``instance.profiler.start()`` once installed.
        self.profiler = (
            SamplingProfiler(hz=profile_hz, tracer=self.tracer)
            if enabled and profile_hz
            else NULL_PROFILER
        )

    def close(self) -> None:
        self.profiler.stop()
        self.tracer.close()
        self.events.close()


#: The ambient disabled instance; never mutated, always safe to share.
_DISABLED = Observability(enabled=False)
_ACTIVE: Observability = _DISABLED


def get_obs() -> Observability:
    """The process-global active observability instance."""
    return _ACTIVE


def enabled() -> bool:
    """Fast check instrumented code uses to skip optional work."""
    return _ACTIVE.enabled


def metrics() -> MetricsRegistry:
    """The active metrics registry (a no-op registry when disabled)."""
    return _ACTIVE.metrics


def tracer() -> Tracer:
    """The active span tracer (a no-op tracer when disabled)."""
    return _ACTIVE.tracer


def events():
    """The active timeline event writer (a no-op writer by default).

    Returns an object with ``emit(type, **fields)``, ``enabled`` and
    ``path`` — either a live :class:`~repro.obs.timeline.EventWriter`
    or the shared null writer.
    """
    return _ACTIVE.events


def profiler():
    """The active sampling profiler (the shared null one by default).

    Returns an object with ``start``/``stop``/``snapshot``/``merge``,
    ``enabled`` and ``hz`` — either a live :class:`~repro.obs.profiler.
    SamplingProfiler` or :data:`~repro.obs.profiler.NULL_PROFILER`.
    """
    return _ACTIVE.profiler


def span(name: str, **attrs):
    """Open a span on the active tracer (no-op when disabled)."""
    return _ACTIVE.tracer.span(name, **attrs)


def install(instance: Observability) -> Observability:
    """Swap the active instance; returns the previous one (restore it!)."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = instance
    return previous


def enable(memory: bool = False) -> Observability:
    """Install and return a fresh enabled instance."""
    instance = Observability(enabled=True, memory=memory)
    install(instance)
    return instance


def disable() -> None:
    """Restore the shared disabled instance."""
    global _ACTIVE
    if _ACTIVE is not _DISABLED:
        _ACTIVE.close()
    _ACTIVE = _DISABLED


@contextlib.contextmanager
def observe(
    memory: bool = False,
    events_path: str | Path | None = None,
    events_meta: Mapping[str, Any] | None = None,
    profile_hz: float | None = None,
) -> Iterator[Observability]:
    """Context manager: enabled instance for the block, then restore.

    The pattern tests and the benchmark session use::

        with obs.observe() as ob:
            run_things()
        report = build_run_report(ob.metrics.snapshot(), ob.tracer.tree())

    ``events_path`` additionally records the live timeline event log
    there for the duration of the block; ``profile_hz`` additionally
    runs the wall-clock sampling profiler at that rate (stopped on
    exit; snapshot it before the block ends or via the yielded
    instance's ``profiler``).
    """
    instance = Observability(
        enabled=True,
        memory=memory,
        events_path=events_path,
        events_meta=events_meta,
        profile_hz=profile_hz,
    )
    previous = install(instance)
    instance.profiler.start()
    try:
        yield instance
    finally:
        install(previous)
        instance.close()


P = TypeVar("P")
R = TypeVar("R")


def map_shards(
    fn: Callable[[P], R], payloads: Iterable[P], workers: int
) -> list[R]:
    """``[fn(payload) for payload in payloads]`` over ``workers`` processes.

    With one worker (or one payload) the calls run in-process under the
    active instance.  Otherwise each call runs in a pool worker under a
    fresh instance with the parent's event log and profiler rate, plus a
    heartbeat sampler when events are on, and ships back its metrics
    snapshot, span roots and profile.  The parent merges those in payload
    order under its current span, so a run's span tree and counters are
    the same for any worker count.  ``fn`` and the payloads must pickle.
    """
    payloads = list(payloads)
    workers = min(workers, len(payloads))
    if workers <= 1:
        return [fn(payload) for payload in payloads]
    active = _ACTIVE
    setup = (
        active.enabled,
        str(active.events.path) if active.events.enabled else None,
        active.profiler.hz if active.profiler.enabled else None,
    )
    with ProcessPoolExecutor(max_workers=workers) as pool:
        shipped = list(
            pool.map(_observed_call, repeat(fn), payloads, repeat(setup))
        )
    results = []
    for result, observed in shipped:
        if observed is not None:
            snapshot, roots, profile = observed
            active.metrics.merge_snapshot(snapshot)
            for root in roots:
                active.tracer.attach_subtree(root)
            active.profiler.merge(profile)
        results.append(result)
    return results


def _observed_call(fn: Callable[[P], R], payload: P, setup: tuple):
    """One :func:`map_shards` pool task: ``fn(payload)`` and what it recorded.

    A forked worker inherits the parent's instance; it is replaced by a
    fresh one so nothing the parent recorded is shipped back twice.
    """
    observe, events_path, profile_hz = setup
    if not observe:
        return fn(payload), None
    instance = Observability(events_path=events_path, profile_hz=profile_hz)
    previous = install(instance)
    instance.profiler.start()
    sampler = (
        HeartbeatSampler(instance.events).start()
        if instance.events.enabled
        else None
    )
    try:
        result = fn(payload)
        # Stop sampling first so the shipped profile is final.
        instance.profiler.stop()
        return result, (
            instance.metrics.snapshot(),
            [root.to_dict() for root in instance.tracer.roots],
            instance.profiler.snapshot(),
        )
    finally:
        if sampler is not None:
            sampler.stop()
        install(previous)
        instance.close()
