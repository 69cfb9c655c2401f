"""Disabled-path overhead bound.

The tentpole requires the disabled registry/tracer to be near-zero-cost.
Real instrumentation touches the registry O(1) times per *file*, so the
honest per-row cost is an ``obs.enabled()`` check at most.  This test
bounds something strictly harsher: a small ingest loop that pays a null
counter ``add`` **per row** on top of the real row work must stay within
5% of the identical loop without any observability calls.

Timing tests are noisy on shared CI runners, so the measurement takes the
minimum over many repetitions of each loop, interleaved one repetition at
a time with equal counts (alternating which loop goes first), and
retries up to three times before failing.
"""

from __future__ import annotations

import time
from pathlib import Path

import pytest

from repro import obs
from repro.logs.io import _coerce_row
from repro.logs.records import MmeRecord

ROWS = 400
REPS = 30
ATTEMPTS = 3
MAX_OVERHEAD = 0.05


def _sample_rows() -> list[dict[str, str]]:
    return [
        {
            "timestamp": str(1_491_004_800 + i),
            "imei": "35847521000000" + f"{i % 10}",
            "subscriber_id": f"acct-{i:05d}",
            "event": "attach",
            "sector_id": f"s-{i % 16:03d}",
        }
        for i in range(ROWS)
    ]


def _ingest_plain(rows: list[dict[str, str]], path: Path) -> int:
    count = 0
    for index, row in enumerate(rows, start=2):
        _coerce_row(MmeRecord, row, path, index)
        count += 1
    return count


def _ingest_instrumented(rows: list[dict[str, str]], path: Path) -> int:
    # Strictly harsher than the real hot path: a registry lookup per file
    # plus a (null) counter call per *row*.
    counter = obs.metrics().counter(
        "repro_overhead_rows_total", stream="mme"
    )
    count = 0
    for index, row in enumerate(rows, start=2):
        _coerce_row(MmeRecord, row, path, index)
        counter.add(1)
        count += 1
    if obs.enabled():  # pragma: no cover - disabled in this test
        obs.metrics().histogram("repro_overhead_seconds").observe(0.0)
    return count


def _interleaved_minima(first, second, rows, path) -> tuple[float, float]:
    """The fastest of :data:`REPS` runs of each loop, the runs of the two
    interleaved one at a time and alternating which runs first, so drift
    on a shared machine lands on both alike."""
    best = [float("inf"), float("inf")]
    loops = (first, second)
    for rep in range(REPS):
        for which in (0, 1) if rep % 2 == 0 else (1, 0):
            start = time.perf_counter()
            loops[which](rows, path)
            best[which] = min(best[which], time.perf_counter() - start)
    return best[0], best[1]


def _min_timing(fn, rows, path, reps: int = REPS) -> float:
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        fn(rows, path)
        best = min(best, time.perf_counter() - start)
    return best


def test_disabled_obs_overhead_under_five_percent():
    assert not obs.enabled(), "ambient obs must be disabled in tests"
    rows = _sample_rows()
    path = Path("overhead-test.csv")
    # Warm caches (field-type map, code paths) before measuring.
    _ingest_plain(rows, path)
    _ingest_instrumented(rows, path)

    last_ratio = float("inf")
    for _ in range(ATTEMPTS):
        plain, instrumented = _interleaved_minima(
            _ingest_plain, _ingest_instrumented, rows, path
        )
        last_ratio = instrumented / plain
        if last_ratio <= 1.0 + MAX_OVERHEAD:
            return
    pytest.fail(
        f"disabled-path overhead {100 * (last_ratio - 1):.1f}% exceeds "
        f"{100 * MAX_OVERHEAD:.0f}% after {ATTEMPTS} attempts"
    )


def test_null_instruments_do_not_allocate_state():
    """Disabled registry returns the same shared singletons every time."""
    registry = obs.metrics()
    assert not registry.enabled
    first = registry.counter("repro_x_total", a="1")
    second = registry.counter("repro_y_total", b="2")
    assert first is second


# --------------------------------------------------------------- profiler
# The profiler adds zero per-row instructions: its only cost is the
# sampling thread waking ``hz`` times a second to walk the other
# threads' stacks.  Enabled at the standard 19 hz the ingest loop must
# stay within 5%; disabled profiling is the shared null profiler, which
# has no thread at all, bounded at 1%.

PROFILER_ATTEMPTS = 5


def test_profiler_enabled_overhead_under_five_percent():
    from repro.obs.profiler import SamplingProfiler

    rows = _sample_rows()
    path = Path("overhead-test.csv")
    _ingest_plain(rows, path)

    last_ratio = float("inf")
    for _ in range(PROFILER_ATTEMPTS):
        # REPS plain runs against REPS profiled ones: half of the plain
        # runs before the profiled block and half after, so drift lands
        # on both alike; the sampler runs across the whole profiled block.
        plain = _min_timing(_ingest_plain, rows, path, REPS // 2)
        profiler = SamplingProfiler(hz=19.0)
        profiler.start()
        try:
            profiled = _min_timing(_ingest_plain, rows, path)
        finally:
            profiler.stop()
        plain = min(
            plain, _min_timing(_ingest_plain, rows, path, REPS - REPS // 2)
        )
        last_ratio = profiled / plain
        if last_ratio <= 1.0 + MAX_OVERHEAD:
            return
    pytest.fail(
        f"enabled-profiler overhead {100 * (last_ratio - 1):.1f}% exceeds "
        f"{100 * MAX_OVERHEAD:.0f}% after {PROFILER_ATTEMPTS} attempts"
    )


def test_profiler_disabled_overhead_under_one_percent():
    from repro.obs.profiler import NULL_PROFILER

    assert obs.profiler() is NULL_PROFILER, (
        "ambient profiling must be disabled in tests"
    )
    rows = _sample_rows()
    path = Path("overhead-test.csv")
    _ingest_plain(rows, path)

    def ingest_null_profiled(rows, path) -> int:
        # "Disabled profiling" is the null profiler: started (a no-op,
        # no thread spawns) around the identical loop.
        NULL_PROFILER.start()
        try:
            return _ingest_plain(rows, path)
        finally:
            NULL_PROFILER.stop()

    last_ratio = float("inf")
    for _ in range(PROFILER_ATTEMPTS):
        plain, disabled = _interleaved_minima(
            _ingest_plain, ingest_null_profiled, rows, path
        )
        last_ratio = disabled / plain
        if last_ratio <= 1.01:
            return
    pytest.fail(
        f"disabled-profiler overhead {100 * (last_ratio - 1):.1f}% "
        f"exceeds 1% after {PROFILER_ATTEMPTS} attempts"
    )
