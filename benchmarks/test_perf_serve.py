"""Serving-layer benchmarks: incremental ingest and warm-cache queries.

Two numbers justify ``repro serve`` over re-running batch ``analyze``:

* **incremental ingest throughput** — rows/second folded into the
  per-shard partials as a growing trace is tailed chunk by chunk.  This
  is the steady-state cost of keeping the service current;
* **warm-cache query latency** — a repeated panel query against an
  unchanged generation is a dictionary lookup plus an ``ETag`` compare,
  so it must sit orders of magnitude under a batch ``analyze``.

Both are exported as obs gauges so they land in ``BENCH_repro.json``
and are policed by ``make bench-gate`` alongside the wall-time spans.
"""

import time

import pytest

from repro import obs
from repro.serve.service import AnalysisService, ServeConfig
from repro.simnet.config import SimulationConfig
from repro.simnet.simulator import Simulator

SEED = 7
CHUNKS = 16


@pytest.fixture(scope="module")
def serve_trace(tmp_path_factory):
    out = Simulator(SimulationConfig.small(seed=SEED)).run()
    full = tmp_path_factory.mktemp("serve-bench") / "full"
    out.write(full)
    rows = len(out.proxy_records) + len(out.mme_records)
    return full, rows


def prime(full, grow):
    """Create the growing dir with side artefacts only (no log rows)."""
    grow.mkdir(parents=True, exist_ok=True)
    for name in ("accounts.csv", "devices.csv", "metadata.json", "sectors.csv"):
        (grow / name).write_bytes((full / name).read_bytes())


def grow_chunks(full, grow, chunks):
    """Yield after each step of exposing the logs in ``chunks`` slices."""
    blobs = {
        name: (full / name).read_bytes() for name in ("proxy.csv", "mme.csv")
    }
    for step in range(1, chunks + 1):
        for name, blob in blobs.items():
            cut = len(blob) * step // chunks
            (grow / name).write_bytes(blob[:cut])
        yield step


def test_perf_incremental_ingest(benchmark, serve_trace, tmp_path):
    """Rows/second through tail → scrub → shard-route → partial fold."""
    full, rows = serve_trace

    state = {"n": 0}

    def ingest_growing():
        state["n"] += 1
        grow = tmp_path / f"grow{state['n']}"
        prime(full, grow)
        service = AnalysisService(
            ServeConfig(trace_dir=grow, shards=4)
        )
        total = 0
        for _ in grow_chunks(full, grow, CHUNKS):
            total += service.ingest_once()
        return total

    started = time.perf_counter()
    total = benchmark.pedantic(ingest_growing, rounds=3, iterations=1)
    elapsed = time.perf_counter() - started
    assert total == rows
    if obs.enabled():
        # Conservative: wall time includes the file rewrites between
        # chunks, so the real fold throughput is higher.
        obs.metrics().gauge("repro_serve_ingest_rows_per_s").set(
            total * 3 / elapsed
        )


def test_perf_warm_cache_query(benchmark, serve_trace, tmp_path):
    """Repeated panel queries at one generation are cache lookups."""
    full, _ = serve_trace
    grow = tmp_path / "grow"
    prime(full, grow)
    service = AnalysisService(ServeConfig(trace_dir=grow, shards=4))
    for _ in grow_chunks(full, grow, 1):
        service.ingest_once()
    service.panel_resource("fig2a")  # pay the one finalize + render

    def query():
        generation, body = service.panel_resource("fig2a")
        return len(body)

    size = benchmark.pedantic(query, rounds=5, iterations=200)
    assert size > 0

    started = time.perf_counter()
    for _ in range(1000):
        query()
    per_query = (time.perf_counter() - started) / 1000
    if obs.enabled():
        obs.metrics().gauge("repro_serve_warm_query_us").set(per_query * 1e6)
    # A warm query must never approach batch-analyze territory: even on
    # a loaded CI machine a cache hit is well under a millisecond.
    assert per_query < 0.005, f"warm cache query took {per_query * 1e3:.2f}ms"
