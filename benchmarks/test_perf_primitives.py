"""Performance microbenchmarks of the pipeline's hot primitives.

Unlike the figure modules (which regenerate paper results), these measure
throughput of the computational kernels the pipeline spends its time in —
the attribution, session and dwell-interval column kernels, haversine
scans and the P² streaming estimator — so a performance regression shows
up as a drop in ops/sec rather than a silently slower analysis.
"""

import random

import numpy as np
import pytest

from repro.core.app_mapping import SignatureCatalog, attribute_table
from repro.core.mobility import dwell_intervals
from repro.core.sessions import session_table
from repro.simnet.appcatalog import builtin_app_catalog
from repro.stats.geo import GeoPoint, haversine_km, max_displacement_km
from repro.stats.streaming import P2Quantile


@pytest.fixture(scope="module")
def wearable_slice(paper_dataset):
    """A fixed 50k-row slice of wearable traffic, as a column table."""
    rows = np.flatnonzero(paper_dataset.wearable_proxy_mask)[:50_000]
    return paper_dataset.proxy.take(rows)


@pytest.fixture(scope="module")
def signatures():
    return SignatureCatalog.from_app_catalog(builtin_app_catalog())


@pytest.fixture(scope="module")
def attributed_slice(wearable_slice, signatures):
    return attribute_table(wearable_slice, signatures)


def test_perf_host_classification(benchmark, wearable_slice, signatures):
    hosts = wearable_slice.column("host")
    hosts = hosts.values[hosts.codes[:10_000]].tolist()

    def classify_all():
        for host in hosts:
            signatures.classify_host(host)

    benchmark(classify_all)


def test_perf_attribution(benchmark, wearable_slice, signatures):
    benchmark.pedantic(
        attribute_table,
        args=(wearable_slice, signatures),
        rounds=3,
        iterations=1,
    )


def test_perf_sessionize(benchmark, attributed_slice):
    benchmark.pedantic(
        session_table, args=(attributed_slice,), rounds=3, iterations=1
    )


def test_perf_timeline_build(benchmark, paper_dataset):
    rows = np.flatnonzero(paper_dataset.wearable_mme_mask)[:50_000]
    benchmark.pedantic(
        dwell_intervals,
        args=(paper_dataset.mme, rows, paper_dataset.window.study_start),
        rounds=3,
        iterations=1,
    )


def test_perf_haversine(benchmark):
    rng = random.Random(1)
    pairs = [
        (
            GeoPoint(rng.uniform(35, 45), rng.uniform(-8, 2)),
            GeoPoint(rng.uniform(35, 45), rng.uniform(-8, 2)),
        )
        for _ in range(5_000)
    ]

    def run():
        for a, b in pairs:
            haversine_km(a, b)

    benchmark(run)


def test_perf_max_displacement(benchmark):
    rng = random.Random(2)
    point_sets = [
        [
            GeoPoint(rng.uniform(35, 45), rng.uniform(-8, 2))
            for _ in range(rng.randint(2, 8))
        ]
        for _ in range(2_000)
    ]

    def run():
        for points in point_sets:
            max_displacement_km(points)

    benchmark(run)


def test_perf_p2_quantile(benchmark):
    rng = random.Random(3)
    stream = [rng.lognormvariate(8.0, 1.0) for _ in range(100_000)]

    def run():
        estimator = P2Quantile(0.5)
        for value in stream:
            estimator.add(value)
        return estimator.value

    benchmark.pedantic(run, rounds=3, iterations=1)
