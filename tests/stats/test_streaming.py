"""Unit, property and convergence tests for the P² quantile estimator."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats.streaming import P2Quantile

values = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    min_size=1,
    max_size=300,
)


class TestP2Quantile:
    def test_q_validated(self):
        with pytest.raises(ValueError):
            P2Quantile(0.0)
        with pytest.raises(ValueError):
            P2Quantile(1.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            P2Quantile(0.5).value

    def test_exact_for_tiny_streams(self):
        estimator = P2Quantile(0.5)
        for value in (5.0, 1.0, 3.0):
            estimator.add(value)
        assert estimator.value == 3.0

    def test_median_of_uniform_stream(self):
        rng = random.Random(4)
        estimator = P2Quantile(0.5)
        for _ in range(50_000):
            estimator.add(rng.random())
        assert estimator.value == pytest.approx(0.5, abs=0.02)

    def test_p90_of_uniform_stream(self):
        rng = random.Random(5)
        estimator = P2Quantile(0.9)
        for _ in range(50_000):
            estimator.add(rng.random())
        assert estimator.value == pytest.approx(0.9, abs=0.03)

    def test_median_of_lognormal_stream(self):
        rng = random.Random(6)
        estimator = P2Quantile(0.5)
        for _ in range(50_000):
            estimator.add(rng.lognormvariate(8.0, 1.0))
        import math

        assert estimator.value == pytest.approx(math.exp(8.0), rel=0.1)

    @settings(max_examples=30)
    @given(values)
    def test_estimate_within_observed_range(self, xs):
        estimator = P2Quantile(0.5)
        for value in xs:
            estimator.add(value)
        assert min(xs) <= estimator.value <= max(xs)

    def test_sorted_and_reversed_streams_agree(self):
        ordered = [float(i) for i in range(5000)]
        up = P2Quantile(0.5)
        down = P2Quantile(0.5)
        for value in ordered:
            up.add(value)
        for value in reversed(ordered):
            down.add(value)
        assert up.value == pytest.approx(2500.0, rel=0.05)
        assert down.value == pytest.approx(2500.0, rel=0.05)
