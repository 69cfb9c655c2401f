"""Unit and property tests for the empirical CDF."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.stats.cdf import ECDF, percentile, summarize

finite_floats = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)
samples = st.lists(finite_floats, min_size=1, max_size=200)


class TestEcdfBasics:
    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            ECDF([])

    def test_known_values(self):
        ecdf = ECDF([1.0, 2.0, 3.0, 4.0])
        assert ecdf(0.5) == 0.0
        assert ecdf(1.0) == 0.25
        assert ecdf(2.5) == 0.5
        assert ecdf(4.0) == 1.0
        assert ecdf(100.0) == 1.0

    def test_fraction_below_is_strict(self):
        ecdf = ECDF([1.0, 1.0, 2.0])
        assert ecdf.fraction_below(1.0) == 0.0
        assert ecdf.fraction_below(2.0) == pytest.approx(2 / 3)

    def test_quantiles(self):
        ecdf = ECDF([10.0, 20.0, 30.0, 40.0])
        assert ecdf.quantile(0.25) == 10.0
        assert ecdf.quantile(0.5) == 20.0
        assert ecdf.quantile(1.0) == 40.0

    def test_quantile_range_enforced(self):
        ecdf = ECDF([1.0])
        with pytest.raises(ValueError):
            ecdf.quantile(0.0)
        with pytest.raises(ValueError):
            ecdf.quantile(1.5)

    def test_summary_statistics(self):
        ecdf = ECDF([3.0, 1.0, 2.0])
        assert ecdf.minimum == 1.0
        assert ecdf.maximum == 3.0
        assert ecdf.mean == 2.0
        assert ecdf.median == 2.0
        assert len(ecdf) == 3

    def test_series_spans_range(self):
        series = ECDF([0.0, 10.0]).series(points=11)
        assert series[0] == (0.0, 0.5)
        assert series[-1][0] == 10.0
        assert series[-1][1] == 1.0

    def test_series_of_constant_sample(self):
        series = ECDF([5.0, 5.0]).series(points=3)
        assert all(value == (5.0, 1.0) for value in series)

    def test_series_needs_two_points(self):
        with pytest.raises(ValueError):
            ECDF([1.0]).series(points=1)


class TestEcdfProperties:
    @given(samples, finite_floats)
    def test_values_in_unit_interval(self, sample, x):
        assert 0.0 <= ECDF(sample)(x) <= 1.0

    @given(samples, finite_floats, finite_floats)
    def test_monotone(self, sample, a, b):
        lo, hi = min(a, b), max(a, b)
        ecdf = ECDF(sample)
        assert ecdf(lo) <= ecdf(hi)

    @given(samples)
    def test_maximum_reaches_one(self, sample):
        ecdf = ECDF(sample)
        assert ecdf(ecdf.maximum) == 1.0

    @given(samples, st.floats(min_value=0.01, max_value=1.0))
    def test_quantile_is_inverse(self, sample, q):
        ecdf = ECDF(sample)
        value = ecdf.quantile(q)
        assert ecdf(value) >= q - 1e-12

    @given(samples)
    def test_quantiles_monotone(self, sample):
        ecdf = ECDF(sample)
        quantiles = [ecdf.quantile(q / 10) for q in range(1, 11)]
        assert quantiles == sorted(quantiles)

    @given(
        st.dictionaries(
            st.integers(0, 10**12), st.integers(0, 50), min_size=1, max_size=50
        )
    )
    def test_from_counts_equals_expanded_sample(self, counts):
        """A ``{value: count}`` histogram gives the ECDF of its expanded
        sample: equal, same sample and same quantiles."""
        if not any(counts.values()):
            with pytest.raises(ValueError, match="at least one"):
                ECDF.from_counts(counts)
            return
        ecdf = ECDF.from_counts(counts)
        expanded = ECDF(v for v, n in counts.items() for _ in range(n))
        assert ecdf == expanded
        assert ecdf.sample == expanded.sample
        assert all(type(v) is float for v in ecdf.sample)
        for q in (0.01, 0.25, 0.5, 0.9, 1.0):
            assert ecdf.quantile(q) == expanded.quantile(q)


class TestHelpers:
    def test_percentile_matches_ecdf(self):
        sample = [5.0, 1.0, 9.0, 3.0]
        assert percentile(sample, 0.5) == ECDF(sample).quantile(0.5)

    def test_summarize_fields(self):
        summary = summarize([1.0, 2.0, 3.0, 4.0, 100.0])
        assert summary.count == 5
        assert summary.minimum == 1.0
        assert summary.maximum == 100.0
        assert summary.median == 3.0
        assert summary.mean == 22.0
        assert summary.p90 == 100.0

    def test_summarize_empty_raises(self):
        with pytest.raises(ValueError):
            summarize([])
