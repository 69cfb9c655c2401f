"""Empirical cumulative distribution functions and summary statistics.

Most of the paper's figures are CDFs (active hours, transaction sizes, max
displacement, ...).  :class:`ECDF` gives the analyses and the benchmark
harness one shared representation with exact evaluation, inverse lookup and
fixed-grid sampling for plot-style series.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from math import ceil
from typing import Iterable, Mapping, Sequence

import numpy as np


class ECDF:
    """Empirical CDF over a finite sample.

    ``ecdf(x)`` returns the fraction of sample points ``<= x`` (the standard
    right-continuous empirical distribution function).
    """

    def __init__(self, sample: Iterable[float]) -> None:
        values = sorted(float(v) for v in sample)
        if not values:
            raise ValueError("ECDF needs at least one sample point")
        self._values = values

    @classmethod
    def from_counts(cls, counts: Mapping[float, int]) -> "ECDF":
        """The ECDF of a sample given as ``{value: multiplicity}``: its
        sorted distinct values, each repeated by its count, without
        expanding and sorting the sample."""
        values = sorted(counts)
        ecdf = cls.__new__(cls)
        ecdf._values = np.repeat(
            np.array(values, dtype=np.float64),
            np.array([counts[value] for value in values], dtype=np.int64),
        ).tolist()
        if not ecdf._values:
            raise ValueError("ECDF needs at least one sample point")
        return ecdf

    def __len__(self) -> int:
        return len(self._values)

    def __eq__(self, other: object) -> bool:
        """Value equality: two ECDFs are equal iff their sorted samples
        are — what the parallel-vs-batch differential layer compares."""
        if not isinstance(other, ECDF):
            return NotImplemented
        return self._values == other._values

    def __hash__(self) -> int:  # pragma: no cover - kept usable in sets
        return hash(tuple(self._values))

    def __repr__(self) -> str:
        return (
            f"ECDF(n={len(self._values)}, "
            f"min={self._values[0]!r}, max={self._values[-1]!r})"
        )

    def __call__(self, x: float) -> float:
        """Fraction of the sample less than or equal to ``x``."""
        return bisect_right(self._values, x) / len(self._values)

    def fraction_below(self, x: float) -> float:
        """Fraction of the sample strictly less than ``x``."""
        return bisect_left(self._values, x) / len(self._values)

    def quantile(self, q: float) -> float:
        """Smallest sample value ``v`` with ``ecdf(v) >= q``.

        ``q`` must lie in (0, 1].
        """
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {q}")
        index = min(len(self._values) - 1, max(0, ceil(q * len(self._values)) - 1))
        return self._values[index]

    @property
    def sample(self) -> tuple[float, ...]:
        """The sorted underlying sample (for resampling/bootstrap)."""
        return tuple(self._values)

    @property
    def minimum(self) -> float:
        return self._values[0]

    @property
    def maximum(self) -> float:
        return self._values[-1]

    @property
    def mean(self) -> float:
        return sum(self._values) / len(self._values)

    @property
    def median(self) -> float:
        return self.quantile(0.5)

    def series(self, points: int = 100) -> list[tuple[float, float]]:
        """(x, F(x)) pairs on an evenly spaced grid over the sample range.

        This is the shape a plotted CDF curve carries; the benchmark harness
        prints these series as the figure reproduction.
        """
        if points < 2:
            raise ValueError("need at least two grid points")
        lo, hi = self._values[0], self._values[-1]
        if hi == lo:
            return [(lo, 1.0)] * points
        step = (hi - lo) / (points - 1)
        return [(lo + i * step, self(lo + i * step)) for i in range(points)]


def percentile(sample: Sequence[float], q: float) -> float:
    """Convenience wrapper: the ``q``-quantile (0 < q <= 1) of ``sample``."""
    return ECDF(sample).quantile(q)


@dataclass(frozen=True, slots=True)
class Summary:
    """Five-number-plus-mean summary of a sample."""

    count: int
    mean: float
    minimum: float
    p25: float
    median: float
    p75: float
    p90: float
    maximum: float


def summarize(sample: Iterable[float]) -> Summary:
    """Summary statistics for a sample (raises on empty input)."""
    ecdf = ECDF(sample)
    return Summary(
        count=len(ecdf),
        mean=ecdf.mean,
        minimum=ecdf.minimum,
        p25=ecdf.quantile(0.25),
        median=ecdf.median,
        p75=ecdf.quantile(0.75),
        p90=ecdf.quantile(0.90),
        maximum=ecdf.maximum,
    )
