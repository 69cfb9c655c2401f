"""Statistics toolkit used across the simulator and the analyses.

Small, dependency-light building blocks: empirical CDFs, Shannon entropy,
great-circle geometry for antenna coordinates, heavy-tailed samplers for the
traffic model, and binned correlation summaries for the scatter-style
figures.
"""

from repro.stats.cdf import ECDF, percentile, summarize
from repro.stats.concentration import (
    BootstrapInterval,
    ExponentialFit,
    bootstrap_ci,
    fit_exponential_decay,
    gini,
)
from repro.stats.correlation import BinnedTrend, binned_means, pearson
from repro.stats.distributions import (
    LogNormalSampler,
    ParetoSampler,
    ZipfSampler,
    truncated_lognormal,
)
from repro.stats.entropy import (
    dwell_weighted_entropy,
    normalized_entropy,
    shannon_entropy,
)
from repro.stats.geo import (
    EARTH_RADIUS_KM,
    GeoPoint,
    haversine_km,
    max_displacement_km,
)
from repro.stats.streaming import P2Quantile

__all__ = [
    "BinnedTrend",
    "BootstrapInterval",
    "EARTH_RADIUS_KM",
    "ECDF",
    "ExponentialFit",
    "GeoPoint",
    "LogNormalSampler",
    "P2Quantile",
    "ParetoSampler",
    "ZipfSampler",
    "bootstrap_ci",
    "binned_means",
    "dwell_weighted_entropy",
    "fit_exponential_decay",
    "gini",
    "haversine_km",
    "max_displacement_km",
    "normalized_entropy",
    "pearson",
    "percentile",
    "shannon_entropy",
    "summarize",
    "truncated_lognormal",
]
