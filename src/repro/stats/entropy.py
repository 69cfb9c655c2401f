"""Shannon entropy of visited locations.

Section 4.4 of the paper compares mobility via the Shannon entropy of the
sectors a user visits, *normalised by the time the user stays in a single
location*.  Two estimators are provided:

* :func:`shannon_entropy` — plain entropy over visit counts;
* :func:`dwell_weighted_entropy` — entropy over the distribution of time
  spent per sector, which is the paper's dwell-normalised variant.

Both return bits (log base 2).
"""

from __future__ import annotations

from collections import Counter
from math import log2
from typing import Hashable, Iterable, Mapping


def entropy_bits(weights: Iterable[float]) -> float:
    """Entropy in bits of the normalised weight vector (non-positive
    weights are ignored)."""
    positive = [w for w in weights if w > 0]
    total = sum(positive)
    if total <= 0:
        return 0.0
    entropy = 0.0
    for weight in positive:
        p = weight / total
        entropy -= p * log2(p)
    return entropy


def shannon_entropy(visits: Iterable[Hashable]) -> float:
    """Entropy (bits) of the empirical distribution of visited items.

    >>> shannon_entropy(["a", "a", "b", "b"])
    1.0
    >>> shannon_entropy(["a", "a", "a"])
    0.0
    """
    counts = Counter(visits)
    if not counts:
        return 0.0
    return entropy_bits(counts.values())


def dwell_weighted_entropy(dwell_seconds: Mapping[Hashable, float]) -> float:
    """Entropy (bits) of the time-share a user spends in each sector.

    ``dwell_seconds`` maps sector id to the total time attached to that
    sector.  Zero or negative dwell entries are ignored.  This matches the
    paper's "entropy of visited location normalised by the time a user stays
    in a single location".
    """
    return entropy_bits(dwell_seconds.values())


def normalized_entropy(visits: Iterable[Hashable]) -> float:
    """Visit entropy divided by its maximum (log2 of distinct items).

    Returns a value in [0, 1]; 0 for a single-location user, 1 for a user
    spreading visits uniformly over all visited sectors.
    """
    counts = Counter(visits)
    distinct = len(counts)
    if distinct <= 1:
        return 0.0
    return entropy_bits(counts.values()) / log2(distinct)
