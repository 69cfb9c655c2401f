"""Bounded-memory streaming quantile estimation.

:class:`P2Quantile` is the Jain & Chlamtac P² estimator: one quantile
tracked with five markers and O(1) memory.  It is **mergeable** —
``merge(other)`` combines two independently filled estimators, a
documented approximation (marker-state refeed) — and **checkpointable**:
``to_state()`` / ``from_state()`` round-trip the full internal state
through the versioned JSON-safe encoding of :mod:`repro.state`, so
``from_state(to_state(x))`` behaves identically to ``x`` for every
future ``add``/``merge``.  The latency histograms of :mod:`repro.obs`
track their quantiles with it.
"""

from __future__ import annotations

class P2Quantile:
    """The P² single-quantile estimator (Jain & Chlamtac, 1985).

    Tracks one quantile ``q`` with five markers in O(1) memory.  Exact for
    the first five observations; converges to the true quantile with error
    vanishing as the stream grows.
    """

    def __init__(self, q: float) -> None:
        if not 0.0 < q < 1.0:
            raise ValueError("q must be in (0, 1)")
        self.q = q
        self._initial: list[float] = []
        self._heights: list[float] = []
        self._positions: list[float] = []
        self._desired: list[float] = []
        self._increments: list[float] = []
        self.count = 0

    def _initialise(self) -> None:
        self._heights = sorted(self._initial)
        self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
        q = self.q
        self._desired = [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0]
        self._increments = [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0]

    def merge(self, other: "P2Quantile") -> "P2Quantile":
        """Fold ``other`` into ``self`` — a *documented approximation*.

        P² keeps five markers, not the data, so an exact merge is
        impossible.  When either side is still in its exact warm-up
        (≤ 5 observations) the raw values are replayed exactly.
        Otherwise marker states combine: extreme heights take the
        min/max, interior heights the count-weighted average of the two
        shards' marker heights (each already a consistent estimate of
        the same population quantile), and positions/desired positions
        are rebuilt for the combined count.  Error stays within the P²
        band for streams from one distribution; callers needing
        guarantees should use the reservoir instead.
        """
        if other.q != self.q:
            raise ValueError("cannot merge estimators for different quantiles")
        if other.count == 0:
            return self
        if other.count <= 5:
            for value in other._initial:
                self.add(value)
            return self
        if self.count <= 5:
            pending = list(self._initial)
            self.count = other.count
            self._initial = list(other._initial)
            self._heights = list(other._heights)
            self._positions = list(other._positions)
            self._desired = list(other._desired)
            self._increments = list(other._increments)
            for value in pending:
                self.add(value)
            return self
        total = self.count + other.count
        weight = other.count / total
        heights = self._heights
        heights[0] = min(heights[0], other._heights[0])
        heights[4] = max(heights[4], other._heights[4])
        for index in (1, 2, 3):
            heights[index] += (other._heights[index] - heights[index]) * weight
        # Interior heights stay sorted between the new extremes.
        for index in (1, 2, 3):
            heights[index] = min(max(heights[index], heights[0]), heights[4])
        self._positions = [
            min(
                float(total),
                max(
                    float(index + 1),
                    self._positions[index] + other._positions[index] - 1.0,
                ),
            )
            for index in range(5)
        ]
        self._positions[0] = 1.0
        self._positions[4] = float(total)
        extra = float(total - 5)
        base = [1.0, 1.0 + 2.0 * self.q, 1.0 + 4.0 * self.q, 3.0 + 2.0 * self.q, 5.0]
        self._desired = [
            base[index] + self._increments[index] * extra for index in range(5)
        ]
        self.count = total
        return self

    def add(self, value: float) -> None:
        self.count += 1
        if self.count <= 5:
            self._initial.append(value)
            if self.count == 5:
                self._initialise()
            return

        heights = self._heights
        positions = self._positions
        # Find the cell and update extreme heights.
        if value < heights[0]:
            heights[0] = value
            cell = 0
        elif value >= heights[4]:
            heights[4] = value
            cell = 3
        else:
            cell = 0
            while cell < 3 and value >= heights[cell + 1]:
                cell += 1
        for index in range(cell + 1, 5):
            positions[index] += 1.0
        for index in range(5):
            self._desired[index] += self._increments[index]

        # Adjust interior markers with parabolic (fallback linear) moves.
        for index in (1, 2, 3):
            drift = self._desired[index] - positions[index]
            step_up = positions[index + 1] - positions[index]
            step_down = positions[index - 1] - positions[index]
            if (drift >= 1.0 and step_up > 1.0) or (
                drift <= -1.0 and step_down < -1.0
            ):
                direction = 1.0 if drift >= 1.0 else -1.0
                candidate = self._parabolic(index, direction)
                if heights[index - 1] < candidate < heights[index + 1]:
                    heights[index] = candidate
                else:
                    heights[index] = self._linear(index, direction)
                positions[index] += direction

    def _parabolic(self, index: int, direction: float) -> float:
        heights = self._heights
        positions = self._positions
        numerator_a = positions[index] - positions[index - 1] + direction
        numerator_b = positions[index + 1] - positions[index] - direction
        span = positions[index + 1] - positions[index - 1]
        slope_up = (heights[index + 1] - heights[index]) / (
            positions[index + 1] - positions[index]
        )
        slope_down = (heights[index] - heights[index - 1]) / (
            positions[index] - positions[index - 1]
        )
        return heights[index] + direction / span * (
            numerator_a * slope_up + numerator_b * slope_down
        )

    def _linear(self, index: int, direction: float) -> float:
        heights = self._heights
        positions = self._positions
        step = int(direction)
        return heights[index] + direction * (
            heights[index + step] - heights[index]
        ) / (positions[index + step] - positions[index])

    @property
    def value(self) -> float:
        """The current quantile estimate."""
        if self.count == 0:
            raise ValueError("no values seen")
        if self.count <= 5:
            ordered = sorted(self._initial)
            index = min(len(ordered) - 1, int(self.q * len(ordered)))
            return ordered[index]
        return self._heights[2]

    def to_state(self) -> dict:
        """JSON-safe snapshot; exact — markers are plain floats."""
        return {
            "v": 1,
            "q": self.q,
            "count": self.count,
            "initial": list(self._initial),
            "heights": list(self._heights),
            "positions": list(self._positions),
            "desired": list(self._desired),
            "increments": list(self._increments),
        }

    @classmethod
    def from_state(cls, state: dict) -> "P2Quantile":
        if state.get("v") != 1:
            raise ValueError(f"unsupported P2Quantile state: {state.get('v')!r}")
        quantile = cls(state["q"])
        quantile.count = state["count"]
        quantile._initial = list(state["initial"])
        quantile._heights = list(state["heights"])
        quantile._positions = list(state["positions"])
        quantile._desired = list(state["desired"])
        quantile._increments = list(state["increments"])
        return quantile
