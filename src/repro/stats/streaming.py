"""Bounded-memory streaming quantile estimation.

:class:`P2Quantile` is the Jain & Chlamtac P² estimator: one quantile
tracked with five markers and O(1) memory.  The latency histograms of
:mod:`repro.obs` track their quantiles with it; merged histograms do not
combine estimators but re-estimate quantiles from their summed buckets.
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
