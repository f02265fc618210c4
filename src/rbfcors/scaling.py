"""Variable and objective rescaling.

Search happens in the unit cube: every variable range [a_i, b_i] is mapped
linearly onto [0, 1].  Raw objective values, which may be any finite floats,
are mapped linearly from an anchor to an outlier threshold, above which they
clip, so that extreme values cannot distort the response surface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


class BoundedDomain:
    """Axis-aligned box of variable ranges with a bijection to the unit cube.

    Each variable i lives in [lower_i, upper_i] with strictly positive, finite width.
    """

    def __init__(self, lower: Sequence[float], upper: Sequence[float]):
        self.lower = np.asarray(lower, dtype=float)
        self.upper = np.asarray(upper, dtype=float)
        if self.lower.ndim != 1 or self.upper.ndim != 1:
            raise ValueError("bounds must be one-dimensional vectors")
        if self.lower.size != self.upper.size:
            raise ValueError(
                f"bound lengths differ: {self.lower.size} vs {self.upper.size}"
            )
        if self.lower.size < 1:
            raise ValueError("domain needs at least one variable")
        if not np.all(np.isfinite(self.lower)) or not np.all(np.isfinite(self.upper)):
            raise ValueError("bounds must be finite")
        with np.errstate(over="ignore"):
            width = self.upper - self.lower
        if not np.all(width > 0):
            bad = int(np.argmin(width))
            raise ValueError(
                f"upper bound must exceed lower bound for every variable; "
                f"variable {bad} has range [{self.lower[bad]}, {self.upper[bad]}]"
            )
        if not np.all(np.isfinite(width)):
            raise ValueError(f"bound widths must be finite, got {width.tolist()}")
        self.width = width

    @property
    def dim(self) -> int:
        return int(self.lower.size)

    def to_unit(self, v: Sequence[float]) -> np.ndarray:
        """Map a point in original units onto the unit cube.

        Raises ValueError on dimension mismatch or out-of-bounds components;
        out-of-bounds queries are an error rather than being clamped, so
        caller bugs do not pass silently.
        """
        v = np.asarray(v, dtype=float)
        if v.shape != (self.dim,):
            raise ValueError(f"expected a vector of length {self.dim}, got shape {v.shape}")
        if np.any(v < self.lower) or np.any(v > self.upper):
            raise ValueError(f"point {v.tolist()} is outside the domain box")
        return (v - self.lower) / self.width

    def from_unit(self, unit: Sequence[float]) -> np.ndarray:
        """Map a unit-cube point back to original units (inverse of to_unit)."""
        unit = np.asarray(unit, dtype=float)
        if unit.shape != (self.dim,):
            raise ValueError(f"expected a vector of length {self.dim}, got shape {unit.shape}")
        if np.any(unit < 0.0) or np.any(unit > 1.0):
            raise ValueError(f"unit-cube point {unit.tolist()} has components outside [0, 1]")
        return self.lower + unit * self.width

    def __repr__(self) -> str:
        return f"BoundedDomain(lower={self.lower.tolist()}, upper={self.upper.tolist()})"


@dataclass(frozen=True)
class ObjectiveRescaler:
    """Maps raw objective values linearly between a frozen anchor and threshold.

    Values below the threshold map to (value - anchor) / (threshold - anchor);
    values at or above it clip to 1, cutting outliers.  The anchor is
    min(0, smallest calibration value), so the calibration values land in
    [0, 1], and for non-negative objectives the map is value / threshold.
    Later values below a negative anchor map below 0.  When the calibration
    samples carried no usable range (all equal, or threshold equal to the
    anchor) the rescaler is degenerate: everything at or below the threshold
    maps to 0, everything above to 1.
    """

    threshold: float
    degenerate: bool
    anchor: float

    def rescale(self, value: float) -> float:
        value = float(value)
        if self.degenerate:
            return 0.0 if value <= self.threshold else 1.0
        if value < self.threshold:
            span = self.threshold - self.anchor
            if math.isinf(span):
                # Both differences can overflow; halving every term keeps
                # the ratio and brings both into range.
                return (value / 2 - self.anchor / 2) / (self.threshold / 2 - self.anchor / 2)
            return (value - self.anchor) / span
        return 1.0


def fit_rescaler(raw_values: Sequence[float], keep_fraction: float) -> ObjectiveRescaler:
    """Calibrate an ObjectiveRescaler from the initial-stage raw values.

    The threshold is the ceil(keep_fraction * n)-th smallest raw value, so
    exactly that fraction of the calibration samples lands at or below it.
    The anchor is min(0, smallest raw value).  The rescaler is intended to be
    computed once and kept frozen.
    """
    values = np.asarray(raw_values, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise ValueError("need a non-empty vector of raw objective values")
    if not np.all(np.isfinite(values)):
        raise ValueError("objective values must be finite")
    if not 0.0 < keep_fraction <= 1.0:
        raise ValueError(f"keep_fraction must be in (0, 1], got {keep_fraction}")
    rank = math.ceil(keep_fraction * values.size)
    threshold = float(np.sort(values)[rank - 1])
    lowest = float(values.min())
    anchor = min(0.0, lowest)
    degenerate = threshold == anchor or lowest == float(values.max())
    return ObjectiveRescaler(threshold, degenerate, anchor)
