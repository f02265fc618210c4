"""Test objectives and a brute-force grid oracle for checking runs."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


def _check_unit_box(*coords):
    for c in coords:
        arr = np.asarray(c, dtype=float)
        if np.any(arr < 0.0) or np.any(arr > 1.0):
            raise ValueError("coordinates must lie in [0, 1]")


def multimodal(x, y):
    """Two-dimensional cosine field with a tilted plane, shifted positive.

    cos(4 pi x) + cos(4 pi y) + 5 (x + y) + 2 on the unit square.  Has four
    well-separated local minima; the global one sits near (0.217, 0.217)
    with value about 2.34.
    """
    _check_unit_box(x, y)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return np.cos(4 * np.pi * x) + np.cos(4 * np.pi * y) + 5 * (x + y) + 2


def valley(x, y):
    """Non-smooth diagonal trench: |x - y| + ((x + y - 1) / 3)^2.

    Zero exactly at (0.5, 0.5); the kink along x = y defeats methods that
    assume smoothness.
    """
    _check_unit_box(x, y)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return np.abs(x - y) + ((x + y - 1.0) / 3.0) ** 2


def sphere(x):
    """Sum of squared deviations from the cube center, any dimension."""
    x = np.asarray(x, dtype=float)
    return float(np.sum((x - 0.5) ** 2))


@dataclass(frozen=True)
class NamedObjective:
    """A benchmark bundled with its natural domain.

    evaluate takes one point as a 1-D array; evaluate_many, if provided,
    takes an (n, d) array and returns n values in one call.
    """

    name: str
    dim: int
    lower: np.ndarray
    upper: np.ndarray
    evaluate: Callable[[np.ndarray], float]
    evaluate_many: Callable[[np.ndarray], np.ndarray] | None = None


_PLANAR = {"multimodal": multimodal, "valley": valley}
BUILTIN_NAMES = (*_PLANAR, "sphere")


def builtin(name: str, dim: int = 2) -> NamedObjective:
    """Look up a benchmark by name.

    multimodal and valley are fixed to two dimensions on the unit square;
    sphere accepts any dimension.
    """
    if name in _PLANAR:
        function = _PLANAR[name]
        return NamedObjective(
            name=name,
            dim=2,
            lower=np.zeros(2),
            upper=np.ones(2),
            evaluate=lambda p: float(function(p[0], p[1])),
            evaluate_many=lambda pts: np.asarray(function(pts[:, 0], pts[:, 1]), dtype=float),
        )
    if name == "sphere":
        if dim < 1:
            raise ValueError(f"sphere needs dim >= 1, got {dim}")
        return NamedObjective(
            name="sphere",
            dim=dim,
            lower=np.zeros(dim),
            upper=np.ones(dim),
            evaluate=sphere,
            evaluate_many=lambda pts: np.sum((pts - 0.5) ** 2, axis=1),
        )
    raise KeyError(f"unknown benchmark {name!r}; choose {', '.join(BUILTIN_NAMES)}")


def grid_oracle(objective: NamedObjective, resolution: int = 1001):
    """Exhaustive minimum of a benchmark over a regular grid of its domain.

    Returns (point, value) for the smallest grid value; ties resolve to the
    lexicographically first grid point.  Intended for validating optimizer
    output, so it refuses dimensions where the grid would not fit in memory.
    """
    if resolution < 2:
        raise ValueError(f"resolution must be at least 2, got {resolution}")
    if objective.dim > 3:
        raise ValueError(
            f"grid oracle supports at most 3 dimensions, got {objective.dim}"
        )
    axes = [
        np.linspace(objective.lower[i], objective.upper[i], resolution)
        for i in range(objective.dim)
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=1)
    if objective.evaluate_many is not None:
        values = np.asarray(objective.evaluate_many(points), dtype=float)
    else:
        values = np.array([objective.evaluate(p) for p in points])
    best = int(np.argmin(values))
    return points[best].copy(), float(values[best])
