"""Test objectives, each one formula over an (n, d) array, and a grid oracle."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .scaling import BoundedDomain


def _unit_box_points(points) -> np.ndarray:
    """points as a float (n, d) array, checked to lie in the unit box."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError(f"points must be an (n, d) array, got shape {pts.shape}")
    if np.any(pts < 0.0) or np.any(pts > 1.0):
        raise ValueError("coordinates must lie in [0, 1]")
    return pts


def multimodal(points) -> np.ndarray:
    """Two-dimensional cosine field with a tilted plane, shifted positive.

    cos(4 pi x) + cos(4 pi y) + 5 (x + y) + 2 at each row (x, y) of an
    (n, 2) array.  Has four well-separated local minima; the global one sits
    near (0.217, 0.217) with value about 2.34.
    """
    x, y = _unit_box_points(points).T
    return np.cos(4 * np.pi * x) + np.cos(4 * np.pi * y) + 5 * (x + y) + 2


def valley(points) -> np.ndarray:
    """Non-smooth diagonal trench: |x - y| + ((x + y - 1) / 3)^2 at each row
    (x, y) of an (n, 2) array.

    Zero exactly at (0.5, 0.5); the kink along x = y defeats methods that
    assume smoothness.
    """
    x, y = _unit_box_points(points).T
    return np.abs(x - y) + ((x + y - 1.0) / 3.0) ** 2


def sphere(points) -> np.ndarray:
    """Sum of squared deviations from the cube center at each row of an
    (n, d) array, any dimension."""
    return np.sum((_unit_box_points(points) - 0.5) ** 2, axis=1)


@dataclass(frozen=True)
class NamedObjective:
    """A benchmark bundled with its natural domain, which fixes its dimension.

    evaluate_many takes an (n, d) array and returns n values in one call;
    evaluate is that formula at one point, given as a 1-D array.
    """

    name: str
    domain: BoundedDomain
    evaluate_many: Callable[[np.ndarray], np.ndarray]

    def evaluate(self, x) -> float:
        return float(self.evaluate_many(np.asarray(x, dtype=float)[None, :])[0])


# Each built-in's formula and its fixed dimension; None admits any dimension.
_BUILTINS = {"multimodal": (multimodal, 2), "valley": (valley, 2), "sphere": (sphere, None)}
BUILTIN_NAMES = tuple(_BUILTINS)


def builtin(name: str, dim: int = 2) -> NamedObjective:
    """Look up a benchmark by name, on the unit box of dimension dim.

    multimodal and valley are fixed to two dimensions, and any other dim
    raises ValueError; sphere accepts any dim >= 1.
    """
    if name not in _BUILTINS:
        raise KeyError(f"unknown benchmark {name!r}; choose {', '.join(BUILTIN_NAMES)}")
    function, fixed = _BUILTINS[name]
    if fixed is not None and dim != fixed:
        raise ValueError(f"objective {name!r} is {fixed}-dimensional, got dim={dim}")
    if dim < 1:
        raise ValueError(f"{name} needs dim >= 1, got {dim}")
    return NamedObjective(name, BoundedDomain(np.zeros(dim), np.ones(dim)), function)


def grid_oracle(objective: NamedObjective, resolution: int = 1001):
    """Exhaustive minimum of a benchmark over a regular grid of its domain.

    The whole grid goes to the objective's evaluate_many in one call.
    Returns (point, value) for the smallest grid value; ties resolve to the
    lexicographically first grid point.  Intended for validating optimizer
    output, so it refuses dimensions where the grid would not fit in memory.
    """
    if resolution < 2:
        raise ValueError(f"resolution must be at least 2, got {resolution}")
    domain = objective.domain
    if domain.dim > 3:
        raise ValueError(f"grid oracle supports at most 3 dimensions, got {domain.dim}")
    axes = [np.linspace(lo, hi, resolution) for lo, hi in zip(domain.lower, domain.upper)]
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=1)
    values = np.asarray(objective.evaluate_many(points), dtype=float)
    best = int(np.argmin(values))
    return points[best].copy(), float(values[best])
