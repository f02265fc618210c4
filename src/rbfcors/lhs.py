"""Latin hypercube construction by iterated plane exchanges.

An n-point Latin hypercube places points on an n-per-axis mesh with exactly
one point in every axis-aligned plane.  Starting from the diagonal design,
random pairs of planes are swapped and a swap is kept only when it strictly
lowers the inverse-distance spread, which drives the design toward a uniform
covering of the unit cube.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import pdist

_COINCIDENT_TOL = 1e-12


@dataclass(frozen=True)
class LatinHypercube:
    """n points on an n^d mesh, one per axis-aligned plane.

    perms has shape (d, n): point k sits at mesh index perms[axis, k] on each
    axis.  Every row must be a permutation of 0..n-1, which is exactly the
    Latin hypercube property.
    """

    perms: np.ndarray

    def __post_init__(self):
        perms = np.asarray(self.perms, dtype=int)
        object.__setattr__(self, "perms", perms)
        if perms.ndim != 2:
            raise ValueError("perms must be a (d, n) integer array")
        d, n = perms.shape
        if n < 2:
            raise ValueError(f"n must be at least 2 points, got {n}")
        if d < 1:
            raise ValueError(f"d must be at least 1 axis, got {d}")
        ref = np.arange(n)
        for axis in range(d):
            if not np.array_equal(np.sort(perms[axis]), ref):
                raise ValueError(f"axis {axis} indices are not a permutation of 0..{n - 1}")

    @property
    def n_points(self) -> int:
        return self.perms.shape[1]

    @property
    def dim(self) -> int:
        return self.perms.shape[0]

    def unit_points(self) -> np.ndarray:
        """Embed the mesh in the closed unit cube: index j maps to j/(n-1)."""
        return self.perms.T / (self.n_points - 1)


def spread(points) -> float:
    """Sum of inverse pairwise distances; lower means more uniform.

    Returns +inf when two points (nearly) coincide.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 2:
        raise ValueError("spread needs at least two points")
    dists = pdist(pts)
    if np.any(dists < _COINCIDENT_TOL):
        return math.inf
    return float(np.sum(1.0 / dists))


def diagonal_lh(n: int, d: int) -> LatinHypercube:
    """Initial design with every point on the main diagonal of the mesh."""
    # A negative d gives no axes, so LatinHypercube rejects it by name.
    return LatinHypercube(np.tile(np.arange(n), (max(d, 0), 1)))


def _swap_terms(coords: np.ndarray, k1: int, k2: int, axis: int) -> tuple[float, float]:
    """Sums of 1/dist over the pairs a (k1, k2) swap on axis can change,
    before and after the swap.

    Those are all pairs containing exactly one of k1, k2; the k1-k2 distance
    itself is invariant under swapping one coordinate between them.  The
    other points do not move, so they are taken once and the four touched
    rows (k1, k2 before, then after) are measured against them together.
    """
    mask = np.ones(coords.shape[0], dtype=bool)
    mask[[k1, k2]] = False
    touched = coords[[k1, k2, k1, k2]]
    touched[2:, axis] = touched[1::-1, axis]
    diff = coords[mask][None, :, :] - touched[:, None, :]
    inv = (1.0 / np.sqrt(np.einsum("kij,kij->ki", diff, diff))).sum(axis=1)
    return float(inv[0]) + float(inv[1]), float(inv[2]) + float(inv[3])


def improve_lh(lh: LatinHypercube, attempts: int = 1000, rng: np.random.Generator | None = None) -> LatinHypercube:
    """Refine a Latin hypercube by random plane exchanges.

    Each attempt picks a random axis and two random entries of that axis's
    permutation and swaps their mesh indices (equivalently, swaps the two
    axis-aligned planes through those points).  The swap is kept only when
    the spread strictly decreases, so the result never gets worse and stays
    a Latin hypercube.  The spread is updated incrementally from the pair
    terms touched by the swap.
    """
    if attempts < 0:
        raise ValueError(f"attempts must be non-negative, got {attempts}")
    if rng is None:
        rng = np.random.default_rng()
    if attempts == 0:
        return lh

    perms = lh.perms.copy()
    n, d = lh.n_points, lh.dim
    coords = lh.unit_points().copy()

    for _ in range(attempts):
        axis = int(rng.integers(d))
        k1, k2 = (int(i) for i in rng.choice(n, size=2, replace=False))
        before, after = _swap_terms(coords, k1, k2, axis)
        if after < before:
            perms[axis, k1], perms[axis, k2] = perms[axis, k2], perms[axis, k1]
            coords[k1, axis], coords[k2, axis] = coords[k2, axis], coords[k1, axis]

    return LatinHypercube(perms)
