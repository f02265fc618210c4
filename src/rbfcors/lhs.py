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


# Exchanges are drawn up to _CHUNK at a time, fewer for large designs: a
# chunk's index arrays hold at most about _CHUNK_ELEMENTS entries, so no array
# grows with `attempts`.
_CHUNK = 1024
_CHUNK_ELEMENTS = 1 << 18
# At most _MAX_BLOCK exchanges are scored together, fewer for large designs:
# a block's differences hold at most about _BLOCK_ELEMENTS floats.
_MAX_BLOCK = 64
_BLOCK_ELEMENTS = 1 << 16


def _draw_exchanges(rng: np.random.Generator, n: int, d: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The axes and point pairs of the next count exchanges, equal to
    drawing each attempt as rng.integers(d), then
    rng.choice(n, 2, replace=False), and leaving the generator in the same
    state.

    One rng.integers call with the highs (d, n - 1, n, 2) per row draws
    every bound of the chunk in row order through numpy's own bounded
    draw, the one both per-attempt calls use: it takes no word for a range
    of one (d == 1, or n == 2 for the first index) and redraws a rejected
    word itself.  choice runs Floyd's sample, a first index below n - 1 and
    a second below n that becomes n - 1 if it equals the first, then
    shuffles the pair with one more bounded draw below 2, reversing it on
    0.  That choice works this way is numpy's implementation, not a
    documented contract, so tests pin the values and the full generator
    state against the per-attempt calls on the installed numpy.
    """
    axes, first, second, order = rng.integers(0, np.array([d, n - 1, n, 2]), size=(count, 4)).T
    second[second == first] = n - 1
    pairs = np.stack([first, second], axis=1)
    flip = order == 0
    pairs[flip] = pairs[flip, ::-1]
    return axes, pairs


def _exchange_indices(n: int, d: int, axes: np.ndarray, pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each exchange reads the design, as indices into coords.

    An exchange of points k1, k2 on an axis changes only the pairs containing
    exactly one of them; the k1-k2 distance itself is invariant under
    swapping one coordinate between them.  moved (count, 4, d) indexes the
    flattened coords for the rows (k1, k2, k1, k2), the last two with the
    axis coordinate swapped; others (count, n-2) lists the other points in
    ascending order.
    """
    count = len(axes)
    moved = pairs[:, [0, 1, 0, 1], None] * d + np.arange(d)
    rows = np.arange(count)
    moved[rows, 2, axes] = moved[rows, 1, axes]
    moved[rows, 3, axes] = moved[rows, 0, axes]
    keep = np.ones((count, n), dtype=bool)
    keep[rows[:, None], pairs] = False
    return moved, np.nonzero(keep)[1].reshape(count, n - 2)


def _first_improving(coords: np.ndarray, moved: np.ndarray, others: np.ndarray) -> int:
    """Index of the first exchange in the block that strictly lowers the
    spread of coords, or -1 if none does.

    Each exchange compares its pair terms before (moved rows 0 and 1) and
    after (rows 2 and 3).  Every exchange is scored from the same coords, so
    only the first improving one is valid.
    """
    block, n_others, d = len(moved), others.shape[1], coords.shape[1]
    diff = (coords[others][:, None] - coords.take(moved)[:, :, None]).reshape(4 * block, n_others, d)
    inv = (1.0 / np.sqrt(np.einsum("kij,kij->ki", diff, diff))).sum(axis=1).reshape(block, 4)
    improving = (inv[:, 2] + inv[:, 3] < inv[:, 0] + inv[:, 1]).tolist()
    return improving.index(True) if True in improving else -1


def improve_lh(lh: LatinHypercube, attempts: int, rng: np.random.Generator) -> LatinHypercube:
    """Refine a Latin hypercube by random plane exchanges.

    Each attempt picks a random axis and two random entries of that axis's
    permutation and swaps their mesh indices (equivalently, swaps the two
    axis-aligned planes through those points).  The swap is kept only when
    the spread strictly decreases, so the result never gets worse and stays
    a Latin hypercube.  Each swap is judged by the pair terms it touches.

    The exchanges are drawn first, a bounded chunk at a time, and then
    scored in blocks from the current design: the first improving exchange
    of a block is applied and scoring resumes after it.  The block grows
    while nothing improves and drops back to one exchange after a swap.
    Each chunk comes from one rng.integers call that draws the bounds of
    rng.integers(d) and rng.choice(n, 2, replace=False) for every exchange
    (see _draw_exchanges).  Draws, arithmetic and decisions are those of
    trying one exchange at a time with those two calls, so the design and
    the generator's state afterwards are too; tests pin both against the
    per-attempt calls on the installed numpy.
    """
    if attempts < 0:
        raise ValueError(f"attempts must be non-negative, got {attempts}")
    if attempts == 0:
        return lh

    perms = lh.perms.copy()
    n, d = lh.n_points, lh.dim
    coords = lh.unit_points().copy()
    chunk = max(1, min(_CHUNK, _CHUNK_ELEMENTS // (n + 4 * d)))
    max_block = max(1, min(_MAX_BLOCK, _BLOCK_ELEMENTS // (4 * n * d)))
    block = 1

    for start in range(0, attempts, chunk):
        axes, pairs = _draw_exchanges(rng, n, d, min(chunk, attempts - start))
        moved, others = _exchange_indices(n, d, axes, pairs)
        i = 0
        while i < len(axes):
            stop = min(i + block, len(axes))
            hit = _first_improving(coords, moved[i:stop], others[i:stop])
            if hit < 0:
                i, block = stop, min(2 * block, max_block)
            else:
                i += hit
                axis, pair = axes[i], pairs[i]
                perms[axis, pair] = perms[axis, pair[::-1]]
                coords[pair, axis] = coords[pair[::-1], axis]
                i, block = i + 1, 1

    return LatinHypercube(perms)
