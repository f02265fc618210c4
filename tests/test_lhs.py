"""Tests for the Latin-hypercube design and its swap improvement."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist

from rbfcors.lhs import _CHUNK, LatinHypercube, diagonal_lh, improve_lh, spread


def brute_force_spread(points: np.ndarray) -> float:
    total = 0.0
    n = points.shape[0]
    for i in range(n):
        for j in range(i + 1, n):
            dist = float(np.linalg.norm(points[i] - points[j]))
            if dist < 1e-12:
                return math.inf
            total += 1.0 / dist
    return total


def is_latin(lh: LatinHypercube) -> bool:
    n = lh.n_points
    return all(sorted(row) == list(range(n)) for row in lh.perms)


def _swap_terms(coords: np.ndarray, k1: int, k2: int, axis: int) -> tuple[float, float]:
    """Sums of 1/dist over the pairs a (k1, k2) swap on axis can change,
    before and after the swap, one exchange at a time."""
    mask = np.ones(coords.shape[0], dtype=bool)
    mask[[k1, k2]] = False
    touched = coords[[k1, k2, k1, k2]]
    touched[2:, axis] = touched[1::-1, axis]
    diff = coords[mask][None, :, :] - touched[:, None, :]
    inv = (1.0 / np.sqrt(np.einsum("kij,kij->ki", diff, diff))).sum(axis=1)
    return float(inv[0]) + float(inv[1]), float(inv[2]) + float(inv[3])


def reference_improve_lh(lh: LatinHypercube, attempts: int, rng: np.random.Generator) -> LatinHypercube:
    """The exchange loop drawing and scoring one attempt at a time: the
    blocked improve_lh must reproduce its designs and its random stream."""
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


def assert_matches_reference(base: LatinHypercube, attempts: int, seed: int) -> None:
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    improved = improve_lh(base, attempts, rng)
    expected = reference_improve_lh(base, attempts, oracle_rng)
    np.testing.assert_array_equal(improved.perms, expected.perms)
    assert rng.random() == oracle_rng.random()


@st.composite
def designs(draw):
    """A diagonal or shuffled n-point design in d dimensions."""
    n, d = draw(st.integers(2, 40)), draw(st.integers(1, 20))
    if draw(st.booleans()):
        return diagonal_lh(n, d)
    shuffle = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return LatinHypercube(np.array([shuffle.permutation(n) for _ in range(d)]))


# Attempt counts at and around the chunk boundaries, or anywhere up to 3000.
ATTEMPTS = st.one_of(
    st.sampled_from([0, 1, 2, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK, 2 * _CHUNK + 1]),
    st.integers(0, 3000),
)


class TestDiagonal:
    def test_points_on_diagonal(self):
        lh = diagonal_lh(5, 3)
        points = lh.unit_points()
        for row in points:
            assert np.all(row == row[0])
        np.testing.assert_allclose(points[:, 0], [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_two_point_one_dim(self):
        points = diagonal_lh(2, 1).unit_points()
        np.testing.assert_array_equal(points.ravel(), [0.0, 1.0])

    def test_rejects_tiny_designs(self):
        with pytest.raises(ValueError):
            diagonal_lh(1, 2)
        with pytest.raises(ValueError):
            diagonal_lh(4, 0)


class TestSpread:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(4)
        points = rng.random((12, 3))
        assert spread(points) == pytest.approx(brute_force_spread(points), rel=1e-12)

    def test_coincident_points_give_infinity(self):
        points = np.array([[0.2, 0.2], [0.2, 0.2], [0.8, 0.1]])
        assert spread(points) == math.inf

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            spread(np.array([[0.1, 0.2]]))

    def test_diagonal_value_closed_form(self):
        # Diagonal design distances are |i-j| * sqrt(2) / (n-1).
        n = 20
        expected = (n - 1) / math.sqrt(2) * sum(
            (n - k) / k for k in range(1, n)
        )
        assert spread(diagonal_lh(n, 2).unit_points()) == pytest.approx(expected)


class TestImprove:
    def test_preserves_latin_property(self):
        rng = np.random.default_rng(0)
        improved = improve_lh(diagonal_lh(20, 2), 1000, rng)
        assert is_latin(improved)

    def test_never_increases_spread(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            base = diagonal_lh(15, 3)
            improved = improve_lh(base, 500, rng)
            assert spread(improved.unit_points()) <= spread(base.unit_points())

    def test_strictly_improves_twenty_points(self):
        rng = np.random.default_rng(7)
        base = diagonal_lh(20, 2)
        improved = improve_lh(base, 1000, rng)
        assert spread(improved.unit_points()) < spread(base.unit_points())

    def test_zero_attempts_returns_same_design(self):
        base = diagonal_lh(8, 2)
        improved = improve_lh(base, 0, np.random.default_rng(1))
        np.testing.assert_array_equal(improved.perms, base.perms)

    def test_rejects_negative_attempts(self):
        with pytest.raises(ValueError):
            improve_lh(diagonal_lh(5, 2), -1, np.random.default_rng(0))

    def test_single_attempt_matches_full_recomputation(self):
        """The incremental spread update must make the same accept/reject
        decision as recomputing the full pairwise sum from scratch."""
        for seed in range(40):
            rng = np.random.default_rng(seed)
            base = diagonal_lh(9, 3)
            improved = improve_lh(base, 1, rng)

            oracle_rng = np.random.default_rng(seed)
            axis = int(oracle_rng.integers(3))
            k1, k2 = (int(i) for i in oracle_rng.choice(9, size=2, replace=False))
            swapped = base.perms.copy()
            swapped[axis, k1], swapped[axis, k2] = swapped[axis, k2], swapped[axis, k1]
            candidate = LatinHypercube(swapped)
            before = brute_force_spread(base.unit_points())
            after = brute_force_spread(candidate.unit_points())
            expected = candidate if after < before else base
            np.testing.assert_array_equal(improved.perms, expected.perms)

    def test_segmented_attempts_match_single_call(self):
        rng_a = np.random.default_rng(11)
        whole = improve_lh(diagonal_lh(12, 2), 200, rng_a)

        rng_b = np.random.default_rng(11)
        stepped = diagonal_lh(12, 2)
        for _ in range(200):
            stepped = improve_lh(stepped, 1, rng_b)
        np.testing.assert_array_equal(whole.perms, stepped.perms)

    def test_input_design_is_not_mutated(self):
        base = diagonal_lh(10, 2)
        snapshot = base.perms.copy()
        improve_lh(base, 300, np.random.default_rng(2))
        np.testing.assert_array_equal(base.perms, snapshot)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(designs(), ATTEMPTS, st.integers(0, 2**32 - 1))
    def test_matches_one_exchange_at_a_time(self, base, attempts, seed):
        assert_matches_reference(base, attempts, seed)

    @pytest.mark.parametrize("n, d", [(6, 2), (10, 4)])
    def test_matches_one_exchange_at_a_time_on_benchmark_designs(self, n, d):
        for seed in range(3):
            assert_matches_reference(diagonal_lh(n, d), 1000, seed)

    def test_memory_does_not_grow_with_attempts(self):
        # An (attempts, 3) table of draws would take 480 KB here.
        base, rng = diagonal_lh(4, 1), np.random.default_rng(0)
        tracemalloc.start()
        try:
            improve_lh(base, 20_000, rng)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024

    def test_distinct_rows_after_improvement(self):
        rng = np.random.default_rng(5)
        improved = improve_lh(diagonal_lh(20, 2), 1000, rng)
        assert pdist(improved.unit_points()).min() > 0.0


class TestLatinHypercube:
    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            LatinHypercube(np.array([[0, 1, 1]]))

    def test_unit_points_cover_closed_interval(self):
        lh = diagonal_lh(6, 2)
        points = lh.unit_points()
        assert points.min() == 0.0
        assert points.max() == 1.0
        # Every axis uses each mesh level exactly once.
        for axis in range(2):
            levels = sorted(points[:, axis])
            np.testing.assert_allclose(levels, np.linspace(0.0, 1.0, 6))
