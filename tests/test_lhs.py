"""Tests for the Latin-hypercube design and its swap improvement."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist

from rbfcors.lhs import _CHUNK, LatinHypercube, _draw_exchanges, diagonal_lh, improve_lh, spread

BIT_GENERATORS = [np.random.PCG64, np.random.MT19937, np.random.Philox, np.random.SFC64]


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


def assert_same_state(rng: np.random.Generator, oracle_rng: np.random.Generator) -> None:
    """The whole bit-generator state, including any buffered 32-bit half
    that a 64-bit draw would skip over, and array fields such as MT19937's key."""

    def equal(a, b) -> bool:
        if isinstance(a, dict):
            return a.keys() == b.keys() and all(equal(a[key], b[key]) for key in a)
        if isinstance(a, np.ndarray):
            return np.array_equal(a, b)
        return a == b

    assert equal(rng.bit_generator.state, oracle_rng.bit_generator.state)


def assert_matches_reference(
    base: LatinHypercube, attempts: int, seed: int, bit_generator=np.random.PCG64
) -> None:
    rng, oracle_rng = np.random.Generator(bit_generator(seed)), np.random.Generator(bit_generator(seed))
    improved = improve_lh(base, attempts, rng)
    expected = reference_improve_lh(base, attempts, oracle_rng)
    np.testing.assert_array_equal(improved.perms, expected.perms)
    assert_same_state(rng, oracle_rng)


def reference_draws(rng: np.random.Generator, n: int, d: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The exchanges of count attempts, drawn by the per-attempt calls."""
    axes, pairs = [], []
    for _ in range(count):
        axes.append(int(rng.integers(d)))
        pairs.append([int(i) for i in rng.choice(n, size=2, replace=False)])
    return np.array(axes), np.array(pairs)


class CountingGenerator:
    """A generator that records the name and size of each method call."""

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self.calls = []

    def __getattr__(self, name):
        attr = getattr(self._rng, name)
        if not callable(attr):
            return attr

        def counted(*args, **kwargs):
            self.calls.append((name, kwargs.get("size")))
            return attr(*args, **kwargs)

        return counted


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

    @pytest.mark.parametrize(
        "n, d, bit_generator",
        [
            pytest.param(n, d, gen, id=f"{n}-{d}" if gen is np.random.PCG64 else f"{n}-{d}-{gen.__name__}")
            for n, d in [(6, 2), (10, 4)]
            for gen in BIT_GENERATORS
        ],
    )
    def test_matches_one_exchange_at_a_time_on_benchmark_designs(self, n, d, bit_generator):
        for seed in range(3):
            assert_matches_reference(diagonal_lh(n, d), 1000, seed, bit_generator)

    def test_one_bulk_draw_per_chunk(self):
        # Per-attempt draws would make 1000 integers and 1000 choice calls.
        rng = CountingGenerator(np.random.default_rng(0))
        improve_lh(diagonal_lh(6, 2), 1000, rng)
        assert rng.calls == [("integers", (1000, 4))]

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


class TestDrawExchanges:
    """The bulk draw against the per-attempt calls, values and full state."""

    @staticmethod
    def compare(n, d, count, seed, bit_generator) -> None:
        rng, oracle_rng = np.random.Generator(bit_generator(seed)), np.random.Generator(bit_generator(seed))
        # An odd number of 32-bit words leaves half of a 64-bit output buffered.
        rng.integers(0, 2**32, size=seed % 2, dtype=np.uint32)
        oracle_rng.integers(0, 2**32, size=seed % 2, dtype=np.uint32)
        axes, pairs = _draw_exchanges(rng, n, d, count)
        expected_axes, expected_pairs = reference_draws(oracle_rng, n, d, count)
        np.testing.assert_array_equal(axes, expected_axes)
        np.testing.assert_array_equal(pairs, expected_pairs)
        assert_same_state(rng, oracle_rng)

    @pytest.mark.parametrize(
        "n, d",
        [
            pytest.param(2, 3, id="n2-first-index-takes-no-word"),
            pytest.param(7, 1, id="d1-axis-takes-no-word"),
            pytest.param(2, 1, id="n2-d1"),
        ],
    )
    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda gen: gen.__name__)
    def test_edge_sizes(self, n, d, bit_generator):
        for seed in range(4):
            self.compare(n, d, 300, seed, bit_generator)

    @pytest.mark.parametrize(
        "n, d",
        [
            pytest.param(2**31 + 1, 3, id="huge-n"),
            pytest.param(5, 2**31 + 1, id="huge-d"),
            pytest.param(2**33 + 1, 2**33 + 1, id="64-bit-ranges"),
        ],
    )
    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda gen: gen.__name__)
    def test_rejected_words_are_redrawn_exactly(self, n, d, bit_generator):
        # A range of 2**31 + 1 rejects about half of all 32-bit words, and a
        # range above 2**32 is drawn from 64-bit words.
        for seed in range(8):
            self.compare(n, d, 1 + seed % 2, seed, bit_generator)


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
