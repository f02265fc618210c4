"""Exclusion-radius schedule and constrained surrogate minimization.

Each subsequent iteration places a forbidden ball of radius r around every
point sampled so far and picks the point that minimizes the response surface
outside all the balls.  Instead of cycling r through a fixed list, the total
ball volume relative to the unit cube (the ball density) starts at a chosen
value and decays to zero over the iteration budget, moving the search from
global exploration to pure surrogate exploitation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .rbf import MIN_CENTER_SEPARATION, RbfModel

# Entries of the (centers, points) distance block that a nearest-center scan
# reduces at a time: 512 KB, which stays in a 2 MB L2 while it is reduced.
_SCAN_BLOCK = 65536


def check_settings(settings, *rules) -> None:
    """Raise ValueError for the first (field, holds, requirement) rule that
    does not hold.

    The message starts with the field name, so a caller that loaded the
    settings from a file can point at the offending key.
    """
    for name, holds, requirement in rules:
        if not holds:
            raise ValueError(f"{name} must be {requirement}, got {getattr(settings, name)}")


def unit_ball_volume(dim: int) -> float:
    """Volume of the unit-radius ball in `dim` dimensions."""
    if dim < 1:
        raise ValueError(f"dimension must be at least 1, got {dim}")
    return math.pi ** (dim / 2) / math.gamma(dim / 2 + 1)


def exclusion_radius(density: float, n_points: int, dim: int) -> float:
    """Ball radius at which n_points balls jointly reach the given density.

    Solves density = n_points * v1 * r^dim for r, with v1 the unit-ball
    volume.  Overlaps and volume outside the cube make the achieved density
    an upper bound, which is fine for a schedule.
    """
    if n_points < 1:
        raise ValueError(f"need at least one center, got {n_points}")
    return (density / (n_points * unit_ball_volume(dim))) ** (1.0 / dim)


@dataclass(frozen=True)
class RadiusSchedule:
    """Per-iteration ball density and the radius it implies.

    Density decays from initial_density at iteration 1 to exactly 0 at
    iteration total_iters, polynomially with exponent decay_exponent
    (1 = linear decay).  Callers pass the live center count to radius().
    """

    initial_density: float
    decay_exponent: float
    total_iters: int
    dim: int

    def __post_init__(self):
        check_settings(
            self,
            ("initial_density", 0.0 < self.initial_density <= 1.0, "in (0, 1]"),
            ("decay_exponent", self.decay_exponent > 0.0, "positive"),
            ("total_iters", self.total_iters >= 1, "at least 1"),
            ("dim", self.dim >= 1, "at least 1"),
        )

    def density(self, iteration: int) -> float:
        """Ball density at a 1-based iteration index; 0 at the last iteration."""
        if not 1 <= iteration <= self.total_iters:
            raise ValueError(
                f"iteration must be in [1, {self.total_iters}], got {iteration}"
            )
        if self.total_iters == 1:
            # A single subsequent iteration can only be pure exploitation.
            return 0.0
        frac = (self.total_iters - iteration) / (self.total_iters - 1)
        return self.initial_density * frac**self.decay_exponent

    def radius(self, iteration: int, n_points: int) -> float:
        """Exclusion radius at an iteration, given the current center count."""
        return exclusion_radius(self.density(iteration), n_points, self.dim)


@dataclass(frozen=True)
class ProposalSettings:
    """Knobs of the derivative-free constrained minimization of the surface.

    The search scatters uniform_per_dim * d uniform candidates plus
    local_candidates Gaussian perturbations around the incumbent, filters
    them by the exclusion constraint, and polishes the best survivor with a
    shrinking coordinate-wise pattern search.
    """

    uniform_per_dim: int = 2000
    local_candidates: int = 500
    pattern_steps: int = 50
    initial_step: float = 0.05
    min_step: float = 1e-4

    def __post_init__(self):
        check_settings(
            self,
            ("uniform_per_dim", self.uniform_per_dim >= 1, "at least 1"),
            ("local_candidates", self.local_candidates >= 0, "non-negative"),
            ("pattern_steps", self.pattern_steps >= 0, "non-negative"),
            ("initial_step", self.initial_step > 0.0, "positive"),
            ("min_step", 0.0 < self.min_step <= self.initial_step, "in (0, initial_step]"),
        )

    def _step_levels(self) -> list[float]:
        """The pattern search's step lengths: initial_step, halved while the
        half is at least min_step."""
        levels = [self.initial_step]
        while levels[-1] * 0.5 >= self.min_step:
            levels.append(levels[-1] * 0.5)
        return levels

    def kernel_rows(self, dim: int) -> int:
        """The most points one surface evaluation of a proposal scores in
        dimension dim: a draw's candidates, or the trials of one
        pattern-search poll, which are at most the rest of a sweep plus one
        sweep per step level."""
        poll = 2 * dim * (len(self._step_levels()) + 1)
        return max(self.uniform_per_dim * dim + self.local_candidates, poll)


@dataclass(frozen=True)
class Proposal:
    """A proposed sample: location, the radius it honored, and whether the
    exploration fallback (no feasible candidate) was taken."""

    x: np.ndarray
    radius: float
    fallback: bool
    surrogate_value: float


def _min_center_distance(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Each point's distance to its nearest center, inf with no centers.

    The scan reduces squared distances and takes one square root per point,
    which is bitwise the minimum of the distances: the square root is
    correctly rounded and monotone, and sqrt(inf) is inf.  cdist runs
    faster with the shorter array first, and the distances, hence their
    minima, are the same either way.  On a 2-vCPU Xeon, over the calls of
    three runs each: candidate scans (more points than centers, 8-4000
    against 1-255) took 0.13 ms p50 this way against 0.16 ms with the
    points first and 0.20 ms with a square root per pair on long-2d, 764
    against 1392 and 1197 ms in total; on tilt (16-8000 against 1-69) they
    took 201 against 351 and 232 ms in total.  Pattern-search polls with no
    more points than centers (up to 39 against up to 255) took 8.7 us
    against 15.0 us with the centers first and 10.2 us with a square root
    per pair on long-2d.  A scan of more points than centers is reduced a
    block of points at a time, so its temporary stays within _SCAN_BLOCK
    entries.
    """
    if len(points) <= len(centers):
        return np.sqrt(cdist(points, centers, "sqeuclidean").min(axis=1, initial=math.inf))
    nearest = np.empty(len(points))
    step = max(1, _SCAN_BLOCK // max(1, len(centers)))
    for start in range(0, len(points), step):
        block = slice(start, start + step)
        cdist(centers, points[block], "sqeuclidean").min(
            axis=0, initial=math.inf, out=nearest[block]
        )
    return np.sqrt(nearest, out=nearest)


def _feasible(distances, radius: float):
    """Exclusion constraint on nearest-center distances (array or scalar); the
    fit's separation floor holds even at radius 0, so no proposal repeats a center."""
    return distances >= max(radius, MIN_CENTER_SEPARATION)


@dataclass(frozen=True)
class CandidateDraw:
    """One proposal's random candidates, drawn before its model is fitted.

    uniform holds the uniform candidates, and nearest each one's distance
    to the nearest of centers.  offsets holds the settings.local_candidates
    Gaussian steps, with sigma = max(radius, 0.05), that propose_point adds
    to the incumbent.
    None of this depends on objective values, so the optimizer draws it
    while the batch before the fit is still being evaluated.
    """

    centers: np.ndarray
    radius: float
    settings: ProposalSettings
    uniform: np.ndarray
    offsets: np.ndarray
    nearest: np.ndarray


def draw_candidates(
    centers, radius: float, rng: np.random.Generator, settings: ProposalSettings
) -> CandidateDraw:
    """Draw one proposal's candidates, the uniform block and then the
    Gaussian block, and measure the uniform ones against the (n, d)
    centers."""
    if radius < 0.0:
        raise ValueError(f"radius must be non-negative, got {radius}")
    centers = np.asarray(centers, dtype=float)
    dim = centers.shape[1]
    uniform = rng.random((settings.uniform_per_dim * dim, dim))
    offsets = rng.normal(0.0, max(radius, 0.05), (settings.local_candidates, dim))
    nearest = _min_center_distance(uniform, centers)
    return CandidateDraw(centers, radius, settings, uniform, offsets, nearest)


def draw_batch(
    centers,
    schedule: RadiusSchedule,
    start_iter: int,
    batch: int,
    rng: np.random.Generator,
    settings: ProposalSettings,
) -> list[CandidateDraw]:
    """Draw the candidates of `batch` proposals that consume consecutive
    iteration indices of the schedule, starting at start_iter.

    Slot j's radius counts the j proposals before it in the batch as
    centers, so points within one batch keep their mutual distance even
    though none has been evaluated yet.  Every slot is drawn and measured
    against the same (n, d) centers; propose_batch measures the pending
    points of the batch as they come.
    """
    if batch < 1:
        raise ValueError(f"batch must be at least 1, got {batch}")
    if start_iter + batch - 1 > schedule.total_iters:
        raise ValueError(
            f"batch of {batch} starting at iteration {start_iter} exceeds "
            f"the schedule budget of {schedule.total_iters}"
        )
    centers = np.asarray(centers, dtype=float)
    return [
        draw_candidates(centers, schedule.radius(start_iter + j, len(centers) + j), rng, settings)
        for j in range(batch)
    ]


def _pattern_search(
    model: RbfModel,
    x: np.ndarray,
    fx: float,
    centers: np.ndarray,
    radius: float,
    settings: ProposalSettings,
    buf: np.ndarray | None = None,
) -> np.ndarray:
    """Coordinate-wise polish that only ever accepts strict improvements and
    never steps outside the cube or inside an exclusion ball.

    A sweep tries x[axis] + step, then x[axis] - step, axis by axis, and
    moves to each strict improvement at once.  A sweep without one halves
    the step; the search ends when the step falls below min_step or after
    pattern_steps sweeps.  Until a trial improves, no trial ahead depends
    on a value, so each poll measures and evaluates at once every trial
    the sweeps would reach if none did: the rest of the current sweep, the
    same step once more if that sweep improved, then one sweep per smaller
    step level.  The first improving trial in sweep order is accepted, and
    the next poll starts right after it.

    This moves as the one-trial-at-a-time loop does unless a trial's value
    is within rounding of the current one: a batched evaluation can differ
    from a one-row evaluation in the last bits.  The tests check the match
    against that loop on random models, and it held in every one of 930
    pattern searches replayed from long-2d and tilt runs.  Each poll's
    kernel is built in buf when that is given.
    """
    width = 2 * x.size
    levels = settings._step_levels()
    # Row level * width + position holds the sweep's move at that position:
    # +step, then -step, along each axis in turn, and zeros elsewhere, which
    # leave the other coordinates of x exactly as they are.
    unit = np.repeat(np.eye(x.size), 2, axis=0) * np.tile([1.0, -1.0], x.size)[:, None]
    moves = (np.array(levels)[:, None, None] * unit).reshape(-1, x.size)
    level, sweeps, start, improved = 0, settings.pattern_steps, 0, False
    while sweeps > 0:
        following = level if improved else level + 1
        later = min(sweeps - 1, len(levels) - following)
        rest = moves[level * width + start : (level + 1) * width]
        ahead = moves[following * width : (following + later) * width]
        trials = x + np.concatenate((rest, ahead))
        keep = np.all((trials >= 0.0) & (trials <= 1.0), axis=1)
        keep &= _feasible(_min_center_distance(trials, centers), radius)
        kept = np.flatnonzero(keep)
        if not len(kept):
            break
        values = model.evaluate_many(trials[kept], buf=buf)
        better = np.flatnonzero(values < fx)
        if not len(better):
            break
        first = kept[better[0]]
        x, fx = trials[first], values[better[0]]
        if first < len(rest):
            start += first + 1
        else:
            sweep, position = divmod(first - len(rest), width)
            level, sweeps, start = following + sweep, sweeps - 1 - sweep, position + 1
        improved = True
    return x


def propose_point(
    model: RbfModel, draw: CandidateDraw, best_point, pending, buf: np.ndarray | None = None
) -> Proposal:
    """Pick the next sample: minimize the surface at least draw.radius away
    from every center.

    The centers are draw.centers followed by the (m, d) pending points, which
    the draw's uniform candidates have not yet been measured against.  The
    candidates are the draw's uniform points plus its Gaussian offsets
    around the incumbent best_point, clipped into the closed unit cube.
    Candidates violating the distance constraint are dropped; the best
    survivor is refined by pattern search.  If no candidate is feasible
    (radius too large for the remaining free space), the candidate farthest
    from the centers is returned instead and the fallback flag is set, which
    keeps the evaluation budget moving.  The kernels of the survivors and of
    the pattern-search polls are built in buf when that is given: a flat
    workspace from rbf.kernel_workspace with room for
    draw.settings.kernel_rows(d) rows against the model's centers.
    """
    radius = draw.radius
    pending = np.asarray(pending, dtype=float).reshape(-1, model.dim)
    centers = np.vstack([draw.centers, pending])

    cands, dmin = draw.uniform, draw.nearest
    if len(pending):
        dmin = np.minimum(dmin, _min_center_distance(cands, pending))
    local = np.clip(np.asarray(best_point, dtype=float) + draw.offsets, 0.0, 1.0)
    cands = np.vstack([cands, local])
    dmin = np.concatenate([dmin, _min_center_distance(local, centers)])
    feasible = _feasible(dmin, radius)

    if not feasible.any():
        farthest = int(np.argmax(dmin))
        x = cands[farthest]
        return Proposal(x=x, radius=radius, fallback=True, surrogate_value=model.evaluate(x))

    survivors = np.compress(feasible, cands, axis=0)
    values = model.evaluate_many(survivors, buf=buf)
    best = int(np.argmin(values))
    x = _pattern_search(
        model, survivors[best], float(values[best]), centers, radius, draw.settings, buf
    )
    return Proposal(x=x, radius=radius, fallback=False, surrogate_value=model.evaluate(x))


def propose_batch(
    model: RbfModel, draws: list[CandidateDraw], best_point, buf: np.ndarray | None = None
) -> list[Proposal]:
    """Propose one point per draw_batch draw from one fitted model around
    the incumbent best_point, each building its kernels in buf when that is
    given.

    Each proposal joins the pending points of the proposals after it, so
    they keep their distance from it as from an evaluated center.
    """
    proposals: list[Proposal] = []
    for draw in draws:
        pending = [p.x for p in proposals]
        proposals.append(propose_point(model, draw, best_point, pending, buf))
    return proposals
