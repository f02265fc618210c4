"""Cubic radial basis function response surface with an optional space rescaling.

The surface through n samples is

    s(x) = sum_i  w_i * ||T (x - x_i)||^3  +  b . x  +  a

with a linear tail in the raw (unscaled) coordinates.  The coefficients come
from the square augmented system that pairs the interpolation conditions with
the unisolvency side conditions sum(w) = 0 and sum(w_i x_i) = 0, the standard
construction for a conditionally positive definite kernel of order 2.

The scaling matrix T reshapes kernel distances to follow the geometry of the
low-value region: a large cloud of uniform points is ranked by the plain
surface, the best fraction approximates the valley, and T is assembled from
the eigensystem of that cloud's covariance with rows eigvec_i / sqrt(eigval_i).
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import logging
import math
import mmap
import os
import threading
from dataclasses import dataclass, field

import numpy as np
import scipy
from scipy.linalg import lu_solve
from scipy.linalg.lapack import dgecon, dgetrf
from scipy.spatial.distance import cdist, pdist

log = logging.getLogger(__name__)

MIN_CENTER_SEPARATION = 1e-10
# Applied to LAPACK's 1-norm condition estimate.  On the optimizer's systems
# that estimate runs 1-16x above the 2-norm condition number and stays below
# about 6e10, so the limit still only catches near-singular systems.
_CONDITION_LIMIT = 1e12
_DIAGONAL_NUDGE = 1e-10
_EIGENVALUE_FLOOR_RATIO = 1e-8
# Rows of the distance matrix that cubic_kernel fills and cubes at a time:
# at 300 centers a block and its one temporary take 1.2 MB, within a 2 MB L2.
_ROW_BLOCK = 256
# Rows of its kernel that fit builds at a time: at 256 centers a block and
# its temporary take 0.26 MB, half the system's size.
_FIT_ROW_BLOCK = 64
# OpenBLAS's C thread-count calls, int get(void) and void set(int), under the
# names each build exports: numpy's wheel bundles an OpenBLAS with the 64_
# suffix, scipy's one without, and distro builds keep the plain names.
_OPENBLAS_CONTROL_NAMES = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)
_DISTRO_BLAS_NAMES = ("libopenblas.so.0", "libopenblasp.so.0", "libopenblaso.so.0", "libblas.so.3")


class SingularFitError(RuntimeError):
    """The interpolation system is singular or hopelessly ill-conditioned, usually
    from duplicate centers or degenerate geometry, or its solution is not finite."""


@dataclass(frozen=True)
class RbfModel:
    """Fitted cubic RBF interpolant.

    centers: (n, d) sample locations in the unit cube
    weights: (n,) kernel coefficients
    tail_linear / tail_const: the linear tail b . x + a (raw coordinates)
    scaling: (d, d) distance-scaling matrix T, identity when unscaled

    The scaled centers (centers @ T.T) are computed once on construction,
    which is why the model is frozen.
    """

    centers: np.ndarray
    weights: np.ndarray
    tail_linear: np.ndarray
    tail_const: float
    scaling: np.ndarray
    _scaled_centers: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_scaled_centers", self.centers @ self.scaling.T)

    @property
    def dim(self) -> int:
        return self.centers.shape[1]

    def evaluate_many(
        self, points, kernel: np.ndarray | None = None, buf: np.ndarray | None = None
    ) -> np.ndarray:
        """Evaluate the surface at each row of an (m, d) array.

        The (m, n) kernel matrix comes from cubic_kernel, built in buf when
        that is given, unless the caller passes it as kernel, built
        beforehand for these points in this model's metric, as a
        scaling_cloud's kernel is for the plain fit.  One matrix-vector
        product over the whole matrix then reduces it, which leaves that
        product to threaded BLAS.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.dim:
            raise ValueError(f"expected points of dimension {self.dim}, got {pts.shape[1]}")
        if kernel is None:
            kernel = cubic_kernel(pts @ self.scaling.T, self._scaled_centers, buf)
        return kernel @ self.weights + pts @ self.tail_linear + self.tail_const

    def evaluate(self, x) -> float:
        """Evaluate the surface at a single point."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"expected a vector of length {self.dim}, got shape {x.shape}")
        return float(self.evaluate_many(x[None, :])[0])


@dataclass
class ScalingCloud:
    """The uniform cloud that scaling_cloud draws and compute_space_scaling
    ranks, with its cubic kernel matrix against the centers in plain
    distances, the metric of the unscaled fit that ranks it.

    Neither depends on objective values, so the optimizer draws the cloud
    while the batch before the fit is still being evaluated.  Ranking the
    cloud sets kernel to None.  In a run the kernel is a view of the run's
    workspace, which the candidate kernels reuse once the cloud is ranked.
    """

    points: np.ndarray
    centers: np.ndarray
    kernel: np.ndarray | None


def scaling_cloud(
    centers, rng: np.random.Generator, size: int, buf: np.ndarray | None = None
) -> ScalingCloud:
    """Draw the cloud as rng.random((size, d)) and build its kernel matrix
    against the (n, d) centers, in plain distances; the matrix is built in
    buf when that is given.  The draw is the only use of rng."""
    centers = np.asarray(centers, dtype=float)
    points = rng.random((size, centers.shape[1]))
    return ScalingCloud(points=points, centers=centers, kernel=cubic_kernel(points, centers, buf))


def kernel_workspace(rows: int, centers: int) -> np.ndarray:
    """A flat float64 buffer in which cubic_kernel can build any (m, n)
    kernel with m <= rows and n <= centers, its block temporary included.

    The buffer is an anonymous memory map of its own, outside malloc's
    heap: its pages are faulted in once, as kernels first reach them, and
    go back to the system when the buffer is dropped.  A heap buffer left a
    hole when it was freed, which later small allocations split, so the
    next buffer went past it: over the 49 runs of one long-2d benchmark
    pass (glibc 2.36, 2 vCPU), peak RSS reached 113 MB that way against
    96 MB with the map.  A map the system refuses raises MemoryError naming
    the rows, the centers and the bytes.
    """
    size = _kernel_entries(rows, centers)
    length = max(size, 1) * 8
    try:
        region = mmap.mmap(-1, length)
    except OSError as err:
        raise MemoryError(
            f"cannot map a kernel workspace of {rows} rows by {centers} centers "
            f"({length} bytes): {err.strerror}"
        ) from err
    return np.frombuffer(region, dtype=np.float64)[:size]


def _kernel_entries(m: int, n: int) -> int:
    """Entries of cubic_kernel's buffer for an (m, n) kernel and its block temporary."""
    return (m + min(m, _ROW_BLOCK)) * n


def cubic_kernel(
    points: np.ndarray, centers: np.ndarray, buf: np.ndarray | None = None
) -> np.ndarray:
    """The (m, n) matrix of cubed distances between the rows of two arrays,
    for fit and evaluation alike: the only builder of a cubic kernel.

    The matrix is filled _ROW_BLOCK rows at a time: each block of distances
    r is cubed in place as r * (r * r) while it is still in cache, with one
    block-sized temporary for the squares.  That differs from r ** 3 (libm
    pow) in the last bit for about a quarter of the terms and costs a
    fraction of it.  The matrix is the view buf[:m * n].reshape(m, n) of a
    flat float64 array of _kernel_entries(m, n) or more entries, and the
    temporary follows it.  Given buf, the caller must be done with any
    kernel an earlier call built there; without it, a new one is allocated.
    """
    m, n = points.shape[0], centers.shape[0]
    size, needed = m * n, _kernel_entries(m, n)
    if buf is None:
        buf = np.empty(needed)
    elif buf.size < needed:
        raise ValueError(f"workspace of {buf.size} entries cannot hold a {m}x{n} kernel")
    kernel, squares = buf[:size].reshape(m, n), buf[size:needed]
    for start in range(0, m, _ROW_BLOCK):
        rows = slice(start, start + _ROW_BLOCK)
        dists = cdist(points[rows], centers, out=kernel[rows])
        dists *= np.multiply(dists, dists, out=squares[: dists.size].reshape(dists.shape))
    return kernel


def fit(points, values, scaling: np.ndarray | None = None) -> RbfModel:
    """Interpolate (points, values) with a cubic RBF plus linear tail.

    Needs n >= d + 2 pairwise-distinct points so the augmented system is
    square and generically nonsingular; points, values and scaling must be
    finite.  The system is LU-factored once, and LAPACK's estimate of its
    1-norm condition number comes from those factors.
    If the estimate exceeds 1e12, or the solve stops being finite, a tiny
    diagonal perturbation is added to the kernel block and the solve retried
    once; near-duplicate centers naturally appear late in an optimization
    run, when the exclusion radius approaches zero.

    At most two arrays the size of the (n + d + 1)-square system are alive
    at once, the retry included: the system, which the retry nudges in
    place, and one array of LU factors; neither outlives the call.

    The factorization, solve and refinement run with OpenBLAS held at one
    thread (numpy's and scipy's copies alike), and the previous thread counts
    are restored when the solve returns or raises.  Systems of a few hundred
    unknowns are too small for BLAS threads to pay, and the threads compete
    with the optimizer's own for the cores: in a 250-iteration
    Goldstein-Price run on 2 cores, dgetrf took 1.51 s in total (p90 62 ms)
    at the default thread count and 0.09 s on one thread.  The count is
    process-wide, so BLAS calls that other threads make while a fit solves
    also run on one thread.  Builds without OpenBLAS (MKL, Accelerate) are
    left as they are.
    """
    pts = np.asarray(points, dtype=float)
    vals = np.asarray(values, dtype=float)
    if pts.ndim != 2:
        raise ValueError("points must be an (n, d) array")
    n, d = pts.shape
    if vals.shape != (n,):
        raise ValueError(f"expected {n} values, got shape {vals.shape}")
    if n < d + 2:
        raise ValueError(f"need at least d + 2 = {d + 2} points to fit in dimension {d}, got {n}")
    if math.sqrt(pdist(pts, "sqeuclidean").min()) < MIN_CENTER_SEPARATION:
        raise SingularFitError(
            f"duplicate centers: minimum pairwise distance below {MIN_CENTER_SEPARATION:g}"
        )

    T = np.eye(d) if scaling is None else np.asarray(scaling, dtype=float)
    if T.shape != (d, d):
        raise ValueError(f"scaling matrix must be {d}x{d}, got {T.shape}")
    for name, array in (("points", pts), ("values", vals), ("scaling", T)):
        if not np.all(np.isfinite(array)):
            raise ValueError(f"{name} must be finite, got NaN or infinity")

    system = _augmented_system(pts, pts @ T.T)
    rhs = np.concatenate([vals, np.zeros(d + 1)])
    with _one_blas_thread.held():
        solution = _solve_augmented(system, rhs, n)
    return RbfModel(
        centers=pts.copy(),
        weights=solution[:n],
        tail_linear=solution[n : n + d],
        tail_const=float(solution[n + d]),
        scaling=T.copy(),
    )


def _augmented_system(pts: np.ndarray, scaled: np.ndarray) -> np.ndarray:
    """The C-ordered system [[K, P], [P.T, 0]] of fit, with K the cubic
    kernel of the scaled points and P = [pts, 1].

    K goes in _FIT_ROW_BLOCK rows at a time, each slice built by cubic_kernel
    in one scratch array that is freed on return, before the system is
    factored.
    """
    n, d = pts.shape
    system = np.empty((n + d + 1, n + d + 1))
    scratch = np.empty(_kernel_entries(min(n, _FIT_ROW_BLOCK), n))
    for start in range(0, n, _FIT_ROW_BLOCK):
        rows = slice(start, min(start + _FIT_ROW_BLOCK, n))
        system[rows, :n] = cubic_kernel(scaled[rows], scaled, scratch)
    system[:n, n : n + d] = pts
    system[:n, n + d] = 1.0
    system[n:, :n] = system[:n, n:].T
    system[n:, n:] = 0.0
    return system


def _find_openblas_controls() -> list[tuple]:
    """(get, set) thread-count functions of every OpenBLAS already loaded.

    Candidates are the libraries bundled in numpy's and scipy's wheels and
    the usual distro names; each is bound only if the process has it loaded
    already, so no new BLAS is ever started.  A library reached under two
    names is listed once.
    """
    if not hasattr(os, "RTLD_NOLOAD"):
        return []
    candidates = []
    for package in (np, scipy):
        root = os.path.dirname(package.__file__)
        for libs in (root + ".libs", os.path.join(root, ".dylibs")):
            candidates.extend(sorted(glob.glob(os.path.join(libs, "*openblas*"))))
    controls, seen = [], set()
    for name in (*candidates, *_DISTRO_BLAS_NAMES):
        try:
            library = ctypes.CDLL(name, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_CONTROL_NAMES:
            getter = getattr(library, get_name, None)
            setter = getattr(library, set_name, None)
            if getter is None or setter is None:
                continue
            address = ctypes.cast(setter, ctypes.c_void_p).value
            if address not in seen:
                seen.add(address)
                getter.argtypes, getter.restype = [], ctypes.c_int
                setter.argtypes, setter.restype = [ctypes.c_int], None
                controls.append((getter, setter))
            break
    return controls


class _BlasThreadScope:
    """Holds every loaded OpenBLAS at one thread inside held().

    The thread count is process-wide, so a lock and a depth counter make
    concurrent or nested scopes save the counts once, on the first entry,
    and restore them once, on the last exit.  The controls are looked up on
    first use; when there are none the scope does nothing.
    """

    def __init__(self):
        self.controls: list[tuple] | None = None
        self._lock = threading.Lock()
        self._depth = 0
        self._saved: list[int] = []

    @contextlib.contextmanager
    def held(self):
        with self._lock:
            if self.controls is None:
                self.controls = _find_openblas_controls()
                if not self.controls:
                    log.debug("no OpenBLAS found; fits leave the BLAS thread count alone")
            if self._depth == 0:
                self._saved = [get_threads() for get_threads, _ in self.controls]
                for _, set_threads in self.controls:
                    set_threads(1)
            self._depth += 1
        try:
            yield
        finally:
            with self._lock:
                self._depth -= 1
                if self._depth == 0:
                    for (_, set_threads), count in zip(self.controls, self._saved):
                        set_threads(count)


_one_blas_thread = _BlasThreadScope()


def _factor(system: np.ndarray):
    """Pivoted LU factors of a square system, in lu_factor's layout, and the
    system's 1-norm condition number estimated from them by LAPACK gecon
    (Hager 1984, Higham 1988).

    One new array the size of the system holds, in turn, abs(system) in C
    order, whose column sums give the 1-norm in np.linalg.norm's summation
    order, and a Fortran-ordered copy of the system, which dgetrf factors in
    place; the factors are that array.  The system is left as it is.

    The estimate is inf, with no factors, when the system has non-finite
    entries or an exactly singular factor.
    """
    if not np.all(np.isfinite(system)):
        return None, math.inf
    scratch = np.empty(system.size)
    magnitudes = np.abs(system, out=scratch.reshape(system.shape))
    norm = np.add.reduce(magnitudes, axis=0).max(initial=0)
    lu = scratch.reshape(system.shape, order="F")
    lu[...] = system
    lu, piv, info = dgetrf(lu, overwrite_a=True)
    if info != 0:
        return None, math.inf
    rcond, _ = dgecon(lu, norm)
    return (lu, piv), (1.0 / rcond if rcond > 0.0 else math.inf)


def _refined_solve(system: np.ndarray, factors, rhs: np.ndarray) -> np.ndarray | None:
    """LU solve followed by iterative refinement on the same factors; None
    when there are no factors or the solution or a residual stops being
    finite, so lu_solve skips its own finiteness checks.

    The cubic kernel can push the condition number to 1e10 and beyond for
    tightly clustered centers, where a single LU pass leaves residuals far
    above interpolation accuracy; a few cheap refinement sweeps on the reused
    factorization recover it.
    """
    if factors is None:
        return None
    solution = lu_solve(factors, rhs, check_finite=False)
    # An overflow is caught by the finiteness checks below, so it need not warn.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(3):
            if not np.all(np.isfinite(solution)):
                return None
            residual = rhs - system @ solution
            if not np.all(np.isfinite(residual)):
                return None
            correction = lu_solve(factors, residual, check_finite=False)
            solution = solution + correction
            if np.abs(correction).max() <= 1e-14 * max(1.0, np.abs(solution).max()):
                break
    return solution if np.all(np.isfinite(solution)) else None


def _solve_augmented(system: np.ndarray, rhs: np.ndarray, n: int) -> np.ndarray:
    """Dense solve with a one-shot diagonal-nudge retry on bad conditioning.

    The system is factored once; those factors give the 1-norm condition
    estimate and serve the solve.  An estimate above _CONDITION_LIMIT, or a
    solve that gives None, adds _DIAGONAL_NUDGE to the kernel diagonal in
    place and factors the system again once the first factors are released;
    a second None raises SingularFitError.
    """
    factors, condition = _factor(system)
    solution = _refined_solve(system, factors, rhs) if condition <= _CONDITION_LIMIT else None
    log.debug(
        "rbf fit: system size %d, 1-norm condition estimate %.3e, nudge %s",
        system.shape[0],
        condition,
        "fired" if solution is None else "not fired",
    )
    if solution is not None:
        return solution

    factors = None  # freed before the nudged system is factored
    diagonal = np.arange(n)
    system[diagonal, diagonal] += _DIAGONAL_NUDGE
    solution = _refined_solve(system, _factor(system)[0], rhs)
    if solution is None:
        raise SingularFitError(
            f"interpolation system could not be solved "
            f"(1-norm condition estimate {condition:.3e})"
        )
    return solution


def compute_space_scaling(
    model: RbfModel, cloud: ScalingCloud, best_fraction: float
) -> np.ndarray:
    """The (d, d) scaling matrix T, from the low-value cloud of the plain fit.

    model must be the plain fit (its scaling the identity) and cloud an
    unranked scaling_cloud for its centers, or ValueError is raised.  Ranks
    the cloud's uniform points by their surface values, keeps the
    best_fraction with the lowest, and builds T from the eigensystem of the
    kept cloud's covariance (unbiased normalization): row i is the unit
    eigenvector over the square root of its eigenvalue.  Eigenvalues below
    1e-8 of the largest are raised to that floor, since a flat cloud
    direction would otherwise blow up the division; so row i's squared norm
    is one over its clamped eigenvalue.  best_fraction must keep at least 2 of the cloud's
    points, since one point has no covariance; 2 or more uniform draws
    always have some.  The cloud's kernel is released once the cloud is
    ranked, so a cloud serves one scaling.
    """
    if not 0.0 < best_fraction <= 0.5:
        raise ValueError(f"best_fraction must be in (0, 0.5], got {best_fraction}")
    if not (
        cloud.kernel is not None
        and np.array_equal(cloud.centers, model.centers)
        and np.array_equal(model.scaling, np.eye(model.dim))
    ):
        raise ValueError("cloud was not drawn for this model's centers, or the model is scaled")
    keep = math.ceil(len(cloud.points) * best_fraction)
    if keep < 2:
        raise ValueError(
            f"best_fraction must be large enough to keep 2 of the {len(cloud.points)} "
            f"cloud points, got {best_fraction}"
        )

    surface = model.evaluate_many(cloud.points, cloud.kernel)
    cloud.kernel = None
    kept = cloud.points[np.argpartition(surface, keep - 1)[:keep]]

    covariance = np.atleast_2d(np.cov(kept, rowvar=False))
    eigenvalues, eigenvectors = np.linalg.eigh(covariance)
    clamped = np.maximum(eigenvalues, _EIGENVALUE_FLOOR_RATIO * eigenvalues.max())
    return eigenvectors.T / np.sqrt(clamped)[:, None]


def refit_with_scaling(points, values, scaling: np.ndarray) -> RbfModel:
    """Fit with kernel distances measured through the scaling matrix T."""
    return fit(points, values, scaling=scaling)
