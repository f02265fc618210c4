"""Closed-form test objectives of the benchmark.

Goldstein-Price comes from the Dixon-Szego (1978) test set that CORS-RBF
(Regis & Shoemaker, J. Global Optim. 31, 2005) reports on.
The tilt is the objective of the external-command workload; its minimum
sits on a corner of the box, where the exclusion radius reaches zero in
the last iteration.

Every objective maps a point in original coordinates to a non-negative
float, as the engine requires.
"""

from __future__ import annotations

import math

GOLDSTEIN_PRICE_MIN = 3.0
GOLDSTEIN_PRICE_ARGMIN = (0.0, -1.0)

TILT_LOWER = (-1.0, -1.0, -1.0, -1.0)
TILT_UPPER = (1.0, 1.0, 1.0, 1.0)
TILT_MIN = 0.0
TILT_ARGMIN = TILT_LOWER
TILT_WEIGHTS = (1.0, 0.8, 0.6, 0.4)
TILT_RIPPLE = 0.05
TILT_FREQUENCY = 3.0


def goldstein_price(x) -> float:
    """Goldstein-Price on [-2, 2]^2; minimum 3 at (0, -1)."""
    x1, x2 = float(x[0]), float(x[1])
    first = 1.0 + (x1 + x2 + 1.0) ** 2 * (
        19.0 - 14.0 * x1 + 3.0 * x1**2 - 14.0 * x2 + 6.0 * x1 * x2 + 3.0 * x2**2
    )
    second = 30.0 + (2.0 * x1 - 3.0 * x2) ** 2 * (
        18.0 - 32.0 * x1 + 12.0 * x1**2 + 48.0 * x2 - 36.0 * x1 * x2 + 27.0 * x2**2
    )
    return first * second


def tilt(x) -> float:
    """Linear tilt with a mild cosine ripple on [-1, 1]^4; minimum 0 at the
    lower corner.

    Each coordinate is first mapped onto [0, 1].  The ripple adds shallow
    local minima along every axis without moving the global one.
    """
    total = 0.0
    for weight, xi, lo, hi in zip(TILT_WEIGHTS, x, TILT_LOWER, TILT_UPPER):
        u = (float(xi) - lo) / (hi - lo)
        total += weight * u + TILT_RIPPLE * (1.0 - math.cos(2.0 * math.pi * TILT_FREQUENCY * u))
    return total


def published_minima():
    """(name, value at the published minimiser, published minimum, tolerance)
    for each objective; the tolerance is the precision of the published
    figure."""
    return [
        ("goldstein_price", goldstein_price(GOLDSTEIN_PRICE_ARGMIN), GOLDSTEIN_PRICE_MIN, 0.0),
        ("tilt", tilt(TILT_ARGMIN), TILT_MIN, 0.0),
    ]
