"""Mod-1 arithmetic on the circle R/Z.

Coordinates live in [0, 1); the project-wide circle metric is the
quotient metric d1(a, b) = min(|a-b|, 1-|a-b|).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "frac",
    "circle_dist",
    "circular_mean",
    "circular_spread",
    "METRIC_EUCLIDEAN",
    "METRIC_TORUS",
    "METRIC_CYLINDER",
    "dist",
]

METRIC_EUCLIDEAN = 0  # plain euclidean on R^d
METRIC_TORUS = 1      # max of d1 per coordinate
METRIC_CYLINDER = 2   # d1 on first coordinate, euclidean on the rest


def frac(x):
    """Fractional part mapped into [0, 1), correct for negative inputs."""
    return np.asarray(x) % 1.0 if isinstance(x, np.ndarray) else x % 1.0


def circle_dist(a, b):
    """Quotient metric on S^1 = R/Z."""
    d = abs((a - b) % 1.0)
    return d if d <= 0.5 else 1.0 - d


def dist(a, b, kind: int):
    """Distance between points a and b in the metric with the given code.

    Coordinates run along the last axis; leading axes broadcast, so an
    (n, d) array against a (d,) point gives n distances.
    """
    diff = np.atleast_1d(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))
    if kind == METRIC_EUCLIDEAN:
        return np.sqrt((diff ** 2).sum(axis=-1))
    if kind == METRIC_TORUS:
        d = diff % 1.0
        return np.minimum(d, 1.0 - d).max(axis=-1)
    if kind == METRIC_CYLINDER:
        d = diff[..., 0] % 1.0
        return np.maximum(np.minimum(d, 1.0 - d),
                          np.sqrt((diff[..., 1:] ** 2).sum(axis=-1)))
    raise ValueError(f"unknown metric code {kind}")


def circular_mean(values) -> float:
    """Mean of circle coordinates via the embedding into the unit circle."""
    values = np.asarray(values, dtype=float)
    z = np.exp(2j * np.pi * values).mean()
    if z == 0:
        return 0.0
    return float(np.angle(z) / (2 * np.pi) % 1.0)


def circular_spread(values) -> float:
    """Max pairwise circle distance of a set of circle coordinates.

    Computed as 1 minus the largest gap in the sorted circular order, which
    equals the diameter whenever the points fit in a half circle (the only
    regime where the diameter is small enough to matter).
    """
    values = np.sort(np.asarray(values, dtype=float) % 1.0)
    if values.size < 2:
        return 0.0
    gaps = np.diff(values, append=values[0] + 1.0)
    return float(1.0 - gaps.max())
