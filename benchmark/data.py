"""Seeded input generator for the benchmark.

It follows the shape of the adult-like generator in the test suite, but is
kept here so that edits to the tests cannot move the benchmark's baseline.
"""

from __future__ import annotations

import csv

import numpy as np

ADULT_CENTERS = np.array(
    [
        [38.0, 10.0, 40.0, 0.3, 0.1],
        [45.0, 13.0, 45.0, 1.2, 0.2],
        [29.0, 9.0, 35.0, 0.1, 0.05],
        [52.0, 14.0, 50.0, 2.5, 0.4],
    ]
)
ADULT_SCALE = np.array([8.0, 2.0, 9.0, 0.8, 0.15])


def adult_shaped(n: int, rng: np.random.Generator):
    """Two groups at about 2:1, five numeric features with group shifts.

    Returns (features, colors, color_names).
    """
    colors = (rng.random(n) < 1.0 / 3.0).astype(np.int64)
    which = rng.integers(0, len(ADULT_CENTERS), size=n)
    X = ADULT_CENTERS[which] + rng.normal(size=(n, 5)) * ADULT_SCALE
    X[colors == 1, 0] -= 3.0
    X[colors == 1, 3] -= 0.4
    return X, colors, ["maj", "min"]


def write_csv(path: str, features, colors, color_names) -> list[str]:
    """Write a CSV that welfair's loader reads; returns the feature columns."""
    feats = [f"f{j}" for j in range(features.shape[1])]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(feats + ["group"])
        for row, c in zip(features, colors):
            w.writerow([f"{v:.17g}" for v in row] + [color_names[c]])
    return feats
