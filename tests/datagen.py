"""Deterministic synthetic instances used across the test suite.

Real survey datasets are not fetchable in the test environment, so the
desk-scale tests run on generators shaped like them: a two-group census
income table (roughly 2:1 group ratio, mixed-scale numeric columns) and a
multi-group population table. Set ADULT_CSV / CENSUS_CSV to point the
acceptance tests at the real files instead.
"""

from __future__ import annotations

import csv
import os

import numpy as np

from welfair.model import Instance, Params, Solution


def violation(
    instance: Instance, solution: Solution, params: Params, h: int, i: int
) -> float:
    """Proportion violation of color h in cluster i; 0 for an empty cluster.

    The per-definition fraction form, kept here as an independent reference
    for the library's one formula, `metrics.disutilities`."""
    in_i = solution.assignment == i
    size = int(np.count_nonzero(in_i))
    if size == 0:
        return 0.0
    size_h = int(np.count_nonzero(in_i & (instance.colors == h)))
    frac = size_h / size
    r = instance.proportions[h]
    over = frac - (r + params.alpha[h])
    under = (r - params.beta[h]) - frac
    return max(over, under, 0.0)


def random_instance(
    n: int,
    dim: int,
    num_colors: int,
    seed: int,
    clusters: int = 3,
    spread: float = 3.0,
) -> Instance:
    """Small blob mixture with every color present at least twice."""
    rng = np.random.default_rng(seed)
    means = rng.normal(scale=spread, size=(clusters, dim))
    which = rng.integers(0, clusters, size=n)
    X = means[which] + rng.normal(size=(n, dim))
    colors = np.concatenate(
        [np.arange(num_colors), np.arange(num_colors), rng.integers(0, num_colors, size=n - 2 * num_colors)]
    )
    rng.shuffle(colors)
    names = [f"g{h}" for h in range(num_colors)]
    return Instance(X.astype(np.float64), colors.astype(np.int64), names)


def separated_instance(n: int, theta: float, seed: int = 0) -> Instance:
    """Two unit-separated sites; a theta fraction of each color sits on the
    other color's site. Color groups are equal-sized."""
    if n % 2:
        raise ValueError("n must be even")
    rng = np.random.default_rng(seed)
    half = n // 2
    swap = int(round(theta * half))
    X = np.zeros((n, 1))
    colors = np.zeros(n, dtype=np.int64)
    colors[half:] = 1
    # color 0 mostly at 0.0, color 1 mostly at 1.0; swapped tails cross over
    X[:half, 0] = 0.0
    X[half:, 0] = 1.0
    X[:swap, 0] = 1.0
    X[half : half + swap, 0] = 0.0
    order = rng.permutation(n)
    return Instance(X[order], colors[order], ["a", "b"])


def adult_like(n: int = 2000, seed: int = 11) -> Instance:
    """Two demographic groups at roughly 2:1, five numeric features with
    group-dependent shifts, mild cluster structure."""
    rng = np.random.default_rng(seed)
    colors = (rng.random(n) < 1.0 / 3.0).astype(np.int64)
    centers = np.array(
        [
            [38.0, 10.0, 40.0, 0.3, 0.1],
            [45.0, 13.0, 45.0, 1.2, 0.2],
            [29.0, 9.0, 35.0, 0.1, 0.05],
            [52.0, 14.0, 50.0, 2.5, 0.4],
        ]
    )
    which = rng.integers(0, len(centers), size=n)
    X = centers[which] + rng.normal(size=(n, 5)) * np.array([8.0, 2.0, 9.0, 0.8, 0.15])
    X[colors == 1, 0] -= 3.0
    X[colors == 1, 3] -= 0.4
    return Instance(X, colors, ["maj", "min"])


def census_like(n: int = 2000, num_colors: int = 3, seed: int = 23) -> Instance:
    """Multi-group table: unequal group sizes, three numeric features."""
    rng = np.random.default_rng(seed)
    probs = np.array([0.55, 0.3, 0.15][:num_colors], dtype=float)
    probs /= probs.sum()
    colors = rng.choice(num_colors, size=n, p=probs).astype(np.int64)
    centers = rng.normal(scale=4.0, size=(5, 3))
    which = rng.integers(0, 5, size=n)
    X = centers[which] + rng.normal(size=(n, 3))
    X[:, 0] += 0.7 * colors
    names = [f"grp{h}" for h in range(num_colors)]
    return Instance(X, colors, names)


def write_csv(instance: Instance, path: str) -> list[str]:
    """Dump an instance as a CSV the loader can read; returns feature names."""
    feats = [f"f{j}" for j in range(instance.dim)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(feats + ["group"])
        for row, c in zip(instance.features, instance.colors):
            w.writerow([f"{v:.17g}" for v in row] + [instance.color_names[c]])
    return feats


def load_or_generate_adult(n: int = 2000) -> Instance:
    """ADULT_CSV env var points at a real table (numeric cols + 'sex'-style
    group column named by ADULT_GROUP, features by ADULT_FEATURES); otherwise
    the synthetic stand-in."""
    path = os.environ.get("ADULT_CSV")
    if path:
        from welfair.model import load_instance

        feats = os.environ.get("ADULT_FEATURES", "").split(",")
        group = os.environ.get("ADULT_GROUP", "sex")
        inst = load_instance(path, [f for f in feats if f], group)
        if inst.n > n:
            inst = inst.subsample(n, 0)
        return inst
    return adult_like(n)


def load_or_generate_census(n: int = 2000) -> Instance:
    path = os.environ.get("CENSUS_CSV")
    if path:
        from welfair.model import load_instance

        feats = os.environ.get("CENSUS_FEATURES", "").split(",")
        group = os.environ.get("CENSUS_GROUP", "group")
        inst = load_instance(path, [f for f in feats if f], group)
        if inst.n > n:
            inst = inst.subsample(n, 0)
        return inst
    return census_like(n)
