"""Distances, violations, group disutilities and summary reports."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .errors import ParamError
from .model import Instance, Params, Solution


def distance_pow(a: np.ndarray, b: np.ndarray, p: int, metric: str = "euclidean") -> float:
    """d(a, b)^p for a single pair of vectors."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    if metric == "euclidean":
        d = float(np.sqrt(np.sum((a - b) ** 2)))
    elif metric == "hamming":
        d = float(np.sum(a != b))
    else:
        raise ValueError(f"unknown metric {metric!r}")
    return d ** p


def pairwise_pow(
    X: np.ndarray, C: np.ndarray, p: int, metric: str = "euclidean"
) -> np.ndarray:
    """(n, k) matrix of d(x_j, c_i)^p."""
    X = np.asarray(X, dtype=np.float64)
    C = np.asarray(C, dtype=np.float64)
    if X.shape[1] != C.shape[1]:
        raise ValueError(f"dimension mismatch: {X.shape[1]} vs {C.shape[1]}")
    if metric == "euclidean":
        if p == 2:
            d = cdist(X, C, "sqeuclidean")
        else:
            d = cdist(X, C, "euclidean") ** p
    elif metric == "hamming":
        # cdist hamming returns the fraction of differing coordinates
        d = np.rint(cdist(X, C, "hamming") * X.shape[1]) ** p
    else:
        raise ValueError(f"unknown metric {metric!r}")
    return np.ascontiguousarray(d)


def violation(
    instance: Instance, solution: Solution, params: Params, h: int, i: int
) -> float:
    """Proportion violation of color h in cluster i; 0 for an empty cluster."""
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


def color_masses(x: np.ndarray, instance: Instance) -> np.ndarray:
    """Per-color sums over the last axis of x, (..., n) -> (..., H): the
    (cluster, color) masses of a (k, n) assignment."""
    member = instance.colors[:, None] == np.arange(instance.num_colors)
    return x @ member.astype(np.float64)


def disutilities(
    instance: Instance, params: Params, mass: np.ndarray, D: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Violations t (..., k, H), V and disu (..., H) of the (cluster, color)
    masses (..., k, H) and per-color d^p sums D (..., H); leading axes
    broadcast. t_ih = max(mass_ih - (r_h + alpha_h) size_i,
    (r_h - beta_h) size_i - mass_ih, 0) is |C_i| * Delta(h, i), 0 for an empty
    cluster; V_h = sum_i t_ih and disu_h = (lam D_h + (1 - lam) V_h) / n_h.
    r_h size_i is formed as size_i n_h / n, so an exactly proportional
    integral cluster gives t = 0 at alpha = beta = 0 for any r_h."""
    size = mass.sum(axis=-1, keepdims=True)
    rs = size * instance.counts / instance.n
    over = mass - rs - params.alpha * size
    under = rs - params.beta * size - mass
    t = np.maximum(np.maximum(over, under), 0.0)
    V = t.sum(axis=-2)
    disu = (params.lam * D + (1.0 - params.lam) * V) / instance.counts
    return t, V, disu


@dataclass
class GroupReport:
    """Per-color cost decomposition of one solution."""

    color_names: list[str]
    D: np.ndarray           # per-color sum of d^p to the assigned center
    V: np.ndarray           # per-color sum over clusters of |C_i| * Delta(h, i)
    disu: np.ndarray        # (lam * D_h + (1 - lam) * V_h) / n_h
    R: float                # max_h disu_h
    U: float                # sum_h disu_h
    delta: np.ndarray       # (k, H) violation matrix
    cost: float             # plain clustering cost, sum of d^p over all points


def report_from_distances(
    instance: Instance,
    params: Params,
    dist_pow: np.ndarray,
    assignment: np.ndarray,
) -> GroupReport:
    """GroupReport from a precomputed (n, k) d^p matrix and an assignment."""
    k, H, colors = dist_pow.shape[1], instance.num_colors, instance.colors
    dsel = dist_pow[np.arange(instance.n), assignment]
    D = np.bincount(colors, weights=dsel, minlength=H)
    mass = np.bincount(assignment * H + colors, minlength=k * H).reshape(k, H)
    t, V, disu = disutilities(instance, params, mass, D)
    sizes = mass.sum(axis=1, keepdims=True)
    delta = np.divide(t, sizes, out=np.zeros_like(t), where=sizes > 0)
    return GroupReport(
        color_names=list(instance.color_names),
        D=D,
        V=V,
        disu=disu,
        R=float(disu.max()),
        U=float(disu.sum()),
        delta=delta,
        cost=float(dsel.sum()),
    )


def group_costs(
    instance: Instance,
    solution: Solution,
    params: Params,
    metric: str = "euclidean",
) -> GroupReport:
    """Evaluate distance and violation welfare of an integral solution."""
    dist = pairwise_pow(instance.features, solution.centers, params.p, metric)
    return report_from_distances(instance, params, dist, solution.assignment)


def socially_fair_cost(
    instance: Instance, solution: Solution, p: int = 2, metric: str = "euclidean"
) -> float:
    """max over colors of the per-color average clustering cost."""
    dist = pairwise_pow(instance.features, solution.centers, p, metric)
    dsel = dist[np.arange(instance.n), solution.assignment]
    counts = instance.counts
    return float(
        max(
            dsel[instance.colors == h].sum() / counts[h]
            for h in range(instance.num_colors)
        )
    )


def weighted_cost(
    instance: Instance,
    solution: Solution,
    p: int = 2,
    weights: np.ndarray | None = None,
    metric: str = "euclidean",
) -> float:
    """Sum of w_j * d(x_j, center)^p; uniform weights when none given."""
    dist = pairwise_pow(instance.features, solution.centers, p, metric)
    dsel = dist[np.arange(instance.n), solution.assignment]
    if weights is None:
        return float(dsel.sum())
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (instance.n,):
        raise ValueError("weights must have one entry per point")
    return float((weights * dsel).sum())


def approx_constants(p: int) -> tuple[float, float]:
    """(gamma_p, gamma'_p) multiplicative factors for p in {1, 2}."""
    table = {1: (2.0, 1.0), 2: (6.0, 4.0)}
    if p not in table:
        raise ParamError(f"approximation constants defined for p in {{1, 2}}, got {p}")
    return table[p]


def additive_constants(instance: Instance, params: Params) -> tuple[float, float]:
    """(C_R, C_U) additive rounding terms for this instance and k."""
    r = instance.proportions
    H = instance.num_colors
    k = params.k
    n = instance.n
    c_r = ((H + 1) / float(r.min())) * (k / n)
    c_u = (2.0 * k / n) * float((1.0 / r).sum())
    return c_r, c_u
