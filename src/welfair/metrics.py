"""Distances, violations, group disutilities and summary reports."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .errors import ParamError
from .model import Instance, Params


def pairwise_pow(X: np.ndarray, C: np.ndarray, p: int) -> np.ndarray:
    """(len(X), len(C)) matrix of Euclidean d(x, c)^p, x and c rows of X and C."""
    X = np.asarray(X, dtype=np.float64)
    C = np.asarray(C, dtype=np.float64)
    if X.shape[1] != C.shape[1]:
        raise ParamError(f"dimension mismatch: {X.shape[1]} vs {C.shape[1]}")
    if p == 2:
        return cdist(X, C, "sqeuclidean")
    return cdist(X, C, "euclidean") ** p


def nearest(dist: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each column's first minimum index in a (k, n) distance matrix, and
    that minimum: argmin(axis=0) and min(axis=0), for a dist free of NaN
    (a NaN column minimum matches no entry, so its index would read k).
    Row i of the mask of column minima is weighted k - i, so a column's
    first minimum weighs most; one max over axis 0 reads the mask by rows,
    where argmin would copy the matrix to scan it by columns."""
    k = len(dist)
    dmin = dist.min(axis=0)
    rank = np.arange(k, 0, -1, dtype=np.min_scalar_type(k))[:, None]
    first = np.multiply(dist == dmin, rank).max(axis=0)
    return np.subtract(k, first, dtype=np.intp), dmin


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
    _, V, disu = disutilities(instance, params, mass, D)
    return GroupReport(
        color_names=list(instance.color_names),
        D=D,
        V=V,
        disu=disu,
        R=float(disu.max()),
        U=float(disu.sum()),
        cost=float(dsel.sum()),
    )


def additive_constants(instance: Instance, params: Params) -> tuple[float, float]:
    """(C_R, C_U) additive rounding terms for this instance and k."""
    r = instance.proportions
    H = instance.num_colors
    k = params.k
    n = instance.n
    c_r = ((H + 1) / float(r.min())) * (k / n)
    c_u = (2.0 * k / n) * float((1.0 / r).sum())
    return c_r, c_u
