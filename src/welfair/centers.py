"""Center selection: k-means++ seeding, weighted Lloyd, group-fair variants."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .errors import CenterError, ParamError
from .model import Instance


@dataclass
class CenterSet:
    """Centers with the score that chose them.

    restart_scores and restart_iterations hold each restart's score and its
    number of assignment passes; a single run is one restart.
    """

    centers: np.ndarray
    provenance: str
    score: float
    restart_scores: list[float] | None = None
    restart_iterations: list[int] | None = None


def _check_weights(w: np.ndarray, n: int) -> None:
    if w.shape != (n,):
        raise ParamError(f"weights have shape {w.shape}; need one per point, ({n},)")
    bad = np.flatnonzero(~(np.isfinite(w) & (w >= 0.0)))
    if len(bad):
        j = int(bad[0])
        raise ParamError(
            f"weight of point {j} is {float(w[j])!r}; weights must be finite "
            "and nonnegative"
        )
    with np.errstate(over="ignore"):
        total = float(w.sum())
    if not 0.0 < total < math.inf:
        raise ParamError(f"weights sum to {total!r}; need a positive finite total")


def kmeanspp_init(
    instance: Instance, k: int, weights: np.ndarray, seed: int
) -> np.ndarray:
    """D^2-weighted seeding scaled by point weights; returns (k, d) centers.

    Raises ParamError for weights that are not one finite, nonnegative value
    per point with a positive total, naming the first bad point.
    """
    X = instance.features
    n = instance.n
    w = np.asarray(weights, dtype=np.float64)
    _check_weights(w, n)
    if k > n:
        raise CenterError(f"k={k} exceeds n={n}")
    rng = np.random.default_rng(seed)
    chosen = np.empty(k, dtype=np.int64)
    chosen[0] = rng.choice(n, p=w / w.sum())
    d2 = cdist(X[chosen[:1]], X, "sqeuclidean")[0]
    for t in range(1, k):
        prob = w * d2
        total = prob.sum()
        if total <= 0.0:
            raise CenterError(
                f"k={k} exceeds the number of distinct candidate points"
            )
        chosen[t] = rng.choice(n, p=prob / total)
        d2 = np.minimum(d2, cdist(X[chosen[t : t + 1]], X, "sqeuclidean")[0])
    return X[chosen].copy()


def _assign(centers: np.ndarray, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each point's nearest center (ties to the lowest index) and its squared
    distance to it, from one (k, n) distance matrix."""
    dist = cdist(centers, X, "sqeuclidean")
    assign = dist.argmin(axis=0)
    return assign, dist[assign, np.arange(X.shape[0])]


def _repair_empty(
    centers: np.ndarray, X: np.ndarray, cost_per_point: np.ndarray, empties: list[int]
) -> None:
    # reseed each empty cluster at the point with maximal current cost,
    # tie broken by lowest point index via argmax
    costs = cost_per_point.copy()
    for i in empties:
        j = int(np.argmax(costs))
        centers[i] = X[j]
        costs[j] = -np.inf


def _bin_sums(
    idx: np.ndarray, Xt: np.ndarray, size: int, weights: np.ndarray | None = None
) -> np.ndarray:
    """(size, d) sums of the points (times weights) falling in each bin, from
    the (d, n) features Xt."""
    cols = Xt if weights is None else weights * Xt
    return np.stack([np.bincount(idx, c, minlength=size) for c in cols], axis=1)


def _cluster_group_stats(
    X: np.ndarray,
    Xt: np.ndarray,
    colors: np.ndarray,
    assign: np.ndarray,
    k: int,
    H: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-(cluster, group) point counts m (k, H), coordinate sums S (k, H, d),
    means mu (k, H, d; zero where m = 0) and squared deviations from the mean
    sse (k, H), from the features X (n, d) and their (d, n) copy Xt.

    sse sums each point's squared distance to its own (cluster, group) mean
    rather than using sum |x|^2 - m |mu|^2, which cancels badly. Each point's
    term is summed along its row of X: numpy sums a contiguous row pairwise,
    and a sum down the columns of Xt would differ in the last bits for d >= 8.
    """
    idx = assign * H + colors
    m = np.bincount(idx, minlength=k * H)
    S = _bin_sums(idx, Xt, k * H)
    mu = S / np.maximum(m, 1)[:, None]
    sse = np.bincount(idx, ((X - mu[idx]) ** 2).sum(axis=1), minlength=k * H)
    d = X.shape[1]
    return m.reshape(k, H), S.reshape(k, H, d), mu.reshape(k, H, d), sse.reshape(k, H)


def lloyd(
    instance: Instance,
    k: int,
    weights: np.ndarray,
    seed: int,
    max_iters: int = 100,
    tol: float = 1e-6,
) -> CenterSet:
    """Weighted Lloyd iteration from a k-means++ start.

    Alternates nearest-center assignment (ties to the lowest center index)
    with weighted-centroid updates. It stops when the relative cost
    improvement drops to tol or below, or at a fixed point: an assignment
    equal to the previous one, whose centroids are the current centers, so
    every further pass would repeat this one. Score is the weighted cost at
    p=2 of the returned centers; after max_iters updates one more assignment
    pass scores them.
    """
    X = instance.features
    Xt = np.ascontiguousarray(X.T)
    w = np.asarray(weights, dtype=np.float64)
    centers = kmeanspp_init(instance, k, w, seed)
    prev_cost = math.inf
    prev_assign = None
    passes = 0
    for _ in range(max_iters):
        passes += 1
        assign, dsel = _assign(centers, X)
        cost = float((w * dsel).sum())
        empties = np.flatnonzero(np.bincount(assign, minlength=k) == 0).tolist()
        if empties:
            _repair_empty(centers, X, w * dsel, empties)
            prev_cost = math.inf
            prev_assign = None
            continue
        if prev_assign is not None and np.array_equal(assign, prev_assign):
            break
        if math.isfinite(prev_cost) and prev_cost - cost <= tol * max(
            prev_cost, 1e-30
        ):
            break
        prev_cost = cost
        prev_assign = assign
        wsum = np.bincount(assign, w, minlength=k)
        centers = _bin_sums(assign, Xt, k, w) / wsum[:, None]
    else:
        passes += 1
        _, dsel = _assign(centers, X)
        cost = float((w * dsel).sum())
    return CenterSet(centers, f"lloyd(seed={seed})", cost, [cost], [passes])


def _two_group_gamma(m_a, m_b, sse_a, sse_b, gap2, n_a, n_b) -> np.ndarray:
    """gamma in [0, 1] minimizing max(fa, fb) on the segment
    center = gamma * mu_a + (1 - gamma) * mu_b, elementwise over arrays.

    Along the segment the two groups' average costs are the parabolas
    fa = A (1 - gamma)^2 + a0 and fb = B gamma^2 + b0 with
    A = m_a gap2 / n_a, B = m_b gap2 / n_b, a0 = sse_a / n_a, b0 = sse_b / n_b.
    fa falls and fb rises on [0, 1], so the optimum is an endpoint when one
    dominates the whole segment and their crossing otherwise. The crossing is
    the root of (A - B) gamma^2 - 2 A gamma + c = 0, c = A + a0 - b0, written
    without cancellation; it also covers A = B. Coincident means (gap2 = 0)
    give gamma = 1.
    """
    A = m_a * gap2 / n_a
    B = m_b * gap2 / n_b
    a0 = sse_a / n_a
    b0 = sse_b / n_b
    c = A + a0 - b0
    with np.errstate(divide="ignore", invalid="ignore"):
        cross = c / (A + np.sqrt(A * A - (A - B) * c))
    return np.where(
        (gap2 <= 0.0) | (a0 >= B + b0), 1.0, np.where(b0 >= A + a0, 0.0, cross)
    )


def two_group_center(
    pts_a: np.ndarray,
    pts_b: np.ndarray,
    n_a: int,
    n_b: int,
) -> tuple[np.ndarray, float]:
    """Center minimizing max of the two per-group average costs within a cluster.

    The optimum lies on the segment between the group means. Along it each
    group's cost is a convex parabola in gamma, one falling and one rising, so
    the optimum is their crossing, or the endpoint where one group's cost
    dominates the whole segment; it is computed in closed form. Returns
    (center, gamma) with center = gamma * mean_a + (1 - gamma) * mean_b;
    coincident means give (mean_a, 1.0).
    """
    mu_a = pts_a.mean(axis=0)
    mu_b = pts_b.mean(axis=0)
    sse_a = float(((pts_a - mu_a) ** 2).sum())
    sse_b = float(((pts_b - mu_b) ** 2).sum())
    gap2 = float(((mu_a - mu_b) ** 2).sum())
    gamma = float(
        _two_group_gamma(len(pts_a), len(pts_b), sse_a, sse_b, gap2, n_a, n_b)
    )
    return gamma * mu_a + (1.0 - gamma) * mu_b, gamma


def _mw_center(
    m: np.ndarray,
    S: np.ndarray,
    sse: np.ndarray,
    counts: np.ndarray,
    iters: int = 40,
    eta: float = 0.5,
) -> np.ndarray:
    # multiplicative-weights reweighting over the groups present in one
    # cluster, from its per-group counts m, coordinate sums S and squared
    # deviations sse; heuristic, no guarantee
    present = m > 0
    m, S, sse, n = m[present], S[present], sse[present], counts[present]
    mu = S / m[:, None]
    w = np.ones(len(m))
    best_val = math.inf
    best_c = S.sum(axis=0) / m.sum()
    for _ in range(iters):
        pw = w / n
        c = (pw[:, None] * S).sum(axis=0) / (pw * m).sum()
        costs = (sse + m * ((mu - c) ** 2).sum(axis=1)) / n
        top = float(costs.max())
        if top < best_val:
            best_val = top
            best_c = c
        if top <= 0.0:
            break
        w = w * np.exp(eta * costs / top)
        w /= w.sum()
    return best_c


def _fair_update(
    X: np.ndarray,
    Xt: np.ndarray,
    colors: np.ndarray,
    counts: np.ndarray,
    assign: np.ndarray,
    k: int,
) -> np.ndarray:
    """(k, d) min-max group-cost centers of the clusters of a full assignment,
    from the features X (n, d) and their (d, n) copy Xt.

    A cluster holding one group moves to that group's mean; two groups use
    the closed-form crossing, more the multiplicative-weights heuristic.
    """
    H = len(counts)
    m, S, mu, sse = _cluster_group_stats(X, Xt, colors, assign, k, H)
    if H == 2:
        gap2 = ((mu[:, 0] - mu[:, 1]) ** 2).sum(axis=1)
        gamma = _two_group_gamma(
            m[:, 0], m[:, 1], sse[:, 0], sse[:, 1], gap2, counts[0], counts[1]
        )
        gamma = np.where(m[:, 0] == 0, 0.0, np.where(m[:, 1] == 0, 1.0, gamma))
        return gamma[:, None] * mu[:, 0] + (1.0 - gamma)[:, None] * mu[:, 1]
    centers = np.empty((k, X.shape[1]))
    for i in range(k):
        present = np.flatnonzero(m[i])
        if len(present) == 1:
            centers[i] = mu[i, present[0]]
        else:
            centers[i] = _mw_center(m[i], S[i], sse[i], counts)
    return centers


def socially_fair_centers(
    instance: Instance,
    k: int,
    seed: int,
    max_iters: int = 100,
    tol: float = 1e-6,
) -> CenterSet:
    """Lloyd-style alternation whose center update minimizes the max per-group
    average cost within each cluster (two groups: exact closed-form crossing on
    the segment between the group means; more: multiplicative-weights
    heuristic). Score is max_h of per-group average squared distance; the best
    iterate by that score is returned.

    It stops when the score changes by at most tol relative, at a fixed point
    (an assignment equal to the previous one), or at its first repeated state:
    a center state (the k-means++ start, an update or a repair of empty
    clusters) equal to one seen before. The next state depends only on the
    current one, so from a repeated state on the iterates cycle through
    states already scored, and the strict best-score test keeps the iterate
    it already has: the result equals that of a run to max_iters.
    """
    X = instance.features
    Xt = np.ascontiguousarray(X.T)
    counts = instance.counts
    colors = instance.colors
    masks = [colors == h for h in range(instance.num_colors)]
    centers = kmeanspp_init(instance, k, np.ones(instance.n), seed)
    seen = {centers.tobytes()}
    best_score = math.inf
    best_centers = centers.copy()
    prev_score = math.inf
    prev_assign = None
    passes = 0
    for _ in range(max_iters):
        passes += 1
        assign, dsel = _assign(centers, X)
        score = max(float(dsel[mask].sum()) / counts[h] for h, mask in enumerate(masks))
        if score < best_score:
            best_score = score
            best_centers = centers.copy()
        if prev_assign is not None and np.array_equal(assign, prev_assign):
            break
        if math.isfinite(prev_score) and abs(prev_score - score) <= tol * max(
            abs(prev_score), 1e-30
        ):
            break
        empties = np.flatnonzero(np.bincount(assign, minlength=k) == 0).tolist()
        if empties:
            _repair_empty(centers, X, dsel, empties)
            prev_score = math.inf
            prev_assign = None
        else:
            prev_score = score
            prev_assign = assign
            centers = _fair_update(X, Xt, colors, counts, assign, k)
        state = centers.tobytes()
        if state in seen:
            break
        seen.add(state)
    return CenterSet(
        best_centers, f"socially_fair(seed={seed})", best_score, [best_score], [passes]
    )


_METHODS = ("vanilla", "weighted", "socially_fair")


def best_of_restarts(
    instance: Instance,
    k: int,
    method: str,
    restarts: int,
    seed: int,
    max_iters: int = 100,
    tol: float = 1e-6,
) -> CenterSet:
    """Run `method` with seeds seed .. seed+restarts-1, keep the best score."""
    if method not in _METHODS:
        raise ParamError(f"method must be one of {_METHODS}, got {method!r}")
    if restarts < 1:
        raise ParamError(f"restarts must be at least 1, got {restarts}")
    best: CenterSet | None = None
    scores: list[float] = []
    iterations: list[int] = []
    for s in range(seed, seed + restarts):
        if method == "vanilla":
            cs = lloyd(instance, k, np.ones(instance.n), s, max_iters, tol)
        elif method == "weighted":
            w = 1.0 / instance.counts[instance.colors]
            cs = lloyd(instance, k, w, s, max_iters, tol)
        else:
            cs = socially_fair_centers(instance, k, s, max_iters, tol)
        scores.append(cs.score)
        iterations += cs.restart_iterations
        if best is None or cs.score < best.score:
            best = cs
    assert best is not None
    return CenterSet(
        best.centers,
        f"{method}(restarts={restarts},seed={seed})",
        best.score,
        restart_scores=scores,
        restart_iterations=iterations,
    )
