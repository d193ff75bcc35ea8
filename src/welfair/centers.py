"""Center selection: k-means++ seeding, weighted Lloyd, group-fair variants."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .errors import DataError, ParamError
from .metrics import nearest
from .model import Instance, check_int, check_k, real_array


@dataclass
class CenterSet:
    """Centers with the score that chose them.

    restart_scores holds each restart's score; a single run is one restart.
    best_of_restarts keeps its first restart's centers as first_centers.
    A set given to a run may carry a NaN score: the run reads only its
    centers.
    """

    centers: np.ndarray
    provenance: str
    score: float
    restart_scores: list[float] | None = None
    first_centers: np.ndarray | None = None


def _check_weights(weights, n: int) -> np.ndarray:
    """weights as a float64 array (`model.real_array`), checked as
    `kmeanspp_init` says."""
    w = real_array("weights", weights)
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
    return w


def kmeanspp_init(
    instance: Instance, k: int, weights: np.ndarray, seed: int
) -> np.ndarray:
    """D^2-weighted seeding scaled by point weights; returns (k, d) centers.

    Raises ParamError for a seed that is not an integer of at least 0
    (`model.check_int`), for a k that is not an integer in [1, n]
    (`model.check_k`), and for weights that are not
    one finite, nonnegative value per point with a positive total, naming
    the first bad point. Raises DataError where squared distances overflow,
    or where k exceeds the distinct points of positive weight.
    """
    check_int("seed", seed, 0)
    X = instance.features
    n = instance.n
    w = _check_weights(weights, n)
    check_k(k, n)
    rng = np.random.default_rng(seed)
    chosen = np.empty(k, dtype=np.int64)
    d2 = np.full(n, np.inf)
    for t in range(k):
        prob = w * d2 if t else w
        total = prob.sum()
        if not total < math.inf:  # NaN too: 0 * inf
            raise DataError("squared distances overflow; rescale the features")
        if total <= 0.0:
            raise DataError(f"k={k} exceeds the number of distinct candidate points")
        # rng.choice(n, p=prob / total) without its checks on p: the same
        # arithmetic, so the same draws
        cdf = (prob / total).cumsum()
        cdf /= cdf[-1]
        chosen[t] = cdf.searchsorted(rng.random(), side="right")
        d2 = np.minimum(d2, cdist(X[chosen[t : t + 1]], X, "sqeuclidean")[0])
    return X[chosen].copy()


def _assign(centers: np.ndarray, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each point's nearest center and its squared distance to it."""
    return nearest(cdist(centers, X, "sqeuclidean"))


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


def _bin_sums(idx: np.ndarray, Xt: np.ndarray, size: int) -> np.ndarray:
    """(size, d) sums of the points falling in each bin, from the (d, n)
    features Xt (weighted or not)."""
    return np.stack([np.bincount(idx, c, minlength=size) for c in Xt], axis=1)


# Lloyd's loop stops after _MAX_ITERS center updates, or once the score
# improves by at most _TOL relative
_MAX_ITERS = 100
_TOL = 1e-6


def _alternate(
    instance: Instance, k: int, w: np.ndarray, seed: int, update, score
) -> tuple[np.ndarray, float]:
    """Lloyd's loop from a k-means++ start drawn with point weights w: each
    pass assigns points to their nearest center (ties to the lowest index),
    scores that with score(dsel) from the squared distances and moves the
    centers to update(assign, dsel, centers), or reseeds empty clusters,
    those of weight 0, whose weighted centroid would be 0 / 0 (_repair_empty
    on w * dsel). It stops when the score improves by at most _TOL
    relative, or at a fixed point (an assignment equal to the previous one,
    whose update gives the current centers again). Returns the centers and
    their score; after _MAX_ITERS updates one more pass scores them.
    """
    X = instance.features
    centers = kmeanspp_init(instance, k, w, seed)
    prev_cost = math.inf
    prev_assign = None
    for _ in range(_MAX_ITERS):
        assign, dsel = _assign(centers, X)
        cost = score(dsel)
        empties = np.flatnonzero(np.bincount(assign, w, minlength=k) == 0).tolist()
        if empties:
            _repair_empty(centers, X, w * dsel, empties)
            prev_cost = math.inf
            prev_assign = None
            continue
        if prev_assign is not None and np.array_equal(assign, prev_assign):
            break
        if math.isfinite(prev_cost) and prev_cost - cost <= _TOL * max(
            prev_cost, 1e-30
        ):
            break
        prev_cost = cost
        prev_assign = assign
        centers = update(assign, dsel, centers)
    else:
        _, dsel = _assign(centers, X)
        cost = score(dsel)
    return centers, cost


def lloyd(instance: Instance, k: int, weights: np.ndarray, seed: int) -> CenterSet:
    """Weighted Lloyd iteration (_alternate) from a k-means++ start: each
    center moves to the weighted centroid of its points. Score is the
    weighted cost at p=2 of the returned centers."""
    w = _check_weights(weights, instance.n)
    wXt = w * np.ascontiguousarray(instance.features.T)  # (d, n), weighted once

    def update(assign, dsel, centers):
        wsum = np.bincount(assign, w, minlength=k)
        return _bin_sums(assign, wXt, k) / wsum[:, None]

    def score(dsel):
        return float((w * dsel).sum())

    centers, cost = _alternate(instance, k, w, seed, update, score)
    return CenterSet(centers, f"lloyd(seed={seed})", cost, [cost])


# the socially-fair center step stops at this duality gap relative to the max
# group cost or, where that is more, to _EPS times the points' variance (the
# costs' rounding level); the caps bound its line searches and the Newton
# steps of each
_GAP = 1e-12
_EPS = float(np.finfo(float).eps)
_MAX_SEARCHES = 100
_MAX_NEWTON = 60


def _fair_update(
    Xt: np.ndarray,
    colors: np.ndarray,
    counts: np.ndarray,
    assign: np.ndarray,
    dsel: np.ndarray,
    ref: np.ndarray,
    k: int,
    var: float,
) -> np.ndarray:
    """(k, d) centers minimizing the max group cost max_h f_h of a full
    assignment, from the (d, n) features Xt, their variance var (summed over
    the d features) and each point's squared distance dsel to its center in
    the (k, d) centers ref.

    f_h(C) = sum_i (sse_ih + m_ih |c_i - mu_ih|^2) / n_h, from the count m_ih,
    mean mu_ih and squared deviations sse_ih of group h in cluster i, so the
    spread sum_i sse_ih / n_h is f_h(ref), by dsel, less its m_ih terms. f_h is
    convex: the min-max is the max over the H-simplex of the concave dual
    g(w) = min_C w . f(C) (Ghadiri, Samadi and Vempala, FAccT 2021). For
    fixed w, center i is the mean of its points with group h weighted by
    w_h / n_h (the plain mean where these are all 0); g's gradient is f there
    and its Hessian -2 sum_i B_i B_i^T / tot_i, with B_ih = (m_ih / n_h)
    (mu_ih - c_i) and tot_i = sum_h w_h m_ih / n_h. From uniform weights each
    search moves w to the maximum of g along a direction delta: Newton's on
    the face of the weighted groups and the costliest one, if that face has
    three or more groups and it ascends into the simplex, else weight from
    the cheapest weighted group to the costliest. It stops at a duality gap
    max f - w . f of at most _GAP * max f, or _GAP * _EPS * var where that is
    more (max f is then rounding noise). Where the optimal weights are 0 on
    every group of a cluster holding two or more groups, that cluster's plain
    mean need not be optimal, and the gap can stay open for _MAX_SEARCHES.
    """
    H = len(counts)
    idx = assign * H + colors
    m = np.bincount(idx, minlength=k * H)
    mu = _bin_sums(idx, Xt, k * H) / np.maximum(m, 1)[:, None]
    m, mu = m.reshape(k, H), mu.reshape(k, H, -1)
    share = m / counts  # m_ih / n_h
    off = mu - ref[:, None]
    spread = np.bincount(colors, dsel, minlength=H) / counts
    spread -= (share * np.einsum("ihd,ihd->ih", off, off)).sum(axis=0)
    plain = np.einsum("ih,ihd->id", m, mu) / m.sum(axis=1)[:, None]

    def solve(w):
        # the centers for weights w, the offsets mu - c (taken directly: a
        # Gram expansion cancels badly), f and each cluster's total weight
        tot = share @ w
        c = np.divide(
            np.einsum("ih,ihd->id", w * share, mu),
            tot[:, None],
            out=plain.copy(),
            where=tot[:, None] > 0.0,
        )
        diff = mu - c[:, None]
        f = spread + (share * np.einsum("ihd,ihd->ih", diff, diff)).sum(axis=0)
        return c, diff, f, tot

    w = np.full(len(counts), 1.0 / len(counts))
    c, diff, f, tot = solve(w)
    for _ in range(_MAX_SEARCHES):
        top = float(f.max())
        stop = _GAP * max(top, _EPS * var)
        if top - float(w @ f) <= stop:
            break
        a = int(f.argmax())
        B = share[:, :, None] * diff
        inv = np.divide(1.0, tot, out=np.zeros(k), where=tot > 0.0)
        delta = np.zeros(len(w))
        delta[a] = 1.0
        delta[int(np.where(w > 0.0, f, np.inf).argmin())] = -1.0
        face = np.flatnonzero((w > 0.0) | (delta > 0.0)) if len(w) > 2 else []
        if len(face) > 2:
            # max f . x + x^T Hessian x / 2 over the face with sum x = 0
            kkt = np.ones((len(face) + 1, len(face) + 1))
            kkt[-1, -1] = 0.0
            Bf = B[:, face]
            kkt[:-1, :-1] = 2.0 * np.einsum("ihd,igd,i->hg", Bf, Bf, inv)
            x = np.zeros(len(w))
            rhs = np.append(f[face], 0.0)
            x[face] = np.linalg.lstsq(kkt, rhs, rcond=None)[0][:-1]
            x[face] -= x[face].mean()  # stay on the simplex
            if x @ f > 0.0 and not (x[w <= 0.0] < 0.0).any():
                delta = x / np.abs(x).max()
        ratio = np.divide(w, -delta, out=np.full(len(w), np.inf), where=delta < 0.0)
        edge = int(ratio.argmin())
        v = np.einsum("h,ihd->id", delta, B)
        vv = np.einsum("id,id->i", v, v)
        rate = share @ delta
        # Newton's method on the slope delta . f from t = 0, kept inside a
        # bracket by bisection, to its root or the simplex's edge. With
        # u_i = tot_i + t rate_i, rate_i = sum_h delta_h m_ih / n_h and
        # v_i = sum_h delta_h B_ih, the slope at t is
        # delta . f - sum_i |v_i|^2 t (tot_i + u_i) / u_i^2 and its derivative
        # -2 sum_i |v_i|^2 tot_i^2 / u_i^3
        slope = start = float(delta @ f)
        tot2 = tot**2
        t, lo, hi, hi_known = 0.0, 0.0, float(ratio[edge]), False
        for _ in range(_MAX_NEWTON):
            if abs(slope) <= stop or (slope > 0.0 and t == hi):
                break
            if slope > 0.0:
                lo = t
            else:
                hi, hi_known = t, True
            curv = 2.0 * float(vv @ (tot2 * inv**3))
            nxt = t + slope / curv if curv > 0.0 else math.inf
            if nxt >= hi and not hi_known:
                nxt = hi
            elif not lo < nxt < hi:
                nxt = 0.5 * (lo + hi)
            if nxt == t:
                break
            t = nxt
            u = tot + t * rate
            inv = np.divide(1.0, u, out=np.zeros(k), where=u > 0.0)
            slope = start - float(vv @ (t * (tot + u) * inv**2))
        w = np.maximum(w + t * delta, 0.0)
        if t == ratio[edge]:
            w[edge] = 0.0  # w + t * delta leaves rounding error there
        c, diff, f, tot = solve(w)
    return c


def socially_fair_centers(instance: Instance, k: int, seed: int) -> CenterSet:
    """Lloyd's loop (_alternate) from an unweighted k-means++ start whose
    update minimizes the max per-group average cost of the assignment
    exactly (_fair_update). Score is the max per-group average squared
    distance to the nearest center. Reassignment and the repair of empty
    clusters never raise a group's cost, so the score never increases by
    more than the update's relative duality gap, _GAP.
    """
    Xt = np.ascontiguousarray(instance.features.T)
    var = float(Xt.var(axis=1).sum())
    counts, colors, H = instance.counts, instance.colors, instance.num_colors

    def update(assign, dsel, centers):
        return _fair_update(Xt, colors, counts, assign, dsel, centers, k, var)

    def score(dsel):
        return float((np.bincount(colors, dsel, minlength=H) / counts).max())

    centers, cost = _alternate(instance, k, np.ones(instance.n), seed, update, score)
    return CenterSet(centers, f"socially_fair(seed={seed})", cost, [cost])


# the center heuristics, in the order a sweep reports their baselines
METHODS = ("vanilla", "weighted", "socially_fair")


def best_of_restarts(
    instance: Instance, k: int, method: str, restarts: int, seed: int
) -> CenterSet:
    """Run `method` with seeds seed .. seed+restarts-1, keep the best score;
    first_centers are the centers of the restart at seed itself. restarts
    and seed are integers (`model.check_int`) of at least 1 and 0."""
    if method not in METHODS:
        raise ParamError(f"method must be one of {METHODS}, got {method!r}")
    check_int("restarts", restarts, 1)
    check_int("seed", seed, 0)
    runs = []
    for s in range(seed, seed + restarts):
        if method == "vanilla":
            runs.append(lloyd(instance, k, np.ones(instance.n), s))
        elif method == "weighted":
            runs.append(lloyd(instance, k, 1.0 / instance.counts[instance.colors], s))
        else:
            runs.append(socially_fair_centers(instance, k, s))
    # the first of equal scores wins
    best = min(runs, key=lambda cs: cs.score)
    return CenterSet(
        best.centers,
        f"{method}(restarts={restarts},seed={seed})",
        best.score,
        restart_scores=[cs.score for cs in runs],
        first_centers=runs[0].centers,
    )
