from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.spatial.distance import cdist

from datagen import adult_like, census_like, random_instance

from welfair import centers as centers_mod
from welfair import lp as lp_mod
from welfair.centers import (
    _assign,
    _fair_update,
    _repair_empty,
    best_of_restarts,
    kmeanspp_init,
    lloyd,
    socially_fair_centers,
)
from welfair.errors import DataError, ParamError
from welfair.lp import LPSetup
from welfair.metrics import pairwise_pow
from welfair.model import Instance, Params, normalization_factor


class TestKmeansppInit:
    def test_shape_and_membership(self, small_instance):
        C = kmeanspp_init(small_instance, 4, np.ones(small_instance.n), seed=0)
        assert C.shape == (4, small_instance.dim)
        # every center is one of the input points
        d = pairwise_pow(C, small_instance.features, 2)
        assert np.all(d.min(axis=1) == 0.0)

    def test_deterministic(self, small_instance):
        a = kmeanspp_init(small_instance, 3, np.ones(small_instance.n), seed=7)
        b = kmeanspp_init(small_instance, 3, np.ones(small_instance.n), seed=7)
        np.testing.assert_array_equal(a, b)

    def test_zero_weight_point_never_first(self):
        X = np.array([[0.0], [5.0], [9.0]])
        inst = Instance(X, [0, 1, 0], ["a", "b"])
        w = np.array([0.0, 1.0, 1.0])
        for seed in range(20):
            C = kmeanspp_init(inst, 1, w, seed)
            assert C[0, 0] != 0.0

    @pytest.mark.parametrize("seed", range(40))
    def test_draws_are_numpy_choice(self, seed):
        # every center is the point rng.choice(n, p=...) draws, at weights
        # of many scales, with zero weights, and with k = n
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 80))
        X = rng.normal(size=(n, 3))
        w = rng.random(n) ** 3 * 10.0 ** rng.uniform(-6, 6)
        if seed % 2:
            w[rng.random(n) < 0.4] = 0.0
            w[rng.integers(n)] = 1.0
        live = int(np.count_nonzero(w))
        inst = Instance(X, np.arange(n) % 2, ["a", "b"])
        for s in range(5):
            k = live if s == 0 else int(rng.integers(1, live + 1))
            np.testing.assert_array_equal(
                kmeanspp_init(inst, k, w, s), _ref_kmeanspp(X, k, w, s)
            )

    def test_overflowing_distances(self):
        # numpy's choice raised a bare ValueError on the NaN probabilities
        X = np.array([[0.0], [1e160], [-1e160], [2e160]])
        inst = Instance(X, [0, 1, 0, 1], ["a", "b"])
        with pytest.raises(DataError, match="squared distances overflow"):
            kmeanspp_init(inst, 2, np.ones(4), 0)

    def test_k_exceeds_n(self, tiny_instance):
        n = tiny_instance.n
        with pytest.raises(ParamError, match=rf"^k={n + 1} must lie in \[1, n={n}\]$"):
            kmeanspp_init(tiny_instance, n + 1, np.ones(n), 0)

    @pytest.mark.parametrize("k", [0, -1])
    @pytest.mark.parametrize(
        "run",
        [
            lambda inst, k: kmeanspp_init(inst, k, np.ones(inst.n), 0),
            lambda inst, k: lloyd(inst, k, np.ones(inst.n), 0),
            lambda inst, k: socially_fair_centers(inst, k, 0),
            lambda inst, k: best_of_restarts(inst, k, "weighted", 3, 0),
            lambda inst, k: normalization_factor(inst, [k]),
        ],
        ids=["kmeanspp_init", "lloyd", "socially_fair", "restarts", "normalization"],
    )
    def test_k_below_one(self, tiny_instance, run, k):
        # numpy used to fail with a bare IndexError (k = 0) or ValueError
        # (k = -1); every start is drawn through kmeanspp_init, which names it
        # with Params.validate's message
        n = tiny_instance.n
        with pytest.raises(ParamError, match=rf"^k={k} must lie in \[1, n={n}\]$"):
            run(tiny_instance, k)

    @pytest.mark.parametrize("k", [2.5, True, 3.0])
    @pytest.mark.parametrize(
        "run",
        [
            lambda inst, k: lloyd(inst, k, np.ones(inst.n), 0),
            lambda inst, k: best_of_restarts(inst, k, "vanilla", 1, 0),
            lambda inst, k: best_of_restarts(inst, k, "socially_fair", 1, 0),
        ],
        ids=["lloyd", "vanilla", "socially_fair"],
    )
    def test_k_must_be_an_integer(self, tiny_instance, run, k):
        # numpy used to fail with a bare TypeError; kmeanspp_init applies
        # Params.validate's rule, under which numpy integers pass
        with pytest.raises(ParamError, match=rf"^k must be an integer, got {k!r}$"):
            run(tiny_instance, k)
        assert run(tiny_instance, np.int64(2)).centers.shape == (2, 2)

    def test_k_exceeds_distinct_points(self):
        X = np.zeros((5, 2))
        X[0] = [1.0, 1.0]
        inst = Instance(X, [0, 1, 0, 1, 0], ["a", "b"])
        with pytest.raises(
            DataError, match="^k=3 exceeds the number of distinct candidate points$"
        ):
            kmeanspp_init(inst, 3, np.ones(5), seed=0)

    def test_weight_validation(self, tiny_instance):
        n = tiny_instance.n
        with pytest.raises(ParamError, match=r"shape \(11,\)"):
            kmeanspp_init(tiny_instance, 2, np.ones(n - 1), 0)
        with pytest.raises(ParamError, match="point 0 is -1.0"):
            kmeanspp_init(tiny_instance, 2, -np.ones(n), 0)
        with pytest.raises(ParamError, match="sum to 0.0"):
            kmeanspp_init(tiny_instance, 2, np.zeros(n), 0)
        for bad in (math.nan, math.inf, -math.inf):
            w = np.ones(n)
            w[[4, 7]] = bad
            # lloyd validates through kmeanspp_init, before any numpy call
            # can warn or raise on the bad value
            for run in (kmeanspp_init, lloyd):
                with pytest.raises(ParamError, match=f"point 4 is {bad!r}"):
                    run(tiny_instance, 2, w, 0)
        w = np.full(n, 1e308)
        with pytest.raises(ParamError, match="sum to inf"):
            kmeanspp_init(tiny_instance, 2, w, 0)
        for run in (kmeanspp_init, lloyd):
            with pytest.raises(ParamError, match="^weights must be real numbers"):
                run(tiny_instance, 2, ["a"] * n, 0)

    @pytest.mark.parametrize(
        "run",
        [
            lambda inst: kmeanspp_init(inst, 2, np.ones(inst.n), -1),
            lambda inst: lloyd(inst, 2, np.ones(inst.n), -1),
            lambda inst: socially_fair_centers(inst, 2, -1),
            lambda inst: best_of_restarts(inst, 2, "weighted", 3, -1),
            lambda inst: normalization_factor(inst, [2, 3], 2, "rawlsian", -1),
        ],
        ids=["kmeanspp_init", "lloyd", "socially_fair", "restarts", "normalization"],
    )
    def test_negative_seed(self, tiny_instance, run):
        # numpy's generator rejects it with a bare ValueError; every start
        # is drawn through kmeanspp_init, which names it
        with pytest.raises(ParamError, match="seed must be at least 0, got -1"):
            run(tiny_instance)

    @pytest.mark.parametrize("value", [1.5, True], ids=["float", "bool"])
    @pytest.mark.parametrize(
        "name, run",
        [
            ("seed", lambda inst, s: kmeanspp_init(inst, 2, np.ones(inst.n), s)),
            ("seed", lambda inst, s: lloyd(inst, 2, np.ones(inst.n), s)),
            ("seed", lambda inst, s: socially_fair_centers(inst, 2, s)),
            ("seed", lambda inst, s: best_of_restarts(inst, 2, "vanilla", 2, s)),
            ("restarts", lambda inst, r: best_of_restarts(inst, 2, "vanilla", r, 0)),
        ],
        ids=["kmeanspp_init", "lloyd", "socially_fair", "restarts-seed", "restarts"],
    )
    def test_seed_and_restarts_must_be_integers(self, tiny_instance, name, run, value):
        # numpy raised a bare TypeError on a float seed, range() one on a
        # float seed or restart count, and a bool seed ran; numpy integers
        # pass
        message = rf"^{name} must be an integer, got {value!r}$"
        with pytest.raises(ParamError, match=message):
            run(tiny_instance, value)
        got = run(tiny_instance, np.int64(1))
        assert getattr(got, "centers", got).shape == (2, tiny_instance.dim)


class TestLloyd:
    def test_two_blob_optimum(self):
        rng = np.random.default_rng(0)
        A = rng.normal(size=(30, 2)) * 0.1
        B = rng.normal(size=(30, 2)) * 0.1 + 10.0
        X = np.vstack([A, B])
        inst = Instance(X, [0, 1] * 30, ["a", "b"])
        cs = lloyd(inst, 2, np.ones(60), seed=0)
        got = cs.centers[np.argsort(cs.centers[:, 0])]
        np.testing.assert_allclose(got[0], A.mean(axis=0), atol=1e-9)
        np.testing.assert_allclose(got[1], B.mean(axis=0), atol=1e-9)
        want = float(((A - A.mean(0)) ** 2).sum() + ((B - B.mean(0)) ** 2).sum())
        assert cs.score == pytest.approx(want)

    def test_score_is_weighted_assignment_cost(self, small_instance):
        rng = np.random.default_rng(3)
        w = rng.random(small_instance.n) + 0.1
        cs = lloyd(small_instance, 3, w, seed=1)
        dist = pairwise_pow(small_instance.features, cs.centers, 2)
        dsel = dist.min(axis=1)
        assert cs.score == pytest.approx(float((w * dsel).sum()))

    def test_deterministic(self, small_instance):
        a = lloyd(small_instance, 3, np.ones(small_instance.n), seed=5)
        b = lloyd(small_instance, 3, np.ones(small_instance.n), seed=5)
        np.testing.assert_array_equal(a.centers, b.centers)
        assert a.score == b.score

    def test_heavy_weight_pulls_center(self):
        X = np.array([[0.0], [1.0], [2.0]])
        inst = Instance(X, [0, 1, 0], ["a", "b"])
        w = np.array([1.0, 1.0, 1000.0])
        cs = lloyd(inst, 1, w, seed=0)
        # centroid sits essentially at the heavy point
        assert abs(cs.centers[0, 0] - 2.0) < 0.01


class TestLloydUpdate:
    @pytest.mark.parametrize("seed", range(4))
    def test_one_step_is_masked_weighted_mean(self, small_instance, seed, monkeypatch):
        # one iteration assigns to the k-means++ start and moves every
        # center to the weighted mean of its points
        monkeypatch.setattr(centers_mod, "_MAX_ITERS", 1)
        X = small_instance.features
        w = np.random.default_rng(seed).random(small_instance.n) + 0.1
        start = kmeanspp_init(small_instance, 4, w, seed)
        assign = pairwise_pow(X, start, 2).argmin(axis=1)
        want = np.array(
            [
                (w[assign == i, None] * X[assign == i]).sum(axis=0)
                / w[assign == i].sum()
                for i in range(4)
            ]
        )
        got = lloyd(small_instance, 4, w, seed).centers
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


class TestRepairEmpty:
    def test_reseeds_at_max_cost_point(self):
        centers = np.zeros((2, 1))
        X = np.array([[0.0], [1.0], [5.0], [2.0]])
        cost = np.array([0.0, 1.0, 25.0, 4.0])
        _repair_empty(centers, X, cost, [1])
        assert centers[1, 0] == 5.0

    def test_two_empties_take_distinct_points(self):
        centers = np.zeros((3, 1))
        X = np.array([[0.0], [1.0], [5.0], [2.0]])
        cost = np.array([0.0, 1.0, 25.0, 4.0])
        _repair_empty(centers, X, cost, [1, 2])
        assert centers[1, 0] == 5.0 and centers[2, 0] == 2.0


def _group_costs(X, colors, assign, counts, centers):
    """Each group's average squared distance to its points' assigned centers."""
    d2 = ((X - centers[assign]) ** 2).sum(axis=1)
    return np.bincount(colors, d2, minlength=len(counts)) / counts


def _fair_step(X, colors, counts, assign, k, ref):
    """_fair_update of the assignment, given each point's squared distance
    to its center in the (k, d) reference centers ref."""
    dsel = cdist(X, ref, "sqeuclidean")[np.arange(len(X)), assign]
    Xt = np.ascontiguousarray(X.T)
    return _fair_update(
        Xt, colors, counts, assign, dsel, ref, k, Xt.var(axis=1).sum()
    )


def _one_cluster_center(a, b, n_a, n_b):
    """The fair step's center of one cluster holding the points a of group 0
    and b of group 1, with group sizes n_a and n_b, and its position gamma on
    the segment gamma * mean(a) + (1 - gamma) * mean(b) (nan where the two
    means coincide). The distances are measured to the cluster's first
    point."""
    X = np.vstack([a, b])
    colors = np.repeat([0, 1], [len(a), len(b)])
    assign = np.zeros(len(X), dtype=np.int64)
    c = _fair_step(X, colors, np.array([n_a, n_b]), assign, 1, X[:1])[0]
    gap = a.mean(axis=0) - b.mean(axis=0)
    gamma = float((c - b.mean(axis=0)) @ gap / (gap @ gap)) if gap.any() else math.nan
    return c, gamma


class TestTwoGroupCenter:
    # with one cluster the step minimizes max(fa, fb) of that cluster alone,
    # whose optimum lies on the segment between the two group means

    def test_symmetric_midpoint(self):
        a = np.array([[-1.0]])
        b = np.array([[1.0]])
        c, gamma = _one_cluster_center(a, b, 1, 1)
        assert c[0] == pytest.approx(0.0, abs=1e-8)
        assert gamma == pytest.approx(0.5, abs=1e-8)

    def test_group_size_shifts_crossing(self):
        # fa = (1 - g)^2, fb = 4 g^2 crosses at g = 1/3
        a = np.array([[-1.0]])
        b = np.array([[1.0]])
        c, gamma = _one_cluster_center(a, b, 4, 1)
        assert gamma == pytest.approx(1 / 3, abs=1e-8)
        assert c[0] == pytest.approx(1 / 3, abs=1e-8)

    def test_coincident_means(self):
        a = np.array([[2.0, 3.0], [4.0, 5.0]])
        b = np.array([[3.0, 4.0]])
        c, _ = _one_cluster_center(a, b, 2, 1)
        np.testing.assert_allclose(c, [3.0, 4.0])

    @pytest.mark.parametrize("seed", range(6))
    def test_beats_grid_search(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(rng.integers(2, 8), 3))
        b = rng.normal(size=(rng.integers(2, 8), 3)) + rng.normal(size=3)
        n_a, n_b = int(rng.integers(5, 20)), int(rng.integers(5, 20))
        c, _ = _one_cluster_center(a, b, n_a, n_b)

        def val(center):
            fa = float(((a - center) ** 2).sum()) / n_a
            fb = float(((b - center) ** 2).sum()) / n_b
            return max(fa, fb)

        mu_a, mu_b = a.mean(axis=0), b.mean(axis=0)
        grid = min(
            val(g * mu_a + (1 - g) * mu_b) for g in np.linspace(0, 1, 2001)
        )
        assert val(c) <= grid + 1e-9


class TestTwoGroupCrossing:
    @pytest.mark.parametrize("seed", range(6))
    def test_interior_crossing_equalizes_costs(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(rng.integers(2, 8), 3))
        b = rng.normal(size=(rng.integers(2, 8), 3)) + 3.0
        n_a, n_b = int(rng.integers(8, 20)), int(rng.integers(8, 20))
        c, gamma = _one_cluster_center(a, b, n_a, n_b)
        assert 0.0 < gamma < 1.0
        fa = float(((a - c) ** 2).sum()) / n_a
        fb = float(((b - c) ** 2).sum()) / n_b
        assert fa == pytest.approx(fb, rel=1e-12)


def _mixed_clusters(rng, H, k=8, per=12, d=3):
    """Points, colors and an assignment to k clusters of `per` points.

    Cluster h < H holds group h alone; for H = 2, cluster 2 holds the same
    points twice, once per group, so its two group means coincide.
    """
    offsets = np.repeat(rng.normal(size=(k, d)) * 4, per, axis=0)
    X = rng.normal(size=(k * per, d)) + offsets
    colors = rng.integers(0, H, size=k * per)
    assign = np.repeat(np.arange(k), per)
    for h in range(H):
        colors[assign == h] = h
    if H == 2:
        pts = np.flatnonzero(assign == 2)
        half = per // 2
        X[pts[half:]] = X[pts[:half]]
        colors[pts[:half]], colors[pts[half:]] = 0, 1
    return X, colors, assign


def _idle_group_clusters(rng, H, k=6, per=12, d=3):
    """Like _mixed_clusters, but group H - 1 is large and sits tightly
    around the other groups' cluster means, so its cost stays below the
    others' and its optimal weight is 0; the last cluster holds it alone."""
    X, colors, assign = _mixed_clusters(rng, H - 1, k, per, d)
    means = np.array([X[assign == i].mean(axis=0) for i in range(k)])
    extra = np.repeat(np.arange(k), 4 * per)
    X = np.vstack([X, means[extra] + rng.normal(size=(len(extra), d)) * 0.01])
    colors = np.concatenate([colors, np.full(len(extra), H - 1)])
    assign = np.concatenate([assign, extra])
    colors[assign == k - 1] = H - 1
    return X, colors, assign


def _epigraph_reference(X, colors, assign, counts, k):
    """min z s.t. f_h(C) <= z for every group h, by SLSQP from the cluster
    means; returns the optimal max_h f_h. SLSQP's status 8, no descent in
    its line search, counts as done: it ends so at an optimum it reaches to
    rounding (8 of 99 nearest-center updates, within 2e-15 relative)."""
    d = X.shape[1]
    start = np.array([X[assign == i].mean(axis=0) for i in range(k)])

    def slack(v):
        return v[-1] - _group_costs(X, colors, assign, counts, v[:-1].reshape(k, d))

    z0 = _group_costs(X, colors, assign, counts, start).max()
    res = minimize(
        lambda v: v[-1],
        np.append(start.ravel(), z0),
        jac=lambda v: np.eye(len(v))[-1],
        constraints=[{"type": "ineq", "fun": slack}],
        method="SLSQP",
        options={"ftol": 1e-15, "maxiter": 1000},
    )
    assert res.success or res.status == 8, res.message
    return _group_costs(X, colors, assign, counts, res.x[:-1].reshape(k, d)).max()


class TestFairUpdate:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("draw", ["mixed", "idle"])
    @pytest.mark.parametrize("H", [2, 3, 4])
    def test_matches_epigraph_reference(self, H, draw, seed):
        rng = np.random.default_rng(seed)
        make = _mixed_clusters if draw == "mixed" else _idle_group_clusters
        X, colors, assign = make(rng, H)
        k = int(assign.max()) + 1
        counts = np.bincount(colors, minlength=H)
        ref = X[rng.choice(len(X), k, replace=False)]
        got = _fair_step(X, colors, counts, assign, k, ref)
        costs = _group_costs(X, colors, assign, counts, got)
        want = _epigraph_reference(X, colors, assign, counts, k)
        assert costs.max() == pytest.approx(want, rel=1e-9)
        # a cluster holding one group sits on that group's mean
        for i in range(k):
            if len(np.unique(colors[assign == i])) == 1:
                np.testing.assert_allclose(
                    got[i], X[assign == i].mean(axis=0), rtol=1e-9, atol=1e-9
                )
        if draw == "idle":
            # the idle group's cost is below the optimum, so its weight is 0
            assert costs[H - 1] < 0.5 * want

    @pytest.mark.parametrize(
        "data", ["mixed-2", "mixed-3", "mixed-4", "idle-2", "idle-3", "idle-4", "census"]
    )
    def test_same_centers_whichever_reference(self, data):
        # each group's spread is its cost at the reference centers less the
        # part its (cluster, group) means' offsets carry, whatever the
        # reference: k-means++ starts, the cluster means or random points
        rng = np.random.default_rng(7)
        if data == "census":
            inst = census_like(600, 3, seed=2)
            X, colors, k = inst.features, inst.colors, 6
            assign, _ = _assign(kmeanspp_init(inst, k, np.ones(inst.n), 0), X)
        else:
            draw, H = data.split("-")
            make = _mixed_clusters if draw == "mixed" else _idle_group_clusters
            X, colors, assign = make(rng, int(H))
            k = int(assign.max()) + 1
        H = int(colors.max()) + 1
        counts = np.bincount(colors, minlength=H)
        inst = Instance(X, colors, [f"g{h}" for h in range(H)])
        refs = [kmeanspp_init(inst, k, np.ones(inst.n), s) for s in range(3)]
        refs.append(np.array([X[assign == i].mean(axis=0) for i in range(k)]))
        refs += [X[rng.choice(len(X), k, replace=False)] for _ in range(3)]
        got = [_fair_step(X, colors, counts, assign, k, ref) for ref in refs]
        for c in got[1:]:
            np.testing.assert_allclose(c, got[0], rtol=0.0, atol=1e-12)


class TestSociallyFairCenters:
    def test_score_matches_recompute(self, small_instance):
        cs = socially_fair_centers(small_instance, 3, seed=2)
        dist = pairwise_pow(small_instance.features, cs.centers, 2)
        dsel = dist.min(axis=1)
        score = max(
            float(dsel[small_instance.colors == h].sum()) / small_instance.counts[h]
            for h in range(small_instance.num_colors)
        )
        assert cs.score == pytest.approx(score)

    def test_three_groups_run(self):
        inst = random_instance(45, 2, 3, seed=8)
        cs = socially_fair_centers(inst, 3, seed=0)
        assert np.isfinite(cs.score) and cs.centers.shape == (3, 2)

    def test_protects_minority_group(self):
        # minority group far away: vanilla parks both centers on the bulk,
        # the fair variant pays attention to the minority's average cost
        rng = np.random.default_rng(4)
        bulk = rng.normal(size=(40, 2))
        minority = rng.normal(size=(4, 2)) * 0.2 + 30.0
        X = np.vstack([bulk, minority])
        colors = np.array([0] * 40 + [1] * 4)
        inst = Instance(X, colors, ["maj", "min"])

        def max_group_cost(centers):
            dist = pairwise_pow(X, centers, 2)
            dsel = dist.min(axis=1)
            return max(
                float(dsel[colors == h].sum()) / inst.counts[h] for h in range(2)
            )

        fair = best_of_restarts(inst, 2, "socially_fair", 5, 0)
        van = best_of_restarts(inst, 2, "vanilla", 5, 0)
        assert max_group_cost(fair.centers) <= max_group_cost(van.centers) + 1e-9

    @pytest.mark.parametrize(
        "inst, k",
        [
            (adult_like(300, seed=0), 6),
            (census_like(300, 3, seed=1), 5),
            (random_instance(120, 3, 4, seed=2), 4),
            (census_like(200, 3, seed=3), 8),
        ],
        ids=["adult", "census", "four-groups", "census-k8"],
    )
    def test_score_never_increases(self, inst, k, monkeypatch):
        # the step is exact and reassignment and repair never raise a
        # group's cost, so running longer never scores worse
        for seed in range(3):
            scores = []
            for t in range(1, 11):
                monkeypatch.setattr(centers_mod, "_MAX_ITERS", t)
                scores.append(socially_fair_centers(inst, k, seed).score)
            for before, after in zip(scores, scores[1:]):
                assert after <= before * (1 + 1e-12)

    @pytest.mark.parametrize(
        "inst",
        [census_like(400, 3, seed=1)]
        + [random_instance(300, 3, H, seed=H) for H in range(3, 7)],
        ids=["census", "random-3", "random-4", "random-5", "random-6"],
    )
    def test_no_update_reaches_the_search_cap(self, inst, monkeypatch):
        # on nearest-center assignments every update closes its duality gap
        # within _MAX_SEARCHES, so a higher cap changes no byte
        for k in (3, 6, 10):
            capped = socially_fair_centers(inst, k, 0)
            monkeypatch.setattr(centers_mod, "_MAX_SEARCHES", 1000)
            free = socially_fair_centers(inst, k, 0)
            monkeypatch.undo()
            assert free.centers.tobytes() == capped.centers.tobytes()
            assert free.score == capped.score

    @pytest.mark.parametrize(
        "inst",
        [census_like(400, 3, seed=1)]
        + [random_instance(300, 3, H, seed=H) for H in range(3, 7)],
        ids=["census", "random-3", "random-4", "random-5", "random-6"],
    )
    def test_updates_match_epigraph_reference(self, inst, monkeypatch):
        # on nearest-center assignments every update is exact: its max group
        # cost is SLSQP's epigraph optimum to 1e-9 relative
        updates = []

        def spy(Xt, colors, counts, assign, dsel, ref, k, var):
            c = _fair_update(Xt, colors, counts, assign, dsel, ref, k, var)
            updates.append((Xt.T, colors, counts, assign, k, c))
            return c

        monkeypatch.setattr(centers_mod, "_fair_update", spy)
        for k in (3, 6, 10):
            socially_fair_centers(inst, k, 0)
        assert len(updates) >= 10
        for X, colors, counts, assign, k, c in updates:
            got = _group_costs(X, colors, assign, counts, c).max()
            want = _epigraph_reference(X, colors, assign, counts, k)
            assert got == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("k", [4, 5, 6])
    def test_costs_at_rounding_level_close_the_gap(self, k, monkeypatch):
        # with k at or near the number of distinct points every group's cost
        # is rounding noise, and the gap closes on the floor _GAP * _EPS
        # times the points' variance, not at the search cap. A cap equal to
        # no other loop's count marks each search loop that ran out
        cap, capped = 97, []
        monkeypatch.setattr(centers_mod, "_MAX_SEARCHES", cap)

        def loop(*args):
            if args != (cap,):
                return range(*args)

            def searches():
                yield from range(cap)
                capped.append(k)

            return searches()

        monkeypatch.setattr(centers_mod, "range", loop, raising=False)
        for seed in range(30):
            rng = np.random.default_rng(seed)
            X = rng.normal(size=(6, 2))[np.arange(90) % 6]
            colors = rng.integers(0, 3, 90)
            socially_fair_centers(Instance(X, colors, ["a", "b", "c"]), k, 0)
        assert capped == []

    @pytest.mark.parametrize(
        "inst",
        [adult_like(1000, seed=11), census_like(1000, 3, seed=23)],
        ids=["adult", "census"],
    )
    def test_gap_floor_does_not_bind_on_real_data(self, inst, monkeypatch):
        # the floor ends only searches at rounding level: without it every
        # byte is the same
        for k in (4, 8, 12):
            for seed in (0, 1):
                floored = socially_fair_centers(inst, k, seed)
                monkeypatch.setattr(centers_mod, "_EPS", 0.0)
                plain = socially_fair_centers(inst, k, seed)
                monkeypatch.undo()
                assert floored.centers.tobytes() == plain.centers.tobytes()
                assert floored.score == plain.score


class TestBestOfRestarts:
    def test_tracks_all_scores(self, small_instance):
        cs = best_of_restarts(small_instance, 3, "vanilla", 4, seed=10)
        assert cs.restart_scores is not None and len(cs.restart_scores) == 4
        assert cs.score == min(cs.restart_scores)
        assert "vanilla" in cs.provenance and "seed=10" in cs.provenance

    def test_deterministic(self, small_instance):
        a = best_of_restarts(small_instance, 3, "weighted", 3, seed=0)
        b = best_of_restarts(small_instance, 3, "weighted", 3, seed=0)
        np.testing.assert_array_equal(a.centers, b.centers)

    def test_more_restarts_never_worse(self, small_instance):
        a = best_of_restarts(small_instance, 4, "vanilla", 2, seed=0)
        b = best_of_restarts(small_instance, 4, "vanilla", 6, seed=0)
        assert b.score <= a.score + 1e-12

    @pytest.mark.parametrize("method", centers_mod.METHODS)
    def test_first_centers_are_the_first_restart(self, small_instance, method):
        # the restart at seed itself is the single run of its heuristic
        inst = small_instance
        single = {
            "vanilla": lambda: lloyd(inst, 3, np.ones(inst.n), 7),
            "weighted": lambda: lloyd(inst, 3, 1.0 / inst.counts[inst.colors], 7),
            "socially_fair": lambda: socially_fair_centers(inst, 3, 7),
        }[method]()
        cs = best_of_restarts(inst, 3, method, 4, seed=7)
        np.testing.assert_array_equal(cs.first_centers, single.centers)
        assert cs.restart_scores[0] == single.score

    def test_bad_method(self, small_instance):
        with pytest.raises(ParamError, match="'fancy'"):
            best_of_restarts(small_instance, 2, "fancy", 1, 0)

    def test_bad_restarts(self, small_instance):
        with pytest.raises(ParamError, match="got 0"):
            best_of_restarts(small_instance, 2, "vanilla", 0, 0)


# -- references: Lloyd's loop as it was before it stopped at fixed points and
# read a (d, n) copy of the features; it also returns its number of
# assignment passes


def _ref_kmeanspp(X, k, w, seed):
    n = len(X)
    rng = np.random.default_rng(seed)
    chosen = np.empty(k, dtype=np.int64)
    chosen[0] = rng.choice(n, p=w / w.sum())
    d2 = cdist(X, X[chosen[0]][None, :], "sqeuclidean")[:, 0]
    for t in range(1, k):
        prob = w * d2
        chosen[t] = rng.choice(n, p=prob / prob.sum())
        d2 = np.minimum(d2, cdist(X, X[chosen[t]][None, :], "sqeuclidean")[:, 0])
    return X[chosen].copy()


def _ref_bin_sums(idx, X, size, weights=None):
    cols = X.T if weights is None else weights * X.T
    return np.stack([np.bincount(idx, c, minlength=size) for c in cols], axis=1)


def _ref_lloyd(inst, k, w, seed, max_iters=100, tol=1e-6):
    X, n = inst.features, inst.n
    centers = _ref_kmeanspp(X, k, w, seed)
    prev_cost = math.inf
    passes = 0
    for _ in range(max_iters):
        passes += 1
        dist = cdist(X, centers, "sqeuclidean")
        assign = np.argmin(dist, axis=1)
        dsel = dist[np.arange(n), assign]
        cost = float((w * dsel).sum())
        empties = np.flatnonzero(np.bincount(assign, minlength=k) == 0).tolist()
        if empties:
            _repair_empty(centers, X, w * dsel, empties)
            prev_cost = math.inf
            continue
        if math.isfinite(prev_cost) and prev_cost - cost <= tol * max(
            prev_cost, 1e-30
        ):
            break
        prev_cost = cost
        wsum = np.bincount(assign, w, minlength=k)
        centers = _ref_bin_sums(assign, X, k, w) / wsum[:, None]
    passes += 1
    dist = cdist(X, centers, "sqeuclidean")
    assign = np.argmin(dist, axis=1)
    return centers, float((w * dist[np.arange(n), assign]).sum()), passes


def _corpus_instance(seed):
    """A random instance with H = 2 or 3, d from 1 to 9, and every third one
    built from a few points repeated many times."""
    rng = np.random.default_rng(seed)
    H = 2 + seed % 2
    d = (1, 2, 5, 9)[seed % 4]
    n = int(rng.integers(40, 160))
    X = rng.normal(size=(n, d)) * rng.random(d) * 4 + rng.integers(0, 4, size=(n, 1))
    if seed % 3 == 0:
        base = rng.normal(size=(14, d))
        X = base[rng.integers(0, len(base), size=n)]
    colors = rng.integers(0, H, size=n)
    colors[:H] = np.arange(H)
    return Instance(X, colors, [f"g{h}" for h in range(H)])


# two instances whose runs from seed 0 empty a cluster and repair it
_REPAIR_LLOYD = Instance(
    np.array(
        [
            [0.7, 6.8], [9.2, 8.6], [6.2, 1.1], [8.3, 8.3], [1.0, 9.8],
            [0.7, 6.8], [9.2, 8.6],
        ]
    ),
    [0, 1, 1, 1, 0, 1, 1],
    ["a", "b"],
)
_REPAIR_SOCIAL = Instance(
    np.array(
        [
            [1.9, 8.2], [7.5, 5.4], [4.1, 0.7], [2.7, 9.8], [2.4, 1.2], [1.4, 9.8],
            [1.3, 0.3], [9.7, 2.5], [1.9, 8.2], [7.5, 5.4], [4.1, 0.7], [2.7, 9.8],
        ]
    ),
    [0, 1, 0, 1, 0, 1, 1, 1, 0, 1, 1, 1],
    ["a", "b"],
)


def _count_passes(monkeypatch):
    """A list that grows by one per assignment pass (`centers._assign` call)
    of the center runs made after this."""
    calls = []

    def spy(centers, X):
        calls.append(None)
        return _assign(centers, X)

    monkeypatch.setattr(centers_mod, "_assign", spy)
    return calls


def _assert_lloyd_matches(monkeypatch, inst, k, w, seed, max_iters=100, tol=1e-6):
    """lloyd's run against the reference's: the centers, the score, and
    lloyd's passes, at most the reference's. Returns the run, its passes and
    the reference's."""
    monkeypatch.setattr(centers_mod, "_MAX_ITERS", max_iters)
    monkeypatch.setattr(centers_mod, "_TOL", tol)
    calls = _count_passes(monkeypatch)
    cs = lloyd(inst, k, w, seed)
    centers, score, passes = _ref_lloyd(inst, k, w, seed, max_iters, tol)
    assert np.array_equal(cs.centers, centers)
    assert cs.score == score
    assert cs.restart_scores == [cs.score]
    assert 1 <= len(calls) <= passes
    return cs, len(calls), passes


class TestMatchesReference:
    @pytest.mark.parametrize("seed", range(22))
    def test_random_instances(self, seed, monkeypatch):
        inst = _corpus_instance(seed)
        k = 2 + seed % 11
        max_iters = (100, 100, 100, 3, 1)[seed % 5]
        for w in (np.ones(inst.n), 1.0 / inst.counts[inst.colors]):
            _assert_lloyd_matches(monkeypatch, inst, k, w, seed, max_iters)

    def test_repaired_empty_clusters(self, monkeypatch):
        calls = []

        def spy(centers, X, cost, empties):
            calls.append(list(empties))
            _repair_empty(centers, X, cost, empties)

        monkeypatch.setattr(centers_mod, "_repair_empty", spy)
        ones = np.ones(_REPAIR_LLOYD.n)
        _assert_lloyd_matches(monkeypatch, _REPAIR_LLOYD, 3, ones, 0)
        assert calls
        calls.clear()
        cs = socially_fair_centers(_REPAIR_SOCIAL, 4, 0)
        assert calls
        # the repaired run still scores the centers it returns
        X, colors = _REPAIR_SOCIAL.features, _REPAIR_SOCIAL.colors
        dsel = cdist(X, cs.centers, "sqeuclidean").min(axis=1)
        want = (np.bincount(colors, dsel) / _REPAIR_SOCIAL.counts).max()
        assert cs.score == pytest.approx(want, rel=1e-12)

    def test_lloyd_stops_at_fixed_point(self, monkeypatch):
        # the reference takes one more update, which repeats the centers, and
        # one more assignment pass to score them
        inst = random_instance(60, 3, 3, seed=0)
        for tol in (1e-6, 0.0):
            _, got, passes = _assert_lloyd_matches(
                monkeypatch, inst, 3, np.ones(inst.n), 0, tol=tol
            )
            assert got == passes - 2

    def test_lloyd_stops_at_relative_tolerance(self, monkeypatch):
        # here the score improves by at most _TOL relative while points still
        # move: the loop stops before the fixed point it reaches at tol 0, and
        # the reference, which stops by the same rule, takes only its scoring
        # pass more
        inst = adult_like(10000, seed=11)
        ones = np.ones(inst.n)
        cs, got, passes = _assert_lloyd_matches(monkeypatch, inst, 4, ones, 0)
        assert got == passes - 1
        fixed, got_fixed, passes = _assert_lloyd_matches(
            monkeypatch, inst, 4, ones, 0, tol=0.0
        )
        assert got_fixed == passes - 2
        assert got < got_fixed
        assert fixed.score <= cs.score

    @pytest.mark.parametrize("method", ["vanilla", "weighted", "socially_fair"])
    def test_best_of_restarts(self, small_instance, method, monkeypatch):
        inst = small_instance
        calls = _count_passes(monkeypatch)
        got = best_of_restarts(inst, 4, method, 3, seed=5)
        total = len(calls)
        refs = []
        for s in range(5, 8):
            calls.clear()
            if method == "socially_fair":
                # no reference loop: each restart is one run
                cs = socially_fair_centers(inst, 4, s)
                refs.append((cs.centers, cs.score, len(calls)))
            else:
                w = np.ones(inst.n)
                if method == "weighted":
                    w = 1.0 / inst.counts[inst.colors]
                lloyd(inst, 4, w, s)
                ran = len(calls)
                centers, score, passes = _ref_lloyd(inst, 4, w, s)
                assert 1 <= ran <= passes
                refs.append((centers, score, ran))
        assert got.restart_scores == [score for _, score, _ in refs]
        # the restarts are these three runs, pass for pass
        assert total == sum(ran for _, _, ran in refs)
        best = min(range(3), key=lambda r: refs[r][1])
        assert np.array_equal(got.centers, refs[best][0]) and got.score == refs[best][1]


def _argmin_nearest(dist):
    return dist.argmin(axis=0), dist.min(axis=0)


class TestNearestInContext:
    """The Lloyd loops and the set-ups give the same bytes when the modules
    that read `metrics.nearest` read the argmin/min reference instead."""

    @staticmethod
    def _instance(name):
        if name == "adult":
            return adult_like(600, seed=3)
        if name == "census":
            return census_like(600, 3, seed=4)
        # integer coordinates: many points tie between centers
        inst = census_like(400, 3, seed=5)
        return Instance(np.round(inst.features), inst.colors, inst.color_names)

    @staticmethod
    def _runs(inst, k):
        out = []
        for seed in (0, 1):
            for w in (np.ones(inst.n), 1.0 / inst.counts[inst.colors]):
                cs = lloyd(inst, k, w, seed)
                out += [cs.centers, np.array(cs.score)]
            cs = socially_fair_centers(inst, k, seed)
            setup = LPSetup(inst, Params.with_delta(inst, k, 0.5, 0.01), cs.centers)
            out += [cs.centers, np.array(cs.score), setup.near]
        return [(a.dtype, a.shape, a.tobytes()) for a in out]

    @pytest.mark.parametrize("k", [1, 4, 9, 15])
    @pytest.mark.parametrize("data", ["adult", "census", "integer"])
    def test_same_bytes_as_argmin(self, monkeypatch, data, k):
        inst = self._instance(data)
        got = self._runs(inst, k)
        monkeypatch.setattr(centers_mod, "nearest", _argmin_nearest)
        monkeypatch.setattr(lp_mod, "nearest", _argmin_nearest)
        assert self._runs(inst, k) == got
