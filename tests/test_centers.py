from __future__ import annotations

import math

import numpy as np
import pytest

from datagen import random_instance

from welfair.centers import (
    _fair_update,
    _repair_empty,
    best_of_restarts,
    kmeanspp_init,
    lloyd,
    socially_fair_centers,
    two_group_center,
)
from welfair.errors import CenterError
from welfair.metrics import pairwise_pow
from welfair.model import Instance


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

    def test_k_exceeds_n(self, tiny_instance):
        with pytest.raises(CenterError):
            kmeanspp_init(tiny_instance, tiny_instance.n + 1, np.ones(tiny_instance.n), 0)

    def test_k_exceeds_distinct_points(self):
        X = np.zeros((5, 2))
        X[0] = [1.0, 1.0]
        inst = Instance(X, [0, 1, 0, 1, 0], ["a", "b"])
        with pytest.raises(CenterError):
            kmeanspp_init(inst, 3, np.ones(5), seed=0)

    def test_weight_validation(self, tiny_instance):
        n = tiny_instance.n
        with pytest.raises(ValueError):
            kmeanspp_init(tiny_instance, 2, np.ones(n - 1), 0)
        with pytest.raises(ValueError):
            kmeanspp_init(tiny_instance, 2, -np.ones(n), 0)
        with pytest.raises(ValueError):
            kmeanspp_init(tiny_instance, 2, np.zeros(n), 0)


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
    def test_one_step_is_masked_weighted_mean(self, small_instance, seed):
        # one iteration assigns to the k-means++ start and moves every
        # center to the weighted mean of its points
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
        got = lloyd(small_instance, 4, w, seed, max_iters=1).centers
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


class TestTwoGroupCenter:
    def test_symmetric_midpoint(self):
        a = np.array([[-1.0]])
        b = np.array([[1.0]])
        c, gamma = two_group_center(a, b, 1, 1)
        assert c[0] == pytest.approx(0.0, abs=1e-8)
        assert gamma == pytest.approx(0.5, abs=1e-8)

    def test_group_size_shifts_crossing(self):
        # fa = (1 - g)^2, fb = 4 g^2 crosses at g = 1/3
        a = np.array([[-1.0]])
        b = np.array([[1.0]])
        c, gamma = two_group_center(a, b, 4, 1)
        assert gamma == pytest.approx(1 / 3, abs=1e-8)
        assert c[0] == pytest.approx(1 / 3, abs=1e-8)

    def test_coincident_means(self):
        a = np.array([[2.0, 3.0], [4.0, 5.0]])
        b = np.array([[3.0, 4.0]])
        c, gamma = two_group_center(a, b, 2, 1)
        np.testing.assert_allclose(c, [3.0, 4.0])
        assert gamma == 1.0

    @pytest.mark.parametrize("seed", range(6))
    def test_beats_grid_search(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(rng.integers(2, 8), 3))
        b = rng.normal(size=(rng.integers(2, 8), 3)) + rng.normal(size=3)
        n_a, n_b = int(rng.integers(5, 20)), int(rng.integers(5, 20))
        c, _ = two_group_center(a, b, n_a, n_b)

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
        c, gamma = two_group_center(a, b, n_a, n_b)
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


def _mw_reference(pts, cols, counts, present, iters=40, eta=0.5):
    # per-point multiplicative-weights center, the reference for the
    # statistics-based update
    w = {int(h): 1.0 for h in present}
    best_val = math.inf
    best_c = pts.mean(axis=0)
    for _ in range(iters):
        pw = np.array([w[int(c)] / counts[int(c)] for c in cols])
        c = (pw[:, None] * pts).sum(axis=0) / pw.sum()
        costs = {}
        for h in present:
            h = int(h)
            costs[h] = float(((pts[cols == h] - c) ** 2).sum()) / counts[h]
        top = max(costs.values())
        if top < best_val:
            best_val = top
            best_c = c
        if top <= 0.0:
            break
        for h in present:
            w[int(h)] *= math.exp(eta * costs[int(h)] / top)
        scale = sum(w.values())
        for h in present:
            w[int(h)] /= scale
    return best_c


class TestFairUpdate:
    @pytest.mark.parametrize("seed", range(5))
    def test_two_groups_match_two_group_center(self, seed):
        rng = np.random.default_rng(seed)
        X, colors, assign = _mixed_clusters(rng, 2)
        counts = np.bincount(colors, minlength=2)
        got = _fair_update(X, colors, counts, assign, 8)
        for i in range(8):
            a = X[(assign == i) & (colors == 0)]
            b = X[(assign == i) & (colors == 1)]
            if len(a) == 0 or len(b) == 0:
                want = X[assign == i].mean(axis=0)
            else:
                want, _ = two_group_center(a, b, counts[0], counts[1])
            np.testing.assert_allclose(got[i], want, rtol=1e-12, atol=1e-12)
        # the coincident-means cluster sits on the shared mean
        np.testing.assert_allclose(
            got[2], X[assign == 2].mean(axis=0), rtol=1e-12, atol=1e-12
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_three_groups_match_per_point_reference(self, seed):
        rng = np.random.default_rng(seed)
        X, colors, assign = _mixed_clusters(rng, 3)
        counts = np.bincount(colors, minlength=3)
        got = _fair_update(X, colors, counts, assign, 8)

        def top(pts, cols, c):
            return max(
                float(((pts[cols == h] - c) ** 2).sum()) / counts[h]
                for h in np.unique(cols)
            )

        for i in range(8):
            pts, cols = X[assign == i], colors[assign == i]
            present = np.unique(cols)
            if len(present) == 1:
                want = pts.mean(axis=0)
            else:
                want = _mw_reference(pts, cols, counts, present)
            # late iterates can tie in max cost to rounding, and the best
            # iterate is then picked by the last bits: compare the value it
            # attains tightly and the center itself loosely
            assert top(pts, cols, got[i]) == pytest.approx(
                top(pts, cols, want), rel=1e-12
            )
            np.testing.assert_allclose(got[i], want, rtol=1e-7, atol=1e-7)


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

    def test_bad_method(self, small_instance):
        with pytest.raises(ValueError):
            best_of_restarts(small_instance, 2, "fancy", 1, 0)

    def test_bad_restarts(self, small_instance):
        with pytest.raises(ValueError):
            best_of_restarts(small_instance, 2, "vanilla", 0, 0)
