from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from datagen import random_instance, violation

from welfair.errors import ParamError
from welfair.metrics import (
    additive_constants,
    disutilities,
    nearest,
    pairwise_pow,
    report_from_distances,
)
from welfair.model import Instance, Params, Solution


class TestDistancePow:
    """d(a, b)^p of a single pair, through pairwise_pow."""

    def test_euclidean_p2(self):
        assert pairwise_pow(np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]]), 2) == 25.0

    def test_euclidean_p1(self):
        assert pairwise_pow(np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]]), 1) == 5.0

    def test_shape_mismatch(self):
        with pytest.raises(ParamError, match="dimension mismatch: 2 vs 3"):
            pairwise_pow(np.zeros((1, 2)), np.zeros((1, 3)), 2)


class TestPairwisePow:
    @pytest.mark.parametrize("p", [1, 2])
    def test_matches_scalar_routine(self, p):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(7, 3))
        C = rng.normal(size=(4, 3))
        got = pairwise_pow(X, C, p)
        want = np.array([[np.linalg.norm(x - c) ** p for c in C] for x in X])
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ParamError, match="dimension mismatch: 2 vs 3"):
            pairwise_pow(np.zeros((3, 2)), np.zeros((2, 3)), 2)


class TestNearest:
    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("seed", range(10))
    def test_first_minimum_of_each_column(self, seed, p):
        # rounded coordinates and centers drawn from the points tie often
        rng = np.random.default_rng(seed)
        X = rng.integers(0, 3, size=(40, 2)).astype(np.float64)
        dist = pairwise_pow(X[rng.choice(40, 6)], X, p)
        idx, dmin = nearest(dist)
        assert ((dist == dmin).sum(axis=0) > 1).any()
        np.testing.assert_array_equal(idx, dist.argmin(axis=0))
        np.testing.assert_array_equal(dmin, dist.min(axis=0))

    @pytest.mark.parametrize("k", [1, 2, 255, 256, 300])
    def test_rank_dtype_edges(self, k):
        # the row ranks k, ..., 1 are uint8 up to k = 255 and uint16 from
        # 256; columns of ties, of one value, with +inf or -inf entries, and
        # with the minimum only in the last row
        rng = np.random.default_rng(k)
        dist = rng.integers(0, 3, size=(k, 60)).astype(np.float64)
        dist[rng.random(dist.shape) < 0.2] = np.inf
        dist[:, 0] = 7.0
        dist[:, 1] = np.inf
        dist[:, 2] = 5.0
        dist[-1, 2] = 4.0
        dist[k // 2 :, 3] = -np.inf
        dist[rng.integers(k), 4] = -np.inf
        idx, dmin = nearest(dist)
        assert idx.dtype == np.intp
        np.testing.assert_array_equal(idx, dist.argmin(axis=0))
        np.testing.assert_array_equal(dmin, dist.min(axis=0))
        assert idx[0] == idx[1] == 0 and idx[2] == k - 1 and idx[3] == k // 2


def _six_point_instance():
    X = np.zeros((6, 1))
    return Instance(X, [0, 0, 0, 0, 1, 1], ["a", "b"])


def _masses(instance, assignment, k):
    """(k, H) (cluster, color) masses of an integral assignment."""
    H = instance.num_colors
    idx = np.asarray(assignment) * H + instance.colors
    return np.bincount(idx, minlength=k * H).reshape(k, H)


class TestViolation:
    # r = [2/3, 1/3]; assignment [0,0,0, 1,1,1]: cluster 0 pure color a,
    # cluster 1 one a and two b, both of size 3. t[i, h] is |C_i| times
    # color h's violation in cluster i.

    @staticmethod
    def _t(params, assignment):
        inst = _six_point_instance()
        mass = _masses(inst, assignment, params.k)
        return disutilities(inst, params, mass, np.zeros(inst.num_colors))[0]

    def test_zero_slack_values(self):
        params = Params(k=2, lam=0.5, alpha=np.zeros(2), beta=np.zeros(2))
        t = self._t(params, [0, 0, 0, 1, 1, 1])
        assert t[0, 0] == pytest.approx(3 * 1 / 3)
        assert t[0, 1] == pytest.approx(3 * 1 / 3)
        assert t[1, 0] == pytest.approx(3 * 1 / 3)
        assert t[1, 1] == pytest.approx(3 * 1 / 3)

    def test_slack_absorbs_violation(self):
        params = Params(
            k=2, lam=0.5, alpha=np.full(2, 1 / 3), beta=np.full(2, 1 / 3)
        )
        t = self._t(params, [0, 0, 0, 1, 1, 1])
        for h in range(2):
            for i in range(2):
                assert t[i, h] == 0.0

    def test_empty_cluster_is_zero(self):
        params = Params(k=2, lam=0.5, alpha=np.zeros(2), beta=np.zeros(2))
        t = self._t(params, [0, 0, 0, 0, 0, 0])
        assert t[1, 0] == 0.0
        assert t[1, 1] == 0.0

    def test_one_sided(self):
        # only the under side binds when beta is zero but alpha is large
        params = Params(k=2, lam=0.5, alpha=np.full(2, 0.33), beta=np.zeros(2))
        t = self._t(params, [0, 0, 0, 1, 1, 1])
        assert t[0, 1] == pytest.approx(3 * 1 / 3)
        assert t[0, 0] == pytest.approx(3 * (1 / 3 - 0.33))


def _report_oracle(instance, params, dist, assignment):
    """Slow per-definition evaluation used to pin the vectorized report."""
    n, H = instance.n, instance.num_colors
    k = dist.shape[1]
    counts = instance.counts
    sol = Solution(np.zeros((k, instance.dim)), assignment)
    D = np.zeros(H)
    for j in range(n):
        D[instance.colors[j]] += dist[j, assignment[j]]
    sizes = np.bincount(assignment, minlength=k)
    V = np.zeros(H)
    for h in range(H):
        for i in range(k):
            V[h] += sizes[i] * violation(instance, sol, params, h, i)
    disu = (params.lam * D + (1 - params.lam) * V) / counts
    return D, V, disu


class TestGroupReport:
    def test_hand_computed(self):
        inst = _six_point_instance()
        sol = Solution(np.zeros((2, 1)), [0, 0, 0, 1, 1, 1])
        params = Params(k=2, lam=0.5, alpha=np.zeros(2), beta=np.zeros(2))
        dist = pairwise_pow(inst.features, sol.centers, params.p)
        rep = report_from_distances(inst, params, dist, sol.assignment)
        np.testing.assert_allclose(rep.D, [0.0, 0.0])
        np.testing.assert_allclose(rep.V, [2.0, 2.0])
        np.testing.assert_allclose(rep.disu, [0.25, 0.5])
        assert rep.R == pytest.approx(0.5)
        assert rep.U == pytest.approx(0.75)
        assert rep.cost == 0.0

    def test_delta_matrix_matches_violation(self, small_instance):
        rng = np.random.default_rng(4)
        k = 3
        assignment = rng.integers(0, k, size=small_instance.n)
        centers = rng.normal(size=(k, small_instance.dim))
        sol = Solution(centers, assignment)
        params = Params.with_delta(small_instance, k, 0.4, 0.05)
        mass = _masses(small_instance, assignment, k)
        D = np.zeros(small_instance.num_colors)
        t = disutilities(small_instance, params, mass, D)[0]
        sizes = np.bincount(assignment, minlength=k)
        for h in range(small_instance.num_colors):
            for i in range(k):
                assert t[i, h] == pytest.approx(
                    sizes[i] * violation(small_instance, sol, params, h, i)
                )

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        lam=st.floats(0.0, 1.0),
        k=st.integers(1, 5),
        delta=st.floats(0.0, 0.5),
    )
    def test_matches_oracle(self, seed, lam, k, delta):
        rng = np.random.default_rng(seed)
        inst = random_instance(20, 2, int(rng.integers(2, 4)), seed)
        params = Params.with_delta(inst, k, lam, delta)
        assignment = rng.integers(0, k, size=inst.n)
        dist = rng.random((inst.n, k))
        rep = report_from_distances(inst, params, dist, assignment)
        D, V, disu = _report_oracle(inst, params, dist, assignment)
        np.testing.assert_allclose(rep.D, D, atol=1e-12)
        np.testing.assert_allclose(rep.V, V, atol=1e-12)
        np.testing.assert_allclose(rep.disu, disu, atol=1e-12)
        assert rep.R == pytest.approx(disu.max())
        assert rep.U == pytest.approx(disu.sum())
        assert rep.cost == pytest.approx(rep.D.sum())

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        lam=st.floats(0.0, 1.0),
        k=st.integers(1, 6),
        up=st.floats(0.0, 0.5),
        down=st.floats(0.0, 0.5),
    )
    def test_disutilities_batch_matches_oracle(self, seed, lam, k, up, down):
        rng = np.random.default_rng(seed)
        inst = random_instance(12, 2, int(rng.integers(2, 4)), seed)
        r = inst.proportions
        params = Params(k=k, lam=lam, alpha=up * r, beta=down * r)
        dist = rng.random((inst.n, k))
        batch = rng.integers(0, k, size=(6, inst.n))
        batch[0] = 0  # every cluster but the first is empty
        batch[1] = rng.integers(0, (k + 1) // 2, size=inst.n)
        mass = np.zeros((len(batch), k, inst.num_colors))
        for b, assignment in enumerate(batch):
            np.add.at(mass[b], (assignment, inst.colors), 1.0)
        want = [_report_oracle(inst, params, dist, a) for a in batch]
        D, V, disu = (np.stack(col) for col in zip(*want))
        t, got_V, got_disu = disutilities(inst, params, mass, D)
        assert t.shape == mass.shape
        np.testing.assert_allclose(got_V, V, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got_disu, disu, rtol=0, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), k=st.integers(1, 6))
    def test_violation_upper_bound_zero_slack(self, seed, k):
        # with no slack, per-point violation mass V_h / n_h never exceeds
        # 2 * (1 - r_h): each point contributes at most 1 to its own color's
        # over side and at most 1 - r_h ... bounded by the two-sided sum
        rng = np.random.default_rng(seed)
        inst = random_instance(24, 2, int(rng.integers(2, 4)), seed + 1)
        params = Params(
            k=k,
            lam=0.5,
            alpha=np.zeros(inst.num_colors),
            beta=np.zeros(inst.num_colors),
        )
        assignment = rng.integers(0, k, size=inst.n)
        dist = np.zeros((inst.n, k))
        rep = report_from_distances(inst, params, dist, assignment)
        for h in range(inst.num_colors):
            assert rep.V[h] / inst.counts[h] <= 2.0 * (
                1.0 - inst.proportions[h]
            ) + 1e-12


class TestAggregateCosts:
    def test_socially_fair_cost(self):
        # at lambda = 1, R is the socially fair cost: the largest per-color
        # average d^p
        X = np.array([[0.0], [1.0], [4.0], [9.0]])
        inst = Instance(X, [0, 0, 1, 1], ["a", "b"])
        sol = Solution(np.array([[0.0]]), [0, 0, 0, 0])
        params = Params(k=1, lam=1.0, alpha=np.zeros(2), beta=np.zeros(2))
        # color a: (0 + 1)/2 = 0.5; color b: (16 + 81)/2 = 48.5
        dist = pairwise_pow(inst.features, sol.centers, params.p)
        rep = report_from_distances(inst, params, dist, sol.assignment)
        assert rep.R == pytest.approx(48.5)


class TestConstants:
    def test_additive_constants_hand_computed(self):
        inst = Instance(np.zeros((5, 1)), [0, 0, 0, 1, 1], ["a", "b"])
        params = Params.with_delta(inst, 2, 0.5)
        c_r, c_u = additive_constants(inst, params)
        # C_R = ((H + 1) / min r) * (k / n) = (3 / 0.4) * 0.4 = 3
        assert c_r == pytest.approx(3.0)
        # C_U = (2k / n) * sum 1/r = 0.8 * (5/3 + 5/2)
        assert c_u == pytest.approx(0.8 * (5 / 3 + 5 / 2))

    def test_additive_constants_scale_with_k(self, small_instance):
        p1 = Params.with_delta(small_instance, 2, 0.5)
        p2 = Params.with_delta(small_instance, 4, 0.5)
        r1 = additive_constants(small_instance, p1)
        r2 = additive_constants(small_instance, p2)
        assert r2[0] == pytest.approx(2 * r1[0])
        assert r2[1] == pytest.approx(2 * r1[1])
