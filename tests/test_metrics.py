from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from datagen import random_instance

from welfair.errors import ParamError
from welfair.metrics import (
    additive_constants,
    approx_constants,
    disutilities,
    distance_pow,
    group_costs,
    pairwise_pow,
    report_from_distances,
    socially_fair_cost,
    violation,
    weighted_cost,
)
from welfair.model import Instance, Params, Solution


class TestDistancePow:
    def test_euclidean_p2(self):
        assert distance_pow(np.array([0.0, 0.0]), np.array([3.0, 4.0]), 2) == 25.0

    def test_euclidean_p1(self):
        assert distance_pow(np.array([0.0, 0.0]), np.array([3.0, 4.0]), 1) == 5.0

    def test_hamming_counts_coordinates(self):
        a = np.array([1.0, 0.0, 1.0, 1.0])
        b = np.array([1.0, 1.0, 0.0, 1.0])
        assert distance_pow(a, b, 1, metric="hamming") == 2.0
        assert distance_pow(a, b, 2, metric="hamming") == 4.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            distance_pow(np.zeros(2), np.zeros(3), 2)

    def test_unknown_metric(self):
        with pytest.raises(ValueError):
            distance_pow(np.zeros(2), np.zeros(2), 2, metric="cosine")


class TestPairwisePow:
    @pytest.mark.parametrize("p", [1, 2])
    def test_matches_scalar_routine(self, p):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(7, 3))
        C = rng.normal(size=(4, 3))
        got = pairwise_pow(X, C, p)
        want = np.array(
            [[distance_pow(x, c, p) for c in C] for x in X]
        )
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("p", [1, 2])
    def test_hamming_matches_scalar_routine(self, p):
        rng = np.random.default_rng(1)
        X = (rng.random((6, 5)) < 0.5).astype(float)
        C = (rng.random((3, 5)) < 0.5).astype(float)
        got = pairwise_pow(X, C, p, metric="hamming")
        want = np.array(
            [[distance_pow(x, c, p, metric="hamming") for c in C] for x in X]
        )
        np.testing.assert_array_equal(got, want)

    def test_hamming_values_are_integral(self):
        rng = np.random.default_rng(2)
        X = (rng.random((10, 8)) < 0.5).astype(float)
        d = pairwise_pow(X, X[:3], 1, metric="hamming")
        np.testing.assert_array_equal(d, np.rint(d))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            pairwise_pow(np.zeros((3, 2)), np.zeros((2, 3)), 2)


def _six_point_instance():
    X = np.zeros((6, 1))
    return Instance(X, [0, 0, 0, 0, 1, 1], ["a", "b"])


class TestViolation:
    # r = [2/3, 1/3]; assignment [0,0,0, 1,1,1]: cluster 0 pure color a,
    # cluster 1 one a and two b.

    def test_zero_slack_values(self):
        inst = _six_point_instance()
        sol = Solution(np.zeros((2, 1)), [0, 0, 0, 1, 1, 1])
        params = Params(k=2, lam=0.5, alpha=np.zeros(2), beta=np.zeros(2))
        assert violation(inst, sol, params, 0, 0) == pytest.approx(1 / 3)
        assert violation(inst, sol, params, 1, 0) == pytest.approx(1 / 3)
        assert violation(inst, sol, params, 0, 1) == pytest.approx(1 / 3)
        assert violation(inst, sol, params, 1, 1) == pytest.approx(1 / 3)

    def test_slack_absorbs_violation(self):
        inst = _six_point_instance()
        sol = Solution(np.zeros((2, 1)), [0, 0, 0, 1, 1, 1])
        params = Params(
            k=2, lam=0.5, alpha=np.full(2, 1 / 3), beta=np.full(2, 1 / 3)
        )
        for h in range(2):
            for i in range(2):
                assert violation(inst, sol, params, h, i) == 0.0

    def test_empty_cluster_is_zero(self):
        inst = _six_point_instance()
        sol = Solution(np.zeros((2, 1)), [0, 0, 0, 0, 0, 0])
        params = Params(k=2, lam=0.5, alpha=np.zeros(2), beta=np.zeros(2))
        assert violation(inst, sol, params, 0, 1) == 0.0
        assert violation(inst, sol, params, 1, 1) == 0.0

    def test_one_sided(self):
        # only the under side binds when beta is zero but alpha is large
        inst = _six_point_instance()
        sol = Solution(np.zeros((2, 1)), [0, 0, 0, 1, 1, 1])
        params = Params(k=2, lam=0.5, alpha=np.full(2, 0.33), beta=np.zeros(2))
        assert violation(inst, sol, params, 1, 0) == pytest.approx(1 / 3)
        assert violation(inst, sol, params, 0, 0) == pytest.approx(
            1 / 3 - 0.33
        )


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
        rep = group_costs(inst, sol, params)
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
        rep = group_costs(small_instance, sol, params)
        for h in range(small_instance.num_colors):
            for i in range(k):
                assert rep.delta[i, h] == pytest.approx(
                    violation(small_instance, sol, params, h, i)
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
        X = np.array([[0.0], [1.0], [4.0], [9.0]])
        inst = Instance(X, [0, 0, 1, 1], ["a", "b"])
        sol = Solution(np.array([[0.0]]), [0, 0, 0, 0])
        # color a: (0 + 1)/2 = 0.5; color b: (16 + 81)/2 = 48.5
        assert socially_fair_cost(inst, sol, p=2) == pytest.approx(48.5)

    def test_weighted_cost_uniform_equals_cost(self, small_instance):
        rng = np.random.default_rng(5)
        k = 3
        sol = Solution(
            rng.normal(size=(k, small_instance.dim)),
            rng.integers(0, k, size=small_instance.n),
        )
        params = Params.with_delta(small_instance, k, 0.5)
        rep = group_costs(small_instance, sol, params)
        assert weighted_cost(small_instance, sol, p=2) == pytest.approx(rep.cost)

    def test_weighted_cost_with_weights(self):
        X = np.array([[0.0], [2.0]])
        inst = Instance(X, [0, 1], ["a", "b"])
        sol = Solution(np.array([[0.0]]), [0, 0])
        w = np.array([10.0, 0.5])
        assert weighted_cost(inst, sol, p=2, weights=w) == pytest.approx(2.0)

    def test_weighted_cost_shape_check(self, tiny_instance):
        sol = Solution(np.zeros((1, tiny_instance.dim)), np.zeros(tiny_instance.n))
        with pytest.raises(ValueError):
            weighted_cost(tiny_instance, sol, weights=np.ones(3))


class TestConstants:
    def test_approx_constants(self):
        assert approx_constants(1) == (2.0, 1.0)
        assert approx_constants(2) == (6.0, 4.0)
        with pytest.raises(ParamError):
            approx_constants(3)

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
