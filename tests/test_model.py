from __future__ import annotations

import numpy as np
import pytest

from datagen import random_instance, separated_instance, write_csv

from welfair.errors import (
    DataError,
    EmptyCellError,
    MissingColumnError,
    NonFiniteCellError,
    NonNumericCellError,
    NormalizationError,
    ParamError,
    SingleColorError,
)
from welfair.centers import lloyd
from welfair.metrics import pairwise_pow, violation
from welfair.model import (
    Instance,
    Params,
    Solution,
    apply_normalization,
    load_instance,
    normalization_factor,
)


def _write(tmp_path, text):
    path = tmp_path / "data.csv"
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoadInstance:
    def test_happy_path(self, tmp_path):
        path = _write(tmp_path, "x,y,g\n1.0,2.0,a\n3.5,-1.0,b\n0.25,0,a\n")
        inst = load_instance(path, ["x", "y"], "g")
        assert inst.n == 3 and inst.dim == 2
        np.testing.assert_allclose(
            inst.features, [[1.0, 2.0], [3.5, -1.0], [0.25, 0.0]]
        )
        assert inst.color_names == ["a", "b"]
        assert inst.colors.tolist() == [0, 1, 0]

    def test_color_order_is_first_appearance(self, tmp_path):
        path = _write(tmp_path, "x,g\n1,zz\n2,aa\n3,zz\n4,mm\n")
        inst = load_instance(path, ["x"], "g")
        assert inst.color_names == ["zz", "aa", "mm"]

    def test_missing_column(self, tmp_path):
        path = _write(tmp_path, "x,g\n1,a\n2,b\n")
        with pytest.raises(MissingColumnError) as ei:
            load_instance(path, ["x", "y"], "g")
        assert "y" in str(ei.value)

    def test_missing_group_column(self, tmp_path):
        path = _write(tmp_path, "x,g\n1,a\n")
        with pytest.raises(MissingColumnError):
            load_instance(path, ["x"], "sex")

    def test_empty_cell_names_column_and_row(self, tmp_path):
        path = _write(tmp_path, "x,y,g\n1,2,a\n3,,b\n")
        with pytest.raises(EmptyCellError) as ei:
            load_instance(path, ["x", "y"], "g")
        assert ei.value.column == "y" and ei.value.row == 2

    def test_empty_group_cell(self, tmp_path):
        path = _write(tmp_path, "x,g\n1,a\n2, \n")
        with pytest.raises(EmptyCellError) as ei:
            load_instance(path, ["x"], "g")
        assert ei.value.column == "g" and ei.value.row == 2

    def test_non_numeric_cell(self, tmp_path):
        path = _write(tmp_path, "x,g\n1,a\nhello,b\n")
        with pytest.raises(NonNumericCellError) as ei:
            load_instance(path, ["x"], "g")
        assert ei.value.row == 2 and "hello" in str(ei.value)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_cell(self, tmp_path, cell):
        path = _write(tmp_path, f"x,g\n1,a\n{cell},b\n")
        with pytest.raises(NonFiniteCellError) as ei:
            load_instance(path, ["x"], "g")
        assert ei.value.column == "x" and ei.value.row == 2

    def test_single_color_rejected(self, tmp_path):
        path = _write(tmp_path, "x,g\n1,a\n2,a\n3,a\n")
        with pytest.raises(SingleColorError):
            load_instance(path, ["x"], "g")

    def test_whitespace_stripped(self, tmp_path):
        path = _write(tmp_path, "x,g\n 1.5 , a \n2,b\n")
        inst = load_instance(path, ["x"], "g")
        assert inst.features[0, 0] == 1.5
        assert inst.color_names == ["a", "b"]

    def test_roundtrip_via_writer(self, tmp_path):
        inst = random_instance(40, 3, 2, seed=9)
        feats = write_csv(inst, str(tmp_path / "rt.csv"))
        back = load_instance(str(tmp_path / "rt.csv"), feats, "group")
        np.testing.assert_allclose(back.features, inst.features)
        # ids may be renumbered (first-appearance order); names per point match
        orig = [inst.color_names[c] for c in inst.colors]
        got = [back.color_names[c] for c in back.colors]
        assert got == orig


class TestInstance:
    def test_counts_and_proportions(self):
        inst = Instance(np.zeros((5, 1)), [0, 1, 0, 0, 1], ["a", "b"])
        assert inst.counts.tolist() == [3, 2]
        np.testing.assert_allclose(inst.proportions, [0.6, 0.4])

    def test_points_of(self):
        inst = Instance(np.zeros((4, 1)), [1, 0, 1, 0], ["a", "b"])
        assert inst.points_of(1).tolist() == [0, 2]

    def test_shape_mismatch(self):
        with pytest.raises(DataError, match=r"\(3, 2\).*\(2,\)"):
            Instance(np.zeros((3, 2)), [0, 1], ["a", "b"])
        with pytest.raises(DataError, match=r"2-d.*\(3,\)"):
            Instance(np.zeros(3), [0, 1, 1], ["a", "b"])
        with pytest.raises(DataError, match=r"\(3, 1\).*\(3, 1\)"):
            Instance(np.zeros((3, 1)), [[0], [1], [1]], ["a", "b"])

    def test_color_id_out_of_range(self):
        with pytest.raises(DataError, match="color id 5"):
            Instance(np.zeros((3, 1)), [0, 1, 5], ["a", "b"])
        with pytest.raises(DataError, match="color id -1"):
            Instance(np.zeros((3, 1)), [0, -1, 1], ["a", "b"])

    def test_declared_color_without_points(self):
        with pytest.raises(DataError, match="'c' has no points"):
            Instance(np.zeros((3, 1)), [0, 1, 0], ["a", "b", "c"])

    def test_subsample_dropping_a_color(self):
        colors = np.zeros(40, dtype=np.int64)
        colors[-1] = 1
        inst = Instance(np.arange(40.0)[:, None], colors, ["a", "b"])
        with pytest.raises(DataError, match="'b' has no points"):
            inst.subsample(5, seed=0)  # this draw misses the one "b"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features(self, bad):
        X = np.zeros((3, 2))
        X[1, 1] = bad
        with pytest.raises(DataError, match="feature 1 of point 1"):
            Instance(X, [0, 1, 0], ["a", "b"])

    def test_subsample_deterministic(self):
        inst = random_instance(50, 2, 3, seed=1)
        a = inst.subsample(20, seed=4)
        b = inst.subsample(20, seed=4)
        np.testing.assert_array_equal(a.features, b.features)
        assert a.n == 20
        assert a.color_names == inst.color_names

    def test_subsample_noop_when_large(self):
        inst = random_instance(10, 2, 2, seed=1)
        assert inst.subsample(10, seed=0) is inst
        assert inst.subsample(99, seed=0) is inst


class TestParams:
    def test_with_delta_sets_proportional_slack(self):
        inst = Instance(np.zeros((4, 1)), [0, 0, 0, 1], ["a", "b"])
        params = Params.with_delta(inst, 2, 0.5, delta=0.2)
        np.testing.assert_allclose(params.alpha, [0.15, 0.05])
        np.testing.assert_allclose(params.beta, [0.15, 0.05])

    def test_validate_accepts_good(self, tiny_instance):
        Params.with_delta(tiny_instance, 3, 0.5, 0.1).validate(tiny_instance)

    @pytest.mark.parametrize("p", [0, 3, -1])
    def test_bad_p(self, tiny_instance, p):
        params = Params.with_delta(tiny_instance, 2, 0.5, 0.0, p=2)
        params.p = p
        with pytest.raises(ParamError):
            params.validate(tiny_instance)

    @pytest.mark.parametrize("lam", [-0.1, 1.1])
    def test_bad_lambda(self, tiny_instance, lam):
        params = Params.with_delta(tiny_instance, 2, lam)
        with pytest.raises(ParamError):
            params.validate(tiny_instance)

    @pytest.mark.parametrize("k", [0, 13])
    def test_bad_k(self, tiny_instance, k):
        params = Params.with_delta(tiny_instance, k, 0.5)
        with pytest.raises(ParamError):
            params.validate(tiny_instance)

    def test_alpha_shape_checked(self, tiny_instance):
        params = Params(k=2, lam=0.5, alpha=np.zeros(5), beta=np.zeros(2))
        with pytest.raises(ParamError):
            params.validate(tiny_instance)

    def test_negative_slack_rejected(self, tiny_instance):
        params = Params(
            k=2, lam=0.5, alpha=np.array([-0.1, 0.0]), beta=np.zeros(2)
        )
        with pytest.raises(ParamError):
            params.validate(tiny_instance)

    def test_upper_slack_capped_at_one(self):
        inst = Instance(np.zeros((4, 1)), [0, 0, 0, 1], ["a", "b"])
        params = Params(
            k=2, lam=0.5, alpha=np.array([0.3, 0.0]), beta=np.zeros(2)
        )
        with pytest.raises(ParamError):  # r_a + alpha_a = 1.05 > 1
            params.validate(inst)

    def test_lower_slack_floor_at_zero(self):
        inst = Instance(np.zeros((4, 1)), [0, 0, 0, 1], ["a", "b"])
        params = Params(
            k=2, lam=0.5, alpha=np.zeros(2), beta=np.array([0.0, 0.5])
        )
        with pytest.raises(ParamError):  # r_b - beta_b = -0.25 < 0
            params.validate(inst)

    @pytest.mark.parametrize("tol", [1e-10, 1e-7, 1e-3])
    def test_lp_tolerance_accepted(self, tiny_instance, tol):
        params = Params.with_delta(tiny_instance, 2, 0.5, lp_tolerance=tol)
        params.validate(tiny_instance)

    @pytest.mark.parametrize("tol", [1e-12, 0.0, -1e-7, float("nan"), float("inf")])
    def test_lp_tolerance_rejected(self, tiny_instance, tol):
        params = Params.with_delta(tiny_instance, 2, 0.5, lp_tolerance=tol)
        with pytest.raises(ParamError, match="lp_tolerance"):
            params.validate(tiny_instance)


class TestSolution:
    def test_cluster_sizes_counts_empties(self):
        sol = Solution(np.zeros((3, 2)), [0, 0, 2, 2, 2])
        assert sol.k == 3
        assert sol.cluster_sizes().tolist() == [2, 0, 3]


class TestNormalization:
    def test_factor_positive_and_deterministic(self):
        inst = random_instance(80, 2, 2, seed=2)
        f1 = normalization_factor(inst, [2, 3], mode="rawlsian", seed=0)
        f2 = normalization_factor(inst, [2, 3], mode="rawlsian", seed=0)
        assert f1 == f2 and f1 > 0

    @pytest.mark.parametrize("seed", [1, 4, 9])
    @pytest.mark.parametrize("mode", ["rawlsian", "utilitarian"])
    def test_factor_matches_per_violation_formula(self, seed, mode):
        # numerator / sum_h sum_i |C_i| Delta(h, i) / n_h, summed per
        # cluster and color through metrics.violation, averaged over k
        inst = random_instance(90, 2, 3, seed=seed)
        counts = inst.counts
        factors = []
        for k in (2, 3, 5):
            cs = lloyd(inst, k, np.ones(inst.n), seed=0)
            dist = pairwise_pow(inst.features, cs.centers, 2)
            assign = np.argmin(dist, axis=1)
            dsel = dist[np.arange(inst.n), assign]
            if mode == "rawlsian":
                num = dsel.sum() / inst.n
            else:
                num = sum(dsel[inst.colors == h].sum() / counts[h] for h in range(3))
            sol = Solution(cs.centers, assign)
            params0 = Params(k=k, lam=0.0, alpha=np.zeros(3), beta=np.zeros(3))
            sizes = np.bincount(assign, minlength=k)
            den = sum(
                sum(sizes[i] * violation(inst, sol, params0, h, i) for i in range(k))
                / counts[h]
                for h in range(3)
            )
            factors.append(num / den)
        got = normalization_factor(inst, [2, 3, 5], mode=mode, seed=0)
        assert got == pytest.approx(float(np.mean(factors)), rel=1e-12)

    def test_modes_differ_in_general(self):
        inst = random_instance(80, 2, 3, seed=7)
        fr = normalization_factor(inst, [3], mode="rawlsian")
        fu = normalization_factor(inst, [3], mode="utilitarian")
        assert fr != fu

    def test_apply_scales_squared_distances(self):
        inst = random_instance(30, 2, 2, seed=3)
        scaled = apply_normalization(inst, 4.0)
        np.testing.assert_allclose(scaled.features, inst.features / 2.0)
        # squared pairwise distances shrink by exactly the factor
        d0 = np.sum((inst.features[0] - inst.features[1]) ** 2)
        d1 = np.sum((scaled.features[0] - scaled.features[1]) ** 2)
        assert d1 == pytest.approx(d0 / 4.0)

    def test_apply_rejects_bad_factor(self, tiny_instance):
        with pytest.raises(ValueError):
            apply_normalization(tiny_instance, 0.0)
        with pytest.raises(ValueError):
            apply_normalization(tiny_instance, float("nan"))

    def test_balanced_instance_raises(self):
        # perfectly color-balanced mirror-image data: every vanilla cluster
        # ends up exactly proportional, so the violation denominator is zero
        X = np.array([[0.0], [0.0], [10.0], [10.0]])
        inst = Instance(X, [0, 1, 0, 1], ["a", "b"])
        with pytest.raises(NormalizationError):
            normalization_factor(inst, [2])

    def test_single_cluster_non_dyadic_proportion_raises(self):
        # at k = 1 the one cluster holds every point, so it is exactly
        # proportional; r = 0.57 is not exact in binary, and the violation
        # must still come out 0 rather than a rounding residue
        rng = np.random.default_rng(0)
        inst = Instance(rng.normal(size=(100, 2)), [0] * 57 + [1] * 43, ["a", "b"])
        with pytest.raises(NormalizationError):
            normalization_factor(inst, [1])

    def test_zero_distance_geometry_gives_zero_factor(self):
        # every point sits exactly on a site: vanilla cost 0, factor 0, and
        # apply_normalization refuses it
        inst = separated_instance(40, theta=0.2, seed=0)
        f = normalization_factor(inst, [2])
        assert f == 0.0
        with pytest.raises(ValueError):
            apply_normalization(inst, f)

    def test_empty_k_range_rejected(self, tiny_instance):
        with pytest.raises(ValueError):
            normalization_factor(tiny_instance, [])
