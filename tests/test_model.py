from __future__ import annotations

import re

import numpy as np
import pytest

from datagen import (
    adult_like,
    random_instance,
    separated_instance,
    violation,
    write_csv,
)

from welfair import _highs, centers
from welfair.errors import DataError, ParamError
from welfair.centers import best_of_restarts, lloyd
from welfair.metrics import pairwise_pow
from welfair.pipeline import rawlsian_alg
from welfair.model import (
    LP_TOLERANCE,
    Instance,
    Params,
    Solution,
    apply_normalization,
    load_instance,
    normalization_factor,
    normalization_factors,
    slack,
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
        with pytest.raises(DataError, match="^column 'y' not found in header$"):
            load_instance(path, ["x", "y"], "g")

    def test_missing_group_column(self, tmp_path):
        path = _write(tmp_path, "x,g\n1,a\n")
        with pytest.raises(DataError, match="^column 'sex' not found in header$"):
            load_instance(path, ["x"], "sex")

    def test_empty_cell_names_column_and_row(self, tmp_path):
        path = _write(tmp_path, "x,y,g\n1,2,a\n3,,b\n")
        with pytest.raises(
            DataError, match="^empty cell in column 'y' at data row 2$"
        ):
            load_instance(path, ["x", "y"], "g")

    def test_short_row_reads_an_empty_cell(self, tmp_path):
        # a row that ends before a selected column has that cell empty
        path = _write(tmp_path, "x,y,g\n1,2,a\n3\n")
        with pytest.raises(
            DataError, match="^empty cell in column 'y' at data row 2$"
        ):
            load_instance(path, ["x", "y"], "g")

    def test_blank_lines_skipped_and_not_counted(self, tmp_path):
        path = _write(tmp_path, "x,g\n\n1,a\n\n\n2,b\n\n")
        inst = load_instance(path, ["x"], "g")
        np.testing.assert_array_equal(inst.features[:, 0], [1.0, 2.0])
        path = _write(tmp_path, "x,g\n\n1,a\n\n2,b\n\nnope,a\n")
        with pytest.raises(
            DataError,
            match="^non-numeric value 'nope' in column 'x' at data row 3$",
        ):
            load_instance(path, ["x"], "g")

    def test_repeated_header_name_reads_its_last_column(self, tmp_path):
        path = _write(tmp_path, "x,g,x,g\n1,a,5,c\n2,b,6,d\n3,a,7\n")
        with pytest.raises(
            DataError, match="^empty cell in column 'g' at data row 3$"
        ):
            load_instance(path, ["x"], "g")
        path = _write(tmp_path, "x,g,x,g\n1,a,5,c\n2,b,6,d\n")
        inst = load_instance(path, ["x"], "g")
        np.testing.assert_array_equal(inst.features[:, 0], [5.0, 6.0])
        assert inst.color_names == ["c", "d"]

    def test_empty_group_cell(self, tmp_path):
        path = _write(tmp_path, "x,g\n1,a\n2, \n")
        with pytest.raises(
            DataError, match="^empty cell in column 'g' at data row 2$"
        ):
            load_instance(path, ["x"], "g")

    def test_non_numeric_cell(self, tmp_path):
        path = _write(tmp_path, "x,g\n1,a\nhello,b\n")
        with pytest.raises(
            DataError,
            match="^non-numeric value 'hello' in column 'x' at data row 2$",
        ):
            load_instance(path, ["x"], "g")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_cell(self, tmp_path, cell):
        path = _write(tmp_path, f"x,g\n1,a\n{cell},b\n")
        with pytest.raises(
            DataError,
            match=f"^non-finite value '{cell}' in column 'x' at data row 2$",
        ):
            load_instance(path, ["x"], "g")

    def test_single_color_rejected(self, tmp_path):
        path = _write(tmp_path, "x,g\n1,a\n2,a\n3,a\n")
        with pytest.raises(
            DataError,
            match="^group column 'g' holds a single distinct value 'a'; "
            "need at least two groups$",
        ):
            load_instance(path, ["x"], "g")

    @pytest.mark.parametrize("text", ["x,g\n", "x,g"])
    def test_header_without_data_rows(self, tmp_path, text):
        path = _write(tmp_path, text)
        with pytest.raises(DataError, match="no data rows") as ei:
            load_instance(path, ["x"], "g")
        assert "single distinct value" not in str(ei.value)
        assert path in str(ei.value)

    def test_no_feature_columns_rejected(self, tmp_path):
        path = _write(tmp_path, "x,g\n1,a\n2,b\n")
        with pytest.raises(DataError, match="features have no columns"):
            load_instance(path, [], "g")

    def test_whitespace_stripped(self, tmp_path):
        path = _write(tmp_path, "x,g\n 1.5 , a \n2,b\n")
        inst = load_instance(path, ["x"], "g")
        assert inst.features[0, 0] == 1.5
        assert inst.color_names == ["a", "b"]

    def test_byte_order_mark_dropped(self, tmp_path):
        # spreadsheet "CSV UTF-8" exports start with a byte-order mark
        path = tmp_path / "data.csv"
        path.write_text("x,g\n1.5,a\n2,b\n", encoding="utf-8-sig")
        inst = load_instance(str(path), ["x"], "g")
        np.testing.assert_array_equal(inst.features[:, 0], [1.5, 2.0])
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

    def test_shape_mismatch(self):
        with pytest.raises(DataError, match=r"\(3, 2\).*\(2,\)"):
            Instance(np.zeros((3, 2)), [0, 1], ["a", "b"])
        with pytest.raises(DataError, match=r"2-d.*\(3,\)"):
            Instance(np.zeros(3), [0, 1, 1], ["a", "b"])
        with pytest.raises(DataError, match=r"\(3, 1\).*\(3, 1\)"):
            Instance(np.zeros((3, 1)), [[0], [1], [1]], ["a", "b"])

    def test_repeated_color_name(self):
        # each group's results.csv columns are keyed by its name
        with pytest.raises(DataError, match="^color name 'a' appears more than once$"):
            Instance(np.zeros((3, 1)), [0, 1, 0], ["a", "a"])

    def test_no_feature_columns(self):
        with pytest.raises(DataError, match="features have no columns"):
            Instance(np.zeros((3, 0)), [0, 1, 0], ["a", "b"])

    def test_color_id_out_of_range(self):
        with pytest.raises(DataError, match="color id 5"):
            Instance(np.zeros((3, 1)), [0, 1, 5], ["a", "b"])
        with pytest.raises(DataError, match="color id -1"):
            Instance(np.zeros((3, 1)), [0, -1, 1], ["a", "b"])

    @pytest.mark.parametrize(
        "colors, point, shown",
        [
            ([0, 1.9, 1], 1, "1.9"),
            ([0, np.nan, 1], 1, "nan"),
            (["a", "b", "a"], 0, "'a'"),
            ([0, None, 1], 1, "None"),
        ],
        ids=["fraction", "nan", "str", "none"],
    )
    def test_color_id_not_an_integer(self, colors, point, shown):
        # a float id used to be truncated, 1.9 to 1, and a NaN or a string
        # one, or None, raised a bare numpy error
        with pytest.raises(
            DataError, match=f"^point {point} has color id {shown}, not an integer$"
        ):
            Instance(np.zeros((3, 1)), colors, ["a", "b"])

    def test_whole_float_color_ids(self):
        inst = Instance(np.zeros((3, 1)), [0.0, 1.0, 1.0], ["a", "b"])
        assert inst.colors.dtype == np.int64
        assert inst.colors.tolist() == [0, 1, 1]

    def test_non_numeric_features(self):
        with pytest.raises(DataError, match="^features must be numbers: .*'x'"):
            Instance([[0.0], ["x"], [1.0]], [0, 1, 1], ["a", "b"])

    @pytest.mark.parametrize("side", ["alpha", "beta"])
    def test_non_numeric_slack(self, side):
        with pytest.raises(ParamError, match="^alpha and beta must be numbers: .*'x'"):
            Params(2, 0.5, **{side: "x"})

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

    def test_subsample_of_one_group(self):
        # a one-group instance is no clustering instance for welfair, as a
        # one-group CSV is not: it is rejected when built, before a subsample
        # or a run could take it
        with pytest.raises(
            DataError,
            match=r"^got 1 color name\(s\) \['a'\]; need at least two groups$",
        ):
            Instance(np.arange(10.0)[:, None], np.zeros(10), ["a"])

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

    @pytest.mark.parametrize("size", [10, 30])
    def test_subsample_negative_seed(self, size):
        # numpy's generator would raise a bare ValueError
        inst = random_instance(20, 2, 2, seed=0)
        with pytest.raises(ParamError, match="seed must be at least 0, got -1"):
            inst.subsample(size, -1)


    @pytest.mark.parametrize(
        "size, seed, message",
        [
            (0, 0, "subsample must be at least 1, got 0"),
            (-1, 0, "subsample must be at least 1, got -1"),
            (2.5, 0, "subsample must be an integer, got 2.5"),
            (True, 0, "subsample must be an integer, got True"),
            (10, 1.5, "seed must be an integer, got 1.5"),
        ],
    )
    def test_subsample_size_and_seed_are_integers(self, size, seed, message):
        # numpy raised a bare ValueError on a negative size, and a size of 0
        # drew no point of any color
        inst = random_instance(20, 2, 2, seed=0)
        with pytest.raises(ParamError, match=f"^{re.escape(message)}$"):
            inst.subsample(size, seed)
        assert inst.subsample(np.int64(10), np.int64(1)).n == 10


class TestParams:
    def test_with_delta_sets_proportional_slack(self):
        inst = Instance(np.zeros((4, 1)), [0, 0, 0, 1], ["a", "b"])
        params = Params.with_delta(inst, 2, 0.5, delta=0.2)
        np.testing.assert_allclose(params.alpha, [0.15, 0.05])
        np.testing.assert_allclose(params.beta, [0.15, 0.05])

    def test_validate_accepts_good(self, tiny_instance):
        Params.with_delta(tiny_instance, 3, 0.5, 0.1).validate(tiny_instance)
        Params.with_delta(tiny_instance, np.int64(3), 0.5).validate(tiny_instance)

    @pytest.mark.parametrize("p", [0, 3, -1])
    def test_bad_p(self, tiny_instance, p):
        params = Params.with_delta(tiny_instance, 2, 0.5, 0.0, p=2)
        params.p = p
        with pytest.raises(ParamError):
            params.validate(tiny_instance)

    @pytest.mark.parametrize("field", ["p", "lam"])
    @pytest.mark.parametrize(
        "value, shown",
        [(True, "True"), (np.True_, "True"), (False, "False"), ("0.5", "'0.5'")],
        ids=["bool", "numpy-bool", "false", "str"],
    )
    def test_bool_p_or_lambda_rejected(self, tiny_instance, field, value, shown):
        # True == 1 and False == 0, so a bool used to pass as p = 1 or as
        # lambda = 1 or 0; a string used to fail with a bare TypeError
        params = Params(k=3, lam=0.5, p=2, alpha=np.zeros(2), beta=np.zeros(2))
        setattr(params, field, value)
        name = {"p": "p must be 1 or 2", "lam": "lambda must be a number"}[field]
        message = f"^{name}, got {shown}$"
        with pytest.raises(ParamError, match=message):
            params.validate(tiny_instance)
        with pytest.raises(ParamError, match=message):
            rawlsian_alg(tiny_instance, params)

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

    @pytest.mark.parametrize(
        "k", [2.5, 2.0, True, np.True_, "2"],
        ids=["float", "whole-float", "bool", "numpy-bool", "str"],
    )
    def test_k_must_be_an_integer(self, tiny_instance, k):
        # each used to pass validation, or fail it with a bare TypeError,
        # and die inside numpy
        params = Params.with_delta(tiny_instance, k, 0.5)
        message = re.escape(f"k must be an integer, got {k!r}")
        with pytest.raises(ParamError, match=message):
            params.validate(tiny_instance)
        with pytest.raises(ParamError, match=message):
            rawlsian_alg(tiny_instance, params)

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

    @pytest.mark.parametrize("side", ["alpha", "beta"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_slack_names_the_color(self, tiny_instance, side, value):
        slack = {"alpha": np.zeros(2), "beta": np.zeros(2)}
        slack[side][1] = value
        params = Params(k=2, lam=0.5, **slack)
        with pytest.raises(ParamError, match="must be finite.*'g1'"):
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


class TestSlack:
    @pytest.mark.parametrize(
        "value, want",
        [(0.0, 1e-7), (0.5, 1e-7), (-3.0, 3e-7), (1e6, 0.1)],
    )
    def test_relative_above_one(self, value, want):
        # LP_TOLERANCE times |value|, and LP_TOLERANCE itself below 1
        assert slack(value) == pytest.approx(want, rel=1e-15)

    def test_tolerance_keeps_ten_times_highs_feasibility(self):
        # pricing stops once the LP value is within its slack of a
        # Lagrangian bound that HiGHS's feasibility tolerance can put up to
        # about that much too high
        assert LP_TOLERANCE >= 10 * _highs._FEASIBILITY

    def test_no_tolerance_setting(self, tiny_instance):
        # the tolerance is the constant alone: no Params field or keyword
        with pytest.raises(TypeError, match="lp_tolerance"):
            Params(k=2, lam=0.5, lp_tolerance=1e-6)
        with pytest.raises(TypeError, match="lp_tolerance"):
            Params.with_delta(tiny_instance, 2, 0.5, lp_tolerance=1e-6)
        assert Params.lp_tolerance == LP_TOLERANCE


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
        # cluster and color through datagen.violation, averaged over k
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

    @pytest.mark.parametrize("p", [1, 2])
    def test_normalized_data_has_factor_one(self, p):
        # apply_normalization divides every d^p by the factor, so the
        # factor recomputed on the normalized data is 1
        inst = adult_like(300, seed=3)
        ks = [4, 8]
        vanilla = [lloyd(inst, k, np.ones(inst.n), 0).centers for k in ks]
        for mode, f in normalization_factors(inst, vanilla, p).items():
            scaled = apply_normalization(inst, f, p)
            again = normalization_factor(scaled, ks, p, mode)
            assert again == pytest.approx(1.0, rel=1e-9), mode

    @pytest.mark.parametrize("p", [1, 2])
    def test_factors_from_first_vanilla_restarts(self, p):
        # the sweep reads its factors off each k's vanilla center set; its
        # first restart is normalization_factor's own Lloyd run
        inst = adult_like(300, seed=5)
        ks = [3, 4, 6]
        first = [best_of_restarts(inst, k, "vanilla", 3, 2).first_centers for k in ks]
        got = normalization_factors(inst, first, p)
        for mode in ("rawlsian", "utilitarian"):
            assert got[mode] == normalization_factor(inst, ks, p, mode, 2)
        # an (m, k, dim) array of m equal-k sets gives what their list does
        same_k = [
            best_of_restarts(inst, 4, "vanilla", 1, s).first_centers for s in (1, 2)
        ]
        assert normalization_factors(inst, np.stack(same_k), p) == (
            normalization_factors(inst, same_k, p)
        )

    @pytest.mark.parametrize("empty", [[], np.zeros((0, 3, 2))], ids=["list", "array"])
    def test_factors_need_a_center_set(self, tiny_instance, empty):
        message = "^need the vanilla centers of at least one k$"
        with pytest.raises(ParamError, match=message):
            normalization_factors(tiny_instance, empty)

    @pytest.mark.parametrize("p", [0, 3, True])
    @pytest.mark.parametrize(
        "run",
        [
            lambda inst, p: apply_normalization(inst, 2.0, p),
            lambda inst, p: normalization_factors(inst, [inst.features[:2]], p),
        ],
        ids=["apply", "factors"],
    )
    def test_bad_p_rejected(self, tiny_instance, run, p):
        # Params.validate's rule: p = 0 divided by zero, and p = 3 returned
        with pytest.raises(ParamError, match=f"^p must be 1 or 2, got {p}$"):
            run(tiny_instance, p)

    def test_apply_rejects_bad_factor(self, tiny_instance):
        with pytest.raises(ParamError):
            apply_normalization(tiny_instance, 0.0)
        with pytest.raises(ParamError):
            apply_normalization(tiny_instance, float("nan"))
        with pytest.raises(ParamError, match="factor must be a number, got '2'"):
            apply_normalization(tiny_instance, "2")

    def test_factors_check_each_center_set(self, tiny_instance):
        bad = np.array([["x", "0"], ["1", "2"]])
        with pytest.raises(ParamError, match="^centers must be real numbers"):
            normalization_factors(tiny_instance, [bad])
        with pytest.raises(ParamError, match="^k=0 must lie in"):
            normalization_factors(tiny_instance, [np.zeros((0, 2))])

    def test_balanced_instance_raises(self):
        # perfectly color-balanced mirror-image data: every vanilla cluster
        # ends up exactly proportional, so the violation denominator is zero
        X = np.array([[0.0], [0.0], [10.0], [10.0]])
        inst = Instance(X, [0, 1, 0, 1], ["a", "b"])
        with pytest.raises(DataError, match="^k=2: violation denominator is zero"):
            normalization_factor(inst, [2])

    def test_single_cluster_non_dyadic_proportion_raises(self):
        # at k = 1 the one cluster holds every point, so it is exactly
        # proportional; r = 0.57 is not exact in binary, and the violation
        # must still come out 0 rather than a rounding residue
        rng = np.random.default_rng(0)
        inst = Instance(rng.normal(size=(100, 2)), [0] * 57 + [1] * 43, ["a", "b"])
        with pytest.raises(DataError, match="^k=1: violation denominator is zero"):
            normalization_factor(inst, [1])

    def test_zero_distance_geometry_gives_zero_factor(self):
        # every point sits exactly on a site: vanilla cost 0 at the only k,
        # so no factor exists; both entry points name it as a data fault
        inst = separated_instance(40, theta=0.2, seed=0)
        message = "^vanilla k-means cost is zero; no distance scale to normalize by$"
        with pytest.raises(DataError, match=message):
            normalization_factor(inst, [2])
        vanilla = lloyd(inst, 2, np.ones(inst.n), 0).centers
        with pytest.raises(DataError, match=message):
            normalization_factors(inst, [vanilla])

    def test_zero_cost_at_one_k_still_normalizes(self):
        # three sites: vanilla k-means costs 75 at k = 2 and 0 at k = 3; the
        # factors are means over k, so only a zero mean is rejected
        X = np.repeat([[0.0, 0.0], [5.0, 0.0], [0.0, 7.0]], 6, axis=0)
        colors = [0, 0, 0, 0, 0, 1, 0, 0, 1, 1, 1, 1, 0, 0, 0, 0, 1, 1]
        inst = Instance(X, colors, ["a", "b"])
        runs = [best_of_restarts(inst, k, "vanilla", 1, 0) for k in (2, 3)]
        assert [cs.score for cs in runs] == [75.0, 0.0]
        got = normalization_factors(inst, [cs.first_centers for cs in runs])
        assert got == {
            "rawlsian": 13.368055555555559,
            "utilitarian": 27.08333333333334,
        }
        for mode, f in got.items():
            assert normalization_factor(inst, [2, 3], mode=mode) == f

    def test_unknown_mode_rejected(self, tiny_instance, monkeypatch):
        calls = []
        monkeypatch.setattr(centers, "lloyd", lambda *a: calls.append(a))
        with pytest.raises(ParamError, match="^unknown objective 'both'$"):
            normalization_factor(tiny_instance, [2], mode="both")
        # a bad p is rejected before any k-means run
        with pytest.raises(ParamError, match="^p must be 1 or 2, got 3$"):
            normalization_factor(tiny_instance, [2, 3], p=3)
        assert calls == []

    def test_empty_k_range_rejected(self, tiny_instance):
        with pytest.raises(ParamError):
            normalization_factor(tiny_instance, [])
