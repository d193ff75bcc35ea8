from __future__ import annotations

import numpy as np
import pytest

from datagen import adult_like, random_instance

from welfair.centers import best_of_restarts
from welfair.metrics import group_costs, pairwise_pow
from welfair.model import Params
from welfair.pipeline import (
    dominance_check,
    evaluate_baseline,
    rawlsian_alg,
    utilitarian_alg,
)


def _inst(n=30, H=2, seed=0):
    return random_instance(n, 2, H, seed)


class TestAlgorithms:
    @pytest.mark.parametrize(
        "alg,name", [(rawlsian_alg, "RawlsianAlg"), (utilitarian_alg, "UtilitarianAlg")]
    )
    def test_result_contract(self, alg, name):
        inst = _inst(seed=1)
        params = Params.with_delta(inst, 3, 0.5, 0.1)
        res = alg(inst, params, seed=0, restarts=3)
        assert res.method == name
        assert set(res.timings) == {"centers", "lp", "round", "total"}
        assert np.isfinite(res.lp_objective)
        value = res.report.R if name == "RawlsianAlg" else res.report.U
        assert res.gap == pytest.approx(value - res.lp_objective)
        assert res.gap_bound > 0
        assert res.solution.assignment.shape == (inst.n,)
        assert np.all(res.solution.assignment >= 0)
        rep = group_costs(inst, res.solution, params)
        assert rep.R == pytest.approx(res.report.R)
        assert res.objective_value == pytest.approx(value)
        assert "restarts=3" in res.center_provenance

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("lam", [0.1, 0.5, 0.9])
    def test_gap_within_additive_bound(self, seed, lam):
        inst = _inst(n=24, H=2, seed=seed)
        params = Params.with_delta(inst, 3, lam, 0.05)
        for alg in (rawlsian_alg, utilitarian_alg):
            res = alg(inst, params, seed=seed, restarts=2)
            assert res.gap <= res.gap_bound + params.lp_tolerance
            assert res.flags == []

    @pytest.mark.parametrize("alg", [rawlsian_alg, utilitarian_alg])
    def test_one_report_per_call(self, monkeypatch, alg):
        # the pipeline reports the rounder's report instead of building it
        # again from the same distances and assignment
        from welfair import metrics, pipeline, rounding

        calls = []

        def spy(*args, **kwargs):
            calls.append(args[3])
            return metrics.report_from_distances(*args, **kwargs)

        monkeypatch.setattr(rounding, "report_from_distances", spy)
        monkeypatch.setattr(pipeline, "report_from_distances", spy)
        inst = _inst(seed=2)
        params = Params.with_delta(inst, 3, 0.5, 0.1)
        res = alg(inst, params, seed=0, restarts=2)
        assert len(calls) == 1
        np.testing.assert_array_equal(calls[0], res.solution.assignment)

    def test_lambda_one_gap_vanishes(self):
        # at lam = 1 the additive bound is 0: rounding must be lossless
        inst = _inst(n=26, H=3, seed=3)
        params = Params.with_delta(inst, 3, 1.0, 0.1)
        for alg in (rawlsian_alg, utilitarian_alg):
            res = alg(inst, params, seed=0, restarts=2)
            assert res.gap_bound == 0.0
            assert res.gap <= params.lp_tolerance
            assert res.flags == []

    def test_lp_objective_lower_bounds_value(self):
        inst = _inst(n=28, seed=9)
        params = Params.with_delta(inst, 3, 0.4, 0.1)
        res = rawlsian_alg(inst, params, seed=0, restarts=2)
        assert res.lp_objective <= res.report.R + params.lp_tolerance

    def test_center_set_passthrough(self):
        inst = _inst(seed=4)
        params = Params.with_delta(inst, 3, 0.5, 0.1)
        cs = best_of_restarts(inst, 3, "socially_fair", 3, 0)
        a = rawlsian_alg(inst, params, seed=0, restarts=3)
        b = rawlsian_alg(
            inst, params, seed=0, restarts=3, center_set=cs
        )
        np.testing.assert_array_equal(a.solution.centers, b.solution.centers)
        np.testing.assert_array_equal(a.solution.assignment, b.solution.assignment)
        assert a.report.R == b.report.R

    def test_deterministic(self):
        inst = _inst(seed=6)
        params = Params.with_delta(inst, 2, 0.3, 0.05)
        a = utilitarian_alg(inst, params, seed=1, restarts=2)
        b = utilitarian_alg(inst, params, seed=1, restarts=2)
        np.testing.assert_array_equal(a.solution.assignment, b.solution.assignment)
        assert a.report.U == b.report.U


class TestBaselines:
    def test_nearest_assignment(self):
        inst = _inst(seed=2)
        params = Params.with_delta(inst, 3, 0.5, 0.1)
        res = evaluate_baseline(inst, params, "vanilla", seed=0, restarts=2)
        dist = pairwise_pow(inst.features, res.solution.centers, params.p)
        np.testing.assert_array_equal(
            res.solution.assignment, np.argmin(dist, axis=1)
        )
        assert res.method == "vanilla"
        assert np.isnan(res.lp_objective)

    def test_all_methods_run(self):
        inst = _inst(seed=5)
        params = Params.with_delta(inst, 2, 0.5, 0.1)
        for method in ("vanilla", "weighted", "socially_fair"):
            res = evaluate_baseline(inst, params, method, restarts=2)
            assert res.method == method
            assert np.isfinite(res.report.R)

    def test_bad_method(self):
        inst = _inst()
        params = Params.with_delta(inst, 2, 0.5)
        with pytest.raises(ValueError):
            evaluate_baseline(inst, params, "kmedoids")

    def test_center_set_passthrough(self):
        inst = _inst(seed=7)
        params = Params.with_delta(inst, 2, 0.5, 0.1)
        cs = best_of_restarts(inst, 2, "weighted", 2, 0)
        res = evaluate_baseline(inst, params, "weighted", center_set=cs)
        np.testing.assert_array_equal(res.solution.centers, cs.centers)


class TestDominance:
    def _results(self, objective):
        inst = adult_like(n=120, seed=1)
        params = Params.with_delta(inst, 3, 0.5, 0.01)
        alg = rawlsian_alg if objective == "rawlsian" else utilitarian_alg
        out = [alg(inst, params, seed=0, restarts=3)]
        for m in ("vanilla", "weighted", "socially_fair"):
            out.append(evaluate_baseline(inst, params, m, seed=0, restarts=3))
        return out

    @pytest.mark.parametrize("objective", ["rawlsian", "utilitarian"])
    def test_report_shape(self, objective):
        results = self._results(objective)
        rep = dominance_check(results, objective)
        assert set(rep.dominated) == {"vanilla", "weighted", "socially_fair"}
        assert len(rep.rows) == 4
        assert rep.all_dominated == all(rep.dominated.values())

    def test_dominated_values_consistent(self):
        results = self._results("rawlsian")
        rep = dominance_check(results, "rawlsian")
        ours = next(v for m, v in rep.rows if m == "RawlsianAlg")
        for m, v in rep.rows:
            if m != "RawlsianAlg":
                assert rep.dominated[m] == (ours <= v)

    def test_requires_exactly_one_ours(self):
        results = self._results("rawlsian")
        with pytest.raises(ValueError):
            dominance_check(results[1:], "rawlsian")
        with pytest.raises(ValueError):
            dominance_check(results + results[:1], "rawlsian")

    def test_bad_objective(self):
        with pytest.raises(ValueError):
            dominance_check([], "maximin")
