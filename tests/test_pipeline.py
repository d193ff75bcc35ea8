from __future__ import annotations

import json

import numpy as np
import pytest

from datagen import adult_like, random_instance

from welfair import centers
from welfair.centers import CenterSet, best_of_restarts
from welfair.errors import ParamError
from welfair.lp import LPSetup
from welfair.metrics import pairwise_pow, report_from_distances
from welfair.model import Instance, Params, slack
from welfair.pipeline import (
    ALGORITHMS,
    CENTER_METHODS,
    dominance_check,
    evaluate_baseline,
    rawlsian_alg,
    score,
    sweep,
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
        dist = pairwise_pow(inst.features, res.solution.centers, params.p)
        rep = report_from_distances(inst, params, dist, res.solution.assignment)
        assert rep.R == pytest.approx(res.report.R)
        assert res.objective_value == pytest.approx(value)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("lam", [0.1, 0.5, 0.9])
    def test_gap_within_additive_bound(self, seed, lam):
        inst = _inst(n=24, H=2, seed=seed)
        params = Params.with_delta(inst, 3, lam, 0.05)
        for alg in (rawlsian_alg, utilitarian_alg):
            res = alg(inst, params, seed=seed, restarts=2)
            assert res.gap <= res.gap_bound + slack(res.lp_objective)
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

    @pytest.mark.parametrize("kind", ["rawlsian", "utilitarian"])
    def test_stages_looked_up_on_their_modules(self, monkeypatch, kind):
        # tracers wrap these module attributes: each call must reach its own
        # builder, solve_lp and rounder once, through them
        from welfair import lp, pipeline, rounding

        calls = []
        for module, name in [
            (lp, "build_rawlsian_lp"),
            (lp, "build_utilitarian_lp"),
            (lp, "solve_lp"),
            (rounding, "rawlsian_round"),
            (rounding, "utilitarian_round"),
        ]:
            real = getattr(module, name)

            def spy(*args, _real=real, _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, name, spy)
        inst = _inst(seed=3)
        params = Params.with_delta(inst, 3, 0.5, 0.1)
        getattr(pipeline, f"{kind}_alg")(inst, params, seed=0, restarts=1)
        assert calls == [f"build_{kind}_lp", "solve_lp", f"{kind}_round"]

    def test_lambda_one_gap_vanishes(self):
        # at lam = 1 the additive bound is 0: rounding must be lossless
        inst = _inst(n=26, H=3, seed=3)
        params = Params.with_delta(inst, 3, 1.0, 0.1)
        for alg in (rawlsian_alg, utilitarian_alg):
            res = alg(inst, params, seed=0, restarts=2)
            assert res.gap_bound == 0.0
            assert res.gap <= slack(res.lp_objective)
            assert res.flags == []

    @pytest.mark.parametrize("alg", [rawlsian_alg, utilitarian_alg])
    def test_lp_value_above_rounded_is_flagged(self, monkeypatch, alg):
        # the rounded assignment is a point of the LP, so an LP value more
        # than its slack above the rounded value shows a fault: here a
        # solve that reports its value 1 too high
        from welfair import lp, pipeline

        real = lp.solve_lp

        def raised(model):
            frac = real(model)
            return lp.FractionalSolution(frac.x, frac.objective + 1.0)

        monkeypatch.setattr(lp, "solve_lp", raised)
        inst = _inst(seed=2)
        params = Params.with_delta(inst, 3, 0.5, 0.1)
        res = alg(inst, params, seed=0, restarts=1)
        assert res.gap < -slack(res.lp_objective)
        assert res.flags == [pipeline.LP_FLAG]

    @pytest.mark.parametrize("scale", [3e3, 1e4, 1e5, 1e6, 1e7])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_large_units_draw_no_flag(self, scale, seed):
        # unnormalized, LP values on these features run to 1e9 at p = 2,
        # where float rounding alone left 2-5 rows of each p = 2 sweep
        # beyond an absolute 1e-7; a slack relative to the LP value
        # flags none. From 1e5 up, float rounding breaks rows of large
        # coefficients by more than HiGHS's feasibility tolerance; measured
        # in absolute units, that sent LPs to the unscaled solve, which
        # stopped with "Solve error"
        inst = adult_like(300, seed)
        inst = Instance(inst.features * scale, inst.colors, inst.color_names)
        for p in (1, 2):
            _, cells = sweep(
                inst, k_range=[3, 5, 8], lambdas=[1e-3, 0.5], p=p, restarts=1,
                normalize=False,
            )
            flagged = [
                (r.method, r.params.k, r.params.lam, r.flags)
                for _, results in cells
                for r in results
                if r.flags
            ]
            assert flagged == []

    def test_lp_objective_lower_bounds_value(self):
        inst = _inst(n=28, seed=9)
        params = Params.with_delta(inst, 3, 0.4, 0.1)
        res = rawlsian_alg(inst, params, seed=0, restarts=2)
        assert res.lp_objective <= res.report.R + slack(res.lp_objective)

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

    def test_objective_value_is_nan(self):
        # a baseline optimizes no objective, so it has no value of its own
        # to report; its R and U stay on its report
        inst = _inst(seed=5)
        params = Params.with_delta(inst, 2, 0.5, 0.1)
        for method in ("vanilla", "weighted", "socially_fair"):
            res = evaluate_baseline(inst, params, method, restarts=2)
            assert np.isnan(res.objective_value)
            assert np.isfinite(res.report.R) and np.isfinite(res.report.U)

    def test_bad_method(self):
        inst = _inst()
        params = Params.with_delta(inst, 2, 0.5)
        with pytest.raises(ParamError, match="method must be one of"):
            evaluate_baseline(inst, params, "kmedoids")

    def test_center_set_passthrough(self):
        inst = _inst(seed=7)
        params = Params.with_delta(inst, 2, 0.5, 0.1)
        cs = best_of_restarts(inst, 2, "weighted", 2, 0)
        res = evaluate_baseline(inst, params, "weighted", center_set=cs)
        np.testing.assert_array_equal(res.solution.centers, cs.centers)


class TestCenterSetShape:
    """Every run checks that its center set holds k finite centers in the
    instance's dimension before it uses them."""

    _each_run = pytest.mark.parametrize(
        "run",
        [
            rawlsian_alg,
            utilitarian_alg,
            lambda inst, params, **kw: evaluate_baseline(inst, params, "vanilla", **kw),
        ],
        ids=["rawlsian_alg", "utilitarian_alg", "evaluate_baseline"],
    )

    @_each_run
    @pytest.mark.parametrize("shape", [(4, 2), (3, 3)], ids=["k+1", "dim+1"])
    def test_wrong_shape_rejected(self, run, shape):
        inst = _inst(seed=8)
        params = Params.with_delta(inst, 3, 0.5, 0.1)
        rng = np.random.default_rng(0)
        cs = CenterSet(rng.normal(size=shape), "given", float("nan"))
        with pytest.raises(ParamError, match=r"\(k, dim\) = \(3, 2\)"):
            run(inst, params, center_set=cs)

    @_each_run
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, run, bad):
        inst = _inst(seed=8)
        params = Params.with_delta(inst, 3, 0.5, 0.1)
        ctrs = np.random.default_rng(0).normal(size=(3, 2))
        ctrs[1, 0] = bad
        cs = CenterSet(ctrs, "given", float("nan"))
        with pytest.raises(ParamError, match=f"coordinate 0 of center 1 is {bad}"):
            run(inst, params, center_set=cs)

    @_each_run
    @pytest.mark.parametrize(
        "ctrs, message",
        [
            (np.array([["x", "0"], ["1", "2"], ["3", "4"]]), "could not convert"),
            ([[1, 2], [3], [4, 5]], "inhomogeneous shape"),
            ([[1, 2], [3, 4j], [5, 6]], "got complex ones"),
        ],
        ids=["string", "ragged", "complex"],
    )
    def test_non_numbers_rejected(self, run, ctrs, message):
        inst = _inst(seed=8)
        params = Params.with_delta(inst, 3, 0.5, 0.1)
        cs = CenterSet(ctrs, "given", float("nan"))
        with pytest.raises(ParamError, match=f"^centers must be real.*{message}"):
            run(inst, params, center_set=cs)


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
    def test_all_dominated_is_ours_at_most_every_baseline(self, objective):
        results = self._results(objective)
        ours, *baselines = (score(r.report, objective) for r in results)
        assert len(baselines) == 3
        want = all(ours <= v for v in baselines)
        assert dominance_check(results, objective).all_dominated is want
        # a baseline that scores below ours is not dominated
        results[1].report.R = results[1].report.U = -1.0
        assert dominance_check(results, objective).all_dominated is False

    def test_requires_exactly_one_ours(self):
        results = self._results("rawlsian")
        with pytest.raises(ParamError, match="got 0"):
            dominance_check(results[1:], "rawlsian")
        with pytest.raises(ParamError, match="got 2"):
            dominance_check(results + results[:1], "rawlsian")

    def test_bad_objective(self):
        with pytest.raises(ParamError, match="unknown objective 'maximin'"):
            dominance_check([], "maximin")


class TestSetup:
    """One `lp.LPSetup` per (instance, k, center set) serves the calls of
    every lambda; a call checks that it was built for its arguments."""

    def test_baseline_reads_the_setup(self):
        inst = _inst(seed=7)
        cs = best_of_restarts(inst, 3, "vanilla", 2, 0)
        setup = LPSetup(inst, Params.with_delta(inst, 3, 0.1, 0.1), cs.centers)
        for lam in (0.3, 0.9):
            params = Params.with_delta(inst, 3, lam, 0.1)
            shared = evaluate_baseline(
                inst, params, "vanilla", center_set=cs, setup=setup
            )
            lone = evaluate_baseline(inst, params, "vanilla", center_set=cs)
            np.testing.assert_array_equal(
                shared.solution.assignment, lone.solution.assignment
            )
            np.testing.assert_array_equal(shared.report.disu, lone.report.disu)
        # the result owns its assignment
        assert shared.solution.assignment is not setup.near

    @pytest.mark.parametrize(
        "change, message",
        [
            ("k", "built for another"),
            ("centers", "built for another"),
            ("instance", "built for another"),
            ("delta", "built for another"),
            ("p", "built for another"),
            ("kind", "built for the utilitarian LP, not the rawlsian one"),
            ("no kind", "built without an LP kind, not the rawlsian one"),
            ("bool lambda", "lambda must be a number, got True"),
        ],
    )
    def test_mismatched_setup_rejected(self, change, message):
        inst = _inst(seed=8)
        cs = best_of_restarts(inst, 3, "socially_fair", 2, 0)
        params = Params.with_delta(inst, 3, 0.5, 0.1)
        kind = {"kind": "utilitarian", "no kind": None}.get(change, "rawlsian")
        setup = LPSetup(inst, params, cs.centers, kind)
        # a baseline's set-up, built without a kind, is no Rawlsian one
        assert setup.rawlsian is (kind == "rawlsian")
        center_set = cs
        if change == "k":
            cs2 = best_of_restarts(inst, 2, "socially_fair", 2, 0)
            params, center_set = Params.with_delta(inst, 2, 0.5, 0.1), cs2
        elif change == "centers":
            center_set = CenterSet(cs.centers + 1.0, "moved", float("nan"))
        elif change == "instance":
            inst = _inst(seed=8)
        elif change == "delta":
            params = Params.with_delta(inst, 3, 0.5, 0.2)
        elif change == "p":
            params = Params.with_delta(inst, 3, 0.5, 0.1, p=1)
        elif change == "bool lambda":
            params = Params.with_delta(inst, 3, True, 0.1)
        with pytest.raises(ParamError, match=message):
            rawlsian_alg(inst, params, center_set=center_set, setup=setup)

    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("kind", ["rawlsian", "utilitarian"])
    def test_setup_alone_gives_the_centers(self, kind, lam):
        # a run and a baseline given a set-up alone take its centers, and
        # equal the same calls given its center set as well; a center set
        # holding other centers beside it still raises
        inst = _inst(seed=8)
        method = CENTER_METHODS[kind]
        cs = best_of_restarts(inst, 3, method, 2, 0)
        params = Params.with_delta(inst, 3, lam, 0.1)
        alg = rawlsian_alg if kind == "rawlsian" else utilitarian_alg

        def baseline(*args, **kw):
            return evaluate_baseline(*args, method, **kw)

        runs = [
            (alg, LPSetup(inst, params, cs.centers, kind)),
            (baseline, LPSetup(inst, params, cs.centers)),
        ]
        moved = CenterSet(cs.centers + 1.0, "moved", float("nan"))
        for run, setup in runs:
            alone = run(inst, params, setup=setup)
            both = run(inst, params, center_set=cs, setup=setup)
            np.testing.assert_array_equal(alone.solution.centers, cs.centers)
            assert _untimed([(kind, [alone])], kind) == _untimed(
                [(kind, [both])], kind
            )
            with pytest.raises(ParamError, match="built for another"):
                run(inst, params, center_set=moved, setup=setup)

    def test_setup_keeps_its_own_read_only_centers(self):
        # the set-up copies the caller's centers and marks its arrays
        # read-only; the caller's own array stays writable
        inst = _inst(seed=9)
        cs = best_of_restarts(inst, 3, "vanilla", 1, 0)
        params = Params.with_delta(inst, 3, 0.5, 0.1)
        setup = LPSetup(inst, params, cs.centers, "rawlsian")
        assert not np.shares_memory(setup.centers, cs.centers)
        for held in (setup.centers, setup.dist_t, setup.near):
            with pytest.raises(ValueError, match="read-only"):
                held[0] = 0
        built = cs.centers.copy()
        cs.centers[0, 0] += 1.0
        np.testing.assert_array_equal(setup.centers, built)
        with pytest.raises(ParamError, match="built for another"):
            setup.check(inst, params, cs.centers)

    def test_sweep_results_cannot_edit_the_shared_centers(self):
        # every lambda's results of one (objective, k) hold their set-up's
        # centers, so an in-place edit of one raises
        inst = _inst(seed=9)
        _, cells = sweep(inst, k_range=[2], lambdas=[0.3, 0.7], restarts=1)
        for results in (cells[0][1], cells[1][1]):
            for r in results:
                with pytest.raises(ValueError, match="read-only"):
                    r.solution.centers[0, 0] += 1.0
        np.testing.assert_array_equal(
            cells[0][1][0].solution.centers, cells[1][1][0].solution.centers
        )


def _untimed(cells, objective, lam=None):
    """repr of everything but the timings of the results of objective's
    cells (at lam, if given): a NaN equals a NaN, and a float only itself."""
    return [
        repr(
            [
                (
                    r.method, r.params.k, r.params.lam, r.seed,
                    r.solution.centers.tolist(), r.solution.assignment.tolist(),
                    r.report.disu.tolist(), r.report.R,
                    r.report.U, r.lp_objective, r.gap, r.gap_bound, r.flags,
                )
                for r in results
            ]
        )
        for obj, results in cells
        if obj == objective and lam in (None, results[0].params.lam)
    ]


class TestSweep:
    """`sweep` runs each (objective, k, lambda) cell: the objective's
    algorithm, then the three baselines."""

    inst = random_instance(60, 2, 2, seed=14)

    def test_cells_in_order(self):
        factors, cells = sweep(
            self.inst, k_range=[2, 3], lambdas=[0.3, 0.7], restarts=1
        )
        assert list(factors) == ["rawlsian", "utilitarian"]
        assert all(f > 0 for f in factors.values())
        assert [(obj, rs[0].params.k, rs[0].params.lam) for obj, rs in cells] == [
            (obj, k, lam)
            for obj in ("rawlsian", "utilitarian")
            for k in (2, 3)
            for lam in (0.3, 0.7)
        ]
        for obj, results in cells:
            assert [r.method for r in results] == [ALGORITHMS[obj], *centers.METHODS]

    @pytest.mark.parametrize("normalize", [True, False])
    def test_both_equals_each_objective_alone(self, normalize):
        # each k's center sets are computed once on the raw data, and each
        # objective rescales them by its own factor
        kw = {"k_range": [2, 3], "lambdas": [0.5], "restarts": 2}
        factors, both = sweep(self.inst, normalize=normalize, **kw)
        for objective in ("rawlsian", "utilitarian"):
            alone_factors, alone = sweep(
                self.inst, objective=objective, normalize=normalize, **kw
            )
            assert repr(alone_factors) == repr({objective: factors[objective]})
            assert len(_untimed(both, objective)) == 2
            assert _untimed(both, objective) == _untimed(alone, objective)

    def test_arrays_equal_lists(self):
        # k and lambda arrays run the cells of the equal lists
        kw = {"restarts": 1}
        _, lists = sweep(self.inst, k_range=[2, 3], lambdas=[0.3, 0.7], **kw)
        _, arrays = sweep(
            self.inst, k_range=np.array([2, 3]), lambdas=np.array([0.3, 0.7]), **kw
        )
        # every result holds Python numbers, as the lists' do
        for _, results in arrays:
            for r in results:
                assert type(r.params.k) is int and type(r.params.lam) is float
                assert type(r.gap_bound) is float
                json.dumps([r.params.k, r.params.lam, r.gap_bound])
        for objective in ("rawlsian", "utilitarian"):
            assert len(_untimed(arrays, objective)) == 4
            assert _untimed(arrays, objective) == _untimed(lists, objective)

    def test_lambda_cells_equal_a_lone_lambda(self):
        # every lambda's cells share their (objective, k)'s LP set-up
        kw = {"k_range": [2, 3], "restarts": 1}
        _, three = sweep(self.inst, lambdas=[0.1, 0.5, 0.9], **kw)
        _, one = sweep(self.inst, lambdas=[0.5], **kw)
        for objective in ("rawlsian", "utilitarian"):
            assert len(_untimed(one, objective)) == 2
            assert _untimed(three, objective, 0.5) == _untimed(one, objective)

    @pytest.mark.parametrize(
        "settings, message",
        [
            ({"k_range": []}, "k range is empty"),
            ({"objective": "fair"}, "objective must be"),
            ({"lambdas": [0.5, 1.5]}, "lambda must lie in"),
            ({"k_range": [2, 2]}, "k 2 appears more than once"),
            ({"k_range": [2, 61]}, "k=61 must lie in"),
            ({"p": 3}, "p must be 1 or 2"),
            ({"delta": 5.0}, "alpha_h > 1"),
            ({"seed": 1.5}, "seed must be an integer, got 1.5"),
            ({"restarts": 1.5}, "restarts must be an integer, got 1.5"),
            ({"delta": True}, "delta must be a number, got True"),
            ({"normalize": "no"}, "normalize must be True or False, got 'no'"),
            ({"lambdas": [True]}, "lambda must be a number, got True"),
            ({"lambdas": ["0.5"]}, "lambda must be a number, got '0.5'"),
            ({"delta": "0.1"}, "delta must be a number, got '0.1'"),
            ({"p": True}, "p must be 1 or 2, got True"),
            ({"p": "2"}, "p must be 1 or 2, got '2'"),
            ({"k_range": np.array([], dtype=int)}, "k range is empty"),
            ({"lambdas": []}, "lambda list is empty"),
            ({"lambdas": np.array([])}, "lambda list is empty"),
            ({"k_range": np.array([2, 2])}, "k 2 appears more than once"),
            ({"lambdas": np.array([0.5, 1.5])}, "lambda must lie in"),
        ],
    )
    def test_bad_settings_rejected_before_centers(
        self, settings, message, monkeypatch
    ):
        calls = []
        monkeypatch.setattr(
            centers, "best_of_restarts", lambda *a, **kw: calls.append(a)
        )
        with pytest.raises(ParamError, match=message):
            sweep(self.inst, **{"lambdas": [0.5], **settings})
        assert calls == []


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda inst: Params.with_delta(inst, 3, 0.5, "x"), "delta"),
        (lambda inst: Params.with_delta(inst, 3, 0.5, None), "delta"),
        (lambda inst: sweep(inst, k_range=3), "k_range"),
        (lambda inst: sweep(inst, k_range=None), "k_range"),
        (lambda inst: sweep(inst, k_range={2, 3}), "k_range"),
        (lambda inst: sweep(inst, lambdas=0.5), "lambdas"),
        (lambda inst: sweep(inst, lambdas={0.5}), "lambdas"),
        (lambda inst: pairwise_pow(np.ones(3), np.ones((2, 3)), 2), "X"),
    ],
    ids=[
        "delta-string", "delta-none", "k-int", "k-none", "k-set",
        "lambda-float", "lambda-set", "1-d-points",
    ],
)
def test_bare_errors_name_the_argument(call, name):
    # each of these once escaped as numpy's or Python's own error
    with pytest.raises(ParamError, match=rf"^{name} must"):
        call(_inst())
