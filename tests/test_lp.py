from __future__ import annotations

import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from datagen import random_instance

from welfair import lp as lp_mod
from welfair.errors import (
    BruteForceSizeError,
    LPError,
    LPInfeasibleError,
    LPUnboundedError,
    ParamError,
)
from welfair.lp import (
    HighsSolver,
    brute_force_assignment,
    build_rawlsian_lp,
    build_utilitarian_lp,
    solve_lp,
    to_lp_text,
)
from welfair.metrics import additive_constants, group_costs, pairwise_pow
from welfair.model import Instance, Params, Solution
from welfair.rounding import _floor_ceil, rawlsian_round, utilitarian_round


def _setup(n=14, k=2, H=2, lam=0.5, delta=0.1, seed=0):
    inst = random_instance(n, 2, H, seed)
    params = Params.with_delta(inst, k, lam, delta)
    rng = np.random.default_rng(seed + 1)
    centers = inst.features[rng.choice(n, size=k, replace=False)]
    return inst, params, centers


class TestBuilders:
    def test_rawlsian_shape(self):
        inst, params, centers = _setup(n=10, k=3, H=2)
        m = build_rawlsian_lp(inst, params, centers)
        k, n, H = 3, 10, 2
        assert m.num_vars == k * n + k * H + 1
        # kH under + kH over + H disu; the n assignment rows are implied
        assert len(m.rows) == 2 * k * H + H
        assert (m.k, m.n, m.H) == (k, n, H)
        assert m.kind == "rawlsian"

    def test_utilitarian_shape(self):
        inst, params, centers = _setup(n=10, k=3, H=2)
        m = build_utilitarian_lp(inst, params, centers)
        k, n, H = 3, 10, 2
        assert m.num_vars == k * n + k * H
        assert len(m.rows) == 2 * k * H
        assert m.kind == "utilitarian"

    def test_bounds(self):
        inst, params, centers = _setup()
        m = build_rawlsian_lp(inst, params, centers)
        kn = t0 = params.k * inst.n
        z = t0 + params.k * inst.num_colors
        assert np.all(m.lower[:kn] == 0) and np.all(m.upper[:kn] == 1)
        assert z == m.num_vars - 1
        assert np.all(m.lower[t0:z] == 0) and np.all(np.isposinf(m.upper[t0:z]))
        assert np.isneginf(m.lower[z]) and np.isposinf(m.upper[z])

    def test_var_names_cover_layout(self):
        inst, params, centers = _setup(n=6, k=2, H=2)
        m = build_rawlsian_lp(inst, params, centers)
        names = [m.var_name(j) for j in range(m.num_vars)]
        assert names[0] == "x_0_0"
        assert names.count("z") == 1
        assert len(set(names)) == m.num_vars
        assert "t_1_1" in names
        assert names == [f"x_{i}_{j}" for i in range(2) for j in range(6)] + [
            f"t_{i}_{h}" for i in range(2) for h in range(2)
        ] + ["z"]

    def test_row_names_unique(self):
        inst, params, centers = _setup(n=6, k=2, H=2)
        for build in (build_rawlsian_lp, build_utilitarian_lp):
            m = build(inst, params, centers)
            names = [row.name for row in m.rows]
            assert len(set(names)) == len(names)

    def test_dist_pow_passthrough(self):
        inst, params, centers = _setup()
        dist = pairwise_pow(inst.features, centers, params.p)
        a = build_rawlsian_lp(inst, params, centers)
        b = build_rawlsian_lp(inst, params, centers, dist)
        np.testing.assert_array_equal(a.objective, b.objective)
        for ra, rb in zip(a.rows, b.rows):
            np.testing.assert_array_equal(ra.vals, rb.vals)

    @pytest.mark.parametrize("build", [build_rawlsian_lp, build_utilitarian_lp])
    def test_under_over_rows_bound_t(self, build):
        # at t = 0 the under_i_h / over_i_h rows read the cluster's under- and
        # over-representation; at t = max(u, o, 0) every one of them holds
        inst, params, centers = _setup(n=12, k=3, H=3, delta=0.2, seed=5)
        m = build(inst, params, centers)
        k, n, H = params.k, inst.n, inst.num_colors
        rng = np.random.default_rng(8)
        x = rng.random((k, n))
        x /= x.sum(axis=0)
        sizes = x.sum(axis=1)
        size_h = np.stack([x[:, inst.colors == h].sum(axis=1) for h in range(H)], 1)
        r = inst.proportions
        u = (r - params.beta)[None, :] * sizes[:, None] - size_h
        o = size_h - (r + params.alpha)[None, :] * sizes[:, None]
        v = np.zeros(m.num_vars)
        v[: k * n] = x.ravel()
        rows = {row.name: row for row in m.rows}
        for i in range(k):
            for h in range(H):
                for tag, want in (("under", u[i, h]), ("over", o[i, h])):
                    row = rows[f"{tag}_{i}_{h}"]
                    assert row.vals @ v[row.cols] == pytest.approx(want, abs=1e-12)
        v[k * n : k * n + k * H] = np.maximum(
            np.maximum(u, o), 0.0
        ).ravel()
        for row in m.rows:
            if row.name.startswith(("under_", "over_")):
                assert row.vals @ v[row.cols] <= 1e-12

    def test_center_count_mismatch(self):
        inst, params, centers = _setup(k=2)
        with pytest.raises(LPError):
            build_rawlsian_lp(inst, params, centers[:1])


class TestObjectiveEncoding:
    """The LP's own encoding and the integral metrics agree at one-hot x."""

    @pytest.mark.parametrize("kind", ["rawlsian", "utilitarian"])
    @pytest.mark.parametrize("seed", range(5))
    def test_integral_point_matches_report(self, kind, seed):
        inst, params, centers = _setup(n=16, k=3, H=2, lam=0.35, seed=seed)
        build = build_rawlsian_lp if kind == "rawlsian" else build_utilitarian_lp
        m = build(inst, params, centers)
        rng = np.random.default_rng(seed + 50)
        assign = rng.integers(0, params.k, size=inst.n)
        x = np.zeros((params.k, inst.n))
        x[assign, np.arange(inst.n)] = 1.0
        sizes = x.sum(axis=1)
        size_h = np.zeros((params.k, inst.num_colors))
        for h in range(inst.num_colors):
            size_h[:, h] = x[:, inst.colors == h].sum(axis=1)
        r = inst.proportions
        u = (r - params.beta)[None, :] * sizes[:, None] - size_h
        o = size_h - (r + params.alpha)[None, :] * sizes[:, None]
        t = np.maximum(np.maximum(u, o), 0.0)
        # z = 0, so each Rawlsian disu_h row evaluates to disu_h itself
        v = np.concatenate([x.ravel(), t.ravel(), [0.0] * (kind == "rawlsian")])
        rep = group_costs(inst, Solution(centers, assign), params)
        if kind == "utilitarian":
            assert m.objective @ v == pytest.approx(rep.U, abs=1e-12)
        else:
            rows = {row.name: row for row in m.rows}
            for h in range(inst.num_colors):
                row = rows[f"disu_{h}"]
                got = row.vals @ v[row.cols]
                assert got == pytest.approx(rep.disu[h], abs=1e-12)


class TestSolveLp:
    @pytest.mark.parametrize("kind", ["rawlsian", "utilitarian"])
    def test_cleanup_invariants(self, kind):
        inst, params, centers = _setup(n=20, k=3, H=3, seed=3)
        build = build_rawlsian_lp if kind == "rawlsian" else build_utilitarian_lp
        m = build(inst, params, centers)
        frac = solve_lp(m)
        assert frac.x.shape == (params.k, inst.n)
        assert np.all(frac.x >= 0.0) and np.all(frac.x <= 1.0)
        np.testing.assert_allclose(frac.x.sum(axis=0), 1.0, atol=1e-6)
        # solver objective and direct evaluation agree
        assert frac.objective == pytest.approx(frac.solver_objective, abs=1e-6)

    @pytest.mark.parametrize("kind", ["rawlsian", "utilitarian"])
    def test_lp_lower_bounds_brute_force(self, kind):
        inst, params, centers = _setup(n=7, k=2, H=2, lam=0.4, seed=9)
        build = build_rawlsian_lp if kind == "rawlsian" else build_utilitarian_lp
        frac = solve_lp(build(inst, params, centers))
        _, best = brute_force_assignment(inst, params, centers, kind)
        assert frac.objective <= best + 1e-7

    def test_custom_solver_object(self):
        inst, params, centers = _setup(n=8, k=2, H=2)
        m = build_utilitarian_lp(inst, params, centers)
        calls = []

        class Stub:
            name = "stub"

            def solve(self, model, tolerance):
                calls.append(tolerance)
                return HighsSolver().solve(model, tolerance)

        frac = solve_lp(m, solver=Stub())
        assert calls == [params.lp_tolerance]
        assert np.isfinite(frac.objective)

    def test_tolerance_override(self):
        inst, params, centers = _setup(n=8, k=2, H=2)
        m = build_utilitarian_lp(inst, params, centers)
        calls = []

        class Stub:
            name = "stub"

            def solve(self, model, tolerance):
                calls.append(tolerance)
                return HighsSolver().solve(model, tolerance)

        solve_lp(m, tolerance=1e-5, solver=Stub())
        assert calls == [1e-5]

    @pytest.mark.parametrize("solver", ["highs", "builtin", "auto", 3])
    def test_solver_without_solve_method_rejected(self, solver):
        inst, params, centers = _setup(n=8, k=2, H=2)
        m = build_utilitarian_lp(inst, params, centers)
        with pytest.raises(LPError, match="no solve"):
            solve_lp(m, solver=solver)


# HiGHS tolerances of the untransformed reference LPs: at 1e-10 feasibility
# the interior-point method ended 7 of 300 random property cases with model
# status Unknown, one of them pinned below
_TIGHT = {
    "primal_feasibility_tolerance": 1e-9,
    "dual_feasibility_tolerance": 1e-9,
    "ipm_optimality_tolerance": 1e-12,
}


def _reference(model):
    """The model written out densely, its rows <= 0 and every point's x
    column summing to 1, and its optimum by HiGHS's interior-point method at
    tight tolerances: (A_ub, A_eq, result)."""
    k, n = model.k, model.n
    A_ub = np.zeros((len(model.rows), model.num_vars))
    for r, row in enumerate(model.rows):
        A_ub[r, row.cols] = row.vals
    A_eq = np.zeros((n, model.num_vars))
    A_eq[:, : k * n] = np.tile(np.eye(n), k)
    ref = linprog(
        model.objective,
        A_ub=A_ub,
        b_ub=np.zeros(len(model.rows)),
        A_eq=A_eq,
        b_eq=np.ones(n),
        bounds=np.column_stack([model.lower, model.upper]),
        method="highs-ipm",
        options=_TIGHT,
    )
    assert ref.status == 0, ref.message
    return A_ub, A_eq, ref


def _linprog_spy(monkeypatch):
    """Record every scipy linprog call HighsSolver makes: (kwargs, result)."""
    import scipy.optimize

    real = scipy.optimize.linprog
    calls = []

    def spy(c, **kwargs):
        res = real(c, **kwargs)
        calls.append((dict(kwargs, c=c), res))
        return res

    monkeypatch.setattr(scipy.optimize, "linprog", spy)
    return calls


def _reduced_costs(model, res):
    """c - A^T y over every column of the full model, y the model's own row
    duals recovered from res, a solve in the nearest-center frame.

    The frame LP's rows are the model's rows, in order, followed by one row
    per point j, sum over i != a(j) of x[i, j] <= 1, with dual mu_j. The
    model's rows keep their duals; point j's assignment equality gets the
    dual that leaves the eliminated column x[a(j), j] with reduced cost
    -mu_j >= 0."""
    rows = model.rows
    duals = res.ineqlin.marginals
    assert len(duals) == len(rows) + model.n
    rc = model.objective.copy()
    for row, y in zip(rows, duals[: len(rows)]):
        np.add.at(rc, row.cols, -y * row.vals)
    k, n = model.k, model.n
    near = np.argmin(model.dist_pow, axis=1) * n + np.arange(n)
    mu = duals[len(rows):]
    # assignment equality j holds x[i, j] for every i, at column i * n + j
    rc[: k * n] -= np.tile(rc[near] + mu, k)
    np.testing.assert_allclose(rc[near], -mu, atol=1e-12)
    return rc


def _all_columns(monkeypatch, model):
    with monkeypatch.context() as mp:
        mp.setattr(lp_mod, "_CANDIDATES", model.k)
        return solve_lp(model)


def _x_columns(model, kwargs):
    """(k, n) mask of the x columns of one frame LP call, read from its
    matrix: column x[i, j] has a 1 in point j's row and entries in the
    under/over rows of clusters i and a(j) only."""
    k, n, H = model.k, model.n, model.H
    A = kwargs["A_ub"].tocsc()
    R = len(model.rows)
    near = np.argmin(model.dist_pow, axis=1)
    got = np.zeros((k, n), dtype=bool)
    for col in range(A.shape[1]):
        rows = A.indices[A.indptr[col]: A.indptr[col + 1]]
        if not (rows >= R).any():
            continue  # a t or z column
        j = rows[rows >= R][0] - R
        (i,) = set((rows[rows < 2 * k * H] % (k * H)) // H) - {near[j]}
        got[i, j] = True
    return got


def _class_prefix(model):
    """(k, n) mask of the first LP's x columns, recomputed point by point:
    those of j's _CANDIDATES nearest centers i != a(j) at which j ranks in
    the cheapest ceil(_CLASS_SHARE * |class|) of its class (a(j), color of
    j), ranked by delta at i, ties by point id."""
    k, n = model.k, model.n
    d = model.dist_pow
    colors = model.instance.colors
    near = d.argmin(axis=1)
    share = (model.params.lam / model.instance.counts[colors])[:, None] * d
    delta = share - share[np.arange(n), near][:, None]
    want = np.zeros((k, n), dtype=bool)
    for j in range(n):
        members = [
            q for q in range(n) if near[q] == near[j] and colors[q] == colors[j]
        ]
        limit = math.ceil(lp_mod._CLASS_SHARE * len(members))
        for i in np.argsort(d[j])[: lp_mod._CANDIDATES]:
            if i != near[j]:
                ranked = sorted(members, key=lambda q: (delta[q, i], q))
                want[i, j] = ranked.index(j) < limit
    return want


class TestHighsPricing:
    """k > _CANDIDATES: HiGHS solves over each point's nearest centers, cut
    to the cheap end of each (nearest center, color) class, and prices the
    other columns in until none has negative reduced cost."""

    @pytest.mark.parametrize("kind", ["rawlsian", "utilitarian"])
    @pytest.mark.parametrize("H", [2, 3])
    def test_first_lp_is_the_class_prefix(self, monkeypatch, kind, H):
        inst, params, centers = _setup(n=80, k=7, H=H, lam=0.5, seed=H)
        build = build_rawlsian_lp if kind == "rawlsian" else build_utilitarian_lp
        m = build(inst, params, centers)
        calls = _linprog_spy(monkeypatch)
        HighsSolver().solve(m, params.lp_tolerance)
        got, want = _x_columns(m, calls[0][0]), _class_prefix(m)
        np.testing.assert_array_equal(got, want)
        # the prefix cuts the top-_CANDIDATES columns: the first LP has fewer
        assert 0 < want.sum() < inst.n * (lp_mod._CANDIDATES - 1)
        assert len(calls[0][0]["c"]) == want.sum() + m.num_vars - m.k * m.n

    @pytest.mark.parametrize("kind", ["rawlsian", "utilitarian"])
    @pytest.mark.parametrize("H", [2, 3])
    def test_one_column_per_class_prices_in_the_rest(self, monkeypatch, kind, H):
        inst, params, centers = _setup(n=60, k=6, H=H, lam=0.2, seed=4)
        build = build_rawlsian_lp if kind == "rawlsian" else build_utilitarian_lp
        m = build(inst, params, centers)
        # ceil(share * |class|) = 1: each (a, h, i) class keeps one column
        monkeypatch.setattr(lp_mod, "_CLASS_SHARE", 1e-9)
        calls = _linprog_spy(monkeypatch)
        xvec, obj, status = HighsSolver().solve(m, params.lp_tolerance)
        rounds = int(status.rsplit("rounds=", 1)[1])
        assert rounds >= 2 and len(calls) == rounds
        first = _x_columns(m, calls[0][0])
        near = np.argmin(m.dist_pow, axis=1)
        i, j = np.nonzero(first)
        per_class = np.bincount(
            (near[j] * m.H + inst.colors[j]) * m.k + i, minlength=m.k * m.H * m.k
        )
        assert per_class.max() == 1
        # each round adds exactly the left-out columns that price below
        # -tolerance under the model's own duals
        frame_columns = np.ones((m.k, m.n), dtype=bool)
        frame_columns[near, np.arange(m.n)] = False
        for (kwargs, res), (after, _) in zip(calls, calls[1:]):
            rc = _reduced_costs(m, res)[: m.k * m.n].reshape(m.k, m.n)
            enter = frame_columns & (rc < -params.lp_tolerance)
            np.testing.assert_array_equal(
                _x_columns(m, after), _x_columns(m, kwargs) | enter
            )
        _, _, ref = _reference(m)
        assert obj == pytest.approx(ref.fun, abs=params.lp_tolerance)
        # no x column at zero, the ones the last LP left out among them,
        # prices below -tolerance under the model's own duals
        rc = _reduced_costs(m, calls[-1][1])
        at_zero = np.flatnonzero(xvec[: m.k * m.n] == 0.0)
        assert len(at_zero) >= m.num_vars - inst.n - len(calls[-1][0]["c"])
        assert rc[at_zero].min() >= -params.lp_tolerance

    @pytest.mark.parametrize("kind", ["rawlsian", "utilitarian"])
    @pytest.mark.parametrize("H", [2, 3])
    def test_closed_form_reduced_costs(self, monkeypatch, kind, H):
        # the frame's closed-form pricing equals c - A^T y over the model's
        # own rows at every frame column, in every round
        inst, params, centers = _setup(n=60, k=6, H=H, lam=0.4, seed=7)
        build = build_rawlsian_lp if kind == "rawlsian" else build_utilitarian_lp
        m = build(inst, params, centers)
        monkeypatch.setattr(lp_mod, "_CLASS_SHARE", 1e-9)
        calls = _linprog_spy(monkeypatch)
        HighsSolver().solve(m, params.lp_tolerance)
        frame = lp_mod._Frame(m)
        for _, res in calls:
            want = _reduced_costs(m, res)[: m.k * m.n].reshape(m.k, m.n)
            got = frame.reduced_costs(res.ineqlin.marginals)
            np.testing.assert_allclose(
                got[frame.columns], want[frame.columns], rtol=0, atol=1e-12
            )

    def test_all_columns_switches_off_both_restrictions(self, monkeypatch):
        inst, params, centers = _setup(n=60, k=6, H=2, lam=0.2, seed=4)
        m = build_utilitarian_lp(inst, params, centers)
        monkeypatch.setattr(lp_mod, "_CLASS_SHARE", 1e-9)
        calls = _linprog_spy(monkeypatch)
        _all_columns(monkeypatch, m)
        # one solve over every column but the n eliminated nearest ones
        assert len(calls) == 1
        assert len(calls[0][0]["c"]) == m.num_vars - inst.n

    @pytest.mark.parametrize("kind", ["rawlsian", "utilitarian"])
    @pytest.mark.parametrize("seed", range(3))
    def test_value_matches_all_columns(self, monkeypatch, kind, seed):
        inst, params, centers = _setup(
            n=60, k=6, H=2 + seed % 2, lam=[0.2, 0.5, 0.8][seed], seed=seed
        )
        build = build_rawlsian_lp if kind == "rawlsian" else build_utilitarian_lp
        m = build(inst, params, centers)
        calls = _linprog_spy(monkeypatch)
        got = solve_lp(m)
        assert len(calls[0][0]["c"]) < m.num_vars  # the restriction was used
        want = _all_columns(monkeypatch, m)
        assert got.solver_objective == pytest.approx(
            want.solver_objective, abs=params.lp_tolerance
        )

    @pytest.mark.parametrize("kind", ["rawlsian", "utilitarian"])
    def test_one_candidate_prices_in_the_rest(self, monkeypatch, kind):
        inst, params, centers = _setup(n=60, k=5, H=2, lam=0.2, seed=4)
        build = build_rawlsian_lp if kind == "rawlsian" else build_utilitarian_lp
        m = build(inst, params, centers)
        monkeypatch.setattr(lp_mod, "_CANDIDATES", 1)
        calls = _linprog_spy(monkeypatch)
        xvec, obj, status = HighsSolver().solve(m, params.lp_tolerance)
        rounds = int(status.rsplit("rounds=", 1)[1])
        assert rounds >= 2 and len(calls) == rounds
        # the one candidate per point is its nearest center, whose column the
        # frame eliminates: the first LP holds no x column at all
        assert len(calls[0][0]["c"]) == m.num_vars - m.k * inst.n
        want = _all_columns(monkeypatch, m)
        assert obj == pytest.approx(want.solver_objective, abs=params.lp_tolerance)
        # every non-eliminated column the last LP left out sits at zero; none
        # of them (nor any other x column at zero) prices below -tolerance
        # under the model's own duals
        rc = _reduced_costs(m, calls[-1][1])
        at_zero = np.flatnonzero(xvec[: m.k * m.n] == 0.0)
        assert len(at_zero) >= m.num_vars - inst.n - len(calls[-1][0]["c"])
        assert rc[at_zero].min() >= -params.lp_tolerance

    @pytest.mark.parametrize("k", [2, 4])
    def test_small_k_is_one_full_solve(self, monkeypatch, k):
        inst, params, centers = _setup(n=40, k=k, H=2, lam=0.3, seed=2)
        m = build_rawlsian_lp(inst, params, centers)
        calls = _linprog_spy(monkeypatch)
        xvec, _, status = HighsSolver().solve(m, params.lp_tolerance)
        assert status == "highs:optimal:rounds=1"
        # every column but the n eliminated nearest-center ones
        assert len(calls) == 1 and len(calls[0][0]["c"]) == m.num_vars - inst.n
        assert xvec.shape == (m.num_vars,)

    def test_tolerance_reaches_highs(self, monkeypatch):
        # HiGHS's feasibility tolerances are lp_tolerance capped at 1e-9
        inst, params, centers = _setup(n=30, k=6, H=2, seed=1)
        m = build_utilitarian_lp(inst, params, centers)
        calls = _linprog_spy(monkeypatch)
        for tolerance, feasibility in ((1e-6, 1e-9), (5e-10, 5e-10)):
            calls.clear()
            solve_lp(m, tolerance=tolerance)
            assert calls
            for kwargs, _ in calls:
                assert kwargs["options"] == {
                    "presolve": False,
                    "primal_feasibility_tolerance": feasibility,
                    "dual_feasibility_tolerance": feasibility,
                }


class TestLambdaOneReductions:
    """At lam = 1 violations drop out and the optimum has a closed form."""

    @pytest.mark.parametrize("seed", range(4))
    def test_utilitarian_reduces_to_weighted_nearest(self, seed):
        inst, params, centers = _setup(n=15, k=3, H=2, lam=1.0, seed=seed)
        m = build_utilitarian_lp(inst, params, centers)
        frac = solve_lp(m)
        dist = pairwise_pow(inst.features, centers, params.p)
        want = float(
            (dist.min(axis=1) / inst.counts[inst.colors]).sum()
        )
        assert frac.objective == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("seed", range(4))
    def test_rawlsian_reduces_to_max_group_nearest(self, seed):
        # colors occupy disjoint x columns, so each color independently
        # routes every point to its nearest center
        inst, params, centers = _setup(n=15, k=3, H=2, lam=1.0, seed=seed + 10)
        m = build_rawlsian_lp(inst, params, centers)
        frac = solve_lp(m)
        dist = pairwise_pow(inst.features, centers, params.p)
        dmin = dist.min(axis=1)
        want = max(
            float(dmin[inst.colors == h].sum()) / inst.counts[h]
            for h in range(inst.num_colors)
        )
        assert frac.objective == pytest.approx(want, abs=1e-9)


# to_lp_text of _golden_models(), byte for byte; the assign_j rows come
# first although the model only implies them
_GOLDEN_RAWLSIAN = r"""\ welfair rawlsian assignment model
Minimize
 obj: +1 z
Subject To
 assign_0: +1 x_0_0 +1 x_1_0 = 1
 assign_1: +1 x_0_1 +1 x_1_1 = 1
 assign_2: +1 x_0_2 +1 x_1_2 = 1
 assign_3: +1 x_0_3 +1 x_1_3 = 1
 under_0_0: -0.55000000000000004 x_0_0 +0.45000000000000001 x_0_1 -0.55000000000000004 x_0_2 +0.45000000000000001 x_0_3 -1 t_0_0 <= 0
 under_0_1: +0.45000000000000001 x_0_0 -0.55000000000000004 x_0_1 +0.45000000000000001 x_0_2 -0.55000000000000004 x_0_3 -1 t_0_1 <= 0
 under_1_0: -0.55000000000000004 x_1_0 +0.45000000000000001 x_1_1 -0.55000000000000004 x_1_2 +0.45000000000000001 x_1_3 -1 t_1_0 <= 0
 under_1_1: +0.45000000000000001 x_1_0 -0.55000000000000004 x_1_1 +0.45000000000000001 x_1_2 -0.55000000000000004 x_1_3 -1 t_1_1 <= 0
 over_0_0: +0.44999999999999996 x_0_0 -0.55000000000000004 x_0_1 +0.44999999999999996 x_0_2 -0.55000000000000004 x_0_3 -1 t_0_0 <= 0
 over_0_1: -0.55000000000000004 x_0_0 +0.44999999999999996 x_0_1 -0.55000000000000004 x_0_2 +0.44999999999999996 x_0_3 -1 t_0_1 <= 0
 over_1_0: +0.44999999999999996 x_1_0 -0.55000000000000004 x_1_1 +0.44999999999999996 x_1_2 -0.55000000000000004 x_1_3 -1 t_1_0 <= 0
 over_1_1: -0.55000000000000004 x_1_0 +0.44999999999999996 x_1_1 -0.55000000000000004 x_1_2 +0.44999999999999996 x_1_3 -1 t_1_1 <= 0
 disu_0: +0.037499999999999999 x_0_0 +0.33749999999999997 x_0_2 +0.75 x_1_0 +0.75 x_1_2 +0.34999999999999998 t_0_0 +0.34999999999999998 t_1_0 -1 z <= 0
 disu_1: +0.1875 x_0_1 +1.3875 x_0_3 +0.29999999999999999 x_1_1 +0.14999999999999999 x_1_3 +0.34999999999999998 t_0_1 +0.34999999999999998 t_1_1 -1 z <= 0
Bounds
 0 <= x_0_0 <= 1
 0 <= x_0_1 <= 1
 0 <= x_0_2 <= 1
 0 <= x_0_3 <= 1
 0 <= x_1_0 <= 1
 0 <= x_1_1 <= 1
 0 <= x_1_2 <= 1
 0 <= x_1_3 <= 1
 t_0_0 >= 0
 t_0_1 >= 0
 t_1_0 >= 0
 t_1_1 >= 0
 z free
End
"""

_GOLDEN_UTILITARIAN = r"""\ welfair utilitarian assignment model
Minimize
 obj: +0.037499999999999999 x_0_0 +0.1875 x_0_1 +0.33749999999999997 x_0_2 +1.3875 x_0_3 +0.75 x_1_0 +0.29999999999999999 x_1_1 +0.75 x_1_2 +0.14999999999999999 x_1_3 +0.34999999999999998 t_0_0 +0.34999999999999998 t_0_1 +0.34999999999999998 t_1_0 +0.34999999999999998 t_1_1
Subject To
 assign_0: +1 x_0_0 +1 x_1_0 = 1
 assign_1: +1 x_0_1 +1 x_1_1 = 1
 assign_2: +1 x_0_2 +1 x_1_2 = 1
 assign_3: +1 x_0_3 +1 x_1_3 = 1
 under_0_0: -0.55000000000000004 x_0_0 +0.45000000000000001 x_0_1 -0.55000000000000004 x_0_2 +0.45000000000000001 x_0_3 -1 t_0_0 <= 0
 under_0_1: +0.45000000000000001 x_0_0 -0.55000000000000004 x_0_1 +0.45000000000000001 x_0_2 -0.55000000000000004 x_0_3 -1 t_0_1 <= 0
 under_1_0: -0.55000000000000004 x_1_0 +0.45000000000000001 x_1_1 -0.55000000000000004 x_1_2 +0.45000000000000001 x_1_3 -1 t_1_0 <= 0
 under_1_1: +0.45000000000000001 x_1_0 -0.55000000000000004 x_1_1 +0.45000000000000001 x_1_2 -0.55000000000000004 x_1_3 -1 t_1_1 <= 0
 over_0_0: +0.44999999999999996 x_0_0 -0.55000000000000004 x_0_1 +0.44999999999999996 x_0_2 -0.55000000000000004 x_0_3 -1 t_0_0 <= 0
 over_0_1: -0.55000000000000004 x_0_0 +0.44999999999999996 x_0_1 -0.55000000000000004 x_0_2 +0.44999999999999996 x_0_3 -1 t_0_1 <= 0
 over_1_0: +0.44999999999999996 x_1_0 -0.55000000000000004 x_1_1 +0.44999999999999996 x_1_2 -0.55000000000000004 x_1_3 -1 t_1_0 <= 0
 over_1_1: -0.55000000000000004 x_1_0 +0.44999999999999996 x_1_1 -0.55000000000000004 x_1_2 +0.44999999999999996 x_1_3 -1 t_1_1 <= 0
Bounds
 0 <= x_0_0 <= 1
 0 <= x_0_1 <= 1
 0 <= x_0_2 <= 1
 0 <= x_0_3 <= 1
 0 <= x_1_0 <= 1
 0 <= x_1_1 <= 1
 0 <= x_1_2 <= 1
 0 <= x_1_3 <= 1
 t_0_0 >= 0
 t_0_1 >= 0
 t_1_0 >= 0
 t_1_1 >= 0
End
"""


def _golden_models():
    inst = Instance(
        np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0], [3.0, 1.0]]),
        np.array([0, 1, 0, 1]),
        ["a", "b"],
    )
    params = Params.with_delta(inst, 2, 0.3, 0.1)
    centers = np.array([[0.0, 0.5], [2.0, 1.0]])
    return (
        build_rawlsian_lp(inst, params, centers),
        build_utilitarian_lp(inst, params, centers),
    )


class TestExport:
    def test_sections_and_shape(self):
        inst, params, centers = _setup(n=6, k=2, H=2)
        text = to_lp_text(build_rawlsian_lp(inst, params, centers))
        for section in ("Minimize", "Subject To", "Bounds", "End"):
            assert section in text
        assert " obj: +1 z" in text
        assert "assign_0:" in text and "disu_1:" in text
        assert " z free" in text

    def test_only_z_is_free(self):
        inst, params, centers = _setup(n=6, k=2, H=2)
        for build, want in (
            (build_rawlsian_lp, [" z free"]),
            (build_utilitarian_lp, []),
        ):
            text = to_lp_text(build(inst, params, centers))
            assert [ln for ln in text.splitlines() if ln.endswith(" free")] == want
            assert " t_1_1 >= 0" in text

    def test_seventeen_digit_floats(self):
        inst, params, centers = _setup(n=6, k=2, H=2)
        m = build_utilitarian_lp(inst, params, centers)
        text = to_lp_text(m)
        # a representative coefficient round-trips exactly through the text
        coeff = m.objective[np.nonzero(m.objective)[0][0]]
        assert f"{coeff:+.17g}" in text
        assert float(f"{coeff:.17g}") == coeff

    def test_deterministic(self):
        inst, params, centers = _setup(n=6, k=2, H=2)
        a = to_lp_text(build_rawlsian_lp(inst, params, centers))
        b = to_lp_text(build_rawlsian_lp(inst, params, centers))
        assert a == b

    def test_golden_text(self):
        rawlsian, utilitarian = _golden_models()
        assert to_lp_text(rawlsian) == _GOLDEN_RAWLSIAN
        assert to_lp_text(utilitarian) == _GOLDEN_UTILITARIAN


class TestBruteForce:
    def test_matches_exhaustive_report_scan(self, monkeypatch):
        # small batches put batch boundaries inside the enumeration
        for n, k, H, seed, batch in (
            (6, 2, 2, 4, 4096), (6, 2, 2, 4, 7), (6, 3, 3, 1, 10), (5, 5, 2, 2, 64)
        ):
            monkeypatch.setattr(lp_mod, "_BRUTE_BATCH", batch)
            inst, params, centers = _setup(n=n, k=k, H=H, lam=0.6, seed=seed)
            for kind in ("rawlsian", "utilitarian"):
                got_assign, got_val = brute_force_assignment(
                    inst, params, centers, kind
                )
                best_val = np.inf
                best_assign = None
                for assign in itertools.product(range(k), repeat=inst.n):
                    rep = group_costs(
                        inst, Solution(centers, np.array(assign)), params
                    )
                    val = rep.R if kind == "rawlsian" else rep.U
                    if val < best_val - 1e-15:
                        best_val = val
                        best_assign = np.array(assign)
                assert got_val == pytest.approx(best_val, abs=1e-12)
                assert np.array_equal(got_assign, best_assign)

    def test_size_guard(self):
        inst, params, centers = _setup(n=14, k=2, H=2)
        with pytest.raises(BruteForceSizeError):
            brute_force_assignment(inst, params, centers, "rawlsian", limit=100)

    def test_unknown_objective(self):
        inst, params, centers = _setup(n=5, k=2, H=2)
        with pytest.raises(ValueError):
            brute_force_assignment(inst, params, centers, "minimax")


class TestHighsStatus:
    """A failed HiGHS solve reaches the caller as the LPError its linprog
    status names: 2 infeasible, 3 unbounded, any other non-zero generic."""

    @pytest.mark.parametrize(
        "status, error",
        [(2, LPInfeasibleError), (3, LPUnboundedError), (1, LPError), (4, LPError)],
        ids=["infeasible", "unbounded", "iteration_limit", "numerical"],
    )
    @pytest.mark.parametrize("build", [build_rawlsian_lp, build_utilitarian_lp])
    def test_status_raises(self, monkeypatch, build, status, error):
        import scipy.optimize

        inst, params, centers = _setup(n=8, k=2, H=2)
        m = build(inst, params, centers)
        calls = []

        def failing(c, **kwargs):
            calls.append(c)
            return SimpleNamespace(status=status, message=f"status {status}")

        monkeypatch.setattr(scipy.optimize, "linprog", failing)
        with pytest.raises(error, match=f"status {status}") as info:
            HighsSolver().solve(m, params.lp_tolerance)
        assert info.type is error
        assert len(calls) == 1


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    lam=st.floats(0.0, 1.0),
    delta=st.floats(0.0, 0.4),
)
def test_solve_lp_property(seed, lam, delta):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 16))
    k = int(rng.integers(1, 4))
    H = int(rng.integers(2, 4))
    inst = random_instance(n, 2, H, seed)
    rmax = float(inst.proportions.max())
    delta = min(delta, (1.0 - rmax) / rmax)  # keep r_h + alpha_h <= 1
    params = Params.with_delta(inst, k, lam, delta)
    centers = inst.features[rng.choice(n, size=k, replace=False)]
    m = build_utilitarian_lp(inst, params, centers)
    frac = solve_lp(m)
    np.testing.assert_allclose(frac.x.sum(axis=0), 1.0, atol=1e-6)
    assert frac.objective >= -1e-12
    # nearest-center integral assignment upper-bounds the LP optimum
    nearest = np.argmin(m.dist_pow, axis=1)
    rep = group_costs(inst, Solution(centers, nearest), params)
    assert frac.objective <= rep.U + 1e-7


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    H=st.integers(2, 4),
    n=st.integers(4, 8),
    k=st.sampled_from([2, 3]),
    p=st.sampled_from([1, 2]),
    lam=st.floats(0.0, 1.0),
    delta=st.sampled_from([0.0, 0.05, 0.2, 0.5]),
    kind=st.sampled_from(["rawlsian", "utilitarian"]),
)
# at HiGHS's default feasibility tolerance of 1e-7 this LP value exceeded the
# brute-force optimum by 1.05e-7
@example(
    seed=2, H=2, n=6, k=2, p=2, lam=1.192092896e-07, delta=0.0, kind="utilitarian"
)
def test_lp_brute_rounding_sandwich_property(seed, H, n, k, p, lam, delta, kind):
    # LP <= brute-force optimum <= rounded <= LP + (1 - lambda) C, and every
    # rounded (cluster, color) mass within floor/ceil of the LP's
    assume(H <= n)
    rng = np.random.default_rng(seed)
    colors = np.concatenate([np.arange(H), rng.integers(0, H, size=n - H)])
    rng.shuffle(colors)
    inst = Instance(rng.normal(size=(n, 2)), colors, [f"g{h}" for h in range(H)])
    params = Params.with_delta(inst, k, lam, delta, p)
    try:
        params.validate(inst)
    except ParamError:
        assume(False)
    centers = inst.features[rng.choice(n, size=k, replace=False)]
    dist = pairwise_pow(inst.features, centers, p)
    build = build_rawlsian_lp if kind == "rawlsian" else build_utilitarian_lp
    rounder = rawlsian_round if kind == "rawlsian" else utilitarian_round
    frac = solve_lp(build(inst, params, centers, dist))
    _, brute = brute_force_assignment(inst, params, centers, kind)
    integral = rounder(frac.x, inst, params, dist)
    c_r, c_u = additive_constants(inst, params)
    bound = (1.0 - lam) * (c_r if kind == "rawlsian" else c_u)
    tol = params.lp_tolerance
    assert frac.objective <= brute + tol
    assert brute <= integral.objective + 1e-12
    assert integral.objective <= frac.objective + bound + tol
    for h in range(H):
        mass = frac.x[:, colors == h].sum(axis=1)
        for i in range(k):
            lo, hi = _floor_ceil(float(mass[i]))
            assert lo <= integral.color_mass[i, h] <= hi


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    H=st.integers(2, 4),
    k=st.integers(2, 6),
    lam=st.floats(0.0, 1.0),
    dup=st.booleans(),
    kind=st.sampled_from(["rawlsian", "utilitarian"]),
)
# at HiGHS's default tolerances the reference stopped at 6.7795e-6 against
# the optimum 6.5796e-6: the column costs, about 5e-8, sit under its 1e-7
# dual feasibility tolerance
@example(seed=998, H=2, k=2, lam=1e-06, dup=False, kind="utilitarian")
@example(seed=3, H=3, k=3, lam=5.960464477539063e-08, dup=False, kind="rawlsian")
def test_nearest_frame_matches_ipm_property(seed, H, k, lam, dup, kind):
    # HighsSolver's frame LP (nearest column eliminated, class prefix and
    # pricing for k > _CANDIDATES) has the value of the untransformed model,
    # solved by HiGHS's interior-point method at tight tolerances, and its
    # x, rebuilt in the model's variables, meets every model row
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2 * H + k, 40))
    inst = random_instance(n, 2, H, int(rng.integers(0, 10_000)))
    delta = float(rng.choice([0.0, 0.05, 0.2]))
    params = Params.with_delta(inst, k, lam, delta)
    try:
        params.validate(inst)
    except ParamError:
        assume(False)
    centers = inst.features[rng.choice(n, size=k, replace=False)]
    if dup:
        # equal centers tie every point's distances to them
        centers[rng.integers(1, k)] = centers[0]
    build = build_rawlsian_lp if kind == "rawlsian" else build_utilitarian_lp
    m = build(inst, params, centers)
    xvec, obj, _ = HighsSolver().solve(m, params.lp_tolerance)

    A_ub, A_eq, ref = _reference(m)
    assert obj == pytest.approx(ref.fun, abs=params.lp_tolerance)
    assert float(m.objective @ xvec) == pytest.approx(obj, abs=1e-12)
    np.testing.assert_allclose(A_eq @ xvec, 1.0, atol=1e-8)
    assert (A_ub @ xvec).max() <= 1e-8
    assert (xvec >= m.lower - 1e-8).all() and (xvec <= m.upper + 1e-8).all()
    np.testing.assert_allclose(
        xvec[: k * n].reshape(k, n).sum(axis=0), 1.0, atol=1e-12
    )
