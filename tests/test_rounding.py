from __future__ import annotations

import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse as sp
from scipy.optimize import linprog
from scipy.optimize._highspy._core import HighsModelStatus

from conftest import fake_highs, random_fractional_x
from datagen import random_instance

from welfair import _highs
from welfair.errors import InternalInvariantError, ParamError
from welfair.metrics import color_masses, pairwise_pow
from welfair.model import Instance, Params
from welfair.rounding import _floor_ceil, rawlsian_round, utilitarian_round


def _case(n=20, k=3, H=2, seed=0, delta=0.1, lam=0.5):
    inst = random_instance(n, 2, H, seed)
    params = Params.with_delta(inst, k, lam, delta)
    rng = np.random.default_rng(seed + 7)
    centers = inst.features[rng.choice(n, size=k, replace=False)]
    dist = pairwise_pow(inst.features, centers, params.p)
    x = random_fractional_x(k, n, rng)
    return inst, params, dist, x


def _solve_spy(monkeypatch):
    """Record every rounding LP that reaches HiGHS as (c, A, lo, hi, result)."""
    real = _highs.solve
    calls = []

    def spy(lp):
        assert np.all(lp.col_lower == 0.0) and np.all(lp.col_upper == 1.0)
        res = real(lp)
        A = sp.csc_matrix(
            (lp.value, lp.index, lp.start), shape=(len(lp.row_upper), len(lp.cost))
        )
        calls.append((lp.cost, A.toarray(), lp.row_lower, lp.row_upper, res))
        return res

    monkeypatch.setattr(_highs, "solve", spy)
    return calls


def _cost(inst, dist, assignment):
    return float(
        (dist[np.arange(inst.n), assignment] / inst.counts[inst.colors]).sum()
    )


class TestSnapping:
    def test_snap_mass(self):
        # a mass within 1e-9 of an integer floors and ceils to it; others
        # keep their fractional part
        assert _floor_ceil(2.9999999995) == (3, 3)
        assert _floor_ceil(3.0000000004) == (3, 3)
        assert _floor_ceil(2.5) == (2, 3)
        assert _floor_ceil(-1e-10) == (0, 0)

    def test_floor_ceil(self):
        assert _floor_ceil(2.9999999995) == (3, 3)
        assert _floor_ceil(2.5) == (2, 3)
        assert _floor_ceil(3.0) == (3, 3)
        assert _floor_ceil(-1e-10) == (0, 0)
        assert _floor_ceil(0.4) == (0, 1)
        lo, hi = _floor_ceil(np.array([[2.9999999995, 2.5], [-1e-10, 0.4]]))
        assert lo.tolist() == [[3, 2], [0, 0]]
        assert hi.tolist() == [[3, 3], [0, 1]]


class TestNetworkConstruction:
    """The rounding network runs from the fractional points to the
    (cluster, color) cells, and for the sum objective on to the clusters;
    these tests pin the LP over it that HiGHS gets: one variable per arc in
    (center, point) order, then point rows, cell rows and cluster rows."""

    def test_rawlsian_hand_case(self, monkeypatch):
        inst = random_instance(6, 2, 2, seed=1)
        inst.colors[:] = [0, 0, 0, 1, 1, 1]
        params = Params.with_delta(inst, 2, 0.5)
        dist = np.ones((6, 2))
        x = np.array(
            [
                [0.5, 1.0, 0.0, 1.0, 1.0, 0.5],
                [0.5, 0.0, 1.0, 0.0, 0.0, 0.5],
            ]
        )
        calls = _solve_spy(monkeypatch)
        rawlsian_round(x, inst, params, dist, color_masses(x, inst))
        # one LP for both colors; only points 0 and 5 are fractional
        assert len(calls) == 1
        c, A, lo, hi, _ = calls[0]
        # arcs (center 0, point 0), (0, 5), (1, 0), (1, 5); both colors hold
        # 3 points
        assert c.tolist() == [1 / 3] * 4
        assert A.tolist() == [
            [1, 0, 1, 0],   # point 0
            [0, 1, 0, 1],   # point 5
            [1, 0, 0, 0],   # cell (0, 0)
            [0, 1, 0, 0],   # cell (0, 1)
            [0, 0, 1, 0],   # cell (1, 0)
            [0, 0, 0, 1],   # cell (1, 1)
        ]
        # color 0: mass [1.5, 1.5] -> [1, 2] each, less the fixed points 1
        # and 2; color 1: mass [2.5, 0.5] -> [2, 3] and [0, 1], less the
        # fixed points 3 and 4 on center 0
        assert lo.tolist() == [1, 1, 0, 0, 0, 0]
        assert hi.tolist() == [1, 1, 1, 1, 1, 1]

    def test_integral_mass_has_zero_slack_caps(self, monkeypatch):
        # points 0 and 1 are split, but every mass is integral: the cell
        # rows leave the rounding no slack
        inst = random_instance(6, 2, 2, seed=1)
        inst.colors[:] = [0, 0, 0, 1, 1, 1]
        params = Params.with_delta(inst, 2, 0.5)
        dist = np.ones((6, 2))
        x = np.array(
            [
                [0.5, 0.5, 1.0, 0.0, 0.0, 0.0],
                [0.5, 0.5, 0.0, 1.0, 1.0, 1.0],
            ]
        )
        calls = _solve_spy(monkeypatch)
        for rounder in (rawlsian_round, utilitarian_round):
            rounder(x, inst, params, dist, color_masses(x, inst))
        for _, _, lo, hi, _ in calls:
            assert lo.tolist() == hi.tolist()
        # cells (0, 0) and (1, 0) each take one of the two split points;
        # the utilitarian LP's cluster rows do the same
        assert calls[0][2].tolist() == [1, 1, 1, 0, 1, 0]
        assert calls[1][2].tolist() == [1, 1, 1, 0, 1, 0, 1, 1]

    def test_near_integral_mass_snaps(self, monkeypatch):
        # masses a hair off integers must floor/ceil to the integer itself
        inst = random_instance(4, 2, 2, seed=2)
        inst.colors[:] = [0, 0, 1, 1]
        params = Params.with_delta(inst, 2, 0.5)
        dist = np.ones((4, 2))
        eps = 2.5e-10
        x = np.array(
            [
                [1.0 - eps, 1.0 + eps, 0.5, 0.5],
                [eps, -0.0, 0.5, 0.5],
            ]
        )
        x = np.abs(x)
        calls = _solve_spy(monkeypatch)
        out = rawlsian_round(x, inst, params, dist, color_masses(x, inst))
        # color 0: mass [2, eps] snaps to floors = ceils = [2, 0]; point 1 is
        # fixed to center 0, so points 0, 2 and 3 are rounded with cells
        # (0, 0) at exactly 1 and (1, 0) at exactly 0
        _, _, lo, hi, _ = calls[0]
        assert lo.tolist() == [1, 1, 1, 1, 1, 0, 1]
        assert hi.tolist() == lo.tolist()
        assert out.assignment[:2].tolist() == [0, 0]

    def test_utilitarian_layers(self, monkeypatch):
        # groups of 9 and 3 points, so the 1/n_h arc costs differ
        inst, params, dist, x = _case(n=12, k=2, H=2, seed=4)
        calls = _solve_spy(monkeypatch)
        utilitarian_round(x, inst, params, dist, color_masses(x, inst))
        c, A, lo, hi, _ = calls[0]
        n, k, H = 12, 2, 2
        # the expected layout, written out point by point
        npos = [int((x[:, j] > 0).sum()) for j in range(n)]
        frac = [j for j in range(n) if npos[j] > 1]
        assert 0 < len(frac) < n
        m = len(frac)
        arcs = [(i, j) for i in range(k) for j in frac if x[i, j] > 0]
        want = np.zeros((m + k * H + k, len(arcs)))
        for a, (i, j) in enumerate(arcs):
            want[frac.index(j), a] = 1
            want[m + i * H + inst.colors[j], a] = 1
            want[m + k * H + i, a] = 1
        np.testing.assert_array_equal(A, want)
        assert inst.counts.tolist() == [9, 3]
        assert c.tolist() == [dist[j, i] / inst.counts[inst.colors[j]] for i, j in arcs]
        cell_lo, cell_hi, clu_lo, clu_hi = [], [], [], []
        for i in range(k):
            for h in range(H):
                mass = float(x[i, inst.colors == h].sum())
                fixed = sum(
                    1 for j in range(n)
                    if npos[j] == 1 and x[i, j] > 0 and inst.colors[j] == h
                )
                cell_lo.append(int(_floor_ceil(mass)[0]) - fixed)
                cell_hi.append(int(_floor_ceil(mass)[1]) - fixed)
            fixed = sum(1 for j in range(n) if npos[j] == 1 and x[i, j] > 0)
            clu_lo.append(int(_floor_ceil(float(x[i].sum()))[0]) - fixed)
            clu_hi.append(int(_floor_ceil(float(x[i].sum()))[1]) - fixed)
        assert lo.tolist() == [1] * m + cell_lo + clu_lo
        assert hi.tolist() == [1] * m + cell_hi + clu_hi


class TestMinCostFlow:
    """The rounding is a min-cost flow (transportation) problem; HiGHS must
    return its integral optimum."""

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_lp_value(self, seed):
        inst, params, dist, x = _case(n=16, k=3, H=2, seed=seed)
        for kind, rounder in (
            ("rawlsian", rawlsian_round),
            ("utilitarian", utilitarian_round),
        ):
            out = rounder(x, inst, params, dist, color_masses(x, inst))
            assert _cost(inst, dist, out.assignment) == pytest.approx(
                _transport_optimum(x, inst, dist, kind), abs=1e-9
            )

    @pytest.mark.parametrize("seed", range(6))
    def test_no_negative_residual_cycle(self, seed):
        # an optimal flow has no negative residual cycle: no other rounding
        # of the fractional points within the floor/ceil costs less
        inst, params, dist, x = _case(n=14, k=3, H=3, seed=100 + seed)
        rng = np.random.default_rng(seed)
        hot = np.nonzero(rng.random(inst.n) < 0.6)[0]
        x[:, hot] = 0.0
        x[rng.integers(0, params.k, size=len(hot)), hot] = 1.0
        out = utilitarian_round(x, inst, params, dist, color_masses(x, inst))
        # the points with one positive entry keep its center; the others
        # take every combination of theirs
        single = (x > 0).sum(axis=0) == 1
        frac = np.flatnonzero(~single)
        assert 0 < len(frac) <= 9
        col_lo, col_hi = _floor_ceil(color_masses(x, inst))
        clu_lo, clu_hi = _floor_ceil(x.sum(axis=1))
        best = _cost(inst, dist, out.assignment)
        a = np.where(single, np.argmax(x > 0, axis=0), -1)
        for choice in itertools.product(*[np.nonzero(x[:, j])[0] for j in frac]):
            a[frac] = choice
            mass = np.zeros((params.k, inst.num_colors), dtype=np.int64)
            np.add.at(mass, (a, inst.colors), 1)
            size = mass.sum(axis=1)
            if (
                np.all((col_lo <= mass) & (mass <= col_hi))
                and np.all((clu_lo <= size) & (size <= clu_hi))
            ):
                assert _cost(inst, dist, a) >= best - 1e-12

    def test_flow_conservation(self, monkeypatch):
        # the vertex HiGHS returns is a 0/1 flow that meets every row
        inst, params, dist, x = _case(n=18, k=3, H=2, seed=12)
        calls = _solve_spy(monkeypatch)
        utilitarian_round(x, inst, params, dist, color_masses(x, inst))
        _, A, lo, hi, res = calls[0]
        y = np.round(res.x)
        np.testing.assert_allclose(res.x, y, atol=1e-6)
        assert set(y.tolist()) <= {0.0, 1.0}
        flow = A @ y
        assert np.all((lo <= flow) & (flow <= hi))

    def test_broken_mass_row_is_solved_again_unscaled(self, monkeypatch):
        # every (cluster, color) mass is 1.5, so each color's 3 points go 1
        # and 2 to the centers, and the cell of 1 sits at its floor. Moving
        # 1e-7 of its point to the other center keeps x within its bounds
        # and the point's row, but breaks that cell's mass row in the LP's
        # own scale by more than the feasibility tolerance: HiGHS solves
        # again with scaling off, and the scaling is restored after
        inst = random_instance(6, 2, 2, seed=1)
        inst.colors[:] = [0, 0, 0, 1, 1, 1]
        params = Params.with_delta(inst, 2, 0.5)
        dist = np.zeros((6, 2))
        dist[:, 1] = 1.0
        x = np.full((2, 6), 0.5)

        def edit(solution, model):
            y = np.array(solution.col_value)
            # passModel's row_lower, starts and row indices; every column
            # holds its point's row, then its mass row
            row_lower, start, index = model[9], model[11], model[12]
            point, mass_row = index[start], index[start + 1]
            on = np.round(y)
            mass = np.bincount(mass_row, weights=on, minlength=len(row_lower))
            v = np.flatnonzero((on == 1) & (mass[mass_row] == row_lower[mass_row]))[0]
            w = np.flatnonzero((point == point[v]) & (np.arange(len(y)) != v))[0]
            y[v] -= 1e-7
            y[w] += 1e-7
            solution.col_value = y

        record = fake_highs(monkeypatch, edit=edit)
        ra = rawlsian_round(x, inst, params, dist, color_masses(x, inst))
        assert sorted(ra.color_mass[:, 0]) == sorted(ra.color_mass[:, 1]) == [1, 2]
        scaling = _highs._DEFAULTS.simplex_scale_strategy
        assert [o.simplex_scale_strategy for o in record.options] == [scaling, 0]
        assert _highs._solver().getOptions().simplex_scale_strategy == scaling

    def test_infeasible_raises(self, monkeypatch):
        # every cell of color 0 asks for 2 of its 3 points: all 6 points are
        # fractional, so the LP's 6 point rows come first, and the cells
        # (0, 0) and (1, 0) are rows 6 and 8
        inst = random_instance(6, 2, 2, seed=1)
        inst.colors[:] = [0, 0, 0, 1, 1, 1]
        params = Params.with_delta(inst, 2, 0.5)
        x = np.full((2, 6), 0.5)
        real = _highs.solve

        def tight(lp):
            lp.row_lower[[6, 8]] = lp.row_upper[[6, 8]] = 2
            return real(lp)

        monkeypatch.setattr(_highs, "solve", tight)
        with pytest.raises(InternalInvariantError, match="model status Infeasible"):
            rawlsian_round(x, inst, params, np.ones((6, 2)), color_masses(x, inst))


class TestRoundingBounds:
    """Integral masses stay within floor/ceil of the fractional masses, and
    per-network distance cost never exceeds the fractional cost."""

    @pytest.mark.parametrize("seed", range(8))
    def test_rawlsian(self, seed):
        inst, params, dist, x = _case(
            n=24, k=4, H=3, seed=seed, lam=[0.2, 0.5, 0.9][seed % 3]
        )
        out = rawlsian_round(x, inst, params, dist, color_masses(x, inst))
        counts = inst.counts
        for h in range(inst.num_colors):
            jh = np.nonzero(inst.colors == h)[0]
            mass = x[:, jh].sum(axis=1)
            frac_cost = float((x[:, jh] * dist[jh, :].T).sum()) / counts[h]
            int_cost = 0.0
            for i in range(params.k):
                lo, hi = _floor_ceil(mass[i])
                assert lo <= out.color_mass[i, h] <= hi
            sel = out.assignment[jh]
            int_cost = float(dist[jh, sel].sum()) / counts[h]
            assert int_cost <= frac_cost + 1e-9

    @pytest.mark.parametrize("seed", range(8))
    def test_utilitarian(self, seed):
        inst, params, dist, x = _case(
            n=24, k=4, H=3, seed=50 + seed, lam=[0.2, 0.5, 0.9][seed % 3]
        )
        out = utilitarian_round(x, inst, params, dist, color_masses(x, inst))
        counts = inst.counts
        frac_cost = 0.0
        for h in range(inst.num_colors):
            jh = np.nonzero(inst.colors == h)[0]
            mass = x[:, jh].sum(axis=1)
            frac_cost += float((x[:, jh] * dist[jh, :].T).sum()) / counts[h]
            for i in range(params.k):
                lo, hi = _floor_ceil(mass[i])
                assert lo <= out.color_mass[i, h] <= hi
        sizes = np.bincount(out.assignment, minlength=params.k)
        for i in range(params.k):
            lo, hi = _floor_ceil(float(x[i].sum()))
            assert lo <= sizes[i] <= hi
        int_cost = float(
            (dist[np.arange(inst.n), out.assignment] / counts[inst.colors]).sum()
        )
        assert int_cost <= frac_cost + 1e-9

    def test_every_point_assigned_once(self):
        inst, params, dist, x = _case(n=30, k=3, H=2, seed=77)
        for rounder in (rawlsian_round, utilitarian_round):
            out = rounder(x, inst, params, dist, color_masses(x, inst))
            assert np.all(out.assignment >= 0)
            assert np.all(out.assignment < params.k)
            assert np.bincount(out.assignment, minlength=params.k).sum() == inst.n
            recount = np.zeros((params.k, inst.num_colors), dtype=np.int64)
            np.add.at(recount, (out.assignment, inst.colors), 1)
            np.testing.assert_array_equal(recount, out.color_mass)

    def test_integral_input_is_fixed_point(self):
        # one-hot x rounds to itself
        inst, params, dist, _ = _case(n=16, k=3, H=2, seed=5)
        rng = np.random.default_rng(9)
        assign = rng.integers(0, params.k, size=inst.n)
        x = np.zeros((params.k, inst.n))
        x[assign, np.arange(inst.n)] = 1.0
        for rounder in (rawlsian_round, utilitarian_round):
            out = rounder(x, inst, params, dist, color_masses(x, inst))
            np.testing.assert_array_equal(out.assignment, assign)

    def test_deterministic(self):
        inst, params, dist, x = _case(n=26, k=3, H=3, seed=13)
        a = rawlsian_round(x, inst, params, dist, color_masses(x, inst))
        b = rawlsian_round(x, inst, params, dist, color_masses(x, inst))
        np.testing.assert_array_equal(a.assignment, b.assignment)
        c = utilitarian_round(x, inst, params, dist, color_masses(x, inst))
        d = utilitarian_round(x, inst, params, dist, color_masses(x, inst))
        np.testing.assert_array_equal(c.assignment, d.assignment)

    def test_objective_matches_report_kind(self):
        inst, params, dist, x = _case(n=20, k=3, H=2, seed=21)
        from welfair.metrics import report_from_distances

        # each rounder's report is the report of its own assignment
        ra = rawlsian_round(x, inst, params, dist, color_masses(x, inst))
        rep = report_from_distances(inst, params, dist, ra.assignment)
        assert ra.report.R == pytest.approx(rep.R)
        ua = utilitarian_round(x, inst, params, dist, color_masses(x, inst))
        rep = report_from_distances(inst, params, dist, ua.assignment)
        assert ua.report.U == pytest.approx(rep.U)


class TestExtractGuards:
    def test_unassigned_point_detected(self, monkeypatch):
        # a solve that rounds no fractional point leaves them at -1
        inst, params, dist, x = _case(n=10, k=2, H=2, seed=6)
        assert np.any((x > 0).sum(axis=0) > 1)
        real = _highs.solve

        def none_on(lp):
            res = real(lp)
            res.x[:] = 0.0
            return res

        monkeypatch.setattr(_highs, "solve", none_on)
        with pytest.raises(InternalInvariantError, match="unassigned"):
            rawlsian_round(x, inst, params, dist, color_masses(x, inst))

    def test_solver_failure_detected(self, monkeypatch):
        inst, params, dist, x = _case(n=10, k=2, H=2, seed=6)
        fake_highs(monkeypatch, status=HighsModelStatus.kTimeLimit)
        for rounder in (rawlsian_round, utilitarian_round):
            with pytest.raises(InternalInvariantError, match="Time limit"):
                rounder(x, inst, params, dist, color_masses(x, inst))

    def test_non_integral_vertex_detected(self, monkeypatch):
        inst, params, dist, x = _case(n=10, k=2, H=2, seed=6)
        real = _highs.solve

        def halved(lp):
            res = real(lp)
            res.x[0] = 0.5
            return res

        monkeypatch.setattr(_highs, "solve", halved)
        for rounder in (rawlsian_round, utilitarian_round):
            with pytest.raises(InternalInvariantError, match="integral"):
                rounder(x, inst, params, dist, color_masses(x, inst))

    @pytest.mark.parametrize(
        "rounder, share, what",
        [
            (rawlsian_round, 0.99, "(cluster, color) mass"),
            (utilitarian_round, 0.99, "(cluster, color) mass"),
            (utilitarian_round, 0.6, "cluster size"),
        ],
    )
    def test_mass_outside_floor_ceil_raises(self, rounder, share, what, monkeypatch):
        # the rounding LP solved for other masses than the rounder's x: the
        # LP is feasible, but what it rounds leaves x's floor/ceil. Under x
        # every (cluster, color) mass is 1.5 (floor 1, ceil 2) and every
        # cluster size 3; under the skewed x the cheap center 0 gets 3 points
        # of each color at share 0.99, and 2 (size 4) at share 0.6. Every
        # point is fractional under both, so the LPs differ only in the
        # bounds of their cell rows and cluster rows, which follow the
        # 6 point rows
        inst = random_instance(6, 2, 2, seed=1)
        inst.colors[:] = [0, 0, 0, 1, 1, 1]
        params = Params.with_delta(inst, 2, 0.5)
        dist = np.zeros((6, 2))
        dist[:, 1] = 1.0
        x = np.full((2, 6), 0.5)
        skewed = np.array([[share] * 6, [1.0 - share] * 6])
        col_lo, col_hi = _floor_ceil(color_masses(skewed, inst).ravel())
        clu_lo, clu_hi = _floor_ceil(skewed.sum(axis=1))
        real = _highs.solve

        def skewed_rows(lp):
            rows = len(lp.row_upper)
            lp.row_lower = np.concatenate([np.ones(6), col_lo, clu_lo])[:rows]
            lp.row_upper = np.concatenate([np.ones(6), col_hi, clu_hi])[:rows]
            return real(lp)

        monkeypatch.setattr(_highs, "solve", skewed_rows)
        with pytest.raises(InternalInvariantError, match=re.escape(f"rounded {what}")):
            rounder(x, inst, params, dist, color_masses(x, inst))


class TestInputChecks:
    """The rounders are public: a malformed array is the caller's error, a
    ParamError naming the argument, not a numpy error deep inside or an
    InternalInvariantError."""

    @pytest.mark.parametrize("rounder", [rawlsian_round, utilitarian_round])
    @pytest.mark.parametrize(
        "malform, name",
        [
            pytest.param(lambda x, d, m: (x[:, :19], d, m), "xfrac", id="19-columns"),
            pytest.param(lambda x, d, m: (x, d.T, m), "dist_pow", id="k-by-n-dist"),
            pytest.param(lambda x, d, m: (x[:2], d, m), "xfrac", id="2-rows"),
            pytest.param(
                lambda x, d, m: (np.where(np.arange(20) == 4, 0.0, x), d, m),
                "xfrac",
                id="zero-column",
            ),
            pytest.param(
                lambda x, d, m: (np.where(np.arange(20) == 7, np.nan, x), d, m),
                "xfrac",
                id="nan",
            ),
            pytest.param(lambda x, d, m: (x, d, m.T), "mass", id="H-by-k-mass"),
        ],
    )
    def test_malformed_array_raises_param_error(self, rounder, malform, name):
        inst, params, dist, x = _case(n=20, k=3, H=2, seed=0)
        bad = malform(x, dist, color_masses(x, inst))
        with pytest.raises(ParamError, match=name):
            rounder(bad[0], inst, params, bad[1], bad[2])


def _transport_optimum(x, inst, dist, kind):
    """Independent rounding optimum: the transportation LP over every point,
    with an arc where x > 0 and each (cluster, color) mass, and for the joint
    rounding each cluster size, within floor/ceil of its fractional mass. Its
    constraint matrix is totally unimodular, so the optimum is integral."""
    k, n = x.shape
    arcs = [(i, j) for i in range(k) for j in range(n) if x[i, j] > 0]
    cost = [dist[j, i] / inst.counts[inst.colors[j]] for i, j in arcs]
    A_eq = np.zeros((n, len(arcs)))
    for a, (_, j) in enumerate(arcs):
        A_eq[j, a] = 1.0
    groups = [
        lambda i, j, h=h: inst.colors[j] == h for h in range(inst.num_colors)
    ]
    if kind == "utilitarian":
        groups.append(lambda i, j: True)
    A_ub, b_ub = [], []
    for i in range(k):
        for member in groups:
            row = np.array(
                [1.0 if ii == i and member(ii, j) else 0.0 for ii, j in arcs]
            )
            mass = sum(x[i, j] for j in range(n) if member(i, j))
            lo, hi = _floor_ceil(float(mass))
            A_ub += [row, -row]
            b_ub += [float(hi), -float(lo)]
    res = linprog(
        cost, A_ub=np.array(A_ub), b_ub=b_ub, A_eq=A_eq, b_eq=np.ones(n),
        bounds=(0.0, 1.0), method="highs",
    )
    assert res.status == 0, res.message
    return float(res.fun)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    H=st.integers(2, 4),
    k=st.integers(2, 5),
    n=st.integers(8, 24),
    one_hot=st.floats(0.0, 1.0),
    kind=st.sampled_from(["rawlsian", "utilitarian"]),
)
def test_restricted_rounding_matches_transportation_lp(seed, H, k, n, one_hot, kind):
    # rounding over the fractional support alone reaches the optimum of the
    # rounding problem over all n points, and fixed points keep their center
    rng = np.random.default_rng(seed)
    # uneven group sizes, so the 1/n_h arc costs differ between colors
    share = rng.dirichlet(np.ones(H))
    colors = np.concatenate([np.arange(H), rng.choice(H, size=n - H, p=share)])
    rng.shuffle(colors)
    inst = Instance(rng.normal(size=(n, 2)), colors, [f"g{h}" for h in range(H)])
    dist = rng.random((n, k))
    x = random_fractional_x(k, n, rng)
    hot = np.nonzero(rng.random(n) < one_hot)[0]
    x[:, hot] = 0.0
    x[rng.integers(0, k, size=len(hot)), hot] = 1.0
    params = Params.with_delta(inst, k, 0.5)
    rounder = rawlsian_round if kind == "rawlsian" else utilitarian_round
    out = rounder(x, inst, params, dist, color_masses(x, inst))
    single = (x > 0).sum(axis=0) == 1
    np.testing.assert_array_equal(
        out.assignment[single], np.argmax(x[:, single] > 0, axis=0)
    )
    got = float((dist[np.arange(n), out.assignment] / inst.counts[inst.colors]).sum())
    assert got == pytest.approx(_transport_optimum(x, inst, dist, kind), abs=1e-9)
