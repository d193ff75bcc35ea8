"""HighsSolver on small LPs in equality standard form.

The models here are generic LPModels (no assignment meta), so HighsSolver
solves them with every column in one linprog call. Optima are checked by hand
or against HiGHS's interior-point method, a different algorithm from the
simplex that method="highs" runs on LPs this small.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from welfair.errors import LPInfeasibleError, LPUnboundedError
from welfair.lp import HighsSolver, LPModel, Row

INF = np.inf


def _model(A, b, c, lower, upper) -> LPModel:
    A = np.asarray(A, dtype=float)
    rows = []
    for i, (coeffs, rhs) in enumerate(zip(A, np.asarray(b, float))):
        cols = np.flatnonzero(coeffs)
        rows.append(Row(f"r{i}", cols, coeffs[cols], "eq", float(rhs)))
    return LPModel(
        A.shape[1],
        np.asarray(c, float),
        rows,
        np.asarray(lower, float),
        np.asarray(upper, float),
    )


def _solve(A, b, c, lower, upper):
    x, objective, status = HighsSolver().solve(_model(A, b, c, lower, upper), 1e-9)
    return SimpleNamespace(x=x, objective=objective, status=status)


def _ipm_obj(A, b, c, lower, upper) -> float:
    res = linprog(
        c,
        A_eq=np.asarray(A, float),
        b_eq=np.asarray(b, float),
        bounds=list(zip(lower, upper)),
        method="highs-ipm",
    )
    assert res.status == 0, res.message
    return float(res.fun)


class TestBasics:
    def test_tiny_known_optimum(self):
        # min -x1 - 2 x2  s.t.  x1 + x2 + s = 4
        res = _solve([[1, 1, 1]], [4], [-1, -2, 0], [0, 0, 0], [10, 10, INF])
        assert res.objective == pytest.approx(-8.0)
        np.testing.assert_allclose(res.x, [0, 4, 0], atol=1e-9)
        assert res.status.startswith("highs:optimal")

    def test_upper_bound_binds(self):
        res = _solve(
            [[1, 1, 1]], [4], [-2, -1, 0], [0, 0, 0], [1.5, 10, INF]
        )
        assert res.objective == pytest.approx(-2 * 1.5 - 2.5)
        np.testing.assert_allclose(res.x, [1.5, 2.5, 0], atol=1e-9)

    def test_negative_lower_bound(self):
        # min x + 0y  s.t.  x + y = 0,  x in [-5, 5], y free
        res = _solve([[1, 1]], [0], [1, 0], [-5, -INF], [5, INF])
        assert res.objective == pytest.approx(-5.0)
        np.testing.assert_allclose(res.x, [-5, 5], atol=1e-9)

    def test_negative_rhs(self):
        res = _solve([[1, -1]], [-3], [1, 1], [0, 0], [INF, INF])
        # x - y = -3, minimize x + y -> x = 0, y = 3
        np.testing.assert_allclose(res.x, [0, 3], atol=1e-9)

    def test_two_rows(self):
        A = [[1, 1, 0, 1, 0], [0, 1, 1, 0, 1]]
        b = [3, 2]
        c = [-1, -2, -1, 0, 0]
        lower = [0] * 5
        upper = [INF] * 5
        res = _solve(A, b, c, lower, upper)
        assert res.objective == pytest.approx(_ipm_obj(A, b, c, lower, upper))

    def test_fixed_variable(self):
        # middle variable pinned by equal bounds
        res = _solve([[1, 1, 1]], [4], [-1, 5, -2], [0, 1, 0], [10, 1, 10])
        np.testing.assert_allclose(res.x, [0, 1, 3], atol=1e-9)

    def test_solution_within_bounds_and_feasible(self):
        rng = np.random.default_rng(0)
        A = rng.normal(size=(4, 9))
        x0 = rng.random(9)
        b = A @ x0
        c = rng.normal(size=9)
        res = _solve(A, b, c, np.zeros(9), np.ones(9))
        assert np.all(res.x >= -1e-12) and np.all(res.x <= 1 + 1e-12)
        np.testing.assert_allclose(A @ res.x, b, atol=1e-7)


class TestFailures:
    def test_infeasible(self):
        with pytest.raises(LPInfeasibleError):
            _solve([[1, 1]], [5], [1, 1], [0, 0], [1, 1])

    def test_infeasible_conflicting_rows(self):
        with pytest.raises(LPInfeasibleError):
            _solve([[1, 1], [1, 1]], [1, 2], [0, 0], [0, 0], [INF, INF])

    def test_unbounded(self):
        with pytest.raises(LPUnboundedError):
            _solve([[1, -1]], [0], [-1, 0], [0, 0], [INF, INF])


class TestAgainstLinprog:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_dense(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 7))
        n = m + int(rng.integers(2, 10))
        A = rng.normal(size=(m, n))
        x0 = rng.random(n) * 2
        b = A @ x0
        c = rng.normal(size=n)
        upper = np.full(n, 3.0)
        lower = np.zeros(n)
        got = _solve(A, b, c, lower, upper)
        want = _ipm_obj(A, b, c, lower, upper)
        assert got.objective == pytest.approx(want, abs=1e-7, rel=1e-7)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_transportation(self, seed):
        # degenerate-prone integer data: supplies to demands
        rng = np.random.default_rng(100 + seed)
        s, t = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        supply = rng.integers(1, 6, size=s)
        demand_total = int(supply.sum())
        cuts = np.sort(rng.integers(0, demand_total + 1, size=t - 1))
        demand = np.diff(np.concatenate([[0], cuts, [demand_total]]))
        n = s * t
        A = np.zeros((s + t, n))
        for i in range(s):
            for j in range(t):
                A[i, i * t + j] = 1
                A[s + j, i * t + j] = 1
        b = np.concatenate([supply, demand]).astype(float)
        c = rng.integers(1, 10, size=n).astype(float)
        lower = np.zeros(n)
        upper = np.full(n, INF)
        got = _solve(A, b, c, lower, upper)
        want = _ipm_obj(A, b, c, lower, upper)
        assert got.objective == pytest.approx(want, abs=1e-7)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_random_bounded_property(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 5))
        n = m + int(rng.integers(1, 8))
        A = rng.integers(-3, 4, size=(m, n)).astype(float)
        x0 = rng.random(n)
        b = A @ x0
        c = rng.integers(-5, 6, size=n).astype(float)
        lower = np.zeros(n)
        upper = np.full(n, 2.0)
        got = _solve(A, b, c, lower, upper)
        want = _ipm_obj(A, b, c, lower, upper)
        assert got.objective == pytest.approx(want, abs=1e-6, rel=1e-6)
        np.testing.assert_allclose(A @ got.x, b, atol=1e-6)
