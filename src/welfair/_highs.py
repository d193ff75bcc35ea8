"""One LP solve by HiGHS (Huangfu & Hall, Math. Prog. Comp. 2018), called
through scipy's bundled bindings without the `linprog`/`milp` layers.

Those layers check every option against an options manager, copy and stack
the matrix, and fill per-column bound multipliers in a Python loop; on the
small LPs of a sweep that cost more than HiGHS's own solve. Here the model
goes to HiGHS as arrays, and the solution is checked as `linprog` checks it.

Each thread keeps one HiGHS object, made on its first solve with the fixed
options (presolve off, the dual simplex, feasibility tolerances _FEASIBILITY,
entries down to 1e-12, no output) passed once; building and freeing one per
solve cost more than HiGHS's own `run()` on the small LPs of a sweep. Every solve
clears the previous model, with its basis and solution, before it passes
its own, so no solve starts from another's basis and the results are those
of a fresh object. An idle solver keeps the capacity of the largest LP it
solved (3.4 MB of resident memory after an n = 3000 assignment LP).

Both LPs, the assignment LP and the rounding LP, run down one path: one
feasibility tolerance, _FEASIBILITY, and one check of x and of `A x`,
computed here in the LP's own scale, because HiGHS measures feasibility on
its scaled model and its row values agree with that model.
An optimum that breaks the LP by more than the feasibility tolerance is
solved once more, from scratch and unscaled.

Both LPs are feasible and bounded by construction (the nearest assignment
and the fractional x are feasible points), so every failure raises an
`InternalInvariantError`; a failed run's message names HiGHS's model status.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import NoReturn

import numpy as np
from scipy.optimize._highspy._core import (
    HighsModelStatus,
    HighsOptions,
    HighsStatus,
    MatrixFormat,
    ObjSense,
    _Highs,
    simplex_constants,
)
from scipy.sparse._sparsetools import csc_matvec

from .errors import InternalInvariantError

# linprog's post-solve check: x and every row within their limits to
# sqrt(1e-9) * 10
_CHECK_TOL = np.sqrt(1e-9) * 10
# HiGHS's primal and dual feasibility tolerances: at its default of 1e-7 an
# x that breaks rows by up to 1e-7 can put the LP value above the integral
# optimum. `Params.validate` keeps every lp_tolerance at least 10 times this
_FEASIBILITY = 1e-9
_DUAL_SIMPLEX = int(simplex_constants.SimplexStrategy.kSimplexStrategyDual)
_DEFAULTS = HighsOptions()
_SCALING = "simplex_scale_strategy"
# one HiGHS object per thread, made by `_solver` on the thread's first solve
_local = threading.local()


@dataclass
class LP:
    """min cost . x subject to row_lower <= A x <= row_upper and
    col_lower <= x <= col_upper, A in CSC form (start, index, value)."""

    cost: np.ndarray
    start: np.ndarray        # (num_col + 1,) column starts, ending at nnz
    index: np.ndarray
    value: np.ndarray
    col_lower: np.ndarray
    col_upper: np.ndarray
    row_lower: np.ndarray
    row_upper: np.ndarray


@dataclass
class Solution:
    x: np.ndarray
    row_dual: np.ndarray
    objective: float
    iterations: int          # simplex iterations


def solve(lp: LP) -> Solution:
    """Solve lp by HiGHS's dual simplex with presolve off and no output.

    Presolve would move the assignment LP off its all-zero start (see
    `lp.LPModel`), and it ended some rounding LPs with model status Unknown.
    An optimum whose x, or A x, breaks a bound or a row of lp by more than
    the feasibility tolerance, _FEASIBILITY, is solved again with scaling
    off (iterations then counts both runs). Any model status but optimal
    raises InternalInvariantError, and so does an optimum with a NaN or one
    that breaks a bound or a row by more than _CHECK_TOL.
    """
    highs = _solver()
    highs.clearModel()
    num_col, num_row = len(lp.cost), len(lp.row_upper)
    # this overload reads num_col entries of the starts and of the
    # integrality, which must be given: 0 is a continuous column
    passed = highs.passModel(
        num_col,
        num_row,
        len(lp.index),
        int(MatrixFormat.kColwise),
        int(ObjSense.kMinimize),
        0.0,
        lp.cost,
        lp.col_lower,
        lp.col_upper,
        lp.row_lower,
        lp.row_upper,
        lp.start[:-1],
        lp.index,
        lp.value,
        np.zeros(num_col, dtype=np.int32),
    )
    if passed == HighsStatus.kError:
        _raise_for(highs, HighsModelStatus.kModelError)
    res, excess = _run(highs, lp)
    # a NaN fails every comparison
    if not excess <= _FEASIBILITY:
        iterations = res.iterations
        highs.clearSolver()
        highs.setOptionValue(_SCALING, 0)
        try:
            res, excess = _run(highs, lp)
        finally:
            highs.setOptionValue(_SCALING, _DEFAULTS.simplex_scale_strategy)
        res.iterations += iterations
    if not (excess <= _CHECK_TOL and res.objective == res.objective):
        raise InternalInvariantError(
            "HiGHS's optimum breaks a bound or a row by more than "
            f"{_CHECK_TOL:.2e}, or holds a NaN"
        )
    return res


def _solver() -> _Highs:
    """This thread's HiGHS object, made with the fixed options on first use."""
    highs = getattr(_local, "highs", None)
    if highs is None:
        options = HighsOptions()
        options.presolve = "off"
        options.simplex_strategy = _DUAL_SIMPLEX
        options.primal_feasibility_tolerance = _FEASIBILITY
        options.dual_feasibility_tolerance = _FEASIBILITY
        # HiGHS drops matrix entries below this, 1e-9 by default, as the
        # Rawlsian rows' lambda / n_h * (d_i - d_a) are at small lambda; a
        # solve without them ended with model status Unknown at lambda = 1e-6.
        # It also drops the frame LP's exact zeros, its Rawlsian deltas at
        # lambda = 0 or a distance tie and its t costs at lambda = 1
        options.small_matrix_value = 1e-12
        options.output_flag = False
        options.log_to_console = False
        highs = _Highs()
        if highs.passOptions(options) == HighsStatus.kError:
            raise InternalInvariantError("HiGHS rejected its options")
        _local.highs = highs
    return highs


def _run(highs: _Highs, lp: LP) -> tuple[Solution, float]:
    """Run HiGHS on the model it holds. Return the optimum and the most by
    which its x breaks a bound of lp or A x, computed here in lp's own
    scale, a row."""
    highs.run()
    status = highs.getModelStatus()
    if status != HighsModelStatus.kOptimal:
        _raise_for(highs, status)
    solution = highs.getSolution()
    # the solution's vectors arrive as lists; a dtype spares numpy a scan
    x = np.array(solution.col_value, dtype=np.float64)
    ax = np.zeros(len(lp.row_upper))
    csc_matvec(len(ax), len(x), lp.start, lp.index, lp.value, x, ax)
    excess = np.maximum(
        _excess(lp.col_lower, x, lp.col_upper),
        _excess(lp.row_lower, ax, lp.row_upper),
    )
    res = Solution(
        x,
        np.array(solution.row_dual, dtype=np.float64),
        highs.getObjectiveValue(),
        highs.getInfoValue("simplex_iteration_count")[1],
    )
    return res, excess


def _excess(lower: np.ndarray, value: np.ndarray, upper: np.ndarray) -> float:
    """The most by which value leaves [lower, upper]: 0 if it stays within,
    NaN if it holds a NaN."""
    return np.maximum.reduce(np.maximum(lower - value, value - upper), initial=0.0)


def _raise_for(highs: _Highs, status: HighsModelStatus) -> NoReturn:
    raise InternalInvariantError(
        f"HiGHS model status {highs.modelStatusToString(status)}"
    )
