"""One LP solve by HiGHS (Huangfu & Hall, Math. Prog. Comp. 2018), called
through scipy's bundled bindings without the `linprog`/`milp` layers.

Those layers check every option against an options manager, copy and stack
the matrix, and fill per-column bound multipliers in a Python loop; on the
small LPs of a sweep that cost more than HiGHS's own solve. Here the model
goes to HiGHS as arrays, with the options set on a `HighsOptions` directly,
and the solution is checked as `linprog` checks it.
"""

from __future__ import annotations

from dataclasses import dataclass

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

from .errors import LPError, LPInfeasibleError, LPUnboundedError

# linprog's post-solve check: x and every row within their limits to
# sqrt(1e-9) * 10
_CHECK_TOL = np.sqrt(1e-9) * 10
_DUAL_SIMPLEX = int(simplex_constants.SimplexStrategy.kSimplexStrategyDual)


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


def solve(lp: LP, feasibility: float | None = None) -> Solution:
    """Solve lp by HiGHS's dual simplex with presolve off and no output.

    Presolve would move the assignment LP off its all-zero start (see
    `lp._Frame`), and it ended some rounding LPs with model status Unknown.
    feasibility, if given, is both of HiGHS's feasibility tolerances (its
    default is 1e-7). An infeasible or malformed model raises
    LPInfeasibleError, an unbounded one LPUnboundedError, and any other
    status but optimal LPError; so does an optimum with a NaN or one that
    breaks a bound or a row by more than _CHECK_TOL.
    """
    options = HighsOptions()
    options.presolve = "off"
    options.simplex_strategy = _DUAL_SIMPLEX
    options.output_flag = False
    options.log_to_console = False
    if feasibility is not None:
        options.primal_feasibility_tolerance = feasibility
        options.dual_feasibility_tolerance = feasibility
    highs = _Highs()
    if highs.passOptions(options) == HighsStatus.kError:
        raise LPError("HiGHS rejected its options")
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
        status = HighsModelStatus.kModelError
    else:
        highs.run()
        status = highs.getModelStatus()
    if status != HighsModelStatus.kOptimal:
        message = f"HiGHS model status {highs.modelStatusToString(status)}"
        if status in (HighsModelStatus.kInfeasible, HighsModelStatus.kModelError):
            raise LPInfeasibleError(message)
        if status == HighsModelStatus.kUnbounded:
            raise LPUnboundedError(message)
        raise LPError(message)
    solution, info = highs.getSolution(), highs.getInfo()
    x, rows = np.asarray(solution.col_value), np.asarray(solution.row_value)
    objective = info.objective_function_value
    # a NaN fails every comparison
    if not (
        np.all(x >= lp.col_lower - _CHECK_TOL)
        and np.all(x <= lp.col_upper + _CHECK_TOL)
        and np.all(rows >= lp.row_lower - _CHECK_TOL)
        and np.all(rows <= lp.row_upper + _CHECK_TOL)
        and objective == objective
    ):
        raise LPError(
            "HiGHS's optimum breaks a bound or a row by more than "
            f"{_CHECK_TOL:.2e}, or holds a NaN"
        )
    return Solution(
        x, np.asarray(solution.row_dual), objective, info.simplex_iteration_count
    )
