"""One LP solve by HiGHS (Huangfu & Hall, Math. Prog. Comp. 2018), called
through scipy's bundled bindings without the `linprog`/`milp` layers.

Those layers check every option against an options manager, copy and stack
the matrix, and fill per-column bound multipliers in a Python loop; on the
small LPs of a sweep that cost more than HiGHS's own solve. Here the model
goes to HiGHS as arrays, and the solution is checked as `linprog` checks it.

Each thread keeps one HiGHS object, made on its first solve with the fixed
options (presolve off, the dual simplex, no output) passed once; building
and freeing one per solve cost more than HiGHS's own `run()` on the small
LPs of a sweep. Every solve clears the previous model, with its basis and
solution, before it passes its own, so no solve starts from another's
basis and the results are those of a fresh object. An idle solver keeps
the capacity of the largest LP it solved (3.4 MB of resident memory after
an n = 3000 assignment LP).

HiGHS measures feasibility on its scaled model, and its row values agree
with that model, so an optimum can break a row of the LP as given by more
than the feasibility tolerance. Where a feasibility tolerance is given,
`A x` is computed here too, and an optimum that breaks the LP by more than
the tolerance is solved once more, from scratch and unscaled.
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

from .errors import LPError, LPInfeasibleError, LPUnboundedError

# linprog's post-solve check: x and every row within their limits to
# sqrt(1e-9) * 10
_CHECK_TOL = np.sqrt(1e-9) * 10
_DUAL_SIMPLEX = int(simplex_constants.SimplexStrategy.kSimplexStrategyDual)
_DEFAULTS = HighsOptions()
_TOLERANCES = ("primal_feasibility_tolerance", "dual_feasibility_tolerance")
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


def solve(lp: LP, feasibility: float | None = None) -> Solution:
    """Solve lp by HiGHS's dual simplex with presolve off and no output.

    Presolve would move the assignment LP off its all-zero start (see
    `lp._Frame`), and it ended some rounding LPs with model status Unknown.
    feasibility, if given, is both of HiGHS's feasibility tolerances (else
    HiGHS's defaults, 1e-7), and an optimum whose x, or A x, breaks a bound
    or a row by more than it is solved again with scaling off (iterations
    then counts both runs). An infeasible or malformed model raises
    LPInfeasibleError, an unbounded one LPUnboundedError, and any other
    status but optimal LPError; so does an optimum with a NaN or one that
    breaks a bound or a row by more than _CHECK_TOL.
    """
    highs = _solver()
    highs.clearModel()
    for name in _TOLERANCES:
        value = getattr(_DEFAULTS, name) if feasibility is None else feasibility
        if highs.setOptionValue(name, value) == HighsStatus.kError:
            raise LPError(f"HiGHS rejected {name} = {value:g}")
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
    res, breaks = _run(highs, lp, feasibility is not None)
    if feasibility is not None and not all(b <= feasibility for b in breaks):
        iterations = res.iterations
        highs.clearSolver()
        highs.setOptionValue(_SCALING, 0)
        try:
            res, breaks = _run(highs, lp, True)
        finally:
            highs.setOptionValue(_SCALING, _DEFAULTS.simplex_scale_strategy)
        res.iterations += iterations
    # a NaN fails every comparison
    if not (all(b <= _CHECK_TOL for b in breaks) and res.objective == res.objective):
        raise LPError(
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
        options.output_flag = False
        options.log_to_console = False
        highs = _Highs()
        if highs.passOptions(options) == HighsStatus.kError:
            raise LPError("HiGHS rejected its options")
        _local.highs = highs
    return highs


def _run(highs: _Highs, lp: LP, model_rows: bool) -> tuple[Solution, list[float]]:
    """Run HiGHS on the model it holds. Return the optimum and the most by
    which its x breaks a bound of lp and its row values a row; with
    model_rows, also the most by which A x, computed here in lp's own scale,
    breaks a row."""
    highs.run()
    status = highs.getModelStatus()
    if status != HighsModelStatus.kOptimal:
        _raise_for(highs, status)
    solution, info = highs.getSolution(), highs.getInfo()
    # the solution's vectors arrive as lists; a dtype spares numpy a scan
    x = np.array(solution.col_value, dtype=np.float64)
    rows = np.array(solution.row_value, dtype=np.float64)
    breaks = [
        _excess(lp.col_lower, x, lp.col_upper),
        _excess(lp.row_lower, rows, lp.row_upper),
    ]
    if model_rows:
        # HiGHS's row values agree with its scaled model, not always with lp
        ax = np.zeros(len(rows))
        csc_matvec(len(rows), len(x), lp.start, lp.index, lp.value, x, ax)
        breaks.append(_excess(lp.row_lower, ax, lp.row_upper))
    res = Solution(
        x,
        np.array(solution.row_dual, dtype=np.float64),
        info.objective_function_value,
        info.simplex_iteration_count,
    )
    return res, breaks


def _excess(lower: np.ndarray, value: np.ndarray, upper: np.ndarray) -> float:
    """The most by which value leaves [lower, upper]: 0 if it stays within,
    NaN if it holds a NaN."""
    return np.maximum.reduce(np.maximum(lower - value, value - upper), initial=0.0)


def _raise_for(highs: _Highs, status: HighsModelStatus) -> NoReturn:
    message = f"HiGHS model status {highs.modelStatusToString(status)}"
    if status in (HighsModelStatus.kInfeasible, HighsModelStatus.kModelError):
        raise LPInfeasibleError(message)
    if status == HighsModelStatus.kUnbounded:
        raise LPUnboundedError(message)
    raise LPError(message)
