"""The welfair assignment LP of each welfare objective, its HiGHS solve, and
a brute-force oracle for tiny instances."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import (
    BruteForceSizeError,
    InternalInvariantError,
    LPError,
    LPInfeasibleError,
    LPUnboundedError,
)
from .metrics import pairwise_pow
from .model import Instance, Params

_SNAP = 1e-12
# x columns per point in HiGHS's first restricted LP, the eliminated nearest
# one included; at n = 3000, k = 12 width 4 needed one round where width 3
# needed two or three
_CANDIDATES = 4
# HiGHS's feasibility tolerances are at most this: at its default of 1e-7 an
# x that breaks rows by up to 1e-7 can put the LP value above the integral
# optimum
_FEASIBILITY = 1e-9
# assignments per array batch of brute_force_assignment
_BRUTE_BATCH = 4096


@dataclass
class Row:
    """One coupling row of the assignment LP: vals . v[cols] <= 0."""

    name: str
    cols: np.ndarray
    vals: np.ndarray


@dataclass
class LPModel:
    """The assignment LP of one welfare objective.

    Variables, in order: x_i_j, point j's share of center i in [0, 1], at
    i * n + j; t_i_h >= 0, color h's proportion violation in cluster i, at
    k * n + i * H + h; and, for the Rawlsian objective, the free z last. The
    LP minimizes objective . v subject to every point's x column summing to 1
    and every row in rows being <= 0. The assignment equalities are part of
    the model's definition, so rows holds only the coupling rows:
    under_i_h and over_i_h for every (cluster, color), then, for the
    Rawlsian objective, disu_h for every color.
    """

    kind: str                   # "rawlsian" or "utilitarian"
    instance: Instance
    params: Params
    dist_pow: np.ndarray        # (n, k) d(x_j, c_i)^p
    objective: np.ndarray
    rows: list[Row]

    @property
    def k(self) -> int:
        return self.params.k

    @property
    def n(self) -> int:
        return self.instance.n

    @property
    def H(self) -> int:
        return self.instance.num_colors

    @property
    def num_vars(self) -> int:
        return self.k * (self.n + self.H) + (self.kind == "rawlsian")

    @property
    def lower(self) -> np.ndarray:
        lower = np.zeros(self.num_vars)
        if self.kind == "rawlsian":
            lower[-1] = -np.inf
        return lower

    @property
    def upper(self) -> np.ndarray:
        upper = np.full(self.num_vars, np.inf)
        upper[: self.k * self.n] = 1.0
        return upper

    def var_name(self, idx: int) -> str:
        k, n, H = self.k, self.n, self.H
        if idx < k * n:
            return f"x_{idx // n}_{idx % n}"
        idx -= k * n
        if idx < k * H:
            return f"t_{idx // H}_{idx % H}"
        return "z"


@dataclass
class FractionalSolution:
    """Cleaned LP optimum: x (k, n) plus the induced t, u, o and objective."""

    x: np.ndarray
    t: np.ndarray
    u: np.ndarray
    o: np.ndarray
    objective: float
    solver_objective: float
    status: str


def _violation_rows(instance: Instance, params: Params, centers, dist_pow):
    """Check the inputs; return the (n, k) d^p matrix and the under_i_h and
    over_i_h rows, in that order."""
    params.validate(instance)
    n, H, k = instance.n, instance.num_colors, params.k
    if centers.shape[0] != k:
        raise LPError(f"params.k={k} but {centers.shape[0]} centers given")
    if dist_pow is None:
        dist_pow = pairwise_pow(instance.features, centers, params.p)
    # t_ih bounds the under- and over-representation of color h in cluster i:
    # (r_h - beta_h) size_i - size_ih <= t_ih and
    # size_ih - (r_h + alpha_h) size_i <= t_ih, written out in x
    r = instance.proportions
    member = instance.colors == np.arange(H)[:, None]               # (H, n)
    under = (r - params.beta)[:, None] - member
    over = member - (r + params.alpha)[:, None]
    allj = np.arange(n)
    rows = [
        Row(
            f"{tag}_{i}_{h}",
            np.concatenate([i * n + allj, [k * n + i * H + h]]),
            np.concatenate([coef[h], [-1.0]]),
        )
        for tag, coef in (("under", under), ("over", over))
        for i in range(k)
        for h in range(H)
    ]
    return dist_pow, rows


def build_rawlsian_lp(
    instance: Instance,
    params: Params,
    centers: np.ndarray,
    dist_pow: np.ndarray | None = None,
) -> LPModel:
    """Min-max LP: z bounds every color's fractional disutility from above."""
    dist_pow, rows = _violation_rows(instance, params, centers, dist_pow)
    n, H, k = instance.n, instance.num_colors, params.k
    lam = params.lam
    counts = instance.counts
    z = k * (n + H)
    for h in range(H):
        jh = np.nonzero(instance.colors == h)[0]
        xcols = (np.arange(k)[:, None] * n + jh[None, :]).ravel()
        xvals = (lam / counts[h]) * dist_pow[jh, :].T.ravel()
        tcols = k * n + np.arange(k) * H + h
        tvals = np.full(k, (1.0 - lam) / counts[h])
        rows.append(
            Row(
                f"disu_{h}",
                np.concatenate([xcols, tcols, [z]]),
                np.concatenate([xvals, tvals, [-1.0]]),
            )
        )
    obj = np.zeros(z + 1)
    obj[z] = 1.0
    return LPModel("rawlsian", instance, params, dist_pow, obj, rows)


def build_utilitarian_lp(
    instance: Instance,
    params: Params,
    centers: np.ndarray,
    dist_pow: np.ndarray | None = None,
) -> LPModel:
    """Sum-of-disutilities LP: same constraints, objective in the costs."""
    dist_pow, rows = _violation_rows(instance, params, centers, dist_pow)
    n, H, k = instance.n, instance.num_colors, params.k
    lam = params.lam
    counts = instance.counts
    obj = np.zeros(k * (n + H))
    wcol = lam / counts[instance.colors]          # per-point weight
    for i in range(k):
        obj[i * n: (i + 1) * n] = wcol * dist_pow[:, i]
    for i in range(k):
        for h in range(H):
            obj[k * n + i * H + h] = (1.0 - lam) / counts[h]
    return LPModel("utilitarian", instance, params, dist_pow, obj, rows)


class HighsSolver:
    """scipy.optimize.linprog backend (HiGHS).

    The LP is solved in each point's nearest-center frame: the x column of
    point j's nearest center a(j) (ties to the lowest index) is eliminated
    through j's assignment equality, x[a(j), j] = 1 - sum over i != a(j) of
    x[i, j]. Every other column of j loses the nearest column's objective
    and row coefficients, the constants move into the right-hand sides and
    an objective offset, and the assignment equality becomes the row
    sum over i != a(j) of x[i, j] <= 1. HiGHS's all-zero start, with presolve
    off, is then the nearest-center assignment, a few dozen dual-simplex
    iterations from the optimum instead of about n.

    With k > _CANDIDATES centers the LP is solved by column generation: the
    first LP keeps only the x columns of each point's _CANDIDATES nearest
    centers, and every other non-eliminated column whose reduced cost under
    the LP's duals is below -tolerance joins before a re-solve. The last
    round prices every excluded column at or above -tolerance, which
    certifies its optimum as the full LP's. HiGHS's primal and dual
    feasibility tolerances are min(tolerance, _FEASIBILITY).
    """

    name = "highs"

    def solve(self, model: LPModel, tolerance: float) -> tuple[np.ndarray, float, str]:
        from scipy.optimize import linprog

        n = model.n
        ones = np.ones(n)
        assign = _assignment_operator(model)
        near = np.argmin(model.dist_pow, axis=1) * n + np.arange(n)
        # substitute x[a(j), j] = 1 - (j's other shares) into the rows <= 0
        # and the objective; the assignment rows keep x[a(j), j] >= 0
        A_rows = _stack(model)
        A_near = A_rows[:, near]
        A_ub = sp.vstack([A_rows - A_near @ assign, assign], format="csc")
        b_ub = np.concatenate([np.zeros(len(model.rows)) - A_near @ ones, ones])
        offset = float(model.objective[near] @ ones)
        c = model.objective - assign.T @ model.objective[near]
        bounds = np.column_stack([model.lower, model.upper])
        feasibility = min(tolerance, _FEASIBILITY)
        options = {
            "presolve": False,
            "primal_feasibility_tolerance": feasibility,
            "dual_feasibility_tolerance": feasibility,
        }
        out = np.zeros(model.num_vars, dtype=bool)
        out[near] = True
        keep = _initial_columns(model) & ~out
        rounds = 0
        while True:
            rounds += 1
            cols = np.flatnonzero(keep)
            res = linprog(
                c[cols],
                A_ub=A_ub[:, cols],
                b_ub=b_ub,
                bounds=bounds[cols],
                method="highs",
                options=options,
            )
            if res.status == 2:
                raise LPInfeasibleError(res.message)
            if res.status == 3:
                raise LPUnboundedError(res.message)
            if res.status != 0:
                raise LPError(f"highs failed: {res.message}")
            if (keep | out).all():
                break
            rc = c - A_ub.T @ res.ineqlin.marginals
            enter = ~(keep | out) & (rc < -tolerance)
            if not enter.any():
                break
            keep |= enter
        x = np.zeros(model.num_vars)
        x[cols] = res.x
        x[near] = 1.0 - assign @ x
        return x, float(res.fun) + offset, f"highs:optimal:rounds={rounds}"


def _stack(model: LPModel) -> sp.csc_matrix:
    """CSC matrix of the model's rows."""
    rows = model.rows
    return sp.csc_matrix(
        (
            np.concatenate([row.vals for row in rows]),
            (
                np.repeat(np.arange(len(rows)), [len(row.cols) for row in rows]),
                np.concatenate([row.cols for row in rows]),
            ),
        ),
        shape=(len(rows), model.num_vars),
    )


def _assignment_operator(model: LPModel) -> sp.csc_matrix:
    """(n, num_vars) CSC matrix whose row j sums point j's x column, the
    left-hand side of the assignment equalities: column i * n + j holds a 1
    in row j, the t and z columns are empty."""
    k, n = model.k, model.n
    indptr = np.minimum(np.arange(model.num_vars + 1), k * n)
    return sp.csc_matrix(
        (np.ones(k * n), np.tile(np.arange(n), k), indptr),
        shape=(n, model.num_vars),
    )


def _initial_columns(model: LPModel) -> np.ndarray:
    """Column mask of the first LP: every non-x column, and the x columns of
    each point's _CANDIDATES nearest centers (all of them when k is small)."""
    keep = np.ones(model.num_vars, dtype=bool)
    k, n = model.k, model.n
    if k <= _CANDIDATES:
        return keep
    near = np.argpartition(model.dist_pow, _CANDIDATES - 1, axis=1)
    keep[: k * n] = False
    keep[near[:, :_CANDIDATES] * n + np.arange(n)[:, None]] = True
    return keep


def solve_lp(
    model: LPModel,
    tolerance: float | None = None,
    solver=None,
) -> FractionalSolution:
    """Solve the model with HiGHS and return a cleaned fractional assignment.

    solver replaces HiGHS with any object that has a
    solve(model, tolerance) -> (x, objective, status) method.
    x entries below 1e-12 are snapped to zero; u, o are computed from x and
    t = max(u, o, 0), so the reported variables are mutually consistent. The
    reported objective is the direct evaluation of the objective expression
    on those variables.
    """
    if tolerance is None:
        tolerance = model.params.lp_tolerance
    if solver is None:
        solver = HighsSolver()
    elif not hasattr(solver, "solve"):
        raise LPError(f"solver {solver!r} has no solve(model, tolerance) method")
    xvec, raw_obj, status = solver.solve(model, tolerance)
    k, n, H = model.k, model.n, model.H
    inst, params = model.instance, model.params
    x = np.asarray(xvec[: k * n], dtype=np.float64).reshape(k, n).copy()
    np.clip(x, 0.0, 1.0, out=x)
    x[x < _SNAP] = 0.0
    col = np.abs(x.sum(axis=0) - 1.0).max(initial=0.0)
    if col > 1e-5:
        raise InternalInvariantError(f"assignment column sum off by {col:g}")
    sizes = x.sum(axis=1)
    size_h = np.zeros((k, H))
    for h in range(H):
        size_h[:, h] = x[:, inst.colors == h].sum(axis=1)
    r = inst.proportions
    u = (r - params.beta)[None, :] * sizes[:, None] - size_h
    o = size_h - (r + params.alpha)[None, :] * sizes[:, None]
    t = np.maximum(np.maximum(u, o), 0.0)
    obj = fractional_objective(model, x, t)
    return FractionalSolution(
        x=x,
        t=t,
        u=u,
        o=o,
        objective=obj,
        solver_objective=raw_obj,
        status=status,
    )


def fractional_objective(model: LPModel, x: np.ndarray, t: np.ndarray) -> float:
    """Evaluate the model's objective on a fractional assignment directly."""
    inst, dist_pow = model.instance, model.dist_pow
    counts = inst.counts
    H = model.H
    lam = model.params.lam
    disu = np.empty(H)
    for h in range(H):
        jh = inst.colors == h
        dcost = float((x[:, jh] * dist_pow[jh, :].T).sum())
        disu[h] = (lam * dcost + (1.0 - lam) * float(t[:, h].sum())) / counts[h]
    if model.kind == "rawlsian":
        return float(disu.max())
    return float(disu.sum())


def to_lp_text(model: LPModel) -> str:
    """Textual export in the common LP interchange layout.

    Variables: x_i_j (point j's share of center i, in [0, 1]), t_i_h (color
    h's proportion violation in cluster i, >= 0) and, for the Rawlsian
    model, the free z. The implied assignment equalities are written out as
    the rows assign_j, before the model's stored rows."""
    out = [f"\\ welfair {model.kind} assignment model"]
    out.append("Minimize")
    terms = [
        f"{model.objective[j]:+.17g} {model.var_name(j)}"
        for j in np.nonzero(model.objective)[0]
    ]
    out.append(" obj: " + (" ".join(terms) if terms else "0"))
    out.append("Subject To")
    for j in range(model.n):
        parts = " ".join(f"+1 x_{i}_{j}" for i in range(model.k))
        out.append(f" assign_{j}: {parts} = 1")
    for row in model.rows:
        parts = " ".join(
            f"{v:+.17g} {model.var_name(int(c))}" for c, v in zip(row.cols, row.vals)
        )
        out.append(f" {row.name}: {parts} <= 0")
    out.append("Bounds")
    for j, (lo, up) in enumerate(zip(model.lower, model.upper)):
        name = model.var_name(j)
        if np.isneginf(lo) and np.isposinf(up):
            out.append(f" {name} free")
        elif np.isposinf(up):
            out.append(f" {name} >= {lo:.17g}")
        else:
            out.append(f" {lo:.17g} <= {name} <= {up:.17g}")
    out.append("End")
    return "\n".join(out) + "\n"


def brute_force_assignment(
    instance: Instance,
    params: Params,
    centers: np.ndarray,
    objective: str = "rawlsian",
    limit: float = 1e7,
) -> tuple[np.ndarray, float]:
    """Exact optimum over all k^n integral assignments (guarded).

    Ties resolve to the lexicographically smallest assignment vector.
    """
    params.validate(instance)
    if objective not in ("rawlsian", "utilitarian"):
        raise ValueError(f"unknown objective {objective!r}")
    n = instance.n
    k = params.k
    if float(k) ** n > limit:
        raise BruteForceSizeError(k, n, limit)
    dist_pow = pairwise_pow(instance.features, centers, params.p)
    colors = instance.colors
    counts = instance.counts
    r = instance.proportions
    lam = params.lam
    H = instance.num_colors
    arange = np.arange(n)
    in_color = (colors[:, None] == np.arange(H)).astype(np.float64)    # (n, H)
    # assignment number m, written in base k with point 0's center as the
    # most significant digit, is the m-th vector of the lexicographic order
    place = k ** np.arange(n - 1, -1, -1)
    total = k**n
    best_val = np.inf
    best_assign = None
    for start in range(0, total, _BRUTE_BATCH):
        a = (np.arange(start, min(start + _BRUTE_BATCH, total))[:, None] // place) % k
        member = (a[:, :, None] == np.arange(k)).astype(np.float64)   # (B, n, k)
        sizes = member.sum(axis=1)                                    # (B, k)
        size_h = np.einsum("bnk,nh->bkh", member, in_color)           # (B, k, H)
        nz = (sizes > 0)[:, :, None]
        frac = np.where(nz, size_h / np.maximum(sizes, 1.0)[:, :, None], 0.0)
        over = frac - (r + params.alpha)
        under = (r - params.beta) - frac
        delta = np.where(nz, np.maximum(np.maximum(over, under), 0.0), 0.0)
        V = (sizes[:, :, None] * delta).sum(axis=1)                   # (B, H)
        D = dist_pow[arange, a] @ in_color                            # (B, H)
        disu = (lam * D + (1.0 - lam) * V) / counts
        vals = disu.max(axis=1) if objective == "rawlsian" else disu.sum(axis=1)
        b = int(np.argmin(vals))
        if vals[b] < best_val:
            best_val = float(vals[b])
            best_assign = a[b]
    assert best_assign is not None
    return best_assign, best_val
