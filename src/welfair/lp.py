"""Assignment LPs for the two welfare objectives, their HiGHS solve, and a
brute-force oracle for tiny instances."""

from __future__ import annotations

from dataclasses import dataclass, field

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
    name: str
    cols: np.ndarray
    vals: np.ndarray
    sense: str          # "eq" or "le"
    rhs: float


@dataclass
class LPModel:
    """Sparse LP: min objective . v subject to rows, lower <= v <= upper."""

    num_vars: int
    objective: np.ndarray
    rows: list[Row]
    lower: np.ndarray
    upper: np.ndarray
    meta: dict = field(default_factory=dict)

    def var_name(self, idx: int) -> str:
        k, n, H = self.meta["k"], self.meta["n"], self.meta["H"]
        kn = k * n
        if idx < kn:
            return f"x_{idx // n}_{idx % n}"
        idx -= kn
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


def _layout(k: int, n: int, H: int, with_z: bool) -> dict:
    kn = k * n
    z = kn + k * H
    return {
        "kn": kn,
        "t": kn,
        "z": z if with_z else -1,
        "num_vars": z + (1 if with_z else 0),
    }


def _build_common(instance: Instance, params: Params, centers, dist_pow, with_z):
    params.validate(instance)
    X = instance.features
    n = instance.n
    H = instance.num_colors
    k = params.k
    if centers.shape[0] != k:
        raise LPError(f"params.k={k} but {centers.shape[0]} centers given")
    if dist_pow is None:
        dist_pow = pairwise_pow(X, centers, params.p)
    lay = _layout(k, n, H, with_z)
    nv = lay["num_vars"]
    lower = np.zeros(nv)
    upper = np.full(nv, np.inf)
    upper[: lay["kn"]] = 1.0
    if with_z:
        lower[lay["z"]] = -np.inf
    r = instance.proportions
    colors = instance.colors
    rows: list[Row] = []
    allj = np.arange(n)
    for j in range(n):
        rows.append(
            Row(f"assign_{j}", np.arange(k) * n + j, np.ones(k), "eq", 1.0)
        )
    # t_ih bounds the under- and over-representation of color h in cluster i:
    # (r_h - beta_h) size_i - size_ih <= t_ih and
    # size_ih - (r_h + alpha_h) size_i <= t_ih, written out in x
    under = np.empty((H, n))
    over = np.empty((H, n))
    for h in range(H):
        ish = colors == h
        under[h] = r[h] - params.beta[h]
        under[h, ish] -= 1.0
        over[h] = -(r[h] + params.alpha[h])
        over[h, ish] += 1.0
    for tag, coef in (("under", under), ("over", over)):
        for i in range(k):
            xcols = i * n + allj
            for h in range(H):
                rows.append(
                    Row(
                        f"{tag}_{i}_{h}",
                        np.concatenate([xcols, [lay["t"] + i * H + h]]),
                        np.concatenate([coef[h], [-1.0]]),
                        "le",
                        0.0,
                    )
                )
    meta = {
        "k": k,
        "n": n,
        "H": H,
        "layout": lay,
        "params": params,
        "instance": instance,
        "dist_pow": dist_pow,
        "centers": np.asarray(centers, dtype=np.float64),
    }
    return lay, lower, upper, rows, meta, dist_pow


def build_rawlsian_lp(
    instance: Instance,
    params: Params,
    centers: np.ndarray,
    dist_pow: np.ndarray | None = None,
) -> LPModel:
    """Min-max LP: z bounds every color's fractional disutility from above."""
    lay, lower, upper, rows, meta, dist_pow = _build_common(
        instance, params, centers, dist_pow, with_z=True
    )
    n, H, k = instance.n, instance.num_colors, params.k
    lam = params.lam
    counts = instance.counts
    for h in range(H):
        jh = np.nonzero(instance.colors == h)[0]
        xcols = (np.arange(k)[:, None] * n + jh[None, :]).ravel()
        xvals = (lam / counts[h]) * dist_pow[jh, :].T.ravel()
        tcols = lay["t"] + np.arange(k) * H + h
        tvals = np.full(k, (1.0 - lam) / counts[h])
        rows.append(
            Row(
                f"disu_{h}",
                np.concatenate([xcols, tcols, [lay["z"]]]),
                np.concatenate([xvals, tvals, [-1.0]]),
                "le",
                0.0,
            )
        )
    obj = np.zeros(lay["num_vars"])
    obj[lay["z"]] = 1.0
    meta["kind"] = "rawlsian"
    return LPModel(lay["num_vars"], obj, rows, lower, upper, meta)


def build_utilitarian_lp(
    instance: Instance,
    params: Params,
    centers: np.ndarray,
    dist_pow: np.ndarray | None = None,
) -> LPModel:
    """Sum-of-disutilities LP: same constraints, objective in the costs."""
    lay, lower, upper, rows, meta, dist_pow = _build_common(
        instance, params, centers, dist_pow, with_z=False
    )
    n, H, k = instance.n, instance.num_colors, params.k
    lam = params.lam
    counts = instance.counts
    obj = np.zeros(lay["num_vars"])
    wcol = lam / counts[instance.colors]          # per-point weight
    for i in range(k):
        obj[i * n: (i + 1) * n] = wcol * dist_pow[:, i]
    for i in range(k):
        for h in range(H):
            obj[lay["t"] + i * H + h] = (1.0 - lam) / counts[h]
    meta["kind"] = "utilitarian"
    return LPModel(lay["num_vars"], obj, rows, lower, upper, meta)


class HighsSolver:
    """scipy.optimize.linprog backend (HiGHS).

    Assignment models are solved in each point's nearest-center frame: the
    x column of point j's nearest center a(j) (ties to the lowest index) is
    eliminated through j's assignment row, x[a(j), j] = 1 - sum over i != a(j)
    of x[i, j]. Every other column of j loses the nearest column's objective
    and row coefficients, the constants move into the right-hand sides and an
    objective offset, and the assignment equality becomes the row
    sum over i != a(j) of x[i, j] <= 1. HiGHS's all-zero start, with presolve
    off, is then the nearest-center assignment, a few dozen dual-simplex
    iterations from the optimum instead of about n. Models without
    meta["dist_pow"] eliminate nothing.

    Assignment models with k > _CANDIDATES centers are solved by column
    generation: the first LP keeps only the x columns of each point's
    _CANDIDATES nearest centers, and every other non-eliminated column whose
    reduced cost under the LP's duals is below -tolerance joins before a
    re-solve. The last round prices every excluded column at or above
    -tolerance, which certifies its optimum as the full LP's. HiGHS's primal
    and dual feasibility tolerances are min(tolerance, _FEASIBILITY).
    """

    name = "highs"

    def solve(self, model: LPModel, tolerance: float) -> tuple[np.ndarray, float, str]:
        from scipy.optimize import linprog

        A_eq, b_eq = _stack(model, "eq")
        A_ub, b_ub = _stack(model, "le")
        c = model.objective
        eliminated = _nearest_columns(model)
        offset = 0.0
        if eliminated.size:
            # the eq rows are the assignment rows, row j holding x[a(j), j]
            # with coefficient 1: substitute x[a(j), j] = 1 - (row j's others)
            A_near = A_ub[:, eliminated]
            A_ub = sp.vstack([A_ub - A_near @ A_eq, A_eq], format="csc")
            b_ub = np.concatenate([b_ub - A_near @ b_eq, b_eq])
            offset = float(c[eliminated] @ b_eq)
            c = c - A_eq.T @ c[eliminated]
            A_assign, b_assign = A_eq, b_eq
            A_eq = b_eq = None
        bounds = np.column_stack([model.lower, model.upper])
        feasibility = min(tolerance, _FEASIBILITY)
        options = {
            "presolve": False,
            "primal_feasibility_tolerance": feasibility,
            "dual_feasibility_tolerance": feasibility,
        }
        out = np.zeros(model.num_vars, dtype=bool)
        out[eliminated] = True
        keep = _initial_columns(model) & ~out
        rounds = 0
        while True:
            rounds += 1
            cols = np.flatnonzero(keep)
            restricted = not (keep | out).all()

            def kept(A):
                return None if A is None else A[:, cols]

            res = linprog(
                c[cols],
                A_ub=kept(A_ub),
                b_ub=b_ub,
                A_eq=kept(A_eq),
                b_eq=b_eq,
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
            if not restricted:
                break
            rc = c.copy()
            if A_eq is not None:
                rc -= A_eq.T @ res.eqlin.marginals
            if A_ub is not None:
                rc -= A_ub.T @ res.ineqlin.marginals
            enter = ~(keep | out) & (rc < -tolerance)
            if not enter.any():
                break
            keep |= enter
        x = np.zeros(model.num_vars)
        x[cols] = res.x
        if eliminated.size:
            x[eliminated] = b_assign - A_assign @ x
        return x, float(res.fun) + offset, f"highs:optimal:rounds={rounds}"


def _stack(model: LPModel, sense: str):
    """CSC matrix and right-hand side of the model's rows of one sense."""
    rows = [row for row in model.rows if row.sense == sense]
    if not rows:
        return None, None
    A = sp.csc_matrix(
        (
            np.concatenate([row.vals for row in rows]),
            (
                np.repeat(np.arange(len(rows)), [len(row.cols) for row in rows]),
                np.concatenate([row.cols for row in rows]),
            ),
        ),
        shape=(len(rows), model.num_vars),
    )
    return A, np.array([row.rhs for row in rows])


def _nearest_columns(model: LPModel) -> np.ndarray:
    """x column of each point's nearest center, ties to the lowest index;
    empty for models without meta["dist_pow"]."""
    if "dist_pow" not in model.meta:
        return np.empty(0, dtype=np.int64)
    n = model.meta["n"]
    return np.argmin(model.meta["dist_pow"], axis=1) * n + np.arange(n)


def _initial_columns(model: LPModel) -> np.ndarray:
    """Column mask of the first LP: every non-x column, and the x columns of
    each point's _CANDIDATES nearest centers (all of them when k is small)."""
    keep = np.ones(model.num_vars, dtype=bool)
    k = model.meta.get("k", 0)
    if k <= _CANDIDATES:
        return keep
    n = model.meta["n"]
    near = np.argpartition(model.meta["dist_pow"], _CANDIDATES - 1, axis=1)
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
        tolerance = model.meta["params"].lp_tolerance
    if solver is None:
        solver = HighsSolver()
    elif not hasattr(solver, "solve"):
        raise LPError(f"solver {solver!r} has no solve(model, tolerance) method")
    xvec, raw_obj, status = solver.solve(model, tolerance)
    meta = model.meta
    k, n, H = meta["k"], meta["n"], meta["H"]
    inst: Instance = meta["instance"]
    params: Params = meta["params"]
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
    meta = model.meta
    inst: Instance = meta["instance"]
    params: Params = meta["params"]
    dist_pow = meta["dist_pow"]
    counts = inst.counts
    H = meta["H"]
    lam = params.lam
    disu = np.empty(H)
    for h in range(H):
        jh = inst.colors == h
        dcost = float((x[:, jh] * dist_pow[jh, :].T).sum())
        disu[h] = (lam * dcost + (1.0 - lam) * float(t[:, h].sum())) / counts[h]
    if meta["kind"] == "rawlsian":
        return float(disu.max())
    return float(disu.sum())


def to_lp_text(model: LPModel) -> str:
    """Textual export in the common LP interchange layout.

    Variables: x_i_j (point j's share of center i, in [0, 1]), t_i_h (color
    h's proportion violation in cluster i, >= 0) and, for the Rawlsian
    model, the free z."""
    out = [f"\\ welfair {model.meta.get('kind', 'model')} assignment model"]
    out.append("Minimize")
    terms = [
        f"{model.objective[j]:+.17g} {model.var_name(j)}"
        for j in np.nonzero(model.objective)[0]
    ]
    out.append(" obj: " + (" ".join(terms) if terms else "0"))
    out.append("Subject To")
    for row in model.rows:
        parts = " ".join(
            f"{v:+.17g} {model.var_name(int(c))}" for c, v in zip(row.cols, row.vals)
        )
        op = "=" if row.sense == "eq" else "<="
        out.append(f" {row.name}: {parts} {op} {row.rhs:.17g}")
    out.append("Bounds")
    for j in range(model.num_vars):
        lo, up = model.lower[j], model.upper[j]
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
