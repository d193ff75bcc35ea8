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
from .metrics import color_masses, disutilities, pairwise_pow
from .model import Instance, Params

_SNAP = 1e-12
# x columns per point that HiGHS's first restricted LP may keep, the
# eliminated nearest one included; at n = 3000, k = 12 width 4 needed one
# round where width 3 needed two or three
_CANDIDATES = 4
# share of each (nearest center, color) class whose cheapest columns at each
# other center the first restricted LP keeps; at k = 12, 0.1 and 0.15 needed
# a second or third round at n = 3000, and 0.25 and 0.35 kept more columns
# and took longer at n = 20,000 and 50,000
_CLASS_SHARE = 0.2
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
    """Cleaned LP optimum: x (k, n) and the objective evaluated on it."""

    x: np.ndarray
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

    The LP is solved in each point's nearest-center frame (`_Frame`), where
    HiGHS's all-zero start, with presolve off, is the nearest-center
    assignment, a few dozen dual-simplex iterations from the optimum instead
    of about n.

    With k > _CANDIDATES centers the LP is solved by column generation.
    Within a class (a(j), color of j) the frame columns at a center i differ
    only in their cost delta_ij, so the LP moves the cheap end of each
    (a, h, i) class first. The first LP keeps the columns of each point's
    _CANDIDATES nearest centers that rank in the cheapest
    ceil(_CLASS_SHARE * |class (a, h)|) of their (a, h, i) class; every
    other column whose reduced cost under the LP's duals is below -tolerance
    joins before a re-solve. The last round prices every left-out column at
    or above -tolerance, which certifies its optimum as the full LP's.
    HiGHS's primal and dual feasibility tolerances are
    min(tolerance, _FEASIBILITY).
    """

    name = "highs"

    def solve(self, model: LPModel, tolerance: float) -> tuple[np.ndarray, float, str]:
        from scipy.optimize import linprog

        frame = _Frame(model)
        feasibility = min(tolerance, _FEASIBILITY)
        options = {
            "presolve": False,
            "primal_feasibility_tolerance": feasibility,
            "dual_feasibility_tolerance": feasibility,
        }
        keep = _initial_columns(model, frame)
        left = frame.columns & ~keep
        rounds = 0
        while True:
            rounds += 1
            c, A_ub, bounds = frame.restrict(keep)
            res = linprog(
                c,
                A_ub=A_ub,
                b_ub=frame.b_ub,
                bounds=bounds,
                method="highs",
                options=options,
            )
            if res.status == 2:
                raise LPInfeasibleError(res.message)
            if res.status == 3:
                raise LPUnboundedError(res.message)
            if res.status != 0:
                raise LPError(f"highs failed: {res.message}")
            if not left.any():
                break
            enter = left & (frame.reduced_costs(res.ineqlin.marginals) < -tolerance)
            if not enter.any():
                break
            keep |= enter
            left &= ~enter
        nx = np.count_nonzero(keep)
        x = np.zeros((model.k, model.n))
        x[keep] = res.x[:nx]
        x[frame.near, np.arange(model.n)] = 1.0 - x.sum(axis=0)
        return (
            np.concatenate([x.ravel(), res.x[nx:]]),
            float(res.fun) + frame.offset,
            f"highs:optimal:rounds={rounds}",
        )


class _Frame:
    """The assignment LP in the nearest-center frame, written from arrays.

    The x column of point j's nearest center a(j) (ties to the lowest index)
    is eliminated through j's assignment equality, x[a(j), j] = 1 - sum over
    i != a(j) of x[i, j]. The frame's rows are the model's rows, in order,
    then j's assignment equality as the row sum over i != a(j) of
    x[i, j] <= 1. Its column x[i, j] (i != a(j), j of color h) has the
    coefficients under[g, h] in under_i_g and -under[g, h] in under_a(j)_g,
    the same with over in the over rows, delta_ij in the Rawlsian disu_h and
    1 in j's row, and the cost cost[i, j] - cost[a(j), j], where
    delta_ij = lam / n_h * (d^p(j, i) - d^p(j, a(j))). The t and z columns
    are the model's; the constants move into b_ub and an objective offset.
    """

    def __init__(self, model: LPModel):
        inst, params = model.instance, model.params
        k, n, H = model.k, model.n, model.H
        self.k, self.n, self.H = k, n, H
        self.rawlsian = model.kind == "rawlsian"
        self.num_rows = len(model.rows)
        self.colors = inst.colors
        self.near = np.argmin(model.dist_pow, axis=1)
        points = np.arange(n)
        self.columns = np.ones((k, n), dtype=bool)
        self.columns[self.near, points] = False
        # [g, h]: coefficient of a color-h point's share in row under_i_g /
        # over_i_g of its cluster i
        r = inst.proportions
        eye = np.eye(H)
        self.under = (r - params.beta)[:, None] - eye
        self.over = eye - (r + params.alpha)[:, None]
        # lam / n_h * d^p(j, i): the disu_h coefficient of x[i, j] (Rawlsian)
        share = (params.lam / inst.counts[self.colors]) * model.dist_pow.T
        self.delta = share - share[self.near, points]
        cost = model.objective[: k * n].reshape(k, n)
        self.cost = cost - cost[self.near, points]
        self.offset = float(cost[self.near, points].sum())
        # minus the rows' coefficients of the eliminated columns, summed in
        # point order
        b_rows = [
            np.column_stack(
                [
                    np.bincount(self.near, weights=coef[g, self.colors], minlength=k)
                    for g in range(H)
                ]
            ).ravel()
            for coef in (self.under, self.over)
        ]
        if self.rawlsian:
            b_rows.append(
                np.bincount(self.colors, weights=share[self.near, points], minlength=H)
            )
        self.b_ub = np.concatenate([-np.concatenate(b_rows), np.ones(n)])
        # the t and z columns: costs, bounds and CSC parts
        self.tail_cost = model.objective[k * n:]
        self.tail_bounds = np.column_stack([model.lower, model.upper])[k * n:]
        t = np.arange(k * H)
        t_rows = [t, k * H + t]
        t_vals = [np.full(k * H, -1.0), np.full(k * H, -1.0)]
        if self.rawlsian:
            t_rows.append(2 * k * H + t % H)
            t_vals.append(np.tile((1.0 - params.lam) / inst.counts, k))
        self.tail = _compress(np.column_stack(t_rows), np.column_stack(t_vals))
        if self.rawlsian:
            z = ([H], 2 * k * H + np.arange(H), np.full(H, -1.0))
            self.tail = [np.concatenate(pair) for pair in zip(self.tail, z)]

    def restrict(self, keep: np.ndarray):
        """Costs, CSC matrix and bounds of the frame LP over the x columns in
        keep ((k, n), in column order i * n + j) and the t and z columns."""
        k, H = self.k, self.H
        i, j = np.nonzero(keep)
        a, h = self.near[j], self.colors[j]
        # each column's rows ascending: the lower-numbered cluster's block of
        # under rows first, with sign +1 if that cluster is i
        lo, hi = np.minimum(i, a)[:, None], np.maximum(i, a)[:, None]
        sign = np.where(i < a, 1.0, -1.0)[:, None]
        under, over = self.under[:, h].T, self.over[:, h].T
        g = np.arange(H)
        rows = [lo * H + g, hi * H + g, k * H + lo * H + g, k * H + hi * H + g]
        vals = [sign * under, -sign * under, sign * over, -sign * over]
        if self.rawlsian:
            rows.append(2 * k * H + h[:, None])
            vals.append(self.delta[i, j][:, None])
        rows.append(self.num_rows + j[:, None])
        vals.append(np.ones((len(j), 1)))
        parts = zip(_compress(np.hstack(rows), np.hstack(vals)), self.tail)
        counts, indices, data = (np.concatenate(pair) for pair in parts)
        A_ub = sp.csc_matrix(
            (data, indices, np.concatenate([[0], np.cumsum(counts)])),
            shape=(len(self.b_ub), len(counts)),
        )
        c = np.concatenate([self.cost[i, j], self.tail_cost])
        bounds = np.concatenate(
            [np.tile([0.0, 1.0], (len(j), 1)), self.tail_bounds]
        )
        return c, A_ub, bounds

    def reduced_costs(self, duals: np.ndarray) -> np.ndarray:
        """(k, n) reduced costs of every x column of the frame LP, in closed
        form from the duals of its rows."""
        k, H = self.k, self.H
        # [i, h]: dual price of a color-h share's under/over coefficients in
        # cluster i
        G = duals[: k * H].reshape(k, H) @ self.under
        G += duals[k * H: 2 * k * H].reshape(k, H) @ self.over
        h = self.colors
        rc = self.cost - G[:, h] + (G[self.near, h] - duals[self.num_rows:])
        if self.rawlsian:
            rc -= duals[2 * k * H: 2 * k * H + H][h] * self.delta
        return rc


def _compress(rows: np.ndarray, vals: np.ndarray):
    """Per-column entry counts, row indices and values of the nonzero
    entries of columns given as (columns, width) arrays."""
    nonzero = vals != 0
    return np.count_nonzero(nonzero, axis=1), rows[nonzero], vals[nonzero]


def _initial_columns(model: LPModel, frame: _Frame) -> np.ndarray:
    """(k, n) x-column mask of the first LP: every frame column when k is
    small, else the columns of each point's _CANDIDATES nearest centers that
    rank in the cheapest ceil(_CLASS_SHARE * |class|) of their (a, h, i)
    class by delta."""
    k, n, H = frame.k, frame.n, frame.H
    keep = frame.columns.copy()
    if k <= _CANDIDATES:
        return keep
    top = np.zeros((k, n), dtype=bool)
    nearest = np.argpartition(model.dist_pow, _CANDIDATES - 1, axis=1)
    top[nearest[:, :_CANDIDATES].T, np.arange(n)] = True
    cls = frame.near * H + frame.colors
    size = np.bincount(cls, minlength=k * H)
    # each center's points by (class, delta), ties in point order, and each
    # point's rank within its class
    order = np.lexsort((frame.delta, np.broadcast_to(cls, (k, n))), axis=-1)
    rank = np.empty((k, n), dtype=np.int64)
    sorted_cls = np.sort(cls)
    within = np.arange(n) - (np.cumsum(size) - size)[sorted_cls]
    np.put_along_axis(rank, order, np.broadcast_to(within, (k, n)), axis=1)
    return keep & top & (rank < np.ceil(_CLASS_SHARE * size[cls]))


def solve_lp(
    model: LPModel,
    tolerance: float | None = None,
    solver=None,
) -> FractionalSolution:
    """Solve the model with HiGHS and return a cleaned fractional assignment.

    solver replaces HiGHS with any object that has a
    solve(model, tolerance) -> (x, objective, status) method.
    x entries below 1e-12 are snapped to zero. The reported objective is the
    welfare evaluation of that x (`metrics.disutilities` on its fractional
    masses), in which each t_ih takes its least feasible value.
    """
    if tolerance is None:
        tolerance = model.params.lp_tolerance
    if solver is None:
        solver = HighsSolver()
    elif not hasattr(solver, "solve"):
        raise LPError(f"solver {solver!r} has no solve(model, tolerance) method")
    xvec, raw_obj, status = solver.solve(model, tolerance)
    k, n, inst = model.k, model.n, model.instance
    x = np.asarray(xvec[: k * n], dtype=np.float64).reshape(k, n).copy()
    np.clip(x, 0.0, 1.0, out=x)
    x[x < _SNAP] = 0.0
    col = np.abs(x.sum(axis=0) - 1.0).max(initial=0.0)
    if col > 1e-5:
        raise InternalInvariantError(f"assignment column sum off by {col:g}")
    D = color_masses((x * model.dist_pow.T).sum(axis=0), inst)
    _, _, disu = disutilities(inst, model.params, color_masses(x, inst), D)
    return FractionalSolution(
        x=x,
        objective=float(disu.max() if model.kind == "rawlsian" else disu.sum()),
        solver_objective=raw_obj,
        status=status,
    )


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
    arange = np.arange(n)
    # assignment number m, written in base k with point 0's center as the
    # most significant digit, is the m-th vector of the lexicographic order
    place = k ** np.arange(n - 1, -1, -1)
    total = k**n
    best_val = np.inf
    best_assign = None
    for start in range(0, total, _BRUTE_BATCH):
        a = (np.arange(start, min(start + _BRUTE_BATCH, total))[:, None] // place) % k
        member = a[:, None, :] == np.arange(k)[:, None]               # (B, k, n)
        mass = color_masses(member, instance)                         # (B, k, H)
        D = color_masses(dist_pow[arange, a], instance)               # (B, H)
        _, _, disu = disutilities(instance, params, mass, D)
        vals = disu.max(axis=1) if objective == "rawlsian" else disu.sum(axis=1)
        b = int(np.argmin(vals))
        if vals[b] < best_val:
            best_val = float(vals[b])
            best_assign = a[b]
    assert best_assign is not None
    return best_assign, best_val
