"""The welfair assignment LP of each welfare objective, its HiGHS solve, and
a brute-force oracle for tiny instances."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _highs
from .errors import InternalInvariantError, ParamError
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
# assignments per array batch of brute_force_assignment, and the most
# assignments (k^n) it enumerates
_BRUTE_BATCH = 4096
_BRUTE_LIMIT = 1e7


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

    The builder forms the coefficient tables once; the objective and HiGHS's
    frame (`_Frame`) read them, and rows is written from them when first
    read. x[i, j] (j of color h) has under[g, h] in under_i_g, over[g, h] in
    over_i_g, share[i, j] in disu_h and share[i, j] as its Utilitarian cost;
    t_i_h has t_cost[h] in disu_h and as its Utilitarian cost.
    """

    kind: str                   # "rawlsian" or "utilitarian"
    instance: Instance
    params: Params
    dist_pow: np.ndarray        # (n, k) d(x_j, c_i)^p
    share: np.ndarray           # (k, n) lam / n_h * d^p(x_j, c_i), j of color h
    under: np.ndarray           # (H, H) [g, h]: r_g - beta_g - [g = h]
    over: np.ndarray            # (H, H) [g, h]: [g = h] - r_g - alpha_g
    t_cost: np.ndarray          # (H,) (1 - lam) / n_h
    objective: np.ndarray

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
    def num_rows(self) -> int:
        """len(rows), without writing them."""
        return 2 * self.k * self.H + self.H * (self.kind == "rawlsian")

    @cached_property
    def rows(self) -> list[Row]:
        """The coupling rows; the solve reads the tables instead."""
        k, n, H = self.k, self.n, self.H
        colors = self.instance.colors
        allj = np.arange(n)
        rows = [
            Row(
                f"{tag}_{i}_{g}",
                np.concatenate([i * n + allj, [k * n + i * H + g]]),
                np.concatenate([coef[g], [-1.0]]),
            )
            for tag, coef in (
                ("under", self.under[:, colors]),
                ("over", self.over[:, colors]),
            )
            for i in range(k)
            for g in range(H)
        ]
        if self.kind == "rawlsian":
            # z bounds every color's fractional disutility from above
            z = k * (n + H)
            clusters = np.arange(k)
            for h in range(H):
                jh = np.flatnonzero(colors == h)
                xcols = (clusters[:, None] * n + jh).ravel()
                cols = [xcols, k * n + clusters * H + h, [z]]
                vals = [self.share[:, jh].ravel(), np.full(k, self.t_cost[h]), [-1.0]]
                rows.append(
                    Row(f"disu_{h}", np.concatenate(cols), np.concatenate(vals))
                )
        return rows

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


@dataclass
class FractionalSolution:
    """Cleaned LP optimum: x (k, n) and the objective evaluated on it."""

    x: np.ndarray
    objective: float


def _build(kind: str, instance: Instance, params: Params, centers, dist_pow) -> LPModel:
    """Check the inputs, form the coefficient tables, and write the
    objective of the LP of kind from them."""
    params.validate(instance)
    params.check_centers(instance, centers)
    n, H, k = instance.n, instance.num_colors, params.k
    if dist_pow is None:
        dist_pow = pairwise_pow(instance.features, centers, params.p)
    colors, counts, lam = instance.colors, instance.counts, params.lam
    # t_ih bounds the under- and over-representation of color h in cluster i:
    # (r_h - beta_h) size_i - size_ih <= t_ih and
    # size_ih - (r_h + alpha_h) size_i <= t_ih, written out in x
    r, eye = instance.proportions, np.eye(H)
    under = (r - params.beta)[:, None] - eye
    over = eye - (r + params.alpha)[:, None]
    share = (lam / counts[colors]) * dist_pow.T
    t_cost = (1.0 - lam) / counts
    if kind == "rawlsian":
        objective = np.zeros(k * (n + H) + 1)
        objective[-1] = 1.0
    else:
        objective = np.concatenate([share.ravel(), np.tile(t_cost, k)])
    return LPModel(
        kind, instance, params, dist_pow, share, under, over, t_cost, objective
    )


def build_rawlsian_lp(
    instance: Instance,
    params: Params,
    centers: np.ndarray,
    dist_pow: np.ndarray | None = None,
) -> LPModel:
    """Min-max LP: z bounds every color's fractional disutility from above."""
    return _build("rawlsian", instance, params, centers, dist_pow)


def build_utilitarian_lp(
    instance: Instance,
    params: Params,
    centers: np.ndarray,
    dist_pow: np.ndarray | None = None,
) -> LPModel:
    """Sum-of-disutilities LP: same constraints, objective in the costs."""
    return _build("utilitarian", instance, params, centers, dist_pow)


class HighsSolver:
    """HiGHS's dual simplex, called through `_highs`.

    The LP is solved in each point's nearest-center frame (`_Frame`), where
    HiGHS's all-zero start, with presolve off, is the nearest-center
    assignment, a few dozen dual-simplex iterations from the optimum instead
    of about n.

    The LP is solved by column generation. Within a class (a(j), color of
    j) the frame columns at a center i differ only in their cost delta_ij,
    so the LP moves the cheap end of each (a, h, i) class first. The first
    LP keeps the columns of each point's min(k, _CANDIDATES) nearest centers
    that rank in the cheapest ceil(_CLASS_SHARE * |class (a, h)|) of their
    (a, h, i) class. Each restricted LP holds point j's row only when j has
    at least 2 kept columns: with fewer the row is implied by the bounds
    x <= 1, its dual 0 is optimal, and pricing reads 0 for it.

    After each round the restricted LP's duals give a Lagrangian lower
    bound on the full LP's optimum (`_Frame.lagrangian_bound`). Pricing
    stops when the restricted optimum is within tolerance of that bound, so
    the value returned is at most tolerance above the full LP's optimum
    however many left-out columns price slightly below 0. Otherwise the
    left-out columns whose reduced cost is below -tolerance join, or, when
    there are none, those below 0, and HiGHS solves again. tolerance is
    model.params.lp_tolerance, at least 10 times the feasibility tolerance
    `_highs.solve` gives HiGHS for both LPs. solve returns the LP's
    variables, its value, the simplex iterations summed over the pricing
    rounds, the number of rounds, and the last round's lower bound.
    """

    def solve(self, model: LPModel) -> tuple[np.ndarray, float, int, int, float]:
        tolerance = model.params.lp_tolerance
        frame = _Frame(model)
        keep = _initial_columns(model, frame)
        left = frame.columns & ~keep
        rounds = iterations = 0
        while True:
            rounds += 1
            lp, row_ids = frame.restrict(keep)
            res = _highs.solve(lp)
            iterations += res.iterations
            duals = np.zeros(len(frame.b_ub))
            duals[row_ids] = res.row_dual
            rc = frame.reduced_costs(duals)
            bound = frame.lagrangian_bound(duals, rc)
            if res.objective + frame.offset - bound <= tolerance:
                break
            enter = left & (rc < -tolerance)
            if not enter.any():
                enter = left & (rc < 0)
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
            float(res.objective) + frame.offset,
            iterations,
            rounds,
            bound,
        )


class _Frame:
    """The assignment LP in the nearest-center frame, written from arrays.

    The x column of point j's nearest center a(j) (ties to the lowest index)
    is eliminated through j's assignment equality, x[a(j), j] = 1 - sum over
    i != a(j) of x[i, j]. The frame's rows are the model's rows, in order,
    then j's assignment equality as the row sum over i != a(j) of
    x[i, j] <= 1, point by point. Its column x[i, j] (i != a(j), j of color
    h) has the coefficients under[g, h] in under_i_g and -under[g, h] in
    under_a(j)_g, the same with over in the over rows, delta_ij in the
    Rawlsian disu_h and 1 in j's row, and the cost cost[i, j] -
    cost[a(j), j], where delta_ij = share[i, j] - share[a(j), j].
    The t and z columns are the model's; the constants move into b_ub and an
    objective offset. A restricted LP (`restrict`) holds point j's row only
    when at least 2 of j's columns are kept.
    """

    def __init__(self, model: LPModel):
        k, n, H = model.k, model.n, model.H
        self.k, self.n, self.H = k, n, H
        self.rawlsian = model.kind == "rawlsian"
        self.num_rows = model.num_rows
        self.colors = model.instance.colors
        self.near = np.argmin(model.dist_pow, axis=1)
        points = np.arange(n)
        self.columns = np.ones((k, n), dtype=bool)
        self.columns[self.near, points] = False
        self.under, self.over = model.under, model.over
        share = model.share
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
        self.tail_lower = model.lower[k * n:]
        self.tail_upper = model.upper[k * n:]
        t = np.arange(k * H)
        t_rows = [t, k * H + t]
        t_vals = [np.full(k * H, -1.0), np.full(k * H, -1.0)]
        if self.rawlsian:
            t_rows.append(2 * k * H + t % H)
            t_vals.append(np.tile(model.t_cost, k))
        self.tail = _compress(np.column_stack(t_rows), np.column_stack(t_vals))
        if self.rawlsian:
            z = ([H], 2 * k * H + np.arange(H), np.full(H, -1.0))
            self.tail = [np.concatenate(pair) for pair in zip(self.tail, z)]

    def restrict(self, keep: np.ndarray) -> tuple[_highs.LP, np.ndarray]:
        """The frame LP over the x columns in keep ((k, n), in column order
        i * n + j) and the t and z columns, and the ids of the frame rows it
        holds: the model's rows and the rows of the points with at least 2
        kept x columns, in order."""
        k, n, H = self.k, self.n, self.H
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
        # a point with one kept column has the row x <= 1, its bound, and
        # one with none has 0 <= 1: their zero entries are compressed away
        shared = np.bincount(j, minlength=n) >= 2
        rows.append(self.num_rows + np.cumsum(shared)[j, None] - 1)
        vals.append(shared[j, None].astype(float))
        parts = zip(_compress(np.hstack(rows), np.hstack(vals)), self.tail)
        counts, indices, data = (np.concatenate(pair) for pair in parts)
        row_ids = np.concatenate(
            [np.arange(self.num_rows), self.num_rows + np.flatnonzero(shared)]
        )
        lp = _highs.LP(
            cost=np.concatenate([self.cost[i, j], self.tail_cost]),
            start=np.concatenate([[0], np.cumsum(counts)]),
            index=indices,
            value=data,
            col_lower=np.concatenate([np.zeros(len(j)), self.tail_lower]),
            col_upper=np.concatenate([np.ones(len(j)), self.tail_upper]),
            row_lower=np.full(len(row_ids), -np.inf),
            row_upper=self.b_ub[row_ids],
        )
        return lp, row_ids

    def reduced_costs(self, duals: np.ndarray) -> np.ndarray:
        """(k, n) reduced costs of every x column of the frame LP, in closed
        form from the duals of all its rows, 0 for a row a restricted LP
        left out."""
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

    def lagrangian_bound(self, duals: np.ndarray, rc: np.ndarray) -> float:
        """A lower bound on the frame LP's optimum from the duals of a
        restricted LP and the reduced costs rc they give (Lubbecke &
        Desrosiers, Oper. Res. 53(6), 2005): the model's rows are relaxed
        with their duals and each point's row is kept, so point j adds the
        least of 0 and its columns' costs with its own row dual added back.
        The t and z columns, held by every restricted LP, add 0: at its
        optimum their reduced costs are at least 0, and 0 for the free z."""
        R = self.num_rows
        own = (rc + duals[R:]).min(axis=0, where=self.columns, initial=0.0)
        return float(self.offset + duals[:R] @ self.b_ub[:R] + own.sum())


def _compress(rows: np.ndarray, vals: np.ndarray):
    """Per-column entry counts, row indices and values of the nonzero
    entries of columns given as (columns, width) arrays."""
    nonzero = vals != 0
    return np.count_nonzero(nonzero, axis=1), rows[nonzero], vals[nonzero]


def _initial_columns(model: LPModel, frame: _Frame) -> np.ndarray:
    """(k, n) x-column mask of the first LP: the frame columns of each
    point's min(k, _CANDIDATES) nearest centers that rank in the cheapest
    ceil(_CLASS_SHARE * |class|) of their (a, h, i) class by delta."""
    k, n, H = frame.k, frame.n, frame.H
    width = min(k, _CANDIDATES)
    top = np.zeros((k, n), dtype=bool)
    nearest = np.argpartition(model.dist_pow, width - 1, axis=1)
    top[nearest[:, :width].T, np.arange(n)] = True
    cls = frame.near * H + frame.colors
    size = np.bincount(cls, minlength=k * H)
    prefix = np.zeros((k, n), dtype=bool)
    rows = np.arange(k)[:, None]
    # each class's points in point order, sorted stably by delta at every
    # center, so ties stay in point order
    for members in np.split(np.argsort(cls, kind="stable"), np.cumsum(size)[:-1]):
        first = np.argsort(frame.delta[:, members], axis=1, kind="stable")
        cut = int(np.ceil(_CLASS_SHARE * len(members)))
        prefix[rows, members[first[:, :cut]]] = True
    return frame.columns & top & prefix


def solve_lp(model: LPModel) -> FractionalSolution:
    """Solve the model with HiGHS (`HighsSolver`, pricing to the tolerance
    model.params.lp_tolerance) and return a cleaned fractional assignment.

    x entries below 1e-12 are snapped to zero. The reported objective is the
    welfare evaluation of that x (`metrics.disutilities` on its fractional
    masses), in which each t_ih takes its least feasible value.
    """
    xvec = HighsSolver().solve(model)[0]
    k, n, inst = model.k, model.n, model.instance
    x = np.asarray(xvec[: k * n], dtype=np.float64).reshape(k, n).copy()
    np.clip(x, 0.0, 1.0, out=x)
    x[x < _SNAP] = 0.0
    col = np.abs(x.sum(axis=0) - 1.0).max(initial=0.0)
    if col > 1e-5:
        raise InternalInvariantError(f"assignment column sum off by {col:g}")
    D = color_masses((x * model.dist_pow.T).sum(axis=0), inst)
    _, _, disu = disutilities(inst, model.params, color_masses(x, inst), D)
    value = disu.max() if model.kind == "rawlsian" else disu.sum()
    return FractionalSolution(x, float(value))


def brute_force_assignment(
    instance: Instance,
    params: Params,
    centers: np.ndarray,
    objective: str = "rawlsian",
) -> tuple[np.ndarray, float]:
    """Exact optimum over all k^n integral assignments; ParamError above
    _BRUTE_LIMIT of them.

    Ties resolve to the lexicographically smallest assignment vector.
    """
    params.validate(instance)
    params.check_centers(instance, centers)
    if objective not in ("rawlsian", "utilitarian"):
        raise ParamError(f"unknown objective {objective!r}")
    n = instance.n
    k = params.k
    if float(k) ** n > _BRUTE_LIMIT:
        raise ParamError(
            f"k^n = {k}^{n} exceeds the enumeration guard ({_BRUTE_LIMIT:g})"
        )
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
