"""The welfair assignment LP of each welfare objective, its HiGHS solve, and
a brute-force oracle for tiny instances."""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from scipy import sparse

from . import _highs
from .errors import InternalInvariantError, ParamError
from .metrics import color_masses, disutilities, nearest, pairwise_pow
from .model import Instance, Params, check_objective, slack

_SNAP = 1e-12
# the most by which a column of solve_lp's x may sum away from 1
COLUMN_SUM_TOL = 1e-5
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
    """One row of a frame LP: vals . v[cols] <= its right-hand side."""

    cols: np.ndarray
    vals: np.ndarray


class LPSetup:
    """What the assignment LP of one (instance, k, center set) has that does
    not depend on lambda, built once for the LPs of every lambda.

    It holds the (k, n) d^p matrix dist_t, whose transpose is the (n, k)
    dist_pow a rounder reads, and each point's nearest center near (ties to
    the lowest index); built for an LP kind, "rawlsian" or "utilitarian",
    also that LP's frame (`LPModel`) without lambda: the (H, H) under/over
    tables, from which `x_columns` writes any x column, the right-hand sides
    of the under/over and point rows, and the first restriction `first`
    with its `x_columns`. Within a class (a, h) every delta scales
    by the same lambda / n_h (`shares`), so `first`, ranked at lambda = 1,
    serves every lambda > 0; at lambda = 0 every delta is 0 and pricing
    brings in what the ranking left out. Only the Rawlsian matrix depends on
    lambda: its deltas (at the placeholders of `x_columns`) and t costs (at
    `tail_scaled`) in the disu rows. Built with kind None it is a
    baseline's, holding the distances and the nearest centers.

    The constructor applies params.validate and params.check_centers;
    `check` compares a call's arguments with the set-up's own. The set-up
    holds its own copy of the centers; it and dist_t and near are read-only,
    so a run given the set-up alone, whose result holds those centers,
    cannot change them for the set-up's other runs.
    """

    def __init__(
        self,
        instance: Instance,
        params: Params,
        centers: np.ndarray,
        kind: str | None = None,
    ):
        if kind is not None:
            check_objective(kind)
        params.validate(instance)
        self.centers = params.check_centers(instance, centers).copy()
        self.instance, self.params, self.kind = instance, params, kind
        self.dist_t = pairwise_pow(self.centers, instance.features, params.p)
        self.near = nearest(self.dist_t)[0]
        for held in (self.centers, self.dist_t, self.near):
            held.setflags(write=False)
        if kind is not None:
            self._frame()

    @property
    def rawlsian(self) -> bool:
        return self.kind == "rawlsian"

    def check(self, instance: Instance, params: Params, centers: np.ndarray) -> None:
        """ParamError unless params' scalars pass `Params.check_scalars` and
        the set-up was built for instance, params' k, p and slacks, and
        centers; the rest of `Params.validate` held when it was built."""
        params.check_scalars(instance.n)
        own = self.params
        if not (
            instance is self.instance
            and params.k == own.k
            and params.p == own.p
            and np.array_equal(params.alpha, own.alpha)
            and np.array_equal(params.beta, own.beta)
            and np.array_equal(centers, self.centers)
        ):
            raise ParamError(
                "the set-up was built for another instance, k, p, slack or "
                "center set"
            )

    def _frame(self) -> None:
        inst, params, near = self.instance, self.params, self.near
        k, n, H = params.k, inst.n, inst.num_colors
        colors, points = inst.colors, np.arange(n)
        self.num_rows = 2 * k * H + H * self.rawlsian
        self.point_counts = inst.counts[colors]
        # t_ih bounds the under- and over-representation of color h in cluster i:
        # (r_h - beta_h) size_i - size_ih <= t_ih and
        # size_ih - (r_h + alpha_h) size_i <= t_ih, written out in x
        r, eye = inst.proportions, np.eye(H)
        self.under = (r - params.beta)[:, None] - eye
        self.over = eye - (r + params.alpha)[:, None]
        # minus the rows' coefficients of the eliminated columns, summed in
        # point order; each LP sets those of the Rawlsian disu rows
        b_rows = [
            np.column_stack(
                [
                    np.bincount(near, weights=coef[g, colors], minlength=k)
                    for g in range(H)
                ]
            ).ravel()
            for coef in (self.under, self.over)
        ]
        self.b_ub = np.concatenate(
            [-np.concatenate(b_rows), np.zeros(H * self.rawlsian), np.ones(n)]
        )
        # flat positions of each point's nearest column in (k, n) and of its
        # (nearest center, color) class in (k, H)
        self.near_flat = near * n + points
        self.near_color = near * H + colors
        # the t and z columns' bounds and CSC parts: t_i_h has -1 in
        # under_i_h and over_i_h and, Rawlsian, its cost in disu_h, third of
        # its entries, which each LP sets; the free z has -1 in every disu
        # row
        t = np.arange(k * H)
        t_rows = [t, k * H + t] + [2 * k * H + t % H] * self.rawlsian
        width = len(t_rows)
        self.tail_start = np.arange(0, width * k * H + 1, width)
        self.tail_index = np.column_stack(t_rows).ravel()
        self.tail_value = np.full(width * k * H, -1.0)
        self.tail_lower = np.zeros(k * H)
        self.tail_upper = np.full(k * H, np.inf)
        if self.rawlsian:
            self.tail_scaled = 3 * t + 2
            self.tail_start = np.append(self.tail_start, width * k * H + H)
            self.tail_index = np.append(self.tail_index, 2 * k * H + np.arange(H))
            self.tail_value = np.append(self.tail_value, np.full(H, -1.0))
            self.tail_lower = np.append(self.tail_lower, -np.inf)
            self.tail_upper = np.append(self.tail_upper, np.inf)
        self._first()

    def shares(self, lam: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """At lambda lam: the (k, n) share[i, j] = lam / n_h * d^p(x_j, c_i)
        (j of color h), each point's share of its nearest center, and their
        (k, n) difference delta, 0 at the nearest column."""
        share = (lam / self.point_counts) * self.dist_t
        near_share = share[self.near, np.arange(self.instance.n)]
        return share, near_share, share - near_share

    def _first(self) -> None:
        """The first restricted LP: the frame columns of each point's
        min(k, _CANDIDATES) nearest centers that rank in the cheapest
        ceil(_CLASS_SHARE * |class|) of their (a, h, i) class by delta at
        lambda = 1, with their flat positions and `x_columns`."""
        inst, near = self.instance, self.near
        k, n, H = self.params.k, inst.n, inst.num_colors
        points = np.arange(n)
        columns = np.arange(k)[:, None] != near
        width = min(k, _CANDIDATES)
        top = np.zeros((k, n), dtype=bool)
        nearest = np.argpartition(self.dist_t, width - 1, axis=0)
        top[nearest[:width], points] = True
        delta = self.shares(1.0)[2]
        cls = self.near_color
        size = np.bincount(cls, minlength=k * H)
        prefix = np.zeros((k, n), dtype=bool)
        rows = np.arange(k)[:, None]
        # each class's points in point order, sorted stably by delta at every
        # center, so ties stay in point order
        for members in np.split(np.argsort(cls, kind="stable"), np.cumsum(size)[:-1]):
            first = np.argsort(delta[:, members], axis=1, kind="stable")
            cut = int(np.ceil(_CLASS_SHARE * len(members)))
            prefix[rows, members[first[:, :cut]]] = True
        self.first = columns & top & prefix
        self.first_left = columns & ~self.first
        flat = np.flatnonzero(self.first)
        self.first_columns = flat, self.x_columns(*np.divmod(flat, n))

    def x_columns(
        self, i: np.ndarray, j: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The CSC parts (start, index, value) of the frame's x columns
        x[i, j], in order: their nonzero under/over entries, rows ascending
        (the lower-numbered of clusters i and a(j) first, with sign +1 if
        that cluster is i, times the `under` and `over` tables' entries of
        j's color), a placeholder 1 in the Rawlsian disu_h row, and 1 in j's
        own row if j has at least 2 of the columns (else its row is its
        bound x <= 1); the ids of the points with such a row; and the
        placeholders' positions in value."""
        k, n, H = self.params.k, self.instance.n, self.instance.num_colors
        a, h = self.near[j], self.instance.colors[j]
        shared = np.bincount(j, minlength=n) >= 2
        own = shared.take(j)
        g = np.arange(H)[:, None]
        lo, hi = np.minimum(i, a) * H + g, np.maximum(i, a) * H + g
        sign = np.where(i < a, 1.0, -1.0)
        under = sign * self.under.take(h, axis=1)
        over = sign * self.over.take(h, axis=1)
        # one column of rows and vals per x column, read column by column
        rows = np.vstack(
            [lo, hi, k * H + lo, k * H + hi]
            + [2 * k * H + h] * self.rawlsian
            + [self.num_rows + np.cumsum(shared).take(j) - 1]
        )
        vals = np.vstack(
            [under, -under, over, -over] + [np.ones(len(j))] * self.rawlsian + [own]
        )
        nonzero = vals != 0
        start = np.concatenate([[0], np.cumsum(nonzero.sum(axis=0))])
        # each placeholder is its column's last entry but the own-row 1
        delta_at = start[1:] - 1 - own if self.rawlsian else start[:0]
        index, value = rows.T[nonzero.T], vals.T[nonzero.T]
        return start, index, value, np.flatnonzero(shared), delta_at


@dataclass
class LPModel:
    """The assignment LP of one welfare objective at one lambda, in the
    nearest-center frame that HiGHS solves.

    The LP's variables are x_i_j, point j's share of center i in [0, 1];
    t_i_h >= 0, color h's proportion violation in cluster i; and, for the
    Rawlsian objective, the free z. Its rows are under_i_h and over_i_h for
    every (cluster, color), then, for the Rawlsian objective, disu_h for
    every color, all <= 0, and every point's assignment equality. x[i, j]
    (j of color h) has under[g, h] in under_i_g, over[g, h] in over_i_g,
    and share[i, j] = lam / n_h * d^p(x_j, c_i) in disu_h and as its
    Utilitarian cost; t_i_h has (1 - lam) / n_h in both.

    The frame eliminates the x column of point j's nearest center a(j) (ties
    to the lowest index) through j's assignment equality, x[a(j), j] = 1 -
    sum over i != a(j) of x[i, j]. Its rows are the coupling rows, in order,
    then j's equality as the row sum over i != a(j) of x[i, j] <= 1, point
    by point. Its column x[i, j] (i != a(j), j of color h) has under[g, h]
    in under_i_g and -under[g, h] in under_a(j)_g, the same with over,
    delta_ij = share[i, j] - share[a(j), j] in the Rawlsian disu_h and 1 in
    j's row, and the cost cost[i, j] - cost[a(j), j]. The t and z columns
    are the LP's; the constants move into b_ub and an objective offset.
    A restricted LP holds point j's row only when at least 2 of j's columns
    are kept. The set-up (`LPSetup`) holds all of this that does not depend
    on lambda; the fields below add lambda. The vector `HighsSolver.solve`
    returns holds x at i * n + j, t at k * n + i * H + h and z last
    (`num_vars` entries); `rows` writes the frame out when first read.
    The lambda fields are in units of sigma, `_highs.unit` of the nearest
    assignment's cost sum(share[a(j), j]); so are z and the LP's value.
    """

    params: Params
    setup: LPSetup
    sigma: float                # the unit of the fields below
    delta: np.ndarray           # (k, n) delta_ij, 0 at the nearest column
    cost: np.ndarray            # (k, n) frame x-column costs
    offset: float               # objective constant of the nearest columns
    b_ub: np.ndarray            # right-hand sides of every frame row
    tail_cost: np.ndarray       # costs of the t and z columns
    tail: tuple                 # their CSC parts (start, index, value)

    @cached_property
    def rows(self) -> list[Row]:
        """The rows of `restrict` over every frame column: the coupling rows,
        then those of the points with 2 or more frame columns; the solve
        reads none of them."""
        setup = self.setup
        lp = self.restrict(setup.first | setup.first_left)[0]
        A = sparse.csc_matrix(
            (lp.value, lp.index, lp.start), shape=(len(lp.row_upper), len(lp.cost))
        ).tocsr()
        cut = A.indptr[1:-1]
        return list(map(Row, np.split(A.indices, cut), np.split(A.data, cut)))

    @property
    def num_vars(self) -> int:
        k, inst = self.params.k, self.setup.instance
        return k * (inst.n + inst.num_colors) + self.setup.rawlsian

    def restrict(self, keep: np.ndarray) -> tuple[_highs.LP, np.ndarray, np.ndarray]:
        """The frame LP over the x columns in keep ((k, n), order i * n + j)
        and the t and z columns, the x columns' flat positions, and the ids of
        its frame rows: the coupling rows, then those of the points with 2 or
        more kept x columns. The x columns are `LPSetup.x_columns`, the set-up's
        kept ones when keep is its `first`, with this lambda's Rawlsian
        deltas, zeros included, written over their placeholders."""
        setup = self.setup
        if keep is setup.first:
            flat, (start, index, value, shared, delta_at) = setup.first_columns
        else:
            flat = np.flatnonzero(keep)
            start, index, value, shared, delta_at = setup.x_columns(
                *np.divmod(flat, keep.shape[1])
            )
        t_start, t_index, t_value = self.tail
        value = np.concatenate([value, t_value])
        if setup.rawlsian:
            value[delta_at] = self.delta.take(flat)
        row_ids = np.concatenate([np.arange(setup.num_rows), setup.num_rows + shared])
        lp = _highs.LP(
            cost=np.concatenate([self.cost.take(flat), self.tail_cost]),
            start=np.concatenate([start, start[-1] + t_start[1:]]),
            index=np.concatenate([index, t_index]),
            value=value,
            col_lower=np.concatenate([np.zeros(len(flat)), setup.tail_lower]),
            col_upper=np.concatenate([np.ones(len(flat)), setup.tail_upper]),
            row_lower=np.full(len(row_ids), -np.inf),
            row_upper=self.b_ub[row_ids],
        )
        return lp, flat, row_ids

    def reduced_costs(self, duals: np.ndarray) -> np.ndarray:
        """(k, n) reduced costs of every x column of the frame LP, in closed
        form from the duals of all its rows, 0 for a row a restricted LP
        left out."""
        setup = self.setup
        k, H = setup.params.k, len(setup.under)
        R = setup.num_rows
        # [i, h]: dual price of a color-h share's under/over coefficients in
        # cluster i
        G = duals[: k * H].reshape(k, H) @ setup.under
        G += duals[k * H: 2 * k * H].reshape(k, H) @ setup.over
        h = setup.instance.colors
        rc = self.cost - G.take(h, axis=1) + (G.take(setup.near_color) - duals[R:])
        if setup.rawlsian:
            rc -= duals[2 * k * H: R].take(h) * self.delta
        return rc

    def lagrangian_bound(self, duals: np.ndarray, rc: np.ndarray) -> float:
        """A lower bound on the frame LP's optimum from the duals of a
        restricted LP and the reduced costs rc they give (Lubbecke &
        Desrosiers, Oper. Res. 53(6), 2005): the coupling rows are relaxed
        with their duals and each point's row is kept, so point j adds the
        least of 0 and its columns' costs with its own row dual added back.
        The t and z columns, held by every restricted LP, add 0: at its
        optimum their reduced costs are at least 0, and 0 for the free z."""
        R = self.setup.num_rows
        # each point's least cost over its frame columns and 0, the 0 put at
        # its eliminated nearest column
        own = rc + duals[R:]
        own.put(self.setup.near_flat, 0.0)
        return float(self.offset + duals[:R] @ self.b_ub[:R] + own.min(axis=0).sum())


@dataclass
class FractionalSolution:
    """Cleaned LP optimum: x (k, n) and the objective evaluated on it."""

    x: np.ndarray
    objective: float


def _build(kind: str, setup: LPSetup, lam: float) -> LPModel:
    """The LP of kind on setup at lambda lam, with the set-up's other
    parameters; ParamError unless setup was built for kind and lam passes
    `Params.check_scalars`."""
    if kind != setup.kind:
        was = f"for the {setup.kind} LP," if setup.kind else "without an LP kind,"
        raise ParamError(f"the set-up was built {was} not the {kind} one")
    instance, params = setup.instance, replace(setup.params, lam=lam)
    params.check_scalars(instance.n)
    share, near_share, delta = setup.shares(lam)
    sigma = _highs.unit(near_share.sum())
    delta, near_share = delta / sigma, near_share / sigma
    t_costs = np.tile((1.0 - lam) / instance.counts, params.k) / sigma
    b_ub = setup.b_ub
    tail_value = setup.tail_value
    if setup.rawlsian:
        cost, offset = np.zeros_like(share), 0.0
        tail_cost = np.zeros(len(setup.tail_lower))
        tail_cost[-1] = 1.0
        tail_value = tail_value.copy()
        tail_value[setup.tail_scaled] = t_costs
        b_ub = b_ub.copy()
        R, H = setup.num_rows, instance.num_colors
        b_ub[R - H: R] = -np.bincount(instance.colors, weights=near_share, minlength=H)
    else:
        cost, offset, tail_cost = delta, float(near_share.sum()), t_costs
    tail = setup.tail_start, setup.tail_index, tail_value
    return LPModel(params, setup, sigma, delta, cost, offset, b_ub, tail_cost, tail)


def build_rawlsian_lp(setup: LPSetup, lam: float) -> LPModel:
    """Min-max LP at lambda lam: z bounds every color's fractional
    disutility from above. setup, an `LPSetup` built for the "rawlsian"
    LP, gives its lambda-free part and its other parameters."""
    return _build("rawlsian", setup, lam)


def build_utilitarian_lp(setup: LPSetup, lam: float) -> LPModel:
    """Sum-of-disutilities LP: same constraints, objective in the costs;
    setup as for `build_rawlsian_lp`, built for the "utilitarian" LP."""
    return _build("utilitarian", setup, lam)


class HighsSolver:
    """HiGHS's dual simplex, called through `_highs`.

    The LP is solved in each point's nearest-center frame (`LPModel`), where
    HiGHS's all-zero start, with presolve off, is the nearest-center
    assignment, a few dozen dual-simplex iterations from the optimum instead
    of about n.

    The LP is solved by column generation. Within a class (a(j), color of
    j) the frame columns at a center i differ only in their cost delta_ij,
    so the LP moves the cheap end of each (a, h, i) class first. The first
    LP, built by the set-up (`LPSetup.first`), keeps the columns of each
    point's min(k, _CANDIDATES) nearest centers that rank in the cheapest
    ceil(_CLASS_SHARE * |class (a, h)|) of their (a, h, i) class. Each
    restricted LP holds point j's row only when j has at least 2 kept
    columns: with fewer the row is implied by the bounds x <= 1, its dual 0
    is optimal, and pricing reads 0 for it.

    After each round the restricted LP's duals give a Lagrangian lower
    bound on the full LP's optimum (`LPModel.lagrangian_bound`). Pricing
    stops when the restricted optimum is within its slack (`model.slack`,
    relative to the optimum's size) of that bound, so the value returned is
    at most that slack above the full LP's optimum however many left-out
    columns price slightly below 0. Otherwise the left-out columns whose
    reduced cost is below minus the slack join, or, when there are none,
    those below 0, and HiGHS solves again. solve returns the LP's
    variables, its value, the simplex iterations summed over the pricing
    rounds, the number of rounds, and the last round's lower bound; the
    slack, the value, the bound and z in the LP's units, not sigma's.
    """

    def solve(self, model: LPModel) -> tuple[np.ndarray, float, int, int, float]:
        keep, left = model.setup.first, model.setup.first_left
        sigma = model.sigma
        rounds = iterations = 0
        while True:
            rounds += 1
            lp, flat, row_ids = model.restrict(keep)
            res = _highs.solve(lp)
            iterations += res.iterations
            duals = np.zeros(len(model.b_ub))
            duals[row_ids] = res.row_dual
            rc = model.reduced_costs(duals)
            bound = model.lagrangian_bound(duals, rc)
            value = res.objective + model.offset
            tolerance = slack(value * sigma) / sigma
            if value - bound <= tolerance:
                break
            enter = left & (rc < -tolerance)
            if not enter.any():
                enter = left & (rc < 0)
            if not enter.any():
                break
            keep = keep | enter
            left = left & ~enter
        x = np.zeros(keep.shape)
        x.put(flat, res.x[: len(flat)])
        x.put(model.setup.near_flat, 1.0 - x.sum(axis=0))
        xvec = np.concatenate([x.ravel(), res.x[len(flat):]])
        if model.setup.rawlsian:
            xvec[-1] *= sigma
        return xvec, float(value * sigma), iterations, rounds, bound * sigma


def solve_lp(model: LPModel) -> FractionalSolution:
    """Solve the model with HiGHS (`HighsSolver`, pricing to the LP value's
    `model.slack`) and return a cleaned fractional assignment.

    x entries below 1e-12 are snapped to zero. The reported objective is the
    welfare evaluation of that x (`metrics.disutilities` on its fractional
    masses), in which each t_ih takes its least feasible value.
    """
    xvec = HighsSolver().solve(model)[0]
    k, inst = model.params.k, model.setup.instance
    x = np.array(xvec[: k * inst.n], dtype=np.float64).reshape(k, inst.n)
    # clipped to [0, 1], then snapped
    np.putmask(x, x < _SNAP, 0.0)
    np.minimum(x, 1.0, out=x)
    col = np.abs(x.sum(axis=0) - 1.0).max(initial=0.0)
    if col > COLUMN_SUM_TOL:
        raise InternalInvariantError(f"assignment column sum off by {col:g}")
    D = color_masses((x * model.setup.dist_t).sum(axis=0), inst)
    _, _, disu = disutilities(inst, model.params, color_masses(x, inst), D)
    value = disu.max() if model.setup.rawlsian else disu.sum()
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
    centers = params.check_centers(instance, centers)
    check_objective(objective)
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
