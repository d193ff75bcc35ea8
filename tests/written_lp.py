"""The assignment LP of an `LPModel` written out in its own variables, an
independent statement of the model for the tests to check the frame
against.

Variables, in order: x_i_j, point j's share of center i in [0, 1], at
i * n + j; t_i_h >= 0, color h's proportion violation in cluster i, at
k * n + i * H + h; and, for the Rawlsian objective, the free z last. The
LP minimizes objective . v subject to every point's x column summing to 1
and every coupling row in rows being <= 0: under_i_h and over_i_h for
every (cluster, color), then, for the Rawlsian objective, disu_h for
every color. x[i, j] (j of color h) has under[g, h] in under_i_g,
over[g, h] in over_i_g, and share[i, j] = lam / n_h * d^p(x_j, c_i) in
disu_h and as its Utilitarian cost; t_i_h has (1 - lam) / n_h in both.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from welfair.lp import LPModel


@dataclass
class Row:
    """One coupling row of the assignment LP: vals . v[cols] <= 0."""

    name: str
    cols: np.ndarray
    vals: np.ndarray


@dataclass
class WrittenLP:
    """model's LP written out from its set-up and lambda: the share and
    t-cost tables, the coupling rows, the objective and the bounds."""

    model: LPModel

    def __post_init__(self):
        self.params, self.setup = self.model.params, self.model.setup
        self.num_vars = self.model.num_vars
        self.share = self.setup.shares(self.params.lam)[0]
        self.t_cost = (1.0 - self.params.lam) / self.setup.instance.counts

    @cached_property
    def objective(self) -> np.ndarray:
        """The cost of every variable; the solve reads the frame's costs."""
        if self.setup.rawlsian:
            objective = np.zeros(self.num_vars)
            objective[-1] = 1.0
            return objective
        return np.concatenate([self.share.ravel(), np.tile(self.t_cost, self.params.k)])

    @cached_property
    def rows(self) -> list[Row]:
        """The coupling rows; the solve reads the frame's matrix instead."""
        inst, setup = self.setup.instance, self.setup
        k, n, H = self.params.k, inst.n, inst.num_colors
        colors = inst.colors
        allj = np.arange(n)
        rows = [
            Row(
                f"{tag}_{i}_{g}",
                np.concatenate([i * n + allj, [k * n + i * H + g]]),
                np.concatenate([coef[g], [-1.0]]),
            )
            for tag, coef in (
                ("under", setup.under[:, colors]),
                ("over", setup.over[:, colors]),
            )
            for i in range(k)
            for g in range(H)
        ]
        if self.setup.rawlsian:
            # z bounds every color's fractional disutility from above
            share, t_cost, z = self.share, self.t_cost, k * (n + H)
            clusters = np.arange(k)
            for h in range(H):
                jh = np.flatnonzero(colors == h)
                xcols = (clusters[:, None] * n + jh).ravel()
                cols = [xcols, k * n + clusters * H + h, [z]]
                vals = [share[:, jh].ravel(), np.full(k, t_cost[h]), [-1.0]]
                rows.append(
                    Row(f"disu_{h}", np.concatenate(cols), np.concatenate(vals))
                )
        return rows

    @property
    def lower(self) -> np.ndarray:
        lower = np.zeros(self.num_vars)
        if self.setup.rawlsian:
            lower[-1] = -np.inf
        return lower

    @property
    def upper(self) -> np.ndarray:
        upper = np.full(self.num_vars, np.inf)
        upper[: self.params.k * self.setup.instance.n] = 1.0
        return upper
