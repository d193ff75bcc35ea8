"""Problem data: instances, parameters, solutions, normalization."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DataError,
    EmptyCellError,
    MissingColumnError,
    NonFiniteCellError,
    NonNumericCellError,
    NormalizationError,
    ParamError,
    SingleColorError,
)


@dataclass
class Instance:
    """A clustering instance: points with a group label per point.

    features: (n, d) float array, all finite.
    colors: (n,) int array, values in [0, num_colors), every color present.
    color_names: name per color id, in first-appearance order of the source.
    Data breaking these rules raises DataError.
    """

    features: np.ndarray
    colors: np.ndarray
    color_names: list[str]

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.colors = np.asarray(self.colors, dtype=np.int64)
        if self.features.ndim != 2:
            raise DataError(
                f"features must be a 2-d array, got shape {self.features.shape}"
            )
        if self.colors.shape != (self.features.shape[0],):
            raise DataError(
                f"features of shape {self.features.shape} need colors of shape "
                f"({self.features.shape[0]},), got {self.colors.shape}"
            )
        H = len(self.color_names)
        bad = np.nonzero((self.colors < 0) | (self.colors >= H))[0]
        if bad.size:
            j = int(bad[0])
            raise DataError(
                f"point {j} has color id {self.colors[j]}, outside [0, {H}) "
                f"for {H} color names"
            )
        empty = np.nonzero(np.bincount(self.colors, minlength=H) == 0)[0]
        if empty.size:
            raise DataError(f"color {self.color_names[empty[0]]!r} has no points")
        bad = np.argwhere(~np.isfinite(self.features))
        if bad.size:
            j, c = (int(v) for v in bad[0])
            raise DataError(
                f"feature {c} of point {j} is {self.features[j, c]}, not finite"
            )

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @property
    def num_colors(self) -> int:
        return len(self.color_names)

    @property
    def counts(self) -> np.ndarray:
        """n_h: number of points of each color."""
        return np.bincount(self.colors, minlength=self.num_colors)

    @property
    def proportions(self) -> np.ndarray:
        """r_h = n_h / n."""
        return self.counts / float(self.n)

    def points_of(self, h: int) -> np.ndarray:
        return np.nonzero(self.colors == h)[0]

    def subsample(self, size: int, seed: int) -> "Instance":
        """Uniform subsample without replacement, keeping color ids stable."""
        if size >= self.n:
            return self
        rng = np.random.default_rng(seed)
        idx = np.sort(rng.choice(self.n, size=size, replace=False))
        sub = Instance(self.features[idx], self.colors[idx], list(self.color_names))
        if len(np.unique(sub.colors)) < 2:
            raise SingleColorError("<subsample>", sub.color_names[int(sub.colors[0])])
        return sub


def load_instance(
    csv_path: str, feature_columns: list[str], group_column: str
) -> Instance:
    """Read a UTF-8 CSV with a header row into an Instance.

    Feature cells must parse as floats with '.' decimal separator; any empty
    selected cell rejects the row's load with an error naming column and row.
    Color ids follow first appearance order of the group column.
    """
    with open(csv_path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        for col in list(feature_columns) + [group_column]:
            if col not in header:
                raise MissingColumnError(col)
        rows = []
        groups = []
        for rownum, rec in enumerate(reader, start=1):
            vals = []
            for col in feature_columns:
                cell = (rec[col] or "").strip()
                if cell == "":
                    raise EmptyCellError(col, rownum)
                try:
                    val = float(cell)
                except ValueError:
                    raise NonNumericCellError(col, rownum, cell) from None
                if not math.isfinite(val):
                    raise NonFiniteCellError(col, rownum, cell)
                vals.append(val)
            gcell = (rec[group_column] or "").strip()
            if gcell == "":
                raise EmptyCellError(group_column, rownum)
            rows.append(vals)
            groups.append(gcell)
    names: list[str] = []
    ids = {}
    colors = np.empty(len(groups), dtype=np.int64)
    for j, g in enumerate(groups):
        if g not in ids:
            ids[g] = len(names)
            names.append(g)
        colors[j] = ids[g]
    if len(names) < 2:
        raise SingleColorError(group_column, names[0] if names else "")
    return Instance(np.asarray(rows, dtype=np.float64), colors, names)


# default Params.lp_tolerance; gapreport falls back to it too
LP_TOLERANCE = 1e-7


@dataclass
class Params:
    """Objective parameters: exponent p, tradeoff lambda, k, slack vectors.

    alpha[h] loosens the upper proportion bound for color h, beta[h] the lower
    one. lp_tolerance is the LP's pricing threshold and the slack by which a
    rounding gap may exceed its bound; HiGHS's feasibility tolerances are
    min(lp_tolerance, 1e-9). It must be finite and at least 1e-10.
    """

    k: int
    lam: float
    p: int = 2
    alpha: np.ndarray = field(default_factory=lambda: np.zeros(0))
    beta: np.ndarray = field(default_factory=lambda: np.zeros(0))
    lp_tolerance: float = LP_TOLERANCE

    def __post_init__(self):
        self.alpha = np.asarray(self.alpha, dtype=np.float64)
        self.beta = np.asarray(self.beta, dtype=np.float64)

    @classmethod
    def with_delta(
        cls,
        instance: Instance,
        k: int,
        lam: float,
        delta: float = 0.0,
        p: int = 2,
        lp_tolerance: float = LP_TOLERANCE,
    ) -> "Params":
        """Proportional slacks alpha_h = beta_h = delta * r_h."""
        r = instance.proportions
        return cls(
            k=k,
            lam=lam,
            p=p,
            alpha=delta * r,
            beta=delta * r,
            lp_tolerance=lp_tolerance,
        )

    def validate(self, instance: Instance) -> None:
        H = instance.num_colors
        if self.p not in (1, 2):
            raise ParamError(f"p must be 1 or 2, got {self.p}")
        if not (0.0 <= self.lam <= 1.0):
            raise ParamError(f"lambda must lie in [0, 1], got {self.lam}")
        if not (1 <= self.k <= instance.n):
            raise ParamError(f"k={self.k} must lie in [1, n={instance.n}]")
        if self.alpha.shape != (H,) or self.beta.shape != (H,):
            raise ParamError(
                f"alpha/beta must have one entry per color ({H}), "
                f"got {self.alpha.shape} / {self.beta.shape}"
            )
        if np.any(self.alpha < 0) or np.any(self.beta < 0):
            raise ParamError("alpha and beta must be nonnegative")
        # HiGHS ignores feasibility tolerances below 1e-10 and keeps its
        # default, while pricing and the gap rule would use the tiny value
        if not (math.isfinite(self.lp_tolerance) and self.lp_tolerance >= 1e-10):
            raise ParamError(
                f"lp_tolerance must be finite and at least 1e-10, "
                f"got {self.lp_tolerance}"
            )
        r = instance.proportions
        bad = np.nonzero(r + self.alpha > 1.0 + 1e-12)[0]
        if bad.size:
            h = int(bad[0])
            raise ParamError(
                f"r_h + alpha_h > 1 for color {instance.color_names[h]!r}"
            )
        bad = np.nonzero(r - self.beta < -1e-12)[0]
        if bad.size:
            h = int(bad[0])
            raise ParamError(
                f"r_h - beta_h < 0 for color {instance.color_names[h]!r}"
            )


@dataclass
class Solution:
    """Centers plus an integral assignment of every point to a center."""

    centers: np.ndarray
    assignment: np.ndarray
    provenance: str = ""

    def __post_init__(self):
        self.centers = np.asarray(self.centers, dtype=np.float64)
        self.assignment = np.asarray(self.assignment, dtype=np.int64)

    @property
    def k(self) -> int:
        return self.centers.shape[0]

    def cluster_sizes(self) -> np.ndarray:
        return np.bincount(self.assignment, minlength=self.k)


def normalization_factor(
    instance: Instance,
    k_range: list[int],
    p: int = 2,
    mode: str = "rawlsian",
    seed: int = 0,
) -> float:
    """Scale factor balancing distance and violation terms.

    For each k, one vanilla k-means run (fixed seed) gives an assignment;
    the factor for that k is distance numerator / violation denominator with
    alpha = beta = 0, and the result is the mean over k_range. mode selects
    the numerator: "rawlsian" uses the overall mean of d^p, "utilitarian" the
    sum over colors of per-color average d^p.
    """
    if mode not in ("rawlsian", "utilitarian"):
        raise ValueError(f"unknown normalization mode {mode!r}")
    return normalization_factors(instance, k_range, p, seed)[mode]


def normalization_factors(
    instance: Instance,
    k_range: list[int],
    p: int = 2,
    seed: int = 0,
) -> dict[str, float]:
    """normalization_factor for both modes, from one vanilla k-means run per
    k: {"rawlsian": ..., "utilitarian": ...}."""
    from . import centers as _centers
    from . import metrics as _metrics

    if not k_range:
        raise ValueError("k_range must be non-empty")
    factors: dict[str, list[float]] = {"rawlsian": [], "utilitarian": []}
    for k in k_range:
        cs = _centers.lloyd(instance, k, np.ones(instance.n), seed=seed)
        dist = _metrics.pairwise_pow(instance.features, cs.centers, p)
        params0 = Params.with_delta(instance, k, 0.0, p=p)
        rep = _metrics.report_from_distances(
            instance, params0, dist, np.argmin(dist, axis=1)
        )
        # U at lambda = 0 is sum_h V_h / n_h
        den = rep.U
        if den <= 0.0:
            raise NormalizationError(
                k, "violation denominator is zero; instance is exactly balanced"
            )
        factors["rawlsian"].append(rep.cost / instance.n / den)
        factors["utilitarian"].append(float((rep.D / instance.counts).sum()) / den)
    return {mode: float(np.mean(f)) for mode, f in factors.items()}


def apply_normalization(instance: Instance, factor: float) -> Instance:
    """Divide coordinates by sqrt(factor) so squared distances divide by it."""
    if not (factor > 0.0) or not math.isfinite(factor):
        raise ValueError(f"normalization factor must be positive finite, got {factor}")
    return Instance(
        instance.features / math.sqrt(factor),
        instance.colors.copy(),
        list(instance.color_names),
    )
