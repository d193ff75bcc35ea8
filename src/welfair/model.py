"""Problem data: instances, parameters, solutions, normalization."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from numbers import Real

import numpy as np

from . import _highs
from .errors import DataError, ParamError


@dataclass
class Instance:
    """A clustering instance: points with a group label per point.

    features: (n, d) float array, d >= 1, all finite.
    colors: (n,) integer ids (whole floats too) in [0, num_colors), every color present.
    color_names: name per color id, in first-appearance order of the source;
    at least two of them, no two alike.
    Data breaking these rules raises DataError.
    """

    features: np.ndarray
    colors: np.ndarray
    color_names: list[str]

    def __post_init__(self):
        try:
            self.features = np.asarray(self.features, dtype=np.float64)
        except (TypeError, ValueError) as err:
            raise DataError(f"features must be numbers: {err}") from None
        colors = np.asarray(self.colors)
        if colors.dtype.kind not in "biu":
            for j, c in enumerate(colors.ravel().tolist()):
                if not (isinstance(c, Real) and float(c).is_integer()):
                    raise DataError(f"point {j} has color id {c!r}, not an integer")
        self.colors = colors.astype(np.int64)
        if self.features.ndim != 2:
            raise DataError(
                f"features must be a 2-d array, got shape {self.features.shape}"
            )
        if self.features.shape[1] == 0:
            raise DataError(
                "features have no columns; an instance needs at least one feature"
            )
        if self.colors.shape != (self.features.shape[0],):
            raise DataError(
                f"features of shape {self.features.shape} need colors of shape "
                f"({self.features.shape[0]},), got {self.colors.shape}"
            )
        H = len(self.color_names)
        if H < 2:
            raise DataError(
                f"got {H} color name(s) {list(self.color_names)!r}; "
                "need at least two groups"
            )
        names = list(self.color_names)
        repeat = next((v for i, v in enumerate(names) if v in names[:i]), None)
        if repeat is not None:
            raise DataError(f"color name {repeat!r} appears more than once")
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

    def subsample(self, size: int, seed: int) -> "Instance":
        """Uniform subsample without replacement, keeping color ids stable;
        size and seed are integers (`check_int`) of at least 1 and 0."""
        check_int("subsample", size, 1)
        check_int("seed", seed, 0)
        if size >= self.n:
            return self
        rng = np.random.default_rng(seed)
        idx = np.sort(rng.choice(self.n, size=size, replace=False))
        return Instance(self.features[idx], self.colors[idx], list(self.color_names))


def load_instance(
    csv_path: str, feature_columns: list[str], group_column: str
) -> Instance:
    """Read a UTF-8 CSV (BOM or not) with a header row into an Instance.

    Feature cells must parse as floats with '.' decimal separator; any empty
    selected cell rejects the row's load with an error naming column and row.
    Color ids follow first appearance order of the group column.
    """
    with open(csv_path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        # as csv.DictReader reads it: a name given twice names its last
        # column, a cell past a short row's end is empty, and a blank line
        # is no data row
        at = {name: i for i, name in enumerate(next(reader, []))}
        for col in list(feature_columns) + [group_column]:
            if col not in at:
                raise DataError(f"column {col!r} not found in header")
        features = [(col, at[col]) for col in feature_columns]
        group = at[group_column]
        rows = []
        groups = []
        rownum = 0
        for rec in reader:
            if not rec:
                continue
            rownum += 1
            width = len(rec)
            vals = []
            for col, i in features:
                cell = rec[i].strip() if i < width else ""
                if cell == "":
                    raise DataError(f"empty cell {_at(col, rownum)}")
                try:
                    val = float(cell)
                except ValueError:
                    raise DataError(
                        f"non-numeric value {cell!r} {_at(col, rownum)}"
                    ) from None
                if not math.isfinite(val):
                    raise DataError(f"non-finite value {cell!r} {_at(col, rownum)}")
                vals.append(val)
            gcell = rec[group].strip() if group < width else ""
            if gcell == "":
                raise DataError(f"empty cell {_at(group_column, rownum)}")
            rows.append(vals)
            groups.append(gcell)
    if not groups:
        raise DataError(f"{csv_path} has a header but no data rows")
    names: list[str] = []
    ids = {}
    colors = np.empty(len(groups), dtype=np.int64)
    for j, g in enumerate(groups):
        if g not in ids:
            ids[g] = len(names)
            names.append(g)
        colors[j] = ids[g]
    if len(names) < 2:
        raise DataError(
            f"group column {group_column!r} holds a single distinct value "
            f"{names[0]!r}; need at least two groups"
        )
    return Instance(np.asarray(rows, dtype=np.float64), colors, names)


def _at(column: str, row: int) -> str:
    return f"in column {column!r} at data row {row}"


# default Params.lp_tolerance
LP_TOLERANCE = 1e-7


def check_int(name: str, value, least: int | None = None) -> None:
    """ParamError naming the setting unless value is an integer, of at least
    least if given: a bool is not one; numpy integers are."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ParamError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ParamError(f"{name} must be at least {least}, got {value}")


def check_k(k, n: int) -> None:
    """ParamError unless k is an integer (`check_int`) in [1, n].
    `Params.validate` and `centers.kmeanspp_init` both apply it."""
    check_int("k", k)
    if not 1 <= k <= n:
        raise ParamError(f"k={k} must lie in [1, n={n}]")


def _shown(value) -> str:
    """repr of value, a numpy scalar as the Python one it holds."""
    return repr(value.item() if isinstance(value, np.generic) else value)


def check_p(p) -> None:
    """ParamError unless p is 1 or 2; a bool is neither."""
    if isinstance(p, (bool, np.bool_)) or p not in (1, 2):
        raise ParamError(f"p must be 1 or 2, got {_shown(p)}")


def check_number(name: str, value) -> None:
    """ParamError unless value is a real number, numpy's too; a bool is none."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, Real):
        raise ParamError(f"{name} must be a number, got {_shown(value)}")


def real_array(name: str, value) -> np.ndarray:
    """value as a float64 array, converted as numpy converts it; ParamError
    naming the argument if numpy cannot (a string that is no number, a
    ragged list) or if it holds complex values."""
    try:
        array = np.asarray(value)
        if array.dtype.kind != "c":
            return array.astype(np.float64, copy=False)
    except (TypeError, ValueError) as err:
        raise ParamError(f"{name} must be real numbers: {err}") from None
    raise ParamError(f"{name} must be real numbers, got complex ones")


def check_objective(objective) -> None:
    """ParamError unless objective is "rawlsian" or "utilitarian"."""
    if objective not in ("rawlsian", "utilitarian"):
        raise ParamError(f"unknown objective {objective!r}")


@dataclass
class Params:
    """Objective parameters: exponent p, tradeoff lambda, k, slack vectors.

    k must be an integer (a bool is not one; numpy integers are) in [1, n].
    alpha[h] loosens the upper proportion bound for color h, beta[h] the lower
    one; both must be finite and nonnegative. lp_tolerance is how far the
    LP value may lie above its Lagrangian lower bound when pricing stops
    (see `lp.HighsSolver`), an absolute amount, and the slack by which a
    rounding gap may exceed its bound or fall below 0 before the run is
    flagged, relative to the LP value (`pipeline.gap_slack`). It must be
    finite and at least 1e-8, 10 times the feasibility tolerance HiGHS
    solves both LPs at (`_highs._FEASIBILITY`). `validate`
    checks these rules against an instance, and `check_centers` a center
    array: k finite centers in the instance's dimension.
    """

    k: int
    lam: float
    p: int = 2
    alpha: np.ndarray = field(default_factory=lambda: np.zeros(0))
    beta: np.ndarray = field(default_factory=lambda: np.zeros(0))
    lp_tolerance: float = LP_TOLERANCE

    def __post_init__(self):
        try:
            self.alpha = np.asarray(self.alpha, dtype=np.float64)
            self.beta = np.asarray(self.beta, dtype=np.float64)
        except (TypeError, ValueError) as err:
            raise ParamError(f"alpha and beta must be numbers: {err}") from None

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
        self.check_scalars(instance.n)
        if self.alpha.shape != (H,) or self.beta.shape != (H,):
            raise ParamError(
                f"alpha/beta must have one entry per color ({H}), "
                f"got {self.alpha.shape} / {self.beta.shape}"
            )
        bad = np.nonzero(~(np.isfinite(self.alpha) & np.isfinite(self.beta)))[0]
        if bad.size:
            h = int(bad[0])
            raise ParamError(
                f"alpha and beta must be finite, got {self.alpha[h]} / "
                f"{self.beta[h]} for color {instance.color_names[h]!r}"
            )
        if np.any(self.alpha < 0) or np.any(self.beta < 0):
            raise ParamError("alpha and beta must be nonnegative")
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

    def check_scalars(self, n: int) -> None:
        """`validate`'s rules for p, lam, k (against n points) and
        lp_tolerance; lam and lp_tolerance are numbers (`check_number`)."""
        check_p(self.p)
        check_number("lambda", self.lam)
        check_number("lp_tolerance", self.lp_tolerance)
        if not (0.0 <= self.lam <= 1.0):
            raise ParamError(f"lambda must lie in [0, 1], got {self.lam}")
        check_k(self.k, n)
        # pricing stops once the LP value is within lp_tolerance of a
        # Lagrangian bound that HiGHS's feasibility tolerance can put up to
        # about that much too high, so lp_tolerance keeps 10 times it
        tol = self.lp_tolerance
        if not (math.isfinite(tol) and tol >= 10 * _highs._FEASIBILITY):
            raise ParamError(
                f"lp_tolerance must be finite and at least 1e-8, got {tol}"
            )

    def check_centers(self, instance: Instance, centers: np.ndarray) -> np.ndarray:
        """centers as a float64 array (`real_array`); ParamError unless it
        holds k finite centers in the instance's dimension."""
        centers = real_array("centers", centers)
        want = (self.k, instance.dim)
        if centers.shape != want:
            raise ParamError(
                f"centers have shape {centers.shape}; need (k, dim) = {want}"
            )
        bad = np.argwhere(~np.isfinite(centers))
        if bad.size:
            i, c = (int(v) for v in bad[0])
            raise ParamError(
                f"coordinate {c} of center {i} is {centers[i, c]}, not finite"
            )
        return centers


@dataclass
class Solution:
    """Centers plus an integral assignment of every point to a center."""

    centers: np.ndarray
    assignment: np.ndarray

    def __post_init__(self):
        self.centers = np.asarray(self.centers, dtype=np.float64)
        self.assignment = np.asarray(self.assignment, dtype=np.int64)


def normalization_factor(
    instance: Instance,
    k_range: list[int],
    p: int = 2,
    mode: str = "rawlsian",
    seed: int = 0,
) -> float:
    """normalization_factors[mode] from one vanilla k-means run per k of
    k_range, lloyd(instance, k, ones, seed)."""
    from .centers import lloyd

    check_objective(mode)
    check_p(p)
    vanilla = [lloyd(instance, k, np.ones(instance.n), seed).centers for k in k_range]
    return normalization_factors(instance, vanilla, p)[mode]


def normalization_factors(
    instance: Instance, centers_by_k: list[np.ndarray], p: int = 2
) -> dict[str, float]:
    """Scale factors balancing distance and violation terms, for both modes:
    {"rawlsian": ..., "utilitarian": ...}.

    centers_by_k holds one vanilla k-means center set (k, dim) per k, each
    checked as a set-up checks its centers (`Params.validate` and
    `Params.check_centers`), and each point goes to its nearest
    center (`metrics.nearest`). The factor for that k is
    distance numerator / violation denominator with alpha = beta = 0, and
    the result is the mean over the sets. The numerator of "rawlsian" is
    the overall mean of d^p, that of "utilitarian" the sum over colors of
    per-color average d^p. A mean of 0, every point on its center at every
    k, leaves no distance scale and raises DataError; p is checked by
    `check_p`.
    """
    from . import metrics as _metrics

    check_p(p)
    if len(centers_by_k) == 0:
        raise ParamError("need the vanilla centers of at least one k")
    factors: dict[str, list[float]] = {"rawlsian": [], "utilitarian": []}
    for centers in centers_by_k:
        centers = real_array("centers", centers)
        k = len(centers) if centers.ndim else 0
        params0 = Params.with_delta(instance, k, 0.0, p=p)
        params0.validate(instance)
        params0.check_centers(instance, centers)
        dist = _metrics.pairwise_pow(centers, instance.features, p)
        rep = _metrics.report_from_distances(
            instance, params0, dist.T, _metrics.nearest(dist)[0]
        )
        # U at lambda = 0 is sum_h V_h / n_h
        den = rep.U
        if den <= 0.0:
            raise DataError(
                f"k={k}: violation denominator is zero; instance is exactly balanced"
            )
        factors["rawlsian"].append(rep.cost / instance.n / den)
        factors["utilitarian"].append(float((rep.D / instance.counts).sum()) / den)
    means = {mode: float(np.mean(f)) for mode, f in factors.items()}
    if 0.0 in means.values():
        raise DataError(
            "vanilla k-means cost is zero; no distance scale to normalize by"
        )
    return means


def apply_normalization(instance: Instance, factor: float, p: int = 2) -> Instance:
    """Divide coordinates by factor^(1/p), so that every d^p divides by factor;
    p is checked by `check_p`."""
    check_p(p)
    check_number("normalization factor", factor)
    if not (factor > 0.0) or not math.isfinite(factor):
        raise ParamError(f"normalization factor must be positive finite, got {factor}")
    return Instance(
        instance.features / (math.sqrt(factor) if p == 2 else factor ** (1.0 / p)),
        instance.colors.copy(),
        list(instance.color_names),
    )
