"""Rounding of fractional assignments by a transportation LP.

A point whose LP column has a single positive entry can only go to that
center, so it is fixed first; an LP vertex leaves few other points. Those
are rounded by one LP with a variable per positive x entry, costing
d^p / n_h: each point's variables sum to 1, each (cluster, color) mass, and
for the sum objective each cluster size, stays within the floor/ceil of its
fractional mass less the fixed points it already holds. The constraint
matrix is totally unimodular, so the HiGHS vertex is integral; both rounders
check that and the floor/ceil masses at the end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _highs
from .errors import InternalInvariantError, ParamError
from .lp import COLUMN_SUM_TOL
from .metrics import GroupReport, report_from_distances
from .model import Instance, Params

_MASS_EPS = 1e-9
# largest distance of a rounded LP entry from an integer
_INTEGRAL_EPS = 1e-6


def _floor_ceil(v):
    """Floor and ceil of a mass, or of each mass in an array; a mass within
    _MASS_EPS of an integer is that integer."""
    v = np.asarray(v, dtype=np.float64)
    r = np.round(v)
    v = np.where(np.abs(v - r) <= _MASS_EPS, r, v)
    return np.floor(v).astype(np.int64), np.ceil(v).astype(np.int64)


@dataclass
class IntegralAssignment:
    assignment: np.ndarray
    color_mass: np.ndarray
    report: GroupReport      # the welfare report of assignment


def _check_within(
    got: np.ndarray, lo: np.ndarray, hi: np.ndarray, what: str
) -> None:
    """Raise unless every rounded mass lies in the floor/ceil of the LP's."""
    bad = np.argwhere((got < lo) | (got > hi))
    if len(bad):
        idx = tuple(int(v) for v in bad[0])
        raise InternalInvariantError(
            f"rounded {what} {idx} is {int(got[idx])}, outside "
            f"[{int(lo[idx])}, {int(hi[idx])}] of the fractional mass"
        )


def _round(
    xfrac: np.ndarray,
    instance: Instance,
    params: Params,
    dist_pow: np.ndarray,
    mass: np.ndarray,
    joint: bool,
) -> IntegralAssignment:
    """Fix the points with one positive x entry, round the rest by the
    transportation LP, then check the masses of the result; joint adds the
    cluster-size rows and their check. ParamError unless xfrac is a (k, n)
    fractional assignment, finite and nonnegative with every column summing
    to 1, dist_pow its (n, k) d^p and mass its (k, H) masses."""
    k, n, H = params.k, instance.n, instance.num_colors
    for name, value, shape in (
        ("xfrac", xfrac, (k, n)),
        ("dist_pow", dist_pow, (n, k)),
        ("mass", mass, (k, H)),
    ):
        if np.shape(value) != shape:
            raise ParamError(f"{name} must have shape {shape}, got {np.shape(value)}")
    # a NaN fails both comparisons, and an infinity one of them
    if not xfrac.min(initial=0.0) >= 0.0:
        raise ParamError("xfrac must be finite and nonnegative")
    sum_off = np.abs(xfrac.sum(axis=0) - 1.0).max(initial=0.0)
    if not sum_off <= COLUMN_SUM_TOL:
        raise ParamError(
            f"every xfrac column must sum to 1, one is off by {sum_off:g}"
        )
    positive = xfrac > 0.0
    # per point: its number of positive entries, and the sum of their
    # centers, the center itself at a point with one
    count, center = np.stack([np.ones(k), np.arange(k)]) @ positive
    fixed = count == 1
    assignment = np.where(fixed, center.astype(np.int64), -1)
    frac = np.flatnonzero(~fixed)
    col_lo, col_hi = _floor_ceil(mass)
    clu_lo, clu_hi = _floor_ceil(xfrac.sum(axis=1))
    m = len(frac)
    if m:
        col_fixed = np.bincount(
            assignment[fixed] * H + instance.colors[fixed], minlength=k * H
        ).reshape(k, H)
        # one variable per positive entry, in (center, point) order
        centers, local = np.nonzero(positive[:, frac])
        pts = frac[local]
        colors = instance.colors[pts]
        rows = [local, m + centers * H + colors]
        lo = [np.ones(m), (col_lo - col_fixed).ravel()]
        hi = [np.ones(m), (col_hi - col_fixed).ravel()]
        if joint:
            clu_fixed = col_fixed.sum(axis=1)
            rows.append(m + k * H + centers)
            lo.append(clu_lo - clu_fixed)
            hi.append(clu_hi - clu_fixed)
        # each variable's rows, ascending: one CSC column per variable
        rows = np.stack(rows, axis=1)
        lp = _highs.LP(
            cost=dist_pow[pts, centers] / instance.counts[colors],
            start=np.arange(0, rows.size + 1, rows.shape[1]),
            index=rows.ravel(),
            value=np.ones(rows.size),
            col_lower=np.zeros(len(pts)),
            col_upper=np.ones(len(pts)),
            row_lower=np.concatenate(lo),
            row_upper=np.concatenate(hi),
        )
        # x itself satisfies every row, so a failed solve is an
        # InternalInvariantError
        res = _highs.solve(lp)
        off = np.abs(res.x - np.round(res.x)).max()
        if off > _INTEGRAL_EPS:
            raise InternalInvariantError(
                f"rounding LP vertex is {off:g} away from integral"
            )
        use = res.x > 0.5
        assignment[pts[use]] = centers[use]
    if np.any(assignment < 0):
        raise InternalInvariantError("point left unassigned by rounding")
    color_mass = np.bincount(
        assignment * H + instance.colors, minlength=k * H
    ).reshape(k, H)
    _check_within(color_mass, col_lo, col_hi, "(cluster, color) mass")
    if joint:
        _check_within(color_mass.sum(axis=1), clu_lo, clu_hi, "cluster size")
    report = report_from_distances(instance, params, dist_pow, assignment)
    return IntegralAssignment(assignment, color_mass, report)


def rawlsian_round(
    xfrac: np.ndarray,
    instance: Instance,
    params: Params,
    dist_pow: np.ndarray,
    mass: np.ndarray,
) -> IntegralAssignment:
    """Round keeping each (cluster, color) mass; the colors share no row, so
    one LP rounds each of them optimally. xfrac is the LP's (k, n)
    assignment, dist_pow its (n, k) d^p, and mass xfrac's (k, H)
    (cluster, color) masses, `metrics.color_masses` of it, as `lp.solve_lp`
    returns them."""
    return _round(xfrac, instance, params, dist_pow, mass, joint=False)


def utilitarian_round(
    xfrac: np.ndarray,
    instance: Instance,
    params: Params,
    dist_pow: np.ndarray,
    mass: np.ndarray,
) -> IntegralAssignment:
    """Round all colors jointly, preserving cluster sizes within floor/ceil;
    the arguments as for `rawlsian_round`."""
    return _round(xfrac, instance, params, dist_pow, mass, joint=True)
