"""Rounding of fractional assignments by a transportation LP.

A point whose LP column has a single positive entry can only go to that
center, so it is fixed first (`split_support`); an LP vertex leaves few other
points. Those are rounded by one LP with a variable per positive x entry,
costing d^p / n_h: each point's variables sum to 1, each (cluster, color)
mass, and for the sum objective each cluster size, stays within the floor/ceil
of its fractional mass less the fixed points it already holds. The constraint
matrix is totally unimodular, so the HiGHS vertex is integral; both rounders
check that and the floor/ceil masses at the end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _highs
from .errors import InternalInvariantError
from .metrics import GroupReport, report_from_distances
from .model import Instance, Params

_MASS_EPS = 1e-9
# largest distance of a rounded LP entry from an integer
_INTEGRAL_EPS = 1e-6


def snap_mass(v):
    """A mass within _MASS_EPS of an integer as that integer (elementwise)."""
    v = np.asarray(v, dtype=np.float64)
    r = np.round(v)
    return np.where(np.abs(v - r) <= _MASS_EPS, r, v)


def _floor_ceil(v):
    """Floor and ceil of a snapped mass, or of each mass in an array."""
    s = snap_mass(v)
    return np.floor(s).astype(np.int64), np.ceil(s).astype(np.int64)


@dataclass
class IntegralAssignment:
    assignment: np.ndarray
    color_mass: np.ndarray
    report: GroupReport      # the welfare report of assignment


@dataclass
class Support:
    """An LP vertex split for rounding: the points it fixes, the fractional
    rest, and the floor/ceil of every mass the rounding keeps."""

    assignment: np.ndarray   # (n,) center of each fixed point, -1 if fractional
    frac: np.ndarray         # ids of the fractional points, ascending
    col_lo: np.ndarray       # (k, H) floor of each (cluster, color) mass
    col_hi: np.ndarray       # (k, H) ceil of each (cluster, color) mass
    clu_lo: np.ndarray       # (k,) floor of each cluster size
    clu_hi: np.ndarray       # (k,) ceil of each cluster size


def split_support(xfrac: np.ndarray, mass: np.ndarray) -> Support:
    """Fix every point whose x column has exactly one positive entry: the
    rounding LP has a single variable for it, which its row sets to 1. mass
    is xfrac's (k, H) (cluster, color) masses, `metrics.color_masses` of it,
    as `lp.solve_lp` returns them."""
    k = len(xfrac)
    # per point: its number of positive entries, and the sum of their
    # centers, the center itself at a point with one
    count, center = np.stack([np.ones(k), np.arange(k)]) @ (xfrac > 0.0)
    is_fixed = count == 1
    col_lo, col_hi = _floor_ceil(mass)
    clu_lo, clu_hi = _floor_ceil(xfrac.sum(axis=1))
    return Support(
        assignment=np.where(is_fixed, center.astype(np.int64), -1),
        frac=np.nonzero(~is_fixed)[0],
        col_lo=col_lo,
        col_hi=col_hi,
        clu_lo=clu_lo,
        clu_hi=clu_hi,
    )


def _solve_support(
    xfrac: np.ndarray,
    instance: Instance,
    dist_pow: np.ndarray,
    support: Support,
    joint: bool,
) -> np.ndarray:
    """Assignment of every point: the fixed ones from support, the fractional
    ones from the rounding LP, with cluster-size rows when joint."""
    assignment = support.assignment.copy()
    m = len(support.frac)
    if m == 0:
        return assignment
    k = xfrac.shape[0]
    H = instance.num_colors
    fixed = assignment >= 0
    col_fixed = np.bincount(
        assignment[fixed] * H + instance.colors[fixed], minlength=k * H
    ).reshape(k, H)
    # one variable per positive entry, in (center, point) order
    centers, local = np.nonzero(xfrac[:, support.frac] > 0.0)
    pts = support.frac[local]
    colors = instance.colors[pts]
    rows = [local, m + centers * H + colors]
    lo = [np.ones(m), (support.col_lo - col_fixed).ravel()]
    hi = [np.ones(m), (support.col_hi - col_fixed).ravel()]
    if joint:
        clu_fixed = col_fixed.sum(axis=1)
        rows.append(m + k * H + centers)
        lo.append(support.clu_lo - clu_fixed)
        hi.append(support.clu_hi - clu_fixed)
    lo, hi = np.concatenate(lo), np.concatenate(hi)
    # each variable's rows, ascending: one CSC column per variable
    rows = np.stack(rows, axis=1)
    lp = _highs.LP(
        cost=dist_pow[pts, centers] / instance.counts[colors],
        start=np.arange(0, rows.size + 1, rows.shape[1]),
        index=rows.ravel(),
        value=np.ones(rows.size),
        col_lower=np.zeros(len(pts)),
        col_upper=np.ones(len(pts)),
        row_lower=lo,
        row_upper=hi,
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
    return assignment


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
    """Split, solve the rounding LP, then check the masses of the result;
    joint adds the cluster-size rows and their check."""
    support = split_support(xfrac, mass)
    assignment = _solve_support(xfrac, instance, dist_pow, support, joint)
    if np.any(assignment < 0):
        raise InternalInvariantError("point left unassigned by rounding")
    k = params.k
    H = instance.num_colors
    color_mass = np.bincount(
        assignment * H + instance.colors, minlength=k * H
    ).reshape(k, H)
    _check_within(color_mass, support.col_lo, support.col_hi, "(cluster, color) mass")
    if joint:
        _check_within(
            color_mass.sum(axis=1), support.clu_lo, support.clu_hi, "cluster size"
        )
    report = report_from_distances(instance, params, dist_pow, assignment)
    return IntegralAssignment(
        assignment=assignment,
        color_mass=color_mass,
        report=report,
    )


def rawlsian_round(
    xfrac: np.ndarray,
    instance: Instance,
    params: Params,
    dist_pow: np.ndarray,
    mass: np.ndarray,
) -> IntegralAssignment:
    """Round keeping each (cluster, color) mass; the colors share no row, so
    one LP rounds each of them optimally. mass is xfrac's (k, H) masses
    (`split_support`)."""
    return _round(xfrac, instance, params, dist_pow, mass, joint=False)


def utilitarian_round(
    xfrac: np.ndarray,
    instance: Instance,
    params: Params,
    dist_pow: np.ndarray,
    mass: np.ndarray,
) -> IntegralAssignment:
    """Round all colors jointly, preserving cluster sizes within floor/ceil;
    mass as for `rawlsian_round`."""
    return _round(xfrac, instance, params, dist_pow, mass, joint=True)
