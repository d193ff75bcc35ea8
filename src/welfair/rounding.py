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
import scipy.sparse as sp

from .errors import InternalInvariantError
from .metrics import GroupReport, color_masses, report_from_distances
from .model import Instance, Params

_MASS_EPS = 1e-9
# largest distance of a rounded LP entry from an integer
_INTEGRAL_EPS = 1e-6


def snap_mass(v, eps: float = _MASS_EPS):
    """Treat a mass within eps of an integer as that integer (elementwise)."""
    v = np.asarray(v, dtype=np.float64)
    r = np.round(v)
    return np.where(np.abs(v - r) <= eps, r, v)


def _floor_ceil(v):
    """Floor and ceil of a snapped mass, or of each mass in an array."""
    s = snap_mass(v)
    return np.floor(s).astype(np.int64), np.ceil(s).astype(np.int64)


@dataclass
class IntegralAssignment:
    assignment: np.ndarray
    color_mass: np.ndarray
    cluster_sizes: np.ndarray
    objective: float
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


def split_support(xfrac: np.ndarray, instance: Instance) -> Support:
    """Fix every point whose x column has exactly one positive entry: the
    rounding LP has a single variable for it, which its row sets to 1."""
    pos = xfrac > 0.0
    is_fixed = np.count_nonzero(pos, axis=0) == 1
    col_lo, col_hi = _floor_ceil(color_masses(xfrac, instance))
    clu_lo, clu_hi = _floor_ceil(xfrac.sum(axis=1))
    return Support(
        assignment=np.where(is_fixed, pos.argmax(axis=0), -1),
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
    from scipy.optimize import Bounds, LinearConstraint, milp

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
    A = sp.csc_matrix(
        (
            np.ones(rows.size),
            rows.ravel(),
            np.arange(0, rows.size + 1, rows.shape[1]),
        ),
        shape=(len(lo), len(pts)),
    )
    res = milp(
        dist_pow[pts, centers] / instance.counts[colors],
        constraints=LinearConstraint(A, lo, hi),
        bounds=Bounds(0.0, 1.0),
        # HiGHS's presolve ended some of these LPs with model status Unknown
        options={"presolve": False},
    )
    # x itself satisfies every row, so the LP cannot be infeasible
    if res.status != 0:
        raise InternalInvariantError(f"rounding LP failed: {res.message}")
    off = np.abs(res.x - np.round(res.x)).max()
    if off > _INTEGRAL_EPS:
        raise InternalInvariantError(
            f"rounding LP vertex is {off:g} away from integral"
        )
    use = res.x > 0.5
    assignment[pts[use]] = centers[use]
    return assignment


def _extract(
    assignment: np.ndarray,
    instance: Instance,
    params: Params,
    dist_pow: np.ndarray,
    kind: str,
) -> IntegralAssignment:
    """Masses, report and objective of a rounded assignment (-1 marks a point
    the rounding left out)."""
    k = params.k
    H = instance.num_colors
    if np.any(assignment < 0):
        raise InternalInvariantError("point left unassigned by rounding")
    color_mass = np.bincount(
        assignment * H + instance.colors, minlength=k * H
    ).reshape(k, H)
    report = report_from_distances(instance, params, dist_pow, assignment)
    return IntegralAssignment(
        assignment=assignment,
        color_mass=color_mass,
        cluster_sizes=np.bincount(assignment, minlength=k),
        objective=report.R if kind == "rawlsian" else report.U,
        report=report,
    )


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


def rawlsian_round(
    xfrac: np.ndarray,
    instance: Instance,
    params: Params,
    dist_pow: np.ndarray,
) -> IntegralAssignment:
    """Round keeping each (cluster, color) mass; the colors share no row, so
    one LP rounds each of them optimally."""
    support = split_support(xfrac, instance)
    assignment = _solve_support(xfrac, instance, dist_pow, support, joint=False)
    out = _extract(assignment, instance, params, dist_pow, "rawlsian")
    _check_within(
        out.color_mass, support.col_lo, support.col_hi, "(cluster, color) mass"
    )
    return out


def utilitarian_round(
    xfrac: np.ndarray,
    instance: Instance,
    params: Params,
    dist_pow: np.ndarray,
) -> IntegralAssignment:
    """Round all colors jointly, preserving cluster sizes within floor/ceil."""
    support = split_support(xfrac, instance)
    assignment = _solve_support(xfrac, instance, dist_pow, support, joint=True)
    out = _extract(assignment, instance, params, dist_pow, "utilitarian")
    _check_within(
        out.color_mass, support.col_lo, support.col_hi, "(cluster, color) mass"
    )
    _check_within(out.cluster_sizes, support.clu_lo, support.clu_hi, "cluster size")
    return out
