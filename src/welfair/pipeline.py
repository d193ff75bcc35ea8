"""End-to-end algorithms and baselines."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import centers as centers_mod
from . import lp as lp_mod
from . import rounding as rounding_mod
from .metrics import (
    GroupReport,
    additive_constants,
    pairwise_pow,
    report_from_distances,
)
from .model import Instance, Params, Solution


@dataclass
class RunResult:
    method: str
    params: Params
    seed: int
    center_provenance: str
    solution: Solution
    report: GroupReport
    lp_objective: float = float("nan")
    gap: float = float("nan")
    gap_bound: float = float("nan")
    timings: dict = field(default_factory=dict)
    flags: list[str] = field(default_factory=list)
    norm_factor: float = float("nan")
    lp_status: str = ""

    @property
    def objective_value(self) -> float:
        return self.report.R if self.method != "UtilitarianAlg" else self.report.U


def exceeds_gap_bound(gap: float, bound: float, tolerance: float) -> bool:
    """The rounding gap broke its additive bound by more than the LP tolerance."""
    return gap > bound + tolerance


def _lp_pipeline(
    instance: Instance,
    params: Params,
    seed: int,
    restarts: int,
    kind: str,
    center_method: str,
    lp_builder,
    rounder,
    center_set: centers_mod.CenterSet | None = None,
) -> RunResult:
    params.validate(instance)
    t0 = time.perf_counter()
    cs = center_set or centers_mod.best_of_restarts(
        instance, params.k, center_method, restarts, seed
    )
    t1 = time.perf_counter()
    dist_pow = pairwise_pow(instance.features, cs.centers, params.p)
    model = lp_builder(instance, params, cs.centers, dist_pow)
    frac = lp_mod.solve_lp(model)
    t2 = time.perf_counter()
    integral = rounder(frac.x, instance, params, dist_pow)
    t3 = time.perf_counter()
    solution = Solution(cs.centers, integral.assignment, provenance=cs.provenance)
    report = integral.report
    c_r, c_u = additive_constants(instance, params)
    bound = (1.0 - params.lam) * (c_r if kind == "rawlsian" else c_u)
    value = report.R if kind == "rawlsian" else report.U
    gap = value - frac.objective
    flags = []
    if exceeds_gap_bound(gap, bound, params.lp_tolerance):
        flags.append("gap_bound_exceeded")
    return RunResult(
        method="RawlsianAlg" if kind == "rawlsian" else "UtilitarianAlg",
        params=params,
        seed=seed,
        center_provenance=cs.provenance,
        solution=solution,
        report=report,
        lp_objective=frac.objective,
        gap=gap,
        gap_bound=bound,
        timings={
            "centers": t1 - t0,
            "lp": t2 - t1,
            "round": t3 - t2,
            "total": t3 - t0,
        },
        flags=flags,
        lp_status=frac.status,
    )


def rawlsian_alg(
    instance: Instance,
    params: Params,
    seed: int = 0,
    restarts: int = 10,
    center_set: centers_mod.CenterSet | None = None,
) -> RunResult:
    """Socially-fair centers, min-max LP, rounding of each (cluster, color) mass."""
    return _lp_pipeline(
        instance,
        params,
        seed,
        restarts,
        "rawlsian",
        "socially_fair",
        lp_mod.build_rawlsian_lp,
        rounding_mod.rawlsian_round,
        center_set=center_set,
    )


def utilitarian_alg(
    instance: Instance,
    params: Params,
    seed: int = 0,
    restarts: int = 10,
    center_set: centers_mod.CenterSet | None = None,
) -> RunResult:
    """Weighted-Lloyd centers, sum LP, rounding of the masses and cluster sizes."""
    return _lp_pipeline(
        instance,
        params,
        seed,
        restarts,
        "utilitarian",
        "weighted",
        lp_mod.build_utilitarian_lp,
        rounding_mod.utilitarian_round,
        center_set=center_set,
    )


_BASELINES = ("vanilla", "weighted", "socially_fair")


def evaluate_baseline(
    instance: Instance,
    params: Params,
    method: str,
    seed: int = 0,
    restarts: int = 10,
    center_set: centers_mod.CenterSet | None = None,
) -> RunResult:
    """Cluster with a center heuristic and nearest assignment, then report."""
    if method not in _BASELINES:
        raise ValueError(f"method must be one of {_BASELINES}, got {method!r}")
    params.validate(instance)
    t0 = time.perf_counter()
    cs = center_set or centers_mod.best_of_restarts(
        instance, params.k, method, restarts, seed
    )
    dist = pairwise_pow(instance.features, cs.centers, params.p)
    assignment = np.argmin(dist, axis=1)
    t1 = time.perf_counter()
    solution = Solution(cs.centers, assignment, provenance=cs.provenance)
    report = report_from_distances(instance, params, dist, assignment)
    return RunResult(
        method=method,
        params=params,
        seed=seed,
        center_provenance=cs.provenance,
        solution=solution,
        report=report,
        timings={"centers": t1 - t0, "lp": 0.0, "round": 0.0, "total": t1 - t0},
    )


@dataclass
class DominanceReport:
    objective: str
    rows: list[tuple[str, float]]
    dominated: dict[str, bool]
    all_dominated: bool


def dominance_check(results: list[RunResult], objective: str) -> DominanceReport:
    """Compare our method's objective value against every baseline's."""
    if objective not in ("rawlsian", "utilitarian"):
        raise ValueError(f"unknown objective {objective!r}")
    ours_name = "RawlsianAlg" if objective == "rawlsian" else "UtilitarianAlg"

    def value(res: RunResult) -> float:
        return res.report.R if objective == "rawlsian" else res.report.U

    ours = [r for r in results if r.method == ours_name]
    if len(ours) != 1:
        raise ValueError(f"need exactly one {ours_name} result, got {len(ours)}")
    rows = [(r.method, value(r)) for r in results]
    ours_val = value(ours[0])
    dominated = {
        r.method: bool(ours_val <= value(r))
        for r in results
        if r.method != ours_name
    }
    return DominanceReport(
        objective=objective,
        rows=rows,
        dominated=dominated,
        all_dominated=all(dominated.values()) if dominated else True,
    )
