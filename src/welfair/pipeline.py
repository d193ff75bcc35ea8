"""End-to-end algorithms and baselines."""

from __future__ import annotations

import math
import time
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import centers as centers_mod
from . import lp as lp_mod
from . import model as model_mod
from . import rounding as rounding_mod
from .errors import ParamError
from .metrics import GroupReport, additive_constants, report_from_distances
from .model import (
    LP_TOLERANCE, Instance, Params, Solution, check_int, check_number,
    check_objective,
)


@dataclass
class RunResult:
    method: str
    params: Params
    seed: int
    solution: Solution
    report: GroupReport
    lp_objective: float = float("nan")
    gap: float = float("nan")
    gap_bound: float = float("nan")
    timings: dict = field(default_factory=dict)
    flags: list[str] = field(default_factory=list)

    @property
    def objective_value(self) -> float:
        """The score of the objective the method optimizes: R for
        RawlsianAlg, U for UtilitarianAlg, NaN for a baseline, which
        optimizes none."""
        for objective, method in ALGORITHMS.items():
            if self.method == method:
                return score(self.report, objective)
        return float("nan")


# the center heuristic each objective's algorithm starts from
CENTER_METHODS = {"rawlsian": "socially_fair", "utilitarian": "weighted"}
# the method name of each objective's algorithm
ALGORITHMS = {"rawlsian": "RawlsianAlg", "utilitarian": "UtilitarianAlg"}
# the flag of a run whose rounding gap broke its additive bound by more than
# its `gap_slack`, and of one whose LP value lies above its rounded value by
# more than it (the rounded assignment is a point of the LP, so that shows a
# fault); results.csv's flags column is the one record of either
GAP_FLAG = "gap_bound_exceeded"
LP_FLAG = "lp_above_rounded"
# the k and lambda values `sweep` runs by default
K_RANGE = tuple(range(4, 16))
LAMBDAS = tuple(round(0.1 * i, 1) for i in range(1, 10))


def gap_slack(params: Params, lp_value: float) -> float:
    """How far a rounded value may lie above the LP value plus the additive
    bound, or below the LP value, before the run is flagged: lp_tolerance
    times the LP value's size, or lp_tolerance itself where that size is
    below 1. Float rounding alone once put an LP value of 1.3e10 7.6e-6
    above its rounded value."""
    return params.lp_tolerance * max(1.0, abs(lp_value))


def score(report: GroupReport, objective: str) -> float:
    """The value objective scores report by: R, the worst group's
    disutility, for rawlsian; U, their sum, for utilitarian."""
    return report.R if objective == "rawlsian" else report.U


def _center_set(
    instance: Instance,
    params: Params,
    method: str,
    seed: int,
    restarts: int,
    center_set: centers_mod.CenterSet | None,
    setup: lp_mod.LPSetup | None,
) -> np.ndarray:
    """The run's centers: center_set's, left to the `LPSetup` the run is
    given or builds to check; else setup's; else those of the best of
    restarts of method (looked up on `centers` at call time) after
    params.validate."""
    if center_set is not None:
        return center_set.centers
    if setup is not None:
        return setup.centers
    params.validate(instance)
    return centers_mod.best_of_restarts(
        instance, params.k, method, restarts, seed
    ).centers


def _lp_pipeline(
    instance: Instance,
    params: Params,
    seed: int,
    restarts: int,
    kind: str,
    center_set: centers_mod.CenterSet | None,
    setup: lp_mod.LPSetup | None,
) -> RunResult:
    """Centers, the LP of kind on setup (the builder makes one if it is
    None), its rounding and the gap check. The builder, the solve and the
    rounder are looked up on their modules at call time."""
    rawlsian = kind == "rawlsian"
    t0 = time.perf_counter()
    centers = _center_set(
        instance, params, CENTER_METHODS[kind], seed, restarts, center_set, setup
    )
    t1 = time.perf_counter()
    build = lp_mod.build_rawlsian_lp if rawlsian else lp_mod.build_utilitarian_lp
    model = build(instance, params, centers, setup=setup)
    frac = lp_mod.solve_lp(model)
    t2 = time.perf_counter()
    rounder = rounding_mod.rawlsian_round if rawlsian else rounding_mod.utilitarian_round
    integral = rounder(frac.x, instance, params, model.setup.dist_t.T, frac.mass)
    t3 = time.perf_counter()
    solution = Solution(centers, integral.assignment)
    report = integral.report
    c_r, c_u = additive_constants(instance, params)
    bound = (1.0 - params.lam) * (c_r if rawlsian else c_u)
    gap = score(report, kind) - frac.objective
    tol = gap_slack(params, frac.objective)
    flags = [GAP_FLAG] if gap > bound + tol else [LP_FLAG] if gap < -tol else []
    return RunResult(
        method=ALGORITHMS[kind],
        params=params,
        seed=seed,
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
    )


def rawlsian_alg(
    instance: Instance,
    params: Params,
    seed: int = 0,
    restarts: int = 10,
    center_set: centers_mod.CenterSet | None = None,
    setup: lp_mod.LPSetup | None = None,
) -> RunResult:
    """Socially-fair centers, min-max LP, rounding of each (cluster, color)
    mass. setup, an `lp.LPSetup` of instance and params built for the
    "rawlsian" LP, is what the LP of every lambda shares and gives the run
    its centers (a center_set given too must hold them); without it the
    call builds its own."""
    return _lp_pipeline(
        instance, params, seed, restarts, "rawlsian", center_set, setup
    )


def utilitarian_alg(
    instance: Instance,
    params: Params,
    seed: int = 0,
    restarts: int = 10,
    center_set: centers_mod.CenterSet | None = None,
    setup: lp_mod.LPSetup | None = None,
) -> RunResult:
    """Weighted-Lloyd centers, sum LP, rounding of the masses and cluster
    sizes; setup as for `rawlsian_alg`, built for the "utilitarian" LP."""
    return _lp_pipeline(
        instance, params, seed, restarts, "utilitarian", center_set, setup
    )


def evaluate_baseline(
    instance: Instance,
    params: Params,
    method: str,
    seed: int = 0,
    restarts: int = 10,
    center_set: centers_mod.CenterSet | None = None,
    setup: lp_mod.LPSetup | None = None,
) -> RunResult:
    """Cluster with a center heuristic and nearest assignment, then report.
    The centers, distances and nearest centers come from setup, an
    `lp.LPSetup` of instance and params (center_set, if given too, must
    hold its centers), or from one the call builds."""
    if method not in centers_mod.METHODS:
        raise ParamError(f"method must be one of {centers_mod.METHODS}, got {method!r}")
    t0 = time.perf_counter()
    centers = _center_set(instance, params, method, seed, restarts, center_set, setup)
    if setup is None:
        setup = lp_mod.LPSetup(instance, params, centers)
    else:
        setup.check(instance, params, centers)
    t1 = time.perf_counter()
    solution = Solution(centers, setup.near.copy())
    report = report_from_distances(instance, params, setup.dist_t.T, setup.near)
    return RunResult(
        method=method,
        params=params,
        seed=seed,
        solution=solution,
        report=report,
        timings={"centers": t1 - t0, "lp": 0.0, "round": 0.0, "total": t1 - t0},
    )


def check_sweep(objective, k_range, lambdas, delta, restarts, seed, normalize, **rest):
    """Reject `sweep` settings that would fail only deep inside the run; the
    rest are `Params.validate`'s to check once there is an instance."""
    if objective not in (*CENTER_METHODS, "both"):
        raise ParamError(
            f"objective must be rawlsian, utilitarian or both, got {objective!r}"
        )
    if len(k_range) == 0:
        raise ParamError("k range is empty")
    for k in k_range:
        check_int("k", k, 1)
    check_int("restarts", restarts, 1)
    check_int("seed", seed, 0)
    if not isinstance(normalize, bool):
        raise ParamError(f"normalize must be True or False, got {normalize!r}")
    check_number("delta", delta)
    if not math.isfinite(delta):
        raise ParamError(f"delta must be finite, got {delta}")
    if delta < 0:
        raise ParamError(
            f"delta must be at least 0, got {delta}: alpha and beta "
            "must be nonnegative, and alpha_h = beta_h = delta * r_h"
        )
    if len(lambdas) == 0:
        raise ParamError("lambda list is empty")
    for lam in lambdas:
        check_number("lambda", lam)
        if not 0.0 <= lam <= 1.0:
            raise ParamError(f"lambda must lie in [0, 1], got {lam}")
    # a repeated value would run its cells twice
    for name, values in (("k", k_range), ("lambda", lambdas)):
        repeat = next((v for i, v in enumerate(values) if v in values[:i]), None)
        if repeat is not None:
            raise ParamError(f"{name} {repeat} appears more than once in the sweep")


def sweep(
    instance: Instance,
    *,
    objective: str = "both",
    k_range: Sequence[int] = K_RANGE,
    lambdas: Sequence[float] = LAMBDAS,
    delta: float = 0.01,
    p: int = 2,
    restarts: int = 10,
    seed: int = 0,
    lp_tolerance: float = LP_TOLERANCE,
    normalize: bool = True,
) -> tuple[dict[str, float], list[tuple[str, list[RunResult]]]]:
    """The paper's experiment on instance: one cell per objective ("both"
    is rawlsian, then utilitarian), k and lambda, in that order. A cell runs
    the objective's algorithm, then `evaluate_baseline` for each of
    `centers.METHODS`, all looked up on this module at call time. Returns
    each objective's normalization factor (NaN without normalize) and the
    cells as (objective, [the algorithm's result, then the baselines']).
    Every setting is checked before any centers are computed."""
    check_sweep(objective, k_range, lambdas, delta, restarts, seed, normalize)
    # normalization keeps the colors, so each (k, lambda)'s Params serves
    # every objective
    params = {}
    for k in k_range:
        for lam in lambdas:
            # Python numbers, so array arguments give what equal lists do
            params[k, lam] = Params.with_delta(
                instance, int(k), float(lam), delta, p, lp_tolerance
            )
            params[k, lam].validate(instance)
    objectives = list(CENTER_METHODS) if objective == "both" else [objective]
    # each k's center sets, computed once on the raw data; our method's
    # centers, CENTER_METHODS[obj], are one of them. The vanilla sets'
    # first restarts give the factors, so a zero one fails first
    def center_set(k, method):
        return centers_mod.best_of_restarts(instance, k, method, restarts, seed)

    vanilla = {k: center_set(k, "vanilla") for k in k_range}
    factors = dict.fromkeys(objectives, math.nan)
    if normalize:
        both = model_mod.normalization_factors(
            instance, [vanilla[k].first_centers for k in k_range], p
        )
        factors = {obj: both[obj] for obj in objectives}
    center_sets = {
        k: {"vanilla": vanilla[k]}
        | {m: center_set(k, m) for m in centers_mod.METHODS[1:]}
        for k in k_range
    }
    cells = []
    for obj, f in factors.items():
        inst, scale = instance, 1.0
        if normalize:
            # every d^p of inst is the raw one divided by f, and the
            # heuristics are scale-equivariant, so its center sets are the raw
            # ones times f^(-1/p)
            inst = model_mod.apply_normalization(instance, f, p)
            scale = math.sqrt(1.0 / f) if p == 2 else 1.0 / f
        ours = CENTER_METHODS[obj]
        alg = rawlsian_alg if obj == "rawlsian" else utilitarian_alg
        for k in k_range:
            # each center set's LP set-up, the algorithm's built for its LP,
            # is shared by every lambda's cell, so a cell does only lambda's
            # work; it is dropped before the next k's are built
            setups = {
                m: lp_mod.LPSetup(
                    inst, params[k, lambdas[0]], cs.centers * scale,
                    obj if m == ours else None,
                )
                for m, cs in center_sets[k].items()
            }
            for lam in lambdas:
                results = [alg(inst, params[k, lam], seed=seed, setup=setups[ours])]
                results += [
                    evaluate_baseline(inst, params[k, lam], m, seed=seed, setup=s)
                    for m, s in setups.items()
                ]
                cells.append((obj, results))
            del setups
    return factors, cells


@dataclass
class DominanceReport:
    all_dominated: bool


def dominance_check(results: list[RunResult], objective: str) -> DominanceReport:
    """Whether our method's objective value is at most every baseline's."""
    check_objective(objective)
    ours_name = ALGORITHMS[objective]
    ours = [r for r in results if r.method == ours_name]
    if len(ours) != 1:
        raise ParamError(f"need exactly one {ours_name} result, got {len(ours)}")
    ours_val = score(ours[0].report, objective)
    others = (score(r.report, objective) for r in results if r.method != ours_name)
    return DominanceReport(all(ours_val <= v for v in others))
