"""Welfare-centric fair clustering.

Clusters points carrying group labels under two welfare objectives: the
min-max (worst-off group) objective and the sum-of-group-disutilities
objective, where each group's disutility blends clustering cost with
proportion violations. Provides center heuristics, an assignment LP solved
with HiGHS, rounding of its fractional points by a transportation LP with
additive guarantees, and an experiment harness with a CLI.
"""

from .centers import CenterSet, best_of_restarts, kmeanspp_init, lloyd, socially_fair_centers
from .errors import DataError, InternalInvariantError, ParamError, WelfairError
from .lp import (
    FractionalSolution,
    LPModel,
    LPSetup,
    brute_force_assignment,
    build_rawlsian_lp,
    build_utilitarian_lp,
    solve_lp,
)
from .metrics import GroupReport, additive_constants, pairwise_pow
from .model import (
    Instance,
    Params,
    Solution,
    apply_normalization,
    load_instance,
    normalization_factor,
    normalization_factors,
)
from .pipeline import (
    DominanceReport,
    RunResult,
    dominance_check,
    evaluate_baseline,
    rawlsian_alg,
    sweep,
    utilitarian_alg,
)
from .rounding import IntegralAssignment, rawlsian_round, utilitarian_round

__version__ = "0.1.0"

__all__ = [
    "CenterSet",
    "DataError",
    "DominanceReport",
    "FractionalSolution",
    "GroupReport",
    "Instance",
    "IntegralAssignment",
    "InternalInvariantError",
    "LPModel",
    "LPSetup",
    "ParamError",
    "Params",
    "RunResult",
    "Solution",
    "WelfairError",
    "additive_constants",
    "apply_normalization",
    "best_of_restarts",
    "brute_force_assignment",
    "build_rawlsian_lp",
    "build_utilitarian_lp",
    "dominance_check",
    "evaluate_baseline",
    "kmeanspp_init",
    "lloyd",
    "load_instance",
    "normalization_factor",
    "normalization_factors",
    "pairwise_pow",
    "rawlsian_alg",
    "rawlsian_round",
    "socially_fair_centers",
    "solve_lp",
    "sweep",
    "utilitarian_alg",
    "utilitarian_round",
]
