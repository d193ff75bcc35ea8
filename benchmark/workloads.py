"""The benchmark's workloads: seeded set-up, one pass, and its checks.

Every call is sequential and closed-loop: one caller that waits for each
result. A pass never raises; an algorithm call that raises or fails a check
is counted as failed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from welfair import centers, cli, model, pipeline
from welfair.metrics import pairwise_pow, report_from_distances

from data import adult_shaped, write_csv

KINDS = ("rawlsian", "utilitarian")
_OURS = {"rawlsian": "socially_fair", "utilitarian": "weighted"}
_BASELINES = ("vanilla", "weighted", "socially_fair")
# normalization k range, as the acceptance tests normalize their data
_NORM_KS = list(range(4, 13))
_MASS_EPS = 1e-9


@dataclass
class Call:
    """One algorithm call (a cell, in a sweep) and what its checks found."""

    kind: str
    seconds: float
    value: float = math.nan
    dominated: bool = False
    problems: list[str] = field(default_factory=list)


@dataclass
class Pass:
    seconds: float
    calls: list[Call]


def _fail(calls: list[Call], what: str) -> None:
    for call in calls:
        call.problems.append(what)


def check_result(res, inst, params) -> list[str]:
    """The per-call gates; an empty list means the call passed."""
    tol = params.lp_tolerance
    out = []
    if not res.gap <= res.gap_bound + tol:
        out.append(f"gap {res.gap!r} above bound {res.gap_bound!r}")
    if res.flags:
        out.append(f"flags {res.flags}")
    if not res.lp_objective <= res.objective_value + tol:
        out.append(f"LP value {res.lp_objective!r} above {res.objective_value!r}")
    a = res.solution.assignment
    if a.shape != (inst.n,) or a.min() < 0 or a.max() >= params.k:
        out.append("assignment is not a length-n vector in [0, k)")
        return out
    dist = pairwise_pow(inst.features, res.solution.centers, params.p)
    rep = report_from_distances(inst, params, dist, a)
    if not (
        np.allclose(rep.disu, res.report.disu, rtol=1e-9, atol=1e-12)
        and math.isclose(rep.R, res.report.R, rel_tol=1e-9, abs_tol=1e-12)
        and math.isclose(rep.U, res.report.U, rel_tol=1e-9, abs_tol=1e-12)
    ):
        out.append("report differs from its recomputation")
    return out


def _floor_ceil(v: float) -> tuple[int, int]:
    r = round(v)
    if abs(v - r) <= _MASS_EPS:
        return r, r
    return math.floor(v), math.ceil(v)


def check_masses(rounding_args, integral) -> list[str]:
    """Rounded (cluster, color) masses stay within floor/ceil of the LP's."""
    xfrac, inst = rounding_args[0], rounding_args[1]
    out = []
    for h in range(inst.num_colors):
        mass = xfrac[:, inst.colors == h].sum(axis=1)
        for i, m in enumerate(mass):
            lo, hi = _floor_ceil(float(m))
            got = int(integral.color_mass[i, h])
            if not lo <= got <= hi:
                out.append(f"cluster {i} color {h}: mass {got} outside [{lo}, {hi}]")
    return out


def _run_call(kind, alg, inst, params, restarts) -> tuple[Call, object]:
    start = time.perf_counter()
    try:
        res = alg(inst, params, seed=0, restarts=restarts)
    except Exception:
        call = Call(kind, time.perf_counter() - start)
        _fail([call], traceback.format_exc())
        return call, None
    return Call(kind, time.perf_counter() - start), res


class SingleCall:
    """One rawlsian_alg and one utilitarian_alg call per adult-shaped
    instance, on data normalized per objective in set-up (solver "auto")."""

    def __init__(self, n, k, restarts, instance_s, lam=0.5, delta=0.01, p=2):
        self.n, self.k, self.restarts = n, k, restarts
        self.instance_s = instance_s
        self.lam, self.delta, self.p = lam, delta, p

    def setup(self, seed: int, index: int, workdir: str) -> dict:
        rng = np.random.default_rng([seed, index])
        X, colors, names = adult_shaped(self.n, rng)
        raw = model.Instance(X, colors, names)
        case = {}
        for kind in KINDS:
            f = model.normalization_factor(raw, _NORM_KS, self.p, kind, 0)
            inst = model.apply_normalization(raw, f)
            params = model.Params.with_delta(inst, self.k, self.lam, self.delta, self.p)
            case[kind] = (inst, params, f)
        return case

    def run(self, case) -> tuple[Pass, list]:
        start = time.perf_counter()
        calls, results = [], []
        for kind in KINDS:
            inst, params, _ = case[kind]
            alg = pipeline.rawlsian_alg if kind == "rawlsian" else pipeline.utilitarian_alg
            call, res = _run_call(kind, alg, inst, params, self.restarts)
            calls.append(call)
            results.append(res)
        return Pass(time.perf_counter() - start, calls), results

    def check(self, case, done: Pass, results, tracer=None) -> None:
        social_raw = None
        for call, res in zip(done.calls, results):
            if res is None:
                continue
            inst, params, f = case[call.kind]
            call.value = res.objective_value
            call.problems += check_result(res, inst, params)
            call.dominated = self._dominates(inst, params, f, call.kind, res, social_raw)
            if call.kind == "rawlsian":
                social_raw = res.solution.centers * math.sqrt(f)
        if tracer is not None:
            _check_roundings(done.calls, tracer)

    def _dominates(self, inst, params, f, kind, res, social_raw) -> bool:
        """Our result beats all three baselines on this call's objective."""
        rows = [res]
        for method in _BASELINES:
            if method == _OURS[kind]:
                ctrs = res.solution.centers
            elif method == "socially_fair" and social_raw is not None:
                # the center heuristics are scale-equivariant, so the rawlsian
                # call's centers, rescaled, are this normalization's baseline
                ctrs = social_raw / math.sqrt(f)
            else:
                ctrs = centers.best_of_restarts(
                    inst, self.k, method, self.restarts, 0
                ).centers
            cs = centers.CenterSet(ctrs, method, math.nan)
            rows.append(
                pipeline.evaluate_baseline(inst, params, method, seed=0, center_set=cs)
            )
        return pipeline.dominance_check(rows, kind).all_dominated


def _check_roundings(calls: list[Call], tracer) -> None:
    if len(tracer.roundings) != len(calls):
        _fail(calls, f"{len(tracer.roundings)} roundings for {len(calls)} calls")
        return
    for call, (args, integral) in zip(calls, tracer.roundings):
        call.problems += check_masses(args, integral)


class Sweep:
    """cli.run_experiment on a CSV written in set-up."""

    def __init__(self, n, ks, lambdas, restarts, instance_s, delta=0.01):
        self.n, self.ks, self.lambdas = n, ks, lambdas
        self.restarts, self.delta = restarts, delta
        self.instance_s = instance_s

    @property
    def cells(self) -> int:
        return len(KINDS) * len(self.ks) * len(self.lambdas)

    def setup(self, seed: int, index: int, workdir: str) -> dict:
        rng = np.random.default_rng([seed, index])
        X, colors, names = adult_shaped(self.n, rng)
        path = os.path.join(workdir, f"adult-{index}.csv")
        feats = write_csv(path, X, colors, names)
        config = cli.ExperimentConfig(
            data=path,
            feature_columns=feats,
            group_column="group",
            objective="both",
            k_range=list(self.ks),
            lambdas=list(self.lambdas),
            delta=self.delta,
            restarts=self.restarts,
            seed=0,
            out_dir=os.path.join(workdir, f"out-{index}"),
            normalize=True,
            workers=1,
        )
        return {"config": config}

    def run(self, case) -> tuple[Pass, list]:
        captured = []
        originals = {
            name: getattr(pipeline, name)
            for name in ("rawlsian_alg", "utilitarian_alg", "evaluate_baseline")
        }

        def recording(fn):
            def wrapper(*args, **kwargs):
                start = time.perf_counter()
                res = fn(*args, **kwargs)
                captured.append((time.perf_counter() - start, args, res))
                return res

            return wrapper

        for name, fn in originals.items():
            setattr(pipeline, name, recording(fn))
        start = time.perf_counter()
        try:
            cli.run_experiment(case["config"])
            error = None
        except Exception:
            error = traceback.format_exc()
        finally:
            seconds = time.perf_counter() - start
            for name, fn in originals.items():
                setattr(pipeline, name, fn)
        calls = []
        groups = []
        for dt, args, res in captured:
            if res.method.endswith("Alg"):
                kind = "rawlsian" if res.method == "RawlsianAlg" else "utilitarian"
                calls.append(Call(kind, dt))
                groups.append([(args, res)])
            elif groups:
                groups[-1].append((args, res))
        if error is not None:
            calls += [Call("failed", 0.0) for _ in range(self.cells - len(calls))]
            _fail(calls, error)
        return Pass(seconds, calls), groups

    def check(self, case, done: Pass, groups, tracer=None) -> None:
        config = case["config"]
        if any(call.problems for call in done.calls):
            return  # the sweep raised; its cells are already failed
        if len(done.calls) != self.cells:
            _fail(done.calls, f"{len(done.calls)} algorithm cells, expected {self.cells}")
            return
        for call, group in zip(done.calls, groups):
            (inst, params, *_), res = group[0]
            call.value = res.objective_value
            call.problems += check_result(res, inst, params)
            if len(group) != 1 + len(_BASELINES):
                call.problems.append(f"{len(group) - 1} baselines, expected 3")
                continue
            call.dominated = pipeline.dominance_check(
                [r for _, r in group], call.kind
            ).all_dominated
        path = os.path.join(config.out_dir, "results.csv")
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != self.cells * (1 + len(_BASELINES)):
            _fail(done.calls, f"results.csv has {len(rows)} rows")
        algs = [r for r in rows if r["method"].endswith("Alg")]
        for call, row in zip(done.calls, algs):
            if not float(row["gap"]) <= float(row["bound"]) + config.lp_tolerance:
                call.problems.append(f"results.csv gap {row['gap']} above {row['bound']}")
            if row["flags"]:
                call.problems.append(f"results.csv flags {row['flags']}")
        if tracer is not None:
            _check_roundings(done.calls, tracer)
            tracer.counts["cli.cells"] += len(algs)
            with contextlib.redirect_stdout(io.StringIO()):
                status = cli.gap_report(path)
            tracer.counts["cli.gapreport_hard"] = max(
                tracer.counts["cli.gapreport_hard"], status
            )


def instance_count(workload, seconds: float) -> int:
    """How many instances a run of `seconds` seconds measures.

    The count depends only on the workload and the run length, so one seed
    and run length always give the same inputs. `instance_s` is roughly the
    time of one instance's set-up, pass and checks on a 2-core machine.
    """
    return max(1, round(seconds / workload.instance_s))


# The time of one pass varies from instance to instance, where the LP and
# the center iterations differ: between instances of one seed it varied by
# about a fifth (coefficient of variation) on both workloads, while repeated
# passes over one instance varied by about a tenth within a run on a shared
# 2-core host. A run therefore measures as many instances as its length
# allows, each once. The sweep restarts the center heuristics once: three
# restarts made an instance 1.6 times as long and varied more, so that the
# fewer instances of a run spread more.
WORKLOADS = {
    "large-2g": SingleCall(n=3000, k=12, restarts=1, instance_s=3.5),
    "sweep-2g": Sweep(
        n=700, ks=(4, 8, 12), lambdas=(0.1, 0.5, 0.9), restarts=1, instance_s=4.0
    ),
}
