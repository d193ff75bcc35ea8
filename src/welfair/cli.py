"""Command line interface: run experiments, plot, report gaps, self-check.

Exit codes: 0 success, 1 usage error, 2 data error, 3 invariant violation.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
import types
import typing
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import __version__, centers, pipeline, svgchart
from .errors import (
    CenterError,
    DataError,
    InternalInvariantError,
    NormalizationError,
    ParamError,
    WelfairError,
)
from .lp import brute_force_assignment, build_rawlsian_lp, build_utilitarian_lp, solve_lp
from .metrics import additive_constants, pairwise_pow
from .model import (
    LP_TOLERANCE,
    Instance,
    Params,
    apply_normalization,
    load_instance,
    normalization_factors,
)
from .rounding import rawlsian_round, utilitarian_round

_OBJECTIVES = ("rawlsian", "utilitarian")
_SOFT_GAP = 8e-3


class UsageError(WelfairError):
    pass


@dataclass
class ExperimentConfig:
    data: str
    feature_columns: list[str]
    group_column: str
    objective: str = "both"
    k_range: list[int] = field(default_factory=lambda: list(range(4, 16)))
    lambdas: list[float] = field(
        default_factory=lambda: [round(0.1 * i, 1) for i in range(1, 10)]
    )
    delta: float = 0.01
    p: int = 2
    restarts: int = 10
    seed: int = 0
    out_dir: str = "results"
    lp_tolerance: float = LP_TOLERANCE
    subsample: int | None = None
    normalize: bool = True
    workers: int = 1

    @classmethod
    def from_json(cls, path: str) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as e:
                raise UsageError(f"config {path} is not valid JSON: {e}") from None
        if not isinstance(raw, dict):
            raise UsageError(
                f"config {path} must hold a JSON object, got {type(raw).__name__}"
            )
        known = [f.name for f in fields(cls)]
        unknown = sorted(set(raw) - set(known))
        if unknown:
            raise UsageError(
                f"config {path}: unknown key(s) {', '.join(map(repr, unknown))}; "
                f"known keys: {', '.join(known)}"
            )
        missing = [
            name for name in ("data", "feature_columns", "group_column")
            if name not in raw
        ]
        if missing:
            raise UsageError(f"config {path}: missing key(s) {', '.join(missing)}")
        hints = typing.get_type_hints(cls)
        for f in fields(cls):
            if f.name in raw and not _has_type(raw[f.name], hints[f.name]):
                raise UsageError(
                    f"config {path}: {f.name!r} must be {f.type}, "
                    f"got {json.dumps(raw[f.name])}"
                )
        return cls(**raw)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def _has_type(value, tp) -> bool:
    """value, read from JSON, fits the annotation tp: an int is a float, a
    bool is neither."""
    args = typing.get_args(tp)
    if isinstance(tp, types.UnionType):
        return any(_has_type(value, t) for t in args)
    if typing.get_origin(tp) is list:
        return isinstance(value, list) and all(_has_type(v, args[0]) for v in value)
    if isinstance(value, bool):
        return tp is bool
    return isinstance(value, (int, float) if tp is float else tp)


def _fmt(v: float) -> str:
    if isinstance(v, float) and math.isnan(v):
        return ""
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _result_columns(color_names: list[str]) -> list[str]:
    cols = ["method", "objective", "k", "lambda", "delta", "p", "seed", "R", "U"]
    cols += [f"disu_{c}" for c in color_names]
    cols += [f"D_{c}" for c in color_names]
    cols += [f"V_{c}" for c in color_names]
    cols += [
        "lp_objective",
        "gap",
        "bound",
        "time_centers_s",
        "time_lp_s",
        "time_round_s",
        "time_total_s",
        "flags",
        "norm_factor",
    ]
    return cols


def _result_row(
    res: pipeline.RunResult, objective: str, config: ExperimentConfig
) -> dict:
    rep = res.report
    row = {
        "method": res.method,
        "objective": objective,
        "k": res.params.k,
        "lambda": _fmt(res.params.lam),
        "delta": _fmt(config.delta),
        "p": res.params.p,
        "seed": res.seed,
        "R": _fmt(rep.R),
        "U": _fmt(rep.U),
        "lp_objective": _fmt(res.lp_objective),
        "gap": _fmt(res.gap),
        "bound": _fmt(res.gap_bound),
        "time_centers_s": _fmt(res.timings.get("centers", 0.0)),
        "time_lp_s": _fmt(res.timings.get("lp", 0.0)),
        "time_round_s": _fmt(res.timings.get("round", 0.0)),
        "time_total_s": _fmt(res.timings.get("total", 0.0)),
        "flags": ";".join(res.flags),
        "norm_factor": _fmt(res.norm_factor),
    }
    for idx, name in enumerate(rep.color_names):
        row[f"disu_{name}"] = _fmt(float(rep.disu[idx]))
        row[f"D_{name}"] = _fmt(float(rep.D[idx]))
        row[f"V_{name}"] = _fmt(float(rep.V[idx]))
    return row


def run_experiment(config: ExperimentConfig) -> str:
    """Execute the configured sweep; returns the results CSV path."""
    _check_run_params(config)
    instance = load_instance(config.data, config.feature_columns, config.group_column)
    if config.subsample:
        instance = instance.subsample(config.subsample, config.seed)
    for k in config.k_range:
        for lam in config.lambdas:
            Params.with_delta(
                instance, k, lam, config.delta, config.p, config.lp_tolerance
            ).validate(instance)
    objectives = (
        list(_OBJECTIVES) if config.objective == "both" else [config.objective]
    )
    if config.normalize:
        both = normalization_factors(instance, config.k_range, config.p, config.seed)
        if 0.0 in both.values():
            # zero vanilla cost at every k: each point sits on its center
            raise NormalizationError(
                config.k_range[0],
                "vanilla k-means cost is zero; no distance scale to normalize by",
            )
        factors = {obj: both[obj] for obj in objectives}
        insts = {obj: apply_normalization(instance, f) for obj, f in factors.items()}
    else:
        factors = dict.fromkeys(objectives, float("nan"))
        insts = dict.fromkeys(objectives, instance)
    rows: list[dict] = []
    for obj in objectives:
        inst = insts[obj]
        our_method = "socially_fair" if obj == "rawlsian" else "weighted"
        center_cache: dict[str, centers.CenterSet] = {}
        tasks = []
        for k in config.k_range:
            center_cache.clear()
            for method in (our_method, "vanilla", "weighted", "socially_fair"):
                if method not in center_cache:
                    center_cache[method] = centers.best_of_restarts(
                        inst, k, method, config.restarts, config.seed
                    )
            cache = dict(center_cache)
            for lam in config.lambdas:
                tasks.append((obj, inst, k, lam, cache))
        results = _run_tasks(tasks, config)
        for (obj_t, _inst, _k, _lam, _cache), group in zip(tasks, results):
            for res in group:
                res.norm_factor = factors[obj_t]
                rows.append(_result_row(res, obj_t, config))
    os.makedirs(config.out_dir, exist_ok=True)
    out_csv = os.path.join(config.out_dir, "results.csv")
    cols = _result_columns(instance.color_names)
    with open(out_csv, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=cols)
        writer.writeheader()
        writer.writerows(rows)
    with open(config.data, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    meta = {
        "config": asdict(config),
        "version": __version__,
        "n": instance.n,
        "dim": instance.dim,
        "color_names": instance.color_names,
        "color_counts": [int(c) for c in instance.counts],
        "norm_factors": {k: (None if math.isnan(v) else v) for k, v in factors.items()},
        "dataset_sha256": digest,
        "columns": cols,
    }
    with open(
        os.path.join(config.out_dir, "metadata.json"), "w", encoding="utf-8"
    ) as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
    return out_csv


def _check_run_params(config: ExperimentConfig) -> None:
    """Reject sweep settings that would fail only deep inside the run."""
    if config.objective not in _OBJECTIVES + ("both",):
        raise ParamError(
            "objective must be rawlsian, utilitarian or both, "
            f"got {config.objective!r}"
        )
    if not config.k_range:
        raise ParamError("k range is empty")
    bad = [k for k in config.k_range if k < 1]
    if bad:
        raise ParamError(f"k must be at least 1, got {bad[0]}")
    if config.restarts < 1:
        raise ParamError(f"restarts must be at least 1, got {config.restarts}")
    if config.subsample is not None and config.subsample < 1:
        raise ParamError(f"subsample must be at least 1, got {config.subsample}")
    if not config.lambdas:
        raise ParamError("lambda list is empty")
    for lam in config.lambdas:
        if not 0.0 <= lam <= 1.0:
            raise ParamError(f"lambda must lie in [0, 1], got {lam}")


def _run_one(task, config: ExperimentConfig) -> list[pipeline.RunResult]:
    obj, inst, k, lam, cache = task
    params = Params.with_delta(
        inst, k, lam, config.delta, config.p, config.lp_tolerance
    )
    alg = pipeline.rawlsian_alg if obj == "rawlsian" else pipeline.utilitarian_alg
    our_method = "socially_fair" if obj == "rawlsian" else "weighted"
    out = [
        alg(
            inst,
            params,
            seed=config.seed,
            restarts=config.restarts,
            center_set=cache[our_method],
        )
    ]
    for method in ("vanilla", "weighted", "socially_fair"):
        out.append(
            pipeline.evaluate_baseline(
                inst,
                params,
                method,
                seed=config.seed,
                restarts=config.restarts,
                center_set=cache[method],
            )
        )
    return out


def _run_tasks(tasks, config: ExperimentConfig):
    if config.workers <= 1:
        return [_run_one(t, config) for t in tasks]
    with ThreadPoolExecutor(max_workers=config.workers) as pool:
        futures = [pool.submit(_run_one, t, config) for t in tasks]
        # collect in submission order so output order ignores completion order
        return [f.result() for f in futures]


def _read_results(path: str) -> list[dict]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def plot_results(path: str, objective: str, lam: float, out_path: str) -> None:
    rows = _read_results(path)
    ycol = "R" if objective == "rawlsian" else "U"
    series: dict[str, dict[int, float]] = {}
    for row in rows:
        if row["objective"] != objective:
            continue
        if abs(float(row["lambda"]) - lam) > 1e-9:
            continue
        series.setdefault(row["method"], {})[int(row["k"])] = float(row[ycol])
    if not series:
        raise DataError(
            f"no rows for objective={objective} lambda={lam:g} in {path}"
        )
    data = []
    for method in sorted(series, key=lambda m: (not m.endswith("Alg"), m)):
        ks = sorted(series[method])
        data.append((method, [float(k) for k in ks], [series[method][k] for k in ks]))
    svg = svgchart.line_chart(
        data,
        title=f"{objective} objective vs k (lambda={lam:g})",
        xlabel="k",
        ylabel=ycol,
    )
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(svg)


def _results_lp_tolerance(path: str) -> float:
    """lp_tolerance of the run that wrote a results CSV, read from the
    metadata.json beside it; the default when that file or field is absent."""
    meta_path = os.path.join(os.path.dirname(os.path.abspath(path)), "metadata.json")
    try:
        with open(meta_path, "r", encoding="utf-8") as fh:
            meta = json.load(fh)
    except FileNotFoundError:
        return LP_TOLERANCE
    except json.JSONDecodeError as e:
        raise DataError(f"{meta_path} is not valid JSON: {e}") from None
    tol = meta.get("config", {}).get("lp_tolerance")
    return LP_TOLERANCE if tol is None else float(tol)


def gap_report(path: str, soft: float = _SOFT_GAP) -> int:
    """Print the per-run rounding gaps; exit status 3 on a hard violation.

    A run is HARD by the pipeline's rule: gap > bound + the run's lp_tolerance.
    """
    rows = _read_results(path)
    tol = _results_lp_tolerance(path)
    hard = 0
    soft_hits = 0
    print(f"{'objective':<12} {'k':>3} {'lambda':>7} {'gap':>13} {'bound':>13} flag")
    for row in rows:
        if row["method"] not in ("RawlsianAlg", "UtilitarianAlg"):
            continue
        gap = float(row["gap"]) if row["gap"] else float("nan")
        bound = float(row["bound"]) if row["bound"] else float("nan")
        flag = ""
        if not math.isnan(gap) and not math.isnan(bound):
            if pipeline.exceeds_gap_bound(gap, bound, tol):
                flag = "HARD"
                hard += 1
            elif gap > soft:
                flag = "soft"
                soft_hits += 1
        print(
            f"{row['objective']:<12} {row['k']:>3} {float(row['lambda']):>7.2f} "
            f"{gap:>13.6g} {bound:>13.6g} {flag}"
        )
    print(
        f"runs: {sum(1 for r in rows if r['method'].endswith('Alg'))}, "
        f"hard violations: {hard}, above soft threshold {soft:g}: {soft_hits}, "
        f"lp tolerance {tol:g}"
    )
    return 3 if hard else 0


def oracle_check(seed: int = 0, count: int = 10) -> int:
    """Tiny random instances: LP lower-bounds brute force; rounding obeys its
    additive bound. Prints one line per check."""
    rng = np.random.default_rng(seed)
    failures = 0
    for trial in range(count):
        H = int(rng.integers(2, 4))
        # every fourth trial has k = 5 > lp._CANDIDATES centers, so the first
        # LP leaves out at least each point's farthest column (the class
        # prefix may cut more) and pricing runs; brute force enumerates k^n
        # assignments, and n <= 6 there (n <= 8 otherwise) keeps 20 trials
        # at a few seconds
        if trial % 4 == 3:
            k, n = 5, int(rng.integers(5, 7))
        else:
            k, n = int(rng.integers(2, 4)), int(rng.integers(4, 9))
        colors = np.arange(n, dtype=np.int64) % H
        X = rng.normal(size=(n, 2))
        inst = Instance(X, colors, [f"g{h}" for h in range(H)])
        lam = [0.3, 0.5, 0.7][trial % 3]
        params = Params.with_delta(inst, k, lam, 0.0, 2)
        idx = rng.choice(n, size=k, replace=False)
        ctrs = X[np.sort(idx)]
        dist = pairwise_pow(X, ctrs, 2)
        c_r, c_u = additive_constants(inst, params)
        ok = True
        for kind in _OBJECTIVES:
            build = build_rawlsian_lp if kind == "rawlsian" else build_utilitarian_lp
            rounder = rawlsian_round if kind == "rawlsian" else utilitarian_round
            model = build(inst, params, ctrs, dist)
            frac = solve_lp(model)
            _, best = brute_force_assignment(inst, params, ctrs, kind)
            bound = (1.0 - lam) * (c_r if kind == "rawlsian" else c_u)
            integral = rounder(frac.x, inst, params, dist)
            if frac.objective > best + params.lp_tolerance:
                ok = False
            if integral.objective > best + bound + params.lp_tolerance:
                ok = False
        print(
            f"{'PASS' if ok else 'FAIL'} trial {trial}: n={n} H={H} k={k} lambda={lam}"
        )
        if not ok:
            failures += 1
    print(f"oracle-check: {count - failures}/{count} passed")
    return 3 if failures else 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_ints(text: str) -> list[int]:
    try:
        if ":" in text:
            a, b = text.split(":", 1)
            return list(range(int(a), int(b) + 1))
        return [int(x) for x in text.split(",") if x]
    except ValueError:
        raise UsageError(f"not an integer range or list: {text!r}") from None


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x]
    except ValueError:
        raise UsageError(f"not a list of numbers: {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="welfair", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment sweep", parents=[])
    run.add_argument("--config", help="JSON config file; flags override its fields")
    run.add_argument("--data", help="CSV dataset path")
    run.add_argument("--features", help="comma-separated feature columns")
    run.add_argument("--group", help="group (color) column")
    run.add_argument("--objective", choices=["rawlsian", "utilitarian", "both"])
    run.add_argument("--k", help="k range, e.g. 4:15 or 4,6,8")
    run.add_argument("--lambdas", help="comma-separated lambda values")
    run.add_argument("--delta", type=float)
    run.add_argument("--p", type=int, choices=[1, 2])
    run.add_argument("--restarts", type=int)
    run.add_argument("--seed", type=int)
    run.add_argument("--out", help="output directory")
    run.add_argument("--lp-tol", type=float, dest="lp_tol")
    run.add_argument("--subsample", type=int)
    run.add_argument("--no-normalize", action="store_true")
    run.add_argument("--workers", type=int)

    plot = sub.add_parser("plot", help="render an objective-vs-k SVG chart")
    plot.add_argument("--results", required=True)
    plot.add_argument("--objective", required=True, choices=list(_OBJECTIVES))
    plot.add_argument("--lam", required=True, type=float)
    plot.add_argument("--out", required=True)

    gap = sub.add_parser("gapreport", help="tabulate rounding gaps from results")
    gap.add_argument("--results", required=True)
    gap.add_argument("--soft", type=float, default=_SOFT_GAP)

    oc = sub.add_parser("oracle-check", help="brute-force spot check on tiny instances")
    oc.add_argument("--seed", type=int, default=0)
    oc.add_argument("--count", type=int, default=10)
    return ap


def _config_from_args(args) -> ExperimentConfig:
    if args.config:
        config = ExperimentConfig.from_json(args.config)
    else:
        missing = [
            flag
            for flag, val in (
                ("--data", args.data),
                ("--features", args.features),
                ("--group", args.group),
            )
            if not val
        ]
        if missing:
            raise UsageError(f"missing {', '.join(missing)} (or --config)")
        config = ExperimentConfig(
            data=args.data,
            feature_columns=_split_cols(args.features),
            group_column=args.group,
        )
    if args.data:
        config.data = args.data
    if args.features:
        config.feature_columns = _split_cols(args.features)
    if args.group:
        config.group_column = args.group
    if args.objective:
        config.objective = args.objective
    if args.k:
        config.k_range = _parse_ints(args.k)
    if args.lambdas:
        config.lambdas = _parse_floats(args.lambdas)
    if args.delta is not None:
        config.delta = args.delta
    if args.p is not None:
        config.p = args.p
    if args.restarts is not None:
        config.restarts = args.restarts
    if args.seed is not None:
        config.seed = args.seed
    if args.out:
        config.out_dir = args.out
    if args.lp_tol is not None:
        config.lp_tolerance = args.lp_tol
    if args.subsample is not None:
        config.subsample = args.subsample
    if args.no_normalize:
        config.normalize = False
    if args.workers is not None:
        config.workers = args.workers
    return config


def _split_cols(text: str) -> list[str]:
    return [c.strip() for c in text.split(",") if c.strip()]


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if args.command == "run":
            config = _config_from_args(args)
            out_csv = run_experiment(config)
            print(f"wrote {out_csv}")
            return 0
        if args.command == "plot":
            plot_results(args.results, args.objective, args.lam, args.out)
            print(f"wrote {args.out}")
            return 0
        if args.command == "gapreport":
            return gap_report(args.results, args.soft)
        if args.command == "oracle-check":
            return oracle_check(args.seed, args.count)
        raise UsageError(f"unknown command {args.command!r}")
    except (UsageError, ParamError) as e:
        print(f"welfair: {e}", file=sys.stderr)
        return 1
    except (DataError, CenterError, NormalizationError, FileNotFoundError) as e:
        print(f"welfair: data error: {e}", file=sys.stderr)
        return 2
    except InternalInvariantError as e:
        print(f"welfair: invariant violation: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
