"""Command line interface: run experiments, plot, report gaps, self-check.

Exit codes: 0 success, 1 a ParamError (a bad option or parameter), 2 a
DataError or OSError (unusable input), 3 an InternalInvariantError (a bug, a
failed LP solve among them).
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
from dataclasses import InitVar, asdict, dataclass, field, fields, replace

import numpy as np

from . import __version__, centers, pipeline, svgchart
from .errors import DataError, InternalInvariantError, ParamError
from .lp import brute_force_assignment
from .model import (
    LP_TOLERANCE, Instance, Params, check_int, check_objective, load_instance, slack,
)

_OBJECTIVES = tuple(pipeline.CENTER_METHODS)


@dataclass
class ExperimentConfig:
    data: str
    feature_columns: list[str]
    group_column: str
    objective: str = "both"
    k_range: list[int] = field(default_factory=lambda: list(pipeline.K_RANGE))
    lambdas: list[float] = field(default_factory=lambda: list(pipeline.LAMBDAS))
    delta: float = 0.01
    p: int = 2
    restarts: int = 10
    seed: int = 0
    out_dir: str = "results"
    subsample: int | None = None
    normalize: bool = True
    # not fields, so not config keys; benchmark/workloads.py still passes
    # workers=1 and reads lp_tolerance, and these go with its next change
    workers: InitVar[int] = 1
    lp_tolerance: typing.ClassVar[float] = LP_TOLERANCE

    def __post_init__(self, workers: int) -> None:
        if workers != 1:
            raise ParamError(f"workers must be 1, got {workers}")

    @classmethod
    def from_json(cls, path: str) -> "ExperimentConfig":
        # utf-8-sig drops a byte-order mark, which json.load rejects
        with open(path, "r", encoding="utf-8-sig") as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as e:
                raise ParamError(f"config {path} is not valid JSON: {e}") from None
        if not isinstance(raw, dict):
            raise ParamError(
                f"config {path} must hold a JSON object, got {type(raw).__name__}"
            )
        known = [f.name for f in fields(cls)]
        unknown = sorted(set(raw) - set(known))
        if unknown:
            raise ParamError(
                f"config {path}: unknown key(s) {', '.join(map(repr, unknown))}; "
                f"known keys: {', '.join(known)}"
            )
        missing = [
            name for name in ("data", "feature_columns", "group_column")
            if name not in raw
        ]
        if missing:
            raise ParamError(f"config {path}: missing key(s) {', '.join(missing)}")
        hints = typing.get_type_hints(cls)
        for f in fields(cls):
            if f.name in raw and not _has_type(raw[f.name], hints[f.name]):
                raise ParamError(
                    f"config {path}: {f.name!r} must be {f.type}, "
                    f"got {json.dumps(raw[f.name])}"
                )
        return cls(**raw)


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


def _result_row(
    res: pipeline.RunResult,
    objective: str,
    config: ExperimentConfig,
    norm_factor: float,
) -> dict:
    """One results.csv row; its keys, in order, are the file's columns."""
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
    }
    for prefix, values in (("disu", rep.disu), ("D", rep.D), ("V", rep.V)):
        for name, v in zip(rep.color_names, values):
            row[f"{prefix}_{name}"] = _fmt(float(v))
    row |= {
        "lp_objective": _fmt(res.lp_objective),
        "gap": _fmt(res.gap),
        "bound": _fmt(res.gap_bound),
        "time_centers_s": _fmt(res.timings.get("centers", 0.0)),
        "time_lp_s": _fmt(res.timings.get("lp", 0.0)),
        "time_round_s": _fmt(res.timings.get("round", 0.0)),
        "time_total_s": _fmt(res.timings.get("total", 0.0)),
        "flags": ";".join(res.flags),
        "norm_factor": _fmt(norm_factor),
    }
    return row


def run_experiment(config: ExperimentConfig) -> str:
    """Execute the configured sweep; returns the results CSV path."""
    # the fields named after `pipeline.sweep`'s keywords, its settings
    settings = {name: getattr(config, name) for name in pipeline.sweep.__kwdefaults__}
    pipeline.check_sweep(**settings)
    if config.subsample is not None and config.subsample < 1:
        raise ParamError(f"subsample must be at least 1, got {config.subsample}")
    instance = load_instance(config.data, config.feature_columns, config.group_column)
    if config.subsample:
        instance = instance.subsample(config.subsample, config.seed)
    # made before the sweep, so an --out that names a file fails first
    os.makedirs(config.out_dir, exist_ok=True)
    factors, cells = pipeline.sweep(instance, **settings)
    rows = [
        _result_row(res, obj, config, factors[obj])
        for obj, results in cells
        for res in results
    ]
    out_csv = os.path.join(config.out_dir, "results.csv")
    cols = list(rows[0])
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


def _read_results(path: str, columns: tuple[str, ...]) -> list[dict]:
    """The rows of a results CSV; DataError if it lacks one of columns."""
    # utf-8-sig drops the byte-order mark that spreadsheet exports write
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in columns if c not in (reader.fieldnames or [])]
        if missing:
            raise DataError(
                f"{path} lacks the results column(s) "
                f"{', '.join(map(repr, missing))}"
            )
        return list(reader)


def _number(text, where: str, kind=float):
    """text as a number; a DataError naming where it was read otherwise."""
    try:
        return kind(text)
    except (TypeError, ValueError):
        raise DataError(f"{where} is {text!r}, not a number") from None


def plot_results(path: str, objective: str, lam: float, out_path: str) -> None:
    check_objective(objective)
    if not math.isfinite(lam):
        raise ParamError(f"lambda must be finite, got {lam}")
    ycol = "R" if objective == "rawlsian" else "U"
    rows = _read_results(path, ("method", "objective", "k", "lambda", ycol))
    series: dict[str, dict[int, float]] = {}
    for line, row in enumerate(rows, start=2):
        if row["objective"] != objective:
            continue
        where = f"{path} line {line}, column"
        if abs(_number(row["lambda"], f"{where} 'lambda'") - lam) > 1e-9:
            continue
        k = _number(row["k"], f"{where} 'k'", int)
        y = _number(row[ycol], f"{where} {ycol!r}")
        series.setdefault(row["method"], {})[k] = y
    if not series:
        raise DataError(
            f"no rows for objective={objective} lambda={lam:g} in {path}"
        )
    data = []
    algorithms = pipeline.ALGORITHMS.values()
    for method in sorted(series, key=lambda m: (m not in algorithms, m)):
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


def gap_report(path: str) -> int:
    """Print the per-run rounding gaps; exit status 3 on a hard violation.

    A run is HARD when its flags cell, `;`-separated, holds the pipeline's
    GAP_FLAG or LP_FLAG: the verdict the run recorded, not one made again
    here. An empty cell is clean; any other cell is a DataError.
    """
    rows = _read_results(
        path, ("method", "objective", "k", "lambda", "gap", "bound", "flags")
    )
    algorithms = pipeline.ALGORITHMS.values()
    known = (pipeline.GAP_FLAG, pipeline.LP_FLAG)
    hard = 0
    runs = 0
    print(f"{'objective':<12} {'k':>3} {'lambda':>7} {'gap':>13} {'bound':>13} flag")
    for line, row in enumerate(rows, start=2):
        if row["method"] not in algorithms:
            continue
        runs += 1
        where = f"{path} line {line}, column"
        gap = _number(row["gap"] or "nan", f"{where} 'gap'")
        bound = _number(row["bound"] or "nan", f"{where} 'bound'")
        lam = _number(row["lambda"], f"{where} 'lambda'")
        flags = row["flags"].split(";") if row["flags"] else []
        if any(f not in known for f in flags):
            raise DataError(
                f"{where} 'flags' is {row['flags']!r}, not empty or "
                + " or ".join(map(repr, known))
            )
        hard += bool(flags)
        print(
            f"{row['objective']:<12} {row['k']:>3} {lam:>7.3g} "
            f"{gap:>13.6g} {bound:>13.6g} {'HARD' if flags else ''}"
        )
    print(f"runs: {runs}, hard violations: {hard}")
    return 3 if hard else 0


def oracle_check(seed: int = 0, count: int = 10) -> int:
    """Tiny random instances, each run through rawlsian_alg and
    utilitarian_alg on drawn centers: the LP value lower-bounds brute force
    and the rounded value obeys the additive bound. Prints one line per
    check."""
    check_int("--count", count, 1)
    check_int("--seed", seed, 0)
    rng = np.random.default_rng(seed)
    failures = 0
    for trial in range(count):
        H = int(rng.integers(2, 4))
        # every LP is priced from the class prefix; every fourth trial has
        # k = 5 > lp._CANDIDATES centers, so the first LP also leaves out each
        # point's farthest column; brute force enumerates k^n assignments,
        # and n <= 6 there (n <= 8 otherwise) keeps 20 trials at a few
        # seconds
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
        drawn = centers.CenterSet(
            centers=X[np.sort(idx)], provenance="oracle-check", score=float("nan")
        )
        ok = True
        for kind, alg in zip(
            _OBJECTIVES, (pipeline.rawlsian_alg, pipeline.utilitarian_alg)
        ):
            res = alg(inst, params, center_set=drawn)
            _, best = brute_force_assignment(inst, params, drawn.centers, kind)
            tol = slack(res.lp_objective)
            ok &= res.lp_objective <= best + tol
            ok &= res.objective_value <= best + res.gap_bound + tol
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
        raise ParamError(f"not an integer range or list: {text!r}") from None


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x]
    except ValueError:
        raise ParamError(f"not a list of numbers: {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="welfair", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment sweep", parents=[])
    # each dest but config's is the ExperimentConfig field the flag sets
    run.add_argument("--config", help="JSON config file; flags override its fields")
    run.add_argument("--data", help="CSV dataset path")
    run.add_argument(
        "--features", dest="feature_columns", help="comma-separated feature columns"
    )
    run.add_argument("--group", dest="group_column", help="group (color) column")
    run.add_argument("--objective", choices=[*_OBJECTIVES, "both"])
    run.add_argument("--k", dest="k_range", help="k range, e.g. 4:15 or 4,6,8")
    run.add_argument("--lambdas", help="comma-separated lambda values")
    run.add_argument("--delta", type=float)
    run.add_argument("--p", type=int, choices=[1, 2])
    run.add_argument("--restarts", type=int)
    run.add_argument("--seed", type=int)
    run.add_argument("--out", dest="out_dir", help="output directory")
    run.add_argument("--subsample", type=int)
    run.add_argument(
        "--no-normalize", dest="normalize", action="store_false", default=None
    )

    plot = sub.add_parser("plot", help="render an objective-vs-k SVG chart")
    plot.add_argument("--results", required=True)
    plot.add_argument("--objective", required=True, choices=list(_OBJECTIVES))
    plot.add_argument("--lam", required=True, type=float)
    plot.add_argument("--out", required=True)

    gap = sub.add_parser("gapreport", help="tabulate rounding gaps from results")
    gap.add_argument("--results", required=True)

    oc = sub.add_parser("oracle-check", help="brute-force spot check on tiny instances")
    oc.add_argument("--seed", type=int, default=0)
    oc.add_argument("--count", type=int, default=10)
    return ap


def _config_from_args(args) -> ExperimentConfig:
    """Each given flag laid over its own field of the --config file, or of
    the defaults; an empty string counts as not given."""
    config = ExperimentConfig.from_json(args.config) if args.config else None
    if config is None:
        missing = [
            flag
            for flag, name in (
                ("--data", "data"),
                ("--features", "feature_columns"),
                ("--group", "group_column"),
            )
            if not getattr(args, name)
        ]
        if missing:
            raise ParamError(f"missing {', '.join(missing)} (or --config)")
    parsers = {
        "feature_columns": _split_cols,
        "k_range": _parse_ints,
        "lambdas": _parse_floats,
    }
    given = {}
    for f in fields(ExperimentConfig):
        value = getattr(args, f.name)
        if value not in (None, ""):
            parse = parsers.get(f.name)
            given[f.name] = parse(value) if parse else value
    if config is None:
        return ExperimentConfig(**given)
    return replace(config, **given)


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
            return gap_report(args.results)
        if args.command == "oracle-check":
            return oracle_check(args.seed, args.count)
        raise ParamError(f"unknown command {args.command!r}")
    except ParamError as e:
        print(f"welfair: {e}", file=sys.stderr)
        return 1
    except (DataError, OSError) as e:
        print(f"welfair: data error: {e}", file=sys.stderr)
        return 2
    except InternalInvariantError as e:
        print(f"welfair: invariant violation: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
