"""welfair benchmark: run one workload and print its metrics.

    python3 benchmark/run.py --workload large-2g --seed 1 --seconds 60 --trace 0

Run from the repository root; welfair is imported from ./src. With
--trace 0 the last line of standard output is a JSON object with the
end-to-end metrics, with --trace 1 the per-layer metrics of a traced pass.
The line before it carries the environment and the run's bookkeeping.
See benchmark/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _cap_threads() -> int:
    """Cap BLAS/OpenMP pools at the usable core count; before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in _THREAD_VARS:
        cur = os.environ.get(var, "")
        if not (cur.isdigit() and 1 <= int(cur) <= nproc):
            os.environ[var] = str(nproc)
    return nproc


NPROC = _cap_threads()
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.optimize  # noqa: E402,F401
import welfair  # noqa: E402

if not os.path.abspath(welfair.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
    sys.exit(f"welfair imported from {welfair.__file__}, not from {ROOT}/src")

import tracing  # noqa: E402
import workloads  # noqa: E402

IMPORT_S = time.perf_counter() - _T0

END_TO_END = {
    "setup_s": "s",
    "rawlsian_s": "s",
    "utilitarian_s": "s",
    "pass_s": "s",
    "dominance_frac": "fraction",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "pipeline.gap_ratio_max": "ratio",
    "pipeline.rawlsian_R": "disutility",
    "pipeline.utilitarian_U": "disutility",
}
# the traced run covers the first instances only, to stay short
_TRACE_INSTANCES = 3
# a run starts no new instance once it has taken this many times --seconds
_OVERRUN = 1.1
_SHOW_FAILURES = 20


def _mean(values) -> float:
    values = list(values)
    return float(statistics.fmean(values)) if values else 0.0


def _run_checked(wl, case, tracer=None):
    """One pass plus its checks; checks run with tracing paused."""
    if tracer is not None:
        tracer.roundings.clear()
        tracer.active = True
    try:
        done, results = wl.run(case)
    finally:
        if tracer is not None:
            tracer.active = False
    try:
        wl.check(case, done, results, tracer)
    except Exception:
        workloads._fail(done.calls, traceback.format_exc())
    return done


def _pass_times(p) -> dict:
    """A pass's time and the mean time of its passing calls of each kind."""
    out = {}
    for kind in workloads.KINDS:
        ok = [c.seconds for c in p.calls if c.kind == kind and not c.problems]
        if ok:
            out[f"{kind}_s"] = statistics.fmean(ok)
    if not any(c.problems for c in p.calls):
        out["pass_s"] = p.seconds
    return out


def _summaries(passes_by_case: list[list]) -> dict:
    """End-to-end values from each instance's first pass.

    Times are means over the run's instances: an instance's pass time varies
    around its centre with a tail of slow instances, and over such values
    the mean of a run spreads less from seed to seed than the median does,
    while it still moves with the tail. Failed calls are left out of the
    times.
    """
    per_case = {"rawlsian_s": [], "utilitarian_s": [], "pass_s": []}
    dominated = cells = 0
    for passes in passes_by_case:
        first = passes[0]
        for name, value in _pass_times(first).items():
            per_case[name].append(value)
        dominated += sum(c.dominated for c in first.calls)
        cells += len(first.calls)
    out = {name: _mean(v) for name, v in per_case.items()}
    out["dominance_frac"] = dominated / cells if cells else 0.0
    return out


def _determinism(passes: list) -> None:
    """The untraced and traced passes on one input must reach the same
    objective values."""
    first = passes[0].calls
    for p in passes[1:]:
        for a, b in zip(first, p.calls):
            if not (a.problems or b.problems) and a.value != b.value:
                workloads._fail([b], f"{b.kind} value {b.value!r} != {a.value!r}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload]
    count = workloads.instance_count(wl, args.seconds)
    if args.trace:
        count = min(count, _TRACE_INSTANCES)
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir)
    tracer = tracing.Tracer() if args.trace else None
    try:
        if tracer is not None:
            tracer.install()
        passes_by_case, setup_times = [], []
        overhead = 0.0
        start = time.perf_counter()
        # one untraced pass per instance, set up just before it; on a machine
        # far slower than expected, the run stops early rather than overrun
        for i in range(count):
            if i and time.perf_counter() - start > _OVERRUN * args.seconds:
                break
            if tracer is not None:
                tracer.run_id = f"{args.workload}/{args.seed}/setup{i}"
                tracer.active = True
            t0 = time.perf_counter()
            case = wl.setup(args.seed, i, workdir)
            setup_times.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.active = False
            done = _run_checked(wl, case)
            passes_by_case.append([done])
            if tracer is not None:
                tracer.run_id = f"{args.workload}/{args.seed}/{i}"
                traced = _run_checked(wl, case, tracer)
                passes_by_case[-1].append(traced)
                overhead += traced.seconds - done.seconds
                _determinism(passes_by_case[-1])
        elapsed = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    calls = [c for passes in passes_by_case for p in passes for c in p.calls]
    failed = [c for c in calls if c.problems]
    for c in failed[:_SHOW_FAILURES]:
        print(f"failed {c.kind} call: {'; '.join(c.problems)}", file=sys.stderr)
    if tracer is not None:
        values = tracer.metrics()
        values["trace.overhead_s"] = overhead
        units = {
            name: PER_LAYER_UNITS.get(
                name, "s" if name.endswith("_s") else "count"
            )
            for name in values
        }
        spans_path = os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.jsonl")
        tracer.write_spans(spans_path)
    else:
        values = _summaries(passes_by_case)
        values["setup_s"] = IMPORT_S + statistics.median(setup_times)
        values["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        units = END_TO_END
        values = {name: values[name] for name in END_TO_END}

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "instances": len(passes_by_case),
        "planned_instances": count,
        "elapsed_s": elapsed,
        "failed_frac": len(failed) / len(calls) if calls else 1.0,
        "import_s": IMPORT_S,
        "setup_median_s": statistics.median(setup_times),
        "pass_times": [
            {k: round(v, 4) for k, v in _pass_times(p[0]).items()}
            for p in passes_by_case
        ],
        "nproc": NPROC,
        "threads": {var: os.environ[var] for var in _THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
    if tracer is not None:
        info["absent_wrap_targets"] = tracer.absent
        info["spans_file"] = os.path.relpath(spans_path, ROOT)
    print(json.dumps({"info": info}))
    result = {
        "correct": not failed and len(calls) > 0,
        "attempted": len(calls),
        "failed": len(failed),
        "metrics": {
            name: {"value": float(values[name]), "unit": units[name]}
            for name in values
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
