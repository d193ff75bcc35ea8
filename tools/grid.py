"""Fixed grids of welfair runs, for checking that a change keeps results.

    python tools/grid.py identity --label new
    python tools/grid.py identity --label new --against GRID_old.json

`identity` runs 96 `welfair run` sweeps through `welfair.cli.main` in
process: adult-shaped data (`benchmark/data.py`, n = 700) at data seeds 1
and 2, `--k 3,5,8 --seed 2`, restarts 1 and 3, p 1 and 2, normalized or
not, objective both, rawlsian and utilitarian, and `--lambdas 0.1,0.5,0.9`
and `0,1`. It writes GRID_<label>.json in the current directory: per sweep,
a sha256 of its results.csv without the time_* columns, one per row, and
one of its metadata.json without the paths it names. With --against FILE
it prints every sweep and row whose digest differs from FILE's.

Exit status: 2 if a sweep exits non-zero, raises or writes a flagged row,
else 1 if a sweep or row differs from FILE's, else 0.

Runs are deterministic for a fixed seed and solver, so one run per side
suffices. The tool imports welfair from this checkout's src/ and the data
generator from its benchmark/, which it does not change.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import itertools
import json
import os
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

import numpy as np  # noqa: E402

from benchmark.data import adult_shaped, write_csv  # noqa: E402
from welfair import cli  # noqa: E402

N = 700
DATA_SEEDS = (1, 2)
RESTARTS = (1, 3)
PS = (1, 2)
NORMALIZE = (True, False)
OBJECTIVES = ("both", "rawlsian", "utilitarian")
LAMBDAS = ("0.1,0.5,0.9", "0,1")
# the results.csv columns that name a row in what --against prints
ROW_KEY = ("method", "objective", "k", "lambda")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _results(path: str) -> tuple[str, list[list[str]], int]:
    """results.csv's digest without its time_* columns, each row's key and
    digest, and the number of flagged rows."""
    with open(path, encoding="utf-8", newline="") as fh:
        table = list(csv.reader(fh))
    header = table[0]
    kept = [c for c, name in enumerate(header) if not name.startswith("time_")]
    lines = ["\x1f".join(row[c] for c in kept) for row in table]
    at = {name: header.index(name) for name in (*ROW_KEY, "flags")}
    rows = [
        [" ".join(row[at[name]] for name in ROW_KEY), _sha(line)]
        for row, line in zip(table[1:], lines[1:])
    ]
    flagged = sum(bool(row[at["flags"]]) for row in table[1:])
    return _sha("\n".join(lines)), rows, flagged


def _metadata(path: str) -> str:
    """metadata.json's digest without the data and output paths."""
    with open(path, encoding="utf-8") as fh:
        meta = json.load(fh)
    for name in ("data", "out_dir"):
        meta["config"].pop(name)
    return _sha(json.dumps(meta, sort_keys=True))


def identity(workdir: str) -> dict:
    """Run the identity grid in workdir; each sweep's record by its name."""
    sweeps = {}
    for seed in DATA_SEEDS:
        data = os.path.join(workdir, f"adult-{seed}.csv")
        feats = write_csv(data, *adult_shaped(N, np.random.default_rng(seed)))
        for restarts, p, normalize, objective, lambdas in itertools.product(
            RESTARTS, PS, NORMALIZE, OBJECTIVES, LAMBDAS
        ):
            name = (
                f"data{seed}/restarts{restarts}/p{p}/"
                f"{'normalized' if normalize else 'raw'}/{objective}/{lambdas}"
            )
            out = os.path.join(workdir, name.replace("/", "-"))
            argv = [
                "run", "--data", data, "--features", ",".join(feats),
                "--group", "group", "--k", "3,5,8", "--seed", "2",
                "--restarts", str(restarts), "--p", str(p),
                "--objective", objective, "--lambdas", lambdas, "--out", out,
            ] + ([] if normalize else ["--no-normalize"])
            said = io.StringIO()
            try:
                with contextlib.redirect_stdout(said), contextlib.redirect_stderr(said):
                    status = cli.main(argv)
                error = f"exit {status}: {said.getvalue().strip()}" if status else None
            except Exception:
                # the grid goes on, so that one run reports every sweep
                error = traceback.format_exc().strip()
            if error:
                sweeps[name] = {"error": error}
                continue
            results, rows, flagged = _results(os.path.join(out, "results.csv"))
            sweeps[name] = {
                "results": results,
                "metadata": _metadata(os.path.join(out, "metadata.json")),
                "flagged": flagged,
                "rows": rows,
            }
    return sweeps


def differences(sweeps: dict, other: dict) -> dict[str, list[str]]:
    """Each sweep that differs from other's, with a line per difference."""
    out = {}
    for name in sorted(sweeps.keys() | other.keys()):
        a, b = sweeps.get(name), other.get(name)
        if a is None or b is None:
            out[name] = [f"only in {'the other file' if a is None else 'this run'}"]
        elif "error" in a or "error" in b:
            if a.get("error") != b.get("error"):
                out[name] = [f"{a.get('error', 'ran')} / {b.get('error', 'ran')}"]
        else:
            lines = ["metadata.json differs"] * (a["metadata"] != b["metadata"])
            if a["results"] != b["results"]:
                lines.append("results.csv differs")
                for r, pair in enumerate(itertools.zip_longest(a["rows"], b["rows"])):
                    if pair[0] != pair[1]:
                        key = (pair[0] or pair[1])[0]
                        lines.append(f"row {r + 1} ({key}) differs")
            if lines:
                out[name] = lines
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="grid", required=True)
    ident = sub.add_parser("identity", help="the 96-sweep result-identity grid")
    ident.add_argument("--label", required=True, help="writes GRID_<label>.json")
    ident.add_argument("--against", help="a GRID_*.json file to compare with")
    args = ap.parse_args(argv)
    against = None
    if args.against:
        with open(args.against, encoding="utf-8") as fh:
            against = json.load(fh)["sweeps"]
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="welfair-grid-") as workdir:
        sweeps = identity(workdir)
    seconds = time.perf_counter() - start
    path = f"GRID_{args.label}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            {"grid": args.grid, "label": args.label, "seconds": round(seconds, 1),
             "sweeps": sweeps},
            fh, indent=1, sort_keys=True,
        )
    failed = [name for name, s in sweeps.items() if "error" in s]
    flagged = sum(s.get("flagged", 0) for s in sweeps.values())
    for name in failed:
        print(f"{name}: {sweeps[name]['error']}")
    print(
        f"wrote {path}: {len(sweeps)} sweeps in {seconds:.1f} s, "
        f"{len(failed)} failed, {flagged} rows flagged"
    )
    differ = differences(sweeps, against) if against is not None else {}
    if against is not None:
        for name, lines in differ.items():
            for line in lines:
                print(f"{name}: {line}")
        print(f"{len(differ)} of {len(sweeps)} sweeps differ from {args.against}")
    if failed or flagged:
        return 2
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
