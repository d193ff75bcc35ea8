"""Layer tracing from outside the program.

The tracer replaces public functions of the welfair modules at the place
where their callers look them up (a module attribute or a class attribute)
with wrappers that record a span (name, start, end, parent, run id) and
read counts from the return value. Nothing under src/ knows about it.
Spans are kept in memory and written out when the run ends.

Every per-layer metric is a total over the traced pass of the workload:
times are self times (a span minus the spans it directly contains), counts
come from return values and repeat exactly for a fixed seed.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

import numpy as np

# (module, attribute path, span name or None for count-only, count hook).
# Several rows may wrap one function at different lookup sites, because
# `from x import f` gives the caller its own name for f.
_TARGETS = [
    ("welfair.cli", "load_instance", "model.load", None),
    ("welfair.cli", "normalization_factor", "model.normalize", None),
    ("welfair.cli", "apply_normalization", "model.normalize", None),
    ("welfair.model", "normalization_factor", "model.normalize", None),
    ("welfair.model", "apply_normalization", "model.normalize", None),
    ("welfair.centers", "best_of_restarts", "centers.restarts", "restarts"),
    ("welfair.centers", "lloyd", "centers.lloyd", "lloyd"),
    ("welfair.centers", "socially_fair_centers", "centers.social", "social"),
    ("welfair.centers", "two_group_center", None, "two_group"),
    ("welfair.pipeline", "pairwise_pow", "metrics.pairwise", None),
    ("welfair.metrics", "pairwise_pow", "metrics.pairwise", None),
    ("welfair.lp", "pairwise_pow", "metrics.pairwise", None),
    ("welfair.pipeline", "group_costs", "metrics.report", None),
    ("welfair.metrics", "report_from_distances", "metrics.report", None),
    ("welfair.rounding", "report_from_distances", "metrics.report", None),
    ("welfair.lp", "build_rawlsian_lp", "lp.build", "lp_model"),
    ("welfair.lp", "build_utilitarian_lp", "lp.build", "lp_model"),
    ("welfair.lp", "solve_lp", "lp.solve", "lp_solution"),
    ("welfair.lp", "HighsSolver.solve", "lp.backend", "highs_call"),
    ("welfair.lp", "BuiltinSolver.solve", "lp.backend", "builtin_call"),
    ("scipy.optimize", "linprog", "lp.highs", "linprog"),
    ("welfair.simplex", "solve_standard", "simplex.solve", None),
    ("welfair.rounding", "rawlsian_round", "rounding.round", "rounded"),
    ("welfair.rounding", "utilitarian_round", "rounding.round", "rounded"),
    ("welfair.rounding", "build_rawlsian_networks", "rounding.build", "networks"),
    ("welfair.rounding", "build_utilitarian_network", "rounding.build", "networks"),
    ("welfair.rounding", "min_cost_flow", "rounding.flow", "flow"),
    ("welfair.pipeline", "rawlsian_alg", "pipeline", "run_result"),
    ("welfair.pipeline", "utilitarian_alg", "pipeline", "run_result"),
    ("welfair.pipeline", "evaluate_baseline", "pipeline", None),
    ("welfair.cli", "run_experiment", "cli", None),
]

# span name -> per-layer time metric (its summed self time)
SPAN_METRICS = {
    "model.load": "model.load_s",
    "model.normalize": "model.normalize_s",
    "centers.restarts": "centers.restarts_s",
    "centers.lloyd": "centers.lloyd_s",
    "centers.social": "centers.social_s",
    "metrics.pairwise": "metrics.pairwise_s",
    "metrics.report": "metrics.report_s",
    "lp.build": "lp.build_s",
    "lp.solve": "lp.solve_s",
    "lp.backend": "lp.backend_s",
    "lp.highs": "lp.highs_s",
    "simplex.solve": "simplex.solve_s",
    "rounding.round": "rounding.extract_s",
    "rounding.build": "rounding.build_s",
    "rounding.flow": "rounding.flow_s",
    "pipeline": "pipeline.self_s",
    "cli": "cli.self_s",
}

COUNT_METRICS = (
    "centers.lloyd_calls",
    "centers.social_calls",
    "centers.two_group_calls",
    "centers.restarts",
    "lp.iterations",
    "lp.vars",
    "lp.rows",
    "lp.nnz",
    "lp.frac_cols",
    "lp.highs_calls",
    "lp.builtin_calls",
    "rounding.networks",
    "rounding.nodes",
    "rounding.arcs",
    "rounding.augmentations",
    "cli.cells",
    "cli.gapreport_hard",
    "trace.spans",
)

# mean objective value reached, deterministic for a seed
_OBJECTIVE_METRICS = {
    "pipeline.rawlsian_R": "RawlsianAlg",
    "pipeline.utilitarian_U": "UtilitarianAlg",
}
_FRAC_EPS = 1e-9


def frac_cols(x: np.ndarray) -> int:
    """Points whose LP column is split between centers."""
    return int(((x > _FRAC_EPS) & (x < 1.0 - _FRAC_EPS)).any(axis=0).sum())


class Tracer:
    """Installs the wrappers, records spans and counts while active."""

    def __init__(self) -> None:
        self.active = False
        self.run_id = ""
        self.spans: list[tuple[str, float, float, int, str]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.gap_ratio_max = 0.0
        # objective value reached by each algorithm call, by method name
        self.objectives: dict[str, list[float]] = defaultdict(list)
        # (rounding args, IntegralAssignment) kept for the floor/ceil check
        self.roundings: list[tuple[tuple, object]] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- installing -------------------------------------------------------
    def install(self) -> None:
        for module_name, path, span, hook in _TARGETS:
            try:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                # a later change may delete a target; report it, keep going
                self.absent.append(f"{module_name}.{path}")
                continue
            self._undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, self._wrap(fn, span, hook))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, span, hook):
        on_return = getattr(self, f"_on_{hook}") if hook else None

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if span is None:
                out = fn(*args, **kwargs)
                on_return(out, args)
                return out
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append((span, 0.0, 0.0, parent, self.run_id))
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (span, start, end, parent, self.run_id)
            if on_return is not None:
                on_return(out, args)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    # -- count hooks, fed by return values ---------------------------------
    def _on_restarts(self, cs, args):
        self.counts["centers.restarts"] += len(cs.restart_scores or ())

    def _on_lloyd(self, cs, args):
        self.counts["centers.lloyd_calls"] += 1

    def _on_social(self, cs, args):
        self.counts["centers.social_calls"] += 1

    def _on_two_group(self, out, args):
        self.counts["centers.two_group_calls"] += 1

    def _on_lp_model(self, model, args):
        self.counts["lp.vars"] += model.num_vars
        self.counts["lp.rows"] += len(model.rows)
        self.counts["lp.nnz"] += sum(len(row.cols) for row in model.rows)

    def _on_lp_solution(self, frac, args):
        self.counts["lp.frac_cols"] += frac_cols(frac.x)

    def _on_highs_call(self, out, args):
        self.counts["lp.highs_calls"] += 1

    def _on_builtin_call(self, out, args):
        self.counts["lp.builtin_calls"] += 1

    def _on_linprog(self, res, args):
        self.counts["lp.iterations"] += int(res.nit)

    def _on_rounded(self, integral, args):
        self.roundings.append((args, integral))

    def _on_networks(self, nets, args):
        nets = nets if isinstance(nets, list) else [nets]
        self.counts["rounding.networks"] += len(nets)
        self.counts["rounding.nodes"] += sum(net.num_nodes for net in nets)
        self.counts["rounding.arcs"] += sum(len(net.tail) for net in nets)

    def _on_flow(self, res, args):
        self.counts["rounding.augmentations"] += res.augmentations

    def _on_run_result(self, res, args):
        if res.gap_bound > 0:
            self.gap_ratio_max = max(self.gap_ratio_max, res.gap / res.gap_bound)
        self.objectives[res.method].append(res.objective_value)

    # -- results ----------------------------------------------------------
    def metrics(self) -> dict[str, float]:
        """Per-layer self times and counts of everything recorded so far."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {metric: 0.0 for metric in SPAN_METRICS.values()}
        for (name, start, end, _, _), inner in zip(self.spans, child):
            out[SPAN_METRICS[name]] += (end - start) - inner
        for metric in COUNT_METRICS:
            out[metric] = int(self.counts.get(metric, 0))
        out["trace.spans"] = len(self.spans)
        out["pipeline.gap_ratio_max"] = self.gap_ratio_max
        for metric, method in _OBJECTIVE_METRICS.items():
            values = self.objectives[method]
            out[metric] = sum(values) / len(values) if values else 0.0
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, run_id in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "run": run_id,
                        }
                    )
                    + "\n"
                )
