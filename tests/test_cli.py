from __future__ import annotations

import argparse
import csv
import hashlib
import json
import weakref
import xml.etree.ElementTree as ET
from collections import Counter
from dataclasses import asdict, fields, replace

import numpy as np
import pytest

from datagen import random_instance, separated_instance, write_csv

from welfair import _highs, centers, cli, model, pipeline
from welfair import lp as lp_mod
from welfair.cli import (
    ExperimentConfig,
    _parse_floats,
    _parse_ints,
    build_parser,
    gap_report,
    main,
    oracle_check,
    plot_results,
    run_experiment,
)
from welfair.errors import DataError, InternalInvariantError, ParamError
from welfair.model import apply_normalization, load_instance, normalization_factor


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "pts.csv"
    inst = random_instance(60, 2, 2, seed=14)
    feats = write_csv(inst, str(path))
    return str(path), feats


@pytest.fixture(scope="module")
def finished_run(dataset, tmp_path_factory):
    path, feats = dataset
    out = tmp_path_factory.mktemp("out")
    config = ExperimentConfig(
        data=path,
        feature_columns=feats,
        group_column="group",
        objective="both",
        k_range=[2, 3],
        lambdas=[0.3, 0.7],
        restarts=2,
        out_dir=str(out),
    )
    out_csv = run_experiment(config)
    return config, out_csv


class TestConfig:
    def test_json_roundtrip(self):
        config = ExperimentConfig(
            data="d.csv",
            feature_columns=["a", "b"],
            group_column="g",
            k_range=[2, 3, 4],
            lambdas=[0.5],
        )
        back = json.loads(json.dumps(asdict(config)))
        assert ExperimentConfig(**back) == config

    def test_from_json_file(self, tmp_path):
        config = ExperimentConfig(
            data="d.csv", feature_columns=["a"], group_column="g"
        )
        p = tmp_path / "config.json"
        p.write_text(json.dumps(asdict(config)), encoding="utf-8")
        assert ExperimentConfig.from_json(str(p)) == config

    def test_from_json_file_with_byte_order_mark(self, tmp_path):
        # editors on Windows can save JSON with a byte-order mark
        config = ExperimentConfig(
            data="d.csv", feature_columns=["a"], group_column="g"
        )
        p = tmp_path / "config.json"
        p.write_text(json.dumps(asdict(config)), encoding="utf-8-sig")
        assert p.read_bytes().startswith(b"\xef\xbb\xbf")
        assert ExperimentConfig.from_json(str(p)) == config

    def test_defaults(self):
        config = ExperimentConfig(
            data="d.csv", feature_columns=["a"], group_column="g"
        )
        assert config.k_range == list(range(4, 16))
        assert config.lambdas == pytest.approx([0.1 * i for i in range(1, 10)])
        assert config.delta == 0.01 and config.p == 2
        assert config.normalize

    def test_workers_other_than_one_rejected(self):
        # workers is no field: the sweep runs its cells in turn
        kw = {"data": "d.csv", "feature_columns": ["a"], "group_column": "g"}
        assert "workers" not in asdict(ExperimentConfig(**kw, workers=1))
        with pytest.raises(ParamError, match="workers must be 1, got 2"):
            ExperimentConfig(**kw, workers=2)

    def test_sweep_settings_are_fields_with_the_same_defaults(self):
        config = ExperimentConfig(
            data="d.csv", feature_columns=["a"], group_column="g"
        )
        for name, default in pipeline.sweep.__kwdefaults__.items():
            value = getattr(config, name)
            assert value == (list(default) if isinstance(default, tuple) else default)

    def test_parse_helpers(self):
        assert _parse_ints("4:6") == [4, 5, 6]
        assert _parse_ints("2,5,9") == [2, 5, 9]
        assert _parse_floats("0.1,0.5") == [0.1, 0.5]


class TestConfigErrors:
    """A bad config file exits 1 with a message naming the problem."""

    def _run(self, tmp_path, text, capsys):
        cpath = tmp_path / "config.json"
        cpath.write_text(text, encoding="utf-8")
        code = main(["run", "--config", str(cpath)])
        return code, capsys.readouterr().err

    def test_old_solver_key_named(self, tmp_path, capsys):
        raw = {"data": "d.csv", "feature_columns": ["a"], "group_column": "g"}
        raw["solver"] = "builtin"
        code, err = self._run(tmp_path, json.dumps(raw), capsys)
        assert code == 1
        assert "unknown key(s) 'solver'" in err

    def test_workers_key_named(self, tmp_path, capsys):
        raw = {"data": "d.csv", "feature_columns": ["a"], "group_column": "g"}
        raw["workers"] = 1
        code, err = self._run(tmp_path, json.dumps(raw), capsys)
        assert code == 1
        assert "unknown key(s) 'workers'" in err and "Traceback" not in err

    def test_unknown_keys_all_named(self, tmp_path, capsys):
        raw = {"data": "d.csv", "feature_columns": ["a"], "group_column": "g"}
        raw.update(colour="x", kk=[2])
        code, err = self._run(tmp_path, json.dumps(raw), capsys)
        assert code == 1
        assert "'colour', 'kk'" in err

    @pytest.mark.parametrize("text", ["[1, 2]", "3", '"data"', "null"])
    def test_not_an_object(self, tmp_path, capsys, text):
        code, err = self._run(tmp_path, text, capsys)
        assert code == 1
        assert "must hold a JSON object" in err

    def test_malformed_json(self, tmp_path, capsys):
        code, err = self._run(tmp_path, '{"data": "d.csv",', capsys)
        assert code == 1
        assert "not valid JSON" in err

    @pytest.mark.parametrize(
        "key, value, expected",
        [
            ("lambdas", 0.5, "list[float]"),
            ("k_range", [2.5], "list[int]"),
            ("feature_columns", "f0", "list[str]"),
            ("restarts", True, "int"),
            ("delta", "0.1", "float"),
            ("normalize", 1, "bool"),
            ("subsample", [30], "int | None"),
        ],
    )
    def test_wrong_value_type_named(self, tmp_path, capsys, key, value, expected):
        raw = {"data": "/nonexistent/nope.csv", "feature_columns": ["a"]}
        raw.update(group_column="g")
        raw[key] = value
        code, err = self._run(tmp_path, json.dumps(raw), capsys)
        assert code == 1
        assert f"{key!r} must be {expected}, got {json.dumps(value)}" in err
        assert "Traceback" not in err

    def test_ints_are_numbers(self, tmp_path):
        raw = {"data": "d.csv", "feature_columns": ["a"], "group_column": "g"}
        raw.update(lambdas=[0, 1], delta=0, lp_tolerance=1, subsample=None)
        cpath = tmp_path / "config.json"
        cpath.write_text(json.dumps(raw), encoding="utf-8")
        config = ExperimentConfig.from_json(str(cpath))
        assert config.lambdas == [0, 1] and config.delta == 0

    def test_missing_required_key(self, tmp_path, capsys):
        code, err = self._run(
            tmp_path, json.dumps({"data": "d.csv", "feature_columns": ["a"]}), capsys
        )
        assert code == 1
        assert "missing key(s) group_column" in err


# one flag per ExperimentConfig field: its argv, the field, the value it sets,
# none of them the field's default
_FLAGS = [
    (["--data", "d.csv"], "data", "d.csv"),
    (["--features", "a, b"], "feature_columns", ["a", "b"]),
    (["--group", "g"], "group_column", "g"),
    (["--objective", "utilitarian"], "objective", "utilitarian"),
    (["--k", "3:5"], "k_range", [3, 4, 5]),
    (["--lambdas", "0.25,0.75"], "lambdas", [0.25, 0.75]),
    (["--delta", "0.05"], "delta", 0.05),
    (["--p", "1"], "p", 1),
    (["--restarts", "3"], "restarts", 3),
    (["--seed", "7"], "seed", 7),
    (["--out", "o"], "out_dir", "o"),
    (["--lp-tol", "1e-6"], "lp_tolerance", 1e-6),
    (["--subsample", "50"], "subsample", 50),
    (["--no-normalize"], "normalize", False),
]


def _run_config(argv, monkeypatch) -> ExperimentConfig:
    """The config `welfair run` builds from argv, without running it."""
    seen = []
    monkeypatch.setattr(cli, "run_experiment", lambda c: seen.append(c) or "x")
    assert main(["run"] + argv) == 0
    return seen[0]


class TestFlags:
    """Each run flag sets the ExperimentConfig field its dest names."""

    def test_each_field_has_exactly_one_flag(self):
        ap = build_parser()
        sub = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
        dests = Counter(
            a.dest
            for a in sub.choices["run"]._actions
            if a.option_strings and a.dest not in ("help", "config")
        )
        assert dests == Counter(f.name for f in fields(ExperimentConfig))
        assert {name for _, name, _ in _FLAGS} == set(dests)

    def test_every_flag_sets_its_field(self, monkeypatch):
        argv = [arg for flag, _, _ in _FLAGS for arg in flag]
        want = ExperimentConfig(**{name: value for _, name, value in _FLAGS})
        defaults = ExperimentConfig(data="", feature_columns=[], group_column="")
        for _, name, value in _FLAGS:
            assert getattr(defaults, name) != value, name
        assert _run_config(argv, monkeypatch) == want

    _BASE = ExperimentConfig(data="base.csv", feature_columns=["x"], group_column="h")

    @pytest.fixture
    def config_file(self, tmp_path):
        cpath = tmp_path / "config.json"
        cpath.write_text(json.dumps(asdict(self._BASE)), encoding="utf-8")
        return str(cpath)

    @pytest.mark.parametrize("flag, name, value", _FLAGS, ids=[n for _, n, _ in _FLAGS])
    def test_flag_overrides_only_its_field(
        self, config_file, monkeypatch, flag, name, value
    ):
        got = _run_config(["--config", config_file] + flag, monkeypatch)
        assert got == replace(self._BASE, **{name: value})

    def test_empty_flag_keeps_the_config_field(self, config_file, monkeypatch):
        argv = ["--config", config_file, "--data", "", "--k", "", "--out", ""]
        assert _run_config(argv, monkeypatch) == self._BASE

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--data", "", "--features", "a", "--group", "g"], "missing --data "),
            (["--data", "d.csv", "--features", "a", "--group", ""], "missing --group "),
            (["--features", "a", "--k", "two"], "missing --data, --group "),
        ],
    )
    def test_empty_required_flag_is_missing(self, capsys, argv, message):
        assert main(["run"] + argv) == 1
        assert f"welfair: {message}(or --config)" in capsys.readouterr().err


class TestRunExperiment:
    def test_column_order(self, finished_run):
        _, out_csv = finished_run
        with open(out_csv, newline="") as fh:
            header = next(csv.reader(fh))
        assert header[:9] == [
            "method", "objective", "k", "lambda", "delta", "p", "seed", "R", "U",
        ]
        tail = [
            "lp_objective", "gap", "bound", "time_centers_s", "time_lp_s",
            "time_round_s", "time_total_s", "flags", "norm_factor",
        ]
        assert header[-9:] == tail
        mid = header[9:-9]
        assert len(mid) == 6  # disu/D/V per color, two colors
        assert mid[0].startswith("disu_") and mid[2].startswith("D_")

    def test_four_rows_per_setting(self, finished_run):
        config, out_csv = finished_run
        with open(out_csv, newline="") as fh:
            rows = list(csv.DictReader(fh))
        # both objectives x 2 k x 2 lambda x 4 methods
        assert len(rows) == 2 * 2 * 2 * 4
        for obj in ("rawlsian", "utilitarian"):
            for k in config.k_range:
                for lam in config.lambdas:
                    group = [
                        r
                        for r in rows
                        if r["objective"] == obj
                        and int(r["k"]) == k
                        and abs(float(r["lambda"]) - lam) < 1e-9
                    ]
                    methods = [r["method"] for r in group]
                    want_ours = (
                        "RawlsianAlg" if obj == "rawlsian" else "UtilitarianAlg"
                    )
                    assert methods == [
                        want_ours, "vanilla", "weighted", "socially_fair",
                    ]

    def test_our_rows_have_lp_fields_baselines_empty(self, finished_run):
        _, out_csv = finished_run
        with open(out_csv, newline="") as fh:
            rows = list(csv.DictReader(fh))
        for r in rows:
            if r["method"].endswith("Alg"):
                assert r["lp_objective"] != ""
                assert float(r["gap"]) <= float(r["bound"]) + 1e-6
            else:
                assert r["lp_objective"] == ""
                assert r["gap"] == "" and r["bound"] == ""
            # every numeric cell round-trips as float
            float(r["R"]), float(r["U"])

    def test_metadata_sidecar(self, finished_run):
        config, out_csv = finished_run
        meta_path = out_csv.replace("results.csv", "metadata.json")
        with open(meta_path, encoding="utf-8") as fh:
            meta = json.load(fh)
        with open(config.data, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        assert meta["dataset_sha256"] == digest
        assert meta["n"] == 60 and meta["dim"] == 2
        assert meta["config"]["k_range"] == [2, 3]
        assert set(meta["norm_factors"]) == {"rawlsian", "utilitarian"}
        with open(out_csv, newline="") as fh:
            header = next(csv.reader(fh))
        assert meta["columns"] == header

    def test_deterministic_between_runs(self, dataset, tmp_path):
        path, feats = dataset
        rows = []
        for d in ("a", "b"):
            config = ExperimentConfig(
                data=path,
                feature_columns=feats,
                group_column="group",
                objective="rawlsian",
                k_range=[2],
                lambdas=[0.5],
                restarts=2,
                out_dir=str(tmp_path / d),
            )
            out_csv = run_experiment(config)
            with open(out_csv, newline="") as fh:
                rows.append(list(csv.DictReader(fh)))
        skip = {"time_centers_s", "time_lp_s", "time_round_s", "time_total_s"}
        for ra, rb in zip(rows[0], rows[1]):
            for key in ra:
                if key not in skip:
                    assert ra[key] == rb[key], key

    def test_rows_are_the_sweeps_results(self, finished_run):
        # run_experiment writes one row per result of pipeline.sweep, in order
        config, out_csv = finished_run
        inst = load_instance(config.data, config.feature_columns, "group")
        factors, cells = pipeline.sweep(
            inst,
            objective=config.objective,
            k_range=config.k_range,
            lambdas=config.lambdas,
            restarts=config.restarts,
        )
        want = [
            cli._result_row(res, obj, config, factors[obj])
            for obj, results in cells
            for res in results
        ]
        with open(out_csv, newline="") as fh:
            got = list(csv.DictReader(fh))

        def untimed(rows):
            return [
                {key: str(v) for key, v in row.items() if not key.startswith("time_")}
                for row in rows
            ]

        assert len(got) == 2 * 2 * 2 * 4
        assert untimed(got) == untimed(want)

    def test_normalization_runs_one_lloyd_per_k(
        self, dataset, tmp_path, monkeypatch
    ):
        # objective both: the two factors share one vanilla Lloyd run per k,
        # the first restart of its vanilla center set, so normalizing adds
        # no lloyd call, and metadata records the per-mode factors
        path, feats = dataset
        calls = []
        real = centers.lloyd
        monkeypatch.setattr(
            centers, "lloyd", lambda *a, **kw: calls.append(a) or real(*a, **kw)
        )
        counts = {}
        for normalize in (False, True):
            calls.clear()
            out = tmp_path / f"n{int(normalize)}"
            config = ExperimentConfig(
                data=path,
                feature_columns=feats,
                group_column="group",
                objective="both",
                k_range=[2, 3, 4],
                lambdas=[0.5],
                restarts=1,
                normalize=normalize,
                out_dir=str(out),
            )
            run_experiment(config)
            counts[normalize] = len(calls)
        # one restart each of vanilla and weighted Lloyd per k
        assert counts[True] == counts[False] == 2 * len(config.k_range)
        meta = json.loads((tmp_path / "n1" / "metadata.json").read_text())
        inst = load_instance(path, feats, "group")
        for mode in ("rawlsian", "utilitarian"):
            want = normalization_factor(inst, config.k_range, 2, mode, 0)
            assert meta["norm_factors"][mode] == want

    def test_one_center_set_per_method_and_k(self, dataset, tmp_path, monkeypatch):
        # our method's centers are one of the three baselines', and each
        # objective rescales the sets computed on the raw data, so a sweep
        # computes 3 center sets per k, each method once
        path, feats = dataset
        calls = []
        real = centers.best_of_restarts

        def spy(inst, k, method, *a):
            calls.append((k, method))
            return real(inst, k, method, *a)

        monkeypatch.setattr(centers, "best_of_restarts", spy)
        config = ExperimentConfig(
            data=path,
            feature_columns=feats,
            group_column="group",
            objective="both",
            k_range=[2, 3],
            lambdas=[0.4, 0.8],
            restarts=1,
            out_dir=str(tmp_path),
        )
        run_experiment(config)
        per_k = {(k, m) for k in config.k_range for m in centers.METHODS}
        assert len(calls) == 3 * len(config.k_range)
        assert Counter(calls) == Counter({key: 1 for key in per_k})

    def test_one_k_of_set_ups_alive_at_a_time(self, dataset, tmp_path, monkeypatch):
        # a sweep builds each k's LP set-ups right before that k's cells and
        # drops them after, so no other k's set-up is alive while a cell runs
        path, feats = dataset
        built, others = [], []
        real_init = lp_mod.LPSetup.__init__

        def init(setup, instance, params, *a):
            real_init(setup, instance, params, *a)
            built.append((params.k, weakref.ref(setup)))

        def spy(alg):
            def run(inst, params, *a, **kw):
                others.append([k for k, ref in built if ref() and k != params.k])
                return alg(inst, params, *a, **kw)

            return run

        monkeypatch.setattr(lp_mod.LPSetup, "__init__", init)
        for name in ("rawlsian_alg", "utilitarian_alg"):
            monkeypatch.setattr(pipeline, name, spy(getattr(pipeline, name)))
        config = ExperimentConfig(
            data=path,
            feature_columns=feats,
            group_column="group",
            objective="both",
            k_range=[2, 3],
            lambdas=[0.4, 0.8],
            restarts=1,
            out_dir=str(tmp_path),
        )
        run_experiment(config)
        assert len(built) == 2 * 2 * len(centers.METHODS)
        assert others == [[]] * 8

    @pytest.fixture(scope="class")
    def sweeps(self, dataset, tmp_path_factory):
        """results.csv rows of each objective setting, normalized or not."""
        path, feats = dataset
        out = {}
        for normalize in (True, False):
            for objective in ("both", "rawlsian", "utilitarian"):
                config = ExperimentConfig(
                    data=path,
                    feature_columns=feats,
                    group_column="group",
                    objective=objective,
                    k_range=[2, 3],
                    lambdas=[0.3, 0.7],
                    restarts=2,
                    normalize=normalize,
                    out_dir=str(tmp_path_factory.mktemp(objective)),
                )
                with open(run_experiment(config), newline="") as fh:
                    out[normalize, objective] = list(csv.DictReader(fh))
        return out

    @staticmethod
    def _untimed(rows, objective):
        return [
            {key: v for key, v in row.items() if not key.startswith("time_")}
            for row in rows
            if row["objective"] == objective
        ]

    def test_both_rawlsian_rows_equal_a_rawlsian_run(self, sweeps):
        # the rawlsian objective rescales the center sets computed on the raw
        # data, as a rawlsian-only run does
        both = self._untimed(sweeps[True, "both"], "rawlsian")
        assert both == self._untimed(sweeps[True, "rawlsian"], "rawlsian")
        assert len(both) == 2 * 2 * 4

    def test_both_utilitarian_rows_match_a_utilitarian_run(self, sweeps):
        # the utilitarian objective rescales the same raw center sets, so its
        # rows equal a utilitarian-only run's exactly
        both = self._untimed(sweeps[True, "both"], "utilitarian")
        assert both == self._untimed(sweeps[True, "utilitarian"], "utilitarian")
        assert len(both) == 2 * 2 * 4

    def test_unnormalized_both_rows_equal_single_objective_runs(self, sweeps):
        # without normalization every objective shares one instance, so the
        # center sets are reused as they are
        for objective in ("rawlsian", "utilitarian"):
            both = self._untimed(sweeps[False, "both"], objective)
            assert len(both) == 2 * 2 * 4
            assert both == self._untimed(sweeps[False, objective], objective)

    def test_rescaled_center_set(self, dataset, tmp_path, monkeypatch):
        # each objective's center sets, rescaled from the raw ones, are those
        # computed on its normalized data, at p = 1 and 2: the centers of
        # the set-up each baseline is given
        path, feats = dataset
        inst = load_instance(path, feats, "group")
        given = []
        real = pipeline.evaluate_baseline

        def spy(inst, params, method, **kw):
            given.append((method, kw["setup"].centers))
            return real(inst, params, method, **kw)

        monkeypatch.setattr(pipeline, "evaluate_baseline", spy)
        for p in (1, 2):
            given.clear()
            out = tmp_path / f"p{p}"
            config = ExperimentConfig(
                data=path,
                feature_columns=feats,
                group_column="group",
                k_range=[3],
                lambdas=[0.5],
                p=p,
                restarts=3,
                seed=5,
                out_dir=str(out),
            )
            run_experiment(config)
            factors = json.loads((out / "metadata.json").read_text())["norm_factors"]
            # one cell per objective, each with its baselines in METHODS order
            assert [m for m, _ in given] == list(centers.METHODS) * 2
            objectives = ["rawlsian"] * 3 + ["utilitarian"] * 3
            for obj, (method, got) in zip(objectives, given):
                scaled = apply_normalization(inst, factors[obj], p)
                want = centers.best_of_restarts(scaled, 3, method, 3, 5)
                np.testing.assert_allclose(got, want.centers, rtol=1e-12)

    def test_subsample_and_no_normalize(self, dataset, tmp_path):
        path, feats = dataset
        config = ExperimentConfig(
            data=path,
            feature_columns=feats,
            group_column="group",
            objective="rawlsian",
            k_range=[2],
            lambdas=[0.5],
            restarts=1,
            out_dir=str(tmp_path),
            subsample=30,
            normalize=False,
        )
        out_csv = run_experiment(config)
        with open(out_csv, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert all(r["norm_factor"] == "" for r in rows)
        with open(
            out_csv.replace("results.csv", "metadata.json"), encoding="utf-8"
        ) as fh:
            meta = json.load(fh)
        assert meta["norm_factors"]["rawlsian"] is None


class TestPlot:
    def test_main_writes_the_chart(self, finished_run, tmp_path, capsys):
        _, out_csv = finished_run
        out = tmp_path / "chart.svg"
        argv = ["plot", "--results", out_csv, "--objective", "utilitarian"]
        assert main(argv + ["--lam", "0.7", "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"wrote {out}\n"
        assert ET.parse(out).getroot().tag.endswith("svg")

    def test_svg_output(self, finished_run, tmp_path):
        _, out_csv = finished_run
        out = tmp_path / "chart.svg"
        plot_results(out_csv, "rawlsian", 0.3, str(out))
        tree = ET.parse(out)
        assert tree.getroot().tag.endswith("svg")
        body = out.read_text(encoding="utf-8")
        assert "RawlsianAlg" in body and "vanilla" in body
        assert "polyline" in body

    def test_labels_are_escaped(self, tmp_path):
        # method names come from the results file and may hold markup
        path = tmp_path / "results.csv"
        path.write_text(
            "method,objective,k,lambda,R\n"
            "A&B <x>,rawlsian,2,0.5,1.5\n"
            "A&B <x>,rawlsian,3,0.5,1.25\n"
        )
        out = tmp_path / "c.svg"
        plot_results(str(path), "rawlsian", 0.5, str(out))
        texts = [el.text for el in ET.parse(out).iter() if el.tag.endswith("text")]
        assert "A&B <x>" in texts

    def test_results_with_byte_order_mark(self, tmp_path):
        # spreadsheet "CSV UTF-8" exports start with a byte-order mark
        path = tmp_path / "results.csv"
        path.write_text(
            "method,objective,k,lambda,R\n"
            "RawlsianAlg,rawlsian,2,0.5,1.5\n"
            "vanilla,rawlsian,2,0.5,1.75\n",
            encoding="utf-8-sig",
        )
        out = tmp_path / "c.svg"
        plot_results(str(path), "rawlsian", 0.5, str(out))
        texts = [el.text for el in ET.parse(out).iter() if el.tag.endswith("text")]
        assert "RawlsianAlg" in texts and "vanilla" in texts

    def test_missing_slice_raises_data_error(self, finished_run, tmp_path):
        from welfair.errors import DataError

        _, out_csv = finished_run
        with pytest.raises(DataError):
            plot_results(out_csv, "rawlsian", 0.99, str(tmp_path / "x.svg"))

    def test_non_numeric_cell_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "results.csv"
        path.write_text(
            "method,objective,k,lambda,R\n"
            "RawlsianAlg,rawlsian,2,0.5,1.5\n"
            "vanilla,rawlsian,two,0.5,1.5\n"
        )
        out = tmp_path / "c.svg"
        argv = ["plot", "--results", str(path), "--objective", "rawlsian"]
        assert main(argv + ["--lam", "0.5", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{path} line 3, column 'k' is 'two', not a number" in err
        assert not out.exists()

    def test_unknown_objective_is_param_error(self, finished_run, tmp_path):
        # a bad parameter, not a results file without its rows
        _, out_csv = finished_run
        out = tmp_path / "c.svg"
        with pytest.raises(ParamError, match="^unknown objective 'foo'$"):
            plot_results(out_csv, "foo", 0.5, str(out))
        assert not out.exists()


class TestGapReport:
    def test_clean_results_pass(self, finished_run, capsys):
        _, out_csv = finished_run
        assert gap_report(out_csv) == 0
        out = capsys.readouterr().out
        assert out.endswith(", hard violations: 0\n")
        assert "soft" not in out

    def test_hard_violation_exit(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        with open(path, "w", newline="") as fh:
            w = csv.DictWriter(
                fh,
                fieldnames=[
                    "method", "objective", "k", "lambda", "R", "U",
                    "lp_objective", "gap", "bound", "flags",
                ],
            )
            w.writeheader()
            w.writerow(
                {
                    "method": "RawlsianAlg",
                    "objective": "rawlsian",
                    "k": 2,
                    "lambda": 0.5,
                    "R": 1.0,
                    "U": 1.0,
                    "lp_objective": 0.0,
                    "gap": 1.0,
                    "bound": 0.1,
                    "flags": pipeline.GAP_FLAG,
                }
            )
        assert gap_report(str(path)) == 3
        assert "HARD" in capsys.readouterr().out


    @pytest.mark.parametrize(
        "meta",
        [
            None,
            '{"config": {"lp_tolerance": 1e-05}}',
            '{"config": {"lp_tolerance": 1e-09}}',
            "not json",
        ],
        ids=["no-metadata", "tol-1e-5", "tol-1e-9", "not-json"],
    )
    @pytest.mark.parametrize(
        "flags, code",
        [("", 0), ("gap_bound_exceeded", 3), ("lp_above_rounded", 3)],
        ids=["clean", "flagged", "lp-flagged"],
    )
    def test_verdict_is_the_flags_column(self, tmp_path, capsys, flags, code, meta):
        # gap - bound = 5e-6: a --lp-tol 1e-5 run leaves it unflagged and a
        # 1e-9 run flags it, so only the run's own flags cell can tell; a
        # metadata.json beside the CSV is not read
        path = tmp_path / "results.csv"
        path.write_text(
            "method,objective,k,lambda,gap,bound,flags\n"
            f"RawlsianAlg,rawlsian,2,0.5,0.100005,0.1,{flags}\n"
        )
        if meta is not None:
            (tmp_path / "metadata.json").write_text(meta)
        assert gap_report(str(path)) == code
        out = capsys.readouterr().out
        # the gap, 0.100005, is what the run flagged or not: no other label
        assert ("HARD" in out) == bool(flags) and "soft" not in out
        assert out.endswith(f"\nruns: 1, hard violations: {int(bool(flags))}\n")

    def test_lambda_column_shows_small_values(self, tmp_path, capsys):
        # two decimals printed lambda = 1e-6 as 0.00, like lambda = 0
        path = tmp_path / "results.csv"
        path.write_text(
            "method,objective,k,lambda,gap,bound,flags\n"
            + "".join(
                f"RawlsianAlg,rawlsian,2,{lam},0.1,0.1,\n"
                for lam in ("0", "1e-06", "0.5")
            )
        )
        assert gap_report(str(path)) == 0
        lines = capsys.readouterr().out.splitlines()[1:4]
        assert [line.split()[2] for line in lines] == ["0", "1e-06", "0.5"]

    @pytest.mark.parametrize("flags", ["oops", "gap_bound_exceeded;oops", ";"])
    def test_unknown_flags_cell_is_data_error(self, tmp_path, capsys, flags):
        path = tmp_path / "results.csv"
        path.write_text(
            "method,objective,k,lambda,gap,bound,flags\n"
            "UtilitarianAlg,utilitarian,2,0.5,0.1,0.1,\n"
            f"RawlsianAlg,rawlsian,2,0.5,0.1,0.1,{flags}\n"
        )
        assert main(["gapreport", "--results", str(path)]) == 2
        err = capsys.readouterr().err
        assert (
            f"{path} line 3, column 'flags' is {flags!r}, not empty or "
            "'gap_bound_exceeded' or 'lp_above_rounded'\n"
        ) in err
        assert "Traceback" not in err

    def test_lp_above_rounded_run_is_hard(self, dataset, tmp_path, monkeypatch, capsys):
        # a run whose solve reports its LP value 1 too high writes the flag,
        # and gapreport marks each such run HARD
        real = lp_mod.solve_lp

        def raised(model):
            frac = real(model)
            return lp_mod.FractionalSolution(frac.x, frac.objective + 1.0)

        monkeypatch.setattr(lp_mod, "solve_lp", raised)
        path, feats = dataset
        config = ExperimentConfig(
            data=path,
            feature_columns=feats,
            group_column="group",
            k_range=[2],
            lambdas=[0.5],
            restarts=1,
            out_dir=str(tmp_path / "out"),
        )
        out_csv = run_experiment(config)
        with open(out_csv, newline="") as fh:
            rows = [
                r for r in csv.DictReader(fh)
                if r["method"] in pipeline.ALGORITHMS.values()
            ]
        assert [r["flags"] for r in rows] == [pipeline.LP_FLAG] * 2
        capsys.readouterr()
        assert main(["gapreport", "--results", out_csv]) == 3
        out = capsys.readouterr().out
        assert out.count("HARD") == 2
        assert out.endswith("runs: 2, hard violations: 2\n")

    def test_non_numeric_cell_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "results.csv"
        path.write_text(
            "method,objective,k,lambda,gap,bound,flags\n"
            "UtilitarianAlg,utilitarian,2,0.5,0.1,0.1,\n"
            "RawlsianAlg,rawlsian,2,x,0.1,0.1,\n"
        )
        assert main(["gapreport", "--results", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"{path} line 3, column 'lambda' is 'x', not a number" in err
        assert "Traceback" not in err


class TestOracleCheck:
    def test_passes(self, capsys):
        assert oracle_check(seed=0, count=2) == 0
        out = capsys.readouterr().out
        assert "2/2 passed" in out

    def test_lp_above_brute_force_fails(self, monkeypatch, capsys):
        # a brute-force optimum 1 below the true one puts every trial's LP
        # value above it
        real = cli.brute_force_assignment

        def lowered(*args):
            assignment, best = real(*args)
            return assignment, best - 1.0

        monkeypatch.setattr(cli, "brute_force_assignment", lowered)
        assert main(["oracle-check", "--count", "2"]) == 3
        out = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in out[:2]] == [
            "FAIL trial 0",
            "FAIL trial 1",
        ]
        assert out[2:] == ["oracle-check: 0/2 passed"]


    @pytest.mark.parametrize("count", [-1, 0])
    def test_count_below_one_is_usage_error(self, count, capsys):
        assert main(["oracle-check", "--count", str(count)]) == 1
        captured = capsys.readouterr()
        assert f"--count must be at least 1, got {count}" in captured.err
        assert "passed" not in captured.out

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"seed": 1.5, "count": 1}, "--seed must be an integer, got 1.5"),
            ({"seed": True, "count": 1}, "--seed must be an integer, got True"),
            ({"count": 2.5}, "--count must be an integer, got 2.5"),
        ],
    )
    def test_library_call_checks_its_integers(self, kwargs, message, capsys):
        with pytest.raises(ParamError, match=f"^{message}$"):
            oracle_check(**kwargs)
        assert capsys.readouterr().out == ""

    def test_runs_the_pipeline_on_drawn_centers(self, monkeypatch, capsys):
        calls = {"rawlsian_alg": [], "utilitarian_alg": []}
        for name, seen in calls.items():
            real = getattr(pipeline, name)

            def spy(inst, params, *a, _real=real, _seen=seen, **kw):
                _seen.append((inst, params, kw["center_set"]))
                return _real(inst, params, *a, **kw)

            monkeypatch.setattr(pipeline, name, spy)
        assert oracle_check(seed=1, count=4) == 0
        assert [len(seen) for seen in calls.values()] == [4, 4]
        for (inst, params, drawn), (_, _, other) in zip(*calls.values()):
            assert other is drawn
            assert drawn.centers.shape == (params.k, inst.dim)
            # each center is a distinct point of the instance
            hits = (drawn.centers[:, None, :] == inst.features[None]).all(axis=2)
            assert (hits.sum(axis=1) >= 1).all()
            assert len(np.unique(drawn.centers, axis=0)) == params.k


class TestMain:
    def test_run_via_argv(self, dataset, tmp_path, capsys):
        path, feats = dataset
        code = main(
            [
                "run",
                "--data", path,
                "--features", ",".join(feats),
                "--group", "group",
                "--objective", "rawlsian",
                "--k", "2",
                "--lambdas", "0.5",
                "--restarts", "1",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        assert "results.csv" in capsys.readouterr().out

    def test_config_file_with_override(self, dataset, tmp_path, capsys):
        path, feats = dataset
        config = ExperimentConfig(
            data=path,
            feature_columns=feats,
            group_column="group",
            objective="rawlsian",
            k_range=[2, 3],
            lambdas=[0.5],
            restarts=1,
            out_dir=str(tmp_path / "unused"),
        )
        cpath = tmp_path / "config.json"
        cpath.write_text(json.dumps(asdict(config)), encoding="utf-8")
        code = main(
            ["run", "--config", str(cpath), "--k", "2", "--out", str(tmp_path / "o")]
        )
        assert code == 0
        with open(tmp_path / "o" / "results.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["k"] for r in rows} == {"2"}

    def test_missing_flags_usage_error(self, capsys):
        assert main(["run"]) == 1
        assert "missing" in capsys.readouterr().err

    def test_bad_choice_exits_one(self):
        with pytest.raises(SystemExit) as ei:
            main(["run", "--objective", "fair"])
        assert ei.value.code == 1

    def test_no_command_exits_one(self):
        with pytest.raises(SystemExit) as ei:
            main([])
        assert ei.value.code == 1

    def test_missing_file_is_data_error(self, capsys):
        code = main(
            [
                "run",
                "--data", "/nonexistent/nope.csv",
                "--features", "a",
                "--group", "g",
            ]
        )
        assert code == 2
        assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["results_dir", "data_dir", "out_file"])
    def test_os_error_is_data_error(
        self, case, dataset, tmp_path, capsys, monkeypatch
    ):
        # a directory where a file is read, or a file where the output
        # directory goes, exits 2 naming the path instead of a traceback,
        # before the sweep normalizes or computes any centers
        def sweep(*a, **kw):
            pytest.fail("the sweep started")

        monkeypatch.setattr(model, "normalization_factors", sweep)
        monkeypatch.setattr(centers, "best_of_restarts", sweep)
        path, feats = dataset
        out_file = tmp_path / "taken"
        out_file.write_text("", encoding="utf-8")
        run = [
            "run", "--data", path, "--features", ",".join(feats),
            "--group", "group", "--objective", "rawlsian", "--k", "2",
            "--lambdas", "0.5", "--restarts", "1", "--out", str(tmp_path / "o"),
        ]
        argv, named = {
            "results_dir": (["gapreport", "--results", str(tmp_path)], tmp_path),
            "data_dir": (run[:2] + [str(tmp_path)] + run[3:], tmp_path),
            "out_file": (run[:-1] + [str(out_file)], out_file),
        }[case]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "data error" in err and str(named) in err

    @pytest.mark.parametrize(
        "error, code, prefix",
        [
            (ParamError, 1, "welfair: "),
            (DataError, 2, "welfair: data error: "),
            (InternalInvariantError, 3, "welfair: invariant violation: "),
            (OSError, 2, "welfair: data error: "),
        ],
    )
    def test_exit_code_per_error_class(
        self, error, code, prefix, monkeypatch, capsys
    ):
        # each error class has one exit code and one line on stderr
        def fail(config):
            raise error("the message")

        monkeypatch.setattr(cli, "run_experiment", fail)
        argv = ["run", "--data", "d.csv", "--features", "a", "--group", "g"]
        assert main(argv) == code
        assert capsys.readouterr() == ("", f"{prefix}the message\n")

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--k", "3,2,3", "--lambdas", "0.5"], "k 3 appears more"),
            (["--k", "3", "--lambdas", "0.5,0.1,0.5"], "lambda 0.5 appears more"),
        ],
    )
    def test_repeated_sweep_value_exits_one(
        self, flags, message, dataset, tmp_path, capsys
    ):
        # a repeat would run its cells twice and write their rows twice
        path, feats = dataset
        argv = ["run", "--data", path, "--features", ",".join(feats)]
        argv += ["--group", "group", "--restarts", "1", "--out", str(tmp_path / "o")]
        assert main(argv + flags) == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not (tmp_path / "o" / "results.csv").exists()

    @pytest.mark.parametrize("how", ["flag", "config", "oracle-check"])
    def test_negative_seed_exits_one(self, how, dataset, tmp_path, capsys):
        # numpy's generator would reject it deep inside the run
        path, feats = dataset
        raw = {"data": path, "feature_columns": feats, "group_column": "group"}
        raw.update(k_range=[2], lambdas=[0.5], restarts=1)
        raw.update(out_dir=str(tmp_path / "o"), seed=-1 if how == "config" else 0)
        cpath = tmp_path / "config.json"
        cpath.write_text(json.dumps(raw), encoding="utf-8")
        argv = {
            "flag": ["run", "--config", str(cpath), "--seed", "-1"],
            "config": ["run", "--config", str(cpath)],
            "oracle-check": ["oracle-check", "--seed", "-1", "--count", "1"],
        }[how]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "seed must be at least 0, got -1" in err and "Traceback" not in err

    @pytest.mark.parametrize("objective", ["rawlsian", "utilitarian"])
    def test_lp_failure_exits_three(
        self, objective, dataset, tmp_path, monkeypatch, capsys
    ):
        # both LPs are feasible by construction, so a failed HiGHS solve is
        # an invariant violation, reported without a traceback
        def fail(lp):
            raise InternalInvariantError("HiGHS model status Solve error")

        monkeypatch.setattr(_highs, "solve", fail)
        path, feats = dataset
        argv = ["run", "--data", path, "--features", ",".join(feats)]
        argv += ["--group", "group", "--objective", objective, "--k", "2"]
        argv += ["--lambdas", "0.5", "--restarts", "1", "--out", str(tmp_path)]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "invariant violation: HiGHS model status Solve error" in err
        assert "Traceback" not in err

    def test_bad_csv_is_data_error(self, tmp_path, capsys):
        p = tmp_path / "one.csv"
        p.write_text("x,g\n1,a\n2,a\n", encoding="utf-8")
        code = main(
            ["run", "--data", str(p), "--features", "x", "--group", "g"]
        )
        assert code == 2

    def test_csv_without_data_rows_is_data_error(self, tmp_path, capsys):
        p = tmp_path / "header.csv"
        p.write_text("x,g\n", encoding="utf-8")
        code = main(
            ["run", "--data", str(p), "--features", "x", "--group", "g"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "no data rows" in err and str(p) in err

    def test_empty_features_flag_is_data_error(self, dataset, tmp_path, capsys):
        code = main(
            [
                "run", "--data", dataset[0], "--features", ",", "--group", "group",
                "--k", "2", "--out", str(tmp_path / "o"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "features have no columns" in err and "distinct" not in err

    def test_empty_feature_list_in_config_is_data_error(
        self, dataset, tmp_path, capsys
    ):
        raw = {"data": dataset[0], "feature_columns": [], "group_column": "group"}
        raw.update(k_range=[2], out_dir=str(tmp_path / "o"))
        cpath = tmp_path / "config.json"
        cpath.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["run", "--config", str(cpath)]) == 2
        err = capsys.readouterr().err
        assert "features have no columns" in err and "distinct" not in err

    def test_bad_lambda_exits_one(self, dataset, tmp_path, capsys):
        path, feats = dataset
        code = main(
            [
                "run", "--data", path, "--features", ",".join(feats),
                "--group", "group", "--objective", "rawlsian", "--k", "2",
                "--lambdas", "1.5", "--restarts", "1", "--out", str(tmp_path),
            ]
        )
        assert code == 1
        assert "lambda must lie in [0, 1], got 1.5" in capsys.readouterr().err

    def test_bad_lambda_rejected_before_any_centers(
        self, dataset, tmp_path, capsys, monkeypatch
    ):
        path, feats = dataset
        calls = []
        real = centers.lloyd
        monkeypatch.setattr(
            centers, "lloyd", lambda *a, **kw: calls.append(a) or real(*a, **kw)
        )
        code = main(
            [
                "run", "--data", path, "--features", ",".join(feats),
                "--group", "group", "--k", "2:6", "--lambdas", "0.5,-0.1",
                "--restarts", "2", "--out", str(tmp_path),
            ]
        )
        assert code == 1
        assert "lambda must lie in [0, 1], got -0.1" in capsys.readouterr().err
        assert calls == []

    def test_too_few_distinct_points_is_data_error(self, tmp_path, capsys):
        p = tmp_path / "same.csv"
        p.write_text("x,g\n" + "".join(f"1.0,{g}\n" for g in "aabab"), encoding="utf-8")
        code = main(
            [
                "run", "--data", str(p), "--features", "x", "--group", "g",
                "--k", "2", "--out", str(tmp_path / "o"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "data error" in err and "distinct" in err

    def test_exactly_balanced_instance_is_data_error(self, tmp_path, capsys):
        p = tmp_path / "balanced.csv"
        feats = write_csv(random_instance(30, 2, 2, seed=1), str(p))
        code = main(
            [
                "run", "--data", str(p), "--features", ",".join(feats),
                "--group", "group", "--k", "2:6", "--out", str(tmp_path / "o"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "data error" in err and "exactly balanced" in err

    def test_zero_normalization_factor_is_data_error(self, tmp_path, capsys):
        # every point sits on one of two sites: vanilla k-means at k = 2 costs
        # zero, so no normalization factor exists
        p = tmp_path / "sites.csv"
        feats = write_csv(separated_instance(40, theta=0.2, seed=0), str(p))
        code = main(
            [
                "run", "--data", str(p), "--features", ",".join(feats),
                "--group", "group", "--k", "2", "--out", str(tmp_path / "o"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "data error" in err and "cost is zero" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--k", "0"], "k must be at least 1, got 0"),
            (["--k", "3,-1"], "k must be at least 1, got -1"),
            (["--k", ","], "k range is empty"),
            (["--k", "2:1"], "k range is empty"),
            (["--restarts", "0"], "restarts must be at least 1, got 0"),
            (["--k", "two"], "not an integer range or list: 'two'"),
            (["--lambdas", "0.5,x"], "not a list of numbers: '0.5,x'"),
            (["--subsample", "-5"], "subsample must be at least 1, got -5"),
            (["--subsample", "0"], "subsample must be at least 1, got 0"),
            (["--lambdas", ","], "lambda list is empty"),
            (["--delta", "nan"], "delta must be finite, got nan"),
            (["--delta", "inf"], "delta must be finite, got inf"),
            (["--delta", "-0.1"], "delta must be at least 0, got -0.1"),
        ],
    )
    def test_bad_run_params_exit_one_before_loading(self, flags, message, capsys):
        # the data file does not exist: the parameters are rejected first
        argv = ["run", "--data", "/nonexistent/nope.csv", "--features", "a"]
        code = main(argv + ["--group", "g"] + flags)
        assert code == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, config, message",
        [
            (["--delta", "-0.1"], {}, "alpha and beta must be nonnegative"),
            (["--delta", "5"], {}, "r_h + alpha_h > 1"),
            (["--lp-tol", "0"], {}, "lp_tolerance must be finite"),
            ([], {"p": 3}, "p must be 1 or 2, got 3"),
            (["--lp-tol", "5e-10"], {}, "at least 1e-8, got 5e-10"),
        ],
    )
    def test_bad_params_exit_one_before_centers(
        self, dataset, tmp_path, capsys, monkeypatch, flags, config, message
    ):
        # the data loads, but no Lloyd run starts before the parameters fail
        path, feats = dataset
        calls = []
        lloyd = centers.lloyd
        monkeypatch.setattr(
            centers, "lloyd", lambda *a, **kw: calls.append(a) or lloyd(*a, **kw)
        )
        raw = {"data": path, "feature_columns": feats, "group_column": "group"}
        raw.update(config)
        cpath = tmp_path / "config.json"
        cpath.write_text(json.dumps(raw), encoding="utf-8")
        argv = ["run", "--config", str(cpath), "--k", "2:6", "--restarts", "2"]
        argv += ["--lambdas", "0.5", "--out", str(tmp_path / "o")]
        assert main(argv + flags) == 1
        assert message in capsys.readouterr().err
        assert calls == []

    def test_plot_nan_lambda_is_usage_error(self, finished_run, tmp_path, capsys):
        # every lambda would pass a |lambda - nan| > eps filter
        _, out_csv = finished_run
        out = tmp_path / "c.svg"
        argv = ["plot", "--results", out_csv, "--objective", "rawlsian"]
        assert main(argv + ["--lam", "nan", "--out", str(out)]) == 1
        assert "lambda must be finite, got nan" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command",
        [["gapreport"], ["plot", "--objective", "rawlsian", "--lam", "0.5"]],
    )
    def test_csv_without_results_columns_is_data_error(
        self, dataset, tmp_path, capsys, command
    ):
        # the input data, not a results.csv
        path, _ = dataset
        argv = [command[0], "--results", path] + command[1:]
        if command[0] == "plot":
            argv += ["--out", str(tmp_path / "c.svg")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"{path} lacks the results column(s) 'method'" in err
        assert "Traceback" not in err

    def test_k_above_n_exits_one(self, dataset, tmp_path, capsys):
        path, feats = dataset
        code = main(
            [
                "run", "--data", path, "--features", ",".join(feats),
                "--group", "group", "--k", "2,61", "--out", str(tmp_path),
            ]
        )
        assert code == 1
        assert "k=61 must lie in [1, n=60]" in capsys.readouterr().err

    def test_unknown_objective_in_config_exits_one(self, tmp_path, capsys):
        cpath = tmp_path / "config.json"
        cpath.write_text(
            json.dumps(
                {
                    "data": "/nonexistent/nope.csv",
                    "feature_columns": ["a"],
                    "group_column": "g",
                    "objective": "fair",
                }
            )
        )
        assert main(["run", "--config", str(cpath)]) == 1
        assert "objective must be" in capsys.readouterr().err

    def test_parser_has_no_solver_flag(self):
        with pytest.raises(SystemExit) as ei:
            main(["run", "--solver", "highs"])
        assert ei.value.code == 1

    def test_parser_help_lists_subcommands(self):
        ap = build_parser()
        text = ap.format_help()
        for cmd in ("run", "plot", "gapreport", "oracle-check"):
            assert cmd in text
