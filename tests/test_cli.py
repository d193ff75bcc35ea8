from __future__ import annotations

import csv
import hashlib
import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from datagen import random_instance, separated_instance, write_csv

from welfair import centers
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
from welfair.model import load_instance, normalization_factor


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
            workers=2,
        )
        text = config.to_json()
        back = json.loads(text)
        assert ExperimentConfig(**back) == config

    def test_from_json_file(self, tmp_path):
        config = ExperimentConfig(
            data="d.csv", feature_columns=["a"], group_column="g"
        )
        p = tmp_path / "config.json"
        p.write_text(config.to_json(), encoding="utf-8")
        assert ExperimentConfig.from_json(str(p)) == config

    def test_defaults(self):
        config = ExperimentConfig(
            data="d.csv", feature_columns=["a"], group_column="g"
        )
        assert config.k_range == list(range(4, 16))
        assert config.lambdas == pytest.approx([0.1 * i for i in range(1, 10)])
        assert config.delta == 0.01 and config.p == 2
        assert config.normalize and config.workers == 1

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

    def test_workers_match_serial(self, dataset, tmp_path):
        path, feats = dataset
        outs = []
        for workers, d in ((1, "serial"), (3, "pool")):
            config = ExperimentConfig(
                data=path,
                feature_columns=feats,
                group_column="group",
                objective="utilitarian",
                k_range=[2, 3],
                lambdas=[0.4, 0.8],
                restarts=2,
                out_dir=str(tmp_path / d),
                workers=workers,
            )
            out_csv = run_experiment(config)
            with open(out_csv, newline="") as fh:
                outs.append(list(csv.DictReader(fh)))
        skip = {"time_centers_s", "time_lp_s", "time_round_s", "time_total_s"}
        assert len(outs[0]) == len(outs[1])
        for ra, rb in zip(outs[0], outs[1]):
            for key in ra:
                if key not in skip:
                    assert ra[key] == rb[key], key

    def test_normalization_runs_one_lloyd_per_k(
        self, dataset, tmp_path, monkeypatch
    ):
        # objective both: the two factors share one vanilla Lloyd run per k,
        # so normalizing adds len(k_range) lloyd calls, and metadata records
        # the per-mode factors
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
        assert counts[True] - counts[False] == len(config.k_range)
        meta = json.loads((tmp_path / "n1" / "metadata.json").read_text())
        inst = load_instance(path, feats, "group")
        for mode in ("rawlsian", "utilitarian"):
            want = normalization_factor(inst, config.k_range, 2, mode, 0)
            assert meta["norm_factors"][mode] == want

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
    def test_svg_output(self, finished_run, tmp_path):
        _, out_csv = finished_run
        out = tmp_path / "chart.svg"
        plot_results(out_csv, "rawlsian", 0.3, str(out))
        tree = ET.parse(out)
        assert tree.getroot().tag.endswith("svg")
        body = out.read_text(encoding="utf-8")
        assert "RawlsianAlg" in body and "vanilla" in body
        assert "polyline" in body

    def test_missing_slice_raises_data_error(self, finished_run, tmp_path):
        from welfair.errors import DataError

        _, out_csv = finished_run
        with pytest.raises(DataError):
            plot_results(out_csv, "rawlsian", 0.99, str(tmp_path / "x.svg"))


class TestGapReport:
    def test_clean_results_pass(self, finished_run, capsys):
        _, out_csv = finished_run
        assert gap_report(out_csv) == 0
        out = capsys.readouterr().out
        assert "hard violations: 0" in out

    def test_hard_violation_exit(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        with open(path, "w", newline="") as fh:
            w = csv.DictWriter(
                fh,
                fieldnames=[
                    "method", "objective", "k", "lambda", "R", "U",
                    "lp_objective", "gap", "bound",
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
                }
            )
        assert gap_report(str(path)) == 3
        assert "HARD" in capsys.readouterr().out


    @pytest.mark.parametrize("lp_tolerance, code", [(1e-7, 0), (1e-9, 3)])
    def test_uses_the_runs_lp_tolerance(self, tmp_path, lp_tolerance, code):
        # gap - bound = 5e-8 lies between the two slacks: the pipeline at
        # lp_tolerance 1e-7 does not flag it, so gapreport must not either
        path = tmp_path / "results.csv"
        with open(path, "w", newline="") as fh:
            w = csv.DictWriter(
                fh, fieldnames=["method", "objective", "k", "lambda", "gap", "bound"]
            )
            w.writeheader()
            w.writerow(
                {
                    "method": "RawlsianAlg",
                    "objective": "rawlsian",
                    "k": 2,
                    "lambda": 0.5,
                    "gap": 0.10000005,
                    "bound": 0.1,
                }
            )
        (tmp_path / "metadata.json").write_text(
            json.dumps({"config": {"lp_tolerance": lp_tolerance}})
        )
        assert gap_report(str(path)) == code

    def test_default_lp_tolerance_without_metadata(self, tmp_path):
        path = tmp_path / "results.csv"
        path.write_text(
            "method,objective,k,lambda,gap,bound\n"
            "UtilitarianAlg,utilitarian,2,0.5,0.10000005,0.1\n"
        )
        assert gap_report(str(path)) == 0


class TestOracleCheck:
    def test_passes(self, capsys):
        assert oracle_check(seed=0, count=2) == 0
        out = capsys.readouterr().out
        assert "2/2 passed" in out


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
        cpath.write_text(config.to_json(), encoding="utf-8")
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

    def test_bad_csv_is_data_error(self, tmp_path, capsys):
        p = tmp_path / "one.csv"
        p.write_text("x,g\n1,a\n2,a\n", encoding="utf-8")
        code = main(
            ["run", "--data", str(p), "--features", "x", "--group", "g"]
        )
        assert code == 2

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
