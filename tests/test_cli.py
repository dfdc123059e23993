import csv
import dataclasses
import hashlib
import json
import os
import shutil
from pathlib import Path

import pytest

from loadcast.cli import main, resolve_config
from loadcast.codec import from_json, to_json
from loadcast.dataset import DEFAULT_FRACTIONS, WindowConfig
from loadcast.features import FeatureSelector, all_features
from loadcast.ingest import format_hour, write_aligned_csv
from loadcast.models import ModelSpec
from loadcast.synthetic import generate_synthetic

from _util import toy_series


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    generate_synthetic(0.05, 9, out)  # 438 hours
    return out


@pytest.fixture(scope="module")
def aligned_csv(tmp_path_factory, synth_dir):
    out = tmp_path_factory.mktemp("ingested")
    code = main(["ingest", str(synth_dir / "load.csv"), str(synth_dir / "weather.csv"),
                 "--out", str(out)])
    assert code == 0
    return out / "aligned.csv"


def train_config(aligned, out, kind="fcnn", **training):
    cfg = {
        "data": {"aligned": str(aligned)},
        "features": {"time_features": ["hour"], "weather_features": ["temp"]},
        "model": {"kind": kind, "fcnn_hidden": [16]},
        "training": {"epochs": 4, "batch_size": 64, "seed": 1, **training},
        "output": str(out),
    }
    return cfg


class TestSynth:
    def test_writes_expected_row_counts(self, tmp_path, capsys):
        code = main(["synth", "--years", "0.02", "--seed", "4", "--out", str(tmp_path)])
        assert code == 0
        n = round(0.02 * 8760)
        assert sum(1 for _ in open(tmp_path / "load.csv")) == n + 1
        assert sum(1 for _ in open(tmp_path / "weather.csv")) == 8 * n + 1

    def test_infinite_years_is_invalid_config(self, tmp_path, capsys):
        assert main(["synth", "--years", "inf", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error[InvalidConfig]: ")


@pytest.mark.parametrize("command,code", [("synth", "InvalidConfig"), ("train", "InvalidSpec"),
                                          ("grid", "InvalidConfig")])
def test_negative_seed_is_stable_error(tmp_path, capsys, command, code):
    cfg = tmp_path / "run.json"  # names data that does not exist: the seed fails first
    cfg.write_text(json.dumps(train_config(tmp_path / "missing.csv", tmp_path / "out")))
    argv = {"synth": ["synth", "--years", "0.01", "--seed", "-1", "--out", str(tmp_path)],
            "train": ["train", "--config", str(cfg), "--seed", "-1"],
            "grid": ["grid", "table1", str(tmp_path / "missing.csv"), "--seeds", "0,-1",
                     "--out", str(tmp_path / "out")]}[command]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(f"error[{code}]: seed")
    assert not (tmp_path / "out").exists() and not (tmp_path / "load.csv").exists()


@pytest.mark.parametrize("command", ["synth", "train"])
def test_impossible_allocation_is_memory_error(aligned_csv, tmp_path, capsys, command):
    # each asks for over 128 PiB, more than a 64-bit address space holds, so
    # it fails at once; under 2**63 bytes, so numpy raises MemoryError
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({**train_config(aligned_csv, tmp_path / "out", kind="persistence"),
                               "window": {"t1": 10**17}}))
    argv = {"synth": ["synth", "--years", "1e13", "--out", str(tmp_path / "synth")],
            "train": ["train", "--config", str(cfg)]}[command]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error[MemoryError]: ")
    assert not (tmp_path / "out").exists()


class TestIngest:
    def test_summary_printed(self, synth_dir, tmp_path, capsys):
        code = main(["ingest", str(synth_dir / "load.csv"),
                     str(synth_dir / "weather.csv"), "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "rows=438" in out and "segments=1" in out
        assert (tmp_path / "aligned.csv").exists()

    def test_disjoint_ranges_fail_cleanly(self, tmp_path, capsys):
        a = tmp_path / "a"
        b = tmp_path / "b"
        generate_synthetic(0.01, 1, a)
        generate_synthetic(0.01, 1, b)
        # shift the weather file far into the future
        text = (b / "weather.csv").read_text().replace("2015-", "2030-")
        (b / "weather.csv").write_text(text)
        code = main(["ingest", str(a / "load.csv"), str(b / "weather.csv"),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert "error[EmptyIntersection]" in capsys.readouterr().err

    def test_gap_reported(self, tmp_path, capsys):
        src = tmp_path / "src"
        generate_synthetic(0.01, 2, src)
        # remove two mid-series load rows to create a gap
        lines = (src / "load.csv").read_text().strip().split("\n")
        (src / "load.csv").write_text("\n".join(lines[:30] + lines[32:]) + "\n")
        code = main(["ingest", str(src / "load.csv"), str(src / "weather.csv"),
                     "--out", str(tmp_path / "out")])
        assert code == 0
        out = capsys.readouterr().out
        assert "segments=2" in out and "gap_hours=2" in out

    @pytest.mark.parametrize("bad_row,line_no", [
        (b"2015-01-01T01:00:00,4\xff000\n", 3),  # not UTF-8
        (b"2015-01-01T01:00:00," + b"1" * 131_073 + b"\n", 3),  # over the csv field limit
    ], ids=["undecodable", "oversized-field"])
    def test_unreadable_load_csv_is_malformed_row(self, tmp_path, capsys, bad_row, line_no):
        generate_synthetic(0.01, 1, tmp_path)
        (tmp_path / "load.csv").write_bytes(
            b"timestamp_cst,load_mw\n2015-01-01T00:00:00,40000\n" + bad_row)
        code = main(["ingest", str(tmp_path / "load.csv"), str(tmp_path / "weather.csv"),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error[MalformedRow]: line {line_no}: ")


class TestTrain:
    def test_writes_model_history_config(self, aligned_csv, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(train_config(aligned_csv, tmp_path / "out")))
        code = main(["train", "--config", str(cfg_path)])
        assert code == 0
        assert (tmp_path / "out" / "model.lcst").exists()
        assert (tmp_path / "out" / "config.json").exists()
        rows = list(csv.reader(open(tmp_path / "out" / "history.csv")))
        assert rows[0] == ["epoch", "train_loss", "val_loss"]
        assert len(rows) == 1 + 4
        resolved = json.loads((tmp_path / "out" / "config.json").read_text())
        assert resolved["window"] == {"t1": 6, "t2": 4}  # defaults echoed

    def test_history_csv_golden_bytes(self, aligned_csv, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(train_config(aligned_csv, tmp_path / "out", epochs=2)))
        assert main(["train", "--config", str(cfg_path)]) == 0
        history = (tmp_path / "out" / "history.csv").read_bytes()
        assert hashlib.sha256(history).hexdigest() == (
            "430ff78f25c8b28c7c311a01758349f021dd132f762c6d5184ff65d7c6530636")

    def test_invalid_window_fails_before_reading_data(self, tmp_path, capsys):
        cfg = train_config("/nonexistent/aligned.csv", tmp_path / "out")
        cfg["window"] = {"t1": 0}
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(cfg))
        code = main(["train", "--config", str(cfg_path)])
        assert code == 1
        assert "error[ConfigError]" in capsys.readouterr().err

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = train_config("/nonexistent/aligned.csv", tmp_path / "out")
        cfg["trainnig"] = {}
        cfg_path = tmp_path / "typo.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(cfg_path)]) == 1
        assert "trainnig" in capsys.readouterr().err

    @pytest.mark.parametrize("section,key,value,code", [
        ("training", "epochs", "3", "ConfigError"),
        ("training", "epochs", 3.5, "ConfigError"),
        ("training", "seed", "x", "ConfigError"),
        ("model", "lstm_hidden", "64", "ConfigError"),
        ("model", "fcnn_hidden", 5, "ConfigError"),
        ("features", "zones", 5, "ConfigError"),
        ("features", "include_load", "no", "ConfigError"),
        ("split", "train", "a", "ConfigError"),
        ("window", "t1", 2.5, "ConfigError"),
        # architecture sizes below 1
        ("model", "conv_kernel", 0, "InvalidSpec"),
        ("model", "conv_filters", 0, "InvalidSpec"),
        ("model", "conv_layers", 0, "InvalidSpec"),
        ("model", "lstm_hidden", -1, "InvalidSpec"),
        ("model", "lstm_layers", 0, "InvalidSpec"),
        ("model", "dense_size", 0, "InvalidSpec"),
        ("model", "fcnn_hidden", [-3], "InvalidSpec"),
        ("model", "fcnn_hidden", [16, 0], "InvalidSpec"),
        ("model", "svr_c", 0, "InvalidSpec"),
        ("model", "svr_epsilon", -0.1, "InvalidSpec"),
        ("window", "t2", 8785, "ConfigError"),
        # a path of another type: open() would read file descriptor 5
        ("data", "aligned", 5, "ConfigError"),
        ("data", "load", ["x"], "ConfigError"),
        # training and solver values out of range, NaN and Infinity included
        ("model", "svr_epsilon", float("inf"), "InvalidSpec"),
        ("model", "svr_c", float("inf"), "InvalidSpec"),
        ("model", "svr_lambda", float("nan"), "InvalidSpec"),
        ("model", "svr_lambda", -1, "InvalidSpec"),
        ("model", "svr_max_iter", 0, "InvalidSpec"),
        ("training", "base_lr", -1, "InvalidSpec"),
        ("training", "base_lr", float("nan"), "InvalidSpec"),
        ("training", "lr_decay", -1, "InvalidSpec"),
        pytest.param("training", "base_lr", 10**400, "InvalidSpec",  # no float holds it
                     id="training-base_lr-10**400-InvalidSpec"),
    ])
    def test_wrong_typed_field_rejected(self, tmp_path, capsys, section, key, value, code):
        cfg = train_config("/nonexistent/aligned.csv", tmp_path / "out")
        cfg.setdefault(section, {})[key] = value
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(cfg_path)]) == 1
        assert f"error[{code}]" in capsys.readouterr().err

    @pytest.mark.parametrize("output", [5, None])
    def test_wrong_typed_output_rejected(self, tmp_path, capsys, output):
        cfg = {**train_config("/nonexistent/aligned.csv", tmp_path / "out"), "output": output}
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(cfg_path)]) == 1
        assert "error[ConfigError]: RunConfig.output must be str" in capsys.readouterr().err

    def test_default_config_matches_dataclass_defaults(self):
        resolved = to_json(resolve_config({}))
        assert WindowConfig(**resolved["window"]) == WindowConfig()
        spec = from_json(ModelSpec, {**resolved["model"], **resolved["training"]})
        assert spec == ModelSpec(kind="lstm")
        assert tuple(resolved["split"][s] for s in ("train", "val", "test")) == DEFAULT_FRACTIONS
        assert from_json(FeatureSelector, resolved["features"]) == all_features()

    def test_partial_features_merge_onto_all_features(self):
        features = to_json(resolve_config({"features": {"zones": [2]}}))["features"]
        assert from_json(FeatureSelector, features) == dataclasses.replace(
            all_features(), zones=(2,))

    def test_config_json_golden_bytes(self, aligned_csv, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # relative paths, so config.json's bytes are stable
        shutil.copy(aligned_csv, "aligned.csv")
        Path("run.json").write_text(json.dumps({
            "data": {"aligned": "aligned.csv"},
            "features": {"weather_features": ["temp"], "zones": [0, 3]},
            "model": {"kind": "persistence"},
            "training": {"seed": 3},
            "split": {"train": 0.5, "val": 0.3, "test": 0.2},
            "output": "out",
        }))
        assert main(["train", "--config", "run.json"]) == 0
        assert hashlib.sha256(Path("out/config.json").read_bytes()).hexdigest() == (
            "22f22ad46c8d590bd650a946761970dfbf686328661cabc96b0374b2abcb0e10")

    def test_rerun_identical_artifact(self, aligned_csv, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(train_config(aligned_csv, tmp_path / "a")))
        assert main(["train", "--config", str(cfg_path)]) == 0
        cfg_path.write_text(json.dumps(train_config(aligned_csv, tmp_path / "b")))
        assert main(["train", "--config", str(cfg_path)]) == 0
        assert ((tmp_path / "a" / "model.lcst").read_bytes()
                == (tmp_path / "b" / "model.lcst").read_bytes())

    def test_seed_flag_overrides(self, aligned_csv, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(train_config(aligned_csv, tmp_path / "a")))
        assert main(["train", "--config", str(cfg_path), "--seed", "2"]) == 0
        resolved = json.loads((tmp_path / "a" / "config.json").read_text())
        assert resolved["training"]["seed"] == 2


@pytest.fixture(scope="module")
def persistence_model(tmp_path_factory, aligned_csv):
    out = tmp_path_factory.mktemp("pmodel")
    cfg = {
        "data": {"aligned": str(aligned_csv)},
        "model": {"kind": "persistence"},
        "output": str(out),
    }
    cfg_path = out / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["train", "--config", str(cfg_path)]) == 0
    return out / "model.lcst"


class TestEvaluate:
    def test_persistence_baseline_end_to_end(self, persistence_model, aligned_csv,
                                             tmp_path, capsys):
        code = main(["evaluate", str(persistence_model), str(aligned_csv),
                     "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "MAPE" in out and "R^2" in out and "tolerance accuracy" in out
        assert (tmp_path / "report.json").exists()
        assert (tmp_path / "pred_vs_actual.csv").exists()
        assert (tmp_path / "error_histogram.csv").exists()

    def test_missing_artifact_clear_error(self, aligned_csv, tmp_path, capsys):
        code = main(["evaluate", str(tmp_path / "nope.lcst"), str(aligned_csv),
                     "--out", str(tmp_path)])
        assert code == 1
        assert "error[FileNotFound]" in capsys.readouterr().err

    @pytest.mark.parametrize("fractions", ["0.5,0.5,0.5", "0.5,0.5", "0.5,x,0.5"])
    def test_bad_fractions_flag_rejected(self, persistence_model, aligned_csv, tmp_path,
                                         capsys, fractions):
        code = main(["evaluate", str(persistence_model), str(aligned_csv),
                     "--fractions", fractions, "--out", str(tmp_path)])
        assert code == 1
        assert "error[ConfigError]" in capsys.readouterr().err

    def test_report_schema(self, persistence_model, aligned_csv, tmp_path):
        main(["evaluate", str(persistence_model), str(aligned_csv),
              "--out", str(tmp_path)])
        doc = json.loads((tmp_path / "report.json").read_text())
        for key in ("model_kind", "selector", "split", "mape_pct", "r2",
                    "tolerance", "ape_pct", "n_points"):
            assert key in doc
        assert doc["split"] == "test"


class TestPredict:
    def test_four_hourly_values(self, persistence_model, aligned_csv, capsys):
        code = main(["predict", str(persistence_model), str(aligned_csv),
                     "--at", "2015-01-02T12:00:00"])
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 4
        assert lines[0].startswith("2015-01-02T13:00:00 ")
        # persistence repeats the last observed load
        values = {float(line.split()[1]) for line in lines}
        assert len(values) == 1

    def test_gap_stamp_rejected(self, persistence_model, tmp_path, capsys):
        series = toy_series(60, seed=1, missing=(30, 31))
        gappy = tmp_path / "gappy.csv"
        write_aligned_csv(series, gappy)
        end = format_hour(series.stamps[series.segments[1][0] + 1])
        code = main(["predict", str(persistence_model), str(gappy), "--at", end])
        assert code == 1
        assert "error[NotContiguous]" in capsys.readouterr().err


class TestGrid:
    def test_custom_grid_config(self, aligned_csv, tmp_path):
        grid_cfg = {
            "name": "mini",
            "rows": [
                {"name": "persistence", "features": {},
                 "model": {"kind": "persistence"}},
                {"name": "svr", "features": {"weather_features": ["temp"]},
                 "model": {"kind": "svr", "svr_mode": "ridge"}},
            ],
            "seeds": [0],
        }
        cfg_path = tmp_path / "grid.json"
        cfg_path.write_text(json.dumps(grid_cfg))
        code = main(["grid", str(cfg_path), str(aligned_csv),
                     "--out", str(tmp_path / "out")])
        assert code == 0
        table = (tmp_path / "out" / "tables" / "table2.csv").read_text()
        assert len(table.strip().split("\n")) == 3

    @pytest.mark.parametrize("change", [
        {"rows": [{"name": "no_model", "features": {}}]},
        {"split": ["a", 1, 1]},
        {"rows": [{"name": 5, "model": {"kind": "persistence"}}]},
        # would write its artifacts outside --out
        {"rows": [{"name": "../../escaped", "model": {"kind": "persistence"}}]},
        {"seeds": []},
        {"split_mode": "random"},
    ])
    def test_malformed_grid_config_rejected(self, aligned_csv, tmp_path, capsys, change):
        grid_cfg = {"name": "mini", "seeds": [0],
                    "rows": [{"name": "p", "model": {"kind": "persistence"}}], **change}
        cfg_path = tmp_path / "grid.json"
        cfg_path.write_text(json.dumps(grid_cfg))
        code = main(["grid", str(cfg_path), str(aligned_csv), "--out", str(tmp_path / "out")])
        assert code == 1
        assert "error[InvalidConfig]" in capsys.readouterr().err
        assert not (tmp_path / "escaped").exists()

    def test_every_job_failing_exits_nonzero(self, aligned_csv, tmp_path, capsys):
        grid_cfg = {"name": "doomed", "seeds": [0], "rows": [
            {"name": "a", "model": {"kind": "lrcn", "conv_kernel": 7, "epochs": 1}}]}
        cfg_path = tmp_path / "grid.json"
        cfg_path.write_text(json.dumps(grid_cfg))
        out = tmp_path / "out"
        code = main(["grid", str(cfg_path), str(aligned_csv), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert "failures=1" in captured.out and "tables under" not in captured.out
        assert "failed a seed0: InvalidSpec" in captured.err
        assert captured.err.rstrip().split("\n")[-1] == (
            f"error[MissingRows]: every grid job failed, so no table was written; "
            f"see {out / 'grid.json'}")
        assert not (out / "tables").exists()

    def test_unknown_grid_name_lists_builtins(self, aligned_csv, tmp_path, capsys):
        code = main(["grid", "table9", str(aligned_csv), "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "table1" in err and "table5" in err

    def test_bad_seeds_flag_rejected(self, aligned_csv, tmp_path, capsys):
        code = main(["grid", "table1", str(aligned_csv), "--out", str(tmp_path),
                     "--seeds", "0,x"])
        assert code == 1
        assert "error[ConfigError]" in capsys.readouterr().err

    def test_builtin_table1_produces_four_rows(self, aligned_csv, tmp_path):
        code = main(["grid", "table1", str(aligned_csv), "--out", str(tmp_path),
                     "--seeds", "0"])
        assert code == 0
        table = (tmp_path / "tables" / "table1.csv").read_text()
        lines = table.strip().split("\n")
        assert len(lines) == 1 + 4
        assert [line.split(",")[0] for line in lines[1:]] == [
            "svr", "fcnn", "lstm", "lrcn"]

    def test_ablate_alias_runs_table5(self, aligned_csv, tmp_path):
        # trimmed seed list keeps this fast; table5 has 7 rows
        code = main(["ablate", str(aligned_csv), "--out", str(tmp_path),
                     "--seeds", "0"])
        assert code == 0
        table = (tmp_path / "tables" / "table5.csv").read_text()
        assert len(table.strip().split("\n")) == 1 + 7

    def test_rerun_resumes_without_retraining(self, aligned_csv, tmp_path,
                                              monkeypatch):
        grid_cfg = {
            "name": "mini",
            "rows": [{"name": "svr", "features": {"weather_features": ["temp"]},
                      "model": {"kind": "svr", "svr_mode": "ridge"}}],
            "seeds": [0],
        }
        cfg_path = tmp_path / "grid.json"
        cfg_path.write_text(json.dumps(grid_cfg))
        out = tmp_path / "out"
        assert main(["grid", str(cfg_path), str(aligned_csv), "--out", str(out)]) == 0
        table_before = (out / "tables" / "table2.csv").read_bytes()

        import loadcast.experiments as experiments

        def boom(*args, **kwargs):
            raise AssertionError("train must not run on resume")

        monkeypatch.setattr(experiments, "train", boom)
        assert main(["grid", str(cfg_path), str(aligned_csv), "--out", str(out)]) == 0
        assert (out / "tables" / "table2.csv").read_bytes() == table_before


@pytest.mark.parametrize("command", ["train", "grid"])
def test_config_nested_too_deep_is_bad_json(tmp_path, capsys, command):
    cfg_path = tmp_path / "deep.json"
    cfg_path.write_text("[" * 100000 + "]" * 100000)  # deeper than the recursion limit
    argv = {"train": ["train", "--config", str(cfg_path)],
            "grid": ["grid", str(cfg_path), str(tmp_path / "aligned.csv"),
                     "--out", str(tmp_path / "out")]}[command]
    assert main(argv) == 1
    assert "error[BadJson]" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["ingest", "train", "evaluate", "grid"])
def test_directory_as_input_file_is_os_error(tmp_path, capsys, command):
    d = str(tmp_path)
    argv = {"ingest": ["ingest", d, d, "--out", str(tmp_path / "out")],
            "train": ["train", "--config", d],
            "evaluate": ["evaluate", d, d, "--out", str(tmp_path / "out")],
            "grid": ["grid", d, d, "--out", str(tmp_path / "out")]}[command]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error[OSError]: ") and "Traceback" not in err


class TestAtomicWrites:
    @pytest.mark.parametrize("target", ["weather.csv", "aligned.csv", "config.json",
                                        "model.lcst", "history.csv", "report.json",
                                        "error_histogram.csv", "grid.json", "table2.csv"])
    def test_interrupted_write_keeps_previous_file(self, synth_dir, aligned_csv, tmp_path,
                                                   monkeypatch, target):
        other = tmp_path / "other"
        generate_synthetic(0.04, 5, other)
        aligned, model = tmp_path / "ing" / "aligned.csv", tmp_path / "train" / "model.lcst"
        cfg, grid_cfg = tmp_path / "run.json", tmp_path / "grid_cfg.json"
        cfg.write_text(json.dumps(train_config(aligned, tmp_path / "train")))

        def run_all(variant):  # the second variant changes every file the first wrote
            src = (synth_dir, other)[variant]
            # a persistence table is the same under any seed, so its row name changes
            row = {"name": f"p{variant}", "model": {"kind": "persistence"}}
            grid_cfg.write_text(json.dumps({"name": "mini", "rows": [row]}))
            for argv in (
                    ["synth", "--years", "0.01", "--seed", str(variant),
                     "--out", str(tmp_path / "synth")],
                    ["ingest", str(src / "load.csv"), str(src / "weather.csv"),
                     "--out", str(aligned.parent)],
                    ["train", "--config", str(cfg), "--seed", str(variant)],
                    ["evaluate", str(model), str(aligned), "--split", ("test", "val")[variant],
                     "--out", str(tmp_path / "eval")],
                    ["grid", str(grid_cfg), str(aligned_csv), "--seeds", str(variant),
                     "--out", str(tmp_path / "grid")]):
                try:
                    assert main(argv) == 0
                except KeyboardInterrupt:
                    interrupted.append(argv[0])

        interrupted = []
        run_all(0)
        before = {p: p.read_bytes() for p in tmp_path.rglob(target)}
        real_replace = os.replace

        def replace(src, dst):
            if Path(dst).name == target:
                raise KeyboardInterrupt  # after the temporary file is written
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        run_all(1)
        assert interrupted
        assert {p: p.read_bytes() for p in tmp_path.rglob(target)} == before
        assert not [p for p in tmp_path.rglob("*.tmp")]


class TestHelp:
    @pytest.mark.parametrize("command", [
        [], ["ingest"], ["synth"], ["train"], ["evaluate"], ["predict"],
        ["grid"], ["ablate"],
    ])
    def test_help_exits_zero(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(command + ["--help"])
        assert exit_info.value.code == 0
        assert "usage" in capsys.readouterr().out.lower()
