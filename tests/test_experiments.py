import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

import loadcast.experiments as experiments
from loadcast.codec import to_json
from loadcast.dataset import WindowConfig
from loadcast.errors import DatasetTooSmall, InvalidConfig, LoadcastError, MissingRows
from loadcast.experiments import (
    ExperimentGrid,
    GridReport,
    GridRow,
    builtin_grids,
    format_mape,
    grid_from_config,
    render_table,
    run_grid,
)
from loadcast.features import FeatureSelector, all_features
from loadcast.models import ModelSpec, train
from loadcast.synthetic import generate_synthetic

from _util import mutated, toy_series


@pytest.fixture
def pool_starts(monkeypatch):
    """(max_workers, start method) of each pool run_grid starts; their jobs
    run in this process."""
    started = []

    class FakePool:
        def __init__(self, max_workers, mp_context=None):
            started.append((max_workers, mp_context and mp_context.get_start_method()))

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", FakePool)
    return started


def _no_training(*args, **kwargs):
    raise AssertionError("train must not run on resume")


def _files(root):
    """relative path -> bytes for every file under root."""
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


# One default LSTM row, trained in a fresh interpreter whose BLAS thread
# count comes from the environment: argv is the synthetic data directory and
# the grid's output directory.
THREADED_GRID = """
import sys
from loadcast.experiments import ExperimentGrid, GridRow, run_grid
from loadcast.ingest import align, parse_load_csv, parse_weather_csv
from loadcast.models import ModelSpec

data, out = sys.argv[1:]
series = align(parse_load_csv(data + "/load.csv"), parse_weather_csv(data + "/weather.csv"))
grid = ExperimentGrid("threads", (GridRow("lstm", ModelSpec(kind="lstm", epochs=1)),), seeds=(0,))
run_grid(grid, series, out, workers=1)
"""


def tiny_grid(seeds=(0, 1), name="tiny"):
    rows = (
        GridRow("persistence", ModelSpec(kind="persistence"), FeatureSelector()),
        GridRow("svr_ridge", ModelSpec(kind="svr", svr_mode="ridge"), all_features()),
    )
    return ExperimentGrid(name, rows, WindowConfig(), (0.45, 0.45, 0.10), seeds)


class TestBuiltinGrids:
    def test_table1_has_four_model_rows(self):
        grid = builtin_grids()["table1"]
        assert [r.name for r in grid.rows] == ["svr", "fcnn", "lstm", "lrcn"]
        assert all(r.features == all_features() for r in grid.rows)

    def test_table2_row7_selector(self):
        grid = builtin_grids()["table2"]
        row = grid.rows[6]
        assert row.name == "load_hour_month_temp"
        assert row.features == FeatureSelector(time_features=("hour", "month"),
                                               weather_features=("temp",))
        assert row.model.kind == "lstm" and row.model.width_multiplier == 1

    def test_table3_doubles_widths(self):
        grid = builtin_grids()["table3"]
        assert all(r.model.width_multiplier == 2 for r in grid.rows)

    def test_table4_uses_fcnn(self):
        grid = builtin_grids()["table4"]
        assert all(r.model.kind == "fcnn" for r in grid.rows)

    def test_table5_time_only_selector(self):
        grid = builtin_grids()["table5"]
        by_name = {r.name: r for r in grid.rows}
        assert by_name["time_only"].features == FeatureSelector(
            time_features=("hour", "day_of_week", "month"))

    def test_table5_removals_drop_exactly_eight_channels(self):
        grid = builtin_grids()["table5"]
        by_name = {r.name: r for r in grid.rows}
        full = by_name["all"].features.channel_count
        for removed in ("temp", "swrad", "lwrad", "wind"):
            row = by_name[f"{removed}_removed"]
            assert full - row.features.channel_count == 8

    def test_table5_includes_fcnn_reference_row(self):
        grid = builtin_grids()["table5"]
        by_name = {r.name: r for r in grid.rows}
        assert by_name["fcnn"].model.kind == "fcnn"
        assert by_name["fcnn"].features == all_features()
        assert grid.style == "table5"


class TestGridConfig:
    @pytest.mark.parametrize("name,digest", [
        ("table1", "85470eda95dc17a32a178b188cc34cd076603cf719993777531f627f64c8f579"),
        ("table2", "6ca76197980357e5d3450b118290c16dbd182c9758bf6aeb1148395590b31d5e"),
        ("table3", "94bce58d5d634b298627e41c9f2f23b21c0b369ea7b6653519d83181dd394fb7"),
        ("table4", "e054cdd45e327bcf1c33cefd9db3b0adb57a00b02176a6de1fb4da7865906ef1"),
        ("table5", "1fc708a48570f81259393944232fa13f817502728cb0886d31aae7e459b35446"),
    ])
    def test_builtin_config_hash_pinned(self, name, digest):
        # the config that grid.json records and config_hash hashes
        config = GridReport(builtin_grids()[name]).to_json_dict()["config"]
        assert hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest() == digest

    def test_wrong_typed_model_field_named(self):
        doc = to_json(tiny_grid())
        doc["rows"][1]["model"]["lstm_hidden"] = "64"
        with pytest.raises(InvalidConfig, match="GridRow.model: ModelSpec.lstm_hidden must be int"):
            grid_from_config(doc)

    def test_round_trip_through_config(self):
        grid = tiny_grid()
        back = grid_from_config(to_json(grid))
        assert back.rows == grid.rows
        assert back.seeds == grid.seeds

    def test_unknown_keys_rejected(self):
        doc = to_json(tiny_grid())
        doc["parallelism"] = 4
        with pytest.raises(InvalidConfig):
            grid_from_config(doc)

    def test_duplicate_row_names_rejected(self):
        rows = (GridRow("a", ModelSpec(kind="persistence"), FeatureSelector()),) * 2
        with pytest.raises(InvalidConfig):
            ExperimentGrid("dup", rows)

    def test_negative_seed_rejected(self):
        doc = to_json(tiny_grid())
        doc["seeds"] = [0, -1]
        with pytest.raises(InvalidConfig, match="seeds must be >= 0"):
            grid_from_config(doc)
        with pytest.raises(InvalidConfig, match="seeds must be >= 0"):
            dataclasses.replace(tiny_grid(), seeds=(-1,))  # as `--seeds -1` does

    def test_duplicate_seeds_rejected(self):
        doc = to_json(tiny_grid())
        doc["seeds"] = [1, 1, 2]
        with pytest.raises(InvalidConfig, match="duplicate seeds"):
            grid_from_config(doc)
        with pytest.raises(InvalidConfig, match="duplicate seeds"):
            dataclasses.replace(tiny_grid(), seeds=(3, 3))  # as `--seeds 3,3` does

    def test_bad_window_rejected(self):
        for window in ({"t1": 0}, {"t1": 6, "t2": 8785}, {"t1": 8785, "t2": 4}):
            doc = to_json(tiny_grid())
            doc["window"] = window
            with pytest.raises(InvalidConfig):
                grid_from_config(doc)

    def test_bad_split_rejected(self):
        for change in ({"split": [0.5, 0.5]}, {"split_mode": "random"}):
            doc = {**to_json(tiny_grid()), **change}
            with pytest.raises(InvalidConfig):
                grid_from_config(doc)

    def test_empty_seeds_rejected(self):
        doc = to_json(tiny_grid())
        doc["seeds"] = []
        with pytest.raises(InvalidConfig):
            grid_from_config(doc)
        with pytest.raises(InvalidConfig):
            tiny_grid(seeds=())

    @pytest.mark.parametrize("name", [5, None, "", ".", "..", "/tmp/x", "a/b", "a\\b",
                                      "a,b", 'a"b', "a\nb", "a\x00b"])
    def test_row_name_must_be_one_path_component(self, name):
        doc = to_json(tiny_grid())
        doc["rows"][1]["name"] = name
        with pytest.raises(InvalidConfig):
            grid_from_config(doc)

    @settings(max_examples=300, deadline=None)
    @given(doc=mutated(to_json(tiny_grid())))
    def test_mutated_config_builds_or_raises_loadcast_error(self, doc):
        try:
            grid_from_config(doc)
        except LoadcastError:
            pass


class TestRunGrid:
    def test_artifacts_and_reports_on_disk(self, tmp_path):
        grid = tiny_grid()
        series = toy_series(160, seed=1)
        report = run_grid(grid, series, tmp_path)
        for row in ("persistence", "svr_ridge"):
            for seed in (0, 1):
                assert (tmp_path / "rows" / row / f"seed{seed}" / "model.lcst").exists()
                assert (tmp_path / "rows" / row / f"seed{seed}" / "report.json").exists()
        assert (tmp_path / "grid.json").exists()
        assert (tmp_path / "tables" / "table2.csv").exists()
        assert (tmp_path / "tables" / "table2.txt").exists()
        assert len(report.results) == 4
        assert all(r.error is None for r in report.results.values())

    def test_rerun_is_bit_identical(self, tmp_path):
        series = toy_series(160, seed=1)
        run_grid(tiny_grid(), series, tmp_path / "a")
        run_grid(tiny_grid(), series, tmp_path / "b")
        for rel in ("tables/table2.csv", "tables/table2.txt", "grid.json"):
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()

    def test_resume_skips_valid_artifacts(self, tmp_path, monkeypatch):
        series = toy_series(160, seed=1)
        first = run_grid(tiny_grid(), series, tmp_path)
        monkeypatch.setattr(experiments, "train", _no_training)
        monkeypatch.setattr(experiments, "assemble", _no_training)
        second = run_grid(tiny_grid(), series, tmp_path)
        for key, result in second.results.items():
            assert result.error is None
            assert result.mape_pct == first.results[key].mape_pct

    def test_resume_ignores_artifacts_from_different_config(self, tmp_path):
        series = toy_series(160, seed=1)
        run_grid(tiny_grid(), series, tmp_path)
        # same row names, different model spec: stale artifacts must not be reused
        rows = (
            GridRow("persistence", ModelSpec(kind="persistence"), FeatureSelector()),
            GridRow("svr_ridge",
                    ModelSpec(kind="svr", svr_mode="ridge", svr_lambda=10.0), all_features()),
        )
        changed = ExperimentGrid("tiny", rows, WindowConfig(), (0.45, 0.45, 0.10), (0, 1))
        report = run_grid(changed, series, tmp_path)
        from loadcast.models import load as load_model
        saved = load_model(tmp_path / "rows" / "svr_ridge" / "seed0" / "model.lcst")
        assert saved.spec.svr_lambda == 10.0
        assert all(r.error is None for r in report.results.values())

    @pytest.mark.parametrize("window,fractions", [
        (WindowConfig(t1=2), (0.45, 0.45, 0.10)),
        (WindowConfig(), (0.40, 0.40, 0.20)),
        # moves only the train/val boundary; the test split keeps its 17 windows
        (WindowConfig(), (0.40, 0.4934, 0.1066)),
    ])
    def test_changed_window_or_split_retrains_every_row(self, tmp_path, window, fractions):
        series = toy_series(160, seed=1)
        run_grid(tiny_grid(), series, tmp_path / "reused")
        changed = dataclasses.replace(tiny_grid(), window=window, split=fractions)
        run_grid(changed, series, tmp_path / "reused")
        run_grid(changed, series, tmp_path / "fresh")
        files = [p for p in sorted((tmp_path / "fresh").rglob("*")) if p.is_file()]
        assert len(files) == 4 * 2 + 3
        for path in files:
            rel = path.relative_to(tmp_path / "fresh")
            assert (tmp_path / "reused" / rel).read_bytes() == path.read_bytes(), rel

    @pytest.mark.parametrize("case", ["other-data", "cut-grid-json", "no-grid-json",
                                      "other-seeds", "nested-grid-json"])
    def test_changed_data_retrains_every_row(self, tmp_path, case):
        # same length, so every window count and split size matches the first run
        seeds = (0, 1) if case == "other-seeds" else (0,)
        record = tmp_path / "reused" / "grid.json"
        run_grid(tiny_grid(seeds=seeds), toy_series(160, seed=1), tmp_path / "reused")
        if case == "cut-grid-json":  # a grid.json cut short by an interrupted write names no data
            record.write_bytes(record.read_bytes()[:100])
        elif case == "nested-grid-json":  # deeper than the recursion limit
            record.write_text("[" * 100_000 + "]" * 100_000)
        elif case == "no-grid-json":  # as if the first run stopped before writing it
            record.unlink()
        elif case == "other-seeds":  # a run of one seed on the new data comes between
            run_grid(tiny_grid(seeds=(0,)), toy_series(160, seed=2), tmp_path / "reused")
        run_grid(tiny_grid(seeds=seeds), toy_series(160, seed=2), tmp_path / "reused")
        run_grid(tiny_grid(seeds=seeds), toy_series(160, seed=2), tmp_path / "fresh")
        files = [p for p in sorted((tmp_path / "fresh").rglob("*")) if p.is_file()]
        assert len(files) == 2 * 2 * len(seeds) + 3
        for path in files:
            rel = path.relative_to(tmp_path / "fresh")
            assert (tmp_path / "reused" / rel).read_bytes() == path.read_bytes(), rel

    @pytest.mark.parametrize("change", [
        lambda doc: [],
        lambda doc: {**doc, "tolerance": []},
        lambda doc: {**doc, "degenerate_actual": "false"},
        lambda doc: {**doc, "n_samples": 12.7},
        lambda doc: {**doc, "r2": "0.9"},
        lambda doc: {**doc, "tolerance": {}},
        lambda doc: {**doc, "predicted": [[1.0]]},
        lambda doc: {**doc, "selector": {**doc["selector"], "include_load": "false"}},
        lambda doc: {k: v for k, v in doc.items() if k != "mape_pct"},
        lambda doc: "[" * 100_000 + "]" * 100_000,
    ], ids=["list", "tolerance-list", "bool-text", "fractional-count", "number-text",
            "no-thresholds", "nested-array", "selector-bool-text", "missing-field",
            "nested-too-deep"])
    def test_malformed_vouched_report_retrains(self, tmp_path, change):
        series = toy_series(160, seed=1)
        run_grid(tiny_grid(seeds=(0,)), series, tmp_path / "reused")
        report = tmp_path / "reused" / "rows" / "svr_ridge" / "seed0" / "report.json"
        doc = change(json.loads(report.read_text()))
        report.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        run_grid(tiny_grid(seeds=(0,)), series, tmp_path / "reused")
        run_grid(tiny_grid(seeds=(0,)), series, tmp_path / "fresh")
        files = [p for p in sorted((tmp_path / "fresh").rglob("*")) if p.is_file()]
        assert len(files) == 2 * 2 + 3
        for path in files:
            rel = path.relative_to(tmp_path / "fresh")
            assert (tmp_path / "reused" / rel).read_bytes() == path.read_bytes(), rel

    def test_failures_recorded_not_fatal(self, tmp_path):
        rows = (
            GridRow("persistence", ModelSpec(kind="persistence"), FeatureSelector()),
            # conv kernel larger than the window: this row must fail cleanly
            GridRow("bad_lrcn",
                    ModelSpec(kind="lrcn", conv_kernel=7, epochs=1), FeatureSelector()),
        )
        grid = ExperimentGrid("mixed", rows, seeds=(0,))
        report = run_grid(grid, toy_series(160, seed=1), tmp_path)
        assert report.results[("persistence", 0)].error is None
        failure = report.results[("bad_lrcn", 0)]
        assert failure.error is not None and "InvalidSpec" in failure.error
        doc = json.loads((tmp_path / "grid.json").read_text())
        assert doc["rows"]["bad_lrcn"]["per_seed"]["0"]["error"] is not None
        assert doc["rows"]["bad_lrcn"]["aggregate"] is None

    def test_identical_test_origins_across_rows(self, tmp_path):
        from loadcast.dataset import build_windows, chronological_split
        from loadcast.features import assemble
        series = toy_series(200, seed=2)
        grid = tiny_grid()
        origins = []
        for row in grid.rows:
            matrix = assemble(series, row.features)
            raw = build_windows(matrix, series.segments, series.stamps, grid.window)
            ds = chronological_split(raw, grid.split)
            origins.append(ds.origins[ds.split_slice("test")])
        assert np.array_equal(origins[0], origins[1])

    def test_dataset_too_small(self, tmp_path):
        with pytest.raises(DatasetTooSmall, match="yields 2 windows of 10 hours"):
            run_grid(tiny_grid(), toy_series(11), tmp_path / "two")
        run_grid(tiny_grid(), toy_series(12), tmp_path / "three")  # 3 windows are enough

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_interrupted_grid_resumes_to_same_bytes(self, tmp_path, monkeypatch, k):
        series = toy_series(160)
        run_grid(tiny_grid(), series, tmp_path / "whole")
        calls = []
        save = experiments.save_model

        def save_until_stopped(*args):  # the k-th of the 4 jobs is stopped before its save
            calls.append(args)
            if len(calls) == k:
                raise KeyboardInterrupt
            return save(*args)

        with monkeypatch.context() as patch:
            patch.setattr(experiments, "save_model", save_until_stopped)
            with pytest.raises(KeyboardInterrupt):
                run_grid(tiny_grid(), series, tmp_path / "cut")
        doc = json.loads((tmp_path / "cut" / "grid.json").read_text())
        jobs = [(row.name, str(seed)) for row in tiny_grid().rows for seed in tiny_grid().seeds]
        listed = [(name, seed) for name, row in doc["rows"].items() for seed in row["per_seed"]]
        assert listed == jobs[:k - 1]  # the record lists exactly the jobs that finished
        run_grid(tiny_grid(), series, tmp_path / "cut")
        assert _files(tmp_path / "cut") == _files(tmp_path / "whole")

    def test_all_rows_failing_still_writes_grid_json(self, tmp_path):
        rows = (GridRow("bad",
                        ModelSpec(kind="lrcn", conv_kernel=7, epochs=1), FeatureSelector()),)
        grid = ExperimentGrid("doomed", rows, seeds=(0,))
        report = run_grid(grid, toy_series(160, seed=1), tmp_path)
        assert report.results[("bad", 0)].error is not None
        assert (tmp_path / "grid.json").exists()
        assert not (tmp_path / "tables").exists()

    def test_all_rows_failing_removes_earlier_tables(self, tmp_path):
        run_grid(tiny_grid(), toy_series(160, seed=1), tmp_path)
        style = tiny_grid().style
        assert (tmp_path / "tables" / f"{style}.csv").exists()
        rows = (GridRow("bad",
                        ModelSpec(kind="lrcn", conv_kernel=7, epochs=1), FeatureSelector()),)
        run_grid(ExperimentGrid("doomed", rows, seeds=(0,), style=style),
                 toy_series(160, seed=1), tmp_path)
        assert list((tmp_path / "tables").iterdir()) == []

    def test_workers_give_same_tables(self, tmp_path):
        series = toy_series(160, seed=1)
        run_grid(tiny_grid(), series, tmp_path / "serial", workers=1)
        run_grid(tiny_grid(), series, tmp_path / "par", workers=2)
        serial = _files(tmp_path / "serial")
        assert len(serial) == 4 * 2 + 3  # every model.lcst and report.json, grid.json, tables
        assert _files(tmp_path / "par") == serial
        run_grid(tiny_grid(), series, tmp_path / "par", workers=2)  # a resumed rerun
        assert _files(tmp_path / "par") == serial

    def test_grid_bytes_ignore_the_blas_thread_count(self, tmp_path):
        data = tmp_path / "data"
        generate_synthetic(0.25, 3, data)
        src = str(Path(experiments.__file__).parents[1])
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
            subprocess.run([sys.executable, "-c", THREADED_GRID, str(data),
                            str(tmp_path / f"threads{threads}")], env=env, check=True, timeout=300)
        one = _files(tmp_path / "threads1")
        assert len(one) == 5  # model.lcst, report.json, grid.json and both tables
        assert _files(tmp_path / "threads2") == one

    @pytest.mark.parametrize("raised", [ValueError, KeyboardInterrupt])
    def test_blas_threads_restored(self, tmp_path, monkeypatch, raised):
        blas = experiments._blas_threads()
        if blas is None:
            pytest.skip("numpy's BLAS exports no thread-count setter")
        get, put = blas
        caller = get()
        seen = []

        def probe(*args, **kwargs):
            seen.append(get())
            raise raised("boom")

        monkeypatch.setattr(experiments, "train", probe)
        put(caller + 1)
        try:
            if raised is KeyboardInterrupt:  # escapes run_grid
                with pytest.raises(KeyboardInterrupt):
                    run_grid(tiny_grid(), toy_series(160, seed=1), tmp_path)
            else:  # a failed row
                run_grid(tiny_grid(), toy_series(160, seed=1), tmp_path)
            assert set(seen) == {1}
            assert get() == caller + 1
        finally:
            put(caller)

    def test_dead_worker_is_a_failed_row(self, tmp_path, monkeypatch):
        series = toy_series(160, seed=1)
        grid = tiny_grid()
        others = [tmp_path / "rows" / row.name / f"seed{seed}" / "report.json"
                  for row in grid.rows for seed in grid.seeds][:-1]

        def die_last(ds, spec, features):  # the last job's worker exits once the rest are done
            if spec.kind == "svr" and spec.seed == 1:
                deadline = time.monotonic() + 60
                while not all(p.exists() for p in others) and time.monotonic() < deadline:
                    time.sleep(0.01)
                time.sleep(0.2)
                os._exit(1)
            return train(ds, spec, features)

        monkeypatch.setattr(experiments, "train", die_last)
        report = run_grid(grid, series, tmp_path, workers=2)
        failed = {key: r.error for key, r in report.results.items() if r.error is not None}
        assert failed == {("svr_ridge", 1): experiments.WORKER_LOST}
        doc = json.loads((tmp_path / "grid.json").read_text())
        assert doc["rows"]["svr_ridge"]["per_seed"]["1"]["error"] == experiments.WORKER_LOST
        assert doc["rows"]["svr_ridge"]["aggregate"]["seeds_ok"] == 1
        assert (tmp_path / "tables" / "table2.csv").exists()

    def test_fully_resumed_grid_writes_no_file(self, tmp_path):
        series = toy_series(160, seed=1)
        run_grid(tiny_grid(), series, tmp_path)

        def stamps():
            return {p: (p.stat().st_ino, p.stat().st_mtime_ns)
                    for p in sorted(tmp_path.rglob("*")) if p.is_file()}

        before = stamps()
        run_grid(tiny_grid(), series, tmp_path)
        assert stamps() == before

    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_below_one_rejected(self, tmp_path, workers):
        with pytest.raises(InvalidConfig, match="workers"):
            run_grid(tiny_grid(), toy_series(160, seed=1), tmp_path / "out", workers=workers)
        assert not (tmp_path / "out").exists()

    def test_pool_no_larger_than_the_jobs(self, tmp_path, pool_starts):
        report = run_grid(tiny_grid(), toy_series(160, seed=1), tmp_path, workers=5000)
        assert [size for size, _ in pool_starts] == [4]  # two rows, two seeds
        assert all(result.error is None for result in report.results.values())

    def test_pool_forks_its_workers(self, tmp_path, pool_starts):
        # a forked worker inherits the one BLAS thread set before the pool starts
        run_grid(tiny_grid(), toy_series(160, seed=1), tmp_path, workers=2)
        assert pool_starts == [(2, "fork")]

    def test_fully_resumed_grid_starts_no_pool(self, tmp_path, monkeypatch, pool_starts):
        series = toy_series(160, seed=1)
        first = run_grid(tiny_grid(), series, tmp_path, workers=2)
        pool_starts.clear()
        monkeypatch.setattr(experiments, "train", _no_training)
        second = run_grid(tiny_grid(), series, tmp_path, workers=2)
        assert pool_starts == []
        assert second.results == first.results
        assert list(second.results) == [(row.name, seed) for row in tiny_grid().rows
                                        for seed in (0, 1)]

    def test_one_job_left_trains_in_process(self, tmp_path, monkeypatch, pool_starts):
        series = toy_series(160, seed=1)
        run_grid(tiny_grid(), series, tmp_path / "fresh", workers=2)
        run_grid(tiny_grid(), series, tmp_path / "reused", workers=2)
        (tmp_path / "reused" / "rows" / "persistence" / "seed1" / "model.lcst").unlink()
        pool_starts.clear()
        trained = []

        def counted_train(*args, **kwargs):
            trained.append(args[1].kind)
            return train(*args, **kwargs)

        monkeypatch.setattr(experiments, "train", counted_train)
        report = run_grid(tiny_grid(), series, tmp_path / "reused", workers=2)
        assert pool_starts == [] and trained == ["persistence"]
        assert list(report.results) == [(row.name, seed) for row in tiny_grid().rows
                                        for seed in (0, 1)]
        assert _files(tmp_path / "reused") == _files(tmp_path / "fresh")

    def test_unexpected_load_error_is_a_failed_row(self, tmp_path, monkeypatch, pool_starts):
        series = toy_series(160, seed=1)
        run_grid(tiny_grid(), series, tmp_path, workers=2)
        pool_starts.clear()
        real_load = experiments.load_model

        def load_model(path):
            if path.parts[-3:-1] == ("svr_ridge", "seed1"):
                raise KeyError("boom")
            return real_load(path)

        monkeypatch.setattr(experiments, "load_model", load_model)
        monkeypatch.setattr(experiments, "train", _no_training)
        report = run_grid(tiny_grid(), series, tmp_path, workers=2)
        assert pool_starts == []
        assert report.results[("svr_ridge", 1)].error == "KeyError: 'boom'"
        assert [key for key, r in report.results.items() if r.error is not None] == [
            ("svr_ridge", 1)]
        doc = json.loads((tmp_path / "grid.json").read_text())
        assert doc["rows"]["svr_ridge"]["aggregate"]["seeds_ok"] == 1


class TestRenderTable:
    def test_mape_formatting(self):
        assert format_mape(1.336) == "1.336%"
        assert format_mape(1.3364999) == "1.336%"

    def test_missing_rows(self):
        report = GridReport(tiny_grid())
        with pytest.raises(MissingRows):
            render_table(report, "table2")

    def test_csv_row_counts(self, tmp_path):
        series = toy_series(160, seed=1)
        report = run_grid(tiny_grid(), series, tmp_path)
        _, csv_text = render_table(report, "table2")
        lines = csv_text.strip().split("\n")
        assert len(lines) == 1 + 2

    def test_table5_style_columns(self, tmp_path):
        series = toy_series(160, seed=1)
        grid = tiny_grid()
        report = run_grid(grid, series, tmp_path)
        text, csv_text = render_table(report, "table5")
        header = csv_text.strip().split("\n")[0].split(",")
        assert header == ["row", "acc1pct", "acc2pct", "acc3pct", "acc4pct",
                          "acc5pct", "mape_mean_pct"]
        assert "%" in text
