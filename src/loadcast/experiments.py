"""Experiment harness: named feature/model grids, a resumable runner, and
deterministic table rendering.

Built-in grids:
    table1  four model kinds (svr, fcnn, lstm, lrcn) on all features
    table2  eleven feature combinations on the default LSTM
    table3  the same combinations on a double-width LSTM
    table4  the same combinations on the FCNN
    table5  leave-one-weather-feature-out ablation (each removed from all 8
            zones) plus a time-only row and an all-features FCNN row

Every grid row shares the same window origins, so results are comparable.
Failures are recorded per row; the run continues.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .codec import from_json, read_json, to_json, write_json, write_text
from .dataset import (
    DEFAULT_FRACTIONS,
    MIN_WINDOWS,
    WindowConfig,
    build_windows,
    check_fractions,
    chronological_split,
    window_starts,
)
from .errors import DatasetTooSmall, InvalidConfig, LoadcastError, MissingRows
from .evaluation import TOLERANCE_THRESHOLDS, EvaluationReport, evaluate
from .features import (
    TIME_FEATURES,
    WEATHER_FEATURES,
    FeatureSelector,
    all_features,
    assemble,
)
from .ingest import AlignedSeries
from .models import ModelSpec, load as load_model, save as save_model, train

DEFAULT_SEEDS = (0, 1, 2)
TABLE_STYLES = ("table1", "table2", "table5")
WORKER_LOST = "WorkerLost: a grid worker process died before this job's result came back"


@dataclass(frozen=True)
class GridRow:
    name: str
    model: ModelSpec
    features: FeatureSelector = FeatureSelector()

    def __post_init__(self):  # the name becomes a directory under rows/ and a table field
        name = self.name
        if not isinstance(name, str) or name in ("", ".", "..") or set(name) & set('/\\,"\r\n\0'):
            raise InvalidConfig("grid row name must be one path component without a comma, quote, "
                                f"line break or NUL, got {name!r}")


@dataclass(frozen=True)
class ExperimentGrid:
    """A grid config; its JSON form, the field names as keys, is the config
    file and the `config` of grid.json."""

    name: str = "custom"
    rows: tuple[GridRow, ...] = ()
    window: WindowConfig = WindowConfig()
    split: tuple[float, float, float] = DEFAULT_FRACTIONS
    seeds: tuple[int, ...] = DEFAULT_SEEDS
    style: str = "table2"
    split_mode: str = "chronological"

    def __post_init__(self):
        names = [r.name for r in self.rows]
        if len(set(names)) != len(names):
            raise InvalidConfig(f"duplicate grid row names in {self.name!r}")
        if len(set(self.seeds)) != len(self.seeds):
            raise InvalidConfig(f"duplicate seeds in grid {self.name!r}")
        if any(seed < 0 for seed in self.seeds):
            raise InvalidConfig(f"seeds must be >= 0 in grid {self.name!r}, got {self.seeds}")
        if self.style not in TABLE_STYLES:
            raise InvalidConfig(f"style must be one of {TABLE_STYLES}")
        if not self.rows or not self.seeds:
            raise InvalidConfig(f"grid {self.name!r} needs at least one row and one seed")
        try:
            check_fractions(self.split)
        except ValueError as exc:
            raise InvalidConfig(str(exc)) from None
        if self.split_mode != "chronological":
            raise InvalidConfig(f"split_mode must be 'chronological', got {self.split_mode!r}")


def grid_from_config(doc: dict) -> ExperimentGrid:
    """Read a grid config; unknown keys and wrong-typed values are InvalidConfig."""
    try:
        return from_json(ExperimentGrid, doc)
    except ValueError as exc:  # from the codec and the records' own checks
        raise InvalidConfig(str(exc)) from None


def _feature_rows() -> list[tuple[str, FeatureSelector]]:
    """The eleven feature combinations used by the sensitivity grids."""
    combos = [
        ("loads_only", (), ()),
        ("load_temp", (), ("temp",)),
        ("load_swrad", (), ("swrad",)),
        ("load_lwrad", (), ("lwrad",)),
        ("load_wind", (), ("wind",)),
        ("load_hour_temp", ("hour",), ("temp",)),
        ("load_hour_month_temp", ("hour", "month"), ("temp",)),
        ("load_hour_month_temp_swrad", ("hour", "month"), ("temp", "swrad")),
        ("load_hour_month_temp_swrad_wind", ("hour", "month"), ("temp", "swrad", "wind")),
        ("load_hour_month_temp_swrad_lwrad_wind", ("hour", "month"),
         ("temp", "swrad", "lwrad", "wind")),
        ("load_hour_dow_month_all_weather", TIME_FEATURES, WEATHER_FEATURES),
    ]
    return [(name, FeatureSelector(time_features=t, weather_features=w))
            for name, t, w in combos]


def builtin_grids() -> dict[str, ExperimentGrid]:
    full = all_features()
    lstm = ModelSpec(kind="lstm")
    fcnn = ModelSpec(kind="fcnn")
    feature_rows = _feature_rows()

    table1 = ExperimentGrid(
        "table1",
        tuple(GridRow(kind, ModelSpec(kind=kind), full)
              for kind in ("svr", "fcnn", "lstm", "lrcn")),
        style="table1",
    )
    table2 = ExperimentGrid(
        "table2", tuple(GridRow(n, lstm, s) for n, s in feature_rows))
    table3 = ExperimentGrid(
        "table3",
        tuple(GridRow(n, dataclasses.replace(lstm, width_multiplier=2), s)
              for n, s in feature_rows))
    table4 = ExperimentGrid(
        "table4", tuple(GridRow(n, fcnn, s) for n, s in feature_rows))

    ablation_rows = [GridRow("all", lstm, full)]
    for removed in WEATHER_FEATURES:
        kept = tuple(w for w in WEATHER_FEATURES if w != removed)
        ablation_rows.append(GridRow(
            f"{removed}_removed", lstm,
            FeatureSelector(time_features=TIME_FEATURES, weather_features=kept)))
    ablation_rows.append(GridRow(
        "time_only", lstm, FeatureSelector(time_features=TIME_FEATURES)))
    ablation_rows.append(GridRow("fcnn", fcnn, full))
    table5 = ExperimentGrid("table5", tuple(ablation_rows), style="table5")

    return {"table1": table1, "table2": table2, "table3": table3,
            "table4": table4, "table5": table5}


@dataclass
class RowSeedResult:
    """One job's outcome, filed under its (row name, seed)."""

    mape_pct: float | None = None
    r2: float | None = None
    tolerance: dict[float, float] | None = None
    error: str | None = None


@dataclass
class GridReport:
    grid: ExperimentGrid
    results: dict[tuple[str, int], RowSeedResult] = field(default_factory=dict)
    data_hash: str = ""
    config_hash: str = ""
    code_version: str = __version__

    def aggregate(self, row_name: str) -> dict | None:
        """Mean and best metrics over the seeds that succeeded, else None."""
        ok = [r for s in self.grid.seeds
              if (r := self.results.get((row_name, s))) is not None and r.error is None]
        if not ok:
            return None
        mapes = [r.mape_pct for r in ok]
        r2s = [r.r2 for r in ok if r.r2 is not None]
        agg = {
            "seeds_ok": len(ok),
            "mape_mean": float(np.mean(mapes)),
            "mape_best": float(np.min(mapes)),
            "r2_mean": float(np.mean(r2s)) if r2s else None,
            "r2_best": float(np.max(r2s)) if r2s else None,
            "tolerance_mean": {
                t: float(np.mean([r.tolerance[t] for r in ok]))
                for t in TOLERANCE_THRESHOLDS
            },
        }
        return agg

    def to_json_dict(self) -> dict:
        rows = {}
        for row in self.grid.rows:
            per_seed = {}
            for seed in self.grid.seeds:
                result = self.results.get((row.name, seed))
                if result is not None:
                    per_seed[str(seed)] = to_json(result)
            rows[row.name] = {"per_seed": per_seed, "aggregate": to_json(self.aggregate(row.name))}
        return {
            "config": to_json(self.grid),
            "config_hash": self.config_hash,
            "data_hash": self.data_hash,
            "code_version": self.code_version,
            "rows": rows,
        }


def _job_dir(out_dir: Path, row: GridRow, seed: int) -> Path:
    return out_dir / "rows" / row.name / f"seed{seed}"


def _reused(job_dir: Path) -> RowSeedResult | None:
    """A vouched job's result from its artifacts, or None when it must retrain."""
    try:
        load_model(job_dir / "model.lcst")  # checksum + structure check
        report = EvaluationReport.load_json(job_dir / "report.json")
    except (OSError, LoadcastError, ValueError):  # missing or invalid: retrain
        return None
    except Exception as exc:  # recorded as a failed row, as a training job's would be
        return RowSeedResult(error=f"{type(exc).__name__}: {exc}")
    return RowSeedResult(report.mape_pct, report.r2, dict(report.tolerance))


def _run_one(grid: ExperimentGrid, row: GridRow, seed: int, series: AlignedSeries,
             out_dir: Path) -> RowSeedResult:
    """Train, evaluate and save one job; a failure becomes its result."""
    job_dir = _job_dir(out_dir, row, seed)
    try:
        matrix = assemble(series, row.features)
        raw = build_windows(matrix, series.segments, series.stamps, grid.window)
        ds = chronological_split(raw, grid.split)
        model = train(ds, dataclasses.replace(row.model, seed=seed), row.features)
        report = evaluate(model, ds, "test")
        job_dir.mkdir(parents=True, exist_ok=True)
        save_model(model, job_dir / "model.lcst")
        report.save_json(job_dir / "report.json")
        return RowSeedResult(report.mape_pct, report.r2, dict(report.tolerance))
    except Exception as exc:  # record per-row failures, keep the run alive
        return RowSeedResult(error=f"{type(exc).__name__}: {exc}")


def _vouched_rows(record: Path, config_doc: dict, data_hash: str) -> set[str]:
    """Names of this grid's rows that the earlier `record` lists unchanged, if
    that record was made on the same data, window and split."""
    try:
        old = read_json(record)
        if (old["data_hash"], old["config"]["window"], old["config"]["split"]) == (
                data_hash, config_doc["window"], config_doc["split"]):
            return {row["name"] for row in config_doc["rows"] if row in old["config"]["rows"]}
    except (OSError, ValueError, LookupError, TypeError):
        pass  # no readable record: trust none of the artifacts
    return set()


@functools.cache
def _blas_threads():
    """The (get, set) thread-count functions of the OpenBLAS that numpy
    loaded, or None where numpy's build exports no such pair."""
    import ctypes

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))  # the copy numpy loaded: same file
            get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return get, put
    return None


@contextmanager
def _one_blas_thread():
    """Run the block with numpy's BLAS on one thread, then give the caller's
    thread count back; without a setter, leave the count alone.

    A matrix product sums in another order under another thread count, so
    this is what makes a grid's bytes independent of the host's threads.
    """
    blas = _blas_threads()
    if blas is None:
        yield
        return
    get, put = blas
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


def run_grid(grid: ExperimentGrid, series: AlignedSeries, out_dir,
             workers: int = 1) -> GridReport:
    """Train/evaluate every (row, seed), persist artifacts, render tables.

    `out_dir/grid.json` is written before the first job. A rerun reuses the
    artifacts that load of each row that the earlier record lists unchanged,
    on the same data, window and split; every other job retrains, and only
    those jobs reach the `workers` processes. Every job that trains runs on
    one BLAS thread. A job whose worker process dies is a failed row.
    """
    if workers < 1:
        raise InvalidConfig(f"workers must be >= 1, got {workers}")
    span = grid.window.span
    total = len(window_starts(series.segments, span))
    if total < MIN_WINDOWS:
        raise DatasetTooSmall(
            f"series yields {total} windows of {span} hours; need at least {MIN_WINDOWS}")

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    config_doc = to_json(grid)
    report = GridReport(
        grid,
        data_hash=series.content_hash(),
        config_hash=hashlib.sha256(
            json.dumps(config_doc, sort_keys=True).encode()).hexdigest(),
    )

    # Rows the earlier record does not vouch for lose their artifacts for every
    # seed before this run's record replaces it, so a run stopped at any point
    # leaves no artifact that a record falsely vouches for. Reuse is decided
    # here too, before the record is written and before any worker starts, so
    # a fully resumed grid rewrites no file and only the jobs that train reach
    # the pool. Every key is set in grid order, reused or not, since
    # `loadcast grid` lists failures in the order of `results`.
    record = out_dir / "grid.json"
    vouched = _vouched_rows(record, config_doc, report.data_hash)
    jobs = []
    for row in grid.rows:
        if row.name not in vouched:
            for name in ("model.lcst", "report.json"):
                for path in (out_dir / "rows" / row.name).glob(f"seed*/{name}"):
                    path.unlink()
        for seed in grid.seeds:
            result = _reused(_job_dir(out_dir, row, seed)) if row.name in vouched else None
            report.results[(row.name, seed)] = result
            if result is None:
                jobs.append((row, seed))
    write_json(record, report.to_json_dict())

    workers = min(workers, len(jobs))  # a pool starts every worker up front
    if jobs:
        # The count is set here, before the pool forks, so each worker
        # inherits one BLAS thread and starts no BLAS server thread. The fork
        # start is asked for by name: a spawned or forkserver worker would load
        # BLAS afresh at the host's count, and setting the count inside a
        # forked worker starts a server thread there: its jobs took twice as long.
        fork = multiprocessing.get_context("fork")
        with _one_blas_thread(), ProcessPoolExecutor(workers, mp_context=fork) \
                if workers > 1 else nullcontext() as pool:
            # one map per job, so when a worker dies every result that came
            # back is kept and only the jobs still out are lost
            pending = [(pool.map if pool else map)(
                _run_one, (grid,), (row,), (seed,), (series,), (out_dir,)) for row, seed in jobs]
            for (row, seed), one in zip(jobs, pending):
                try:
                    result = next(one)
                except BrokenProcessPool:  # a worker died: the pool lost every job still out
                    result = RowSeedResult(error=WORKER_LOST)
                report.results[(row.name, seed)] = result
                write_json(record, report.to_json_dict())  # a stopped grid keeps what finished

    tables = out_dir / "tables"
    try:
        text, csv_text = render_table(report, grid.style)
    except MissingRows:  # every row failed; grid.json carries the record
        for path in (tables / f"{grid.style}.txt", tables / f"{grid.style}.csv"):
            path.unlink(missing_ok=True)  # an earlier run's table would contradict it
        return report
    tables.mkdir(exist_ok=True)
    write_text(tables / f"{grid.style}.txt", text)
    write_text(tables / f"{grid.style}.csv", csv_text)
    return report


def format_mape(value: float) -> str:
    return f"{value:.3f}%"


def render_table(report: GridReport, style: str) -> tuple[str, str]:
    """Render aggregated grid results; returns (text_table, csv_table)."""
    if style not in TABLE_STYLES:
        raise InvalidConfig(f"style must be one of {TABLE_STYLES}")
    rows = [(r.name, report.aggregate(r.name)) for r in report.grid.rows]
    live = [(name, agg) for name, agg in rows if agg is not None]
    if not live:
        raise MissingRows("no grid row has an aggregated result")

    name_width = max(len(name) for name, _ in live)
    if style in ("table1", "table2"):
        csv_lines = ["row,mape_mean_pct,mape_best_pct,r2_mean,r2_best"]
        text_lines = [f"{'row':<{name_width}}  MAPE      R^2"]
        for name, agg in live:
            r2m = "" if agg["r2_mean"] is None else f"{agg['r2_mean']:.3f}"
            r2b = "" if agg["r2_best"] is None else f"{agg['r2_best']:.3f}"
            csv_lines.append(
                f"{name},{agg['mape_mean']:.3f},{agg['mape_best']:.3f},{r2m},{r2b}")
            text_lines.append(
                f"{name:<{name_width}}  {format_mape(agg['mape_mean']):<8}  {r2m or 'n/a'}")
    else:  # table5
        header = ",".join(f"acc{int(t)}pct" for t in TOLERANCE_THRESHOLDS)
        csv_lines = [f"row,{header},mape_mean_pct"]
        text_lines = [
            f"{'row':<{name_width}}  " +
            "  ".join(f"<={int(t)}%" for t in TOLERANCE_THRESHOLDS) + "   MAPE"]
        for name, agg in live:
            accs = [agg["tolerance_mean"][t] for t in TOLERANCE_THRESHOLDS]
            csv_lines.append(
                f"{name}," + ",".join(f"{100.0 * a:.3f}" for a in accs)
                + f",{agg['mape_mean']:.3f}")
            text_lines.append(
                f"{name:<{name_width}}  "
                + "  ".join(f"{100.0 * a:4.1f}%" for a in accs)
                + f"  {format_mape(agg['mape_mean'])}")
    return "\n".join(text_lines) + "\n", "\n".join(csv_lines) + "\n"
