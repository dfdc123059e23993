"""Command-line entry point: ingest, synth, train, evaluate, predict, grid,
and ablate subcommands over file-based artifacts.

All errors print ``error[<Code>]: <message>`` to stderr and exit nonzero;
every command is deterministic given its flags, config, seed, and inputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .codec import from_json, read_json, to_json, write_csv, write_json
from .dataset import (
    DEFAULT_FRACTIONS,
    WindowConfig,
    build_windows,
    check_fractions,
    chronological_split,
)
from .errors import ConfigError, LoadcastError, MissingRows
from .evaluation import emit_plot_data, evaluate
from .experiments import builtin_grids, grid_from_config, run_grid
from .features import FeatureSelector, all_features, assemble
from .ingest import format_hour, load_and_align, parse_hour, read_aligned_csv, write_aligned_csv
from .models import ModelSpec, load as load_model, predict_at, save as save_model, train
from .synthetic import generate_synthetic

#: ModelSpec fields that the run config lists under "training"; the rest go under "model"
_TRAINING_KEYS = ("epochs", "batch_size", "patience", "base_lr", "lr_decay", "seed")


def _spec_section(name: str, training: bool):
    """The ModelSpec fields of one run-config section; ModelSpec(kind="lstm") gives defaults."""
    lstm = ModelSpec(kind="lstm")
    return dataclasses.make_dataclass(
        name, [(f.name, f.type, dataclasses.field(default=getattr(lstm, f.name)))
               for f in dataclasses.fields(ModelSpec) if (f.name in _TRAINING_KEYS) == training],
        frozen=True, namespace={"__module__": __name__})


ModelSection = _spec_section("ModelSection", training=False)
TrainingSection = _spec_section("TrainingSection", training=True)


@dataclasses.dataclass(frozen=True)
class DataPaths:
    aligned: str | None = None
    load: str | None = None
    weather: str | None = None


@dataclasses.dataclass(frozen=True)
class Split:
    train: float = DEFAULT_FRACTIONS[0]
    val: float = DEFAULT_FRACTIONS[1]
    test: float = DEFAULT_FRACTIONS[2]

    def __post_init__(self):
        check_fractions(dataclasses.astuple(self))


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """A run config; its JSON form is the config file and `<output>/config.json`."""

    data: DataPaths = DataPaths()
    window: WindowConfig = WindowConfig()
    features: FeatureSelector = all_features()
    model: ModelSection = ModelSection()
    training: TrainingSection = TrainingSection()
    split: Split = Split()
    output: str = "out"


def resolve_config(doc) -> RunConfig:
    """Read a run config; malformed is ConfigError, except ModelSpec's own ranges."""
    try:
        return from_json(RunConfig, doc)
    except ValueError as exc:  # from the codec and the records' own checks
        raise ConfigError(str(exc)) from None


def _load_series(data: DataPaths):
    if data.aligned:
        return read_aligned_csv(data.aligned)
    if data.load and data.weather:
        return load_and_align(data.load, data.weather)
    raise ConfigError("data section needs 'aligned' or both 'load' and 'weather'")


def _parse_fractions(text: str) -> tuple[float, float, float]:
    try:
        return check_fractions([float(p) for p in text.split(",") if p])
    except ValueError as exc:
        raise ConfigError(f"--fractions {text!r}: {exc}") from None


def cmd_ingest(args) -> int:
    series = load_and_align(args.load_csv, args.weather_csv)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / "aligned.csv"
    write_aligned_csv(series, out_path)
    span_hours = int((series.stamps[-1] - series.stamps[0]).astype(np.int64)) + 1
    gap_hours = span_hours - len(series)
    print(f"wrote {out_path}")
    print(f"rows={len(series)} segments={len(series.segments)} gap_hours={gap_hours}")
    return 0


def cmd_synth(args) -> int:
    load_path, weather_path = generate_synthetic(args.years, args.seed, args.out)
    print(f"wrote {load_path}")
    print(f"wrote {weather_path}")
    return 0


def cmd_train(args) -> int:
    run = resolve_config(read_json(args.config))
    if args.seed is not None:
        run = dataclasses.replace(run, training=dataclasses.replace(run.training, seed=args.seed))
    if args.out is not None:
        run = dataclasses.replace(run, output=args.out)
    spec = ModelSpec(**vars(run.model), **vars(run.training))

    series = _load_series(run.data)
    matrix = assemble(series, run.features)
    raw = build_windows(matrix, series.segments, series.stamps, run.window)
    ds = chronological_split(raw, dataclasses.astuple(run.split))
    model = train(ds, spec, run.features)

    out_dir = Path(run.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(out_dir / "config.json", to_json(run))
    model_path = out_dir / "model.lcst"
    save_model(model, model_path)
    write_csv(out_dir / "history.csv", ["epoch", "train_loss", "val_loss"], model.history)
    print(f"wrote {model_path}")
    print(f"kind={spec.kind} windows={len(ds)} train={ds.n_train} "
          f"val={ds.n_val} test={ds.n_test} epochs_run={len(model.history)}")
    return 0


def cmd_evaluate(args) -> int:
    model = load_model(args.model)
    series = read_aligned_csv(args.aligned_csv)
    matrix = assemble(series, model.selector)
    raw = build_windows(matrix, series.segments, series.stamps, model.window)
    ds = chronological_split(raw, _parse_fractions(args.fractions))
    report = evaluate(model, ds, args.split)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    report.save_json(out_dir / "report.json")
    emit_plot_data(report, "pred_vs_actual", out_dir / "pred_vs_actual.csv")
    emit_plot_data(report, "error_histogram", out_dir / "error_histogram.csv")

    print(f"split={report.split} samples={report.n_samples} points={report.n_points}")
    print(f"MAPE {report.mape_pct:.3f}%")
    print("R^2 " + ("n/a (constant actual)" if report.r2 is None else f"{report.r2:.3f}"))
    accs = "  ".join(f"<={int(t)}%: {100.0 * v:.1f}%" for t, v in sorted(report.tolerance.items()))
    print(f"tolerance accuracy: {accs}")
    return 0


def cmd_predict(args) -> int:
    model = load_model(args.model)
    series = read_aligned_csv(args.aligned_csv)
    try:
        at = parse_hour(args.at)
    except ValueError as exc:
        raise ConfigError(f"--at: {exc}") from None
    forecast = predict_at(model, series, at)
    hours = format_hour(at + np.arange(1, len(forecast) + 1))
    for hour, value in zip(hours, forecast):
        print(f"{hour} {value:.3f}")
    return 0


def _resolve_grid(name_or_path: str):
    grids = builtin_grids()
    if name_or_path in grids:
        return grids[name_or_path]
    path = Path(name_or_path)
    if path.exists():
        return grid_from_config(read_json(path))
    raise ConfigError(
        f"unknown grid {name_or_path!r}; builtins: {', '.join(sorted(grids))} "
        "(or pass a JSON grid config path)")


def cmd_grid(args) -> int:
    grid = _resolve_grid(args.grid)
    if args.seeds is not None:
        try:
            seeds = tuple(int(s) for s in args.seeds.split(",") if s)
        except ValueError:
            raise ConfigError(f"--seeds must be comma-separated integers, got {args.seeds!r}")
        if not seeds:
            raise ConfigError("--seeds must name at least one seed")
        grid = dataclasses.replace(grid, seeds=seeds)
    series = read_aligned_csv(args.aligned_csv)
    report = run_grid(grid, series, args.out, workers=args.workers)
    failures = {key: r.error for key, r in report.results.items() if r.error is not None}
    print(f"grid={grid.name} rows={len(grid.rows)} seeds={len(grid.seeds)} "
          f"failures={len(failures)}")
    for (row, seed), error in failures.items():
        print(f"  failed {row} seed{seed}: {error}", file=sys.stderr)
    if all(report.aggregate(row.name) is None for row in grid.rows):
        raise MissingRows(f"every grid job failed, so no table was written; "
                          f"see {Path(args.out) / 'grid.json'}")
    print(f"tables under {Path(args.out) / 'tables'}")
    return 0


def _add_grid_arguments(p: argparse.ArgumentParser, data_help: str) -> None:
    """The arguments after the grid's name, shared by `grid` and `ablate`."""
    p.add_argument("aligned_csv", help=data_help)
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument("--seeds", default=None, help="comma-separated seed list override")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes for the (row, seed) jobs that train")
    p.set_defaults(func=cmd_grid)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loadcast",
        description="Short-term electric load forecasting pipeline.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse, align, and write aligned.csv")
    p.add_argument("load_csv", help="CSV with header timestamp_cst,load_mw")
    p.add_argument("weather_csv", help="CSV with per-zone UTC weather rows")
    p.add_argument("--out", default="out", help="output directory")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("synth", help="generate seeded synthetic load/weather CSVs")
    p.add_argument("--years", type=float, default=1.0, help="series length in years")
    p.add_argument("--seed", type=int, default=0, help="generator seed")
    p.add_argument("--out", default="out", help="output directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train one model from a JSON run config")
    p.add_argument("--config", required=True, help="path to the run config")
    p.add_argument("--seed", type=int, default=None, help="override training.seed")
    p.add_argument("--out", default=None, help="override the output directory")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a saved model on a split")
    p.add_argument("model", help="path to model.lcst")
    p.add_argument("aligned_csv", help="aligned data to window and score")
    p.add_argument("--split", default="test", choices=("train", "val", "test"))
    p.add_argument("--fractions", default=",".join(map(str, DEFAULT_FRACTIONS)),
                   help="train,val,test fractions used to cut the splits")
    p.add_argument("--out", default="out", help="output directory")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("predict", help="forecast the hours after a timestamp")
    p.add_argument("model", help="path to model.lcst")
    p.add_argument("aligned_csv", help="aligned data containing the input hours")
    p.add_argument("--at", required=True,
                   help="last input hour, e.g. 2015-06-01T12:00:00 (CST)")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("grid", help="run a builtin or custom experiment grid")
    p.add_argument("grid", help="builtin name (table1..table5) or grid JSON path")
    _add_grid_arguments(p, "aligned data for every grid row")

    p = sub.add_parser("ablate", help="run the leave-one-feature-out ablation grid")
    _add_grid_arguments(p, "aligned data for every ablation row")
    p.set_defaults(grid="table5")

    return parser


#: the code that `main` prints for an error that is not a LoadcastError; the
#: first type that matches wins, so each subclass comes before its base
_ERROR_CODES = (
    (FileNotFoundError, "FileNotFound"),
    (OSError, "OSError"),  # a directory where a file is read, an --out that exists, ...
    (json.JSONDecodeError, "BadJson"),
    (ValueError, "ValueError"),
    (MemoryError, "MemoryError"),  # e.g. a series or network too large for any address space
)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (LoadcastError, *(t for t, _ in _ERROR_CODES)) as exc:
        code = exc.code if isinstance(exc, LoadcastError) else next(
            c for t, c in _ERROR_CODES if isinstance(exc, t))
        print(f"error[{code}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
