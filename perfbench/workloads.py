"""The four benchmark workloads, each driven through loadcast's public API.

A workload builds its inputs in `setup` from the workload seed, then
`measure` repeats its round, a short fixed unit of work, for the measuring
time. Only program calls are timed; correctness checks run between rounds
and count towards `attempted` and `failed`.

Rounds are kept to a few hundred milliseconds at most, so that a run holds
well over a hundred of them: on a CPU whose speed flips between a fast and a
slow state every few seconds (a shared host), only a high percentile of many
short rounds repeats from run to run; medians and means do not.
See README.md for the reason behind each size.
"""

from __future__ import annotations

import dataclasses
import math
import os
import pickle
import shutil
import statistics
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np

import loadcast as lc
from loadcast import experiments

_now = time.perf_counter
HOURS_PER_YEAR = 8760
NETWORK_KINDS = ("fcnn", "lstm", "lrcn")


class Gate:
    """Operations and correctness checks attempted, and those that failed.

    An operation that raises ends the run, so only checks can fail here.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def operation(self) -> None:
        self.attempted += 1

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


class Rounds:
    """Times rounds, and decides whether another one fits the budget.

    Before each round, `between()` may run other work, such as a timed
    set-up sample; it returns the seconds spent, which do not count towards
    the budget.
    """

    def __init__(self, tracer, between=None):
        self.tracer = tracer
        self.between = between
        self.durations: list[float] = []
        self.started = _now()

    @contextmanager
    def timed(self):
        """Time one round; the yielded `paused()` block is left out of it."""
        if self.tracer is None:
            span = nullcontext()
        else:
            self.tracer.request = len(self.durations)
            span = self.tracer.span("bench.round")
        skipped = 0.0

        @contextmanager
        def paused():
            nonlocal skipped
            t = _now()
            try:
                yield
            finally:
                skipped += _now() - t

        with span:
            t0 = _now()
            try:
                yield paused
            finally:
                self.durations.append(_now() - t0 - skipped)

    def more(self, seconds: float) -> bool:
        """True until the next round, as long as the last, would overrun."""
        if self.between is not None:
            self.started += self.between()
        if not self.durations:
            return True
        return _now() - self.started + self.durations[-1] <= seconds


@dataclasses.dataclass
class Measured:
    rounds: list[float]     # seconds per round
    named: dict             # the workload's own metrics: name -> (value, unit)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with q % of values at or
    below it."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q / 100.0 * len(ordered)) - 1, 0)]


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least 10 samples beyond it.

    Returns (value, percentile, samples). With fewer than 11 samples no such
    percentile exists and the slowest sample stands in for it.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def _synthetic_series(hours: int, seed: int, out: Path):
    load_csv, weather_csv = lc.generate_synthetic(hours / HOURS_PER_YEAR, seed, out)
    return lc.load_and_align(load_csv, weather_csv)


def _windows(series, fractions=None):
    matrix = lc.assemble(series, lc.all_features())
    raw = lc.build_windows(matrix, series.segments, series.stamps, lc.WindowConfig())
    return lc.chronological_split(raw) if fractions is None \
        else lc.chronological_split(raw, fractions)


class Ingest:
    """CSV pair -> aligned series -> aligned.csv -> features -> windows."""

    name = "ingest"
    hours = 7 * 24
    setup_samples = 40

    def setup(self, work: Path, seed: int, gate: Gate) -> None:
        self.work = work
        self.load_csv, self.weather_csv = lc.generate_synthetic(
            self.hours / HOURS_PER_YEAR, seed, work)

    def measure(self, seconds: float, tracer, gate: Gate, between) -> Measured:
        rounds = Rounds(tracer, between)
        aligned_csv = self.work / "aligned.csv"
        windows = self.hours - lc.WindowConfig().span + 1
        while rounds.more(seconds):
            gate.operation()
            with rounds.timed():
                series = lc.load_and_align(self.load_csv, self.weather_csv)
                lc.write_aligned_csv(series, aligned_csv)
                again = lc.read_aligned_csv(aligned_csv)
                dataset = _windows(again)
            gate.check(len(series) == self.hours,
                       f"aligned rows {len(series)} != hours generated {self.hours}")
            gate.check(again.content_hash() == series.content_hash(),
                       "aligned.csv round trip changed the content hash")
            gate.check(len(dataset) == windows,
                       f"{len(dataset)} windows from {self.hours} gap-free hours")
        rows_per_s = self.hours / statistics.median(rounds.durations)
        return Measured(rounds.durations, {"ingest_rows_per_s": (rows_per_s, "rows/s")})


class Train:
    """One epoch each of fcnn, lstm and lrcn at batch 256 with evaluation,
    then epsilon-SVR to convergence once, outside the rounds."""

    name = "train"
    hours = 580   # 571 windows, of which 256 train: one batch
    epochs = 1
    setup_samples = 24
    # The SVR fits on a shorter train split: a fit to convergence takes
    # seconds, and its iteration count varies with the data seed.
    svr_fractions = (0.15, 0.15, 0.70)

    def setup(self, work: Path, seed: int, gate: Gate) -> None:
        series = _synthetic_series(self.hours, seed, work)
        self.dataset = _windows(series)
        self.svr_dataset = _windows(series, self.svr_fractions)
        rng = np.random.default_rng(seed)
        self.specs = [lc.ModelSpec(kind=k, epochs=self.epochs, patience=self.epochs,
                                   seed=int(rng.integers(2**31))) for k in NETWORK_KINDS]

    def measure(self, seconds: float, tracer, gate: Gate, between) -> Measured:
        selector = lc.all_features()
        rounds = Rounds(tracer, between)
        train_s: dict[str, list[float]] = {k: [] for k in NETWORK_KINDS}
        mape: dict[str, list[float]] = {}
        while rounds.more(seconds):
            models, reports = {}, {}
            gate.operation()
            with rounds.timed():
                for spec in self.specs:
                    t0 = _now()
                    models[spec.kind] = lc.train(self.dataset, spec, selector)
                    train_s[spec.kind].append(_now() - t0)
                    reports[spec.kind] = lc.evaluate(models[spec.kind], self.dataset, "test")
            self._check(models, reports, gate, mape)

        gate.operation()
        t0 = _now()
        svr = lc.train(self.svr_dataset, lc.ModelSpec(kind="svr"), selector)
        svr_s = _now() - t0
        self._check({}, {"svr": lc.evaluate(svr, self.dataset, "test")}, gate, mape)

        samples = self.dataset.n_train * self.epochs
        named = {f"train_samples_per_s.{k}": (samples / statistics.median(train_s[k]),
                                              "samples/s") for k in NETWORK_KINDS}
        named["svr_fit_s"] = (svr_s, "s")
        for kind, values in mape.items():
            named[f"test_mape_pct.{kind}"] = (statistics.median(values), "%")
        return Measured(rounds.durations, named)

    def _check(self, models, reports, gate: Gate, mape: dict) -> None:
        for kind, model in models.items():
            history = model.history
            gate.check(len(history) == self.epochs,
                       f"{kind} ran {len(history)} epochs, budget {self.epochs}")
            gate.check(all(np.isfinite(tr) and np.isfinite(va) for _, tr, va in history),
                       f"{kind} has a non-finite loss")
        for kind, report in reports.items():
            gate.check(bool(np.isfinite(report.predicted).all()),
                       f"{kind} predicted non-finite values")
            mape.setdefault(kind, []).append(report.mape_pct)


class Forecast:
    """One client in a closed loop sends predict_at requests to models that
    went through save/load; evaluate over the test split follows.

    A round is five requests for one forecast origin, one per kind in
    turn: single requests of the five kinds differ in cost, and a
    percentile over their mix moves with where it falls between kinds.
    """

    name = "forecast"
    hours = HOURS_PER_YEAR // 6   # two months, so that set-up can be sampled often
    setup_samples = 10
    kinds = ("persistence", "svr", "fcnn", "lstm", "lrcn")
    epochs = 1
    # share of the measuring time given to evaluate after the requests
    batch_share = 0.2

    def setup(self, work: Path, seed: int, gate: Gate) -> None:
        self.series = _synthetic_series(self.hours, seed, work)
        self.dataset = _windows(self.series)
        rng = np.random.default_rng(seed)
        selector = lc.all_features()
        self.models = {}
        test_x, _ = self.dataset.split_arrays("test")
        for kind in self.kinds:
            spec = lc.ModelSpec(kind=kind, svr_mode="ridge", epochs=self.epochs,
                                patience=self.epochs, seed=int(rng.integers(2**31)))
            trained = lc.train(self.dataset, spec, selector)
            path = work / f"{kind}.lcst"
            lc.save(trained, path)
            self.models[kind] = lc.load(path)
            gate.check(np.array_equal(lc.predict_batch(self.models[kind], test_x),
                                      lc.predict_batch(trained, test_x)),
                       f"loaded {kind} model predicts differently from the trained one")
        test = self.dataset.split_slice("test")
        t1 = self.dataset.cfg.t1
        row_of = {stamp: i for i, stamp in enumerate(self.series.stamps)}
        # a request names the last input hour; ask in a seeded order
        self.requests = [(i, self.series.stamps[row_of[self.dataset.origins[i]] + t1 - 1])
                         for i in test.start + rng.permutation(self.dataset.n_test)]

    def measure(self, seconds: float, tracer, gate: Gate, between) -> Measured:
        for kind in self.kinds:  # warm-up, not timed
            lc.predict_at(self.models[kind], self.series, self.requests[0][1])
        rounds = Rounds(tracer, between)
        latencies = []
        while rounds.more((1.0 - self.batch_share) * seconds):
            window, end = self.requests[len(rounds.durations) % len(self.requests)]
            forecasts = {}
            with rounds.timed():
                for kind in self.kinds:
                    t0 = _now()
                    forecasts[kind] = lc.predict_at(self.models[kind], self.series, end)
                    latencies.append(1e3 * (_now() - t0))
            for kind, forecast in forecasts.items():
                gate.operation()
                expected = lc.predict_batch(self.models[kind],
                                            self.dataset.inputs[window:window + 1])[0]
                gate.check(np.array_equal(forecast, expected),
                           f"predict_at({kind}, {end}) differs from predict_batch")

        passes = Rounds(None, between)
        mape = {}
        while passes.more(self.batch_share * seconds):
            gate.operation()
            with passes.timed():
                reports = {k: lc.evaluate(m, self.dataset, "test") for k, m in self.models.items()}
            for kind, report in reports.items():
                mape[kind] = report.mape_pct
                gate.check(bool(np.isfinite(report.predicted).all()),
                           f"{kind} evaluate predicted non-finite values")
        windows = self.dataset.n_test * len(self.kinds)
        tail_ms, pct, count = tail(latencies)
        named = {
            "forecast_p50_ms": (statistics.median(latencies), "ms"),
            "forecast_tail_ms": (tail_ms, "ms"),
            "forecast_tail_percentile": (pct, "%"),
            "forecast_requests": (count, "count"),
            "batch_forecast_windows_per_s": (windows / statistics.median(passes.durations),
                                             "windows/s"),
        }
        for kind, value in mape.items():
            named[f"test_mape_pct.{kind}"] = (value, "%")
        return Measured(rounds.durations, named)


class Grid:
    """A small ablation grid run cold with two workers, then resumed."""

    name = "grid"
    hours = 14 * 24
    setup_samples = 24
    workers = 2
    removed = ("temp", "wind")
    model = {"kind": "lstm", "lstm_hidden": 8, "lstm_layers": 1, "dense_size": 16,
             "dropout": 0.0, "epochs": 1, "patience": 1}

    def setup(self, work: Path, seed: int, gate: Gate) -> None:
        self.work = work
        self.series = _synthetic_series(self.hours, seed, work)
        rng = np.random.default_rng(seed)
        weather = ("temp", "swrad", "lwrad", "wind")
        time_features = ["hour", "day_of_week", "month"]
        # leave-one-out rows all have 28 channels, so the jobs are the same
        # size and the two workers finish together
        rows = [(f"{removed}_removed",
                 {"time_features": time_features,
                  "weather_features": [w for w in weather if w != removed]})
                for removed in self.removed]
        self.grid = experiments.grid_from_config({
            "name": "bench",
            "style": "table5",
            "seeds": [int(s) for s in rng.integers(2**31, size=2)],
            "rows": [{"name": n, "features": f, "model": self.model} for n, f in rows],
        })
        self.jobs = len(self.grid.rows) * len(self.grid.seeds)
        row = self.grid.rows[0]
        self.pickle_bytes = len(pickle.dumps(
            (self.grid, row, self.grid.seeds[0], self.series, work)))
        self.workers = min(self.workers, len(os.sched_getaffinity(0)))

    def measure(self, seconds: float, tracer, gate: Gate, between) -> Measured:
        rounds = Rounds(tracer, between)
        cold_s: list[float] = []
        resumed = failures = 0
        while rounds.more(seconds):
            out = self.work / f"grid{len(rounds.durations)}"
            gate.operation()
            with rounds.timed() as paused:
                t0 = _now()
                cold = experiments.run_grid(self.grid, self.series, out, workers=self.workers)
                cold_s.append(_now() - t0)
                with paused():
                    before = _snapshot(out)
                again = experiments.run_grid(self.grid, self.series, out, workers=self.workers)
            after = _snapshot(out)
            errors = [r for r in cold.results.values() if r.error is not None]
            failures += len(errors)
            gate.check(not errors, f"grid rows failed: {[r.error for r in errors]}")
            gate.check(len(cold.results) == self.jobs, "grid ran fewer jobs than rows x seeds")
            untouched = sum(1 for path, stamp in before.items()
                            if path.name == "model.lcst" and after.get(path) == stamp)
            resumed += untouched
            gate.check(untouched == self.jobs,
                       f"resume retrained {self.jobs - untouched} of {self.jobs} jobs")
            gate.check(before[out / "grid.json"][1] == after[out / "grid.json"][1],
                       "resumed grid.json differs from the cold run's")
            gate.check(again.to_json_dict() == cold.to_json_dict(),
                       "resumed report differs from the cold run's")
            shutil.rmtree(out)
        count = len(rounds.durations)
        named = {
            "grid_row_seeds_per_min": (60.0 * self.jobs / statistics.median(cold_s), "1/min"),
            "experiments.jobs": (self.jobs, "count"),
            "experiments.jobs_resumed_on_rerun_ratio": (resumed / (self.jobs * count), "ratio"),
            "experiments.row_failures": (failures / count, "count"),
            "experiments.series_pickle_bytes_per_job": (self.pickle_bytes, "bytes"),
        }
        return Measured(rounds.durations, named)


def _snapshot(root: Path) -> dict:
    """path -> (mtime_ns, bytes) for every file of a grid output directory."""
    return {p: (p.stat().st_mtime_ns, p.read_bytes())
            for p in sorted(root.rglob("*")) if p.is_file()}


WORKLOADS = {w.name: w for w in (Ingest, Train, Forecast, Grid)}
