import csv
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from loadcast.dataset import WindowConfig, build_windows, chronological_split
from loadcast.errors import (
    DegenerateActual,
    LengthMismatch,
    UnknownKind,
    ZeroActual,
)
from loadcast.evaluation import (
    EvaluationReport,
    emit_plot_data,
    evaluate,
    mape,
    r_squared,
    tolerance_accuracy,
)
from loadcast.features import FeatureSelector, assemble
from loadcast.ingest import AlignedSeries
from loadcast.models import ModelSpec, train

from _util import BASE, toy_series


def brute_mape(pred, actual):
    total = 0.0
    for p, a in zip(pred, actual):
        total += abs(p - a) / a
    return 100.0 * total / len(pred)


def brute_r2(pred, actual):
    mean = sum(actual) / len(actual)
    ss_res = sum((a - p) ** 2 for p, a in zip(pred, actual))
    ss_tot = sum((a - mean) ** 2 for a in actual)
    return 1.0 - ss_res / ss_tot


def brute_tolerance(pred, actual, thresholds):
    out = {}
    for t in thresholds:
        hits = sum(1 for p, a in zip(pred, actual) if 100.0 * abs(p - a) / a <= t)
        out[t] = hits / len(pred)
    return out


class TestMape:
    def test_ten_percent(self):
        assert mape([110.0], [100.0]) == pytest.approx(10.0, rel=1e-12)

    def test_zero_for_perfect(self):
        assert mape([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_pooled_mean(self):
        assert mape([90.0, 110.0], [100.0, 100.0]) == pytest.approx(10.0, rel=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            mape([1.0], [1.0, 2.0])

    def test_zero_actual(self):
        with pytest.raises(ZeroActual):
            mape([1.0], [0.0])

    @settings(max_examples=100)
    @given(st.lists(st.floats(1.0, 1e5), min_size=2, max_size=20),
           st.floats(min_value=1e-3, max_value=1e3))
    def test_scale_invariance(self, actual, k):
        rng = np.random.default_rng(0)
        actual = np.array(actual)
        pred = actual * (1 + 0.1 * rng.standard_normal(len(actual)))
        assert mape(k * pred, k * actual) == pytest.approx(
            mape(pred, actual), rel=1e-9, abs=1e-9)


class TestRSquared:
    def test_perfect_is_exactly_one(self):
        actual = np.array([1.0, 2.0, 3.0])
        assert r_squared(actual.copy(), actual) == 1.0

    def test_mean_prediction_is_exactly_zero(self):
        actual = np.array([1.0, 2.0, 3.0, 10.0])
        pred = np.full(4, actual.mean())
        assert r_squared(pred, actual) == 0.0

    def test_degenerate_actual(self):
        with pytest.raises(DegenerateActual):
            r_squared([1.0, 2.0], [5.0, 5.0])
        with pytest.raises(DegenerateActual):
            r_squared([1.0], [5.0])

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            actual = rng.uniform(10, 100, size=30)
            pred = actual + rng.normal(0, 5, size=30)
            assert r_squared(pred, actual) == pytest.approx(
                brute_r2(pred, actual), rel=1e-12)


class TestToleranceAccuracy:
    def test_counting_example(self):
        actual = np.array([100.0, 100.0, 100.0])
        pred = np.array([100.5, 101.5, 102.5])  # errors 0.5%, 1.5%, 2.5%
        acc = tolerance_accuracy(pred, actual)
        assert acc[1.0] == pytest.approx(1 / 3)
        assert acc[2.0] == pytest.approx(2 / 3)
        assert acc[3.0] == 1.0

    def test_perfect_prediction(self):
        actual = np.array([50.0, 60.0])
        acc = tolerance_accuracy(actual.copy(), actual)
        assert all(v == 1.0 for v in acc.values())

    def test_monotone_on_random_vectors(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            actual = rng.uniform(10, 1000, size=40)
            pred = actual * (1 + rng.normal(0, 0.05, size=40))
            acc = tolerance_accuracy(pred, actual, thresholds=tuple(range(1, 11)))
            values = [acc[float(t)] for t in range(1, 11)]
            assert all(a <= b for a, b in zip(values, values[1:]))
            assert tolerance_accuracy(pred, actual, thresholds=(1e9,))[1e9] == 1.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        actual = rng.uniform(10, 100, size=200)
        pred = actual * (1 + rng.normal(0, 0.03, size=200))
        acc = tolerance_accuracy(pred, actual)
        brute = brute_tolerance(pred, actual, (1.0, 2.0, 3.0, 4.0, 5.0))
        for t in brute:
            assert acc[t] == pytest.approx(brute[t], abs=1e-12)


def _trained_on(series, selector=None, kind="persistence"):
    selector = selector or FeatureSelector()
    matrix = assemble(series, selector)
    raw = build_windows(matrix, series.segments, series.stamps, WindowConfig())
    ds = chronological_split(raw)
    return ds, train(ds, ModelSpec(kind=kind), selector)


class TestEvaluate:
    def test_constant_series_flags_degenerate_without_crash(self):
        stamps = BASE + np.arange(40)
        load = np.full(40, 42000.0)
        weather = np.full((40, 8, 4), 100.0)
        series = AlignedSeries(stamps, load, weather)
        ds, model = _trained_on(series)
        report = evaluate(model, ds, "test")
        assert report.mape_pct == 0.0
        assert report.degenerate_actual and report.r2 is None

    def test_report_consistent_with_stored_arrays(self):
        ds, model = _trained_on(toy_series(120, seed=4))
        report = evaluate(model, ds, "test")
        assert report.mape_pct == pytest.approx(
            mape(report.predicted, report.actual), rel=1e-12)
        assert report.r2 == pytest.approx(
            r_squared(report.predicted, report.actual), rel=1e-12)
        for t, v in report.tolerance.items():
            assert v == pytest.approx(np.mean(report.ape_pct <= t), abs=1e-12)

    def test_median_sanity(self):
        ds, model = _trained_on(toy_series(160, seed=5))
        report = evaluate(model, ds, "test")
        median = np.median(report.ape_pct)
        assert np.mean(report.ape_pct <= median) >= 0.5

    def test_per_sample_at_most_per_point(self):
        ds, model = _trained_on(toy_series(160, seed=6))
        report = evaluate(model, ds, "test")
        for t in report.tolerance:
            assert report.tolerance_per_sample[t] <= report.tolerance[t] + 1e-12

    def test_json_round_trip(self, tmp_path):
        ds, model = _trained_on(toy_series(100, seed=7))
        report = evaluate(model, ds, "test")
        path = tmp_path / "report.json"
        report.save_json(path)
        back = EvaluationReport.load_json(path)
        assert back.mape_pct == report.mape_pct
        assert back.tolerance == report.tolerance
        assert np.array_equal(back.ape_pct, report.ape_pct)
        assert back.selector == report.selector


class TestEmitPlotData:
    def _report(self):
        ds, model = _trained_on(toy_series(100, seed=8))
        return evaluate(model, ds, "test")

    def test_pred_vs_actual_row_count(self, tmp_path):
        report = self._report()
        path = tmp_path / "pva.csv"
        emit_plot_data(report, "pred_vs_actual", path)
        rows = list(csv.reader(path.open()))
        assert rows[0] == ["predicted_mw", "actual_mw"]
        assert len(rows) == report.n_points + 1

    def test_histogram_counts_sum_to_points(self, tmp_path):
        report = self._report()
        path = tmp_path / "hist.csv"
        emit_plot_data(report, "error_histogram", path)
        rows = list(csv.reader(path.open()))
        assert rows[0] == ["bin_left_pct", "bin_right_pct", "count"]
        assert len(rows) == 51
        assert sum(int(r[2]) for r in rows[1:]) == report.n_points

    def test_scatter_columns(self, tmp_path):
        series = toy_series(50, seed=9)
        selector = FeatureSelector(include_load=False,
                                   weather_features=("temp", "wind"), zones=(0, 1))
        path = tmp_path / "scatter.csv"
        emit_plot_data(series, "scatter_load_vs_weather", path, selector=selector)
        rows = list(csv.reader(path.open()))
        assert len(rows[0]) == 1 + 4  # load + 2 features x 2 zones
        assert len(rows) == 51

    @pytest.mark.parametrize("kind,digest", [
        ("pred_vs_actual", "d19fe6b027339d063f48f4258c3414d2775a6f5ef75788a201e4518753a6d575"),
        ("error_histogram", "1771708ec510ff68c79c0a1e059c6682f68aeee0e371330cc5a8d28477eda060"),
        ("scatter_load_vs_weather",
         "0d40cdf86a4ade6a267c26b1341652daf9a90a737b4be7a71301147394633843"),
    ])
    def test_golden_bytes(self, tmp_path, kind, digest):
        obj = toy_series(50, seed=9) if kind == "scatter_load_vs_weather" else self._report()
        emit_plot_data(obj, kind, tmp_path / "plot.csv")
        assert hashlib.sha256((tmp_path / "plot.csv").read_bytes()).hexdigest() == digest

    def test_unknown_kind(self, tmp_path):
        with pytest.raises(UnknownKind):
            emit_plot_data(self._report(), "violin", tmp_path / "x.csv")
