"""Acceptance suite.

One test per criterion, each printing a single pass/fail line (visible with
``pytest -s`` or in failure output):

  1. gradient correctness for every layer type vs central finite differences
  2. metric implementations vs brute-force recomputation
  3. window counts and gap safety vs brute-force enumeration
  4. linear-regressor solvers vs analytic oracles
  5. pipeline ordering on 2-year seeded synthetic data (every trained model
     kind beats the persistence benchmark; LSTM R^2 > 0.9)
  6. feature-grid sanity (informative features help; tolerance profile sane)
  7. determinism and round-trips (grid tables, artifacts, normalizer, CSV)
  8. persistence benchmark exactness (property test)
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import loadcast as lc
from loadcast.dataset import WindowConfig, build_windows, chronological_split
from loadcast.evaluation import evaluate
from loadcast.experiments import ExperimentGrid, GridRow, run_grid
from loadcast.features import FeatureSelector, all_features, assemble
from loadcast.models import ModelSpec, persistence_predict, predict_batch, train
from loadcast.neural import LSTM, Conv1D, Dense, Dropout, Network

from _util import max_grad_error, relu_preactivations_safe, toy_series


def report(criterion: int, name: str, detail: str = ""):
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {criterion}] PASS: {name}{suffix}")


# --- shared expensive fixture: the 2-year seeded synthetic dataset ----------

@pytest.fixture(scope="module")
def two_year_series(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth2y")
    load_path, weather_path = lc.generate_synthetic(2, 42, out)
    return lc.load_and_align(load_path, weather_path)


def dataset_for(series, selector, window=WindowConfig()):
    matrix = assemble(series, selector)
    raw = build_windows(matrix, series.segments, series.stamps, window)
    return chronological_split(raw)


# --- criterion 1: gradient correctness --------------------------------------

def _grad_configs(layer_kind: str, count: int = 20):
    """Yield `count` (net, x, target) triples with relu kinks avoided."""
    made = 0
    seed = 0
    while made < count:
        seed += 1
        rng = np.random.default_rng(hash((layer_kind, seed)) % 2**32)
        if layer_kind == "dense":
            b, i, o = rng.integers(2, 6), rng.integers(1, 7), rng.integers(1, 6)
            act = "relu" if seed % 2 else "identity"
            net = Network([Dense(int(i), int(o), act, rng)])
            x = rng.normal(size=(int(b), int(i)))
            target = rng.normal(size=(int(b), int(o)))
        elif layer_kind == "conv1d":
            b, t, c, f = rng.integers(1, 4), rng.integers(3, 8), rng.integers(1, 4), rng.integers(1, 4)
            k = int(rng.integers(1, t + 1))
            net = Network([Conv1D(int(c), int(f), k, rng)])
            x = rng.normal(size=(int(b), int(t), int(c)))
            target = rng.normal(size=(int(b), int(t) - k + 1, int(f)))
        elif layer_kind == "lstm":
            b, t, c, h = rng.integers(1, 4), rng.integers(1, 5), rng.integers(1, 5), rng.integers(2, 6)
            net = Network([LSTM(int(c), int(h), rng)])
            x = rng.normal(size=(int(b), int(t), int(c)))
            target = rng.normal(size=(int(b), int(t), int(h)))
        elif layer_kind == "dropout":
            b, c = rng.integers(2, 6), rng.integers(2, 8)
            net = Network([Dropout(0.0)])
            x = rng.normal(size=(int(b), int(c)))
            target = rng.normal(size=(int(b), int(c)))
        else:
            raise ValueError(layer_kind)
        net.forward(x, training=(layer_kind == "dropout"))
        if not relu_preactivations_safe(net):
            continue  # finite differences are invalid near a relu kink
        made += 1
        yield net, x, target


def test_criterion_1_gradient_correctness():
    worst = {}
    for kind in ("dense", "conv1d", "lstm", "dropout"):
        errors = [
            max_grad_error(net, x, target, h=1e-5, training=(kind == "dropout"))
            for net, x, target in _grad_configs(kind, count=20)
        ]
        worst[kind] = max(errors)
        assert worst[kind] < 1e-4, f"{kind}: max relative error {worst[kind]}"
    # mse loss gradient directly
    rng = np.random.default_rng(0)
    from loadcast.neural import mse_loss
    mse_worst = 0.0
    for _ in range(20):
        pred = rng.normal(size=(3, 4))
        target = rng.normal(size=(3, 4))
        _, grad = mse_loss(pred, target)
        h = 1e-5
        it = np.nditer(pred, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = pred[idx]
            pred[idx] = orig + h
            lp, _ = mse_loss(pred, target)
            pred[idx] = orig - h
            lm, _ = mse_loss(pred, target)
            pred[idx] = orig
            num = (lp - lm) / (2 * h)
            rel = abs(num - grad[idx]) / max(1e-6, abs(num) + abs(grad[idx]))
            mse_worst = max(mse_worst, rel)
    assert mse_worst < 1e-4
    worst["mse"] = mse_worst
    report(1, "gradient correctness",
           "max rel err " + ", ".join(f"{k}={v:.2e}" for k, v in worst.items()))


# --- criterion 2: metric oracles ---------------------------------------------

def test_criterion_2_metric_oracles():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        n = int(rng.integers(2, 40))
        actual = rng.uniform(1.0, 1e5, size=n)
        pred = actual * (1.0 + rng.normal(0, 0.08, size=n))
        # brute-force recomputation with plain python loops
        ratios = [abs(p - a) / a for p, a in zip(pred, actual)]
        brute_mape = 100.0 * sum(ratios) / n
        assert abs(lc.mape(pred, actual) - brute_mape) < 1e-9
        mean = sum(actual) / n
        ss_res = sum((a - p) ** 2 for p, a in zip(pred, actual))
        ss_tot = sum((a - mean) ** 2 for a in actual)
        if ss_tot > 0:
            brute_r2 = 1.0 - ss_res / ss_tot
            assert abs(lc.r_squared(pred, actual) - brute_r2) < 1e-9
        acc = lc.tolerance_accuracy(pred, actual)
        for t, v in acc.items():
            brute = sum(1 for r in ratios if 100.0 * r <= t) / n
            assert abs(v - brute) < 1e-9
        values = [acc[t] for t in sorted(acc)]
        assert all(a <= b for a, b in zip(values, values[1:]))
    actual = np.array([3.0, 5.0, 9.0, 20.0])
    assert lc.r_squared(actual.copy(), actual) == 1.0
    assert lc.r_squared(np.full(4, actual.mean()), actual) == 0.0
    report(2, "metric oracles", "1000 random vectors within 1e-9")


# --- criterion 3: windowing oracle -------------------------------------------

def test_criterion_3_windowing_oracle():
    checked = 0
    for t1 in range(1, 9):
        for t2 in range(1, 7):
            cfg = WindowConfig(t1=t1, t2=t2)
            for length in range(1, 51):
                series = toy_series(length, seed=0)
                matrix = assemble(series, FeatureSelector())
                raw = build_windows(matrix, series.segments, series.stamps, cfg)
                assert len(raw) == max(0, length - (t1 + t2) + 1)
                checked += 1
    rng = np.random.default_rng(13)
    for _ in range(100):
        n = 100
        missing = tuple(np.flatnonzero(rng.random(n) < 0.12))
        t1 = int(rng.integers(1, 9))
        t2 = int(rng.integers(1, 7))
        series = toy_series(n, seed=3, missing=missing)
        matrix = assemble(series, FeatureSelector())
        raw = build_windows(matrix, series.segments, series.stamps,
                            WindowConfig(t1=t1, t2=t2))
        # brute-force: every admissible origin lies in a run of span
        # consecutive stamps, and the builder found exactly those
        stamp_set = set(series.stamps)
        span = t1 + t2
        expected = {
            s for s in series.stamps
            if all(s + k in stamp_set for k in range(span))
        }
        assert set(raw.origins) == expected
    report(3, "windowing oracle", f"{checked} (L, t1, t2) combos + 100 gap patterns")


# --- criterion 4: SVR oracle --------------------------------------------------

def test_criterion_4_svr_oracle():
    from loadcast.svr import fit_epsilon, fit_ridge
    rng = np.random.default_rng(11)
    worst = 0.0
    for n, d in [(30, 3), (120, 12), (300, 25), (500, 50)]:
        x = rng.normal(size=(n, d))
        y = x @ rng.normal(size=d) + rng.normal(0, 0.3, size=n)
        w, b = fit_ridge(x, y, lam=1e-10)
        a = np.hstack([x, np.ones((n, 1))])
        beta, *_ = np.linalg.lstsq(a, y, rcond=None)
        worst = max(worst, float(np.max(np.abs(w - beta[:d]))), abs(b - beta[d]))
    assert worst < 1e-6
    x = rng.uniform(-1, 1, size=(200, 1))
    y = 2.0 * x[:, 0] + 1.0
    w, b = fit_epsilon(x, y, epsilon=0.01, c=1.0)
    assert abs(w[0] - 2.0) < 0.05 and abs(b - 1.0) < 0.05
    report(4, "svr oracle",
           f"ridge max err {worst:.2e}; epsilon w={w[0]:.4f} b={b:.4f}")


# --- criterion 5: pipeline ordering on synthetic data ------------------------

def test_criterion_5_pipeline_ordering(two_year_series):
    selector = all_features()
    ds = dataset_for(two_year_series, selector)
    persistence = train(ds, ModelSpec(kind="persistence"), selector)
    benchmark = evaluate(persistence, ds, "test")

    results = {"persistence": (benchmark.mape_pct, benchmark.r2)}
    for kind in ("svr", "fcnn", "lstm", "lrcn"):
        model = train(ds, ModelSpec(kind=kind), selector)
        rep = evaluate(model, ds, "test")
        results[kind] = (rep.mape_pct, rep.r2)
        assert rep.mape_pct < benchmark.mape_pct, (
            f"{kind} MAPE {rep.mape_pct:.3f} not below persistence "
            f"{benchmark.mape_pct:.3f}")
    assert results["lstm"][1] > 0.9, f"LSTM R^2 {results['lstm'][1]:.4f} <= 0.9"
    detail = "; ".join(f"{k} MAPE {m:.3f}% R2 {r:.3f}" for k, (m, r) in results.items())
    report(5, "pipeline ordering", detail)


# --- criterion 6: feature-grid sanity -----------------------------------------

def test_criterion_6_feature_grid_sanity(two_year_series, tmp_path):
    lstm = ModelSpec(kind="lstm", lstm_hidden=32, lstm_layers=1, dense_size=64,
                     epochs=60, patience=10, batch_size=512)
    grid = ExperimentGrid(
        "feature_sanity",
        (
            GridRow("loads_only", lstm, FeatureSelector()),
            GridRow("load_hour_month_temp", lstm,
                    FeatureSelector(time_features=("hour", "month"),
                                    weather_features=("temp",))),
        ),
        seeds=(0, 1, 2),
    )
    grid_report = run_grid(grid, two_year_series, tmp_path / "grid")
    loads_only = grid_report.aggregate("loads_only")
    featured = grid_report.aggregate("load_hour_month_temp")
    assert loads_only is not None and featured is not None
    assert featured["mape_mean"] <= loads_only["mape_mean"], (
        f"features {featured['mape_mean']:.3f} > loads-only "
        f"{loads_only['mape_mean']:.3f}")

    # ablation-style ALL row: tolerance profile monotone, 5% above 1%,
    # and better than the persistence benchmark on the same windows
    selector = all_features()
    ds = dataset_for(two_year_series, selector)
    all_model = train(ds, dataclasses.replace(lstm, seed=0), selector)
    all_report = evaluate(all_model, ds, "test")
    accs = [all_report.tolerance[t] for t in sorted(all_report.tolerance)]
    assert all(a <= b for a, b in zip(accs, accs[1:]))
    assert all_report.tolerance[5.0] > all_report.tolerance[1.0]
    persistence = train(ds, ModelSpec(kind="persistence"), selector)
    bench = evaluate(persistence, ds, "test")
    assert all_report.mape_pct < bench.mape_pct
    report(6, "feature-grid sanity",
           f"loads-only {loads_only['mape_mean']:.3f}% vs featured "
           f"{featured['mape_mean']:.3f}%; ALL acc1 {all_report.tolerance[1.0]:.3f} "
           f"acc5 {all_report.tolerance[5.0]:.3f}")


# --- criterion 7: determinism and round-trips ---------------------------------

def test_criterion_7_determinism_and_round_trips(tmp_path):
    series = toy_series(200, seed=21)
    grid = ExperimentGrid(
        "det",
        (
            GridRow("fcnn",
                    ModelSpec(kind="fcnn", fcnn_hidden=(8,), epochs=3,
                              batch_size=64), FeatureSelector(time_features=("hour",))),
            GridRow("svr",
                    ModelSpec(kind="svr", svr_mode="ridge"), FeatureSelector()),
        ),
        seeds=(0,),
    )
    run_grid(grid, series, tmp_path / "a")
    run_grid(grid, series, tmp_path / "b")
    for rel in ("tables/table2.csv", "tables/table2.txt", "grid.json"):
        assert ((tmp_path / "a" / rel).read_bytes()
                == (tmp_path / "b" / rel).read_bytes()), f"{rel} differs"

    # model artifact round trip preserves predictions exactly
    selector = FeatureSelector(time_features=("hour",))
    ds = dataset_for(series, selector)
    model = train(ds, ModelSpec(kind="lstm", lstm_hidden=4, lstm_layers=1,
                                dense_size=8, epochs=2, batch_size=64), selector)
    path = tmp_path / "model.lcst"
    lc.save(model, path)
    loaded = lc.load(path)
    rng = np.random.default_rng(5)
    x = rng.uniform(30000, 50000, size=(100, 6, 2))
    assert np.array_equal(predict_batch(model, x), predict_batch(loaded, x))

    # normalizer round trip within 1e-9 relative
    norm = lc.Normalizer.fit(ds)
    y = rng.uniform(norm.target_min, norm.target_max, size=500)
    back = norm.inverse_transform_load(norm.transform_target(y))
    assert np.max(np.abs(back - y) / np.maximum(np.abs(y), 1e-12)) < 1e-9

    # aligned CSV round trip is exact
    path = tmp_path / "aligned.csv"
    lc.write_aligned_csv(series, path)
    back_series = lc.read_aligned_csv(path)
    assert np.array_equal(back_series.stamps, series.stamps)
    assert np.array_equal(back_series.load_mw, series.load_mw)
    assert np.array_equal(back_series.weather, series.weather)
    report(7, "determinism and round-trips")


# --- criterion 8: benchmark exactness ------------------------------------------

@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(min_value=1e-3, max_value=1e9, allow_nan=False),
                min_size=1, max_size=24),
       st.integers(min_value=1, max_value=12))
def test_criterion_8_persistence_exactness(loads, t2):
    out = persistence_predict(loads, t2)
    assert out.shape == (t2,)
    assert all(v == loads[-1] for v in out)


def test_criterion_8_report():
    report(8, "persistence benchmark exactness", "property test, 300 examples")
