"""Forecast accuracy metrics and plot-ready data emission.

Metrics pool over every sample and every look-ahead hour jointly. Tolerance
accuracy counts individual predicted points by default; a per-sample variant
(all look-ahead hours within tolerance) is computed alongside in reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codec import from_json, read_json, to_json, write_csv, write_json
from .dataset import WindowedDataset
from .errors import (
    DegenerateActual,
    EmptySplit,
    LengthMismatch,
    UnknownKind,
    ZeroActual,
)
from .features import WEATHER_FEATURES, FeatureSelector, assemble
from .models import TrainedModel, predict_batch

TOLERANCE_THRESHOLDS = (1.0, 2.0, 3.0, 4.0, 5.0)


def _check_pair(pred, actual):
    pred = np.asarray(pred, dtype=np.float64).reshape(-1)
    actual = np.asarray(actual, dtype=np.float64).reshape(-1)
    if pred.shape != actual.shape:
        raise LengthMismatch(f"pred has {pred.size} points, actual has {actual.size}")
    return pred, actual


def mape(pred, actual) -> float:
    """Mean absolute percentage error, in percent.

    Args:
        pred: predicted megawatt values.
        actual: observed megawatt values, all > 0.

    Returns:
        100 * mean(|pred - actual| / actual) over every point.
    """
    pred, actual = _check_pair(pred, actual)
    if actual.size == 0:
        raise LengthMismatch("empty input")
    if np.any(actual <= 0):
        raise ZeroActual("percentage error undefined for actual <= 0")
    return float(100.0 * np.mean(np.abs(pred - actual) / actual))


def r_squared(pred, actual) -> float:
    """Coefficient of determination: 1 - SS_res / SS_tot.

    Args:
        pred: predicted values.
        actual: observed values; at least 2 points, not all identical.
    """
    pred, actual = _check_pair(pred, actual)
    if actual.size < 2 or np.all(actual == actual[0]):
        raise DegenerateActual("R^2 undefined: actual values are constant or < 2")
    ss_res = float(np.sum((actual - pred) ** 2))
    ss_tot = float(np.sum((actual - actual.mean()) ** 2))
    return 1.0 - ss_res / ss_tot


def absolute_percentage_errors(pred, actual) -> np.ndarray:
    pred, actual = _check_pair(pred, actual)
    if np.any(actual <= 0):
        raise ZeroActual("percentage error undefined for actual <= 0")
    return 100.0 * np.abs(pred - actual) / actual


def tolerance_accuracy(pred, actual,
                       thresholds=TOLERANCE_THRESHOLDS) -> dict[float, float]:
    """Fraction of points whose absolute percentage error is <= each threshold.

    Returns:
        {threshold_pct: fraction in [0, 1]}, non-decreasing in the threshold.
    """
    errors = absolute_percentage_errors(pred, actual)
    if errors.size == 0:
        raise LengthMismatch("empty input")
    return {float(t): float(np.mean(errors <= t)) for t in thresholds}


@dataclass
class EvaluationReport:
    """Pooled accuracy metrics for one model on one split."""

    model_kind: str
    selector: FeatureSelector
    split: str
    n_samples: int
    n_points: int
    mape_pct: float
    r2: float | None
    degenerate_actual: bool
    tolerance: dict[float, float]
    tolerance_per_sample: dict[float, float]
    ape_pct: np.ndarray
    predicted: np.ndarray
    actual: np.ndarray

    def __post_init__(self):  # grid results and tables read exactly these thresholds
        if not set(self.tolerance) == set(self.tolerance_per_sample) == set(TOLERANCE_THRESHOLDS):
            raise ValueError(f"tolerance thresholds must be {TOLERANCE_THRESHOLDS}")

    def save_json(self, path) -> None:
        write_json(path, to_json(self))

    @classmethod
    def load_json(cls, path) -> "EvaluationReport":
        return from_json(cls, read_json(path))


def evaluate(model: TrainedModel, dataset: WindowedDataset, split: str) -> EvaluationReport:
    """Predict every sample in a split, denormalize, and pool all metrics."""
    inputs, targets = dataset.split_arrays(split)
    if len(inputs) == 0:
        raise EmptySplit(f"{split} split is empty")
    preds = predict_batch(model, inputs)  # (n, t2) MW
    flat_pred = preds.reshape(-1)
    flat_actual = targets.reshape(-1)
    ape = absolute_percentage_errors(flat_pred, flat_actual)
    degenerate = flat_actual.size < 2 or bool(np.all(flat_actual == flat_actual[0]))
    r2 = None if degenerate else r_squared(flat_pred, flat_actual)
    sample_ape = ape.reshape(targets.shape)
    per_sample = {float(t): float(np.mean(np.all(sample_ape <= t, axis=1)))
                  for t in TOLERANCE_THRESHOLDS}
    return EvaluationReport(
        model_kind=model.spec.kind,
        selector=model.selector,
        split=split,
        n_samples=len(inputs),
        n_points=flat_actual.size,
        mape_pct=mape(flat_pred, flat_actual),
        r2=r2,
        degenerate_actual=degenerate,
        tolerance=tolerance_accuracy(flat_pred, flat_actual),
        tolerance_per_sample=per_sample,
        ape_pct=ape,
        predicted=flat_pred,
        actual=flat_actual,
    )


PLOT_KINDS = ("scatter_load_vs_weather", "pred_vs_actual", "error_histogram")


def emit_plot_data(obj, kind: str, path, selector: FeatureSelector | None = None) -> None:
    """Write plot-ready CSV data.

    Kinds:
        pred_vs_actual      (EvaluationReport) one row per predicted point.
        error_histogram     (EvaluationReport) 50 equal-width bins of the
                            absolute percentage errors: edges + counts.
        scatter_load_vs_weather (AlignedSeries) load against each selected
                            weather channel, one row per aligned hour.
    """
    if kind not in PLOT_KINDS:
        raise UnknownKind(f"unknown plot kind {kind!r}; expected one of {PLOT_KINDS}")
    if kind == "pred_vs_actual":
        header = ["predicted_mw", "actual_mw"]
        rows = zip(obj.predicted.tolist(), obj.actual.tolist())
    elif kind == "error_histogram":
        counts, edges = np.histogram(obj.ape_pct, bins=50)
        header = ["bin_left_pct", "bin_right_pct", "count"]
        rows = zip(edges[:-1].tolist(), edges[1:].tolist(), counts.tolist())
    else:
        if selector is None:
            selector = FeatureSelector(weather_features=WEATHER_FEATURES)
        matrix = assemble(obj, FeatureSelector(weather_features=selector.weather_features,
                                               zones=selector.zones))
        header = ["load_mw", *matrix.channel_names[1:]]
        rows = matrix.values.tolist()
    write_csv(path, header, rows)
