"""The model zoo behind one train/predict/save interface.

Kinds: persistence (repeat the most recent load), svr (one linear predictor
per look-ahead hour on the flattened window), fcnn, lstm, and lrcn. Networks
train with mini-batch Adam on MSE over normalized targets, early stopping on
validation loss, and best-epoch parameter restore. Training computes in
float32 on float64 parameters; prediction computes in float64.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import svr as svr_solvers
from .artifact import read_artifact, write_artifact
from .codec import from_json, to_json
from .dataset import Normalizer, WindowConfig, WindowedDataset
from .errors import (
    CorruptArtifact,
    EmptySplit,
    EmptyWindow,
    InvalidSpec,
    NonFiniteLoss,
    NotContiguous,
    ShapeMismatch,
)
from .features import FeatureSelector, feature_values
from .ingest import AlignedSeries, format_hour
from .neural import LSTM, Adam, Conv1D, Dense, Dropout, Flatten, Network, mse_loss

MODEL_KINDS = ("persistence", "svr", "fcnn", "lstm", "lrcn")
_FLOAT_MAX = sys.float_info.max


@dataclass(frozen=True)
class ModelSpec:
    """Architecture plus training hyperparameters for one model kind."""

    kind: str
    # network architecture
    fcnn_hidden: tuple[int, ...] = (128, 128, 64)
    lstm_hidden: int = 64
    lstm_layers: int = 2
    conv_filters: int = 32
    conv_kernel: int = 3
    conv_layers: int = 1
    dense_size: int = 128
    dropout: float = 0.2
    width_multiplier: int = 1
    # training
    epochs: int = 200
    batch_size: int = 256
    patience: int = 10
    base_lr: float = 1e-3
    lr_decay: float = 0.96
    seed: int = 0
    # svr solver
    svr_mode: str = "epsilon"
    svr_epsilon: float = 0.01
    svr_c: float = 1.0
    svr_lambda: float = 1e-6
    svr_max_iter: int = 20000

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise InvalidSpec(f"unknown model kind {self.kind!r}; expected one of {MODEL_KINDS}")
        if self.svr_mode not in ("epsilon", "ridge"):
            raise InvalidSpec(f"svr_mode must be 'epsilon' or 'ridge', got {self.svr_mode!r}")
        # bounds, not math.isfinite: an int may stand for a float, also one too big for it
        if not (0 < self.svr_c <= _FLOAT_MAX and 0 <= self.svr_epsilon <= _FLOAT_MAX):
            raise InvalidSpec(f"svr_c must be finite and > 0 and svr_epsilon finite and "
                              f">= 0, got {self.svr_c}, {self.svr_epsilon}")
        if not 0 <= self.svr_lambda <= _FLOAT_MAX:
            raise InvalidSpec(f"svr_lambda must be finite and >= 0, got {self.svr_lambda}")
        if self.svr_max_iter < 1:
            raise InvalidSpec(f"svr_max_iter must be >= 1, got {self.svr_max_iter}")
        for name in ("base_lr", "lr_decay"):
            if not 0 < getattr(self, name) <= _FLOAT_MAX:
                raise InvalidSpec(f"{name} must be finite and > 0, got {getattr(self, name)}")
        if not 0.0 <= self.dropout < 1.0:
            raise InvalidSpec(f"dropout must be in [0, 1), got {self.dropout}")
        if self.width_multiplier < 1:
            raise InvalidSpec("width_multiplier must be >= 1")
        if self.epochs < 1 or self.batch_size < 1:
            raise InvalidSpec("epochs and batch_size must be >= 1")
        if self.patience < 0:
            raise InvalidSpec("patience must be >= 0")
        if self.seed < 0:
            raise InvalidSpec(f"seed must be >= 0, got {self.seed}")
        for name in ("lstm_hidden", "lstm_layers", "conv_filters", "conv_kernel",
                     "conv_layers", "dense_size"):
            if getattr(self, name) < 1:
                raise InvalidSpec(f"{name} must be >= 1, got {getattr(self, name)}")
        if any(width < 1 for width in self.fcnn_hidden):
            raise InvalidSpec(f"fcnn_hidden widths must be >= 1, got {self.fcnn_hidden}")


@dataclass
class TrainedModel:
    """Spec, learned parameters, and everything needed to predict raw rows."""

    spec: ModelSpec
    selector: FeatureSelector
    window: WindowConfig
    normalizer: Normalizer
    channel_names: tuple[str, ...]
    load_channel: int
    params: dict[str, np.ndarray] = field(default_factory=dict)
    history: list[tuple[int, float, float]] = field(default_factory=list)


def persistence_predict(window_loads, t2: int) -> np.ndarray:
    """Repeat the most recent observed load for all t2 look-ahead hours."""
    loads = np.asarray(window_loads, dtype=np.float64)
    if loads.size == 0:
        raise EmptyWindow("persistence needs at least one load value")
    return np.full(t2, loads[-1])


def build_model(spec: ModelSpec, t1: int, channels: int, t2: int,
                rng: np.random.Generator | None = None) -> Network:
    """The network of the fcnn/lstm/lrcn kinds: Glorot-initialised from
    `rng`, or without one only the parameter shapes, for `Network.set_params`."""
    m = spec.width_multiplier
    layers = []
    if spec.kind == "fcnn":
        layers.append(Flatten())
        width_in = t1 * channels
        for width in spec.fcnn_hidden:
            layers.append(Dense(width_in, width * m, "relu", rng))
            width_in = width * m
        layers.append(Dense(width_in, t2, "identity", rng))
    elif spec.kind in ("lstm", "lrcn"):  # an lstm is an lrcn without the conv stack
        steps = t1
        width_in = channels
        for _ in range(spec.conv_layers if spec.kind == "lrcn" else 0):
            if steps < spec.conv_kernel:
                raise InvalidSpec(
                    f"conv stack consumes the {t1}-hour window: {steps} steps left "
                    f"for kernel {spec.conv_kernel}")
            layers.append(Conv1D(width_in, spec.conv_filters * m, spec.conv_kernel, rng))
            width_in = spec.conv_filters * m
            steps = steps - spec.conv_kernel + 1
        for _ in range(spec.lstm_layers):
            layers.append(LSTM(width_in, spec.lstm_hidden * m, rng))
            width_in = spec.lstm_hidden * m
        layers.append(Flatten())
        layers.append(Dense(steps * width_in, spec.dense_size * m, "relu", rng))
        layers.append(Dropout(spec.dropout))
        layers.append(Dense(spec.dense_size * m, t2, "identity", rng))
    else:
        raise InvalidSpec(f"{spec.kind!r} has no network architecture")
    return Network(layers)


def _batches(n: int, batch_size: int, order=None):
    idx = np.arange(n) if order is None else order
    for start in range(0, n, batch_size):
        yield idx[start:start + batch_size]


def _dataset_loss(net: Network, x: np.ndarray, y: np.ndarray, rows: np.ndarray, t1: int,
                  batch_size: int) -> float:
    """Mean float32 training loss of the windows at `rows` of `x` and `y`."""
    chunk = max(batch_size, 1024)  # no backward pass; larger chunks are cheaper
    total = 0.0
    for idx in _batches(len(rows), chunk):
        pred = net.forward(x[rows[idx, :t1]], training=False)
        loss, _ = mse_loss(pred, y[rows[idx, t1:]])
        total += loss * len(idx)
    return total / len(rows)


def _train_network(dataset: WindowedDataset, spec: ModelSpec, norm: Normalizer):
    if dataset.n_val == 0:  # an empty train split fails earlier, in Normalizer.fit
        raise EmptySplit("network training needs a non-empty val split")
    # per-element maps, so windows gathered after them equal the mapped windows
    matrix, t1 = dataset.matrix, dataset.cfg.t1
    x = norm.transform(matrix.values).astype(np.float32)
    y = norm.transform_target(matrix.values[:, matrix.load_channel]).astype(np.float32)
    train_rows, val_rows = dataset.rows("train"), dataset.rows("val")

    rng = np.random.default_rng(spec.seed)
    net = build_model(spec, t1, len(matrix.channel_names), dataset.cfg.t2, rng)
    optimizer = Adam(base_lr=spec.base_lr, decay_rate=spec.lr_decay)

    history: list[tuple[int, float, float]] = []
    best_val = np.inf
    best_params = None  # epoch 0 sets it: a finite val loss is below inf
    wait = 0
    for epoch in range(spec.epochs):
        order = rng.permutation(len(train_rows))
        total = 0.0
        for idx in _batches(len(train_rows), spec.batch_size, order):
            pred = net.forward(x[train_rows[idx, :t1]], training=True, rng=rng)
            loss, grad = mse_loss(pred, y[train_rows[idx, t1:]])
            if not np.isfinite(loss):
                raise NonFiniteLoss(f"training loss became {loss} at epoch {epoch}")
            net.zero_grads()
            net.backward(grad)
            optimizer.step(net.named_params(), net.named_grads(), epoch)
            total += loss * len(idx)
        train_loss = total / len(train_rows)
        val_loss = _dataset_loss(net, x, y, val_rows, t1, spec.batch_size)
        if not np.isfinite(val_loss):
            raise NonFiniteLoss(f"validation loss became {val_loss} at epoch {epoch}")
        history.append((epoch, train_loss, val_loss))
        if val_loss < best_val:
            best_val = val_loss
            best_params = net.get_params()
            wait = 0
        else:
            wait += 1
            if wait > spec.patience:
                break
    return best_params, history


def _train_svr(dataset: WindowedDataset, spec: ModelSpec, norm: Normalizer):
    x_raw, y_raw = dataset.split_arrays("train")
    x = norm.transform(x_raw).reshape(len(x_raw), -1)
    y = norm.transform_target(y_raw)
    t2 = dataset.cfg.t2
    w = np.zeros((t2, x.shape[1]))
    b = np.zeros(t2)
    for h in range(t2):
        if spec.svr_mode == "ridge":
            w[h], b[h] = svr_solvers.fit_ridge(x, y[:, h], spec.svr_lambda)
        else:
            w[h], b[h] = svr_solvers.fit_epsilon(
                x, y[:, h], epsilon=spec.svr_epsilon, c=spec.svr_c,
                max_iter=spec.svr_max_iter)
    return {"svr_w": w, "svr_b": b}


def train(dataset: WindowedDataset, spec: ModelSpec, selector: FeatureSelector) -> TrainedModel:
    """Fit one model of the requested kind; the normalizer is fitted on the
    train split and baked into the returned model."""
    norm = Normalizer.fit(dataset)
    params: dict[str, np.ndarray] = {}
    history: list[tuple[int, float, float]] = []
    if spec.kind == "persistence":
        pass
    elif spec.kind == "svr":
        params = _train_svr(dataset, spec, norm)
    else:
        params, history = _train_network(dataset, spec, norm)
    return TrainedModel(spec, selector, dataset.cfg, norm, dataset.matrix.channel_names,
                        dataset.matrix.load_channel, params, history)


def _network_for(model: TrainedModel) -> Network:
    net = build_model(model.spec, model.window.t1, len(model.channel_names), model.window.t2)
    net.set_params(model.params)
    return net


def predict_batch(model: TrainedModel, raw_inputs: np.ndarray) -> np.ndarray:
    """Raw (n, t1, channels) feature windows -> (n, t2) megawatt forecasts."""
    raw_inputs = np.asarray(raw_inputs, dtype=np.float64)
    expected = (model.window.t1, len(model.channel_names))
    if raw_inputs.ndim != 3 or raw_inputs.shape[1:] != expected:
        raise ShapeMismatch(
            f"expected (n, {expected[0]}, {expected[1]}) inputs, got {raw_inputs.shape}")
    t2 = model.window.t2
    if model.spec.kind == "persistence":
        last = raw_inputs[:, -1, model.load_channel]
        return np.repeat(last[:, None], t2, axis=1)
    x = model.normalizer.transform(raw_inputs)
    if model.spec.kind == "svr":
        y_norm = (x.reshape(len(x), math.prod(expected)) @ model.params["svr_w"].T
                  + model.params["svr_b"])
    else:
        y_norm = _network_for(model).forward(x, training=False)
    return model.normalizer.inverse_transform_load(y_norm)


def predict_at(model: TrainedModel, series: AlignedSeries, end: np.datetime64) -> np.ndarray:
    """Forecast the t2 hours after `end` from the t1 hours ending at `end`.

    The t1 input hours must be a gap-free run inside one segment.
    """
    t1 = model.window.t1
    end_idx = int(np.searchsorted(series.stamps, end))
    if end_idx == len(series) or series.stamps[end_idx] != end:
        raise NotContiguous(f"{format_hour(end)} is not present in the aligned series")
    start_idx = end_idx - t1 + 1
    if start_idx < 0:
        raise NotContiguous(f"fewer than {t1} hours available before {format_hour(end)}")
    # stamps strictly increase, so t1 rows span t1 - 1 hours only without a gap
    if series.stamps[end_idx] - series.stamps[start_idx] != t1 - 1:
        raise NotContiguous(f"the {t1} hours ending at {format_hour(end)} cross a gap")
    rows = slice(start_idx, end_idx + 1)  # features are per row: build only these
    values = feature_values(series.stamps[rows], series.load_mw[rows], series.weather[rows],
                            model.selector)
    return predict_batch(model, values[None])[0]


def save(model: TrainedModel, path) -> None:
    """Write the model as a `model.lcst` artifact: every field but `params`
    in the JSON header, `params` as binary arrays."""
    header = to_json(dataclasses.replace(model, params={}))
    del header["params"]
    write_artifact(path, header, model.params)


def load(path) -> TrainedModel:
    header, arrays = read_artifact(path)
    try:
        model = from_json(TrainedModel, header)
    except (ValueError, InvalidSpec) as exc:
        raise CorruptArtifact(f"malformed artifact header: {exc}") from None
    spec, names, norm = model.spec, model.selector.channel_names(), model.normalizer
    if (model.channel_names != names or "load" not in names
            or model.load_channel != names.index("load")
            or any(len(v) != len(names) for v in (norm.channel_min, norm.channel_max))):
        raise CorruptArtifact("artifact channels or normalizer do not fit its feature selector")
    t1, t2, channels = model.window.t1, model.window.t2, len(names)
    if spec.kind == "persistence":
        expected = {}
    elif spec.kind == "svr":
        expected = {"svr_w": (t2, t1 * channels), "svr_b": (t2,)}
    else:
        # the stored arrays bound the depth of the network built to check them
        count = (2 * (len(spec.fcnn_hidden) + 1) if spec.kind == "fcnn" else
                 2 * spec.conv_layers * (spec.kind == "lrcn") + 3 * spec.lstm_layers + 4)
        if count != len(arrays):
            raise CorruptArtifact(f"{spec.kind} artifact arrays do not fit its spec: "
                                  f"it declares {count} arrays and stores {len(arrays)}")
        try:
            expected = build_model(spec, t1, channels, t2).named_shapes()
        except InvalidSpec as exc:
            raise CorruptArtifact(f"malformed artifact header: {exc}") from None
    shapes = {name: value.shape for name, value in arrays.items()}
    if shapes != expected:
        wrong = sorted({name for name, _ in set(shapes.items()) ^ set(expected.items())})
        raise CorruptArtifact(f"{spec.kind} artifact arrays do not fit its spec: {wrong}")
    model.params = arrays
    return model
