"""Shared test helpers: tiny series and window builders and the finite-difference
gradient checker used by the layer tests and the acceptance suite, and a
Hypothesis strategy that mutates JSON documents."""

from __future__ import annotations

import copy

import numpy as np
from hypothesis import strategies as st

from loadcast.dataset import WindowConfig, WindowedDataset
from loadcast.features import FeatureMatrix
from loadcast.ingest import AlignedSeries
from loadcast.neural import Network, mse_loss

BASE = np.datetime64("2015-01-01T00", "h")


def toy_series(n_hours: int, seed: int = 0, missing: tuple[int, ...] = ()) -> AlignedSeries:
    """A small aligned series with a smooth positive load and random weather.

    `missing` lists hour offsets to drop, creating gaps.
    """
    rng = np.random.default_rng(seed)
    offsets = [i for i in range(n_hours) if i not in set(missing)]
    stamps = BASE + np.array(offsets, dtype=np.int64)
    t = np.array(offsets, dtype=np.float64)
    load = 40000.0 + 5000.0 * np.sin(2 * np.pi * t / 24.0) + rng.normal(0, 50.0, len(t))
    weather = np.empty((len(t), 8, 4))
    weather[:, :, 0] = 285.0 + 10.0 * np.sin(2 * np.pi * t / 8760.0)[:, None] \
        + rng.normal(0, 1.0, (len(t), 8))
    weather[:, :, 1] = np.abs(2.0 + rng.normal(0, 0.5, (len(t), 8)))
    weather[:, :, 2] = 320.0 + rng.normal(0, 5.0, (len(t), 8))
    weather[:, :, 3] = np.maximum(0.0, 400.0 * np.sin(2 * np.pi * t / 24.0))[:, None] \
        + np.abs(rng.normal(0, 5.0, (len(t), 8)))
    return AlignedSeries(stamps, load, weather)


def hand_built_windows(inputs, targets, names, n_train, n_val) -> WindowedDataset:
    """Windows with exactly these raw (n, t1, channels) `inputs` and (n, t2)
    `targets`, channel 0 being load.

    Window i's t1 input rows, then t2 rows whose load channel holds its
    targets, lie end to end in one feature matrix. The other channels of the
    target rows are NaN, as no window reads them; window i starts at row
    i * (t1 + t2), an hour after BASE per row.
    """
    inputs, targets = np.asarray(inputs, dtype=np.float64), np.asarray(targets, dtype=np.float64)
    (n, t1, channels), t2 = inputs.shape, targets.shape[1]
    values = np.full((n, t1 + t2, channels), np.nan)
    values[:, :t1] = inputs
    values[:, t1:, 0] = targets
    values = values.reshape(n * (t1 + t2), channels)
    starts = np.arange(n) * (t1 + t2)
    origins = BASE + starts
    for array in (values, starts, origins):
        array.setflags(write=False)
    return WindowedDataset(FeatureMatrix(values, tuple(names), 0), starts, origins,
                           WindowConfig(t1, t2), n_train, n_val)


def max_grad_error(net: Network, x: np.ndarray, target: np.ndarray,
                   h: float = 1e-5, training: bool = False,
                   rng: np.random.Generator | None = None) -> float:
    """Max relative error between analytic and central-difference gradients
    over every parameter and every input element.

    The loss is mse(net(x), target). Relative error uses the floor
    |a - n| / max(1e-6, |a| + |n|) so near-zero gradients compare absolutely.
    """
    def loss_now(xx):
        pred = net.forward(xx, training=training, rng=rng)
        return mse_loss(pred, target)[0]

    pred = net.forward(x, training=training, rng=rng)
    _, grad = mse_loss(pred, target)
    net.zero_grads()
    analytic_x = net.backward(grad)
    analytic = net.named_grads()

    worst = 0.0
    for key, param in net.named_params().items():
        g = analytic[key]
        it = np.nditer(param, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = param[idx]
            param[idx] = orig + h
            lp = loss_now(x)
            param[idx] = orig - h
            lm = loss_now(x)
            param[idx] = orig
            num = (lp - lm) / (2.0 * h)
            rel = abs(num - g[idx]) / max(1e-6, abs(num) + abs(g[idx]))
            worst = max(worst, rel)
    x_work = x.copy()
    it = np.nditer(x_work, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = x_work[idx]
        x_work[idx] = orig + h
        lp = loss_now(x_work)
        x_work[idx] = orig - h
        lm = loss_now(x_work)
        x_work[idx] = orig
        num = (lp - lm) / (2.0 * h)
        rel = abs(num - analytic_x[idx]) / max(1e-6, abs(num) + abs(analytic_x[idx]))
        worst = max(worst, rel)
    return worst


def relu_preactivations_safe(net: Network, margin: float = 1e-3) -> bool:
    """True when no cached relu pre-activation sits within `margin` of zero
    (finite differences are invalid across the kink)."""
    for layer in net.layers:
        z = getattr(layer, "_z", None)
        if z is not None and np.any(np.abs(z) < margin):
            return False
    return True


#: Any JSON value. Integers reach the int64 maximum, so a header can declare
#: networks far wider and deeper than `models.load` could afford to build: it
#: allocates no parameters to check their shapes and builds no more layers
#: than the stored arrays allow, and `WindowConfig` rejects a t2 (the forecast
#: length a prediction allocates per row) above one leap year of hours.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 2**63 - 1) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner,
                                                                max_size=3),
    max_leaves=6)


def _paths(doc, prefix=()):
    """The path of every node of a JSON document, the root's included."""
    yield prefix
    if isinstance(doc, (dict, list)):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from _paths(value, prefix + (key,))


def _mutate(doc, path, op, value):
    """`doc` with the node at `path` replaced by `value` ("replace"), removed
    ("remove"), or given `value` under a new key ("add", objects only)."""
    doc = copy.deepcopy(doc)
    if not path:
        return value if op == "replace" else doc
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    node = parent[path[-1]]
    if op == "remove":
        del parent[path[-1]]
    elif op == "add" and isinstance(node, dict):
        node["?" + "".join(map(str, path))] = value
    else:
        parent[path[-1]] = value
    return doc


def mutated(doc):
    """Strategy: `doc` with one node replaced, removed or given a new key."""
    return st.builds(_mutate, st.just(doc), st.sampled_from(list(_paths(doc))),
                     st.sampled_from(["replace", "remove", "add"]), JSON_VALUES)
