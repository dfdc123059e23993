"""Minimal numeric engine: dense, valid 1-D convolution, LSTM, inverted
dropout, and flatten layers with exact hand-written backpropagation, plus MSE
loss and Adam with per-epoch exponential learning-rate decay.

Every layer computes in its input's dtype: it casts its parameters to that
dtype once per forward and once per backward pass and allocates its state and
caches in it. Parameters and gradient buffers stay float64, so a float64
caller gets float64 arithmetic throughout, and a float32 caller (training)
gets float32 arithmetic whose gradients are added into the float64 buffers,
after the master-weight scheme of Micikevicius et al., "Mixed Precision
Training" (ICLR 2018). `mse_loss` accumulates its mean in float64.

Sequence layers use (batch, time, channels); dense layers use (batch,
features). Gradients accumulate into per-layer buffers that shape-match the
parameters; any NaN/Inf in a forward or backward pass raises NonFiniteValue
naming the offending layer.

A layer's constructor declares its parameter shapes and draws values only
from an rng it is given; without one, `Network.set_params` supplies them.
Gradient buffers are created by the first `zero_grads` (an rng-built layer
runs it at once), so a network built only to predict holds none.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidRate, KernelTooLarge, NonFiniteValue, ShapeMismatch


def glorot_uniform(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Uniform in +-sqrt(6 / (fan_in + fan_out)) for a (..., in, out) kernel;
    both fans count every position of the receptive field prod(shape[:-2])."""
    receptive = math.prod(shape[:-2])
    fan_in, fan_out = shape[-2] * receptive, shape[-1] * receptive
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


class Layer:
    """A forward/backward pair over named parameters of declared `shapes`;
    an rng draws them in declaration order (Glorot kernels, zero biases)."""

    def __init__(self, rng: np.random.Generator | None = None, **shapes: tuple[int, ...]):
        self.name = type(self).__name__.lower()
        self.shapes = shapes
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        if rng is not None:
            self.params = {key: glorot_uniform(rng, shape) if len(shape) > 1 else np.zeros(shape)
                           for key, shape in shapes.items()}
            self.zero_grads()

    def _params_as(self, dtype, *keys: str) -> list[np.ndarray]:
        """The named parameters in `dtype`; in float64, the arrays themselves."""
        return [self.params[key].astype(dtype, copy=False) for key in keys]

    def forward(self, x: np.ndarray, training: bool = False,
                rng: np.random.Generator | None = None) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def zero_grads(self) -> None:
        """Zero the gradient buffers, creating them on first use."""
        if not self.grads:
            self.grads = {key: np.zeros(shape) for key, shape in self.shapes.items()}
        for g in self.grads.values():
            g[...] = 0.0

    def _finite(self, arr: np.ndarray, stage: str) -> np.ndarray:
        if not np.isfinite(arr).all():
            raise NonFiniteValue(f"layer {self.name}: non-finite values in {stage}")
        return arr


class Dense(Layer):
    """y = activation(x W + b), activation in {relu, identity}."""

    def __init__(self, in_dim: int, out_dim: int, activation: str = "relu",
                 rng: np.random.Generator | None = None):
        if activation not in ("relu", "identity"):
            raise ValueError(f"unsupported activation {activation!r}")
        super().__init__(rng, W=(in_dim, out_dim), b=(out_dim,))
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.activation = activation
        self._x = None
        self._z = None

    def forward(self, x, training=False, rng=None):
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ShapeMismatch(
                f"layer {self.name}: expected (batch, {self.in_dim}), got {x.shape}")
        w, b = self._params_as(x.dtype, "W", "b")
        z = x @ w + b
        self._x, self._z = x, z
        y = np.maximum(z, 0.0) if self.activation == "relu" else z
        return self._finite(y, "forward")

    def backward(self, grad_out):
        if grad_out.shape != self._z.shape:
            raise ShapeMismatch(
                f"layer {self.name}: gradient shape {grad_out.shape} != {self._z.shape}")
        g = grad_out * (self._z > 0) if self.activation == "relu" else grad_out
        self.grads["W"] += self._x.T @ g
        self.grads["b"] += g.sum(axis=0)
        [w] = self._params_as(self._x.dtype, "W")
        return self._finite(g @ w.T, "backward")


class Conv1D(Layer):
    """Valid (no padding) cross-correlation over time, relu activation.

    x: (batch, time, in_chan) -> (batch, time - kernel + 1, filters).
    """

    def __init__(self, in_chan: int, filters: int, kernel: int,
                 rng: np.random.Generator | None = None):
        super().__init__(rng, W=(kernel, in_chan, filters), b=(filters,))
        self.in_chan = in_chan
        self.filters = filters
        self.kernel = kernel
        self._cols = None
        self._z = None
        self._x_shape = None

    def forward(self, x, training=False, rng=None):
        if x.ndim != 3 or x.shape[2] != self.in_chan:
            raise ShapeMismatch(
                f"layer {self.name}: expected (batch, time, {self.in_chan}), got {x.shape}")
        if x.shape[1] < self.kernel:
            raise KernelTooLarge(
                f"layer {self.name}: kernel {self.kernel} > time axis {x.shape[1]}")
        batch, steps, _ = x.shape
        t_out = steps - self.kernel + 1
        # one row per output step holding its (kernel, in_chan) window in W's
        # order, so the whole layer is a single matmul
        win = np.lib.stride_tricks.sliding_window_view(x, self.kernel, axis=1)
        cols = win.transpose(0, 1, 3, 2).reshape(batch * t_out, self.kernel * self.in_chan)
        w, b = self._params_as(x.dtype, "W", "b")
        w = w.reshape(self.kernel * self.in_chan, self.filters)
        z = (cols @ w).reshape(batch, t_out, self.filters) + b
        self._cols, self._z, self._x_shape = cols, z, x.shape
        return self._finite(np.maximum(z, 0.0), "forward")

    def backward(self, grad_out):
        if grad_out.shape != self._z.shape:
            raise ShapeMismatch(
                f"layer {self.name}: gradient shape {grad_out.shape} != {self._z.shape}")
        gz = grad_out * (self._z > 0)
        grad_w = self._cols.T @ gz.reshape(-1, self.filters)
        self.grads["W"] += grad_w.reshape(self.params["W"].shape)
        self.grads["b"] += gz.sum(axis=(0, 1))
        [w] = self._params_as(self._cols.dtype, "W")
        gx = np.zeros(self._x_shape, dtype=self._cols.dtype)
        t_out = gz.shape[1]
        for j in range(self.kernel):
            gx[:, j:j + t_out, :] += gz @ w[j].T
        return self._finite(gx, "backward")


class LSTM(Layer):
    """Gated recurrence per step t with zero initial hidden/cell state:

        i, f, o = sigmoid(x_t W_{i,f,o} + h_{t-1} U_{i,f,o} + b_{i,f,o})
        g       = tanh   (x_t W_g + h_{t-1} U_g + b_g)
        c_t     = f * c_{t-1} + i * g
        h_t     = o * tanh(c_t)

    Gate matrices are stored stacked as W (in, 4H), U (H, 4H), b (4H,) in
    (i, f, o, g) order so the three sigmoid gates form one contiguous block.
    Forget-gate bias starts at 1. The input-side product x W runs as a single
    batched matmul over all timesteps; only the recurrence is sequential.
    Each state is stored once: row t+1 of `hs`/`cs` (steps + 1, batch, H)
    holds h_t/c_t, row 0 the zero initial state, and backward reads the same
    rows. Backward runs full backpropagation through time. Returns the whole
    h sequence.
    """

    def __init__(self, in_dim: int, hidden: int, rng: np.random.Generator | None = None):
        super().__init__(rng, W=(in_dim, 4 * hidden), U=(hidden, 4 * hidden), b=(4 * hidden,))
        if rng is not None:
            self.params["b"][hidden:2 * hidden] = 1.0
        self.in_dim = in_dim
        self.hidden = hidden
        self._cache = None

    def forward(self, x, training=False, rng=None):
        if x.ndim != 3 or x.shape[2] != self.in_dim:
            raise ShapeMismatch(
                f"layer {self.name}: expected (batch, time, {self.in_dim}), got {x.shape}")
        batch, steps, _ = x.shape
        hid = self.hidden
        dtype = x.dtype
        w, u, b = self._params_as(dtype, "W", "U", "b")
        xw = x.reshape(batch * steps, self.in_dim) @ w
        xw = xw.reshape(batch, steps, 4 * hid)
        # time-major caches keep the per-step slices contiguous
        hs = np.zeros((steps + 1, batch, hid), dtype)
        cs = np.zeros((steps + 1, batch, hid), dtype)
        gates = np.empty((steps, batch, 4 * hid), dtype)  # i, f, o sigmoids; g tanh
        cells = np.empty((steps, batch, hid), dtype)      # tanh(c_t)
        for t in range(steps):
            a = gates[t]
            np.dot(hs[t], u, out=a)
            a += xw[:, t]
            a += b
            sig = a[:, :3 * hid]  # sigmoid(z) = (tanh(z/2) + 1) / 2
            sig *= 0.5
            np.tanh(a, out=a)
            sig += 1.0
            sig *= 0.5
            i = a[:, :hid]
            f = a[:, hid:2 * hid]
            o = a[:, 2 * hid:3 * hid]
            g = a[:, 3 * hid:]
            np.multiply(f, cs[t], out=cs[t + 1])
            cs[t + 1] += i * g
            tc = np.tanh(cs[t + 1], out=cells[t])
            np.multiply(o, tc, out=hs[t + 1])
        self._cache = (x, gates, cells, hs, cs)
        result = np.ascontiguousarray(hs[1:].transpose(1, 0, 2))
        return self._finite(result, "forward")

    def backward(self, grad_out):
        x, gates, cells, hs, cs = self._cache
        batch, steps, _ = x.shape
        hid = self.hidden
        if grad_out.shape != (batch, steps, hid):
            raise ShapeMismatch(
                f"layer {self.name}: gradient shape {grad_out.shape} != "
                f"{(batch, steps, hid)}")
        dtype = x.dtype
        w, u = self._params_as(dtype, "W", "U")
        da_all = np.empty((steps, batch, 4 * hid), dtype)
        dh_next = np.zeros((batch, hid), dtype)
        dc_next = np.zeros((batch, hid), dtype)
        for t in reversed(range(steps)):
            a = gates[t]
            i = a[:, :hid]
            f = a[:, hid:2 * hid]
            o = a[:, 2 * hid:3 * hid]
            g = a[:, 3 * hid:]
            tc = cells[t]
            dh = grad_out[:, t] + dh_next
            dc = 1.0 - tc * tc
            dc *= dh * o
            dc += dc_next
            da = da_all[t]
            np.multiply(dc, g, out=da[:, :hid])
            np.multiply(dc, cs[t], out=da[:, hid:2 * hid])
            np.multiply(dh, tc, out=da[:, 2 * hid:3 * hid])
            sig = a[:, :3 * hid]
            da[:, :3 * hid] *= sig * (1.0 - sig)
            dg = np.multiply(dc, i, out=da[:, 3 * hid:])
            dg *= 1.0 - g * g
            dc_next = dc * f
            dh_next = da @ u.T
        flat_da = da_all.transpose(1, 0, 2).reshape(batch * steps, 4 * hid)
        self.grads["W"] += x.reshape(batch * steps, self.in_dim).T @ flat_da
        self.grads["U"] += hs[:-1].transpose(1, 0, 2).reshape(batch * steps, hid).T @ flat_da
        self.grads["b"] += flat_da.sum(axis=0)
        dx = (flat_da @ w.T).reshape(batch, steps, self.in_dim)
        return self._finite(dx, "backward")


class Dropout(Layer):
    """Inverted dropout: scales survivors by 1/(1-rate) during training so
    inference is a pure identity."""

    def __init__(self, rate: float):
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise InvalidRate(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self._mask = None

    def forward(self, x, training=False, rng=None):
        if not training or self.rate == 0.0:
            self._mask = None
            return x
        if rng is None:
            raise ValueError("training-mode dropout needs an rng")
        self._mask = rng.random(x.shape) >= self.rate
        return self._finite(x * self._mask / (1.0 - self.rate), "forward")

    def backward(self, grad_out):
        if self._mask is None:
            return grad_out
        return grad_out * self._mask / (1.0 - self.rate)


class Flatten(Layer):
    """Row-major flatten of all axes after the batch axis."""

    def __init__(self):
        super().__init__()
        self._shape = None

    def forward(self, x, training=False, rng=None):
        self._shape = x.shape
        return x.reshape(x.shape[0], math.prod(x.shape[1:]))

    def backward(self, grad_out):
        return grad_out.reshape(self._shape)


def mse_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean over all elements of (pred - target)^2, accumulated in float64,
    and its gradient in the inputs' dtype."""
    if pred.shape != target.shape:
        raise ShapeMismatch(f"pred {pred.shape} vs target {target.shape}")
    diff = pred - target
    loss = float(np.mean(diff * diff, dtype=np.float64))
    grad = 2.0 * diff / diff.size
    return loss, grad


class Network:
    """A plain layer stack; owns nothing but the layers."""

    def __init__(self, layers: list[Layer]):
        self.layers = layers
        for idx, layer in enumerate(layers):
            layer.name = f"{idx}:{type(layer).__name__.lower()}"

    def forward(self, x, training=False, rng=None):
        for layer in self.layers:
            x = layer.forward(x, training=training, rng=rng)
        return x

    def backward(self, grad):
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def zero_grads(self):
        for layer in self.layers:
            layer.zero_grads()

    def _named(self, attr: str) -> dict:
        return {f"layer{idx}.{key}": value for idx, layer in enumerate(self.layers)
                for key, value in getattr(layer, attr).items()}

    def named_params(self) -> dict[str, np.ndarray]:
        return self._named("params")

    def named_grads(self) -> dict[str, np.ndarray]:
        return self._named("grads")

    def named_shapes(self) -> dict[str, tuple[int, ...]]:
        return self._named("shapes")

    def get_params(self) -> dict[str, np.ndarray]:
        return {k: v.copy() for k, v in self.named_params().items()}

    def set_params(self, params: dict[str, np.ndarray]) -> None:
        """Adopt `params`, without copying, once they fit the declared shapes;
        no gradient buffer is allocated (`zero_grads` creates them)."""
        shapes = self.named_shapes()
        if set(shapes) != set(params):
            raise ShapeMismatch(
                f"parameter names {sorted(params)} != expected {sorted(shapes)}")
        for key, value in params.items():
            if np.shape(value) != shapes[key]:
                raise ShapeMismatch(f"{key}: shape {np.shape(value)} != {shapes[key]}")
        for idx, layer in enumerate(self.layers):
            layer.params = {key: params[f"layer{idx}.{key}"] for key in layer.shapes}


class Adam:
    """Adam with bias correction; effective lr at epoch e is
    base_lr * decay_rate**e."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, base_lr: float = 1e-3, decay_rate: float = 0.96):
        self.base_lr = base_lr
        self.decay_rate = decay_rate
        self.t = 0
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}

    def effective_lr(self, epoch: int) -> float:
        return self.base_lr * self.decay_rate ** epoch

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
             epoch: int = 0) -> None:
        lr = self.effective_lr(epoch)
        self.t += 1
        b1, b2 = self.BETA1, self.BETA2
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for key, p in params.items():
            g = grads[key]
            if g.shape != p.shape:
                raise ShapeMismatch(f"{key}: grad shape {g.shape} != param {p.shape}")
            if key not in self._m:
                self._m[key], self._v[key] = np.zeros_like(p), np.zeros_like(p)
            m, v = self._m[key], self._v[key]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            p -= lr * (m / bc1) / (np.sqrt(v / bc2) + self.EPS)
