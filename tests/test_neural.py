import numpy as np
import pytest

from loadcast.errors import (
    InvalidRate,
    KernelTooLarge,
    NonFiniteValue,
    PredictOnly,
    ShapeMismatch,
)
from loadcast.neural import (
    LSTM,
    Adam,
    Conv1D,
    Dense,
    Dropout,
    Flatten,
    Network,
    mse_loss,
)

from _util import max_grad_error, relu_preactivations_safe


def rng_for(seed):
    return np.random.default_rng(seed)


class TestDense:
    def test_identity_weights_pass_through(self):
        layer = Dense(3, 3, "identity", rng_for(0))
        layer.params["W"][...] = np.eye(3)
        layer.params["b"][...] = 0.0
        x = rng_for(1).normal(size=(4, 3))
        assert np.allclose(layer.forward(x), x)

    def test_relu_clamps_negative(self):
        layer = Dense(2, 2, "relu", rng_for(0))
        layer.params["W"][...] = np.eye(2)
        layer.params["b"][...] = 0.0
        out = layer.forward(np.array([[-1.0, 2.0]]))
        assert out.tolist() == [[0.0, 2.0]]

    def test_shape_mismatch(self):
        layer = Dense(3, 2, rng=rng_for(0))
        with pytest.raises(ShapeMismatch):
            layer.forward(np.zeros((4, 5)))

    def test_gradient_check(self):
        for seed in range(5):
            rng = rng_for(100 + seed)
            net = Network([Dense(4, 2, "relu", rng)])
            x = rng.normal(size=(3, 4))
            target = rng.normal(size=(3, 2))
            if not relu_preactivations_safe(_forward(net, x)):
                continue
            assert max_grad_error(net, x, target) < 1e-4


def _forward(net, x):
    net.forward(x)
    return net


class TestConv1D:
    def test_moving_sum_kernel(self):
        layer = Conv1D(1, 1, 2, rng_for(0))
        layer.params["W"][...] = 1.0
        layer.params["b"][...] = 0.0
        out = layer.forward(np.array([[[1.0], [2.0], [3.0]]]))
        assert out.reshape(-1).tolist() == [3.0, 5.0]

    def test_kernel_one_scales(self):
        layer = Conv1D(1, 1, 1, rng_for(0))
        layer.params["W"][...] = 2.5
        layer.params["b"][...] = 0.0
        out = layer.forward(np.array([[[1.0], [2.0], [4.0]]]))
        assert out.reshape(-1).tolist() == [2.5, 5.0, 10.0]

    def test_kernel_too_large(self):
        layer = Conv1D(1, 1, 4, rng_for(0))
        with pytest.raises(KernelTooLarge):
            layer.forward(np.zeros((1, 3, 1)))

    def test_output_time_shrinks(self):
        layer = Conv1D(2, 5, 3, rng_for(0))
        out = layer.forward(rng_for(1).normal(size=(2, 6, 2)))
        assert out.shape == (2, 4, 5)

    def test_gradient_check(self):
        for seed in range(5):
            rng = rng_for(200 + seed)
            net = Network([Conv1D(2, 3, 2, rng)])
            x = rng.normal(size=(2, 5, 2))
            target = rng.normal(size=(2, 4, 3))
            if not relu_preactivations_safe(_forward(net, x)):
                continue
            assert max_grad_error(net, x, target) < 1e-4


class TestLSTM:
    def test_zero_parameters_zero_output(self):
        layer = LSTM(2, 3, rng_for(0))
        for key in layer.params:
            layer.params[key][...] = 0.0
        out = layer.forward(rng_for(1).normal(size=(2, 4, 2)))
        assert np.array_equal(out, np.zeros((2, 4, 3)))

    def test_single_step_matches_hand_computed_cell(self):
        # evaluate the five cell equations directly for one parameter draw
        rng = rng_for(42)
        layer = LSTM(2, 2, rng)
        x = rng.normal(size=(1, 1, 2))
        out = layer.forward(x)

        w = layer.params["W"]
        u = layer.params["U"]
        b = layer.params["b"]
        sigmoid = lambda z: 1.0 / (1.0 + np.exp(-z))
        a = x[0, 0] @ w + np.zeros(2) @ u + b  # h0 = 0
        i = sigmoid(a[0:2])
        f = sigmoid(a[2:4])
        o = sigmoid(a[4:6])
        g = np.tanh(a[6:8])
        c1 = f * 0.0 + i * g
        h1 = o * np.tanh(c1)
        assert np.allclose(out[0, 0], h1, rtol=1e-12, atol=1e-12)

    def test_shape_mismatch(self):
        layer = LSTM(3, 2, rng_for(0))
        with pytest.raises(ShapeMismatch):
            layer.forward(np.zeros((1, 4, 2)))

    def test_gradient_check_bptt(self):
        for seed in range(5):
            rng = rng_for(300 + seed)
            net = Network([LSTM(3, 3, rng)])
            x = rng.normal(size=(2, 2, 3))
            target = rng.normal(size=(2, 2, 3))
            assert max_grad_error(net, x, target) < 1e-4

    def test_stacked_gradient_check(self):
        rng = rng_for(9)
        net = Network([LSTM(2, 3, rng), LSTM(3, 2, rng)])
        x = rng.normal(size=(2, 4, 2))
        target = rng.normal(size=(2, 4, 2))
        assert max_grad_error(net, x, target) < 1e-4


class TestDropout:
    def test_rate_zero_identity_both_modes(self):
        layer = Dropout(0.0)
        x = rng_for(0).normal(size=(5, 4))
        assert np.array_equal(layer.forward(x, training=True, rng=rng_for(1)), x)
        assert np.array_equal(layer.forward(x, training=False), x)

    def test_inference_identity_any_rate(self):
        layer = Dropout(0.7)
        x = rng_for(0).normal(size=(5, 4))
        assert np.array_equal(layer.forward(x, training=False), x)

    def test_inverted_scaling_preserves_mean(self):
        layer = Dropout(0.5)
        x = np.ones(100_000)
        out = layer.forward(x, training=True, rng=rng_for(3))
        assert 0.98 <= out.mean() <= 1.02

    def test_backward_uses_same_mask(self):
        layer = Dropout(0.5)
        x = np.ones((4, 4))
        out = layer.forward(x, training=True, rng=rng_for(5))
        grad = layer.backward(np.ones((4, 4)))
        assert np.array_equal(grad, out)

    def test_invalid_rate(self):
        with pytest.raises(InvalidRate):
            Dropout(1.0)
        with pytest.raises(InvalidRate):
            Dropout(-0.1)

    def test_training_without_rng_rejected(self):
        with pytest.raises(ValueError):
            Dropout(0.5).forward(np.ones(3), training=True)


class TestFlatten:
    def test_shapes(self):
        layer = Flatten()
        assert layer.forward(np.zeros((2, 3, 4))).shape == (2, 12)
        assert layer.forward(np.zeros((1, 1, 5))).shape == (1, 5)

    def test_backward_round_trip(self):
        layer = Flatten()
        x = rng_for(0).normal(size=(2, 3, 4))
        out = layer.forward(x)
        assert np.array_equal(layer.backward(out), x)


class TestMseLoss:
    def test_zero_when_equal(self):
        x = rng_for(0).normal(size=(3, 2))
        loss, grad = mse_loss(x, x.copy())
        assert loss == 0.0
        assert np.array_equal(grad, np.zeros_like(x))

    def test_unit_difference(self):
        loss, _ = mse_loss(np.array([1.0, 2.0]), np.array([0.0, 1.0]))
        assert loss == 1.0

    def test_gradient_matches_finite_differences(self):
        rng = rng_for(1)
        pred = rng.normal(size=(3, 4))
        target = rng.normal(size=(3, 4))
        _, grad = mse_loss(pred, target)
        h = 1e-6
        num = np.zeros_like(pred)
        it = np.nditer(pred, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = pred[idx]
            pred[idx] = orig + h
            lp, _ = mse_loss(pred, target)
            pred[idx] = orig - h
            lm, _ = mse_loss(pred, target)
            pred[idx] = orig
            num[idx] = (lp - lm) / (2 * h)
        assert np.max(np.abs(num - grad)) < 1e-6

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            mse_loss(np.zeros(3), np.zeros(4))

    def test_float32_mean_accumulates_in_float64(self):
        rng = rng_for(2)
        pred, target = (rng.normal(size=(256, 4)).astype(np.float32) for _ in range(2))
        loss, grad = mse_loss(pred, target)
        diff = pred - target
        assert loss == np.mean((diff * diff).astype(np.float64))
        assert grad.dtype == np.float32


class TestAdam:
    def test_zero_gradient_leaves_parameters(self):
        params = {"w": np.array([1.0, -2.0])}
        grads = {"w": np.zeros(2)}
        Adam().step(params, grads, epoch=0)
        assert params["w"].tolist() == [1.0, -2.0]

    def test_first_steps_hand_evaluated(self):
        # g = 1 constantly; recurrences give m_hat = v_hat = 1 every step,
        # so each update is lr / (1 + eps)
        lr = 1e-3
        params = {"w": np.array([0.0])}
        opt = Adam(base_lr=lr, decay_rate=1.0)
        expected = 0.0
        for _ in range(3):
            opt.step(params, {"w": np.array([1.0])}, epoch=0)
            expected -= lr * 1.0 / (1.0 + 1e-8)
            assert params["w"][0] == pytest.approx(expected, rel=1e-12)

    def test_exponential_decay_arithmetic(self):
        opt = Adam(base_lr=1.0, decay_rate=0.96)
        assert opt.effective_lr(2) == pytest.approx(0.9216, rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            Adam().step({"w": np.zeros(2)}, {"w": np.zeros(3)}, 0)


#: One small layer of each kind and an input for it.
LAYERS = {
    "dense": lambda rng: (Dense(4, 3, "relu", rng), rng.normal(size=(5, 4))),
    "conv1d": lambda rng: (Conv1D(2, 3, 2, rng), rng.normal(size=(2, 5, 2))),
    "lstm": lambda rng: (LSTM(2, 3, rng), rng.normal(size=(2, 4, 2))),
    "dropout": lambda rng: (Dropout(0.5), rng.normal(size=(5, 4))),
    "flatten": lambda rng: (Flatten(), rng.normal(size=(2, 3, 4))),
}


class TestDtype:
    """Layers compute in their input's dtype on float64 parameters."""

    @staticmethod
    def _pass(layer, x):
        layer.zero_grads()
        out = layer.forward(x, training=True, rng=rng_for(1))
        return out, layer.backward(np.cos(out))

    @pytest.mark.parametrize("kind", LAYERS)
    def test_float32_input_gives_float32_outputs_and_float64_grads(self, kind):
        layer, x = LAYERS[kind](rng_for(7))
        out, grad_in = self._pass(layer, x.astype(np.float32))
        assert out.dtype == grad_in.dtype == np.float32
        assert all(v.dtype == np.float64 for v in layer.params.values())
        assert all(v.dtype == np.float64 for v in layer.grads.values())
        assert layer.grads.keys() == layer.params.keys()

    @pytest.mark.parametrize("kind", LAYERS)
    def test_float64_results_ignore_an_earlier_float32_pass(self, kind):
        fresh, x = LAYERS[kind](rng_for(7))
        used, _ = LAYERS[kind](rng_for(7))
        self._pass(used, x.astype(np.float32))

        def results(layer):
            return [*self._pass(layer, x), *layer.grads.values()]

        expected, got = results(fresh), results(used)
        assert all(v.dtype == np.float64 for v in got)
        assert all(np.array_equal(a, b) for a, b in zip(expected, got, strict=True))


class TestFiniteChecks:
    def test_dense_forward_raises_with_layer_identity(self):
        layer = Dense(2, 2, rng=rng_for(0))
        with pytest.raises(NonFiniteValue) as err:
            layer.forward(np.array([[np.inf, 1.0]]))
        assert "dense" in str(err.value)

    def test_lstm_backward_raises(self):
        layer = LSTM(2, 2, rng_for(0))
        layer.forward(rng_for(1).normal(size=(1, 2, 2)))
        with pytest.raises(NonFiniteValue):
            layer.backward(np.full((1, 2, 2), np.nan))


class TestPredictOnly:
    """A layer without gradient buffers keeps no cache, so backward refuses."""

    @pytest.mark.parametrize("build,x_shape", [
        (lambda rng=None: Dense(4, 3, "relu", rng), (5, 4)),
        (lambda rng=None: Conv1D(2, 3, 2, rng), (2, 5, 2)),
        (lambda rng=None: LSTM(2, 3, rng), (2, 4, 2)),
    ], ids=["dense", "conv1d", "lstm"])
    def test_backward_without_gradient_buffers_raises(self, build, x_shape):
        trained, layer = build(rng_for(7)), build()
        layer.params = trained.params
        x = rng_for(8).normal(size=x_shape)
        out = layer.forward(x)
        assert np.array_equal(out, trained.forward(x))
        with pytest.raises(PredictOnly, match=f"layer {layer.name}: no gradient buffers"):
            layer.backward(np.ones_like(out))


class TestNetwork:
    def test_named_params_and_set_get_round_trip(self):
        rng = rng_for(0)
        net = Network([Flatten(), Dense(6, 4, "relu", rng), Dense(4, 2, "identity", rng)])
        snapshot = net.get_params()
        for value in net.named_params().values():
            value += 1.0
        net.set_params(snapshot)
        for key, value in net.named_params().items():
            assert np.array_equal(value, snapshot[key])

    def test_set_params_validates(self):
        net = Network([Dense(2, 2, rng=rng_for(0))])
        with pytest.raises(ShapeMismatch):
            net.set_params({"layer0.W": np.zeros((2, 2))})  # missing bias

    def test_network_without_rng_holds_shapes_until_set_params(self):
        def layers(rng=None):
            return [Conv1D(2, 3, 2, rng), LSTM(3, 4, rng), Flatten(), Dense(8, 1, "identity", rng)]

        trained = Network(layers(rng_for(0)))
        net = Network(layers())
        assert net.named_params() == {} and net.named_grads() == {}
        assert net.named_shapes() == {k: v.shape for k, v in trained.named_params().items()}
        params = trained.get_params()
        net.set_params(params)
        assert all(net.named_params()[k] is params[k] for k in params)  # adopted, not copied
        x = rng_for(1).normal(size=(3, 3, 2))
        assert np.array_equal(net.forward(x), trained.forward(x))
        with pytest.raises(ShapeMismatch):
            net.set_params({**params, "layer1.U": params["layer1.U"].T})

    def test_deterministic_training_steps(self):
        def run():
            rng = rng_for(11)
            net = Network([Flatten(), Dense(6, 3, "relu", rng), Dense(3, 1, "identity", rng)])
            opt = Adam()
            data_rng = rng_for(12)
            x = data_rng.normal(size=(8, 2, 3))
            y = data_rng.normal(size=(8, 1))
            for epoch in range(5):
                pred = net.forward(x, training=True, rng=rng)
                _, grad = mse_loss(pred, y)
                net.zero_grads()
                net.backward(grad)
                opt.step(net.named_params(), net.named_grads(), epoch)
            return net.get_params()

        a, b = run(), run()
        assert all(np.array_equal(a[k], b[k]) for k in a)
