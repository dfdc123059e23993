import dataclasses
import functools
import hashlib
import json
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from loadcast.artifact import read_artifact, write_artifact
from loadcast.codec import from_json, to_json
from loadcast.dataset import WindowConfig, build_windows, chronological_split
from loadcast.errors import (
    CorruptArtifact,
    EmptySplit,
    EmptyTrainSplit,
    EmptyWindow,
    InvalidSpec,
    LoadcastError,
    NonFiniteLoss,
    NotContiguous,
    ShapeMismatch,
    VersionMismatch,
)
from loadcast.features import FeatureSelector, all_features, assemble
from loadcast.models import (
    ModelSpec,
    build_model,
    load,
    persistence_predict,
    predict_at,
    predict_batch,
    save,
    train,
)
from loadcast.neural import LSTM, Conv1D, Dense

from _util import BASE, hand_built_windows, mutated, toy_series


def small_dataset(n_hours=120, selector=None, seed=1, missing=()):
    selector = selector or FeatureSelector()
    series = toy_series(n_hours, seed=seed, missing=missing)
    matrix = assemble(series, selector)
    raw = build_windows(matrix, series.segments, series.stamps, WindowConfig())
    return series, chronological_split(raw)


def synthetic_linear_dataset(n=240, channels=3, t1=6, t2=4, seed=0):
    """Targets are an exact linear function of one input channel."""
    rng = np.random.default_rng(seed)
    inputs = rng.uniform(30000.0, 50000.0, size=(n, t1, channels))
    targets = np.repeat(2.0 * inputs[:, -1, 0:1] + 5000.0, t2, axis=1)
    names = tuple(f"c{i}" for i in range(channels))
    return hand_built_windows(inputs, targets, names, int(0.45 * n), int(0.45 * n))


class TestModelSpec:
    def test_unknown_kind(self):
        with pytest.raises(InvalidSpec):
            ModelSpec(kind="transformer")

    def test_bad_dropout(self):
        with pytest.raises(InvalidSpec):
            ModelSpec(kind="lstm", dropout=1.0)

    def test_negative_seed(self):
        with pytest.raises(InvalidSpec, match="seed"):
            ModelSpec(kind="fcnn", seed=-1)

    def test_dict_round_trip(self):
        spec = ModelSpec(kind="lrcn", lstm_hidden=8, epochs=3)
        assert from_json(ModelSpec, to_json(spec)) == spec

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown ModelSpec keys"):
            from_json(ModelSpec, {"kind": "lstm", "layers": 2})


class TestPersistence:
    def test_repeats_last_load(self):
        out = persistence_predict([49000.0, 50000.0], 4)
        assert out.tolist() == [50000.0] * 4

    def test_single_hour_horizon(self):
        assert persistence_predict([1234.5], 1).tolist() == [1234.5]

    def test_empty_window(self):
        with pytest.raises(EmptyWindow):
            persistence_predict([], 4)

    @given(st.lists(st.floats(min_value=1.0, max_value=1e6), min_size=1, max_size=12),
           st.integers(min_value=1, max_value=8))
    def test_property_exact_repeat(self, loads, t2):
        out = persistence_predict(loads, t2)
        assert out.shape == (t2,)
        assert all(v == loads[-1] for v in out)


class TestBuildModel:
    def test_output_layer_width_equals_horizon(self):
        for kind in ("fcnn", "lstm", "lrcn"):
            net = build_model(ModelSpec(kind=kind), t1=6, channels=9, t2=4)
            last = net.layers[-1]
            assert isinstance(last, Dense) and last.out_dim == 4
            assert last.activation == "identity"

    def test_lrcn_conv_shrinks_lstm_steps(self):
        net = build_model(ModelSpec(kind="lrcn"), t1=6, channels=9, t2=4,
                          rng=np.random.default_rng(0))
        conv = net.layers[0]
        assert isinstance(conv, Conv1D) and conv.kernel == 3
        out = conv.forward(np.random.default_rng(0).normal(size=(2, 6, 9)))
        assert out.shape[1] == 4

    def test_fcnn_input_size_is_flattened_window(self):
        net = build_model(ModelSpec(kind="fcnn"), t1=6, channels=9, t2=4)
        first_dense = net.layers[1]
        assert isinstance(first_dense, Dense) and first_dense.in_dim == 54

    def test_width_multiplier_doubles_hidden(self):
        net = build_model(ModelSpec(kind="lstm", width_multiplier=2), 6, 9, 4)
        assert isinstance(net.layers[0], LSTM) and net.layers[0].hidden == 128

    def test_persistence_has_no_network(self):
        with pytest.raises(InvalidSpec):
            build_model(ModelSpec(kind="persistence"), 6, 9, 4)

    def test_kernel_larger_than_window_rejected(self):
        with pytest.raises(InvalidSpec):
            build_model(ModelSpec(kind="lrcn", conv_kernel=7), 6, 9, 4)


class TestTraining:
    def test_exact_linear_function_reaches_tiny_mse(self):
        ds = synthetic_linear_dataset()
        spec = ModelSpec(kind="fcnn", fcnn_hidden=(32,), epochs=200, batch_size=64,
                         patience=200, base_lr=1e-2, lr_decay=0.995, seed=0)
        model = train(ds, spec, FeatureSelector())
        final_train = model.history[-1][1]
        assert final_train < 1e-3

    def test_patience_zero_stops_one_epoch_after_first_increase(self):
        # pure-noise targets: validation rises as soon as the net fits train
        rng = np.random.default_rng(0)
        n = 60
        inputs = rng.uniform(30000, 50000, size=(n, 6, 2))
        targets = rng.uniform(30000, 50000, size=(n, 4))
        ds = hand_built_windows(inputs, targets, ("load", "x"), 27, 27)
        spec = ModelSpec(kind="fcnn", fcnn_hidden=(64,), epochs=200, batch_size=32,
                         patience=0, base_lr=0.02, seed=2)
        model = train(ds, spec, FeatureSelector())
        vals = [v for _, _, v in model.history]
        assert len(vals) < 200  # stopped early
        best_so_far = np.inf
        for v in vals[:-1]:
            assert v < best_so_far  # every epoch before the last improved
            best_so_far = v
        assert vals[-1] >= best_so_far  # the last epoch did not improve

    @pytest.mark.parametrize("kind,extra", [
        ("fcnn", dict(fcnn_hidden=(16,))),
        ("lstm", dict(lstm_hidden=8, lstm_layers=1, dense_size=8, dropout=0.0)),
    ])
    def test_moving_average_train_loss_non_increasing(self, kind, extra):
        rng = np.random.default_rng(1)
        n = 24  # tiny fixed dataset, full-batch updates
        inputs = rng.uniform(30000, 50000, size=(n, 6, 2))
        targets = np.repeat(1.5 * inputs[:, -1, 0:1] - 2000.0, 4, axis=1)
        ds = hand_built_windows(inputs, targets, ("load", "x"), 10, 10)
        spec = ModelSpec(kind=kind, epochs=250, batch_size=64, patience=10**9,
                         base_lr=1e-3, seed=0, **extra)
        model = train(ds, spec, FeatureSelector())
        losses = np.array([t for _, t, _ in model.history])
        assert len(losses) >= 200
        moving = np.convolve(losses, np.ones(10) / 10, mode="valid")
        assert np.all(np.diff(moving) <= 1e-12)

    def test_long_look_back_holds_no_window_tensor(self):
        series, cfg = toy_series(2000), WindowConfig(t1=168)
        matrix = assemble(series, all_features())
        spec = ModelSpec(kind="lstm", lstm_hidden=4, lstm_layers=1, epochs=1)
        tracemalloc.start()
        try:
            raw = build_windows(matrix, series.segments, series.stamps, cfg)
            train(chronological_split(raw), spec, all_features())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # every window gathered at once, in float64: 88.5 MB here
        assert peak < len(raw) * cfg.t1 * len(matrix.channel_names) * 8

    def test_identical_seeds_identical_parameters(self):
        _, ds = small_dataset(100)
        spec = ModelSpec(kind="lstm", lstm_hidden=4, lstm_layers=1, dense_size=8,
                         epochs=3, batch_size=32, seed=5)
        sel = FeatureSelector()
        a = train(ds, spec, sel)
        b = train(ds, spec, sel)
        assert set(a.params) == set(b.params)
        assert all(np.array_equal(a.params[k], b.params[k]) for k in a.params)
        assert a.history == b.history  # bit-identical loss trajectories

    def test_early_stopping_restores_best_validation(self):
        _, ds = small_dataset(160, seed=4)
        spec = ModelSpec(kind="fcnn", fcnn_hidden=(16,), epochs=60, batch_size=32,
                         patience=5, seed=1)
        model = train(ds, spec, FeatureSelector())
        best_recorded = min(v for _, _, v in model.history)
        # recompute validation loss from the restored parameters
        from loadcast.models import _dataset_loss, _network_for
        norm, values = model.normalizer, ds.matrix.values
        x = norm.transform(values).astype(np.float32)
        y = norm.transform_target(values[:, ds.matrix.load_channel]).astype(np.float32)
        val = _dataset_loss(_network_for(model), x, y, ds.rows("val"), ds.cfg.t1,
                            spec.batch_size)
        assert val == best_recorded

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_loss_raises_non_finite_loss(self):
        # float32 diff * diff overflows while every layer's output stays finite
        _, ds = small_dataset(200)
        spec = ModelSpec(kind="fcnn", fcnn_hidden=(), base_lr=1e20, batch_size=8, epochs=3)
        with pytest.raises(NonFiniteLoss, match="training loss became inf at epoch 0"):
            train(ds, spec, FeatureSelector())

    @pytest.mark.parametrize("kind,empty,error", [
        ("svr", "n_train", EmptyTrainSplit),
        ("fcnn", "n_train", EmptyTrainSplit),
        ("fcnn", "n_val", EmptySplit),
        ("lstm", "n_val", EmptySplit),
    ])
    def test_empty_split_rejected(self, kind, empty, error):
        _, ds = small_dataset(100)
        ds = dataclasses.replace(ds, **{empty: 0})
        spec = ModelSpec(kind=kind, fcnn_hidden=(4,), lstm_hidden=4, lstm_layers=1,
                         dense_size=4, epochs=1)
        with pytest.raises(error):
            train(ds, spec, FeatureSelector())


class TestGoldenTraining:
    """Pins network training: its arithmetic (float32 compute on float64
    parameters) and its random stream (weight draws in layer order, batch
    permutations and dropout masks). At this size neither depends on the
    BLAS thread count."""

    SELECTOR = FeatureSelector(time_features=("hour",), weather_features=("temp",), zones=(0, 1))

    def _train(self, kind, ds):
        spec = ModelSpec(kind=kind, fcnn_hidden=(8, 4), lstm_hidden=4, conv_filters=3,
                         dense_size=5, dropout=0.2, epochs=4, batch_size=16, seed=7)
        return train(ds, spec, self.SELECTOR)

    @pytest.mark.parametrize("kind,digest", [
        ("fcnn", "dd4d34bb73ada024ed98319619c6223d3a98a3e5fc82b6ee5625a02f86549dc2"),
        ("lstm", "24c0e904dd2cc28a5848f09a79ea1fa0d08567beb39a286974c9ca5df8d08fd7"),
        ("lrcn", "933a1e7bd5b13b4e026804d859d813d9a4f465b17688332e90776be80a1361e0"),
    ], ids=["fcnn", "lstm", "lrcn"])
    def test_params_history_and_predictions_hash(self, kind, digest):
        _, ds = small_dataset(160, self.SELECTOR, seed=2)
        model = self._train(kind, ds)
        x, _ = ds.split_arrays("test")
        sha = hashlib.sha256()
        for name in sorted(model.params):
            sha.update(name.encode() + model.params[name].tobytes())
        sha.update(repr(model.history).encode())
        sha.update(predict_batch(model, x).tobytes())
        assert sha.hexdigest() == digest

    @pytest.mark.parametrize("kind,position", [
        ("fcnn", 2185676786121434035884777146691645619),
        ("lstm", 75699752801739251466964921045197441927),
        ("lrcn", 289374312964529624176351496205191280321),
    ], ids=["fcnn", "lstm", "lrcn"])
    def test_training_consumes_the_same_random_stream(self, monkeypatch, kind, position):
        """The arithmetic may change; what training draws, and when, may not
        (lstm and lrcn draw dropout masks)."""
        _, ds = small_dataset(160, self.SELECTOR, seed=2)
        made = []
        default_rng = np.random.default_rng

        def recording_rng(seed):
            made.append(default_rng(seed))
            return made[-1]

        monkeypatch.setattr(np.random, "default_rng", recording_rng)
        self._train(kind, ds)
        assert len(made) == 1
        assert made[0].bit_generator.state["state"]["state"] == position


class TestPredict:
    def test_persistence_dispatch_matches_function(self):
        _, ds = small_dataset()
        model = train(ds, ModelSpec(kind="persistence"), FeatureSelector())
        x, _ = ds.split_arrays("test")
        preds = predict_batch(model, x)
        for row, window in zip(preds, x):
            assert np.array_equal(row, persistence_predict(window[:, 0], 4))

    def test_network_beats_persistence_on_sine_load(self):
        sel = FeatureSelector(time_features=("hour",))
        _, ds = small_dataset(500, selector=sel, seed=2)
        spec = ModelSpec(kind="fcnn", fcnn_hidden=(32, 16), epochs=200,
                         batch_size=64, patience=200, base_lr=3e-3,
                         lr_decay=0.99, seed=0)
        model = train(ds, spec, sel)
        pers = train(ds, ModelSpec(kind="persistence"), sel)
        x, y = ds.split_arrays("test")
        def mape(m):
            p = predict_batch(m, x)
            return np.mean(np.abs(p - y) / y)
        assert mape(model) < mape(pers)

    def test_denormalization_round_trip_consistency(self):
        _, ds = small_dataset()
        spec = ModelSpec(kind="fcnn", fcnn_hidden=(8,), epochs=2, batch_size=32, seed=0)
        model = train(ds, spec, FeatureSelector())
        x, _ = ds.split_arrays("test")
        from loadcast.models import _network_for
        net = _network_for(model)
        y_norm = net.forward(model.normalizer.transform(x), training=False)
        expected = model.normalizer.inverse_transform_load(y_norm)
        assert np.array_equal(predict_batch(model, x), expected)

    def test_input_shape_validated(self):
        _, ds = small_dataset()
        model = train(ds, ModelSpec(kind="persistence"), FeatureSelector())
        with pytest.raises(ShapeMismatch):
            predict_batch(model, np.zeros((2, 5, 1)))

    def test_predict_at_contiguous(self):
        series, ds = small_dataset(60)
        model = train(ds, ModelSpec(kind="persistence"), FeatureSelector())
        end = series.stamps[20]
        out = predict_at(model, series, end)
        assert out.shape == (4,)
        assert np.all(out == series.load_mw[20])

    def test_predict_at_gap_rejected(self):
        series, ds = small_dataset(80, missing=(30, 31))
        model = train(ds, ModelSpec(kind="persistence"), FeatureSelector())
        inside_gap_end = series.stamps[series.segments[1][0] + 2]  # 3 rows into seg 2
        with pytest.raises(NotContiguous):
            predict_at(model, series, inside_gap_end)
        with pytest.raises(NotContiguous):
            predict_at(model, series, BASE + 30)  # stamp not present

    def test_predict_at_start_needs_full_window(self):
        series, ds = small_dataset(40)
        model = train(ds, ModelSpec(kind="persistence"), FeatureSelector())
        with pytest.raises(NotContiguous):
            predict_at(model, series, series.stamps[3])


@functools.cache
def _every_kind():
    """One small trained model of each kind on a gapped series with time and
    weather channels, with the series and its windows."""
    selector = FeatureSelector(time_features=("hour", "month"), weather_features=("temp", "wind"),
                               zones=(1, 5), time_encoding="cyclical")
    series, ds = small_dataset(200, selector, seed=4, missing=(150, 151, 170))
    models = {kind: train(ds, ModelSpec(kind=kind, svr_mode="ridge", fcnn_hidden=(8,),
                                        lstm_hidden=4, lstm_layers=1, conv_filters=3,
                                        dense_size=5, epochs=1, seed=5), selector)
              for kind in ("persistence", "svr", "fcnn", "lstm", "lrcn")}
    return series, ds, models


class TestPredictAtMatchesWindows:
    """predict_at builds features for its t1 rows only; the result must not
    depend on that, so every kind has to reproduce predict_batch on the
    window build_windows made from the whole series."""

    KINDS = ("persistence", "svr", "fcnn", "lstm", "lrcn")

    @pytest.mark.parametrize("kind", KINDS)
    def test_bit_identical_at_every_test_origin(self, kind):
        series, ds, models = _every_kind()
        model = models[kind]
        t1 = ds.cfg.t1
        test = ds.split_slice("test")
        assert test.stop - test.start > 10
        rows = np.searchsorted(series.stamps, ds.origins[test])
        for i, row in zip(range(test.start, test.stop), rows):
            got = predict_at(model, series, series.stamps[row + t1 - 1])
            assert np.array_equal(got, predict_batch(model, ds.inputs[i:i + 1])[0])

    @pytest.mark.parametrize("kind", KINDS)
    def test_features_built_for_t1_rows(self, kind, monkeypatch):
        from loadcast import models as models_module
        series, ds, models = _every_kind()
        built = []
        real = models_module.feature_values

        def counted(stamps, *args):
            built.append(len(stamps))
            return real(stamps, *args)

        monkeypatch.setattr(models_module, "feature_values", counted)
        predict_at(models[kind], series, series.stamps[-1])
        assert built == [ds.cfg.t1]

    @pytest.mark.parametrize("kind", ("fcnn", "lstm", "lrcn"))
    def test_inference_network_has_no_gradient_buffers(self, kind):
        from loadcast.models import _network_for
        net = _network_for(_every_kind()[2][kind])
        assert net.named_grads() == {}
        assert net.named_params().keys() == net.named_shapes().keys()

    @pytest.mark.parametrize("kind", KINDS)
    def test_zero_windows_give_an_empty_forecast(self, kind):
        _, ds, models = _every_kind()
        out = predict_batch(models[kind], ds.inputs[:0])
        assert out.shape == (0, ds.cfg.t2) and out.dtype == np.float64


class TestSvrKind:
    def test_svr_trains_one_predictor_per_horizon(self):
        _, ds = small_dataset(200)
        spec = ModelSpec(kind="svr", svr_mode="ridge")
        model = train(ds, spec, FeatureSelector())
        assert model.params["svr_w"].shape == (4, 6 * 1)
        assert model.params["svr_b"].shape == (4,)

    def test_ridge_svr_beats_persistence_here(self):
        sel = all_features()
        _, ds = small_dataset(400, selector=sel, seed=6)
        model = train(ds, ModelSpec(kind="svr", svr_mode="ridge"), sel)
        pers = train(ds, ModelSpec(kind="persistence"), sel)
        x, y = ds.split_arrays("test")
        err = lambda m: np.mean(np.abs(predict_batch(m, x) - y) / y)
        assert err(model) < err(pers)


class TestSaveLoad:
    def _model(self, kind="fcnn"):
        _, ds = small_dataset(120)
        spec = ModelSpec(kind=kind, fcnn_hidden=(8,), epochs=2, batch_size=32, seed=3)
        return ds, train(ds, spec, FeatureSelector())

    def test_round_trip_predictions_exact(self, tmp_path):
        ds, model = self._model()
        path = tmp_path / "model.lcst"
        save(model, path)
        loaded = load(path)
        rng = np.random.default_rng(0)
        x = rng.uniform(30000, 50000, size=(100, 6, 1))
        assert np.array_equal(predict_batch(model, x), predict_batch(loaded, x))
        assert loaded.spec == model.spec
        assert loaded.selector == model.selector
        assert loaded.history == model.history

    def test_truncated_file_detected(self, tmp_path):
        ds, model = self._model()
        path = tmp_path / "model.lcst"
        save(model, path)
        data = path.read_bytes()
        path.write_bytes(data[:len(data) - 7])
        with pytest.raises(CorruptArtifact):
            load(path)

    def test_corrupted_byte_detected(self, tmp_path):
        ds, model = self._model()
        path = tmp_path / "model.lcst"
        save(model, path)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptArtifact):
            load(path)

    def test_newer_version_detected(self, tmp_path):
        import hashlib
        import struct
        ds, model = self._model()
        path = tmp_path / "model.lcst"
        save(model, path)
        data = bytearray(path.read_bytes())[:-32]
        data[4:8] = struct.pack("<I", 99)
        data += hashlib.sha256(bytes(data)).digest()
        path.write_bytes(bytes(data))
        with pytest.raises(VersionMismatch):
            load(path)

    def test_bad_magic_detected(self, tmp_path):
        path = tmp_path / "model.lcst"
        path.write_bytes(b"NOPE" + bytes(64))
        with pytest.raises(CorruptArtifact):
            load(path)

    @pytest.mark.parametrize("kind,change", [
        ("persistence", lambda arrays: {**arrays, "svr_b": np.zeros(4)}),
        ("svr", lambda arrays: {}),
        ("svr", lambda arrays: {**arrays, "svr_w": arrays["svr_w"][:, :-1]}),
        ("svr", lambda arrays: {"svr_w": arrays["svr_w"]}),
        ("fcnn", lambda arrays: dict(sorted(arrays.items())[1:])),
        ("fcnn", lambda arrays: {k: v.T for k, v in arrays.items()}),
        ("lstm", lambda arrays: {**arrays, "layer9.W": np.zeros((2, 2))}),
    ], ids=["persistence-extra", "svr-none", "svr-narrowed-w", "svr-no-bias",
            "fcnn-missing", "fcnn-transposed", "lstm-extra"])
    def test_arrays_that_do_not_fit_the_spec_rejected(self, tmp_path, kind, change):
        _, ds = small_dataset(120)
        spec = ModelSpec(kind=kind, fcnn_hidden=(8,), lstm_hidden=4, lstm_layers=1,
                         dense_size=8, epochs=1, svr_mode="ridge")
        path = tmp_path / "model.lcst"
        save(train(ds, spec, FeatureSelector()), path)
        header, arrays = read_artifact(path)
        write_artifact(path, header, change(arrays))  # re-signed: the checksum holds
        with pytest.raises(CorruptArtifact, match="do not fit its spec"):
            load(path)

    def test_huge_declared_network_rejected_without_allocating_it(self, tmp_path):
        header, sections = _artifact_parts("fcnn")
        header = {**header, "spec": {**header["spec"], "fcnn_hidden": [3000, 3000]}}
        path = tmp_path / "model.lcst"
        path.write_bytes(_signed(header, sections))
        tracemalloc.start()
        try:
            with pytest.raises(CorruptArtifact, match="do not fit its spec"):
                load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20  # a 3000x3000 float64 kernel alone is 72 MB

    @pytest.mark.parametrize("kind,change", [
        ("lrcn", {"conv_kernel": 7}),  # the conv stack outgrows the 6-hour window
        ("lstm", {"lstm_layers": 10**5}),  # deeper than its 7 stored arrays allow
        ("lstm", {"lstm_hidden": 3000}),  # its 3000x12000 float64 U alone is 288 MB
    ], ids=["lrcn-kernel-exceeds-window", "lstm-deep", "lstm-wide"])
    def test_re_signed_spec_rejected_without_building_its_network(self, tmp_path, kind, change):
        header, sections = _artifact_parts(kind)
        path = tmp_path / "model.lcst"
        path.write_bytes(_signed(header, sections))
        load(path)  # the parts as saved load
        path.write_bytes(_signed({**header, "spec": {**header["spec"], **change}}, sections))
        tracemalloc.start()
        try:
            with pytest.raises(CorruptArtifact):
                load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20

    def test_wrong_typed_spec_field_named(self, tmp_path):
        header, sections = _artifact_parts("lstm")
        path = tmp_path / "model.lcst"
        path.write_bytes(_signed({**header, "spec": {**header["spec"], "lstm_hidden": "64"}},
                                 sections))
        with pytest.raises(CorruptArtifact, match="ModelSpec.lstm_hidden must be int"):
            load(path)

    @pytest.mark.parametrize("change", [
        lambda header: {**header, "load_channel": 5},
        lambda header: {**header, "load_channel": 1},
        lambda header: {**header, "channel_names": ["load", "renamed"]},
        lambda header: {**header, "normalizer": {**header["normalizer"],
                                                 "channel_min": [0.0]}},
        lambda header: {**header, "normalizer": {**header["normalizer"], "target_min": None}},
        lambda header: {**header, "spec": {**header["spec"], "lstm_hidden": 0}},
        lambda header: {**header, "window": {"t1": 6.0, "t2": 4}},
        lambda header: {**header, "history": [[0, "1.0", 1.0]]},
        lambda header: b"[" * 100_000 + b"]" * 100_000,
        lambda header: {**header, "window": {"t1": 6, "t2": 10_000_000}},
        lambda header: {**header, "window": {"t1": 10_000_000, "t2": 4}},
    ], ids=["load-channel-out-of-range", "load-channel-moved", "renamed-channels",
            "short-normalizer", "null-target", "zero-size", "float-window", "text-loss",
            "nested-too-deep", "t2-beyond-a-year", "t1-beyond-a-year"])
    def test_header_that_does_not_fit_rejected(self, tmp_path, change):
        header, sections = _artifact_parts("persistence")
        path = tmp_path / "model.lcst"
        path.write_bytes(_signed(header, sections))
        load(path)  # the parts as saved load
        path.write_bytes(_signed(change(header), sections))
        with pytest.raises(CorruptArtifact):
            load(path)

    @pytest.mark.parametrize("name,dims", [
        (b"svr_\xff", None),  # not UTF-8
        (None, (2**32 - 1, 2**32 - 1, 2**32 - 1)),  # the int64 product wraps to a small size
        (None, (2**32 - 1,) * 2 + (2,)),
        (None, (0, 2**30, 2**30)),  # 0 bytes, but too big for numpy to shape
        (None, (2**30, 0, 2**30)),
        (None, (0, 2**32 - 1, 2**32 - 1)),
    ], ids=["name-not-utf8", "dims-wrap", "dims-wrap-to-negative", "dims-zero-first",
            "dims-zero-middle", "dims-zero-max"])
    def test_array_section_that_does_not_fit_rejected(self, tmp_path, name, dims):
        header, sections = _artifact_parts("svr")
        path = tmp_path / "model.lcst"
        path.write_bytes(_signed(header, sections))
        load(path)  # the parts as saved load
        old_name, _, old_dims, values = sections[0]
        dims = dims or old_dims
        sections = [(name or old_name, len(dims), dims, values), *sections[1:]]
        path.write_bytes(_signed(header, sections))
        with pytest.raises(CorruptArtifact):
            load(path)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(kind=st.sampled_from(["persistence", "svr", "fcnn", "lstm", "lrcn"]), data=st.data())
    def test_mutated_artifact_loads_or_raises_loadcast_error(self, tmp_path, kind, data):
        header, sections = _artifact_parts(kind)
        if not sections or data.draw(st.booleans()):
            header = data.draw(mutated(header))
        else:  # one array section: its name bytes, its rank, or its dims
            i = data.draw(st.integers(0, len(sections) - 1))
            name, ndim, dims, values = sections[i]
            part = data.draw(st.sampled_from(["name", "ndim", "dims"]))
            if part == "name":
                name = data.draw(st.binary(max_size=8))
            elif part == "ndim":
                ndim = data.draw(st.integers(0, 2**32 - 1))
            else:
                dims = tuple(data.draw(st.lists(st.integers(0, 2**32 - 1),
                                                min_size=ndim, max_size=ndim)))
            sections = [*sections[:i], (name, ndim, dims, values), *sections[i + 1:]]
        path = tmp_path / "model.lcst"
        path.write_bytes(_signed(header, sections))
        try:
            model = load(path)
            t1 = min(model.window.t1, 48)  # a declared t1 may be huge; a shorter input is rejected
            predict_batch(model, np.full((2, t1, len(model.channel_names)), 4e4))
            predict_at(model, toy_series(48), BASE + 40)
        except LoadcastError:
            pass

    def test_float32_training_keeps_float64_parameters(self, tmp_path):
        ds, model = self._model("lstm")
        x, _ = ds.split_arrays("test")
        assert predict_batch(model, x).dtype == np.float64
        save(model, tmp_path / "model.lcst")
        _, arrays = read_artifact(tmp_path / "model.lcst")
        assert sorted(arrays) == sorted(model.params)
        for name, value in model.params.items():
            assert value.dtype == arrays[name].dtype == np.float64
            assert np.array_equal(value, arrays[name])
        # Adam's float64 steps leave the master weights between float32 values
        assert any(np.any(v != v.astype(np.float32)) for v in arrays.values())

    def test_empty_fcnn_hidden_is_a_linear_network(self):
        _, ds = small_dataset(120)
        model = train(ds, ModelSpec(kind="fcnn", fcnn_hidden=(), epochs=1), FeatureSelector())
        assert sorted(model.params) == ["layer1.W", "layer1.b"]


@functools.cache
def _artifact_parts(kind):
    """(header, [(name bytes, ndim, dims, values bytes)]) of a small saved model."""
    selector = FeatureSelector(weather_features=("temp",), zones=(0,))
    _, ds = small_dataset(120, selector)
    spec = ModelSpec(kind=kind, fcnn_hidden=(4,), lstm_hidden=3, lstm_layers=1,
                     dense_size=4, epochs=1, svr_mode="ridge")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.lcst"
        save(train(ds, spec, selector), path)
        header, arrays = read_artifact(path)
    return header, [(name.encode(), value.ndim, value.shape, value.astype("<f8").tobytes())
                    for name, value in sorted(arrays.items())]


def _signed(header, sections) -> bytes:
    """The artifact bytes of `header` (a document, or its bytes) and raw array
    sections, with a valid checksum."""
    text = header if isinstance(header, bytes) else json.dumps(header).encode()
    body = b"LCST" + struct.pack("<II", 1, len(text)) + text + struct.pack("<I", len(sections))
    for name, ndim, dims, values in sections:
        body += struct.pack("<I", len(name)) + name + struct.pack("<I", ndim)
        body += struct.pack(f"<{len(dims)}I", *dims) + values
    return body + hashlib.sha256(body).digest()
