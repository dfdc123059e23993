import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from loadcast.dataset import (
    Normalizer,
    WindowConfig,
    build_windows,
    chronological_split,
)
from loadcast.errors import EmptyTrainSplit, MissingLoadChannel, TooFewSamples
from loadcast.features import FeatureSelector, assemble

from _util import toy_series


def windows_for(n_hours, missing=(), t1=6, t2=4, selector=None):
    series = toy_series(n_hours, seed=1, missing=missing)
    matrix = assemble(series, selector or FeatureSelector())
    return series, build_windows(matrix, series.segments, series.stamps,
                                 WindowConfig(t1=t1, t2=t2))


def brute_force_count(segment_lengths, span):
    return sum(max(0, length - span + 1) for length in segment_lengths)


class TestWindowConfig:
    def test_defaults(self):
        cfg = WindowConfig()
        assert (cfg.t1, cfg.t2, cfg.span) == (6, 4, 10)

    def test_validation(self):
        with pytest.raises(ValueError):
            WindowConfig(t1=0)
        with pytest.raises(ValueError):
            WindowConfig(t2=0)
        assert WindowConfig(t2=8784).span == 8790  # one leap year of hours
        assert WindowConfig(t1=8784).span == 8788
        with pytest.raises(ValueError):
            WindowConfig(t2=8785)
        with pytest.raises(ValueError):
            WindowConfig(t1=8785)


class TestBuildWindows:
    def test_single_segment_exact_fit(self):
        _, raw = windows_for(10)
        assert len(raw) == 1

    def test_single_segment_24_hours(self):
        _, raw = windows_for(24)
        assert len(raw) == 15

    def test_two_segments_no_straddle(self):
        # 26 hours with hours 12,13 missing -> two segments of 12
        series, raw = windows_for(26, missing=(12, 13))
        assert [length for _, length in series.segments] == [12, 12]
        assert len(raw) == 6
        # brute force: every window's hour span must be contiguous
        stamp_set = set(series.stamps)
        for origin in raw.origins:
            for k in range(raw.cfg.span):
                assert origin + k in stamp_set

    def test_targets_are_raw_load_of_last_hours(self):
        series, raw = windows_for(12)
        raw = chronological_split(raw)  # one window per split
        for split, first in zip(("train", "val", "test"), range(3)):
            inputs, targets = raw.split_arrays(split)
            assert targets.shape == (1, 4)
            assert np.array_equal(targets[0], series.load_mw[first + 6:first + 10])
            assert np.array_equal(inputs[0, :, 0], series.load_mw[first:first + 6])

    def test_window_counts_match_brute_force_sweep(self):
        for t1 in range(1, 9):
            for t2 in range(1, 7):
                for length in range(1, 51):
                    if length + 2 > 51:
                        break
                    series, raw = windows_for(length, t1=t1, t2=t2)
                    expected = brute_force_count(
                        [seg_len for _, seg_len in series.segments], t1 + t2)
                    assert len(raw) == expected

    def test_random_gap_patterns_never_straddle(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = 60
            missing = tuple(np.flatnonzero(rng.random(n) < 0.15))
            t1 = int(rng.integers(1, 9))
            t2 = int(rng.integers(1, 7))
            series, raw = windows_for(n, missing=missing, t1=t1, t2=t2)
            expected = brute_force_count(
                [seg_len for _, seg_len in series.segments], t1 + t2)
            assert len(raw) == expected
            stamp_set = set(series.stamps)
            for origin in raw.origins:
                assert all(origin + k in stamp_set for k in range(t1 + t2))

    def test_window_values_across_random_gaps(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            n = 80
            missing = tuple(np.flatnonzero(rng.random(n) < 0.15))
            t1 = int(rng.integers(1, 9))
            t2 = int(rng.integers(1, 7))
            series = toy_series(n, seed=1, missing=missing)
            matrix = assemble(series, FeatureSelector(weather_features=("temp", "wind")))
            raw = build_windows(matrix, series.segments, series.stamps, WindowConfig(t1, t2))
            assert raw.matrix is matrix
            if len(raw) >= 3:
                raw = chronological_split(raw)
            load = matrix.values[:, matrix.load_channel]
            for split in ("train", "val", "test"):
                inputs, targets = raw.split_arrays(split)
                origins = raw.origins[raw.split_slice(split)]
                assert len(inputs) == len(targets) == len(origins)
                for i, origin in enumerate(origins):
                    r = int(np.searchsorted(series.stamps, origin))
                    assert series.stamps[r] == origin
                    assert np.array_equal(inputs[i], matrix.values[r:r + t1])
                    assert np.array_equal(targets[i], load[r + t1:r + t1 + t2])
            for array in (raw.starts, raw.origins):
                assert not array.flags.writeable
                assert array.flags.c_contiguous

    def test_no_windows(self):
        series = toy_series(9, seed=1)
        matrix = assemble(series, FeatureSelector())
        raw = build_windows(matrix, series.segments, series.stamps, WindowConfig(t1=6, t2=4))
        assert raw.matrix is matrix
        inputs, targets = raw.split_arrays("test")
        channels = len(matrix.channel_names)
        assert (inputs.shape, targets.shape, raw.starts.shape, raw.origins.shape) == (
            (0, 6, channels), (0, 4), (0,), (0,))
        assert (inputs.dtype, targets.dtype, raw.origins.dtype) == (
            np.float64, np.float64, np.dtype("datetime64[h]"))
        for array in (raw.starts, raw.origins):
            assert not array.flags.writeable

    def test_missing_load_channel(self):
        series = toy_series(20)
        matrix = assemble(series, FeatureSelector(include_load=False,
                                                  weather_features=("temp",)))
        with pytest.raises(MissingLoadChannel):
            build_windows(matrix, series.segments, series.stamps, WindowConfig())


class TestChronologicalSplit:
    def _split_counts(self, n):
        _, raw = windows_for(n + 9)  # single segment -> n windows
        ds = chronological_split(raw)
        return ds.n_train, ds.n_val, ds.n_test

    def test_split_100(self):
        assert self._split_counts(100) == (45, 45, 10)

    def test_split_20(self):
        assert self._split_counts(20) == (9, 9, 2)

    def test_split_3(self):
        assert self._split_counts(3) == (1, 1, 1)

    def test_too_few_samples(self):
        _, raw = windows_for(11)  # 2 windows
        with pytest.raises(TooFewSamples):
            chronological_split(raw)

    def test_fraction_validation(self):
        _, raw = windows_for(30)
        with pytest.raises(ValueError):
            chronological_split(raw, (0.5, 0.5, 0.5))
        with pytest.raises(ValueError):
            chronological_split(raw, (0.9, 0.2, -0.1))

    def test_chronology_invariant(self):
        _, raw = windows_for(80, missing=(31, 32, 33))
        ds = chronological_split(raw)
        train = ds.origins[ds.split_slice("train")]
        val = ds.origins[ds.split_slice("val")]
        test = ds.origins[ds.split_slice("test")]
        assert max(train) < min(val) <= max(val) < min(test)

    def test_counts_within_two_of_exact_fractions(self):
        for n in (3, 7, 20, 53, 100, 997):
            _, raw = windows_for(n + 9)
            ds = chronological_split(raw)
            for count, frac in zip((ds.n_train, ds.n_val, ds.n_test),
                                   (0.45, 0.45, 0.10)):
                assert abs(count - frac * n) <= 2


class TestNormalizer:
    def _dataset(self, n_hours=40, selector=None):
        _, raw = windows_for(n_hours, selector=selector)
        return chronological_split(raw)

    def test_fit_min_max(self):
        ds = self._dataset()
        norm = Normalizer.fit(ds)
        x, y = ds.split_arrays("train")
        assert np.array_equal(norm.channel_min, x.min(axis=(0, 1)))
        assert np.array_equal(norm.channel_max, x.max(axis=(0, 1)))
        assert norm.target_min == y.min() and norm.target_max == y.max()

    def test_transform_midpoint(self):
        norm = Normalizer(np.array([0.0]), np.array([100.0]), 0.0, 100.0)
        assert norm.transform(np.array([[50.0]]))[0, 0] == 0.5

    def test_inverse_round_trip_example(self):
        norm = Normalizer(np.array([0.0]), np.array([100.0]), 0.0, 100.0)
        assert norm.inverse_transform_load(np.array([0.5]))[0] == 50.0

    def test_out_of_range_passes_through(self):
        norm = Normalizer(np.array([0.0]), np.array([100.0]), 0.0, 100.0)
        assert norm.transform(np.array([[120.0]]))[0, 0] == pytest.approx(1.2)

    def test_degenerate_channel_maps_to_half(self):
        norm = Normalizer(np.array([5.0, 0.0]), np.array([5.0, 10.0]), 0.0, 1.0)
        out = norm.transform(np.array([[5.0, 5.0]]))
        assert out[0, 0] == 0.5 and out[0, 1] == 0.5

    def test_channels_independent(self):
        norm = Normalizer(np.array([0.0, 100.0]), np.array([10.0, 300.0]), 0.0, 1.0)
        out = norm.transform(np.array([[5.0, 200.0]]))
        assert out[0, 0] == 0.5 and out[0, 1] == 0.5

    def test_empty_train_split(self):
        ds = self._dataset()
        object.__setattr__(ds, "n_train", 0)
        with pytest.raises(EmptyTrainSplit):
            Normalizer.fit(ds)

    def test_not_fitted(self):
        # a normalizer exists only fitted: every range is a required field
        with pytest.raises(TypeError):
            Normalizer()

    @settings(max_examples=200)
    @given(st.floats(min_value=-1e6, max_value=1e6),
           st.floats(min_value=1e-3, max_value=1e6),
           st.floats(min_value=0.0, max_value=1.0))
    def test_load_round_trip_within_1e9(self, lo, span, frac):
        norm = Normalizer(np.array([lo]), np.array([lo + span]), lo, lo + span)
        y = lo + frac * span
        back = norm.inverse_transform_load(norm.transform_target(np.array([y])))[0]
        assert back == pytest.approx(y, rel=1e-9, abs=1e-9)
