import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from loadcast.codec import from_json, to_json
from loadcast.errors import EmptySelector
from loadcast.features import (
    TIME_ENCODINGS,
    TIME_FEATURES,
    WEATHER_FEATURES,
    FeatureSelector,
    all_features,
    assemble,
    encode_time,
)
from loadcast.ingest import ZONE_VARS

from _util import toy_series


def H(text):
    """One hour from `YYYY-MM-DDTHH` text."""
    return np.datetime64(text, "h")


class TestEncodeTime:
    def test_hour_zero_scalar(self):
        assert tuple(encode_time(H("2015-06-01T00"), "hour")) == (0.0,)

    def test_month_december_scalar_endpoint(self):
        assert tuple(encode_time(H("2015-12-01T00"), "month")) == (1.0,)

    def test_hour_six_cyclical_quarter_cycle(self):
        sin6, cos6 = encode_time(H("2015-06-01T06"), "hour", "cyclical")
        assert sin6 == pytest.approx(1.0, abs=1e-12)
        assert cos6 == pytest.approx(0.0, abs=1e-12)

    def test_day_of_week_monday_origin(self):
        # 2015-06-01 was a Monday
        assert tuple(encode_time(H("2015-06-01T00"), "day_of_week")) == (0.0,)
        assert tuple(encode_time(H("2015-06-07T00"), "day_of_week")) == (1.0,)

    def test_scalar_range_all_values(self):
        for hour in range(24):
            (v,) = encode_time(H("2015-06-01T00") + hour, "hour")
            assert 0.0 <= v <= 1.0
        for month in range(1, 13):
            (v,) = encode_time(H(f"2015-{month:02d}-01T00"), "month")
            assert 0.0 <= v <= 1.0

    def test_cyclical_unit_circle(self):
        for hour in range(24):
            s, c = encode_time(H("2015-06-01T00") + hour, "hour", "cyclical")
            assert s * s + c * c == pytest.approx(1.0, rel=1e-12)

    def test_unknown_feature(self):
        with pytest.raises(ValueError):
            encode_time(H("2015-06-01T00"), "minute")


class TestFeatureSelector:
    def test_channel_count_formula(self):
        sel = FeatureSelector(time_features=("hour", "month"),
                              weather_features=("temp",), zones=(0, 1, 2))
        assert sel.channel_count == 1 + 2 + 1 * 3

    def test_cyclical_doubles_time_channels(self):
        sel = FeatureSelector(time_features=("hour",), time_encoding="cyclical")
        assert sel.channel_count == 1 + 2

    def test_canonical_ordering(self):
        a = FeatureSelector(time_features=("month", "hour"),
                            weather_features=("wind", "temp"))
        b = FeatureSelector(time_features=("hour", "month"),
                            weather_features=("temp", "wind"))
        assert a == b
        assert a.channel_names() == b.channel_names()

    def test_invalid_names_rejected(self):
        with pytest.raises(ValueError):
            FeatureSelector(time_features=("minute",))
        with pytest.raises(ValueError):
            FeatureSelector(weather_features=("humidity",))
        with pytest.raises(ValueError):
            FeatureSelector(zones=(8,))
        with pytest.raises(ValueError):
            FeatureSelector(time_encoding="onehot")

    def test_dict_round_trip(self):
        sel = all_features(time_encoding="cyclical")
        assert from_json(FeatureSelector, to_json(sel)) == sel

    def test_unknown_dict_key_rejected(self):
        with pytest.raises(ValueError):
            from_json(FeatureSelector, {"include_load": True, "zone": [1]})


class TestAssemble:
    def test_load_only_single_column(self):
        series = toy_series(24)
        m = assemble(series, FeatureSelector())
        assert m.values.shape == (24, 1)
        assert m.channel_names == ("load",)
        assert m.load_channel == 0
        assert np.array_equal(m.values[:, 0], series.load_mw)

    def test_load_plus_temp_all_zones(self):
        series = toy_series(24)
        m = assemble(series, FeatureSelector(weather_features=("temp",)))
        assert m.values.shape == (24, 9)
        assert m.channel_names == ("load",) + tuple(f"z{z}_temp" for z in range(8))
        assert np.array_equal(m.values[:, 1], series.weather[:, 0, 0])

    def test_full_selector_36_channels_hand_counted(self):
        # independent hand count: load, 3 time scalars, then 4 weather
        # features expanded over 8 zones in (temp, swrad, lwrad, wind) order
        expected = (
            ["load", "hour", "day_of_week", "month"]
            + [f"z{z}_temp" for z in range(8)]
            + [f"z{z}_swrad" for z in range(8)]
            + [f"z{z}_lwrad" for z in range(8)]
            + [f"z{z}_wind" for z in range(8)]
        )
        assert len(expected) == 36
        series = toy_series(12)
        m = assemble(series, all_features())
        assert m.channel_names == tuple(expected)
        assert m.values.shape == (12, 36)

    def test_deterministic(self):
        series = toy_series(24, seed=5)
        sel = all_features()
        m1 = assemble(series, sel)
        m2 = assemble(series, sel)
        assert m1.channel_names == m2.channel_names
        assert np.array_equal(m1.values, m2.values)

    def test_removing_weather_feature_removes_zone_count_columns(self):
        series = toy_series(12)
        full = assemble(series, all_features())
        minus = assemble(series, FeatureSelector(
            time_features=("hour", "day_of_week", "month"),
            weather_features=("temp", "swrad", "lwrad")))
        assert full.values.shape[1] - minus.values.shape[1] == 8
        assert set(full.channel_names) - set(minus.channel_names) == {
            f"z{z}_wind" for z in range(8)}

    def test_empty_selector(self):
        series = toy_series(6)
        with pytest.raises(EmptySelector):
            assemble(series, FeatureSelector(include_load=False))

    def test_time_channels_match_encode_time(self):
        series = toy_series(30, seed=2)
        sel = FeatureSelector(time_features=("hour",), time_encoding="cyclical")
        m = assemble(series, sel)
        for i, stamp in enumerate(series.stamps):
            s, c = encode_time(stamp, "hour", "cyclical")
            assert m.values[i, 1] == s and m.values[i, 2] == c


def _per_column(series, sel):
    """The feature matrix built one channel at a time, in channel order."""
    columns = [series.load_mw] if sel.include_load else []
    for t in sel.time_features:
        columns.extend(encode_time(series.stamps, t, sel.time_encoding).T)
    for w in sel.weather_features:
        columns.extend(series.weather[:, z, ZONE_VARS.index(w)] for z in sel.zones)
    return np.column_stack(columns) if columns else np.empty((len(series), 0))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_assemble_equals_a_per_column_build(data):
    n_hours = data.draw(st.integers(1, 60), label="hours")
    missing = data.draw(st.sets(st.integers(1, n_hours - 1), max_size=n_hours // 3)
                        if n_hours > 1 else st.just(set()), label="missing")
    series = toy_series(n_hours, seed=data.draw(st.integers(0, 9)), missing=tuple(missing))
    sel = FeatureSelector(
        include_load=data.draw(st.booleans(), label="load"),
        time_features=tuple(data.draw(st.sets(st.sampled_from(TIME_FEATURES)), label="time")),
        weather_features=tuple(data.draw(st.sets(st.sampled_from(WEATHER_FEATURES)),
                                         label="weather")),
        zones=tuple(data.draw(st.sets(st.integers(0, 7)), label="zones")),
        time_encoding=data.draw(st.sampled_from(TIME_ENCODINGS), label="encoding"))
    expected = _per_column(series, sel)
    if expected.shape[1] == 0:
        with pytest.raises(EmptySelector):
            assemble(series, sel)
        return
    m = assemble(series, sel)
    assert m.values.dtype == np.float64 and not m.values.flags.writeable
    assert m.values.shape == (len(series), len(sel.channel_names()))
    assert np.array_equal(m.values, expected)
    assert m.channel_names == sel.channel_names()
    assert m.load_channel == (0 if sel.include_load else None)
