import numpy as np
import pytest
from hypothesis import given, strategies as st

from loadcast.errors import (
    DuplicateTimestamp,
    DuplicateZoneHour,
    EmptyIntersection,
    MalformedRow,
    NonPhysical,
    NonPositiveLoad,
    UnknownZone,
)
from loadcast.ingest import (
    align,
    combine_wind,
    cst_to_utc,
    format_hour,
    parse_hour,
    parse_load_csv,
    parse_weather_csv,
    read_aligned_csv,
    utc_to_cst,
    write_aligned_csv,
)

from _util import toy_series

BASE = np.datetime64("2015-06-01T00", "h")


def H(text):
    """One hour from `YYYY-MM-DDTHH` text."""
    return np.datetime64(text, "h")


def write_load(path, rows):
    lines = ["timestamp_cst,load_mw"] + [f"{s},{v}" for s, v in rows]
    path.write_text("\n".join(lines) + "\n")


def weather_row(stamp, zone, temp=290.0, u=1.0, v=2.0, lw=300.0, sw=100.0):
    return f"{stamp},{zone},{temp},{u},{v},{lw},{sw}"


def write_weather(path, rows):
    header = "timestamp_utc,zone_id,temp_k,wind_u_ms,wind_v_ms,lwrad_wm2,swrad_wm2"
    path.write_text("\n".join([header] + rows) + "\n")


class TestHourStamp:
    """datetime64[h] hours parsed from and formatted to the files' text."""

    def test_parse_format_round_trip(self):
        s = parse_hour("2015-06-01T07:00:00")
        assert s == H("2015-06-01T07")
        assert format_hour(s) == "2015-06-01T07:00:00"

    def test_rejects_partial_hours(self):
        with pytest.raises(ValueError):
            parse_hour("2015-06-01T07:30:00")

    def test_ordering_matches_time(self):
        assert parse_hour("2014-12-31T23:00:00") < parse_hour("2015-01-01T00:00:00")
        assert parse_hour("2015-01-01T05:00:00") < parse_hour("2015-01-02T00:00:00")

    def test_validation(self):
        with pytest.raises(ValueError):
            parse_hour("2015-13-01T00:00:00")
        with pytest.raises(ValueError):
            parse_hour("2015-02-29T00:00:00")  # not a leap year


class TestUtcToCst:
    def test_simple_offset(self):
        assert utc_to_cst(H("2015-06-01T06")) == H("2015-06-01T00")

    def test_year_rollover(self):
        assert utc_to_cst(H("2015-01-01T03")) == H("2014-12-31T21")

    def test_leap_day_rollover(self):
        assert utc_to_cst(H("2016-03-01T02")) == H("2016-02-29T20")

    @given(st.integers(min_value=0, max_value=24 * 365 * 200))
    def test_bijection(self, offset):
        stamp = H("1950-01-01T00") + offset
        assert cst_to_utc(utc_to_cst(stamp)) == stamp
        assert utc_to_cst(stamp) + 6 == stamp


class TestCombineWind:
    def test_pythagorean_triple(self):
        assert combine_wind(3.0, 4.0) == 5.0

    def test_zero(self):
        assert combine_wind(0.0, 0.0) == 0.0

    def test_sign_invariance_example(self):
        assert combine_wind(-1.0, 1.0) == pytest.approx(np.sqrt(2.0), rel=1e-15)

    @given(st.floats(-100, 100), st.floats(-100, 100))
    def test_symmetries(self, u, v):
        assert combine_wind(u, v) == combine_wind(-u, -v)
        assert combine_wind(u, v) == combine_wind(v, u)
        assert combine_wind(u, v) >= 0.0


class TestParseLoadCsv:
    def test_minimal_two_rows(self, tmp_path):
        p = tmp_path / "load.csv"
        write_load(p, [("2015-06-01T00:00:00", 40000), ("2015-06-01T01:00:00", 41000)])
        series = parse_load_csv(p)
        assert len(series) == 2
        assert series.gaps == ()
        assert series.loads_mw.tolist() == [40000.0, 41000.0]

    def test_gap_recorded(self, tmp_path):
        p = tmp_path / "load.csv"
        write_load(p, [("2015-06-01T00:00:00", 40000), ("2015-06-01T02:00:00", 41000)])
        series = parse_load_csv(p)
        assert len(series) == 2
        assert len(series.gaps) == 1
        assert series.gaps[0].start == H("2015-06-01T01")
        assert series.gaps[0].hours == 1

    def test_non_positive_load(self, tmp_path):
        p = tmp_path / "load.csv"
        write_load(p, [("2015-06-01T00:00:00", -5)])
        with pytest.raises(NonPositiveLoad):
            parse_load_csv(p)

    def test_duplicate_timestamp(self, tmp_path):
        p = tmp_path / "load.csv"
        write_load(p, [("2015-06-01T00:00:00", 1.0), ("2015-06-01T00:00:00", 2.0)])
        with pytest.raises(DuplicateTimestamp):
            parse_load_csv(p)

    def test_unsorted_input_is_sorted(self, tmp_path):
        p = tmp_path / "load.csv"
        write_load(p, [("2015-06-01T01:00:00", 2.0), ("2015-06-01T00:00:00", 1.0)])
        series = parse_load_csv(p)
        assert series.loads_mw.tolist() == [1.0, 2.0]

    def test_bad_header(self, tmp_path):
        p = tmp_path / "load.csv"
        p.write_text("time,load\n2015-06-01T00:00:00,1\n")
        with pytest.raises(MalformedRow) as err:
            parse_load_csv(p)
        assert err.value.line_no == 1

    def test_bad_row_reports_line(self, tmp_path):
        p = tmp_path / "load.csv"
        p.write_text("timestamp_cst,load_mw\n2015-06-01T00:00:00,1\nnot-a-stamp,2\n")
        with pytest.raises(MalformedRow) as err:
            parse_load_csv(p)
        assert err.value.line_no == 3


class TestParseWeatherCsv:
    def test_one_hour_all_zones(self, tmp_path):
        p = tmp_path / "weather.csv"
        write_weather(p, [weather_row("2015-06-01T00:00:00", z) for z in range(8)])
        rows = parse_weather_csv(p)
        assert len(rows) == 8
        assert sorted(s.zone_id for _, s in rows) == list(range(8))

    def test_unknown_zone(self, tmp_path):
        p = tmp_path / "weather.csv"
        write_weather(p, [weather_row("2015-06-01T00:00:00", 9)])
        with pytest.raises(UnknownZone):
            parse_weather_csv(p)

    def test_non_physical_temperature(self, tmp_path):
        p = tmp_path / "weather.csv"
        write_weather(p, [weather_row("2015-06-01T00:00:00", 0, temp=0.0)])
        with pytest.raises(NonPhysical):
            parse_weather_csv(p)

    def test_negative_radiation(self, tmp_path):
        p = tmp_path / "weather.csv"
        write_weather(p, [weather_row("2015-06-01T00:00:00", 0, sw=-1.0)])
        with pytest.raises(NonPhysical):
            parse_weather_csv(p)

    def test_duplicate_zone_hour(self, tmp_path):
        p = tmp_path / "weather.csv"
        write_weather(p, [weather_row("2015-06-01T00:00:00", 3)] * 2)
        with pytest.raises(DuplicateZoneHour):
            parse_weather_csv(p)


def _load_series(hours, base=BASE):
    from loadcast.ingest import LoadSeries
    stamps = base + np.array(hours, dtype=np.int64)
    return LoadSeries(stamps, np.full(len(stamps), 40000.0))


def _weather_rows(hours, zones=range(8), base=BASE):
    from loadcast.ingest import WeatherSample
    out = []
    for i in hours:
        for z in zones:
            out.append((base + i, WeatherSample(z, 290.0, 3.0, 4.0, 300.0, 100.0)))
    return out


class TestAlign:
    def test_intersection(self):
        aligned = align(_load_series(range(10)), _weather_rows(range(5, 15)))
        assert len(aligned) == 5
        assert aligned.stamps[0] == BASE + 5
        assert aligned.segments == ((0, 5),)
        # wind speed derived from (3, 4)
        assert np.allclose(aligned.weather[:, :, 1], 5.0)

    def test_missing_zone_excludes_hour(self):
        weather = _weather_rows(range(5, 10))
        weather = [(s, smp) for s, smp in weather
                   if not (s == BASE + 7 and smp.zone_id == 3)]
        aligned = align(_load_series(range(10)), weather)
        assert len(aligned) == 4
        assert aligned.segments == ((0, 2), (2, 2))

    def test_disjoint_raises(self):
        with pytest.raises(EmptyIntersection):
            align(_load_series(range(5)), _weather_rows(range(10, 15)))

    def test_segments_partition_rows(self):
        series = toy_series(48, seed=1, missing=(10, 11, 30))
        covered = []
        for start, length in series.segments:
            covered.extend(range(start, start + length))
        assert covered == list(range(len(series)))


class TestAlignedCsvRoundTrip:
    def test_round_trip_identity(self, tmp_path):
        series = toy_series(72, seed=3, missing=(20, 21))
        path = tmp_path / "aligned.csv"
        write_aligned_csv(series, path)
        back = read_aligned_csv(path)
        assert np.array_equal(back.stamps, series.stamps)
        assert back.segments == series.segments
        assert np.array_equal(back.load_mw, series.load_mw)
        assert np.array_equal(back.weather, series.weather)

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "aligned.csv"
        path.write_text("timestamp_cst,load\n")
        with pytest.raises(MalformedRow):
            read_aligned_csv(path)


# --- golden pin: outputs that must not move when the timeline changes form ----

def _sha256(data: bytes) -> str:
    import hashlib
    return hashlib.sha256(data).hexdigest()


def _hour_text(stamp) -> str:
    """File-format text of one in-memory stamp (its str() is ISO text to the
    hour or finer)."""
    return np.datetime_as_string(np.datetime64(str(stamp), "h"), unit="s")


class TestGoldenPin:
    def test_synthetic_pipeline_values(self, tmp_path):
        from loadcast.features import all_features, assemble
        from loadcast.ingest import load_and_align
        from loadcast.synthetic import generate_synthetic

        load_path, weather_path = generate_synthetic(0.1, 3, tmp_path)
        series = load_and_align(load_path, weather_path)
        assert len(series) == 876
        assert series.content_hash() == (
            "c4a180463786bdd6ed5056492d1406e1d1ad20a26cbe5f92fbea2bb877cb0f87")
        write_aligned_csv(series, tmp_path / "aligned.csv")
        assert _sha256((tmp_path / "aligned.csv").read_bytes()) == (
            "697c0ee8860a7bd09e2bf19ee861e5188aa2bcd600319723b0ad4088eabf7c9e")
        expected = {
            "scalar": "c7c8411ab639cd0003ec0765bc8e143b3ef0b086ed1c69bcb7dd4fbbb708a0d2",
            "cyclical": "46d6ca6ddeff9c540489524577d297950a5000da1f9f7fd083840850cc68bf37",
        }
        for encoding, digest in expected.items():
            values = assemble(series, all_features(encoding)).values
            assert _sha256(np.ascontiguousarray(values, dtype="<f8").tobytes()) == digest

    def test_gap_across_new_year_and_leap_day(self, tmp_path):
        import math

        from loadcast.features import TIME_FEATURES, FeatureSelector, assemble
        from loadcast.ingest import load_and_align

        # CST load hours: two on New Year's Eve (already 2016 in UTC), a gap
        # over the whole of January and February up to 2016-02-29T21, three
        # hours from the leap day into March, and one more hour whose zone 3
        # weather is missing, so that alignment drops it
        cst = ["2015-12-31T22:00:00", "2015-12-31T23:00:00",
               "2016-02-29T22:00:00", "2016-02-29T23:00:00", "2016-03-01T00:00:00",
               "2016-03-01T01:00:00"]
        utc = ["2016-01-01T04:00:00", "2016-01-01T05:00:00",
               "2016-03-01T04:00:00", "2016-03-01T05:00:00", "2016-03-01T06:00:00",
               "2016-03-01T07:00:00"]
        write_load(tmp_path / "load.csv", [(s, 40000 + i) for i, s in enumerate(cst)])
        write_weather(tmp_path / "weather.csv", [
            weather_row(s, z) for i, s in enumerate(utc) for z in range(8)
            if not (i == 5 and z == 3)])

        load = parse_load_csv(tmp_path / "load.csv")
        assert [(_hour_text(g.start), g.hours) for g in load.gaps] == [
            ("2016-01-01T00:00:00", 1438)]
        series = load_and_align(tmp_path / "load.csv", tmp_path / "weather.csv")
        assert [_hour_text(s) for s in series.stamps] == cst[:5]
        assert series.segments == ((0, 2), (2, 3))
        assert series.load_mw.tolist() == [40000.0, 40001.0, 40002.0, 40003.0, 40004.0]

        # hour, day_of_week (Monday=0), month of each row
        calendar = [(22, 3, 12), (23, 3, 12), (22, 0, 2), (23, 0, 2), (0, 1, 3)]
        scalar = assemble(series, FeatureSelector(
            include_load=False, time_features=TIME_FEATURES)).values
        assert scalar.tolist() == [[h / 23.0, d / 6.0, (m - 1) / 11.0]
                                   for h, d, m in calendar]
        cyclical = assemble(series, FeatureSelector(
            include_load=False, time_features=TIME_FEATURES,
            time_encoding="cyclical")).values
        expected = []
        for h, d, m in calendar:
            row = []
            for x in (h / 24.0, d / 7.0, (m - 1) / 12.0):
                row.extend((math.sin(2.0 * math.pi * x), math.cos(2.0 * math.pi * x)))
            expected.append(row)
        assert cyclical.tolist() == expected
