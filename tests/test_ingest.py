import csv
import dataclasses
import io
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from loadcast import ingest
from loadcast.codec import write_csv
from loadcast.errors import (
    DuplicateTimestamp,
    DuplicateZoneHour,
    EmptyIntersection,
    LoadcastError,
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

    @given(st.one_of(
        st.integers(-24 * 365 * 1969, 24 * 365 * 8000).map(
            lambda h: format_hour(np.datetime64(h, "h"))),
        st.from_regex(r"[0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:00:00", fullmatch=True),
        st.from_regex(r"[0-9]{1,4}-[0-9]{1,2}-[0-9]{1,2}T[0-9]{1,2}:[0-9]{2}:[0-9]{2}",
                      fullmatch=True),
    ))
    def test_matches_strptime_reference(self, text):
        from datetime import datetime

        def reference(text):
            dt = datetime.strptime(text, "%Y-%m-%dT%H:%M:%S")
            if dt.minute or dt.second:
                raise ValueError(f"not a whole hour: {text!r}")
            return np.datetime64(dt, "h")

        try:
            expected = reference(text)
        except ValueError as exc:
            with pytest.raises(ValueError) as err:
                parse_hour(text)
            assert str(err.value) == str(exc)
        else:
            assert parse_hour(text) == expected

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
        assert sorted(rows.zone_id.tolist()) == list(range(8))

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

    def test_columns_sorted_by_stamp_then_zone(self, tmp_path):
        p = tmp_path / "weather.csv"
        write_weather(p, [_w("01", 5), _w("00", " 3", temp=" 2.9e2 ", sw="1_0"),
                          _w("01", 0, u="-1.5")])
        rows = parse_weather_csv(p)
        assert np.array_equal(rows.stamps, BASE + np.array([0, 1, 1]))
        assert rows.zone_id.tolist() == [3, 0, 5]
        assert rows.values.tolist() == [[290.0, 1.0, 2.0, 300.0, 10.0],
                                        [290.0, -1.5, 2.0, 300.0, 100.0],
                                        [290.0, 1.0, 2.0, 300.0, 100.0]]

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
    from loadcast.ingest import WeatherColumns
    stamps = base + np.repeat(np.array(hours, dtype=np.int64), len(zones))
    zone_id = np.tile(np.array(zones, dtype=np.int64), len(hours))
    values = np.tile([290.0, 3.0, 4.0, 300.0, 100.0], (len(stamps), 1))
    return WeatherColumns(stamps, zone_id, values)


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
        kept = ~((weather.stamps == BASE + 7) & (weather.zone_id == 3))
        weather = dataclasses.replace(weather, stamps=weather.stamps[kept],
                                      zone_id=weather.zone_id[kept],
                                      values=weather.values[kept])
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

    def test_interrupted_write_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "aligned.csv"
        write_aligned_csv(toy_series(24, seed=1), path)
        before = path.read_bytes()
        real_write_csv = ingest.write_csv

        def interrupted_write_csv(path, header, rows):
            """Streams rows until data rows have reached the temporary file,
            then is interrupted."""
            header_bytes = len(",".join(header)) + 2

            def rows_then_interrupt():
                for row in rows:
                    if any(tmp.stat().st_size > header_bytes for tmp in tmp_path.glob("*.tmp")):
                        raise KeyboardInterrupt
                    yield row
            real_write_csv(path, header, rows_then_interrupt())

        monkeypatch.setattr(ingest, "write_csv", interrupted_write_csv)
        with pytest.raises(KeyboardInterrupt):
            write_aligned_csv(toy_series(72, seed=2), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["aligned.csv"]


_EDGE_FLOATS = (-0.0, 5e-324, math.inf, -math.inf, math.nan, 1e16, 1.7976931348623157e308)
_CSV_FIELDS = st.one_of(
    st.integers(-24 * 365 * 1969, 24 * 365 * 8000).map(
        lambda h: format_hour(np.datetime64(h, "h"))),
    st.integers(),
    st.floats(),
    st.sampled_from(_EDGE_FLOATS),
)


def _csv_table(width):
    row = st.lists(_CSV_FIELDS, min_size=width, max_size=width)
    return st.tuples(st.just(width), st.lists(st.one_of(row, row.map(tuple)), max_size=20))


class TestWriteCsvDialect:
    """write_csv writes the bytes of the csv module's default dialect."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(table=st.integers(1, 8).flatmap(_csv_table))
    @example(table=(9, [["2015-01-01T00:00:00", 0, *_EDGE_FLOATS],
                        ("2016-02-29T23:00:00", -1, *_EDGE_FLOATS[::-1])]))
    def test_bytes_equal_csv_writer(self, tmp_path, table):
        width, rows = table
        header = [f"col{i}" for i in range(width)]
        path = tmp_path / "table.csv"
        write_csv(path, header, rows)
        reference = io.StringIO(newline="")
        csv.writer(reference).writerows([header, *rows])
        assert path.read_bytes() == reference.getvalue().encode("utf-8")


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


# --- error pin: which error each bad file raises, worded how, on which line ---

LOAD_HEADER_TEXT = "timestamp_cst,load_mw"
WEATHER_HEADER_TEXT = "timestamp_utc,zone_id,temp_k,wind_u_ms,wind_v_ms,lwrad_wm2,swrad_wm2"
STRPTIME_FORMAT = "%Y-%m-%dT%H:%M:%S"


def _s(hour):
    return f"2015-06-01T{hour}:00:00"


def _w(hour, zone, temp="290.0", u="1.0", v="2.0", lw="300.0", sw="100.0"):
    return f"{_s(hour)},{zone},{temp},{u},{v},{lw},{sw}"


def _a(hour, load="40000.0", first="1.5"):
    return f"{_s(hour)},{load}," + ",".join([first] + ["1.5"] * 31)


def _aligned_header():
    from loadcast.ingest import aligned_csv_header
    return ",".join(aligned_csv_header())


# (reader, header, data rows, exception class, str(exc), line_no or None)
ERROR_CASES = {
    "load-bad-header": (
        "load", "time,load", [f"{_s('00')},1"],
        MalformedRow, "line 1: expected header 'timestamp_cst,load_mw'", 1),
    "load-field-count": (
        "load", None, [f"{_s('00')},1", f"{_s('01')},1,2"],
        MalformedRow, "line 3: expected 2 fields, got 3", 3),
    "load-bad-stamp": (
        "load", None, [f"{_s('00')},1", "2015-06-01 01:00:00,1"],
        MalformedRow,
        f"line 3: time data '2015-06-01 01:00:00' does not match format '{STRPTIME_FORMAT}'",
        3),
    "load-not-whole-hour": (
        "load", None, [f"{_s('00')},1", "2015-06-01T01:30:00,1"],
        MalformedRow, "line 3: not a whole hour: '2015-06-01T01:30:00'", 3),
    "load-bad-float": (
        "load", None, [f"{_s('00')},1", f"{_s('01')},abc"],
        MalformedRow, "line 3: bad load_mw: 'abc'", 3),
    "load-inf": (
        "load", None, [f"{_s('00')},inf"],
        MalformedRow, "line 2: non-finite load_mw: 'inf'", 2),
    "load-nan": (
        "load", None, [f"{_s('00')},nan"],
        MalformedRow, "line 2: non-finite load_mw: 'nan'", 2),
    "load-zero": (
        "load", None, [f"{_s('00')},1", f"{_s('01')},0"],
        NonPositiveLoad, "non-positive load at 2015-06-01T01:00:00", None),
    "load-duplicate-loses-to-later-bad-float": (
        "load", None,
        [f"{_s('00')},1", f"{_s('00')},2"]
        + [f"{_s(h)},1" for h in ("02", "03", "04", "05", "06", "07")]
        + [f"{_s('08')},0x10"],
        MalformedRow, "line 10: bad load_mw: '0x10'", 10),
    "load-smallest-duplicate-named": (
        "load", None, [f"{_s('05')},1", f"{_s('05')},1", f"{_s('02')},1", f"{_s('02')},1"],
        DuplicateTimestamp, "duplicate timestamp 2015-06-01T02:00:00", None),
    "load-field-count-beats-stamp": (
        "load", None, ["bad,stamp,x"],
        MalformedRow, "line 2: expected 2 fields, got 3", 2),
    "load-stamp-beats-float": (
        "load", None, ["bad,abc"],
        MalformedRow, f"line 2: time data 'bad' does not match format '{STRPTIME_FORMAT}'", 2),
    "load-earlier-line-wins": (
        "load", None, [f"{_s('00')},-1", "bad,1"],
        NonPositiveLoad, "non-positive load at 2015-06-01T00:00:00", None),
    "load-earlier-bad-float-wins": (
        "load", None, [f"{_s('00')},1", f"{_s('01')},abc", "bad,1"],
        MalformedRow, "line 3: bad load_mw: 'abc'", 3),
    "load-line-after-multiline-field": (  # row 1's quoted load spans lines 2-3
        "load", None, [f'{_s("00")},"1', '"', f"{_s('01')},abc"],
        MalformedRow, "line 4: bad load_mw: 'abc'", 4),
    "weather-line-after-multiline-field": (  # row 1's quoted temp spans lines 2-3
        "weather", None, [f'{_s("00")},0,"290.0', '",1.0,2.0,300.0,100.0',
                          _w("00", 1, temp="abc")],
        MalformedRow, "line 4: bad temp_k: 'abc'", 4),
    "weather-bad-header": (
        "weather", "timestamp,zone", [_w("00", 0)],
        MalformedRow, f"line 1: expected header '{WEATHER_HEADER_TEXT}'", 1),
    "weather-field-count": (
        "weather", None, [_w("00", 0), _w("00", 1)[:-6]],
        MalformedRow, "line 3: expected 7 fields, got 6", 3),
    "weather-bad-stamp": (
        "weather", None, [_w("00", 0), "2015-06-01T24:00:00,1,290,1,2,300,100"],
        MalformedRow,
        f"line 3: time data '2015-06-01T24:00:00' does not match format '{STRPTIME_FORMAT}'",
        3),
    "weather-not-whole-hour": (
        "weather", None, [_w("00", 0), "2015-06-01T01:00:01,1,290,1,2,300,100"],
        MalformedRow, "line 3: not a whole hour: '2015-06-01T01:00:01'", 3),
    "weather-bad-zone-text": (
        "weather", None, [_w("00", 0), _w("00", "x")],
        MalformedRow, "line 3: bad zone_id: 'x'", 3),
    "weather-zone-9": (
        "weather", None, [_w("00", 0), _w("00", 9)],
        UnknownZone, "zone_id 9 outside 0-7", None),
    "weather-zone-beyond-int64": (
        "weather", None, [_w("00", 0), _w("00", 10**20)],
        UnknownZone, f"zone_id {10**20} outside 0-7", None),
    "weather-zone-negative": (
        "weather", None, [_w("00", 0), _w("00", -1)],
        UnknownZone, "zone_id -1 outside 0-7", None),
    "weather-bad-float": (
        "weather", None, [_w("00", 0), _w("00", 1, temp="abc")],
        MalformedRow, "line 3: bad temp_k: 'abc'", 3),
    "weather-nan": (
        "weather", None, [_w("00", 0), _w("00", 1, v="nan")],
        MalformedRow, "line 3: non-finite wind_v_ms: 'nan'", 3),
    "weather-first-bad-column-wins": (
        "weather", None, [_w("00", 0), _w("00", 1, u="inf", v="abc")],
        MalformedRow, "line 3: non-finite wind_u_ms: 'inf'", 3),
    "weather-temp-zero": (
        "weather", None, [_w("00", 0), _w("00", 1, temp="0")],
        NonPhysical, "temp_k 0.0 <= 0 at 2015-06-01T00:00:00 zone 1", None),
    "weather-floats-beat-temp": (
        "weather", None, [_w("00", 0), _w("00", 1, temp="-1", sw="abc")],
        MalformedRow, "line 3: bad swrad_wm2: 'abc'", 3),
    "weather-negative-lwrad": (
        "weather", None, [_w("00", 0), _w("00", 1, lw="-0.5")],
        NonPhysical, "negative radiation at 2015-06-01T00:00:00 zone 1", None),
    "weather-negative-swrad": (
        "weather", None, [_w("00", 0), _w("00", 1, sw="-1e-9")],
        NonPhysical, "negative radiation at 2015-06-01T00:00:00 zone 1", None),
    "weather-duplicate": (
        "weather", None, [_w("00", 3), _w("00", 3)],
        DuplicateZoneHour, "duplicate (timestamp, zone) pair: 2015-06-01T00:00:00 zone 3",
        None),
    "weather-first-repeat-in-file-order": (
        "weather", None, [_w("05", 1), _w("01", 2), _w("05", 1), _w("01", 2)],
        DuplicateZoneHour, "duplicate (timestamp, zone) pair: 2015-06-01T05:00:00 zone 1",
        None),
    "weather-temp-beats-duplicate": (
        "weather", None, [_w("00", 3), _w("00", 3, temp="0")],
        NonPhysical, "temp_k 0.0 <= 0 at 2015-06-01T00:00:00 zone 3", None),
    "weather-earlier-duplicate-wins": (
        "weather", None, [_w("00", 3), _w("00", 3), _w("01", 1, temp="abc")],
        DuplicateZoneHour, "duplicate (timestamp, zone) pair: 2015-06-01T00:00:00 zone 3",
        None),
    "weather-field-count-beats-stamp": (
        "weather", None, ["bad,x,abc,1,2,3"],
        MalformedRow, "line 2: expected 7 fields, got 6", 2),
    "weather-stamp-beats-zone": (
        "weather", None, ["bad,x,abc,1,2,3,4"],
        MalformedRow, f"line 2: time data 'bad' does not match format '{STRPTIME_FORMAT}'", 2),
    "weather-zone-beats-floats": (
        "weather", None, [_w("00", "x", temp="abc")],
        MalformedRow, "line 2: bad zone_id: 'x'", 2),
    "weather-unknown-zone-beats-floats": (
        "weather", None, [_w("00", 9, temp="abc")],
        UnknownZone, "zone_id 9 outside 0-7", None),
    "weather-earlier-line-wins": (
        "weather", None, [_w("00", 0, temp="0"), _w("01", "x")],
        NonPhysical, "temp_k 0.0 <= 0 at 2015-06-01T00:00:00 zone 0", None),
    "aligned-bad-header": (
        "aligned", LOAD_HEADER_TEXT, [],
        MalformedRow, None, 1),
    "aligned-no-rows": (
        "aligned", None, [],
        EmptyIntersection, "aligned file has no rows", None),
    "aligned-field-count": (
        "aligned", None, [_a("00"), _a("01")[:-4]],
        MalformedRow, "line 3: expected 34 fields, got 33", 3),
    "aligned-not-whole-hour": (
        "aligned", None, [_a("00"), _a("01").replace("T01:00:00", "T01:15:00")],
        MalformedRow, "line 3: not a whole hour: '2015-06-01T01:15:00'", 3),
    "aligned-duplicate-stamp": (
        "aligned", None, [_a("00"), _a("00")],
        DuplicateTimestamp, "duplicate timestamp 2015-06-01T00:00:00", None),
    "aligned-out-of-order": (
        "aligned", None, [_a("01"), _a("00")],
        MalformedRow, "line 3: timestamps out of order", 3),
    "aligned-bad-load": (
        "aligned", None, [_a("00"), _a("01", load="x")],
        MalformedRow, "line 3: bad load_mw: 'x'", 3),
    "aligned-non-finite-load": (
        "aligned", None, [_a("00"), _a("01", load="-inf")],
        MalformedRow, "line 3: non-finite load_mw: '-inf'", 3),
    "aligned-negative-load": (
        "aligned", None, [_a("00"), _a("01", load="-3")],
        NonPositiveLoad, "non-positive load at 2015-06-01T01:00:00", None),
    "aligned-bad-weather-value": (
        "aligned", None, [_a("00"), _a("01", first="zz")],
        MalformedRow, "line 3: bad weather value: 'zz'", 3),
    "aligned-non-finite-weather-value": (
        "aligned", None, [_a("00"), _a("01", first="nan")],
        MalformedRow, "line 3: non-finite weather value: 'nan'", 3),
    "aligned-order-beats-load": (
        "aligned", None, [_a("01"), _a("00", load="x")],
        MalformedRow, "line 3: timestamps out of order", 3),
    "aligned-load-beats-weather": (
        "aligned", None, [_a("00"), _a("01", load="0", first="x")],
        NonPositiveLoad, "non-positive load at 2015-06-01T01:00:00", None),
    "aligned-earlier-line-wins": (
        "aligned", None, [_a("00"), _a("01", first="x"), _a("01")],
        MalformedRow, "line 3: bad weather value: 'x'", 3),
}


def _write_case(tmp_path, reader, header, rows):
    if header is None:
        header = {"load": LOAD_HEADER_TEXT, "weather": WEATHER_HEADER_TEXT,
                  "aligned": _aligned_header()}[reader]
    path = tmp_path / f"{reader}.csv"
    path.write_text("\n".join([header, *rows]) + "\n")
    return path


READERS = {"load": parse_load_csv, "weather": parse_weather_csv, "aligned": read_aligned_csv}


class TestErrorPin:
    @pytest.mark.parametrize("case", ERROR_CASES, ids=list(ERROR_CASES))
    def test_error(self, tmp_path, case):
        reader, header, rows, cls, message, line_no = ERROR_CASES[case]
        if message is None:  # the aligned header is too long to spell out
            message = f"line 1: expected header '{_aligned_header()}'"
        path = _write_case(tmp_path, reader, header, rows)
        with pytest.raises(LoadcastError) as err:
            READERS[reader](path)
        assert type(err.value) is cls
        assert str(err.value) == message
        assert getattr(err.value, "line_no", None) == line_no

    def test_lenient_spellings_accepted(self, tmp_path):
        """Float and int text is whatever float()/int() accept, and stamps
        whatever the strptime format accepts."""
        load = parse_load_csv(_write_case(
            tmp_path, "load", None, [f"{_s('00')}, 2.5 ", "2015-6-1T01:00:00,1_0"]))
        assert load.loads_mw.tolist() == [2.5, 10.0]
        assert np.array_equal(load.stamps, BASE + np.arange(2))
        aligned = read_aligned_csv(_write_case(
            tmp_path, "aligned", None,
            [_a("00"), _a("01").replace("2015-06-01T01", "2015-6-1T01")]))
        assert np.array_equal(aligned.stamps, BASE + np.arange(2))


# --- fuzz: mutated files parse or fail with a LoadcastError, nothing else ------

def _valid_files(tmp_path):
    """A small valid load, weather and aligned.csv file, as bytes."""
    write_load(tmp_path / "load.csv", [(_s(f"{h:02d}"), 40000 + h) for h in range(4)])
    write_weather(tmp_path / "weather.csv",
                  [_w(f"{h:02d}", z) for h in range(2) for z in range(8)])
    write_aligned_csv(toy_series(3, seed=1), tmp_path / "aligned.csv")
    return {kind: (tmp_path / f"{kind}.csv").read_bytes() for kind in READERS}


def _mutate(data: bytes, draw) -> bytes:
    if not data:
        return data
    op = draw(st.sampled_from(["flip", "truncate", "lines", "fields"]))
    if op == "flip":
        out = bytearray(data)
        for _ in range(draw(st.integers(1, 4))):
            out[draw(st.integers(0, len(out) - 1))] = draw(st.integers(0, 255))
        return bytes(out)
    if op == "truncate":
        return data[:draw(st.integers(0, len(data)))]
    lines = data.split(b"\n")
    i = draw(st.integers(0, len(lines) - 1))
    if op == "lines":
        if draw(st.booleans()):
            del lines[i]
        else:
            lines.insert(i, lines[i])
        return b"\n".join(lines)
    fields = lines[i].split(b",")
    j = draw(st.integers(0, len(fields) - 1))
    if draw(st.booleans()):
        del fields[j]
    else:
        fields.insert(j, fields[j])
    lines[i] = b",".join(fields)
    return b"\n".join(lines)


class TestFuzzReaders:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(kind=st.sampled_from(sorted(READERS)), n_mutations=st.integers(1, 3),
           data=st.data())
    def test_mutated_file_parses_or_raises_loadcast_error(self, tmp_path, kind,
                                                          n_mutations, data):
        content = _valid_files(tmp_path)[kind]
        for _ in range(n_mutations):
            content = _mutate(content, data.draw)
        path = tmp_path / f"mutated_{kind}.csv"
        path.write_bytes(content)
        try:
            READERS[kind](path)
        except LoadcastError as exc:
            line_no = getattr(exc, "line_no", None)
        else:
            return
        try:
            text = content.decode("utf-8")
            lines = io.StringIO(text, newline="").readlines()  # the lines csv.reader counts
            list(csv.reader(lines))
        except (UnicodeDecodeError, csv.Error):
            return
        if line_no in (None, 1):
            return
        # the rows before the line named are good: as a file of their own they
        # parse, or fail only as a whole file
        prefix = tmp_path / f"prefix_{kind}.csv"
        prefix.write_bytes("".join(lines[:line_no - 1]).encode("utf-8"))
        whole_file_errors = {"load": (DuplicateTimestamp,), "weather": (),
                             "aligned": (EmptyIntersection,)}[kind]
        try:
            READERS[kind](prefix)
        except whole_file_errors:
            pass
