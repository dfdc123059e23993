"""Load/weather CSV parsing, timezone reconciliation, and hourly alignment.

Timestamps live in fixed-offset Central Standard Time (UTC-6, no DST), so
hours stay bijective across the UTC conversion. In memory a timeline is a
`numpy.datetime64[h]` array (whole hours since the epoch); `parse_hour` and
`format_hour` convert to and from the `YYYY-MM-DDTHH:00:00` text of the files.
Gaps are recorded and split the aligned series into contiguous segments; they
are never interpolated.
"""

from __future__ import annotations

import csv
import hashlib
import math
import re
from dataclasses import dataclass, field, replace
from datetime import date, datetime
from itertools import chain
from pathlib import Path

import numpy as np

from .codec import write_csv
from .errors import (
    DuplicateTimestamp,
    DuplicateZoneHour,
    EmptyIntersection,
    MalformedRow,
    NonPhysical,
    NonPositiveLoad,
    UnknownZone,
)

N_ZONES = 8
CST_OFFSET_HOURS = 6
HOUR_DTYPE = "datetime64[h]"

#: variable order of the per-zone columns, both in memory and in aligned.csv
ZONE_VARS = ("temp", "wind", "lwrad", "swrad")

LOAD_HEADER = ["timestamp_cst", "load_mw"]
WEATHER_HEADER = [
    "timestamp_utc", "zone_id", "temp_k", "wind_u_ms", "wind_v_ms",
    "lwrad_wm2", "swrad_wm2",
]


_CANONICAL_HOUR = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:00:00")
_EPOCH_DAY = date(1970, 1, 1).toordinal()


def _hour_number(text: str) -> int:
    """Hours since 1970-01-01T00 of `parse_hour` text."""
    dt = None
    if _CANONICAL_HOUR.fullmatch(text):  # skips strptime; datetime checks the same ranges
        try:
            dt = datetime(int(text[:4]), int(text[5:7]), int(text[8:10]), int(text[11:13]))
        except ValueError:
            pass  # strptime words the error
    if dt is None:
        dt = datetime.strptime(text, "%Y-%m-%dT%H:%M:%S")
        if dt.minute or dt.second:
            raise ValueError(f"not a whole hour: {text!r}")
    return (dt.toordinal() - _EPOCH_DAY) * 24 + dt.hour


def parse_hour(text: str) -> np.datetime64:
    """Parse `YYYY-MM-DDTHH:00:00` into a datetime64[h] hour.

    Raises ValueError for any other text, including a valid time that is not
    a whole hour. Text in exactly that ASCII form is built with `datetime`;
    all other text goes through `strptime`, so the accepted text and the
    wording of errors are those of `strptime`.
    """
    return np.datetime64(_hour_number(text), "h")


def format_hour(stamps):
    """ISO text (`YYYY-MM-DDTHH:00:00`) of one hour or an array of hours."""
    return np.datetime_as_string(stamps, unit="s")


def utc_to_cst(stamps):
    """Fixed UTC-6 conversion of one hour or an array of hours."""
    return stamps - CST_OFFSET_HOURS


def cst_to_utc(stamps):
    return stamps + CST_OFFSET_HOURS


def combine_wind(u: float, v: float) -> float:
    """Combined speed from zonal and meridional components (root sum square)."""
    return math.hypot(u, v)


@dataclass(frozen=True)
class Gap:
    """A run of missing hours: `hours` missing stamps starting at `start`."""

    start: np.datetime64
    hours: int


@dataclass(frozen=True)
class LoadSeries:
    stamps: np.ndarray    # (n,) datetime64[h], ascending
    loads_mw: np.ndarray  # (n,), all > 0

    def __len__(self) -> int:
        return len(self.stamps)

    @property
    def gaps(self) -> tuple[Gap, ...]:
        steps = np.diff(self.stamps).astype(np.int64)
        return tuple(Gap(self.stamps[i] + 1, int(steps[i]) - 1)
                     for i in np.flatnonzero(steps > 1))


@dataclass(frozen=True)
class WeatherColumns:
    """Per-zone weather rows as columns, sorted by (stamp, zone_id).

    `values[i]` holds (temp_k, wind_u_ms, wind_v_ms, lwrad_wm2, swrad_wm2) of
    row i in the CSV's column order, units as given. Each (stamp, zone_id)
    pair appears at most once.
    """

    stamps: np.ndarray   # (n,) datetime64[h]
    zone_id: np.ndarray  # (n,) int, 0-7
    values: np.ndarray   # (n, 5)

    def __len__(self) -> int:
        return len(self.stamps)


@dataclass(frozen=True)
class AlignedSeries:
    """Hourly rows where load and all 8 zones are present.

    `stamps` must be strictly increasing. `weather[i, z, :]` holds (temp_k,
    wind_ms, lwrad_wm2, swrad_wm2) for zone z at row i, with wind already
    combined from its u/v components. `segments` is derived from `stamps`: it
    lists (start_row, n_rows) runs of consecutive hours, which partition rows.
    """

    stamps: np.ndarray    # (n,) datetime64[h]
    load_mw: np.ndarray   # (n,)
    weather: np.ndarray   # (n, N_ZONES, len(ZONE_VARS))
    segments: tuple[tuple[int, int], ...] = field(init=False)

    def __post_init__(self):
        stamps = np.asarray(self.stamps, dtype=HOUR_DTYPE)
        stamps.setflags(write=False)  # segments must stay in step with stamps
        steps = np.diff(stamps).astype(np.int64)
        if np.any(steps <= 0):
            raise ValueError("stamps must be strictly increasing")
        bounds = [0, *(np.flatnonzero(steps > 1) + 1).tolist(), len(stamps)]
        object.__setattr__(self, "stamps", stamps)
        object.__setattr__(self, "segments", tuple(
            (a, b - a) for a, b in zip(bounds, bounds[1:]) if b > a))

    def __len__(self) -> int:
        return len(self.stamps)

    def content_hash(self) -> str:
        """SHA-256 over timestamps and values; identifies the dataset."""
        digest = hashlib.sha256()
        digest.update("".join(format_hour(self.stamps)).encode())
        digest.update(np.ascontiguousarray(self.load_mw, dtype="<f8").tobytes())
        digest.update(np.ascontiguousarray(self.weather, dtype="<f8").tobytes())
        return digest.hexdigest()


def _readonly(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _read_rows(path, expected_header) -> list[list[str]]:
    """The data rows of a CSV file after its header.

    Bytes that are not UTF-8 and rows the csv module rejects (such as a field
    over its size limit) are a MalformedRow on the line where they occur.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            if next(reader, None) != expected_header:
                raise MalformedRow(1, f"expected header {','.join(expected_header)!r}")
            return list(reader)
    except csv.Error as exc:
        raise MalformedRow(reader.line_num, str(exc)) from None
    except UnicodeDecodeError:
        data = Path(path).read_bytes()  # that error's offset was into one chunk
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedRow(data.count(b"\n", 0, exc.start) + 1, str(exc)) from None
    return _read_rows(path, expected_header)  # the file changed between the reads


# Each reader is one pass over whole columns: builtins (`float`, `int`, and
# `parse_hour` once per distinct hour text) convert them and array masks check
# them, in the order of a single row's checks. A failed check raises _BadRow
# for the first row it rejects; a row before that one may still fail a later
# check, so `_check` reruns the pass on the rows before the row it named until
# the pass accepts them all. The last row named is then the first bad row in
# file order, and its error is worded as that row alone would be.

class _BadRow(Exception):
    """`_BadRow(index, error)`: data row `index` (from 0) fails a check, and
    `error` is its LoadcastError or the reason of a MalformedRow."""


def _require(ok: np.ndarray, error) -> None:
    """_BadRow with `error(i)` for the first row i where `ok` is False."""
    if not ok.all():
        i = int(np.argmin(ok))
        raise _BadRow(i, error(i))


def _check(path, header: list[str], checks):
    """`checks` of the data rows of the CSV file `path` with `header`, or the
    error of the first row it rejects in file order."""
    rows = _read_rows(path, header)
    try:
        return checks(rows)
    except _BadRow as bad:
        index, error = bad.args
    while True:
        try:
            checks(rows[:index])
            break
        except _BadRow as bad:
            index, error = bad.args
    if isinstance(error, str):  # a quoted field may span lines: a re-read finds the line
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            for _ in range(index + 1):  # the header and the rows before
                next(reader)
        raise MalformedRow(reader.line_num + 1, error)
    raise error


def _columns(rows: list[list[str]], width: int) -> list[tuple[str, ...]]:
    """The `width` columns of the rows."""
    if set(map(len, rows)) - {width}:
        i = next(i for i, row in enumerate(rows) if len(row) != width)
        raise _BadRow(i, f"expected {width} fields, got {len(rows[i])}")
    return list(zip(*rows)) or [()] * width


def _parse_hours(texts) -> np.ndarray:
    """datetime64[h] of each text, parsing each distinct text once."""
    distinct = dict.fromkeys(texts)
    hours = []
    for text in distinct:  # in order of first occurrence
        try:
            hours.append(_hour_number(text))
        except ValueError as exc:
            raise _BadRow(texts.index(text), str(exc)) from None
    index = dict(zip(distinct, range(len(distinct))))
    return np.array(hours, dtype=np.int64).astype(HOUR_DTYPE)[
        np.fromiter(map(index.__getitem__, texts), np.intp, len(texts))]


def _parse_zones(texts) -> np.ndarray:
    """The int zone_id of each text, each in 0-7."""
    try:
        zones = np.fromiter(map(int, texts), np.int64, len(texts))
        if ((zones >= 0) & (zones < N_ZONES)).all():
            return zones
    except (ValueError, OverflowError):  # OverflowError: a zone_id beyond int64
        pass
    for i, text in enumerate(texts):
        try:
            zone = int(text)
        except ValueError:
            raise _BadRow(i, f"bad zone_id: {text!r}") from None
        if not 0 <= zone < N_ZONES:
            raise _BadRow(i, UnknownZone(zone))


def _parse_floats(columns, names) -> np.ndarray:
    """(n, len(columns)) float64 of the columns' text, each a finite float."""
    n = len(columns[0])
    try:
        values = np.fromiter(map(float, chain.from_iterable(columns)), np.float64,
                             n * len(columns))
        if np.isfinite(values).all():
            return np.ascontiguousarray(values.reshape(len(columns), n).T)
    except ValueError:
        pass
    for i, row in enumerate(zip(*columns)):
        for name, text in zip(names, row):
            try:
                value = float(text)
            except ValueError:
                raise _BadRow(i, f"bad {name}: {text!r}") from None
            if not math.isfinite(value):
                raise _BadRow(i, f"non-finite {name}: {text!r}")


def _parse_loads(texts, stamps) -> np.ndarray:
    """load_mw of each text, each > 0; `stamps` name the hour of a bad one."""
    loads = _parse_floats([texts], ["load_mw"])[:, 0]
    _require(loads > 0, lambda i: NonPositiveLoad(format_hour(stamps[i])))
    return loads


def _load_rows(rows):
    stamp_col, load_col = _columns(rows, len(LOAD_HEADER))
    stamps = _parse_hours(stamp_col)
    return stamps, _parse_loads(load_col, stamps)


def parse_load_csv(path) -> LoadSeries:
    """Parse `timestamp_cst,load_mw` rows into a gap-annotated hourly series."""
    stamps, loads = _check(path, LOAD_HEADER, _load_rows)
    order = np.argsort(stamps, kind="stable")
    stamps, loads = stamps[order], loads[order]
    repeats = np.flatnonzero(np.diff(stamps).astype(np.int64) == 0)
    if len(repeats):  # reported after every row passed its own checks
        raise DuplicateTimestamp(format_hour(stamps[repeats[0]]))
    return LoadSeries(_readonly(stamps), _readonly(loads))


def _weather_rows(rows):
    stamp_col, zone_col, *value_cols = _columns(rows, len(WEATHER_HEADER))
    stamps = _parse_hours(stamp_col)
    zones = _parse_zones(zone_col)
    values = _parse_floats(value_cols, WEATHER_HEADER[2:])
    _require(values[:, 0] > 0, lambda i: NonPhysical(
        f"temp_k {float(values[i, 0])} <= 0 at {format_hour(stamps[i])} zone {zones[i]}"))
    _require((values[:, 3:] >= 0).all(axis=1), lambda i: NonPhysical(
        f"negative radiation at {format_hour(stamps[i])} zone {zones[i]}"))
    order = np.lexsort((zones, stamps))  # stable: repeats of a pair keep file order
    repeat = np.zeros(len(rows), dtype=bool)
    keys = stamps[order].astype(np.int64) * N_ZONES + zones[order]
    repeat[order[1:][np.diff(keys) == 0]] = True
    _require(~repeat, lambda i: DuplicateZoneHour(format_hour(stamps[i]), int(zones[i])))
    return WeatherColumns(stamps[order], zones[order], values[order])


def parse_weather_csv(path) -> WeatherColumns:
    """Parse per-zone weather rows keyed by UTC hour; units preserved as given."""
    return _check(path, WEATHER_HEADER, _weather_rows)


def align(load: LoadSeries, weather: WeatherColumns) -> AlignedSeries:
    """Join load with per-zone weather on hours where everything is present.

    Weather timestamps must already be in CST. Hours missing the load or any
    of the 8 zones are dropped, splitting the result into segments.
    """
    row = np.searchsorted(load.stamps, weather.stamps)  # load row of each sample
    found = row < len(load)
    found[found] = load.stamps[row[found]] == weather.stamps[found]
    present = np.zeros((len(load), N_ZONES), dtype=bool)
    present[row[found], weather.zone_id[found]] = True
    keep = present.all(axis=1)
    if not keep.any():
        raise EmptyIntersection("no hour has both load and all 8 weather zones")

    found[found] = keep[row[found]]
    out_row = (np.cumsum(keep) - 1)[row[found]]
    values = weather.values[found]
    # math.hypot, not np.hypot: the two differ in the last bit for some pairs
    wind = np.fromiter(map(combine_wind, values[:, 1].tolist(), values[:, 2].tolist()),
                       np.float64, len(values))
    table = np.empty((int(keep.sum()), N_ZONES, len(ZONE_VARS)), dtype=np.float64)
    table[out_row, weather.zone_id[found]] = np.column_stack(
        [values[:, 0], wind, values[:, 3], values[:, 4]])
    return AlignedSeries(load.stamps[keep], _readonly(np.asarray(load.loads_mw)[keep]),
                         _readonly(table))


def load_and_align(load_path, weather_path) -> AlignedSeries:
    """Parse both files, convert weather UTC->CST, and align."""
    load = parse_load_csv(load_path)
    weather = parse_weather_csv(weather_path)
    return align(load, replace(weather, stamps=utc_to_cst(weather.stamps)))


def aligned_csv_header() -> list[str]:
    cols = ["timestamp_cst", "load_mw"]
    suffix = {"temp": "temp_k", "wind": "wind_ms", "lwrad": "lwrad_wm2", "swrad": "swrad_wm2"}
    for z in range(N_ZONES):
        cols.extend(f"z{z}_{suffix[v]}" for v in ZONE_VARS)
    return cols


def write_aligned_csv(series: AlignedSeries, path) -> None:
    """Serialize with shortest round-trip float formatting (exact re-parse).

    The file is replaced atomically: an interrupted write leaves the earlier
    file, if any, as it was.
    """
    values = np.column_stack([series.load_mw, series.weather.reshape(len(series), -1)])
    write_csv(path, aligned_csv_header(),
              zip(format_hour(series.stamps).tolist(), *values.T.tolist()))


def _aligned_rows(rows):
    stamp_col, load_col, *weather_cols = _columns(rows, len(aligned_csv_header()))
    stamps = _parse_hours(stamp_col)
    steps = np.diff(stamps).astype(np.int64)
    _require(np.concatenate(([True], steps > 0)),
             lambda i: DuplicateTimestamp(format_hour(stamps[i])) if steps[i - 1] == 0
             else "timestamps out of order")
    loads = _parse_loads(load_col, stamps)
    weather = _parse_floats(weather_cols, ["weather value"] * len(weather_cols))
    return stamps, loads, weather.reshape(-1, N_ZONES, len(ZONE_VARS))


def read_aligned_csv(path) -> AlignedSeries:
    stamps, loads, weather = _check(path, aligned_csv_header(), _aligned_rows)
    if not len(stamps):
        raise EmptyIntersection("aligned file has no rows")
    return AlignedSeries(stamps, _readonly(loads), _readonly(weather))
