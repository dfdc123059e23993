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


# Each reader converts whole columns with builtins (`float`, `int`, and
# `parse_hour` once per distinct hour text) and checks them as array masks.
# Any failure, ValueError included, sends the rows through the per-row checks
# below, which raise the error of the first bad row in file order, worded as
# that row alone would be.

def _numbered_rows(path):
    """(physical line the row starts on, row) for each data row of a file that
    `_read_rows` accepted; a quoted field may span lines, so only a second
    read can tell. Used on the error path only."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        end = reader.line_num
        for row in reader:
            yield end + 1, row
            end = reader.line_num


def _columns(rows: list[list[str]], width: int) -> list[tuple[str, ...]]:
    """The `width` columns of the rows; ValueError if a row has another width."""
    if set(map(len, rows)) - {width}:
        raise ValueError("wrong field count")
    return list(zip(*rows)) or [()] * width


def _parse_hours(texts) -> np.ndarray:
    """datetime64[h] of each text, parsing each distinct text once."""
    distinct = dict.fromkeys(texts)
    hours = np.array([_hour_number(text) for text in distinct], dtype=np.int64)
    index = dict(zip(distinct, range(len(distinct))))
    return hours.astype(HOUR_DTYPE)[np.fromiter(map(index.__getitem__, texts), np.intp,
                                                len(texts))]


def _parse_floats(columns) -> np.ndarray:
    """(n, len(columns)) float64 of the columns' text; ValueError if any is not
    a finite float."""
    n = len(columns[0])
    values = np.fromiter(map(float, chain.from_iterable(columns)), np.float64,
                         n * len(columns))
    if not np.isfinite(values).all():
        raise ValueError("non-finite value")
    return np.ascontiguousarray(values.reshape(len(columns), n).T)


def _row_stamp(row: list[str], width: int, line_no: int) -> np.datetime64:
    if len(row) != width:
        raise MalformedRow(line_no, f"expected {width} fields, got {len(row)}")
    try:
        return parse_hour(row[0])
    except ValueError as exc:
        raise MalformedRow(line_no, str(exc)) from None


def _parse_float(text: str, line_no: int, what: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise MalformedRow(line_no, f"bad {what}: {text!r}") from None
    if not math.isfinite(value):
        raise MalformedRow(line_no, f"non-finite {what}: {text!r}")
    return value


def _raise_first_load_error(numbered) -> None:
    for line_no, row in numbered:
        stamp = _row_stamp(row, len(LOAD_HEADER), line_no)
        if _parse_float(row[1], line_no, "load_mw") <= 0:
            raise NonPositiveLoad(format_hour(stamp))


def _raise_first_weather_error(numbered) -> None:
    seen: set[tuple[np.datetime64, int]] = set()
    for line_no, row in numbered:
        stamp = _row_stamp(row, len(WEATHER_HEADER), line_no)
        try:
            zone = int(row[1])
        except ValueError:
            raise MalformedRow(line_no, f"bad zone_id: {row[1]!r}") from None
        if not 0 <= zone < N_ZONES:
            raise UnknownZone(zone)
        temp, _, _, lwrad, swrad = (
            _parse_float(row[i], line_no, WEATHER_HEADER[i]) for i in range(2, 7)
        )
        if temp <= 0:
            raise NonPhysical(f"temp_k {temp} <= 0 at {format_hour(stamp)} zone {zone}")
        if lwrad < 0 or swrad < 0:
            raise NonPhysical(f"negative radiation at {format_hour(stamp)} zone {zone}")
        if (stamp, zone) in seen:
            raise DuplicateZoneHour(format_hour(stamp), zone)
        seen.add((stamp, zone))


def _raise_first_aligned_error(numbered) -> None:
    previous, width = None, len(aligned_csv_header())
    for line_no, row in numbered:
        stamp = _row_stamp(row, width, line_no)
        if previous is not None and stamp <= previous:
            if stamp == previous:
                raise DuplicateTimestamp(format_hour(stamp))
            raise MalformedRow(line_no, "timestamps out of order")
        if _parse_float(row[1], line_no, "load_mw") <= 0:
            raise NonPositiveLoad(format_hour(stamp))
        for text in row[2:]:
            _parse_float(text, line_no, "weather value")
        previous = stamp


def parse_load_csv(path) -> LoadSeries:
    """Parse `timestamp_cst,load_mw` rows into a gap-annotated hourly series."""
    rows = _read_rows(path, LOAD_HEADER)
    try:
        stamp_col, load_col = _columns(rows, len(LOAD_HEADER))
        stamps = _parse_hours(stamp_col)
        loads = _parse_floats([load_col])[:, 0]
        if not (loads > 0).all():
            raise ValueError("non-positive load")
    except ValueError:
        _raise_first_load_error(_numbered_rows(path))
        raise
    order = np.argsort(stamps, kind="stable")
    stamps, loads = stamps[order], loads[order]
    repeats = np.flatnonzero(np.diff(stamps).astype(np.int64) == 0)
    if len(repeats):  # reported after every row passed its own checks
        raise DuplicateTimestamp(format_hour(stamps[repeats[0]]))
    return LoadSeries(_readonly(stamps), _readonly(loads))


def parse_weather_csv(path) -> WeatherColumns:
    """Parse per-zone weather rows keyed by UTC hour; units preserved as given."""
    rows = _read_rows(path, WEATHER_HEADER)
    try:
        stamp_col, zone_col, *value_cols = _columns(rows, len(WEATHER_HEADER))
        stamps = _parse_hours(stamp_col)
        zones = np.fromiter(map(int, zone_col), np.int64, len(rows))
        values = _parse_floats(value_cols)
        if not (((zones >= 0) & (zones < N_ZONES)).all() and (values[:, 0] > 0).all()
                and (values[:, 3:] >= 0).all()):
            raise ValueError("value out of range")
        order = np.lexsort((zones, stamps))
        keys = stamps[order].astype(np.int64) * N_ZONES + zones[order]
        if not (np.diff(keys) > 0).all():
            raise ValueError("duplicate (stamp, zone) pair")
    except (ValueError, OverflowError):  # OverflowError: a zone_id beyond int64
        _raise_first_weather_error(_numbered_rows(path))
        raise
    return WeatherColumns(stamps[order], zones[order], values[order])


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


def read_aligned_csv(path) -> AlignedSeries:
    expected = aligned_csv_header()
    rows = _read_rows(path, expected)
    try:
        stamp_col, *value_cols = _columns(rows, len(expected))
        stamps = _parse_hours(stamp_col)
        values = _parse_floats(value_cols)
        if not ((np.diff(stamps).astype(np.int64) > 0).all() and (values[:, 0] > 0).all()):
            raise ValueError("stamp out of order or non-positive load")
    except ValueError:
        _raise_first_aligned_error(_numbered_rows(path))
        raise
    if not rows:
        raise EmptyIntersection("aligned file has no rows")
    weather = values[:, 1:].reshape(len(rows), N_ZONES, len(ZONE_VARS))
    return AlignedSeries(stamps, _readonly(np.ascontiguousarray(values[:, 0])),
                         _readonly(weather))
