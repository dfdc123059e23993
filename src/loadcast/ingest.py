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
from dataclasses import dataclass, field
from datetime import datetime
from pathlib import Path

import numpy as np

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


def parse_hour(text: str) -> np.datetime64:
    """Parse `YYYY-MM-DDTHH:00:00` into a datetime64[h] hour.

    Raises ValueError for any other text, including a valid time that is not
    a whole hour.
    """
    dt = datetime.strptime(text, "%Y-%m-%dT%H:%M:%S")
    if dt.minute or dt.second:
        raise ValueError(f"not a whole hour: {text!r}")
    return np.datetime64(dt, "h")


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
class WeatherSample:
    zone_id: int
    temp_k: float
    wind_u_ms: float
    wind_v_ms: float
    lwrad_wm2: float
    swrad_wm2: float


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


def _read_rows(path, expected_header):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != expected_header:
            raise MalformedRow(1, f"expected header {','.join(expected_header)!r}")
        yield from ((line_no, row) for line_no, row in enumerate(reader, start=2))


def _parse_float(text: str, line_no: int, what: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise MalformedRow(line_no, f"bad {what}: {text!r}") from None
    if not math.isfinite(value):
        raise MalformedRow(line_no, f"non-finite {what}: {text!r}")
    return value


def _parse_stamp(text: str, line_no: int) -> np.datetime64:
    try:
        return parse_hour(text)
    except ValueError as exc:
        raise MalformedRow(line_no, str(exc)) from None


def parse_load_csv(path) -> LoadSeries:
    """Parse `timestamp_cst,load_mw` rows into a gap-annotated hourly series."""
    stamps: list[np.datetime64] = []
    loads: list[float] = []
    for line_no, row in _read_rows(path, LOAD_HEADER):
        if len(row) != 2:
            raise MalformedRow(line_no, f"expected 2 fields, got {len(row)}")
        stamp = _parse_stamp(row[0], line_no)
        load = _parse_float(row[1], line_no, "load_mw")
        if load <= 0:
            raise NonPositiveLoad(format_hour(stamp))
        stamps.append(stamp)
        loads.append(load)
    stamp_arr = np.array(stamps, dtype=HOUR_DTYPE)
    order = np.argsort(stamp_arr, kind="stable")
    stamp_arr, load_arr = stamp_arr[order], np.array(loads, dtype=np.float64)[order]
    repeats = np.flatnonzero(np.diff(stamp_arr).astype(np.int64) == 0)
    if len(repeats):
        raise DuplicateTimestamp(format_hour(stamp_arr[repeats[0]]))
    stamp_arr.setflags(write=False)
    load_arr.setflags(write=False)
    return LoadSeries(stamp_arr, load_arr)


def parse_weather_csv(path) -> list[tuple[np.datetime64, WeatherSample]]:
    """Parse per-zone weather rows keyed by UTC hour; units preserved as given."""
    out: list[tuple[np.datetime64, WeatherSample]] = []
    seen: set[tuple[np.datetime64, int]] = set()
    hours: dict[str, np.datetime64] = {}  # each hour's text repeats once per zone
    for line_no, row in _read_rows(path, WEATHER_HEADER):
        if len(row) != 7:
            raise MalformedRow(line_no, f"expected 7 fields, got {len(row)}")
        stamp = hours.get(row[0])
        if stamp is None:
            stamp = hours[row[0]] = _parse_stamp(row[0], line_no)
        try:
            zone = int(row[1])
        except ValueError:
            raise MalformedRow(line_no, f"bad zone_id: {row[1]!r}") from None
        if not 0 <= zone < N_ZONES:
            raise UnknownZone(zone)
        temp, u, v, lwrad, swrad = (
            _parse_float(row[i], line_no, WEATHER_HEADER[i]) for i in range(2, 7)
        )
        if temp <= 0:
            raise NonPhysical(f"temp_k {temp} <= 0 at {format_hour(stamp)} zone {zone}")
        if lwrad < 0 or swrad < 0:
            raise NonPhysical(f"negative radiation at {format_hour(stamp)} zone {zone}")
        if (stamp, zone) in seen:
            raise DuplicateZoneHour(format_hour(stamp), zone)
        seen.add((stamp, zone))
        out.append((stamp, WeatherSample(zone, temp, u, v, lwrad, swrad)))
    out.sort(key=lambda r: (r[0], r[1].zone_id))
    return out


def align(load: LoadSeries,
          weather: list[tuple[np.datetime64, WeatherSample]]) -> AlignedSeries:
    """Join load with per-zone weather on hours where everything is present.

    Weather timestamps must already be in CST. Hours missing the load or any
    of the 8 zones are dropped, splitting the result into segments.
    """
    by_hour: dict[np.datetime64, dict[int, WeatherSample]] = {}
    for stamp, sample in weather:
        by_hour.setdefault(stamp, {})[sample.zone_id] = sample

    keep = np.array([len(by_hour.get(s, ())) == N_ZONES for s in load.stamps], dtype=bool)
    if not keep.any():
        raise EmptyIntersection("no hour has both load and all 8 weather zones")

    stamps = load.stamps[keep]
    loads = np.asarray(load.loads_mw)[keep]
    table = np.empty((len(stamps), N_ZONES, len(ZONE_VARS)), dtype=np.float64)
    for r, s in enumerate(stamps):
        zones = by_hour[s]
        for z in range(N_ZONES):
            smp = zones[z]
            table[r, z] = (
                smp.temp_k,
                combine_wind(smp.wind_u_ms, smp.wind_v_ms),
                smp.lwrad_wm2,
                smp.swrad_wm2,
            )
    loads.setflags(write=False)
    table.setflags(write=False)
    return AlignedSeries(stamps, loads, table)


def load_and_align(load_path, weather_path) -> AlignedSeries:
    """Parse both files, convert weather UTC->CST, and align."""
    load = parse_load_csv(load_path)
    weather = parse_weather_csv(weather_path)
    cst = utc_to_cst(np.array([s for s, _ in weather], dtype=HOUR_DTYPE))
    return align(load, list(zip(cst, (smp for _, smp in weather))))


def aligned_csv_header() -> list[str]:
    cols = ["timestamp_cst", "load_mw"]
    suffix = {"temp": "temp_k", "wind": "wind_ms", "lwrad": "lwrad_wm2", "swrad": "swrad_wm2"}
    for z in range(N_ZONES):
        cols.extend(f"z{z}_{suffix[v]}" for v in ZONE_VARS)
    return cols


def write_aligned_csv(series: AlignedSeries, path) -> None:
    """Serialize with shortest round-trip float formatting (exact re-parse)."""
    path = Path(path)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(aligned_csv_header())
        for i, stamp in enumerate(format_hour(series.stamps)):
            row = [stamp, repr(float(series.load_mw[i]))]
            row.extend(repr(float(x)) for x in series.weather[i].reshape(-1))
            writer.writerow(row)


def read_aligned_csv(path) -> AlignedSeries:
    expected = aligned_csv_header()
    stamps: list[np.datetime64] = []
    loads: list[float] = []
    table: list[list[float]] = []
    for line_no, row in _read_rows(path, expected):
        if len(row) != len(expected):
            raise MalformedRow(line_no, f"expected {len(expected)} fields, got {len(row)}")
        stamp = _parse_stamp(row[0], line_no)
        if stamps and stamp <= stamps[-1]:
            if stamp == stamps[-1]:
                raise DuplicateTimestamp(format_hour(stamp))
            raise MalformedRow(line_no, "timestamps out of order")
        load = _parse_float(row[1], line_no, "load_mw")
        if load <= 0:
            raise NonPositiveLoad(format_hour(stamp))
        stamps.append(stamp)
        loads.append(load)
        table.append([_parse_float(v, line_no, "weather value") for v in row[2:]])
    if not stamps:
        raise EmptyIntersection("aligned file has no rows")
    load_arr = np.array(loads, dtype=np.float64)
    weather = np.array(table, dtype=np.float64).reshape(len(stamps), N_ZONES, len(ZONE_VARS))
    load_arr.setflags(write=False)
    weather.setflags(write=False)
    return AlignedSeries(np.array(stamps, dtype=HOUR_DTYPE), load_arr, weather)
