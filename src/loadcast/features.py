"""Declarative feature selection and matrix assembly.

Channel order is fixed: optional load column first, then time features in
(hour, day_of_week, month) order, then weather features in (temp, swrad,
lwrad, wind) order, each expanded over the selected zones ascending.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptySelector
from .ingest import HOUR_DTYPE, N_ZONES, ZONE_VARS, AlignedSeries

TIME_FEATURES = ("hour", "day_of_week", "month")
WEATHER_FEATURES = ("temp", "swrad", "lwrad", "wind")
TIME_ENCODINGS = ("scalar", "cyclical")

_ZONE_COL = {name: ZONE_VARS.index(name) for name in WEATHER_FEATURES}


@dataclass(frozen=True)
class FeatureSelector:
    """Which channels enter the model input."""

    include_load: bool = True
    time_features: tuple[str, ...] = ()
    weather_features: tuple[str, ...] = ()
    zones: tuple[int, ...] = tuple(range(N_ZONES))
    time_encoding: str = "scalar"

    def __post_init__(self):
        for name in self.time_features:
            if name not in TIME_FEATURES:
                raise ValueError(f"unknown time feature {name!r}")
        for name in self.weather_features:
            if name not in WEATHER_FEATURES:
                raise ValueError(f"unknown weather feature {name!r}")
        for z in self.zones:
            if not 0 <= z < N_ZONES:
                raise ValueError(f"zone {z} outside 0-{N_ZONES - 1}")
        if self.time_encoding not in TIME_ENCODINGS:
            raise ValueError(f"time_encoding must be one of {TIME_ENCODINGS}")
        # canonical internal order, deduplicated, so channel names are deterministic
        object.__setattr__(
            self, "time_features",
            tuple(n for n in TIME_FEATURES if n in self.time_features))
        object.__setattr__(
            self, "weather_features",
            tuple(n for n in WEATHER_FEATURES if n in self.weather_features))
        object.__setattr__(self, "zones", tuple(sorted(set(self.zones))))

    @property
    def channel_count(self) -> int:
        return len(self.channel_names())

    def channel_names(self) -> tuple[str, ...]:
        names: list[str] = []
        if self.include_load:
            names.append("load")
        for t in self.time_features:
            if self.time_encoding == "cyclical":
                names.extend((f"{t}_sin", f"{t}_cos"))
            else:
                names.append(t)
        for w in self.weather_features:
            names.extend(f"z{z}_{w}" for z in self.zones)
        return tuple(names)

def all_features(time_encoding: str = "scalar") -> FeatureSelector:
    """Load plus every time and weather feature over all 8 zones."""
    return FeatureSelector(
        time_features=TIME_FEATURES,
        weather_features=WEATHER_FEATURES,
        time_encoding=time_encoding,
    )


def encode_time(stamps, which: str, encoding: str = "scalar") -> np.ndarray:
    """Encode one time feature of each hour as 1 (scalar) or 2 (cyclical) values.

    `stamps` is a datetime64[h] hour or array of hours; the result has one
    more axis, of length 1 or 2. Scalar maps onto [0, 1]: hour/23,
    day_of_week/6 (Monday=0), (month-1)/11. Cyclical returns
    (sin 2*pi*x, cos 2*pi*x) with x = hour/24, dow/7, (month-1)/12.
    """
    stamps = np.asarray(stamps, dtype=HOUR_DTYPE)
    hours = stamps.astype(np.int64)
    if which == "hour":
        value, span, period = hours % 24, 23.0, 24
    elif which == "day_of_week":
        # 1970-01-01, day 0 of the epoch, was a Thursday (3)
        value, span, period = (hours // 24 + 3) % 7, 6.0, 7
    elif which == "month":
        value, span, period = stamps.astype("datetime64[M]").astype(np.int64) % 12, 11.0, 12
    else:
        raise ValueError(f"unknown time feature {which!r}")
    if encoding == "scalar":
        return (value / span)[..., None]
    if encoding == "cyclical":
        # math.sin/cos once per distinct value: numpy's vector kernels may
        # differ from them in the last bit, which would change stored features
        table = np.array([(math.sin(2.0 * math.pi * (k / period)),
                           math.cos(2.0 * math.pi * (k / period))) for k in range(period)])
        return table[value]
    raise ValueError(f"unknown encoding {encoding!r}")


@dataclass(frozen=True)
class FeatureMatrix:
    """Rows = aligned hours, columns = selected channels (raw units)."""

    values: np.ndarray  # (n, channels)
    channel_names: tuple[str, ...]
    load_channel: int | None = field(default=None)


def feature_values(stamps, load_mw, weather, selector: FeatureSelector) -> np.ndarray:
    """The read-only (n, channels) float64 matrix of n aligned hours in
    `selector`'s channel order, from the `stamps`, `load_mw` and `weather`
    columns of an `AlignedSeries` (or of its rows)."""
    n = len(stamps)
    zones = np.array(selector.zones, dtype=np.intp)
    cols = np.array([_ZONE_COL[w] for w in selector.weather_features], dtype=np.intp)
    columns = [np.asarray(load_mw, dtype=np.float64)[:, None]] if selector.include_load else []
    columns.extend(encode_time(stamps, t, selector.time_encoding) for t in selector.time_features)
    # one gather: the (feature, zone) index pairs give (n, features, zones) in channel order
    columns.append(weather[:, zones[None, :], cols[:, None]].reshape(n, len(cols) * len(zones)))
    values = np.concatenate(columns, axis=1)
    if values.shape[1] == 0:
        raise EmptySelector("selector yields zero channels")
    values.setflags(write=False)
    return values


def assemble(series: AlignedSeries, selector: FeatureSelector) -> FeatureMatrix:
    """Build the numeric feature matrix for every row of an aligned series."""
    return FeatureMatrix(feature_values(series.stamps, series.load_mw, series.weather, selector),
                         selector.channel_names(), 0 if selector.include_load else None)
