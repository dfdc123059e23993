"""Seeded synthetic load/weather generator shaped like the real inputs.

Per-zone temperature is a seasonal plus diurnal sinusoid with AR(1) noise;
shortwave radiation is a clipped daylight curve scaled by season; longwave
radiation is affine in temperature; winds are AR(1) components. Load combines
a base level, a workday/weekend weekly pattern, a diurnal pattern, additive
noise, and a convex V-shaped response to population-weighted temperature
around a comfort point, so load correlates with |temp - comfort| the way real
cooling/heating demand does.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .codec import write_csv
from .errors import InvalidConfig
from .ingest import LOAD_HEADER, N_ZONES, WEATHER_HEADER, cst_to_utc, format_hour

HOURS_PER_YEAR = 8760
START = np.datetime64("2015-01-01T00", "h")

ZONE_TEMP_OFFSET = np.linspace(-4.0, 4.0, 8)
ZONE_WEIGHT = np.array([0.24, 0.16, 0.14, 0.12, 0.11, 0.09, 0.08, 0.06])
COMFORT_K = 291.0
BASE_LOAD_MW = 40000.0
# weekday/weekend level with transitions smoothed over +-3 hours
_WEEK_STEP = np.where(np.arange(168) // 24 >= 5, -2500.0, 1500.0)
WEEK_PROFILE = np.array([_WEEK_STEP[(idx + np.arange(-3, 4)) % 168].mean() for idx in range(168)])


def _ar1(shocks: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """AR(1) paths from zero, one per column of `shocks`, column j with phi[j]."""
    out = np.empty_like(shocks)
    state = np.zeros(shocks.shape[1])
    for t, shock in enumerate(shocks):
        out[t] = state = phi * state + shock
    return out


def simulate(n_hours: int, seed: int):
    """Generate (stamps, loads, temp, wind_u, wind_v, lwrad, swrad).

    Weather arrays have shape (n_hours, 8). Deterministic for a fixed seed.
    """
    if n_hours < 1:
        raise InvalidConfig(f"n_hours must be >= 1, got {n_hours}")
    rng = np.random.default_rng(seed)
    # drawn in this order and these shapes, which fix every seed's output
    temp_shocks, sw_noise, lw_noise, u_shocks, v_shocks, load_shocks = (
        rng.normal(0.0, sigma, (n_hours, width))
        for sigma, width in ((0.6, 8), (15.0, 8), (10.0, 8), (0.5, 8), (0.5, 8), (250.0, 1)))
    temp_ar, u_ar, v_ar, load_ar = np.split(_ar1(
        np.hstack([temp_shocks, u_shocks, v_shocks, load_shocks]),
        np.repeat([0.95, 0.97, 0.97, 0.85], [8, 8, 8, 1])), [8, 16, 24], axis=1)
    h = np.arange(n_hours)
    hod = h % 24
    seasonal = -np.cos(2.0 * math.pi * h / HOURS_PER_YEAR)      # -1 in winter
    diurnal_temp = np.cos(2.0 * math.pi * (hod - 15) / 24.0)    # peak at 15:00

    temp = (287.0 + ZONE_TEMP_OFFSET[None, :]
            + 12.0 * seasonal[:, None]
            + 5.0 * diurnal_temp[:, None]
            + temp_ar)

    daylight = np.maximum(0.0, np.cos(2.0 * math.pi * (hod - 13) / 24.0))
    sw_scale = 600.0 + 250.0 * seasonal
    swrad = np.maximum(0.0, sw_scale[:, None] * daylight[:, None] + sw_noise)

    lwrad = np.maximum(0.0, 3.5 * (temp - 190.0) + lw_noise)

    wind_u, wind_v = 2.0 + u_ar, 1.0 + v_ar

    weighted_temp = temp @ ZONE_WEIGHT
    weekly = WEEK_PROFILE[h % 168]
    diurnal_load = 4500.0 * np.cos(2.0 * math.pi * (hod - 17) / 24.0)
    comfort_gap = np.abs(weighted_temp - COMFORT_K)
    loads = BASE_LOAD_MW + weekly + diurnal_load + 900.0 * comfort_gap + load_ar[:, 0]

    stamps = START + h
    return stamps, loads, temp, wind_u, wind_v, lwrad, swrad


def generate_synthetic(years: float, seed: int, out_dir) -> tuple[Path, Path]:
    """Write load.csv and weather.csv under out_dir; returns their paths.

    One year produces exactly 8760 load rows and 8 * 8760 weather rows.
    Identical seeds produce byte-identical files.
    """
    hours = years * HOURS_PER_YEAR  # overflows to inf for years above ~2.05e304
    if not 0.5 < hours < math.inf:  # round(hours) >= 1; also false for NaN
        raise InvalidConfig(f"years must be finite and over half an hour, got {years}")
    if seed < 0:
        raise InvalidConfig(f"seed must be >= 0, got {seed}")
    n_hours = round(hours)
    stamps, loads, temp, wind_u, wind_v, lwrad, swrad = simulate(n_hours, seed)

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    load_path = out_dir / "load.csv"
    weather_path = out_dir / "weather.csv"

    write_csv(load_path, LOAD_HEADER, zip(format_hour(stamps).tolist(), loads.tolist()))
    write_csv(weather_path, WEATHER_HEADER, zip(
        np.repeat(format_hour(cst_to_utc(stamps)), N_ZONES).tolist(),
        np.tile(np.arange(N_ZONES), n_hours).tolist(),
        *(column.reshape(-1).tolist() for column in (temp, wind_u, wind_v, lwrad, swrad))))
    return load_path, weather_path
