"""Sliding-window supervised samples with chronological splits and min-max
normalization fitted on the train split only."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyTrainSplit, MissingLoadChannel, TooFewSamples
from .features import FeatureMatrix
from .ingest import HOUR_DTYPE

DEFAULT_FRACTIONS = (0.45, 0.45, 0.10)
SPLITS = ("train", "val", "test")
#: the longest look-ahead: one leap year of hours. A forecast allocates t2
#: values a row, so this also bounds what a t2 read from a file can cost.
MAX_T2 = 8784
#: the fewest windows that a chronological train/val/test split accepts
MIN_WINDOWS = 3


@dataclass(frozen=True)
class WindowConfig:
    """Look-back (t1) and look-ahead (t2) lengths in hours."""

    t1: int = 6
    t2: int = 4

    def __post_init__(self):
        if min(self.t1, self.t2) < 1:
            raise ValueError(f"t1 and t2 must be >= 1, got {self.t1!r}, {self.t2!r}")
        if self.t2 > MAX_T2:
            raise ValueError(f"t2 must be <= {MAX_T2} hours, got {self.t2!r}")

    @property
    def span(self) -> int:
        return self.t1 + self.t2


@dataclass(frozen=True)
class WindowedDataset:
    """Every admissible stride-1 window, in chronological order, raw units,
    plus a chronological train/val/test assignment.

    `build_windows` leaves the assignment empty (n_train = n_val = 0);
    `chronological_split` fills it in.
    """

    inputs: np.ndarray   # (n, t1, channels)
    targets: np.ndarray  # (n, t2) load in MW
    origins: np.ndarray  # (n,) datetime64[h], first hour of each window
    channel_names: tuple[str, ...]
    load_channel: int
    cfg: WindowConfig
    n_train: int = 0
    n_val: int = 0

    def __len__(self) -> int:
        return len(self.origins)

    @property
    def n_test(self) -> int:
        return len(self) - self.n_train - self.n_val

    def split_slice(self, split: str) -> slice:
        if split == "train":
            return slice(0, self.n_train)
        if split == "val":
            return slice(self.n_train, self.n_train + self.n_val)
        if split == "test":
            return slice(self.n_train + self.n_val, len(self))
        raise ValueError(f"unknown split {split!r}; expected one of {SPLITS}")

    def split_arrays(self, split: str) -> tuple[np.ndarray, np.ndarray]:
        sl = self.split_slice(split)
        return self.inputs[sl], self.targets[sl]

    def split_origins(self, split: str) -> np.ndarray:
        sl = self.split_slice(split)
        return self.origins[sl]


def window_starts(segments, span: int) -> np.ndarray:
    """The first row of every window of `span` rows that lies inside one
    segment, ascending: a segment (start, length) gives the starts
    start ... start + length - span, and none when it is shorter than `span`."""
    segments = np.asarray(segments, dtype=np.intp).reshape(-1, 2)
    counts = np.maximum(segments[:, 1] - span + 1, 0)
    first = np.cumsum(counts) - counts  # each segment's first window's index
    return np.repeat(segments[:, 0] - first, counts) + np.arange(counts.sum())


def build_windows(matrix: FeatureMatrix, segments, stamps, cfg: WindowConfig) -> WindowedDataset:
    """Cut overlapping (t1+t2)-hour windows that lie inside one segment each.

    Windows start at the rows `window_starts` gives, so they never straddle a
    gap. Targets are the raw load channel of the last t2 hours. Segments in
    ascending order give windows in chronological order.
    """
    if matrix.load_channel is None:
        raise MissingLoadChannel("selector excluded load; targets are undefined")
    starts = window_starts(segments, cfg.span)
    rows = starts[:, None] + np.arange(cfg.span)
    inputs = matrix.values[rows[:, :cfg.t1]]
    targets = matrix.values[rows[:, cfg.t1:], matrix.load_channel]
    origins = np.asarray(stamps, dtype=HOUR_DTYPE)[starts]
    for array in (inputs, targets, origins):
        array.setflags(write=False)
    return WindowedDataset(inputs, targets, origins, matrix.channel_names,
                           matrix.load_channel, cfg)


def check_fractions(fractions) -> tuple[float, float, float]:
    """Validate (train, val, test) fractions: 3 positive numbers summing to 1."""
    if not (isinstance(fractions, (list, tuple)) and len(fractions) == 3 and all(
            isinstance(f, (int, float)) and not isinstance(f, bool) and f > 0
            for f in fractions)):
        raise ValueError(f"fractions must be 3 positive numbers, got {fractions!r}")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"fractions must sum to 1, got {sum(fractions)}")
    return tuple(fractions)


def chronological_split(raw: WindowedDataset,
                        fractions: tuple[float, float, float] = DEFAULT_FRACTIONS,
                        ) -> WindowedDataset:
    """Assign the earliest floor(f1*n) samples to train, next floor(f2*n) to
    validation, and the remainder to test.

    Windows must already be in chronological order, as `build_windows` emits
    them; the arrays are shared, not copied.
    """
    fractions = check_fractions(fractions)
    n = len(raw)
    if n < MIN_WINDOWS:
        raise TooFewSamples(f"need at least {MIN_WINDOWS} windows, got {n}")
    return dataclasses.replace(raw, n_train=math.floor(fractions[0] * n),
                               n_val=math.floor(fractions[1] * n))


@dataclass(frozen=True)
class Normalizer:
    """Per-channel min-max scaler fitted on train-split input rows, plus a
    separate (min, max) for the load target, built by `fit` or read from an
    artifact. Degenerate channels map to 0.5; out-of-range values pass through
    the linear map unclipped."""

    channel_min: np.ndarray
    channel_max: np.ndarray
    target_min: float
    target_max: float

    @classmethod
    def fit(cls, dataset: WindowedDataset) -> "Normalizer":
        if dataset.n_train == 0:
            raise EmptyTrainSplit("cannot fit a normalizer on an empty train split")
        x, y = dataset.split_arrays("train")
        cmin = x.min(axis=(0, 1))
        cmax = x.max(axis=(0, 1))
        return cls(cmin, cmax, float(y.min()), float(y.max()))

    def transform(self, x: np.ndarray) -> np.ndarray:
        """Map (..., channels) raw values to the unit scale per channel."""
        span = self.channel_max - self.channel_min
        degenerate = span == 0
        safe = np.where(degenerate, 1.0, span)
        out = (np.asarray(x, dtype=np.float64) - self.channel_min) / safe
        if degenerate.any():
            out = np.where(degenerate, 0.5, out)
        return out

    def transform_target(self, y: np.ndarray) -> np.ndarray:
        span = self.target_max - self.target_min
        if span == 0:
            return np.full_like(np.asarray(y, dtype=np.float64), 0.5)
        return (np.asarray(y, dtype=np.float64) - self.target_min) / span

    def inverse_transform_load(self, y: np.ndarray) -> np.ndarray:
        """Map normalized load predictions back to megawatts (exact inverse)."""
        span = self.target_max - self.target_min
        if span == 0:
            return np.full_like(np.asarray(y, dtype=np.float64), self.target_min)
        return np.asarray(y, dtype=np.float64) * span + self.target_min
