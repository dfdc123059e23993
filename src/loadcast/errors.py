"""Exception hierarchy.

Every error's stable machine-readable code is its class name; the CLI prints
``error[<ClassName>]: <message>`` to stderr and exits nonzero.
"""


class LoadcastError(Exception):
    """Base class for all package errors."""

    @property
    def code(self) -> str:
        return type(self).__name__


# --- ingest ---------------------------------------------------------------

class MalformedRow(LoadcastError):
    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


class DuplicateTimestamp(LoadcastError):
    def __init__(self, stamp):
        super().__init__(f"duplicate timestamp {stamp}")
        self.stamp = stamp


class NonPositiveLoad(LoadcastError):
    def __init__(self, stamp):
        super().__init__(f"non-positive load at {stamp}")
        self.stamp = stamp


class DuplicateZoneHour(LoadcastError):
    def __init__(self, stamp, zone_id: int):
        super().__init__(f"duplicate (timestamp, zone) pair: {stamp} zone {zone_id}")
        self.stamp = stamp
        self.zone_id = zone_id


class UnknownZone(LoadcastError):
    def __init__(self, zone_id):
        super().__init__(f"zone_id {zone_id} outside 0-7")
        self.zone_id = zone_id


class NonPhysical(LoadcastError):
    """Temperature at or below 0 K, or negative radiation."""


class EmptyIntersection(LoadcastError):
    """Load and weather series share no fully-covered hour."""


# --- featureset -----------------------------------------------------------

class EmptySelector(LoadcastError):
    """Feature selection yields zero channels."""


# --- dataset --------------------------------------------------------------

class MissingLoadChannel(LoadcastError):
    """Targets are undefined because the selector excluded the load channel."""


class TooFewSamples(LoadcastError):
    """Fewer than 3 windows; no non-empty chronological split exists."""


class EmptyTrainSplit(LoadcastError):
    """Normalizer fitting requires a non-empty train split."""


class NotFitted(LoadcastError):
    """Normalizer used before fitting."""


# --- neuralcore -----------------------------------------------------------

class ShapeMismatch(LoadcastError):
    """Array shape incompatible with the layer or optimizer state."""


class KernelTooLarge(LoadcastError):
    """Convolution kernel longer than the time axis."""


class InvalidRate(LoadcastError):
    """Dropout rate outside [0, 1)."""


class NonFiniteValue(LoadcastError):
    """NaN or Inf produced in a forward or backward pass, or given to a linear solver."""


# --- models ---------------------------------------------------------------

class EmptyWindow(LoadcastError):
    """Persistence forecast needs at least one observed load."""


class SingularSystem(LoadcastError):
    """Unregularized ridge solve on a rank-deficient design."""


class NonConvergence(LoadcastError):
    """Epsilon-SVR ADMM hit max iterations before its residuals fell within tolerance."""


class InvalidSpec(LoadcastError):
    """Model specification is internally inconsistent."""


class NonFiniteLoss(LoadcastError):
    """Training loss became NaN or Inf."""


class EmptySplit(LoadcastError):
    """Operation requires a non-empty data split."""


class NotContiguous(LoadcastError):
    """Requested hours are not a gap-free run inside one segment."""


class CorruptArtifact(LoadcastError):
    """Model file failed checksum or structural validation."""


class VersionMismatch(LoadcastError):
    """Model file written by a newer format version."""


# --- eval -----------------------------------------------------------------

class LengthMismatch(LoadcastError):
    """Prediction and actual vectors differ in length."""


class ZeroActual(LoadcastError):
    """Percentage error undefined for non-positive actual values."""


class DegenerateActual(LoadcastError):
    """R^2 undefined when actual values are all identical (or fewer than 2)."""


class UnknownKind(LoadcastError):
    """Unrecognized plot-data kind."""


# --- experiments ----------------------------------------------------------

class DatasetTooSmall(LoadcastError):
    """Series too short to produce at least 3 windows."""


class MissingRows(LoadcastError):
    """Grid report has no aggregated rows to render."""


class InvalidConfig(LoadcastError):
    """Malformed grid or generator configuration."""


# --- cli ------------------------------------------------------------------

class ConfigError(LoadcastError):
    """Run configuration has unknown keys or invalid values."""
