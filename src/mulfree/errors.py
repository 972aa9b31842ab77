"""Exception types shared across the package."""


class MulfreeError(Exception):
    """Base class for all library errors."""


class DimensionError(MulfreeError, ValueError):
    """Operand shapes do not line up."""


class EmptyInputError(MulfreeError, ValueError):
    """An operation received an empty reduction axis."""


class LabelError(MulfreeError, ValueError):
    """A class label falls outside [0, num_classes)."""


class ContextError(MulfreeError, RuntimeError):
    """Layer backward called without a pending forward context."""


class DegenerateBatchError(MulfreeError, ValueError):
    """Batch statistics requested over fewer than two rows."""


class DegenerateCloudError(MulfreeError, ValueError):
    """A point cloud collapsed to a single location and cannot be scaled."""


class EncodingError(MulfreeError, ValueError):
    """A weight exponent or sign cannot be represented in the 5-bit code."""


class FixedPointRangeError(MulfreeError, OverflowError):
    """A value does not fit the Q16.16 fixed-point range."""


class MeshError(MulfreeError, ValueError):
    """Malformed or degenerate mesh input."""


class CacheError(MulfreeError, IOError):
    """Corrupt, truncated, or mismatched binary cache."""


class ConfigError(MulfreeError, ValueError):
    """Invalid run configuration, routing, or checkpoint/architecture mismatch."""


class TrainingDivergedError(MulfreeError, RuntimeError):
    """Training produced a non-finite loss or weight; message names the first bad layer."""
