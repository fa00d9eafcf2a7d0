"""Exception types shared across the package."""


class FedcpcError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(FedcpcError):
    """Array shapes do not line up for the requested operation."""


class ContractError(FedcpcError):
    """An operation was called outside its contract (e.g. non-scalar loss)."""


class ConfigError(FedcpcError):
    """Invalid or inconsistent configuration."""


class TooShortError(FedcpcError):
    """Input has too few samples/frames/steps for the requested operation."""


class ManifestError(FedcpcError):
    """Manifest file could not be parsed or validated.

    ``line`` is the 1-based line number of the offending record, when known.
    """

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class CheckpointError(FedcpcError):
    """Checkpoint file is malformed or incompatible."""


class NonFiniteUpdateError(FedcpcError):
    """A server round produced non-finite values and was rejected."""


class NonFiniteValueError(FedcpcError, ValueError):
    """A tensor was built from NaN or Inf entries, e.g. by a diverging run."""
