"""Desk-scale simulator of federated self-supervised speech pre-training:
speaker-siloed streams feeding a contrastive predictive model under
single-pass federated SGD, with a centralized baseline and a linear-probe
evaluation."""

from .errors import (CheckpointError, ConfigError, ContractError,
                     DimensionError, FedcpcError, ManifestError,
                     NonFiniteUpdateError, NonFiniteValueError, TooShortError)

__all__ = [
    "CheckpointError", "ConfigError", "ContractError", "DimensionError",
    "FedcpcError", "ManifestError", "NonFiniteUpdateError", "NonFiniteValueError",
    "TooShortError",
]

__version__ = "0.1.0"
