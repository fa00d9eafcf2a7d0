"""Checkpoint files: a small text header followed by the raw weight payload.

Layout (header lines are ASCII, "\n"-terminated):

    FEDCPC-CKPT-1
    meta <key> <value>          zero or more, sorted by key
    param <name> <d0> <d1> ...  one per parameter, in flattening order
    data
    <float64 little-endian payload, concatenated in param order>

Equal weights and metadata produce byte-identical files, so file hashes can
stand in for deep comparisons.
"""

from __future__ import annotations

import dataclasses
import hashlib
from pathlib import Path

import numpy as np

from .errors import CheckpointError
from .model import CpcConfig, param_shapes

MAGIC = "FEDCPC-CKPT-1"

_CFG_PREFIX = "cfg."


def config_meta(config: CpcConfig) -> dict[str, str]:
    """CpcConfig rendered as checkpoint metadata entries."""
    out = {}
    for f in dataclasses.fields(config):
        out[_CFG_PREFIX + f.name] = repr(getattr(config, f.name))
    return out


def config_from_meta(meta: dict[str, str]) -> CpcConfig:
    kwargs = {}
    for f in dataclasses.fields(CpcConfig):
        key = _CFG_PREFIX + f.name
        if key not in meta:
            raise CheckpointError(f"checkpoint metadata missing {key}")
        kind = type(f.default)  # every field is an int or a float
        try:
            kwargs[f.name] = kind(meta[key])
        except ValueError:
            raise CheckpointError(f"{key}: expected {kind.__name__}, got {meta[key]!r}") from None
    return CpcConfig(**kwargs)


def save_checkpoint(path, config: CpcConfig, weights: np.ndarray,
                    meta: dict[str, str] | None = None) -> None:
    """Write weights (the flat vector) plus config and extra metadata."""
    weights = np.ascontiguousarray(weights, dtype=np.float64)
    shapes = param_shapes(config)
    expected = sum(int(np.prod(s)) for _, s in shapes)
    if weights.shape != (expected,):
        raise CheckpointError(f"weight vector has {weights.size} entries, config needs {expected}")
    entries = dict(config_meta(config))
    for key, value in (meta or {}).items():
        if any(ch.isspace() for ch in key) or "\n" in str(value):
            raise CheckpointError(f"metadata key/value must be single-line, space-free key: {key!r}")
        entries[str(key)] = str(value)
    lines = [MAGIC]
    for key in sorted(entries):
        lines.append(f"meta {key} {entries[key]}")
    for name, shape in shapes:
        lines.append(f"param {name} " + " ".join(str(d) for d in shape))
    lines.append("data")
    header = ("\n".join(lines) + "\n").encode("ascii")
    payload = weights.astype("<f8").tobytes()
    Path(path).write_bytes(header + payload)


def load_checkpoint(path) -> tuple[CpcConfig, np.ndarray, dict[str, str]]:
    """Read a checkpoint; returns (config, flat weights, metadata)."""
    blob = Path(path).read_bytes()
    sep = b"\ndata\n"
    cut = blob.find(sep)
    if cut < 0:
        raise CheckpointError(f"{path}: no data sentinel")
    header = blob[:cut].decode("ascii", errors="replace").split("\n")
    payload = blob[cut + len(sep):]
    if not header or header[0] != MAGIC:
        raise CheckpointError(f"{path}: bad magic {header[0]!r}, expected {MAGIC!r}")
    meta: dict[str, str] = {}
    declared: list[tuple[str, tuple[int, ...]]] = []
    for line in header[1:]:
        kind, _, rest = line.partition(" ")
        if kind == "meta":
            key, _, value = rest.partition(" ")
            meta[key] = value
        elif kind == "param":
            parts = rest.split(" ")
            try:
                declared.append((parts[0], tuple(int(d) for d in parts[1:])))
            except ValueError:
                raise CheckpointError(f"{path}: bad param line {line!r}") from None
        else:
            raise CheckpointError(f"{path}: unexpected header line {line!r}")
    config = config_from_meta(meta)
    if declared != param_shapes(config):
        raise CheckpointError(f"{path}: param table disagrees with embedded config")
    expected = sum(int(np.prod(s)) for _, s in declared)
    if len(payload) != expected * 8:
        raise CheckpointError(f"{path}: payload holds {len(payload)} bytes, expected {expected * 8}")
    weights = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    return config, weights, meta


def file_sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
