"""Artifact writes that never leave a half-written file behind."""

from __future__ import annotations

import os
import secrets
from contextlib import contextmanager
from pathlib import Path

from .errors import ConfigError, FedcpcError


@contextmanager
def atomic_writer(path, error: type[FedcpcError] = ConfigError):
    """A binary file whose bytes replace ``path`` only when the block ends
    without an exception.

    The bytes go to a temporary file in ``path``'s directory, which
    ``os.replace`` then renames over ``path`` in one step. If the block or
    the write fails, the temporary file is removed and ``path`` keeps its
    earlier bytes (or stays absent). An ``OSError``, such as a missing
    directory, is raised as ``error`` naming ``path``.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(6)}.tmp")
    try:
        with open(tmp, "xb") as f:
            yield f
        os.replace(tmp, path)
    except BaseException as e:
        tmp.unlink(missing_ok=True)
        if isinstance(e, OSError):
            raise error(f"cannot write {path}: {e.strerror or e}") from None
        raise
