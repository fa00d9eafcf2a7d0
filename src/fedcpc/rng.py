"""Deterministic random-stream derivation.

Every random decision in a run is drawn from a substream derived from the
experiment seed plus a fixed domain tag, so that unrelated parts of the
pipeline never share or reorder draws. Negative sampling is additionally
keyed by utterance id: any code path that evaluates the loss on a given
utterance sees the same negatives, independent of which arm (federated,
central, reference) or worker consumed it.
"""

import hashlib

import numpy as np

DEFAULT_SEED = 42

# Domain tags. Frozen; changing one changes every run keyed off it.
TAG_INIT = 1
TAG_ASSIGN = 2
TAG_SELECT = 3
TAG_SHUFFLE = 4
TAG_NEGATIVES = 5
TAG_CORPUS = 6
TAG_PROBE = 7
TAG_GRADCHECK = 8


def substream(seed: int, *tags: int) -> np.random.Generator:
    """Generator for the substream ``(seed, *tags)``."""
    return np.random.default_rng([int(seed), *[int(t) for t in tags]])


def _stable_hash(text: str) -> int:
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "little")


def utterance_rng(seed: int, utterance_id: str) -> np.random.Generator:
    """Per-utterance generator, stable across runs, arms and platforms."""
    return np.random.default_rng([int(seed), TAG_NEGATIVES, _stable_hash(utterance_id)])
