"""Centralized baseline: all utterances in one pool, globally reshuffled
each epoch, mixed-speaker batches, a single Adam optimizer.

It runs as a one-client federation through the federated round loop: the one
stream holds every epoch's shuffled batches, and each round applies Adam to
that client's delta, which at client_lr=1 is the batch gradient itself. So
the two arms share the model, loss, feature pipeline, metrics rows,
checkpoint cadence and format, and differ only in their data streams and
optimizer settings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model as m
from .autodiff import gradient
from .errors import ConfigError
from .federated import FedConfig, RunResult, batch_mean_loss, run_rounds
from .optim import AdamConfig
from .rng import DEFAULT_SEED, TAG_SHUFFLE, substream
from .silo import ClientStream

# Unused here since the steps run in fedcpc.federated; kept as attributes of
# this module because perfbench/tracing.py wraps them by name.
from .checkpoint import save_checkpoint  # noqa: F401
from .optim import adam_step  # noqa: F401


@dataclass(frozen=True)
class CentralConfig:
    epochs: int = 1
    batch_size: int = 16
    lr: float = 2e-3
    beta1: float = AdamConfig.beta1
    beta2: float = AdamConfig.beta2
    eps: float = AdamConfig.eps
    max_steps: int = 200
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.max_steps < 1:
            raise ConfigError("max_steps must be >= 1")


def sgd_reference_step(weights: np.ndarray, batch, lr: float,
                       cpc_config: m.CpcConfig, seed: int,
                       base_dir=None) -> np.ndarray:
    """w - lr * grad(mean loss over the batch's usable utterances).

    The oracle side of the one-round federated equivalence: per-utterance
    negatives come from (seed, utterance_id) alone, so this computes the
    same loss terms a federated round would.
    """
    if not batch:
        raise ConfigError("reference step needs a non-empty batch")
    loss, params, usable = batch_mean_loss(weights, batch, cpc_config, seed, base_dir)
    if not usable:
        return weights.copy()
    grads = gradient(loss, params.tensors())
    return weights - lr * np.concatenate([g.ravel() for g in grads])


def run_central(records, central: CentralConfig, cpc_config: m.CpcConfig,
                out_dir=None, base_dir=None,
                checkpoint_meta: dict[str, str] | None = None) -> RunResult:
    """Epochs of shuffled fixed-size batches under Adam, at most max_steps
    optimizer steps; one metrics row per step (``clients`` is always 1)."""
    records = list(records)
    if not records:
        raise ConfigError("empty corpus")
    batches = []
    for epoch in range(central.epochs):
        perm = substream(central.seed, TAG_SHUFFLE, epoch).permutation(len(records))
        batches += [[records[i] for i in perm[start:start + central.batch_size]]
                    for start in range(0, len(records), central.batch_size)]
    fed = FedConfig(num_clients=1, clients_per_round=1, local_steps=1, batches_per_step=1,
                    rounds_max=min(len(batches), central.max_steps), client_lr=1.0,
                    server_opt="adam", server_lr=central.lr, beta1=central.beta1,
                    beta2=central.beta2, eps=central.eps, seed=central.seed)
    return run_rounds([ClientStream(0, batches)], fed, cpc_config, out_dir=out_dir,
                      base_dir=base_dir, checkpoint_meta=checkpoint_meta)
