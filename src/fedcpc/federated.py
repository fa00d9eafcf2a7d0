"""Federated pre-training: select clients, run local updates, aggregate by
sample count, apply the server optimizer, repeat until the data is spent.

Each selected client trains locally from the broadcast weights w and returns
its update, delta_k = client_lr * (sum of its local gradients). The server
averages the updates as

    delta_bar = sum_k (n_k / n) * delta_k

where n_k counts the utterances that actually contributed loss terms, then
either sets w - delta_bar (plain mode) or feeds delta_bar to Adam as the
pseudo-gradient. With local_steps=1 and batches_per_step=1 this is plain
FedSGD. The centralized baseline runs this same round loop with a single
client whose stream is the pooled, shuffled corpus.

Clients within a round are independent; the thread pool only shortens the
wall clock. Aggregation always sums in ascending client order, so parallel
and serial runs produce bitwise-identical weights.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import model as m
from .autodiff import Tensor, gradient
from .checkpoint import save_checkpoint
from .errors import ConfigError, NonFiniteUpdateError, NonFiniteValueError, TooShortError
from .files import atomic_writer
from .frontend import features_for_record
from .optim import AdamConfig, AdamState, adam_step
from .rng import DEFAULT_SEED, TAG_ASSIGN, TAG_SELECT, substream, utterance_rng
from .silo import ClientStream, assign_to_clients, partition_by_speaker

SERVER_OPTS = ("adam", "plain")


def deterministic_mode() -> bool:
    """Whether FEDCPC_DETERMINISTIC asks for clock-free runs."""
    return os.environ.get("FEDCPC_DETERMINISTIC", "") not in ("", "0")


@dataclass(frozen=True)
class FedConfig:
    num_clients: int = 10
    clients_per_round: int = 4
    client_batch_size: int = 4
    local_steps: int = 1
    batches_per_step: int = 1
    rounds_max: int = 200
    client_lr: float = 1.0
    server_opt: str = "adam"
    server_lr: float = 3e-3
    beta1: float = AdamConfig.beta1
    beta2: float = AdamConfig.beta2
    eps: float = AdamConfig.eps
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if self.num_clients < 1 or self.clients_per_round < 1:
            raise ConfigError("num_clients and clients_per_round must be >= 1")
        if not 1 <= self.client_batch_size <= 8:
            raise ConfigError(f"client_batch_size must be in [1, 8], got {self.client_batch_size}")
        if self.local_steps < 1 or self.batches_per_step < 1:
            raise ConfigError("local_steps and batches_per_step must be >= 1")
        if self.rounds_max < 1:
            raise ConfigError("rounds_max must be >= 1")
        if self.client_lr < 0:
            raise ConfigError("client_lr must be >= 0")
        if self.server_opt not in SERVER_OPTS:
            raise ConfigError(f"server_opt must be one of {SERVER_OPTS}, got {self.server_opt!r}")

    def adam_config(self) -> AdamConfig:
        return AdamConfig(lr=self.server_lr, beta1=self.beta1, beta2=self.beta2, eps=self.eps)


@dataclass
class ClientUpdate:
    delta: np.ndarray
    num_utterances: int
    client_index: int
    round_index: int
    mean_loss: float


@dataclass
class ServerState:
    weights: np.ndarray
    adam: AdamState
    round_index: int = 0
    utterances_seen: int = 0

    @classmethod
    def fresh(cls, weights: np.ndarray) -> "ServerState":
        return cls(weights=weights.copy(), adam=AdamState.zeros(weights.size))


@dataclass
class MetricsRow:
    round: int
    clients: int
    utterances: int
    mean_client_loss: float
    grad_norm: float
    wall_ms: int

    def render(self) -> str:
        return "\t".join([str(self.round), str(self.clients), str(self.utterances),
                          repr(self.mean_client_loss), repr(self.grad_norm),
                          str(self.wall_ms)])


METRICS_HEADER = "round\tclients\tutterances\tmean_client_loss\tgrad_norm\twall_ms"


def render_metrics(rows, header_comments: list[str] | None = None) -> str:
    lines = [f"# {c}" for c in (header_comments or [])]
    lines.append("# " + METRICS_HEADER)
    lines.extend(r.render() for r in rows)
    return "\n".join(lines) + "\n"


def write_metrics(path, rows, header_comments: list[str] | None = None) -> None:
    with atomic_writer(path) as f:
        f.write(render_metrics(rows, header_comments).encode("utf-8"))


def select_clients(active: list[int], clients_per_round: int,
                   rng: np.random.Generator) -> list[int]:
    """min(clients_per_round, len(active)) distinct client indices, uniform
    without replacement, returned in ascending order."""
    if not active:
        raise ConfigError("no active client streams to select from")
    k = min(clients_per_round, len(active))
    picked = rng.choice(len(active), size=k, replace=False)
    return sorted(active[i] for i in picked)


def batch_mean_loss(weights: np.ndarray, batch, cpc_config: m.CpcConfig,
                    seed: int, base_dir=None) -> tuple[Tensor, m.ModelParams, list]:
    """Mean InfoNCE loss over the batch's usable utterances, as one graph
    (:func:`fedcpc.model.batch_loss`).

    Returns (loss tensor, live params, usable records). Utterances too short
    for the loss are left out; an unusable batch returns an empty list.
    Negative draws depend only on (seed, utterance_id), so any arm that sees
    the same utterance computes the same loss term.
    """
    params = m.unflatten(cpc_config, weights, requires_grad=True)
    usable, feats = [], []
    for record in batch:
        try:
            x = features_for_record(record, base_dir)
        except TooShortError:
            continue  # audio below one feature frame counts as unusable
        if m.usable_frames(x.shape[0], cpc_config):
            usable.append(record)
            feats.append(x)
    if not usable:
        return Tensor(np.zeros(())), params, []
    lengths = [f.shape[0] for f in feats]
    x = np.concatenate(feats)
    del feats  # the graph keeps only the concatenated copy
    rngs = [utterance_rng(seed, r.utterance_id) for r in usable]
    return m.batch_loss(x, lengths, params, cpc_config, rngs), params, usable


def client_update(weights: np.ndarray, stream: ClientStream, fed: FedConfig,
                  cpc_config: m.CpcConfig, round_index: int,
                  base_dir=None) -> ClientUpdate | None:
    """Local training for one client; None when the stream has nothing left.

    Draws batches_per_step batches, then takes local_steps passes of one SGD
    step per batch at client_lr, and returns the summed step delta (the local
    weights end at ``weights - delta``). A draw with no usable utterance is
    dropped and the next one tried. ``weights`` is never modified.
    """
    while True:
        batches = [stream.next_batch() for _ in range(fed.batches_per_step)]
        batches = [b for b in batches if b is not None]
        if not batches:
            return None
        delta = np.zeros(weights.size)
        first_pass = []  # (usable utterances, loss) per batch
        for step in range(fed.local_steps):
            for batch in batches:
                loss, params, usable = batch_mean_loss(weights - delta, batch, cpc_config,
                                                       fed.seed, base_dir)
                if not usable:
                    continue
                grads = gradient(loss, params.tensors())
                delta = delta + fed.client_lr * np.concatenate([g.ravel() for g in grads])
                if step == 0:
                    first_pass.append((len(usable), loss.item()))
        if first_pass:
            return ClientUpdate(delta=delta, num_utterances=sum(n for n, _ in first_pass),
                                client_index=stream.client_index, round_index=round_index,
                                mean_loss=weighted_mean(first_pass))


def weighted_mean(pairs):
    """sum_i (n_i / n) * x_i over (n_i, x_i) pairs, summed in the given order.

    One pair returns its x exactly, so a one-client, one-batch round reports
    its batch loss and applies its gradient bit for bit.
    """
    n = sum(n_i for n_i, _ in pairs)
    return sum((n_i / n) * x for n_i, x in pairs)


def aggregate(updates: list[ClientUpdate]) -> np.ndarray:
    """Sample-count-weighted mean delta, summed in ascending client order."""
    if not updates:
        raise ConfigError("nothing to aggregate")
    ordered = sorted(updates, key=lambda u: u.client_index)
    if any(u.delta.size != ordered[0].delta.size for u in ordered):
        raise ConfigError("client deltas disagree in length")
    return weighted_mean([(u.num_utterances, u.delta) for u in ordered])


def server_step(state: ServerState, delta_bar: np.ndarray, fed: FedConfig) -> None:
    """Advance the server by one round.

    Plain mode sets w - delta_bar; adam mode treats delta_bar as the gradient.
    A non-finite delta_bar rejects the round untouched.
    """
    if delta_bar.shape != state.weights.shape:
        raise ConfigError(f"aggregated delta has shape {delta_bar.shape}, "
                          f"server holds {state.weights.shape}")
    if not np.all(np.isfinite(delta_bar)):
        raise NonFiniteUpdateError(f"round {state.round_index + 1}: non-finite aggregated update")
    if fed.server_opt == "plain":
        state.weights = state.weights - delta_bar
    else:
        state.weights = adam_step(state.adam, state.weights, delta_bar, fed.adam_config())
    state.round_index += 1


@dataclass
class RunResult:
    weights: np.ndarray
    metrics: list[MetricsRow] = field(default_factory=list)
    checkpoints: list[str] = field(default_factory=list)


def build_streams(records, fed: FedConfig) -> list[ClientStream]:
    silos = partition_by_speaker(records)
    return assign_to_clients(silos, fed.num_clients, fed.client_batch_size,
                             substream(fed.seed, TAG_ASSIGN))


def run_federated(records, fed: FedConfig, cpc_config: m.CpcConfig,
                  out_dir=None, workers: int = 1, base_dir=None,
                  checkpoint_meta: dict[str, str] | None = None) -> RunResult:
    """Federated pre-training over the speaker-siloed client streams."""
    return run_rounds(build_streams(records, fed), fed, cpc_config, out_dir=out_dir,
                      workers=workers, base_dir=base_dir, checkpoint_meta=checkpoint_meta)


def run_rounds(streams: list[ClientStream], fed: FedConfig, cpc_config: m.CpcConfig,
               out_dir=None, workers: int = 1, base_dir=None,
               checkpoint_meta: dict[str, str] | None = None) -> RunResult:
    """The single-pass round loop; stops at rounds_max or data exhaustion."""
    state = ServerState.fresh(m.flatten(m.init_params(cpc_config, fed.seed)))
    result = RunResult(weights=state.weights)
    ckpt_every = max(1, fed.rounds_max // 10)
    pool = ThreadPoolExecutor(max_workers=workers) if workers > 1 else None
    try:
        for attempt in range(1, fed.rounds_max + 1):
            active = [s.client_index for s in streams if not s.exhausted]
            if not active:
                break
            started = time.monotonic()
            chosen = select_clients(active, fed.clients_per_round,
                                    substream(fed.seed, TAG_SELECT, attempt))
            broadcast = state.weights

            def work(idx: int) -> ClientUpdate | None:
                try:
                    return client_update(broadcast, streams[idx], fed, cpc_config,
                                         round_index=attempt, base_dir=base_dir)
                except NonFiniteValueError as e:
                    raise NonFiniteUpdateError(
                        f"round {state.round_index + 1}, client {idx}: {e}") from e

            updates = [u for u in (pool.map if pool else map)(work, chosen) if u is not None]
            if not updates:
                continue
            delta_bar = aggregate(updates)
            server_step(state, delta_bar, fed)
            n_round = sum(u.num_utterances for u in updates)
            state.utterances_seen += n_round
            wall_ms = 0 if deterministic_mode() else int(round(1000 * (time.monotonic() - started)))
            result.metrics.append(MetricsRow(
                round=state.round_index,
                clients=len(updates),
                utterances=n_round,
                mean_client_loss=weighted_mean([(u.num_utterances, u.mean_loss)
                                                for u in updates]),
                grad_norm=float(np.linalg.norm(delta_bar)),
                wall_ms=wall_ms,
            ))
            if out_dir is not None and state.round_index % ckpt_every == 0:
                path = Path(out_dir) / f"round{state.round_index:05d}.ckpt"
                save_checkpoint(path, cpc_config, state.weights, meta=checkpoint_meta)
                result.checkpoints.append(str(path))
    finally:
        if pool is not None:
            pool.shutdown()
    result.weights = state.weights
    if out_dir is not None:
        path = Path(out_dir) / "final.ckpt"
        save_checkpoint(path, cpc_config, state.weights, meta=checkpoint_meta)
        result.checkpoints.append(str(path))
    return result
