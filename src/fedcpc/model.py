"""Contrastive predictive model: frame encoder, recurrent context encoder,
future-prediction heads, and the contrastive (InfoNCE-style) objective.

Shapes use T for the number of feature frames, E for latent width and H for
context width. The objective, for prediction horizons k = 1..K, scores the
true future latent z[t+k] against negatives drawn from other frames of the
same utterance:

    score(j | t, k) = z_j . (c_t @ W_k + b_k) / temperature
    loss = mean over k of  -(1/(T-k)) * sum_t log softmax(score)[true]

The mean over horizons keeps the uniform-score value at ln(N) regardless of
K, so freshly initialized models start near ln(N).

A client batch is one graph (:func:`batch_loss`) of one tape node per layer,
three for the desk model: the encoder is one node
(:func:`fedcpc.autodiff.dense_relu`) over the concatenated frames of all its
utterances, each LSTM layer is one packed node over all of them, and InfoNCE
is one node (:func:`fedcpc.autodiff.infonce`) over every utterance's rows.
An utterance's negatives for every (t, k) pair are drawn in one bulk call
that returns exactly the draws of calling :func:`sample_negatives` pair by
pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, DimensionError, TooShortError
from .rng import choice_rows


@dataclass(frozen=True)
class CpcConfig:
    """Model hyperparameters, defaulting to the desk model. ``num_negatives``
    is N-1; the candidate set a score competes in has ``num_negatives + 1``
    entries."""

    input_dim: int = 768
    enc_layers: int = 2
    enc_units: int = 64
    ctx_layers: int = 1
    ctx_units: int = 128
    future_steps: int = 4
    temperature: float = 1.0
    num_negatives: int = 7

    def __post_init__(self):
        if min(self.input_dim, self.enc_layers, self.enc_units,
               self.ctx_layers, self.ctx_units) < 1:
            raise ConfigError("all layer counts and widths must be >= 1")
        if self.future_steps < 1:
            raise ConfigError("future_steps must be >= 1")
        if not 0 < self.temperature < math.inf:  # also rejects NaN
            raise ConfigError(f"temperature must be finite and > 0, got {self.temperature}")
        if self.num_negatives < 1:
            raise ConfigError("num_negatives must be >= 1")

    @property
    def num_candidates(self) -> int:
        return self.num_negatives + 1

    def min_frames(self) -> int:
        """Shortest sequence the loss accepts."""
        return max(self.future_steps + 1, self.num_candidates)


@dataclass
class ModelParams:
    """All trainable weights: ``named`` maps each :func:`param_shapes` name
    to its tensor, in that order.

    The per-layer views group the tensors by name prefix and layer index:

    enc:   per layer (W: in x out, b: out)
    ar:    per LSTM layer (wx: in x 4H, wh: H x 4H, b: 4H), gate order i,f,g,o
    heads: per horizon k (W: H x E, b: E), k = 1..future_steps
    """

    named: dict[str, Tensor]

    def _layers(self, prefix: str) -> list[tuple[Tensor, ...]]:
        layers: dict[str, list[Tensor]] = {}
        for name, t in self.named.items():
            group, layer, _ = name.split(".")
            if group == prefix:
                layers.setdefault(layer, []).append(t)
        return [tuple(ts) for ts in layers.values()]

    @property
    def enc(self) -> list[tuple[Tensor, Tensor]]:
        return self._layers("enc")

    @property
    def ar(self) -> list[tuple[Tensor, Tensor, Tensor]]:
        return self._layers("ar")

    @property
    def heads(self) -> list[tuple[Tensor, Tensor]]:
        return self._layers("head")

    def tensors(self) -> list[Tensor]:
        return list(self.named.values())


def param_shapes(config: CpcConfig) -> Iterator[tuple[str, tuple[int, ...]]]:
    """Parameter names and shapes, in flattening order: the one table of the
    parameter layout. Every matrix has its fan-in as its first dimension.
    The entries are yielded lazily, so a reader can stop at the first one
    that disagrees with a claimed table."""
    in_dim = config.input_dim
    for i in range(config.enc_layers):
        yield f"enc.{i}.W", (in_dim, config.enc_units)
        yield f"enc.{i}.b", (config.enc_units,)
        in_dim = config.enc_units
    for i in range(config.ctx_layers):
        yield f"ar.{i}.Wx", (in_dim, 4 * config.ctx_units)
        yield f"ar.{i}.Wh", (config.ctx_units, 4 * config.ctx_units)
        yield f"ar.{i}.b", (4 * config.ctx_units,)
        in_dim = config.ctx_units
    for k in range(1, config.future_steps + 1):
        yield f"head.{k}.W", (config.ctx_units, config.enc_units)
        yield f"head.{k}.b", (config.enc_units,)


def param_count(config: CpcConfig) -> int:
    return sum(math.prod(s) for _, s in param_shapes(config))


def init_params(config: CpcConfig, seed: int) -> ModelParams:
    """Uniform(-a, a) with a = sqrt(1/fan_in) per matrix, drawn in flattening
    order; biases zero except the LSTM forget gate, which starts at 1.0."""
    from .rng import TAG_INIT, substream

    rng = substream(seed, TAG_INIT)
    named = {}
    for name, shape in param_shapes(config):
        if len(shape) == 2:
            a = np.sqrt(1.0 / shape[0])
            value = rng.uniform(-a, a, size=shape)
        else:
            value = np.zeros(shape)
            if name.startswith("ar."):
                h = shape[0] // 4
                value[h:2 * h] = 1.0
        named[name] = Tensor(value, requires_grad=True)
    return ModelParams(named)


def flatten(params: ModelParams) -> np.ndarray:
    return np.concatenate([t.data.ravel() for t in params.tensors()])


def unflatten(config: CpcConfig, vec: np.ndarray, requires_grad: bool = True) -> ModelParams:
    vec = np.asarray(vec, dtype=np.float64)
    if vec.shape != (param_count(config),):
        raise ConfigError(f"weight vector has {vec.size} entries, model needs {param_count(config)}")
    named = {}
    offset = 0
    for name, shape in param_shapes(config):
        n = math.prod(shape)
        named[name] = Tensor(vec[offset:offset + n].reshape(shape).copy(),
                             requires_grad=requires_grad)
        offset += n
    return ModelParams(named)


def encode(x, params: ModelParams) -> Tensor:
    """Frame-local feed-forward encoder: T x input_dim -> T x enc_units,
    one :func:`fedcpc.autodiff.dense_relu` node for all its layers."""
    x = x if isinstance(x, Tensor) else Tensor(x)
    width = params.enc[0][0].shape[0]
    if x.ndim != 2 or x.shape[1] != width:
        raise ConfigError(f"encoder expects input with {width} columns, got shape {x.shape}")
    return ad.dense_relu(x, params.enc)


def contextualize(z: Tensor, params: ModelParams, lengths=None) -> Tensor:
    """Stacked unidirectional LSTM over latent frames, zero initial state.

    The rows of ``z`` are consecutive sequences of the given ``lengths``
    (one sequence when None). Row t of a sequence's result depends only on
    rows 0..t of that sequence.
    """
    if z.ndim != 2 or z.shape[1] != params.ar[0][0].shape[0]:
        raise ConfigError(f"context encoder expects {params.ar[0][0].shape[0]} columns, "
                          f"got shape {z.shape}")
    h = z
    for wx, wh, b in params.ar:
        h = ad.lstm_layer(h, wx, wh, b, lengths)
    return h


def sample_negatives(t: int, k: int, total: int, count: int,
                     rng: np.random.Generator) -> np.ndarray:
    """``count`` distinct frame indices != t+k, uniform over [0, total).

    Indices are 0-based. Raises when the utterance has fewer than count+1
    frames, i.e. too few distinct candidates.
    """
    target = t + k
    if not 0 <= target < total:
        raise ConfigError(f"target frame {target} outside [0, {total})")
    if total - 1 < count:
        raise TooShortError(f"utterance has {total} frames; {count} negatives need at least {count + 1}")
    # draw among the total-1 other frames, then skip over the target
    idx = rng.choice(total - 1, size=count, replace=False)
    return idx + (idx >= target)


def draw_negatives(steps: int, config: CpcConfig, rng: np.random.Generator) -> np.ndarray:
    """Negatives for every (t, k) pair of a ``steps``-frame utterance, one row
    per pair in horizon-major order (k = 1..K, then t = 0..T-k-1).

    Every pair draws from the same T-1 frames, so the draws come from one
    :func:`~fedcpc.rng.choice_rows` call; they are exactly the draws of
    calling :func:`sample_negatives` per pair in that order, which is the
    fallback wherever the bulk form cannot promise them.
    """
    pairs = [(t, k) for k in range(1, config.future_steps + 1) for t in range(steps - k)]
    idx = choice_rows(rng, steps - 1, config.num_negatives, len(pairs))
    if idx is None:
        return np.array([sample_negatives(t, k, steps, config.num_negatives, rng)
                         for t, k in pairs])
    target = np.array([t + k for t, k in pairs])
    return idx + (idx >= target[:, None])


def infonce_loss(z: Tensor, c: Tensor, params: ModelParams, config: CpcConfig,
                 *rngs: np.random.Generator, lengths=None) -> Tensor:
    """Contrastive loss over all horizons, averaged over sequences; scalar,
    finite, >= 0.

    The rows of ``z`` and ``c`` are consecutive sequences of the given
    ``lengths`` (one sequence when None), and ``rngs`` holds one generator
    per sequence. Negatives are drawn per (t, k) pair from the same sequence
    through its generator in horizon-major order (:func:`draw_negatives`),
    so the generator states fully determine the candidate sets.
    """
    if z.shape[0] != c.shape[0]:
        raise ConfigError(f"latent/context frame counts differ: {z.shape} vs {c.shape}")
    lengths = [z.shape[0]] if lengths is None else list(lengths)
    if len(rngs) != len(lengths):
        raise DimensionError(f"{len(rngs)} generators for {len(lengths)} sequences")
    candidates = []
    for steps, rng in zip(lengths, rngs):
        if steps <= config.future_steps:
            raise TooShortError(f"{steps} frames cannot support a {config.future_steps}-step horizon")
        if steps < config.num_candidates:
            raise TooShortError(f"{steps} frames cannot supply {config.num_negatives} distinct negatives")
        true = np.concatenate([np.arange(k, steps) for k in range(1, config.future_steps + 1)])
        candidates.append(np.column_stack([true, draw_negatives(steps, config, rng)]))
    return ad.infonce(z, c, params.heads, lengths, candidates, config.temperature)


def utterance_loss(features, params: ModelParams, config: CpcConfig,
                   rng: np.random.Generator) -> Tensor:
    """Full-pipeline loss for one utterance's feature matrix."""
    z = encode(features, params)
    c = contextualize(z, params)
    return infonce_loss(z, c, params, config, rng)


def batch_loss(x, lengths, params: ModelParams, config: CpcConfig, rngs) -> Tensor:
    """Mean :func:`utterance_loss` over several utterances, as one graph.

    The rows of ``x`` are the utterances' feature matrices, one after the
    other, with the given ``lengths``; ``rngs`` holds each one's
    negative-sampling generator. The encoder runs once over all the rows,
    each LSTM layer is one packed node and InfoNCE is one node over all the
    sequences.
    """
    z = encode(x, params)
    c = contextualize(z, params, lengths)
    return infonce_loss(z, c, params, config, *rngs, lengths=lengths)


def usable_frames(num_frames: int, config: CpcConfig) -> bool:
    """Whether a sequence of this length supports the loss."""
    return num_frames >= config.min_frames()
