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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, TooShortError


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


def param_shapes(config: CpcConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Parameter names and shapes, in flattening order: the one table of the
    parameter layout. Every matrix has its fan-in as its first dimension."""
    shapes: list[tuple[str, tuple[int, ...]]] = []
    in_dim = config.input_dim
    for i in range(config.enc_layers):
        shapes.append((f"enc.{i}.W", (in_dim, config.enc_units)))
        shapes.append((f"enc.{i}.b", (config.enc_units,)))
        in_dim = config.enc_units
    for i in range(config.ctx_layers):
        shapes.append((f"ar.{i}.Wx", (in_dim, 4 * config.ctx_units)))
        shapes.append((f"ar.{i}.Wh", (config.ctx_units, 4 * config.ctx_units)))
        shapes.append((f"ar.{i}.b", (4 * config.ctx_units,)))
        in_dim = config.ctx_units
    for k in range(1, config.future_steps + 1):
        shapes.append((f"head.{k}.W", (config.ctx_units, config.enc_units)))
        shapes.append((f"head.{k}.b", (config.enc_units,)))
    return shapes


def param_count(config: CpcConfig) -> int:
    return sum(int(np.prod(s)) for _, s in param_shapes(config))


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
        n = int(np.prod(shape))
        named[name] = Tensor(vec[offset:offset + n].reshape(shape).copy(),
                             requires_grad=requires_grad)
        offset += n
    return ModelParams(named)


def _as_feature_matrix(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    data = getattr(x, "x", x)  # accept FeatureSequence or a bare array
    return Tensor(np.asarray(data, dtype=np.float64))


def encode(x, params: ModelParams) -> Tensor:
    """Frame-local feed-forward encoder: T x input_dim -> T x enc_units."""
    h = _as_feature_matrix(x)
    if h.ndim != 2 or h.shape[1] != params.enc[0][0].shape[0]:
        raise ConfigError(f"encoder expects input with {params.enc[0][0].shape[0]} columns, "
                          f"got shape {h.shape}")
    for w, b in params.enc:
        h = ad.relu(ad.add_rowvec(ad.matmul(h, w), b))
    return h


def contextualize(z: Tensor, params: ModelParams) -> Tensor:
    """Stacked unidirectional LSTM over latent frames, zero initial state.

    Row t of the result depends only on rows 0..t of ``z``.
    """
    if z.ndim != 2 or z.shape[1] != params.ar[0][0].shape[0]:
        raise ConfigError(f"context encoder expects {params.ar[0][0].shape[0]} columns, "
                          f"got shape {z.shape}")
    h = z
    for wx, wh, b in params.ar:
        h = ad.lstm_layer(h, wx, wh, b)
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


def prediction_scores(z: Tensor, c: Tensor, params: ModelParams, k: int,
                      config: CpcConfig) -> Tensor:
    """Temperature-scaled score matrix for horizon ``k``.

    Entry [j, t] scores latent frame j as the step-(t+k) future of context
    frame t; columns cover t = 0..T-k-1.
    """
    steps = z.shape[0]
    w, b = params.heads[k - 1]
    pred = ad.add_rowvec(ad.matmul(ad.index(c, slice(0, steps - k)), w), b)
    return ad.scale(ad.matmul(z, ad.transpose(pred)), 1.0 / config.temperature)


def _horizon_term(scores: Tensor, k: int, steps: int, config: CpcConfig,
                  rng: np.random.Generator) -> Tensor:
    """-(1/(T-k)) * sum_t log softmax over {true, negatives} for horizon k."""
    width = steps - k
    n_cand = config.num_candidates
    idx = np.empty((width, n_cand), dtype=np.intp)
    idx[:, 0] = np.arange(k, steps)  # true future frame per t
    for t in range(width):
        idx[t, 1:] = sample_negatives(t, k, steps, config.num_negatives, rng)
    # logits[t, j] = scores[idx[t, j], t]
    logits = ad.index(scores, (idx, np.arange(width)[:, None]))
    true_logprob = ad.index(ad.log_softmax(logits), (slice(None), 0))
    return ad.div_scalar(ad.sum_all(true_logprob), -float(width))


def infonce_loss(z: Tensor, c: Tensor, params: ModelParams, config: CpcConfig,
                 rng: np.random.Generator) -> Tensor:
    """Contrastive loss over all horizons; scalar, finite, >= 0.

    Negatives are drawn per (t, k) pair from the same utterance through
    ``rng`` in horizon-major order, so a given generator state fully
    determines the candidate sets.
    """
    steps = z.shape[0]
    if z.shape[0] != c.shape[0]:
        raise ConfigError(f"latent/context frame counts differ: {z.shape} vs {c.shape}")
    if steps <= config.future_steps:
        raise TooShortError(f"{steps} frames cannot support a {config.future_steps}-step horizon")
    if steps < config.num_candidates:
        raise TooShortError(f"{steps} frames cannot supply {config.num_negatives} distinct negatives")
    total: Tensor | None = None
    for k in range(1, config.future_steps + 1):
        term = _horizon_term(prediction_scores(z, c, params, k, config), k, steps, config, rng)
        total = term if total is None else ad.add(total, term)
    return ad.div_scalar(total, float(config.future_steps))


def utterance_loss(features, params: ModelParams, config: CpcConfig,
                   rng: np.random.Generator) -> Tensor:
    """Full-pipeline loss for one utterance's feature matrix."""
    z = encode(features, params)
    c = contextualize(z, params)
    return infonce_loss(z, c, params, config, rng)


def usable_frames(num_frames: int, config: CpcConfig) -> bool:
    """Whether a sequence of this length supports the loss."""
    return num_frames >= config.min_frames()
