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

from dataclasses import dataclass, field

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
        if self.temperature <= 0:
            raise ConfigError("temperature must be > 0")
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
    """All trainable weights.

    enc:   per layer (W: in x out, b: out)
    ar:    per LSTM layer (wx: in x 4H, wh: H x 4H, b: 4H), gate order i,f,g,o
    heads: per horizon k (W: H x E, b: E), k = 1..future_steps
    """

    enc: list[tuple[Tensor, Tensor]] = field(default_factory=list)
    ar: list[tuple[Tensor, Tensor, Tensor]] = field(default_factory=list)
    heads: list[tuple[Tensor, Tensor]] = field(default_factory=list)

    def named(self):
        for i, (w, b) in enumerate(self.enc):
            yield f"enc.{i}.W", w
            yield f"enc.{i}.b", b
        for i, (wx, wh, b) in enumerate(self.ar):
            yield f"ar.{i}.Wx", wx
            yield f"ar.{i}.Wh", wh
            yield f"ar.{i}.b", b
        for k, (w, b) in enumerate(self.heads, start=1):
            yield f"head.{k}.W", w
            yield f"head.{k}.b", b

    def tensors(self) -> list[Tensor]:
        return [t for _, t in self.named()]


def param_shapes(config: CpcConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Parameter names and shapes, in flattening order."""
    shapes: list[tuple[str, tuple[int, ...]]] = []
    in_dim = config.input_dim
    for i in range(config.enc_layers):
        shapes.append((f"enc.{i}.W", (in_dim, config.enc_units)))
        shapes.append((f"enc.{i}.b", (config.enc_units,)))
        in_dim = config.enc_units
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
    """Uniform(-a, a) with a = sqrt(1/fan_in) per matrix; biases zero except
    the LSTM forget gate, which starts at 1.0."""
    from .rng import TAG_INIT, substream

    rng = substream(seed, TAG_INIT)
    params = ModelParams()
    in_dim = config.input_dim
    for _ in range(config.enc_layers):
        a = np.sqrt(1.0 / in_dim)
        w = rng.uniform(-a, a, size=(in_dim, config.enc_units))
        params.enc.append((Tensor(w, requires_grad=True),
                           Tensor(np.zeros(config.enc_units), requires_grad=True)))
        in_dim = config.enc_units
    in_dim = config.enc_units
    h = config.ctx_units
    for _ in range(config.ctx_layers):
        ax, ah = np.sqrt(1.0 / in_dim), np.sqrt(1.0 / h)
        wx = rng.uniform(-ax, ax, size=(in_dim, 4 * h))
        wh = rng.uniform(-ah, ah, size=(h, 4 * h))
        b = np.zeros(4 * h)
        b[h:2 * h] = 1.0
        params.ar.append((Tensor(wx, requires_grad=True),
                          Tensor(wh, requires_grad=True),
                          Tensor(b, requires_grad=True)))
        in_dim = h
    ac = np.sqrt(1.0 / config.ctx_units)
    for _ in range(config.future_steps):
        w = rng.uniform(-ac, ac, size=(config.ctx_units, config.enc_units))
        params.heads.append((Tensor(w, requires_grad=True),
                             Tensor(np.zeros(config.enc_units), requires_grad=True)))
    return params


def flatten(params: ModelParams) -> np.ndarray:
    return np.concatenate([t.data.ravel() for _, t in params.named()])


def unflatten(config: CpcConfig, vec: np.ndarray, requires_grad: bool = True) -> ModelParams:
    vec = np.asarray(vec, dtype=np.float64)
    if vec.shape != (param_count(config),):
        raise ConfigError(f"weight vector has {vec.size} entries, model needs {param_count(config)}")
    arrays: dict[str, np.ndarray] = {}
    offset = 0
    for name, shape in param_shapes(config):
        n = int(np.prod(shape))
        arrays[name] = vec[offset:offset + n].reshape(shape).copy()
        offset += n
    return params_from_arrays(config, arrays, requires_grad=requires_grad)


def params_from_arrays(config: CpcConfig, arrays: dict[str, np.ndarray],
                       requires_grad: bool = True) -> ModelParams:
    def t(name):
        return Tensor(arrays[name], requires_grad=requires_grad)

    params = ModelParams()
    for i in range(config.enc_layers):
        params.enc.append((t(f"enc.{i}.W"), t(f"enc.{i}.b")))
    for i in range(config.ctx_layers):
        params.ar.append((t(f"ar.{i}.Wx"), t(f"ar.{i}.Wh"), t(f"ar.{i}.b")))
    for k in range(1, config.future_steps + 1):
        params.heads.append((t(f"head.{k}.W"), t(f"head.{k}.b")))
    return params


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
    steps = z.shape[0]
    hdim = params.ar[0][1].shape[0]
    layer_in: list[Tensor] | None = None
    for li, (wx, wh, b) in enumerate(params.ar):
        h = Tensor(np.zeros(hdim))
        c = Tensor(np.zeros(hdim))
        outs = []
        for t in range(steps):
            x_t = ad.row(z, t) if li == 0 else layer_in[t]
            h, c = ad.lstm_cell(x_t, h, c, wx, wh, b)
            outs.append(h)
        layer_in = outs
    return ad.stack_rows(layer_in)


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
    candidates = np.concatenate([np.arange(target), np.arange(target + 1, total)])
    return rng.choice(candidates, size=count, replace=False)


def prediction_scores(z: Tensor, c: Tensor, params: ModelParams, k: int,
                      config: CpcConfig) -> Tensor:
    """Temperature-scaled score matrix for horizon ``k``.

    Entry [j, t] scores latent frame j as the step-(t+k) future of context
    frame t; columns cover t = 0..T-k-1.
    """
    steps = z.shape[0]
    w, b = params.heads[k - 1]
    pred = ad.add_rowvec(ad.matmul(ad.rows(c, 0, steps - k), w), b)
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
    logits = ad.gather_pairs(scores, idx, np.arange(width))
    true_logprob = ad.col(ad.log_softmax(logits), 0)
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
