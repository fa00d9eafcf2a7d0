"""Frozen-encoder linear probe: how well do mean-pooled context vectors
separate speakers? A stand-in for downstream fine-tuning quality that runs
in seconds.

The probe is multinomial logistic regression trained full-batch on
standardized features; accuracy is utterance-level on held-out utterances
from the same speakers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model as m
from .errors import ConfigError
from .frontend import features_for_record
from .rng import DEFAULT_SEED, TAG_PROBE, substream
from .silo import UtteranceRecord


@dataclass(frozen=True)
class ProbeConfig:
    epochs: int = 300
    lr: float = 0.05
    eval_fraction: float = 0.2
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError("probe epochs must be >= 1")
        if self.lr <= 0:
            raise ConfigError("probe lr must be > 0")
        if not 0.0 < self.eval_fraction < 1.0:
            raise ConfigError("eval_fraction must be in (0, 1)")


@dataclass
class ProbeTask:
    """Speaker-labeled utterances with a per-speaker train/eval split."""

    classes: list[str]
    train_records: list[UtteranceRecord]
    eval_records: list[UtteranceRecord]

    def label(self, record: UtteranceRecord) -> int:
        return self.classes.index(record.speaker_id)


def build_task(records, eval_fraction: float = 0.2) -> ProbeTask:
    """Every stride-th utterance of each speaker goes to eval, the rest to
    train, so classes stay balanced and the split is deterministic."""
    by_speaker: dict[str, list[UtteranceRecord]] = {}
    for r in records:
        by_speaker.setdefault(r.speaker_id, []).append(r)
    if len(by_speaker) < 2:
        raise ConfigError(f"probe task needs >= 2 speakers, got {len(by_speaker)}")
    stride = max(2, int(round(1.0 / eval_fraction)))
    classes = sorted(by_speaker)
    train, eval_ = [], []
    for speaker in classes:
        ordered = sorted(by_speaker[speaker], key=lambda r: (r.chapter_id, r.utterance_id))
        if len(ordered) < stride:
            raise ConfigError(f"speaker {speaker} has {len(ordered)} utterances, "
                              f"too few for a 1/{stride} eval split")
        for i, r in enumerate(ordered):
            (eval_ if i % stride == stride - 1 else train).append(r)
    return ProbeTask(classes=classes, train_records=train, eval_records=eval_)


# feature rows per packed forward pass of extract_contexts: bounds the
# features, latents and LSTM state alive at once
_CHUNK_ROWS = 256


def _feature_chunks(records, base_dir):
    """Feature matrices of consecutive records, in lists of at most
    ``_CHUNK_ROWS`` rows in all; a longer utterance is a list of its own."""
    chunk: list[np.ndarray] = []
    filled = 0
    for record in records:
        feats = features_for_record(record, base_dir)
        if chunk and filled + len(feats) > _CHUNK_ROWS:
            yield chunk
            chunk, filled = [], 0
        chunk.append(feats)
        filled += len(feats)
    if chunk:
        yield chunk


def extract_contexts(weights: np.ndarray, cpc_config: m.CpcConfig, records,
                     base_dir=None) -> np.ndarray:
    """Mean-pooled context vector per utterance, rows in record order.

    Pure forward pass; nothing is updated. Each chunk of consecutive
    records (:func:`_feature_chunks`) runs the encoder once and the packed
    LSTM once.
    """
    params = m.unflatten(cpc_config, weights, requires_grad=False)
    rows = []
    for chunk in _feature_chunks(records, base_dir):
        lengths = [len(f) for f in chunk]
        x = np.concatenate(chunk)
        chunk.clear()  # the concatenation is the one copy kept
        c = m.contextualize(m.encode(x, params), params, lengths).data
        ends = np.cumsum(lengths).tolist()
        rows.extend(c[end - n:end].mean(axis=0) for n, end in zip(lengths, ends))
    return np.vstack(rows)


def train_probe(x_train: np.ndarray, y_train: np.ndarray, x_eval: np.ndarray,
                y_eval: np.ndarray, num_classes: int, epochs: int, lr: float,
                seed: int) -> tuple[np.ndarray, float]:
    """Full-batch softmax regression; returns (weights, eval accuracy)."""
    if num_classes < 2:
        raise ConfigError("probe needs >= 2 classes")
    if len(np.unique(y_train)) < 2:
        raise ConfigError("training labels collapse to a single class")
    mu = x_train.mean(axis=0)
    sd = np.maximum(x_train.std(axis=0), 1e-8)
    xt = np.hstack([(x_train - mu) / sd, np.ones((x_train.shape[0], 1))])
    xe = np.hstack([(x_eval - mu) / sd, np.ones((x_eval.shape[0], 1))])
    onehot = np.eye(num_classes)[y_train]
    rng = substream(seed, TAG_PROBE)
    w = 0.01 * rng.standard_normal((xt.shape[1], num_classes))
    mom = np.zeros_like(w)
    n = xt.shape[0]
    for _ in range(epochs):
        logits = xt @ w
        logits -= logits.max(axis=1, keepdims=True)
        p = np.exp(logits)
        p /= p.sum(axis=1, keepdims=True)
        grad = xt.T @ (p - onehot) / n
        mom = 0.9 * mom + grad
        w -= lr * mom
    accuracy = float(np.mean(np.argmax(xe @ w, axis=1) == y_eval))
    return w, accuracy


@dataclass
class ProbeResult:
    arm: str
    checkpoint: str
    accuracy: float
    n_eval: int

    def render(self) -> str:
        return "\t".join([self.arm, self.checkpoint, repr(self.accuracy), str(self.n_eval)])


PROBE_HEADER = "arm\tcheckpoint\taccuracy\tn_eval"


def render_probe_report(results, header_comments: list[str] | None = None) -> str:
    lines = [f"# {c}" for c in (header_comments or [])]
    lines.append("# " + PROBE_HEADER)
    for r in results:
        for value in (r.arm, r.checkpoint):
            if "\t" in value or "\n" in value:
                raise ConfigError(f"probe report field {value!r} contains a delimiter")
        lines.append(r.render())
    return "\n".join(lines) + "\n"


def evaluate_weights(arm: str, checkpoint_name: str, weights: np.ndarray,
                     cpc_config: m.CpcConfig, task: ProbeTask,
                     probe: ProbeConfig, base_dir=None) -> ProbeResult:
    """Extract contexts for the task's split and train/evaluate the probe."""
    x_train = extract_contexts(weights, cpc_config, task.train_records, base_dir)
    x_eval = extract_contexts(weights, cpc_config, task.eval_records, base_dir)
    y_train = np.array([task.label(r) for r in task.train_records])
    y_eval = np.array([task.label(r) for r in task.eval_records])
    _, accuracy = train_probe(x_train, y_train, x_eval, y_eval,
                              num_classes=len(task.classes), epochs=probe.epochs,
                              lr=probe.lr, seed=probe.seed)
    return ProbeResult(arm=arm, checkpoint=checkpoint_name, accuracy=accuracy,
                       n_eval=len(task.eval_records))
