"""Finite-difference validation of the tape gradients.

For each parameter tensor, compare the tape gradient against central
differences on a sample of coordinates. The loss is that of a packed batch
of two utterances of unequal length (:func:`fedcpc.model.batch_loss`), so the
check covers the multi-sequence LSTM as well as the per-utterance InfoNCE.
The error measure is |a - f| / max(|a|, |f|, 1e-5): pure relative error
wherever the gradient is measurable, with a floor at the finite-difference
noise scale so that coordinates whose true gradient sits below what a 1e-5
step can resolve (cancellation noise is around 1e-10 here) do not produce
spurious failures.

``corrupt`` is a fault-injection hook for tests: scaling one tensor's tape
gradient by 1.01 must make exactly that group fail.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model as m
from .autodiff import gradient
from .rng import TAG_GRADCHECK, substream, utterance_rng

FD_STEP = 1e-5
REL_TOL = 1e-4
DENOM_FLOOR = 1e-5


@dataclass
class GroupReport:
    group: str
    max_rel_err: float
    coords_checked: int

    @property
    def passed(self) -> bool:
        return self.max_rel_err < REL_TOL

    def render(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return f"{self.group}\t{repr(self.max_rel_err)}\t{self.coords_checked}\t{status}"


def _batch_loss(config: m.CpcConfig, params: m.ModelParams, features, seed: int):
    # the negative-sampling rngs are rebuilt per call so every evaluation of
    # the loss sees identical candidate sets
    rngs = [utterance_rng(seed, f"gradcheck-{i}") for i in range(len(features))]
    return m.batch_loss(np.concatenate(features), [f.shape[0] for f in features],
                        params, config, rngs)


def _loss_value(config: m.CpcConfig, weights: np.ndarray, features, seed: int) -> float:
    params = m.unflatten(config, weights, requires_grad=False)
    return _batch_loss(config, params, features, seed).item()


def run_gradcheck(config: m.CpcConfig, seed: int, frames: int = 12,
                  coords_per_group: int = 20, step: float = FD_STEP,
                  corrupt: str | None = None) -> list[GroupReport]:
    """One report per parameter tensor, in flattening order, for a batch of
    two utterances of ``frames`` and ``frames - 3`` frames (no fewer than
    the loss accepts)."""
    rng = substream(seed, TAG_GRADCHECK)
    second = substream(seed, TAG_GRADCHECK, 1)
    shorter = max(frames - 3, config.min_frames())
    features = [rng.standard_normal((frames, config.input_dim)),
                second.standard_normal((shorter, config.input_dim))]
    params = m.init_params(config, seed)
    loss = _batch_loss(config, params, features, seed)
    grads = gradient(loss, params.tensors())
    names = list(params.named)
    weights = m.flatten(params)
    reports = []
    offset = 0
    for name, grad in zip(names, grads):
        if corrupt is not None and name == corrupt:
            grad = grad * 1.01
        size = grad.size
        flat_grad = grad.ravel()
        k = min(coords_per_group, size)
        coords = rng.choice(size, size=k, replace=False)
        worst = 0.0
        for c in coords:
            idx = offset + int(c)
            bumped = weights.copy()
            bumped[idx] += step
            up = _loss_value(config, bumped, features, seed)
            bumped[idx] -= 2 * step
            down = _loss_value(config, bumped, features, seed)
            fd = (up - down) / (2 * step)
            a = float(flat_grad[c])
            rel = abs(a - fd) / max(abs(a), abs(fd), DENOM_FLOOR)
            worst = max(worst, float(rel))
        reports.append(GroupReport(group=name, max_rel_err=worst, coords_checked=k))
        offset += size
    return reports


def render_report(reports) -> str:
    lines = ["# group\tmax_rel_err\tcoords\tstatus"]
    lines.extend(r.render() for r in reports)
    return "\n".join(lines) + "\n"
