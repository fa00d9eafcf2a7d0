"""Adam on flat weight vectors, with the usual bias-corrected moments."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def zeros(cls, dim: int) -> "AdamState":
        return cls(m=np.zeros(dim), v=np.zeros(dim), t=0)


@dataclass(frozen=True)
class AdamConfig:
    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def adam_step(state: AdamState, weights: np.ndarray, grad: np.ndarray,
              config: AdamConfig) -> np.ndarray:
    """One update; advances ``state`` in place and returns the new weights."""
    state.t += 1
    state.m = config.beta1 * state.m + (1.0 - config.beta1) * grad
    state.v = config.beta2 * state.v + (1.0 - config.beta2) * grad * grad
    m_hat = state.m / (1.0 - config.beta1 ** state.t)
    v_hat = state.v / (1.0 - config.beta2 ** state.t)
    return weights - config.lr * m_hat / (np.sqrt(v_hat) + config.eps)
