"""Adam with bias correction, updating one flat parameter vector in place."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from physproj.errors import TrainingDivergedError, ValidationError

_BETA1, _BETA2 = 0.9, 0.999  # moment decay rates
_EPSILON = 1e-8


@dataclass
class AdamState:
    """First/second moment vectors, shaped like the parameters, plus the step counter."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def initialize(cls, theta: np.ndarray) -> "AdamState":
        return cls(m=np.zeros_like(theta), v=np.zeros_like(theta))


def adam_step(theta: np.ndarray, grads: list[np.ndarray], state: AdamState, learning_rate: float) -> None:
    """One Adam update of ``theta`` and ``state``, both in place.

    ``grads`` holds one gradient per parameter, in the order and layout of
    ``theta`` (Network.parameters()). theta <- theta - lr * m_hat /
    (sqrt(v_hat) + eps) with the standard 1/(1-beta^t) bias corrections.
    """
    g = np.concatenate([np.ravel(d) for d in grads])
    if g.shape != theta.shape or state.m.shape != theta.shape:
        raise ValidationError("params, grads and Adam state sizes disagree")
    if not np.all(np.isfinite(g)):
        raise TrainingDivergedError("non-finite gradient passed to adam_step")
    state.t += 1
    state.m *= _BETA1
    state.m += (1.0 - _BETA1) * g
    state.v *= _BETA2
    state.v += (1.0 - _BETA2) * g**2
    m_hat = state.m / (1.0 - _BETA1**state.t)
    v_hat = state.v / (1.0 - _BETA2**state.t)
    theta -= learning_rate * m_hat / (np.sqrt(v_hat) + _EPSILON)
