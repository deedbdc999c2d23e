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


def adam_step(theta: np.ndarray, grad: np.ndarray, state: AdamState, learning_rate: float) -> None:
    """One Adam update of ``theta`` and ``state``, both in place.

    ``grad`` is the gradient laid out like ``theta`` (the vector under
    backward()'s views). theta <- theta - lr * m_hat / (sqrt(v_hat) + eps)
    with the standard 1/(1-beta^t) bias corrections, in that order.
    """
    if grad.shape != theta.shape or state.m.shape != theta.shape:
        raise ValidationError("params, grads and Adam state sizes disagree")
    if not np.all(np.isfinite(grad)):
        raise TrainingDivergedError("non-finite gradient passed to adam_step")
    state.t += 1
    scratch = np.empty_like(grad)
    state.m *= _BETA1
    state.m += np.multiply(grad, 1.0 - _BETA1, out=scratch)
    state.v *= _BETA2
    state.v += np.multiply(np.square(grad, out=scratch), 1.0 - _BETA2, out=scratch)
    denom = np.sqrt(np.divide(state.v, 1.0 - _BETA2**state.t, out=scratch), out=scratch)  # sqrt(v_hat)
    denom += _EPSILON
    step = np.divide(state.m, 1.0 - _BETA1**state.t)  # m_hat
    step *= learning_rate
    theta -= np.divide(step, denom, out=step)
